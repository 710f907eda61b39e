//! The sweep subsystem's headline guarantee: a sharded (rayon) sweep and a
//! sequential sweep with the same root seed emit **byte-identical** JSON
//! records, for every task family and scheduler kind.

use proptest::prelude::*;
use rr_bench::sweep::{json_report, RunOptions, RunRecord, Sweep};
use rr_corda::SchedulerKind;
use rr_core::driver::TaskTargets;
use rr_core::unified::Task;

fn strip_wall(mut records: Vec<RunRecord>) -> Vec<RunRecord> {
    for r in &mut records {
        r.wall_nanos = 0;
    }
    records
}

fn gathering_sweep(root_seed: u64) -> Sweep {
    Sweep {
        experiment: "T-gathering".into(),
        task: Task::Gathering,
        instances: vec![(8, 4), (10, 3), (12, 5)],
        schedulers: SchedulerKind::ALL.to_vec(),
        seeds_per_cell: 2,
        root_seed,
        targets: TaskTargets::open_ended(),
        budget_per_n: 20_000,
        budget_flat: 0,
        async_budget_factor: 2,
    }
}

fn searching_sweep(root_seed: u64) -> Sweep {
    Sweep {
        experiment: "T-searching".into(),
        task: Task::GraphSearching,
        instances: vec![(12, 5), (13, 6)],
        schedulers: SchedulerKind::ALL.to_vec(),
        seeds_per_cell: 1,
        root_seed,
        targets: TaskTargets::demonstrate(3, 0),
        budget_per_n: 10_000,
        budget_flat: 10_000,
        async_budget_factor: 2,
    }
}

#[test]
fn sharded_equals_sequential_for_gathering() {
    let sweep = gathering_sweep(42);
    let sequential = sweep.run_with(&RunOptions::new());
    let sharded = sweep.run_with(&RunOptions::new().sharded());
    assert_eq!(sequential.len(), sweep.jobs().len());
    assert_eq!(strip_wall(sequential.clone()), strip_wall(sharded.clone()));
    let a = json_report("T-gathering", 42, &sequential).unwrap();
    let b = json_report("T-gathering", 42, &sharded).unwrap();
    assert_eq!(a, b, "JSON reports must be byte-identical");
    assert!(sequential.iter().all(|r| r.ok), "{sequential:?}");
}

#[test]
fn sharded_equals_sequential_for_searching() {
    let sweep = searching_sweep(7);
    let sequential = sweep.run_with(&RunOptions::new());
    let sharded = sweep.run_with(&RunOptions::new().sharded());
    let a = json_report("T-searching", 7, &sequential).unwrap();
    let b = json_report("T-searching", 7, &sharded).unwrap();
    assert_eq!(a, b, "JSON reports must be byte-identical");
    assert!(sequential.iter().all(|r| r.ok && r.clearings >= 3));
}

#[test]
fn rerunning_the_same_sweep_is_reproducible() {
    let sweep = gathering_sweep(1234);
    let first = sweep.run_with(&RunOptions::new().sharded());
    let second = sweep.run_with(&RunOptions::new().sharded());
    assert_eq!(strip_wall(first), strip_wall(second));
}

/// `resume_at(c)` must produce exactly the suffix an uninterrupted run
/// produces — the primitive the sweep service's crash resume rests on.
#[test]
fn resume_at_reproduces_the_suffix() {
    let sweep = gathering_sweep(99);
    let full = strip_wall(sweep.run_with(&RunOptions::new()));
    for skip in [0, 1, full.len() / 2, full.len() - 1, full.len()] {
        let suffix = strip_wall(sweep.run_with(&RunOptions::new().resume_at(skip)));
        assert_eq!(suffix, full[skip..], "resume at {skip}");
        let sharded = strip_wall(sweep.run_with(&RunOptions::new().sharded().resume_at(skip)));
        assert_eq!(sharded, full[skip..], "sharded resume at {skip}");
    }
}

/// The progress sink sees every record exactly once, tagged with its cell
/// index, under both execution modes and from a resume point (where sharded
/// workers claim the remaining cells costliest first).
#[test]
fn progress_sink_observes_every_cell() {
    use std::sync::Mutex;
    let sweep = gathering_sweep(5);
    for (options, skip) in [
        (RunOptions::new(), 0),
        (RunOptions::new().sharded(), 0),
        (RunOptions::new().resume_at(5), 5),
        (RunOptions::new().sharded().resume_at(5), 5),
    ] {
        let seen: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
        let sink = |i: usize, r: &RunRecord| seen.lock().unwrap().push((i, r.seed));
        let records = sweep.run_with(&options.progress(&sink));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let expected: Vec<(usize, u64)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (skip + i, r.seed))
            .collect();
        assert_eq!(seen, expected, "resume at {skip}");
        assert_eq!(skip + records.len(), sweep.num_cells());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Byte-identical sharded vs sequential JSON for arbitrary root seeds
    /// (small grid to keep the property affordable).
    #[test]
    fn sharded_equals_sequential_for_any_root_seed(root_seed in 0u64..u64::MAX) {
        let sweep = Sweep {
            instances: vec![(8, 4), (10, 3)],
            seeds_per_cell: 1,
            ..gathering_sweep(root_seed)
        };
        let a = json_report("T", root_seed, &sweep.run_with(&RunOptions::new())).unwrap();
        let b = json_report("T", root_seed, &sweep.run_with(&RunOptions::new().sharded())).unwrap();
        prop_assert_eq!(a, b);
    }
}
