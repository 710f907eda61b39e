//! A resubmitted identical grid is served from the service's result cache:
//! the original ledger bytes, with zero engine work (no `Engine::step_into`
//! calls, counted by the engine's debug step probe).
//!
//! The probe counts steps across the whole process, so this is the only
//! test in its binary: a concurrently running test stepping its own
//! engines would otherwise show up as engine work on the cache hit.

use rr_bench::grid::{GridKind, GridSpec};
use rr_corda::SchedulerKind;
use rr_core::driver::TaskTargets;
use rr_core::unified::Task;
use rr_sweepd::{run_daemon, DaemonOptions, JobState, Spool};

#[test]
fn resubmitted_grid_is_served_from_cache() {
    let dir = std::env::temp_dir().join(format!("rr-sweepd-cache-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spool = Spool::open(&dir).unwrap();
    let spec = GridSpec {
        experiment: "T-svc".to_string(),
        root_seed: 99,
        instances: vec![(8, 4), (10, 3)],
        kind: GridKind::Sweep {
            task: Task::Gathering,
            schedulers: SchedulerKind::ALL.to_vec(),
            seeds_per_cell: 1,
            targets: TaskTargets::open_ended(),
            budget_per_n: 20_000,
            budget_flat: 0,
            async_budget_factor: 2,
        },
    };
    let drain_opts = DaemonOptions {
        sequential: true,
        poll_ms: 10,
        drain: true,
    };
    let outcome = spool.submit(&spec).unwrap();
    run_daemon(&spool, &drain_opts).unwrap();
    let first = std::fs::read(spool.ledger_path(&outcome.job_id)).unwrap();

    // Wipe the job and its ledger; the content-addressed cache survives.
    std::fs::remove_file(spool.grid_path(&outcome.job_id, JobState::Done)).unwrap();
    std::fs::remove_file(spool.ledger_path(&outcome.job_id)).unwrap();
    let probe_before = rr_corda::debug_step_probe();
    let again = spool.submit(&spec).unwrap();
    assert!(again.fresh);
    run_daemon(&spool, &drain_opts).unwrap();
    let probe_after = rr_corda::debug_step_probe();

    assert_eq!(spool.job_state(&outcome.job_id), Some(JobState::Done));
    let served = std::fs::read(spool.ledger_path(&outcome.job_id)).unwrap();
    assert_eq!(served, first, "cache must serve the original bytes");
    if cfg!(debug_assertions) {
        assert_eq!(probe_after - probe_before, 0, "zero engine work on a hit");
    }
}
