//! The parallel checker's headline guarantee: exploration with 1, 2 and N
//! workers yields **identical** `ExploreReport`s — every field, including
//! state/edge counts, the canonical-class statistic and the peak-memory
//! figure — and identical counterexample traces (schedules, step for step),
//! for verified protocols, mutated (falsified) protocols, budget-limited
//! runs, and the symmetry-quotient explorer alike.
//!
//! A batch is split across threads only when every share is worth starting
//! a thread for; most cells here expand small batches and therefore run
//! inline at every worker count, admitting each successor as it is
//! generated.  `wide_batches_fan_out_and_stay_worker_invariant` holds the
//! runs whose batches split at two or more workers, so their multi-worker
//! runs take the other path, a parallel expansion replayed through the
//! same admission step: a whole wide cell, and a budget trip and a safety
//! violation inside a split batch, where the one-worker run finishes the
//! batch count-only.

use proptest::prelude::*;
use rr_checker::explore::{
    check_protocol_quotient_with_stats, check_protocol_with_stats, replay_counterexample,
    CheckOutcome, ExploreOptions, FaultBudget, MutatedProtocol, ViolationKind,
};
use rr_checker::StoreKind;
use rr_corda::{Decision, InterleavingMode, Protocol, ViewIndex};
use rr_core::invariant::{
    AlignmentInvariant, CrashTolerantGatheringInvariant, EventualGatheringInvariant,
    GatheringInvariant, Invariant, SearchingInvariant,
};
use rr_core::unified::{protocol_for, Task};
use rr_core::{AlignProtocol, GatheringProtocol};
use rr_ring::enumerate::enumerate_rigid_configurations;
use rr_ring::Configuration;

const MODES: [InterleavingMode; 2] = [
    InterleavingMode::SsyncSubsets,
    InterleavingMode::AsyncPhases,
];

/// Worker counts every run is checked under: sequential, genuinely
/// concurrent, and oversubscribed (more workers than the machine has cores
/// — and, for small graphs, more than there are nodes to expand).  The
/// spill-backend leg below runs each of these with a visited-map budget
/// tight enough to seal runs to disk, so mem-vs-spill × every worker count
/// is pinned byte-identical.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Asserts the worker and store invariance of one check, and returns the
/// fewest threads any multi-worker concrete run started.
fn assert_worker_invariant<P: Protocol + Clone + Send>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    base: &ExploreOptions,
    label: &str,
) -> u64 {
    let (reference, stats) =
        check_protocol_with_stats(protocol, initial, invariant, &base.with_workers(1)).unwrap();
    assert_eq!(stats.threads_started, 0, "{label}: one worker runs inline");
    let mut fewest_started = u64::MAX;
    for workers in &WORKER_COUNTS[1..] {
        let (report, stats) =
            check_protocol_with_stats(protocol, initial, invariant, &base.with_workers(*workers))
                .unwrap();
        assert_eq!(report, reference, "{label}: workers={workers}");
        fewest_started = fewest_started.min(stats.threads_started);
    }
    // The spill backend is observationally invisible: for every worker
    // count, a run that keeps its packed states in delta-compressed clusters
    // on disk (with a cache budget small enough to actually evict) emits the
    // identical report — counterexample included, since it is a field of the
    // report compared here.
    for workers in WORKER_COUNTS {
        let (spilled, stats) = check_protocol_with_stats(
            protocol,
            initial,
            invariant,
            &base
                .with_workers(workers)
                .with_store(StoreKind::Spill)
                .with_mem_budget(4 << 10),
        )
        .unwrap();
        assert_eq!(spilled, reference, "{label}: spill workers={workers}");
        if workers > 1 {
            fewest_started = fewest_started.min(stats.threads_started);
        }
    }
    // The quotient explorer obeys the same discipline, liveness included.
    let quotient_reference =
        check_protocol_quotient_with_stats(protocol, initial, invariant, &base.with_workers(1))
            .unwrap()
            .0;
    for workers in &WORKER_COUNTS[1..] {
        let report = check_protocol_quotient_with_stats(
            protocol,
            initial,
            invariant,
            &base.with_workers(*workers),
        )
        .unwrap()
        .0;
        assert_eq!(
            report, quotient_reference,
            "{label} quotient: workers={workers}"
        );
    }
    // Any counterexample must replay regardless of which run produced it.
    if let Some(ce) = reference.counterexample() {
        let replay = replay_counterexample(protocol, initial, invariant, ce).unwrap();
        assert!(replay.reproduced, "{label}: {}", replay.detail);
    }
    fewest_started
}

#[test]
fn verified_cells_are_worker_invariant() {
    for (n, k) in [(7usize, 3usize), (8, 4)] {
        for initial in enumerate_rigid_configurations(n, k) {
            for mode in MODES {
                assert_worker_invariant(
                    &GatheringProtocol::new(),
                    &initial,
                    &GatheringInvariant::new(),
                    &ExploreOptions::new(mode),
                    &format!("gathering ({n},{k}) {mode}"),
                );
                assert_worker_invariant(
                    &AlignProtocol::new(),
                    &initial,
                    &AlignmentInvariant::new(),
                    &ExploreOptions::new(mode),
                    &format!("alignment ({n},{k}) {mode}"),
                );
            }
        }
    }
}

#[test]
fn searching_with_aug_state_is_worker_invariant() {
    // The searching invariant exercises the auxiliary-state path (the
    // 64-bit contamination key stored per node).  SSYNC keeps the graph
    // small enough for a test; exp_modelcheck covers ASYNC.
    let initial = enumerate_rigid_configurations(11, 5).remove(0);
    let protocol = protocol_for(Task::GraphSearching, 11, 5).expect("feasible");
    assert_worker_invariant(
        &protocol,
        &initial,
        &SearchingInvariant::new(),
        &ExploreOptions::new(InterleavingMode::SsyncSubsets),
        "searching (11,5) ssync",
    );
}

#[test]
fn wide_batches_fan_out_and_stay_worker_invariant() {
    // Three runs with batches of 512 nodes or more, wide enough to split:
    // every multi-worker run expands them in parallel and replays them
    // through admission, while the one-worker run admits inline.  Each
    // multi-worker run must start threads and still match the one-worker
    // report byte for byte, peak samples included.
    //
    // 1. A whole gathering (13, 7) ASYNC class.
    // 2. The same class with room for 5,600 states: the budget trips while
    //    the batch of nodes 4,417..5,285 (868 wide) admits its successors,
    //    so the split path stops inside its replay and the one-worker run
    //    finishes the batch count-only.
    // 3. Align on (13, 10) ASYNC from a class three moves from C*, under
    //    the move mutant at C*: the first step onto a neighbour lies in the
    //    batch of nodes 1,431..2,104 (673 wide).
    let gathering = enumerate_rigid_configurations(13, 7).remove(0);
    let async_phases = ExploreOptions::new(InterleavingMode::AsyncPhases);
    let budget = async_phases.with_max_states(5_600);
    let align_start = enumerate_rigid_configurations(13, 10).remove(3);
    let c_star = Configuration::from_gaps_at_origin(&[0, 0, 0, 0, 0, 0, 0, 0, 1, 2]);
    let move_mutant = MutatedProtocol::new(
        AlignProtocol::new(),
        MutatedProtocol::<AlignProtocol>::trigger_for(&c_star),
        Decision::Move(ViewIndex::First),
    );
    let started = [
        assert_worker_invariant(
            &GatheringProtocol::new(),
            &gathering,
            &GatheringInvariant::new(),
            &async_phases,
            "gathering (13,7) async",
        ),
        assert_worker_invariant(
            &GatheringProtocol::new(),
            &gathering,
            &GatheringInvariant::new(),
            &budget,
            "gathering (13,7) async, 5,600 states",
        ),
        assert_worker_invariant(
            &move_mutant,
            &align_start,
            &AlignmentInvariant::new(),
            &async_phases,
            "move mutant (13,10) async",
        ),
    ];
    assert!(
        started.iter().all(|&s| s > 0),
        "a multi-worker run never fanned out: {started:?}"
    );
    // The two stops are the ones described above.
    let tripped = check_protocol_with_stats(
        &GatheringProtocol::new(),
        &gathering,
        &GatheringInvariant::new(),
        &budget,
    )
    .unwrap()
    .0;
    assert_eq!(
        tripped.outcome,
        CheckOutcome::BudgetExceeded {
            discovered: 5_600,
            completed_expansions: 4_756,
        }
    );
    let falsified = check_protocol_with_stats(
        &move_mutant,
        &align_start,
        &AlignmentInvariant::new(),
        &async_phases,
    )
    .unwrap()
    .0;
    let ce = falsified.counterexample().expect("the mutant collides");
    assert_eq!((ce.kind, ce.prefix.len()), (ViolationKind::Safety, 8));
}

#[test]
fn falsified_cells_yield_identical_counterexamples_across_workers() {
    let initial = enumerate_rigid_configurations(7, 3).remove(0);
    // Liveness lasso (idle mutant) and minimal safety trace (move mutant).
    let idle_mutant = MutatedProtocol::new(
        GatheringProtocol::new(),
        MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
        Decision::Idle,
    );
    for mode in MODES {
        assert_worker_invariant(
            &idle_mutant,
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(mode),
            &format!("idle mutant {mode}"),
        );
    }
    let c_star = Configuration::from_gaps_at_origin(&[0, 0, 1, 3]);
    let move_mutant = MutatedProtocol::new(
        AlignProtocol::new(),
        MutatedProtocol::<AlignProtocol>::trigger_for(&c_star),
        Decision::Move(ViewIndex::First),
    );
    for mode in MODES {
        assert_worker_invariant(
            &move_mutant,
            &c_star,
            &AlignmentInvariant::new(),
            &ExploreOptions::new(mode),
            &format!("move mutant {mode}"),
        );
    }
}

#[test]
fn fault_branching_exploration_is_worker_invariant() {
    // Fault-choice branch points (crash edges, corrupted Looks, starvation
    // exemptions) multiply the frontier; the merged reports must still be
    // byte-identical for every worker count, and any counterexample they
    // produce must replay with its fault directives honoured.
    let initial = enumerate_rigid_configurations(6, 3).remove(0);
    for mode in MODES {
        assert_worker_invariant(
            &GatheringProtocol::new(),
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_crashes(1)),
            &format!("one-crash gathering {mode}"),
        );
        assert_worker_invariant(
            &GatheringProtocol::new(),
            &initial,
            &CrashTolerantGatheringInvariant::new(),
            &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_crashes(1)),
            &format!("one-crash crash-tolerant gathering {mode}"),
        );
        assert_worker_invariant(
            &GatheringProtocol::new(),
            &initial,
            &EventualGatheringInvariant::new(),
            &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_corrupt_looks(1)),
            &format!("corrupt-look gathering {mode}"),
        );
        assert_worker_invariant(
            &GatheringProtocol::new(),
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_starved(0b001)),
            &format!("starved gathering {mode}"),
        );
    }
}

#[test]
fn quotient_full_check_is_worker_and_store_invariant() {
    // The σ-threaded quotient checker (safety + liveness on the canonical
    // quotient) obeys the same discipline as the concrete checker: identical
    // reports for every worker count and storage backend, on a verified cell
    // and on a falsified one — and the falsified cell's lasso, realized over
    // concrete robots by unwinding the accumulated relabelings, replays.
    let initial = enumerate_rigid_configurations(7, 3).remove(0);
    let idle_mutant = MutatedProtocol::new(
        GatheringProtocol::new(),
        MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
        Decision::Idle,
    );
    let invariant = GatheringInvariant::new();
    for mode in MODES {
        let base = ExploreOptions::new(mode);
        let verified_ref = check_protocol_quotient_with_stats(
            &GatheringProtocol::new(),
            &initial,
            &invariant,
            &base,
        )
        .unwrap()
        .0;
        assert!(verified_ref.verified(), "{mode}");
        let falsified_ref =
            check_protocol_quotient_with_stats(&idle_mutant, &initial, &invariant, &base)
                .unwrap()
                .0;
        let ce = falsified_ref.counterexample().expect("mutant falsified");
        let replay = replay_counterexample(&idle_mutant, &initial, &invariant, ce).unwrap();
        assert!(replay.reproduced, "{mode}: {}", replay.detail);
        for workers in WORKER_COUNTS {
            for store in [StoreKind::Mem, StoreKind::Spill] {
                let options = base
                    .with_workers(workers)
                    .with_store(store)
                    .with_mem_budget(4 << 10);
                let verified = check_protocol_quotient_with_stats(
                    &GatheringProtocol::new(),
                    &initial,
                    &invariant,
                    &options,
                )
                .unwrap()
                .0;
                assert_eq!(
                    verified, verified_ref,
                    "{mode}: workers={workers} store={store}"
                );
                let falsified = check_protocol_quotient_with_stats(
                    &idle_mutant,
                    &initial,
                    &invariant,
                    &options,
                )
                .unwrap()
                .0;
                assert_eq!(
                    falsified, falsified_ref,
                    "{mode}: workers={workers} store={store}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized sweep over the space the fixed tests cannot enumerate:
    /// random initial class, random single-entry protocol mutation (or
    /// none), random interleaving mode, random state budget — 1, 2 and 8
    /// workers always emit the identical report and trace.
    #[test]
    fn random_mutants_and_budgets_are_worker_invariant(
        class_pick in 0usize..4,
        // 0 = unmutated; 1..=12 decomposes into a (trigger class, decision)
        // single-entry table mutation.
        mutate_pick in 0usize..13,
        mode_pick in 0usize..2,
        // 0 = unbounded (the default budget); otherwise a tight budget that
        // usually trips mid-frontier.
        budget_pick in 0usize..61,
    ) {
        let classes = enumerate_rigid_configurations(8, 4);
        let initial = classes[class_pick % classes.len()].clone();
        let mode = MODES[mode_pick];
        let budget = if budget_pick == 0 {
            rr_checker::explore::DEFAULT_MAX_STATES
        } else {
            budget_pick
        };
        let base = ExploreOptions::new(mode).with_max_states(budget);
        let invariant = GatheringInvariant::new();
        if mutate_pick == 0 {
            assert_worker_invariant(
                &GatheringProtocol::new(),
                &initial,
                &invariant,
                &base,
                "random unmutated",
            );
        } else {
            let (trigger_pick, decision_pick) = ((mutate_pick - 1) % 4, (mutate_pick - 1) / 4);
            let trigger = MutatedProtocol::<GatheringProtocol>::trigger_for(
                &classes[trigger_pick % classes.len()],
            );
            let replacement = match decision_pick {
                0 => Decision::Idle,
                1 => Decision::Move(ViewIndex::First),
                _ => Decision::Move(ViewIndex::Second),
            };
            let mutant = MutatedProtocol::new(GatheringProtocol::new(), trigger, replacement);
            assert_worker_invariant(&mutant, &initial, &invariant, &base, "random mutant");
        }
    }
}
