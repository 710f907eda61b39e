//! The checker's determinism guarantee across storage backends: a run on
//! the in-memory store and a run on the spill store, with a budget tight
//! enough to seal visited-map runs and evict state clusters, yield
//! **identical** `ExploreReport`s — every field, including state/edge
//! counts, the canonical-class statistic and the peak-memory figures — and
//! identical counterexample traces (schedules, step for step), for verified
//! protocols, mutated (falsified) protocols, budget-limited runs, and the
//! symmetry-quotient explorer alike.
//!
//! `wide_batches_and_their_stops_are_store_invariant` also pins the peak
//! samples of two runs that stop inside a wide batch, a budget trip and a
//! safety violation, where the rest of the batch is expanded count-only.

use proptest::prelude::*;
use rr_checker::explore::{
    check_protocol_quotient_with_stats, check_protocol_with_stats, replay_counterexample,
    CheckOutcome, ExploreOptions, ExploreReport, FaultBudget, MutatedProtocol, ViolationKind,
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

/// Budget of the spill leg: small enough that the visited map seals runs
/// to disk and the state cache evicts clusters.
const SPILL_BUDGET: u64 = 4 << 10;

/// Asserts the store invariance of one check, exact and quotient, and
/// returns the exact reference report.
fn assert_store_invariant<P: Protocol + Clone>(
    protocol: &P,
    initial: &Configuration,
    invariant: &dyn Invariant,
    base: &ExploreOptions,
    label: &str,
) -> ExploreReport {
    let spill = base
        .with_store(StoreKind::Spill)
        .with_mem_budget(SPILL_BUDGET);
    let reference = check_protocol_with_stats(protocol, initial, invariant, base)
        .unwrap()
        .0;
    // The spill backend is observationally invisible: a run that keeps its
    // packed states in delta-compressed clusters on disk (with a cache
    // budget small enough to actually evict) emits the identical report —
    // counterexample included, since it is a field of the report compared
    // here.
    let spilled = check_protocol_with_stats(protocol, initial, invariant, &spill)
        .unwrap()
        .0;
    assert_eq!(spilled, reference, "{label}: spill");
    // The quotient explorer obeys the same discipline, liveness included.
    let quotient_reference = check_protocol_quotient_with_stats(protocol, initial, invariant, base)
        .unwrap()
        .0;
    let quotient_spilled = check_protocol_quotient_with_stats(protocol, initial, invariant, &spill)
        .unwrap()
        .0;
    assert_eq!(
        quotient_spilled, quotient_reference,
        "{label} quotient: spill"
    );
    // Any counterexample must replay regardless of which run produced it.
    if let Some(ce) = reference.counterexample() {
        let replay = replay_counterexample(protocol, initial, invariant, ce).unwrap();
        assert!(replay.reproduced, "{label}: {}", replay.detail);
    }
    reference
}

#[test]
fn verified_cells_are_store_invariant() {
    for (n, k) in [(7usize, 3usize), (8, 4)] {
        for initial in enumerate_rigid_configurations(n, k) {
            for mode in MODES {
                assert_store_invariant(
                    &GatheringProtocol::new(),
                    &initial,
                    &GatheringInvariant::new(),
                    &ExploreOptions::new(mode),
                    &format!("gathering ({n},{k}) {mode}"),
                );
                assert_store_invariant(
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
fn searching_with_aug_state_is_store_invariant() {
    // The searching invariant exercises the auxiliary-state path (the
    // 64-bit contamination key stored per node).  SSYNC keeps the graph
    // small enough for a test; exp_modelcheck covers ASYNC.
    let initial = enumerate_rigid_configurations(11, 5).remove(0);
    let protocol = protocol_for(Task::GraphSearching, 11, 5).expect("feasible");
    assert_store_invariant(
        &protocol,
        &initial,
        &SearchingInvariant::new(),
        &ExploreOptions::new(InterleavingMode::SsyncSubsets),
        "searching (11,5) ssync",
    );
}

#[test]
fn wide_batches_and_their_stops_are_store_invariant() {
    // Three runs with batches of 512 nodes or more:
    //
    // 1. A whole gathering (13, 7) ASYNC class.
    // 2. The same class with room for 5,600 states: the budget trips while
    //    the batch of nodes 4,417..5,285 (868 wide) admits its successors.
    // 3. Align on (13, 10) ASYNC from a class three moves from C*, under
    //    the move mutant at C*: the first step onto a neighbour lies in the
    //    batch of nodes 1,431..2,104 (673 wide).
    //
    // After the stops in 2 and 3 the rest of the batch is expanded
    // count-only, so that the residency samples see every successor of the
    // batch; the pinned peaks below are those of that finish (a run that
    // ends the batch at the stop samples less).
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
    assert_store_invariant(
        &GatheringProtocol::new(),
        &gathering,
        &GatheringInvariant::new(),
        &async_phases,
        "gathering (13,7) async",
    );
    let tripped = assert_store_invariant(
        &GatheringProtocol::new(),
        &gathering,
        &GatheringInvariant::new(),
        &budget,
        "gathering (13,7) async, 5,600 states",
    );
    assert_eq!(
        tripped.outcome,
        CheckOutcome::BudgetExceeded {
            discovered: 5_600,
            completed_expansions: 4_756,
        }
    );
    assert_eq!(
        (tripped.peak_resident_nodes, tripped.peak_resident_bytes),
        (8_728, 506_344)
    );
    let falsified = assert_store_invariant(
        &move_mutant,
        &align_start,
        &AlignmentInvariant::new(),
        &async_phases,
        "move mutant (13,10) async",
    );
    let ce = falsified.counterexample().expect("the mutant collides");
    assert_eq!((ce.kind, ce.prefix.len()), (ViolationKind::Safety, 8));
    assert_eq!(
        (falsified.peak_resident_nodes, falsified.peak_resident_bytes),
        (5_820, 243_448)
    );
}

#[test]
fn falsified_cells_yield_identical_counterexamples_across_stores() {
    let initial = enumerate_rigid_configurations(7, 3).remove(0);
    // Liveness lasso (idle mutant) and minimal safety trace (move mutant).
    let idle_mutant = MutatedProtocol::new(
        GatheringProtocol::new(),
        MutatedProtocol::<GatheringProtocol>::trigger_for(&initial),
        Decision::Idle,
    );
    for mode in MODES {
        assert_store_invariant(
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
        assert_store_invariant(
            &move_mutant,
            &c_star,
            &AlignmentInvariant::new(),
            &ExploreOptions::new(mode),
            &format!("move mutant {mode}"),
        );
    }
}

#[test]
fn fault_branching_exploration_is_store_invariant() {
    // Fault-choice branch points (crash edges, corrupted Looks, starvation
    // exemptions) multiply the frontier; the reports must still be
    // byte-identical for every backend, and any counterexample they
    // produce must replay with its fault directives honoured.
    let initial = enumerate_rigid_configurations(6, 3).remove(0);
    for mode in MODES {
        assert_store_invariant(
            &GatheringProtocol::new(),
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_crashes(1)),
            &format!("one-crash gathering {mode}"),
        );
        assert_store_invariant(
            &GatheringProtocol::new(),
            &initial,
            &CrashTolerantGatheringInvariant::new(),
            &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_crashes(1)),
            &format!("one-crash crash-tolerant gathering {mode}"),
        );
        assert_store_invariant(
            &GatheringProtocol::new(),
            &initial,
            &EventualGatheringInvariant::new(),
            &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_corrupt_looks(1)),
            &format!("corrupt-look gathering {mode}"),
        );
        assert_store_invariant(
            &GatheringProtocol::new(),
            &initial,
            &GatheringInvariant::new(),
            &ExploreOptions::new(mode).with_faults(FaultBudget::none().with_starved(0b001)),
            &format!("starved gathering {mode}"),
        );
    }
}

#[test]
fn quotient_full_check_is_store_invariant() {
    // The σ-threaded quotient checker (safety + liveness on the canonical
    // quotient) obeys the same discipline as the concrete checker: identical
    // reports for every storage backend, on a verified cell
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
        for store in [StoreKind::Mem, StoreKind::Spill] {
            let options = base.with_store(store).with_mem_budget(SPILL_BUDGET);
            let verified = check_protocol_quotient_with_stats(
                &GatheringProtocol::new(),
                &initial,
                &invariant,
                &options,
            )
            .unwrap()
            .0;
            assert_eq!(verified, verified_ref, "{mode}: store={store}");
            let falsified =
                check_protocol_quotient_with_stats(&idle_mutant, &initial, &invariant, &options)
                    .unwrap()
                    .0;
            assert_eq!(falsified, falsified_ref, "{mode}: store={store}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized sweep over the space the fixed tests cannot enumerate:
    /// random initial class, random single-entry protocol mutation (or
    /// none), random interleaving mode, random state budget — both
    /// backends, exact and quotient, always emit the identical report and
    /// trace.
    #[test]
    fn random_mutants_and_budgets_are_store_invariant(
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
            assert_store_invariant(
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
            assert_store_invariant(&mutant, &initial, &invariant, &base, "random mutant");
        }
    }
}
