//! The acceptance grid of the exhaustive model checker, as a test: every
//! claimed gathering/alignment cell with `n ≤ 8, k ≤ 4`, every rigid initial
//! configuration class, under **both** SSYNC activation subsets and ASYNC
//! Look/Move interleavings — zero counterexamples.  Graph searching has no
//! claimed cell below `n = 10` (Theorem 5), which the test also pins; its
//! smallest feasible instances are proved under SSYNC here (the larger ASYNC
//! graphs run in `exp_modelcheck`, release-built).

use rr_checker::explore::{
    check_protocol_quotient_with_stats, check_protocol_with_stats, ExploreOptions,
};
use rr_corda::{InterleavingMode, Protocol};
use rr_core::invariant::{AlignmentInvariant, GatheringInvariant, Invariant, SearchingInvariant};
use rr_core::unified::{protocol_for, Task};
use rr_core::{AlignProtocol, GatheringProtocol};
use rr_ring::enumerate::enumerate_rigid_configurations;

const MODES: [InterleavingMode; 2] = [
    InterleavingMode::SsyncSubsets,
    InterleavingMode::AsyncPhases,
];

fn assert_cell_proved<P: Protocol + Clone + Send>(
    protocol: &P,
    invariant: &dyn Invariant,
    n: usize,
    k: usize,
    modes: &[InterleavingMode],
) {
    let initials = enumerate_rigid_configurations(n, k);
    assert!(!initials.is_empty(), "no rigid class for n={n} k={k}");
    for initial in &initials {
        for &mode in modes {
            let report =
                check_protocol_with_stats(protocol, initial, invariant, &ExploreOptions::new(mode))
                    .unwrap_or_else(|e| panic!("n={n} k={k} {mode}: {e}"))
                    .0;
            assert!(
                report.verified(),
                "n={n} k={k} mode={mode} from {initial}: {:?}",
                report.outcome
            );
            // The full quotient check must agree, liveness included: the
            // σ-threaded fairness analysis re-derives the concrete verdict
            // from the 2n-fold smaller graph on every cell of the grid.
            // (For the searching invariant, whose auxiliary contamination
            // state forces exact keys, this degrades to the concrete checker
            // — the verdicts still must match.)
            let quotient = check_protocol_quotient_with_stats(
                protocol,
                initial,
                invariant,
                &ExploreOptions::new(mode),
            )
            .unwrap()
            .0;
            assert!(quotient.states <= report.states);
            assert!(
                quotient.verified(),
                "quotient liveness disagrees on n={n} k={k} mode={mode} from {initial}: {:?}",
                quotient.outcome
            );
        }
    }
}

#[test]
fn gathering_proved_for_all_rigid_classes_up_to_n8_k4() {
    let mut claimed_cells = 0;
    for n in 4..=8usize {
        for k in 2..=4usize.min(n) {
            if protocol_for(Task::Gathering, n, k).is_none() {
                continue;
            }
            claimed_cells += 1;
            assert_cell_proved(
                &GatheringProtocol::new(),
                &GatheringInvariant::new(),
                n,
                k,
                &MODES,
            );
        }
    }
    // (6,3), (7,3), (7,4), (8,3), (8,4): the claimed band 2 < k < n - 2.
    assert_eq!(claimed_cells, 5);
}

#[test]
fn alignment_proved_for_all_rigid_classes_up_to_n8_k4() {
    for n in 6..=8usize {
        for k in 3..=4usize {
            if k + 2 >= n {
                continue;
            }
            assert_cell_proved(
                &AlignProtocol::new(),
                &AlignmentInvariant::new(),
                n,
                k,
                &MODES,
            );
        }
    }
}

#[test]
fn searching_has_no_claimed_cell_below_n10_and_is_proved_at_the_frontier() {
    // Theorem 5: no searching algorithm exists for n ≤ 9 — every cell of the
    // acceptance grid is vacuous, which this pins against the dispatcher.
    for n in 4..=9usize {
        for k in 1..=n {
            assert!(
                protocol_for(Task::GraphSearching, n, k).is_none(),
                "unexpected searching protocol for n={n} k={k}"
            );
        }
    }
    // The two smallest feasible instances, proved exhaustively under every
    // SSYNC activation subset (ASYNC runs in exp_modelcheck, release-built):
    // perpetual clearing *liveness* included.
    for (n, k) in [(11usize, 5usize), (10, 7)] {
        let protocol = protocol_for(Task::GraphSearching, n, k).expect("feasible");
        assert_cell_proved(
            &protocol,
            &SearchingInvariant::new(),
            n,
            k,
            &[InterleavingMode::SsyncSubsets],
        );
    }
}
