//! The acceptance grid of the exhaustive model checker, as a test: every
//! claimed gathering/alignment cell with `n ≤ 8, k ≤ 4`, every rigid initial
//! configuration class, under **both** SSYNC activation subsets and ASYNC
//! Look/Move interleavings — zero counterexamples.  Graph searching has no
//! claimed cell below `n = 10` (Theorem 5), which the test also pins; its
//! smallest feasible instances are proved under SSYNC here (the larger ASYNC
//! graphs run in `exp_modelcheck`, release-built).  The (8, 4) gathering and
//! Align cells, the only ones whose protocols move a robot on equal views,
//! also have their graph sizes pinned per class.

use std::cell::Cell;
use std::rc::Rc;

use rr_checker::explore::{
    check_protocol_quotient_with_stats, check_protocol_with_stats, ExploreOptions,
};
use rr_corda::{Decision, InterleavingMode, MultiplicityCapability, Protocol, Snapshot};
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

/// Counts the Move decisions `inner` takes on equal views, where the robot
/// cannot tell its two directions apart (in the model, the adversary picks
/// the way).  Clones share the count: the checker clones its protocol but
/// never sends it to another thread.
#[derive(Debug, Clone)]
struct TieMoves<P> {
    inner: P,
    count: Rc<Cell<u64>>,
}

impl<P: Protocol> Protocol for TieMoves<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capability(&self) -> MultiplicityCapability {
        self.inner.capability()
    }

    fn requires_exclusivity(&self) -> bool {
        self.inner.requires_exclusivity()
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        let decision = self.inner.compute(snapshot);
        if decision.is_move() && snapshot.views[0] == snapshot.views[1] {
            self.count.set(self.count.get() + 1);
        }
        decision
    }
}

/// One rigid class of an (8, 4) cell: its exact and quotient graph sizes in
/// both modes, and whether the protocol moves a robot on equal views.
struct TieCell {
    class: &'static str,
    /// SSYNC exact `(states, edges, quotient_states)`.
    ssync: (usize, u64, usize),
    /// SSYNC quotient `(states, edges)`.
    ssync_quotient: (usize, u64),
    /// ASYNC exact `(states, edges, quotient_states)`.
    r#async: (usize, u64, usize),
    /// ASYNC quotient `(states, edges)`.
    async_quotient: (usize, u64),
    moves_on_equal_views: bool,
}

/// Checks every rigid class of `(8, 4)` in both modes, exactly and on the
/// quotient, against `expected` (in enumeration order).
fn assert_tie_cell<P: Protocol + Clone>(
    protocol: P,
    invariant: &dyn Invariant,
    expected: &[TieCell],
) {
    let initials = enumerate_rigid_configurations(8, 4);
    let labels: Vec<String> = initials.iter().map(ToString::to_string).collect();
    let classes: Vec<&str> = expected.iter().map(|cell| cell.class).collect();
    assert_eq!(labels, classes);
    for (initial, cell) in initials.iter().zip(expected) {
        for (mode, exact, quotient) in [
            (
                InterleavingMode::SsyncSubsets,
                cell.ssync,
                cell.ssync_quotient,
            ),
            (
                InterleavingMode::AsyncPhases,
                cell.r#async,
                cell.async_quotient,
            ),
        ] {
            let count = Rc::new(Cell::new(0));
            let counted = TieMoves {
                inner: protocol.clone(),
                count: Rc::clone(&count),
            };
            let options = ExploreOptions::new(mode);
            let report = check_protocol_with_stats(&counted, initial, invariant, &options)
                .unwrap()
                .0;
            let folded = check_protocol_quotient_with_stats(&counted, initial, invariant, &options)
                .unwrap()
                .0;
            let at = format!("{} {mode}", cell.class);
            assert!(report.verified(), "{at}: {:?}", report.outcome);
            assert!(folded.verified(), "{at}: {:?}", folded.outcome);
            assert_eq!(
                (report.states, report.edges, report.quotient_states),
                exact,
                "{at}: exact"
            );
            assert_eq!((folded.states, folded.edges), quotient, "{at}: quotient");
            assert_eq!(
                count.get() > 0,
                cell.moves_on_equal_views,
                "{at}: {} moves on equal views",
                count.get()
            );
        }
    }
}

/// The two (8, 4) cells whose protocols move a robot on equal views — the
/// robot on the configuration's axis, whose view is (2, 0, 0, 2) both ways.
/// The explorer does not branch on the direction of such a move, so these
/// are the graphs that change once the adversary picks it.  The ASYNC exact
/// totals are 320 states / 1,280 edges for gathering and 72 / 288 for
/// Align.
#[test]
fn tie_move_cells_at_n8_k4_keep_their_graphs() {
    assert_tie_cell(
        GatheringProtocol::new(),
        &GatheringInvariant::new(),
        &[
            TieCell {
                class: "[ooo.o...]",
                ssync: (7, 105, 6),
                ssync_quotient: (6, 90),
                r#async: (136, 544, 79),
                async_quotient: (79, 316),
                moves_on_equal_views: false,
            },
            TieCell {
                class: "[oo.o.o..]",
                ssync: (9, 135, 8),
                ssync_quotient: (8, 120),
                r#async: (184, 736, 123),
                async_quotient: (123, 492),
                moves_on_equal_views: true,
            },
        ],
    );
    assert_tie_cell(
        AlignProtocol::new(),
        &AlignmentInvariant::new(),
        &[
            TieCell {
                class: "[ooo.o...]",
                ssync: (1, 15, 1),
                ssync_quotient: (1, 15),
                r#async: (16, 64, 16),
                async_quotient: (16, 64),
                moves_on_equal_views: false,
            },
            TieCell {
                class: "[oo.o.o..]",
                ssync: (3, 45, 3),
                ssync_quotient: (3, 45),
                r#async: (56, 224, 52),
                async_quotient: (52, 208),
                moves_on_equal_views: true,
            },
        ],
    );
}
