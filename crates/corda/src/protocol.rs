//! The protocol abstraction: what an anonymous, oblivious, uniform robot may
//! compute from its snapshot.

use serde::{Deserialize, Serialize};

use crate::snapshot::{MultiplicityCapability, Snapshot};

/// Index into [`Snapshot::views`]: identifies one of the robot's two reading
/// directions *relative to the snapshot*, never a global orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ViewIndex {
    /// The direction of `snapshot.views[0]`.
    First,
    /// The direction of `snapshot.views[1]`.
    Second,
}

impl ViewIndex {
    /// The two indices.
    pub const BOTH: [ViewIndex; 2] = [ViewIndex::First, ViewIndex::Second];

    /// Numeric index (0 or 1).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ViewIndex::First => 0,
            ViewIndex::Second => 1,
        }
    }

    /// The other index.
    #[must_use]
    pub fn other(self) -> ViewIndex {
        match self {
            ViewIndex::First => ViewIndex::Second,
            ViewIndex::Second => ViewIndex::First,
        }
    }
}

/// Outcome of the Compute phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decision {
    /// Stay idle this cycle.
    Idle,
    /// Move one step towards the first interval of the indicated view, i.e. in
    /// the reading direction of that view.
    Move(ViewIndex),
}

impl Decision {
    /// Whether the decision is a move.
    #[must_use]
    pub fn is_move(&self) -> bool {
        matches!(self, Decision::Move(_))
    }
}

/// A min-CORDA protocol: a deterministic function of the local snapshot.
///
/// Implementations must be:
///
/// * **uniform** — the same object is shared by every robot;
/// * **oblivious** — `compute` must not retain state between calls (the trait
///   takes `&self` to make accidental state mutation impossible without
///   interior mutability);
/// * **disorientation-safe** — swapping the two views of the snapshot must
///   yield the physically identical decision (this is checked for the paper's
///   protocols in the test suites).
pub trait Protocol {
    /// Human-readable name (used in traces, experiment output and errors).
    fn name(&self) -> &str;

    /// The multiplicity-detection capability this protocol requires.
    fn capability(&self) -> MultiplicityCapability {
        MultiplicityCapability::None
    }

    /// Whether the task solved by this protocol requires the exclusivity
    /// property to hold at all times (true for perpetual exploration and
    /// graph searching, false for gathering).
    fn requires_exclusivity(&self) -> bool {
        true
    }

    /// The Compute phase: map the snapshot taken during Look to a decision.
    ///
    /// The engine calls it at most once per distinct snapshot of a run and
    /// reuses the decision for every later Look that takes the same
    /// snapshot (anywhere on the ring), so `compute` must be a pure
    /// function of the snapshot, as the model's obliviousness requires.
    fn compute(&self, snapshot: &Snapshot) -> Decision;
}

/// A protocol that never moves; useful as a baseline and in scheduler tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdleProtocol;

impl Protocol for IdleProtocol {
    fn name(&self) -> &str {
        "idle"
    }

    fn compute(&self, _snapshot: &Snapshot) -> Decision {
        Decision::Idle
    }
}

/// A baseline protocol that always moves towards its larger adjacent interval
/// (ties broken towards the first view).  It is *not* a correct algorithm for
/// any of the paper's tasks; it exists to exercise the simulator and the
/// monitors, and as the "single walker" baseline discussed in Section 4.1
/// (one robot walking forever explores but never clears).
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyGapWalker;

impl Protocol for GreedyGapWalker {
    fn name(&self) -> &str {
        "greedy-gap-walker"
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        let a = snapshot.views[0].gap(0);
        let b = snapshot.views[1].gap(0);
        if a == 0 && b == 0 {
            Decision::Idle
        } else if a >= b {
            Decision::Move(ViewIndex::First)
        } else {
            Decision::Move(ViewIndex::Second)
        }
    }
}

impl<P: Protocol + ?Sized> Protocol for &P {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn capability(&self) -> MultiplicityCapability {
        (**self).capability()
    }

    fn requires_exclusivity(&self) -> bool {
        (**self).requires_exclusivity()
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        (**self).compute(snapshot)
    }
}

impl<P: Protocol + ?Sized> Protocol for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn capability(&self) -> MultiplicityCapability {
        (**self).capability()
    }

    fn requires_exclusivity(&self) -> bool {
        (**self).requires_exclusivity()
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        (**self).compute(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_ring::{Configuration, Direction};

    #[test]
    fn view_index_helpers() {
        assert_eq!(ViewIndex::First.index(), 0);
        assert_eq!(ViewIndex::Second.index(), 1);
        assert_eq!(ViewIndex::First.other(), ViewIndex::Second);
        assert_eq!(ViewIndex::Second.other(), ViewIndex::First);
    }

    #[test]
    fn idle_protocol_never_moves() {
        let c = Configuration::from_gaps_at_origin(&[0, 1, 2, 5]);
        for v in c.occupied_nodes() {
            let s = Snapshot::capture(&c, v, MultiplicityCapability::None, Direction::Cw);
            assert_eq!(IdleProtocol.compute(&s), Decision::Idle);
        }
    }

    #[test]
    fn greedy_walker_prefers_larger_gap() {
        let c = Configuration::from_gaps_at_origin(&[0, 1, 2, 5]);
        // The robot between the gap of 5 and the gap of 0 must walk into the 5.
        let occ = c.occupied_nodes();
        let last = occ[0]; // node 0 has gap 0 cw ... compute decision directly
        let s = Snapshot::capture(&c, last, MultiplicityCapability::None, Direction::Cw);
        let d = GreedyGapWalker.compute(&s);
        // gap cw from node 0 is 0, ccw is 5 → move to the second view.
        assert_eq!(d, Decision::Move(ViewIndex::Second));
    }

    #[test]
    fn greedy_walker_is_direction_insensitive() {
        let c = Configuration::from_gaps_at_origin(&[0, 1, 2, 5]);
        for v in c.occupied_nodes() {
            let cw = Snapshot::capture(&c, v, MultiplicityCapability::None, Direction::Cw);
            let ccw = Snapshot::capture(&c, v, MultiplicityCapability::None, Direction::Ccw);
            let dcw = GreedyGapWalker.compute(&cw);
            let dccw = GreedyGapWalker.compute(&ccw);
            // The physical direction must coincide: view 0 of one snapshot is
            // view 1 of the other.
            match (dcw, dccw) {
                (Decision::Idle, Decision::Idle) => {}
                (Decision::Move(a), Decision::Move(b)) => {
                    // Equal gaps on both sides make either answer acceptable.
                    if cw.views[0].gap(0) != cw.views[1].gap(0) {
                        assert_eq!(a.index(), 1 - b.index());
                    }
                }
                other => panic!("inconsistent decisions {other:?}"),
            }
        }
    }

    #[test]
    fn blanket_impls_delegate() {
        let c = Configuration::from_gaps_at_origin(&[1, 1, 4]);
        let s = Snapshot::capture(&c, 0, MultiplicityCapability::None, Direction::Cw);
        let boxed: Box<dyn Protocol> = Box::new(IdleProtocol);
        assert_eq!(boxed.compute(&s), Decision::Idle);
        assert_eq!(boxed.name(), "idle");
        let by_ref = &IdleProtocol;
        assert_eq!(Protocol::compute(&by_ref, &s), Decision::Idle);
        assert!(by_ref.requires_exclusivity());
        assert_eq!(by_ref.capability(), MultiplicityCapability::None);
    }
}
