//! Engine-side robot bookkeeping.
//!
//! Robot identifiers exist only so the simulator (and the verification
//! oracles, e.g. the perpetual-exploration monitor) can track individual
//! robots across moves; protocols never observe them.

use rr_ring::NodeId;
use serde::{Deserialize, Serialize};

/// Identifier of a robot, in `0..k`.  Invisible to protocols.
pub type RobotId = usize;

/// A set of robots: one bit per id below [`RobotSet::CAPACITY`].
///
/// This is how the engine and its schedulers say "which robots" — the
/// robots a semi-synchronous round activates, the robots with a pending
/// action — so a scheduler step is `Copy` and never touches the heap.
/// Iteration is in ascending id order.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RobotSet(u64);

impl RobotSet {
    /// The most robots a set holds, and so the most robots an engine runs.
    pub const CAPACITY: usize = 64;

    /// The set of no robots.
    pub const EMPTY: RobotSet = RobotSet(0);

    /// The set of `robot` alone.
    ///
    /// # Panics
    ///
    /// Panics if `robot` is not below [`RobotSet::CAPACITY`].
    #[must_use]
    pub fn single(robot: RobotId) -> Self {
        let mut set = RobotSet::EMPTY;
        set.insert(robot);
        set
    }

    /// Robots `0..k`: every robot of a `k`-robot system.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds [`RobotSet::CAPACITY`].
    #[must_use]
    pub fn first(k: usize) -> Self {
        assert!(k <= Self::CAPACITY, "{k} robots exceed a RobotSet");
        RobotSet(if k == Self::CAPACITY {
            u64::MAX
        } else {
            (1 << k) - 1
        })
    }

    /// Adds `robot`.
    ///
    /// # Panics
    ///
    /// Panics if `robot` is not below [`RobotSet::CAPACITY`].
    pub fn insert(&mut self, robot: RobotId) {
        assert!(robot < Self::CAPACITY, "robot {robot} exceeds a RobotSet");
        self.0 |= 1 << robot;
    }

    /// This set minus `robot`.
    #[must_use]
    pub fn without(self, robot: RobotId) -> Self {
        if self.contains(robot) {
            RobotSet(self.0 ^ 1 << robot)
        } else {
            self
        }
    }

    /// Whether `robot` is in the set (never, for ids at or above
    /// [`RobotSet::CAPACITY`]).
    #[must_use]
    pub fn contains(self, robot: RobotId) -> bool {
        // `&`, not `&&`: schedulers test a varying robot's bit every step,
        // and a short circuit would turn the test into a branch.
        (robot < Self::CAPACITY) & (self.0 >> (robot % Self::CAPACITY) & 1 == 1)
    }

    /// The number of robots in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set holds no robot.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The robots, in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = RobotId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let robot = bits.trailing_zeros() as RobotId;
                bits &= bits - 1;
                robot
            })
        })
    }

    /// The set as a bitmask: bit `r` is robot `r`.
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// The set a bitmask stands for: bit `r` is robot `r`.
    #[must_use]
    pub fn from_bits(bits: u64) -> Self {
        RobotSet(bits)
    }
}

impl FromIterator<RobotId> for RobotSet {
    fn from_iter<I: IntoIterator<Item = RobotId>>(robots: I) -> Self {
        let mut set = RobotSet::EMPTY;
        for robot in robots {
            set.insert(robot);
        }
        set
    }
}

/// The ids as an ascending list: a step prints as it did when rounds
/// carried a vector of ids, so Debug renderings of steps (and the report
/// digests hashed from them) do not depend on the representation.
impl std::fmt::Debug for RobotSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The Look–Compute–Move phase a robot is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// No pending computation: the next activation performs Look + Compute.
    Ready,
    /// Look and Compute are done; a move (possibly based on an outdated
    /// snapshot) is pending towards the stored target node.
    MovePending {
        /// The adjacent node the robot committed to move to.
        target: NodeId,
    },
    /// Look and Compute are done and the robot decided to stay idle; the
    /// pending "null move" still has to be executed to complete the cycle.
    IdlePending,
}

/// Per-robot simulator state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobotState {
    /// Current node.
    pub node: NodeId,
    /// Current phase of the Look–Compute–Move cycle.
    pub phase: Phase,
    /// Number of completed Look–Compute–Move cycles.
    pub cycles: u64,
    /// Number of actual moves performed (cycles whose decision was a move).
    pub moves: u64,
}

impl RobotState {
    /// A freshly placed robot, ready to Look.
    #[must_use]
    pub fn new(node: NodeId) -> Self {
        RobotState {
            node,
            phase: Phase::Ready,
            cycles: 0,
            moves: 0,
        }
    }

    /// Whether the robot has a pending (move or idle) action.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !matches!(self.phase, Phase::Ready)
    }

    /// Whether the robot has a pending *move* (as opposed to a pending idle).
    #[must_use]
    pub fn has_pending_move(&self) -> bool {
        matches!(self.phase, Phase::MovePending { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_robot_is_ready() {
        let r = RobotState::new(4);
        assert_eq!(r.node, 4);
        assert!(!r.has_pending());
        assert!(!r.has_pending_move());
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn robot_sets_hold_ids_below_capacity_in_ascending_order() {
        let set: RobotSet = [5, 0, 63, 5].into_iter().collect();
        assert_eq!(set.len(), 3);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 5, 63]);
        assert!(set.contains(63) && !set.contains(1) && !set.contains(64));
        assert_eq!(set.without(5).bits(), 1 | 1 << 63);
        assert_eq!(set.without(7), set);
        assert_eq!(set.without(99), set);
        assert_eq!(RobotSet::from_bits(set.bits()), set);
        assert_eq!(RobotSet::single(4).bits(), 1 << 4);
        assert!(RobotSet::first(0).is_empty() && !set.is_empty());
        assert_eq!(RobotSet::first(0), RobotSet::EMPTY);
        assert_eq!(RobotSet::first(3).bits(), 0b111);
        assert_eq!(RobotSet::first(RobotSet::CAPACITY).bits(), u64::MAX);
        assert_eq!(RobotSet::first(RobotSet::CAPACITY).len(), 64);
        assert_eq!(format!("{set:?}"), "[0, 5, 63]");
    }

    #[test]
    #[should_panic(expected = "exceeds a RobotSet")]
    fn robot_sets_reject_ids_beyond_capacity() {
        let _ = RobotSet::single(RobotSet::CAPACITY);
    }

    #[test]
    fn pending_predicates() {
        let mut r = RobotState::new(0);
        r.phase = Phase::IdlePending;
        assert!(r.has_pending());
        assert!(!r.has_pending_move());
        r.phase = Phase::MovePending { target: 1 };
        assert!(r.has_pending());
        assert!(r.has_pending_move());
    }
}
