//! Engine-side robot bookkeeping.
//!
//! Robot identifiers exist only so the simulator (and the verification
//! oracles, e.g. the perpetual-exploration monitor) can track individual
//! robots across moves; protocols never observe them.

use rr_ring::NodeId;
use serde::{Deserialize, Serialize};

/// Identifier of a robot, in `0..k`.  Invisible to protocols.
pub type RobotId = usize;

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
