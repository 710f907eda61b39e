//! The unified dispatcher: one entry point mapping a task and the ring
//! parameters to the protocol that solves it — the "unified approach" of the
//! paper's title.

use rr_corda::{Decision, MultiplicityCapability, Protocol, Snapshot};
use serde::{Deserialize, Serialize};

use crate::clearing::RingClearingProtocol;
use crate::feasibility::{
    exploration_feasibility, gathering_feasibility, searching_feasibility, Algorithm, Feasibility,
};
use crate::gathering::GatheringProtocol;
use crate::nminus_three::NminusThreeProtocol;

/// The three tasks unified by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Task {
    /// Exclusive perpetual exploration: every robot visits every node
    /// infinitely often, never two robots on one node.
    Exploration,
    /// Exclusive perpetual graph searching: all edges are cleared infinitely
    /// often, never two robots on one node.
    GraphSearching,
    /// Gathering with local multiplicity detection: all robots end on one node.
    Gathering,
}

impl Task {
    /// All tasks.
    pub const ALL: [Task; 3] = [Task::Exploration, Task::GraphSearching, Task::Gathering];

    /// Feasibility of this task for `k` robots on an `n`-node ring, starting
    /// from a rigid exclusive configuration.
    #[must_use]
    pub fn feasibility(self, n: usize, k: usize) -> Feasibility {
        match self {
            Task::Exploration => exploration_feasibility(n, k),
            Task::GraphSearching => searching_feasibility(n, k),
            Task::Gathering => gathering_feasibility(n, k),
        }
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Task::Exploration => "exclusive perpetual exploration",
            Task::GraphSearching => "exclusive perpetual graph searching",
            Task::Gathering => "gathering",
        };
        write!(f, "{s}")
    }
}

/// A protocol chosen by the dispatcher; delegates to one of the three concrete
/// algorithms.
#[derive(Debug, Clone, Copy)]
pub enum UnifiedProtocol {
    /// Ring Clearing (searching / exploration, `5 ≤ k < n-3`).
    RingClearing(RingClearingProtocol),
    /// NminusThree (searching / exploration, `k = n-3`).
    NminusThree(NminusThreeProtocol),
    /// Gathering (`2 < k < n-2`).
    Gathering(GatheringProtocol),
}

impl Protocol for UnifiedProtocol {
    fn name(&self) -> &str {
        match self {
            UnifiedProtocol::RingClearing(p) => p.name(),
            UnifiedProtocol::NminusThree(p) => p.name(),
            UnifiedProtocol::Gathering(p) => p.name(),
        }
    }

    fn capability(&self) -> MultiplicityCapability {
        match self {
            UnifiedProtocol::RingClearing(p) => p.capability(),
            UnifiedProtocol::NminusThree(p) => p.capability(),
            UnifiedProtocol::Gathering(p) => p.capability(),
        }
    }

    fn requires_exclusivity(&self) -> bool {
        match self {
            UnifiedProtocol::RingClearing(p) => p.requires_exclusivity(),
            UnifiedProtocol::NminusThree(p) => p.requires_exclusivity(),
            UnifiedProtocol::Gathering(p) => p.requires_exclusivity(),
        }
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        match self {
            UnifiedProtocol::RingClearing(p) => p.compute(snapshot),
            UnifiedProtocol::NminusThree(p) => p.compute(snapshot),
            UnifiedProtocol::Gathering(p) => p.compute(snapshot),
        }
    }
}

/// Returns the protocol that solves `task` for `k` robots on an `n`-node ring
/// (starting from a rigid exclusive configuration), or `None` if the paper
/// proves the instance impossible, leaves it open, or the parameters are out
/// of the model.
#[must_use]
pub fn protocol_for(task: Task, n: usize, k: usize) -> Option<UnifiedProtocol> {
    match task.feasibility(n, k) {
        Feasibility::Solvable(Algorithm::RingClearing) => {
            Some(UnifiedProtocol::RingClearing(RingClearingProtocol::new()))
        }
        Feasibility::Solvable(Algorithm::NminusThree) => {
            Some(UnifiedProtocol::NminusThree(NminusThreeProtocol::new()))
        }
        Feasibility::Solvable(Algorithm::Gathering) => {
            Some(UnifiedProtocol::Gathering(GatheringProtocol::new()))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clearing::run_searching;
    use crate::gathering::run_gathering;
    use rr_corda::scheduler::RoundRobinScheduler;
    use rr_ring::enumerate::enumerate_rigid_configurations;

    #[test]
    fn dispatcher_matches_feasibility() {
        assert!(matches!(
            protocol_for(Task::GraphSearching, 12, 5),
            Some(UnifiedProtocol::RingClearing(_))
        ));
        assert!(matches!(
            protocol_for(Task::GraphSearching, 12, 9),
            Some(UnifiedProtocol::NminusThree(_))
        ));
        assert!(matches!(
            protocol_for(Task::Gathering, 12, 5),
            Some(UnifiedProtocol::Gathering(_))
        ));
        assert!(protocol_for(Task::GraphSearching, 9, 5).is_none());
        assert!(protocol_for(Task::GraphSearching, 10, 5).is_none());
        assert!(protocol_for(Task::GraphSearching, 12, 4).is_none());
        assert!(protocol_for(Task::Gathering, 12, 11).is_none());
        assert!(matches!(
            protocol_for(Task::Exploration, 14, 6),
            Some(UnifiedProtocol::RingClearing(_))
        ));
    }

    #[test]
    fn unified_protocol_delegates_metadata() {
        let p = protocol_for(Task::Gathering, 12, 5).unwrap();
        assert_eq!(p.name(), "gathering");
        assert_eq!(p.capability(), MultiplicityCapability::Local);
        assert!(!p.requires_exclusivity());
        let p = protocol_for(Task::GraphSearching, 12, 5).unwrap();
        assert_eq!(p.name(), "ring-clearing");
        assert!(p.requires_exclusivity());
    }

    #[test]
    fn dispatched_protocols_actually_solve_their_task() {
        // Graph searching via the dispatcher on (n, k) = (12, 5) and (12, 9).
        for (n, k) in [(12usize, 5usize), (12, 9)] {
            let protocol = protocol_for(Task::GraphSearching, n, k).unwrap();
            let config = enumerate_rigid_configurations(n, k)
                .into_iter()
                .next()
                .unwrap();
            let mut sched = RoundRobinScheduler::new();
            let stats = run_searching(protocol, &config, &mut sched, 3, 0, 60_000).unwrap();
            assert!(stats.clearings >= 3, "n={n} k={k}");
        }
        // Gathering via the dispatcher.
        let config = enumerate_rigid_configurations(11, 4)
            .into_iter()
            .next()
            .unwrap();
        let mut sched = RoundRobinScheduler::new();
        let stats = run_gathering(&config, &mut sched, 100_000).unwrap();
        assert!(stats.gathered);
    }

    #[test]
    fn task_display_and_all() {
        assert_eq!(Task::ALL.len(), 3);
        for t in Task::ALL {
            assert!(!t.to_string().is_empty());
        }
    }
}
