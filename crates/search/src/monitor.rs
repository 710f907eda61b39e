//! Composable run monitors for the three tasks.
//!
//! Every observer in this crate implements `rr_corda::Monitor`, so it plugs
//! directly into the `Engine::step` pipeline (alone or composed in tuples):
//! after every executed move the contamination state, the exploration tracker
//! and the gathering status are updated, and the number of times each
//! perpetual property has been achieved is counted.

use rr_corda::{Monitor, MoveRecord};
use rr_ring::{Configuration, NodeId};
use serde::{Deserialize, Serialize};

use crate::contamination::Contamination;
use crate::exploration::ExplorationTracker;

impl Monitor for Contamination {
    fn on_move(&mut self, record: &MoveRecord, after: &Configuration) {
        self.observe_move(record.from, record.to, after);
    }
}

impl Monitor for ExplorationTracker {
    fn on_move(&mut self, record: &MoveRecord, _after: &Configuration) {
        self.observe_move(record.robot, record.to);
    }
}

/// Counts clearing and exploration achievements along a run.
///
/// * every time all edges become simultaneously clear, `clearings` is
///   incremented and the contamination state is reset to "all contaminated"
///   (this is the strongest reading of *perpetual* graph searching: the
///   strategy must clear the ring again from scratch, from wherever it
///   currently is);
/// * exploration completions are counted per robot by the embedded
///   [`ExplorationTracker`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchMonitors {
    contamination: Contamination,
    exploration: ExplorationTracker,
    clearings: u64,
    moves_observed: u64,
    moves_at_last_clearing: u64,
    clearing_intervals: Vec<u64>,
}

impl SearchMonitors {
    /// Creates the monitors for a run starting from `initial` with robots at
    /// `initial_positions` (indexed by robot id).
    #[must_use]
    pub fn new(initial: &Configuration, initial_positions: &[NodeId]) -> Self {
        SearchMonitors {
            contamination: Contamination::initial(initial),
            exploration: ExplorationTracker::new(initial.n(), initial_positions),
            clearings: 0,
            moves_observed: 0,
            moves_at_last_clearing: 0,
            clearing_intervals: Vec::new(),
        }
    }

    /// Observes one executed move and the configuration after it.
    pub fn observe(&mut self, record: &MoveRecord, after: &Configuration) {
        self.moves_observed += 1;
        self.contamination
            .observe_move(record.from, record.to, after);
        self.exploration.observe_move(record.robot, record.to);
        if self.contamination.all_clear() {
            self.clearings += 1;
            self.clearing_intervals
                .push(self.moves_observed - self.moves_at_last_clearing);
            self.moves_at_last_clearing = self.moves_observed;
            self.contamination.reset();
            self.contamination.observe_configuration(after);
        }
    }

    /// Number of times the whole ring has been cleared since the start of the
    /// run (each clearing restarts from a fully contaminated ring).
    #[must_use]
    pub fn clearings(&self) -> u64 {
        self.clearings
    }

    /// Number of moves between consecutive clearings (one entry per clearing).
    #[must_use]
    pub fn clearing_intervals(&self) -> &[u64] {
        &self.clearing_intervals
    }

    /// Number of moves observed so far.
    #[must_use]
    pub fn moves_observed(&self) -> u64 {
        self.moves_observed
    }

    /// The embedded exploration tracker.
    #[must_use]
    pub fn exploration(&self) -> &ExplorationTracker {
        &self.exploration
    }

    /// The current contamination state.
    #[must_use]
    pub fn contamination(&self) -> &Contamination {
        &self.contamination
    }

    /// Minimum number of full exploration sweeps completed by any robot.
    #[must_use]
    pub fn min_exploration_completions(&self) -> u64 {
        self.exploration.min_completions()
    }

    /// Whether the run has demonstrated at least `clearings` ring clearings
    /// and at least `explorations` full sweeps by every robot.
    #[must_use]
    pub fn demonstrated(&self, clearings: u64, explorations: u64) -> bool {
        self.clearings >= clearings && self.exploration.min_completions() >= explorations
    }
}

impl Monitor for SearchMonitors {
    fn on_move(&mut self, record: &MoveRecord, after: &Configuration) {
        self.observe(record, after);
    }
}

/// Tracks whether and when a run achieves gathering (all robots on one node)
/// and whether the gathered state persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct GatheringMonitor {
    gathered_since: Option<u64>,
    moves_observed: u64,
    broke_gathering: bool,
}

impl GatheringMonitor {
    /// Creates the monitor.
    #[must_use]
    pub fn new() -> Self {
        GatheringMonitor::default()
    }

    /// Observes one executed move and the configuration after it.
    pub fn observe(&mut self, _record: &MoveRecord, after: &Configuration) {
        self.moves_observed += 1;
        if after.is_gathered() {
            if self.gathered_since.is_none() {
                self.gathered_since = Some(self.moves_observed);
            }
        } else if self.gathered_since.is_some() {
            // A robot moved away after gathering was reached.
            self.broke_gathering = true;
            self.gathered_since = None;
        }
    }

    /// Whether gathering is currently achieved.
    #[must_use]
    pub fn is_gathered(&self) -> bool {
        self.gathered_since.is_some()
    }

    /// The move count at which gathering was (last) achieved.
    #[must_use]
    pub fn gathered_at(&self) -> Option<u64> {
        self.gathered_since
    }

    /// Whether the run ever reached gathering and then destroyed it (which a
    /// correct gathering algorithm must never do).
    #[must_use]
    pub fn broke_gathering(&self) -> bool {
        self.broke_gathering
    }

    /// Number of moves observed.
    #[must_use]
    pub fn moves_observed(&self) -> u64 {
        self.moves_observed
    }
}

impl Monitor for GatheringMonitor {
    fn on_move(&mut self, record: &MoveRecord, after: &Configuration) {
        self.observe(record, after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_corda::RobotId;
    use rr_ring::Ring;

    fn record(robot: RobotId, from: NodeId, to: NodeId) -> MoveRecord {
        MoveRecord {
            robot,
            from,
            to,
            step: 0,
        }
    }

    #[test]
    fn search_monitor_counts_a_two_robot_sweep() {
        let ring = Ring::new(6);
        let mut c = Configuration::new_exclusive(ring, &[0, 1]).unwrap();
        let mut m = SearchMonitors::new(&c, &[0, 1]);
        // Robot 1 sweeps from node 1 to node 5.
        let mut pos = 1;
        for next in [2, 3, 4, 5] {
            c.move_robot(pos, next).unwrap();
            m.observe(&record(1, pos, next), &c);
            pos = next;
        }
        assert_eq!(m.clearings(), 1);
        assert_eq!(m.clearing_intervals(), &[4]);
        assert_eq!(m.moves_observed(), 4);
        // After the clearing the contamination was reset: not all clear anymore.
        assert!(!m.contamination().all_clear());
        // Exploration: robot 1 visited 1,2,3,4,5 but not 0.
        assert_eq!(m.exploration().visited_count(1), 5);
        assert_eq!(m.min_exploration_completions(), 0);
        assert!(!m.demonstrated(1, 1));
        assert!(m.demonstrated(1, 0));
    }

    #[test]
    fn gathering_monitor_detects_gathering_and_breakage() {
        let ring = Ring::new(5);
        let mut c = Configuration::from_counts(ring, vec![1, 0, 1, 0, 0]).unwrap();
        let mut g = GatheringMonitor::new();
        assert!(!g.is_gathered());
        c.move_robot(0, 1).unwrap();
        g.observe(&record(0, 0, 1), &c);
        assert!(!g.is_gathered());
        c.move_robot(1, 2).unwrap();
        g.observe(&record(0, 1, 2), &c);
        assert!(g.is_gathered());
        assert_eq!(g.gathered_at(), Some(2));
        assert!(!g.broke_gathering());
        // A robot leaves: gathering is broken.
        c.move_robot(2, 3).unwrap();
        g.observe(&record(0, 2, 3), &c);
        assert!(!g.is_gathered());
        assert!(g.broke_gathering());
    }
}
