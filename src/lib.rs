//! # ring-robots
//!
//! A full reproduction, as a Rust library, of
//! *"A unified approach for different tasks on rings in robot-based computing
//! systems"* (G. D'Angelo, G. Di Stefano, A. Navarra, N. Nisse, K. Suchan —
//! IPPS 2013 / INRIA research report RR-8013).
//!
//! The paper gives Look–Compute–Move algorithms, in the minimalist CORDA
//! model, that solve three classical tasks on anonymous unoriented rings
//! starting from any rigid (asymmetric and aperiodic) exclusive
//! configuration:
//!
//! * **exclusive perpetual exploration** — every robot visits every node
//!   infinitely often, with at most one robot per node;
//! * **exclusive perpetual graph searching** — the robots clear all edges of
//!   the (continuously recontaminating) ring infinitely often;
//! * **gathering** — all robots end up on one node, using only local
//!   multiplicity detection.
//!
//! This crate is a façade over the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`ring`] (`rr-ring`) | anonymous ring, configurations, views, supermin, symmetry, enumeration |
//! | [`corda`] (`rr-corda`) | the Look–Compute–Move [`Engine`](corda::Engine), snapshots, schedulers (FSYNC/SSYNC/ASYNC/adversarial), composable monitors |
//! | [`search`] (`rr-search`) | contamination / exploration / gathering monitors |
//! | [`core`] (`rr-core`) | the paper's algorithms: Align, Ring Clearing, NminusThree, Gathering, feasibility |
//! | [`checker`] (`rr-checker`) | configuration graphs, impossibility checks, protocol-synthesis search, characterization |
//!
//! ## Quick start
//!
//! ```
//! use ring_robots::prelude::*;
//!
//! // 5 robots on a 12-node ring, a rigid starting configuration.
//! let start = Configuration::from_gaps_at_origin(&[0, 2, 1, 0, 4]);
//! assert!(ring_robots::ring::symmetry::is_rigid(&start));
//!
//! // Ask the unified dispatcher for the algorithm that clears this ring ...
//! let protocol = protocol_for(Task::GraphSearching, start.n(), start.num_robots()).unwrap();
//!
//! // ... and run it under a sequential scheduler until the ring has been
//! // cleared three times and every robot has explored every node once.
//! let mut scheduler = RoundRobinScheduler::new();
//! let stats = run_searching(protocol, &start, &mut scheduler, 3, 1, 200_000).unwrap();
//! assert!(stats.clearings >= 3);
//! assert!(stats.min_exploration_completions >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rr_checker as checker;
pub use rr_corda as corda;
pub use rr_core as core;
pub use rr_ring as ring;
pub use rr_search as search;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use rr_checker::{build_characterization, verify_gathering, verify_searching};
    pub use rr_corda::scheduler::{
        AsynchronousScheduler, FullySynchronousScheduler, RoundRobinScheduler,
        SemiSynchronousScheduler,
    };
    pub use rr_corda::{
        Decision, Engine, EngineOptions, Monitor, MultiplicityCapability, Protocol, RobotSet,
        Scheduler, SchedulerStep, Snapshot, StepReport, ViewIndex,
    };
    pub use rr_core::align::{run_to_c_star, AlignProtocol};
    pub use rr_core::clearing::{run_searching, RingClearingProtocol};
    pub use rr_core::driver::{drive, run_dispatched, run_task, TaskTargets};
    pub use rr_core::feasibility::{searching_feasibility, Feasibility};
    pub use rr_core::gathering::{run_gathering, GatheringProtocol};
    pub use rr_core::nminus_three::NminusThreeProtocol;
    pub use rr_core::unified::{protocol_for, Task};
    pub use rr_ring::{Configuration, Direction, Ring, View};
    pub use rr_search::{Contamination, ExplorationTracker, GatheringMonitor, SearchMonitors};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_main_flow() {
        let start = Configuration::from_gaps_at_origin(&[0, 0, 0, 1, 6]);
        let protocol = protocol_for(Task::GraphSearching, 12, 5).unwrap();
        let mut scheduler = RoundRobinScheduler::new();
        let stats = run_searching(protocol, &start, &mut scheduler, 2, 0, 50_000).unwrap();
        assert!(stats.clearings >= 2);
    }

    #[test]
    fn feasibility_is_reachable_through_the_facade() {
        assert!(searching_feasibility(12, 5).is_solvable());
        assert!(searching_feasibility(9, 4).is_impossible());
    }
}
