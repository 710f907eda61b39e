//! Algorithm **Gathering** (Section 5 of the paper): gather `2 < k < n-2`
//! robots on a single node, starting from any rigid exclusive configuration,
//! using only the *local* (weak) multiplicity detection capability.
//!
//! The algorithm has three stages, all decided locally:
//!
//! 1. while the occupied-node set is not of `C*`-type, run Algorithm
//!    [`Align`](crate::align) (the configuration is still exclusive and
//!    rigid during this stage);
//! 2. while more than two nodes are occupied, apply **Contraction**: the
//!    robot(s) on the *first* node of the `C*`-type configuration (the block
//!    end adjacent to the large interval) move onto their neighbour in the
//!    block, which accumulates all robots into a single growing multiplicity;
//! 3. when exactly two nodes remain occupied (a multiplicity of `k-1` robots
//!    and a single robot at distance two), the single robot — the only one
//!    that does not perceive a multiplicity on its own node — walks to the
//!    multiplicity, completing the gathering.
//!
//! ### Faithfulness note (documented deviation)
//!
//! In Figure 14 of the paper the two-occupied-nodes case is syntactically
//! nested under the `C*`-type branch although such a configuration has only
//! two occupied nodes and therefore is not `C*`-type by the paper's own
//! definition (which requires at least three).  We treat "at most two occupied
//! nodes" as its own case, which is what the proof of Theorem 8 describes.
//! See DESIGN.md §2.

use rr_corda::{
    Decision, MultiplicityCapability, Protocol, Scheduler, SimError, Snapshot, ViewIndex,
};
use rr_ring::{pattern, Configuration, View};
use serde::{Deserialize, Serialize};

use crate::align::AlignProtocol;
use crate::driver::{run_task, TaskTargets};
use crate::unified::Task;

/// The Gathering protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct GatheringProtocol;

impl GatheringProtocol {
    /// Creates the protocol.
    #[must_use]
    pub fn new() -> Self {
        GatheringProtocol
    }

    /// Whether the parameters are in the range covered by Theorem 8
    /// (`2 < k < n - 2`; outside this range no rigid configuration exists).
    #[must_use]
    pub fn supports(n: usize, k: usize) -> bool {
        k > 2 && k + 2 < n
    }

    /// The decision for a robot with the given views and local multiplicity
    /// flag.
    #[must_use]
    pub fn decide(views: &[View; 2], on_multiplicity: bool) -> Decision {
        let occupied = views[0].len();
        if occupied == 1 {
            // Gathered: never move again.
            return Decision::Idle;
        }
        if occupied == 2 {
            if on_multiplicity {
                return Decision::Idle;
            }
            // Walk towards the other occupied node along the shorter arc.
            let d0 = views[0].gap(0);
            let d1 = views[1].gap(0);
            return if d0 <= d1 {
                Decision::Move(ViewIndex::First)
            } else {
                Decision::Move(ViewIndex::Second)
            };
        }
        let w_min = views[0].supermin();
        if pattern::is_c_star_type(w_min.gaps()) {
            // Contraction: only the robot(s) on the first node of the
            // C*-type configuration move, towards the second node (gap 0
            // ahead in the direction reading the supermin view).
            if views[0] == w_min {
                Decision::Move(ViewIndex::First)
            } else if views[1] == w_min {
                Decision::Move(ViewIndex::Second)
            } else {
                Decision::Idle
            }
        } else {
            AlignProtocol::decide_with_supermin(views, &w_min)
        }
    }
}

impl Protocol for GatheringProtocol {
    fn name(&self) -> &str {
        "gathering"
    }

    fn capability(&self) -> MultiplicityCapability {
        MultiplicityCapability::Local
    }

    fn requires_exclusivity(&self) -> bool {
        false
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        let on_multiplicity = snapshot.on_multiplicity.unwrap_or(false);
        GatheringProtocol::decide(&snapshot.views, on_multiplicity)
    }
}

/// Statistics of a gathering run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatheringRunStats {
    /// Whether all robots ended on a single node.
    pub gathered: bool,
    /// Number of moves executed until gathering (or until the budget ran out).
    pub moves: u64,
    /// Number of scheduler steps applied.
    pub steps: u64,
    /// Whether the run ever reached a gathered state and then left it (a
    /// correct execution never does).
    pub broke_gathering: bool,
}

/// Runs the gathering protocol from `initial` under `scheduler` until all
/// robots stand on one node or the step budget is exhausted.
///
/// Thin wrapper over the generic task driver
/// [`run_task`](crate::driver::run_task()).
pub fn run_gathering<S: Scheduler + ?Sized>(
    initial: &Configuration,
    scheduler: &mut S,
    max_scheduler_steps: u64,
) -> Result<GatheringRunStats, SimError> {
    let report = run_task(
        Task::Gathering,
        GatheringProtocol,
        initial,
        scheduler,
        TaskTargets::open_ended(),
        max_scheduler_steps,
    )?;
    Ok(report
        .gathering()
        .expect("gathering task yields gathering stats"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_corda::scheduler::{
        AsynchronousScheduler, FullySynchronousScheduler, RoundRobinScheduler,
        SemiSynchronousScheduler,
    };
    use rr_ring::enumerate::enumerate_rigid_configurations;
    use rr_ring::{Direction, Ring};

    fn cfg(gaps: &[usize]) -> Configuration {
        Configuration::from_gaps_at_origin(gaps)
    }

    #[test]
    fn supports_matches_theorem_8() {
        assert!(GatheringProtocol::supports(8, 4));
        assert!(GatheringProtocol::supports(100, 3));
        assert!(GatheringProtocol::supports(10, 7));
        assert!(!GatheringProtocol::supports(8, 2));
        assert!(!GatheringProtocol::supports(8, 6));
        assert!(!GatheringProtocol::supports(8, 7));
    }

    #[test]
    fn contraction_moves_only_the_first_node() {
        // C* for k = 5, n = 12: robots at 0,1,2,3 and 5; the first node is the
        // block end adjacent to the large interval, i.e. node 0.
        let c = cfg(&[0, 0, 0, 1, 6]);
        let mut movers = Vec::new();
        for v in c.occupied_nodes() {
            let s = Snapshot::capture(&c, v, MultiplicityCapability::Local, Direction::Cw);
            if GatheringProtocol.compute(&s).is_move() {
                movers.push(v);
            }
        }
        assert_eq!(movers, vec![0]);
    }

    #[test]
    fn contraction_direction_enters_the_block() {
        let c = cfg(&[0, 0, 0, 1, 6]);
        let s = Snapshot::capture(&c, 0, MultiplicityCapability::Local, Direction::Cw);
        // views[0] is the cw view (0,0,0,1,6) = supermin, so the robot moves
        // in that direction, onto node 1.
        assert_eq!(
            GatheringProtocol.compute(&s),
            Decision::Move(ViewIndex::First)
        );
        let s = Snapshot::capture(&c, 0, MultiplicityCapability::Local, Direction::Ccw);
        assert_eq!(
            GatheringProtocol.compute(&s),
            Decision::Move(ViewIndex::Second)
        );
    }

    #[test]
    fn two_nodes_only_the_single_robot_moves() {
        let ring = Ring::new(10);
        let c = Configuration::from_counts(ring, vec![4, 0, 1, 0, 0, 0, 0, 0, 0, 0]).unwrap();
        // Node 0 holds 4 robots (multiplicity), node 2 a single robot.
        let multi = Snapshot::capture(&c, 0, MultiplicityCapability::Local, Direction::Cw);
        assert_eq!(GatheringProtocol.compute(&multi), Decision::Idle);
        let single = Snapshot::capture(&c, 2, MultiplicityCapability::Local, Direction::Cw);
        let d = GatheringProtocol.compute(&single);
        // The single robot at node 2 must walk towards node 0 (distance 2 via
        // node 1, versus 8 the other way); cw from node 2 goes away from 0.
        assert_eq!(d, Decision::Move(ViewIndex::Second));
    }

    #[test]
    fn gathered_configuration_is_silent() {
        let ring = Ring::new(9);
        let c = Configuration::from_counts(ring, vec![0, 0, 5, 0, 0, 0, 0, 0, 0]).unwrap();
        let s = Snapshot::capture(&c, 2, MultiplicityCapability::Local, Direction::Cw);
        assert_eq!(GatheringProtocol.compute(&s), Decision::Idle);
    }

    #[test]
    fn gathering_succeeds_from_c_star() {
        let c = cfg(&[0, 0, 0, 1, 6]);
        let mut sched = RoundRobinScheduler::new();
        let stats = run_gathering(&c, &mut sched, 50_000).unwrap();
        assert!(stats.gathered);
        assert!(!stats.broke_gathering);
        // k-1 contraction-phase moves of the accumulating multiplicity plus
        // the final approach of the single robot: the exact count depends on
        // the schedule, but it is at least k+1 and finite.
        assert!(stats.moves >= (5 + 1) as u64);
    }

    #[test]
    fn gathering_succeeds_from_every_rigid_configuration_small() {
        for (n, k) in [(8usize, 4usize), (9, 5), (10, 3), (11, 6)] {
            for config in enumerate_rigid_configurations(n, k) {
                let mut sched = RoundRobinScheduler::new();
                let stats = run_gathering(&config, &mut sched, 100_000)
                    .unwrap_or_else(|e| panic!("{config}: {e}"));
                assert!(stats.gathered, "not gathered from {config}");
                assert!(!stats.broke_gathering, "gathering broken from {config}");
            }
        }
    }

    #[test]
    fn gathering_succeeds_under_every_scheduler() {
        let config = cfg(&[0, 2, 1, 0, 4, 3]); // rigid, n = 16, k = 6
        let mut fsync = FullySynchronousScheduler;
        assert!(
            run_gathering(&config, &mut fsync, 100_000)
                .unwrap()
                .gathered
        );
        let mut ssync = SemiSynchronousScheduler::seeded(11);
        assert!(
            run_gathering(&config, &mut ssync, 100_000)
                .unwrap()
                .gathered
        );
        let mut asynch = AsynchronousScheduler::seeded(13);
        assert!(
            run_gathering(&config, &mut asynch, 400_000)
                .unwrap()
                .gathered
        );
        let mut rr = RoundRobinScheduler::new();
        assert!(run_gathering(&config, &mut rr, 100_000).unwrap().gathered);
    }

    #[test]
    fn gathering_works_for_minimum_team_size() {
        // k = 3 (the smallest supported team) on various ring sizes.
        for n in [6usize, 7, 9, 15] {
            let config = enumerate_rigid_configurations(n, 3)
                .into_iter()
                .next()
                .expect("a rigid configuration exists");
            let mut sched = RoundRobinScheduler::new();
            let stats = run_gathering(&config, &mut sched, 100_000).unwrap();
            assert!(stats.gathered, "n={n}");
        }
    }

    #[test]
    fn decision_is_insensitive_to_view_order() {
        let c = cfg(&[0, 0, 0, 1, 6]);
        for v in c.occupied_nodes() {
            let cw = Snapshot::capture(&c, v, MultiplicityCapability::Local, Direction::Cw);
            let ccw = Snapshot::capture(&c, v, MultiplicityCapability::Local, Direction::Ccw);
            match (
                GatheringProtocol.compute(&cw),
                GatheringProtocol.compute(&ccw),
            ) {
                (Decision::Idle, Decision::Idle) => {}
                (Decision::Move(a), Decision::Move(b)) => {
                    if cw.views[0] != cw.views[1] {
                        assert_eq!(a.index(), 1 - b.index());
                    }
                }
                other => panic!("inconsistent {other:?}"),
            }
        }
    }

    #[test]
    fn capability_and_exclusivity_declarations() {
        assert_eq!(
            GatheringProtocol.capability(),
            MultiplicityCapability::Local
        );
        assert!(!GatheringProtocol.requires_exclusivity());
        assert_eq!(GatheringProtocol.name(), "gathering");
    }
}
