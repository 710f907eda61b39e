//! Algorithm **Align** (Section 3 of the paper): starting from any rigid
//! exclusive configuration of `k ≥ 3` robots on an `n`-node ring with
//! `k < n - 2`, reach the configuration `C* = (0^{k-2}, 1, n-k-1)`.
//!
//! The algorithm repeatedly decreases the supermin configuration view by
//! moving a single, unambiguously identified robot (Theorem 1).  The decision
//! is made entirely from the robot's local view:
//!
//! 1. reconstruct the supermin configuration view `W_min` (any view determines
//!    it);
//! 2. select the reduction rule exactly as Figure 1 of the paper does
//!    ([`reductions::choose_reduction`]);
//! 3. the robot moves iff one of its two directional views equals the
//!    *expected mover view* of the selected rule, and it moves in the
//!    direction of that view.
//!
//! Rigidity guarantees that exactly one robot (in exactly one direction)
//! matches; the only non-rigid configuration ever encountered is the
//! symmetric intermediate with supermin `(0,0,2,2)` produced from `Cs`, where
//! the unique axis robot matches in both directions and either move leads to
//! `C*`.

pub mod reductions;

use rr_corda::{
    Decision, MultiplicityCapability, Protocol, Scheduler, SimError, Snapshot, ViewIndex,
};
use rr_ring::{pattern, Configuration, View};

use crate::driver::drive;

pub use reductions::{choose_reduction, Reduction, SelectedReduction};

/// The Align protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct AlignProtocol;

impl AlignProtocol {
    /// Creates the protocol.
    #[must_use]
    pub fn new() -> Self {
        AlignProtocol
    }

    /// Whether `supermin` is the target configuration `C*` (for the number of
    /// robots implied by the view length).
    #[must_use]
    pub fn is_goal(supermin: &View) -> bool {
        pattern::is_c_star_type(supermin.gaps())
    }

    /// The decision of Algorithm Align for a robot whose two directional views
    /// are `views` — exposed so that other protocols (Ring Clearing,
    /// Gathering) can delegate their first phase to Align.
    #[must_use]
    pub fn decide(views: &[View; 2]) -> Decision {
        if views[0].len() < 3 {
            return Decision::Idle;
        }
        Self::decide_with_supermin(views, &views[0].supermin())
    }

    /// [`AlignProtocol::decide`] for a caller that already holds `w_min`,
    /// the supermin configuration view of `views`: Gathering computes it
    /// for its own stage test, so its Look computes it once.
    #[must_use]
    pub fn decide_with_supermin(views: &[View; 2], w_min: &View) -> Decision {
        let Some(sel) = reductions::choose_reduction(w_min) else {
            return Decision::Idle;
        };
        if views[0] == sel.mover_view {
            Decision::Move(ViewIndex::First)
        } else if views[1] == sel.mover_view {
            Decision::Move(ViewIndex::Second)
        } else {
            Decision::Idle
        }
    }
}

impl Protocol for AlignProtocol {
    fn name(&self) -> &str {
        "align"
    }

    fn capability(&self) -> MultiplicityCapability {
        MultiplicityCapability::None
    }

    fn requires_exclusivity(&self) -> bool {
        true
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        AlignProtocol::decide(&snapshot.views)
    }
}

/// Runs Align from `initial` under the given scheduler until `C*` is reached,
/// returning the final configuration and the number of moves performed.
///
/// This is a convenience harness used by the examples, the benches and the
/// verification suite; `max_scheduler_steps` bounds the run.
///
/// Thin wrapper over the generic engine loop
/// [`drive`](crate::driver::drive()).
pub fn run_to_c_star<S: Scheduler + ?Sized>(
    initial: &Configuration,
    scheduler: &mut S,
    max_scheduler_steps: u64,
) -> Result<(Configuration, u64), SimError> {
    let (engine, report) = drive(
        AlignProtocol,
        initial,
        scheduler,
        &mut (),
        max_scheduler_steps,
        |e, ()| AlignProtocol::is_goal(&rr_ring::supermin_view(e.configuration())),
    )?;
    Ok((engine.configuration().clone(), report.moves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_corda::scheduler::{
        AsynchronousScheduler, FullySynchronousScheduler, RoundRobinScheduler,
        SemiSynchronousScheduler,
    };
    use rr_corda::Engine;
    use rr_ring::enumerate::enumerate_rigid_configurations;
    use rr_ring::{supermin_view, symmetry, Direction};

    fn cfg(gaps: &[usize]) -> Configuration {
        Configuration::from_gaps_at_origin(gaps)
    }

    fn c_star_view(n: usize, k: usize) -> View {
        let mut gaps = vec![0; k - 2];
        gaps.push(1);
        gaps.push(n - k - 1);
        View::new(gaps)
    }

    #[test]
    fn goal_detection() {
        assert!(AlignProtocol::is_goal(&View::new(vec![0, 0, 1, 3])));
        assert!(AlignProtocol::is_goal(&View::new(vec![0, 0, 0, 1, 6])));
        assert!(!AlignProtocol::is_goal(&View::new(vec![0, 1, 1, 2])));
    }

    #[test]
    fn exactly_one_robot_moves_in_a_rigid_configuration() {
        for (n, k) in [(8usize, 4usize), (10, 5), (11, 6), (12, 4), (13, 7)] {
            for config in enumerate_rigid_configurations(n, k) {
                let w_min = supermin_view(&config);
                if AlignProtocol::is_goal(&w_min) {
                    continue;
                }
                let mut movers = 0;
                for v in config.occupied_nodes() {
                    let s =
                        Snapshot::capture(&config, v, MultiplicityCapability::None, Direction::Cw);
                    if AlignProtocol.compute(&s).is_move() {
                        movers += 1;
                    }
                }
                assert_eq!(movers, 1, "n={n} k={k} config={config}");
            }
        }
    }

    #[test]
    fn decision_is_insensitive_to_view_order() {
        for config in enumerate_rigid_configurations(11, 5) {
            for v in config.occupied_nodes() {
                let cw = Snapshot::capture(&config, v, MultiplicityCapability::None, Direction::Cw);
                let ccw =
                    Snapshot::capture(&config, v, MultiplicityCapability::None, Direction::Ccw);
                match (AlignProtocol.compute(&cw), AlignProtocol.compute(&ccw)) {
                    (Decision::Idle, Decision::Idle) => {}
                    (Decision::Move(a), Decision::Move(b)) => {
                        if cw.views[0] != cw.views[1] {
                            assert_eq!(a.index(), 1 - b.index(), "config={config} node={v}");
                        }
                    }
                    other => panic!("inconsistent decisions {other:?} for {config} node {v}"),
                }
            }
        }
    }

    #[test]
    fn cs_reaches_c_star_via_the_symmetric_intermediate() {
        // Cs = (0,1,1,2) on n = 8, k = 4 (Theorem 1's special case).
        let initial = cfg(&[0, 1, 1, 2]);
        let mut sched = RoundRobinScheduler::new();
        let (final_config, moves) = run_to_c_star(&initial, &mut sched, 10_000).unwrap();
        assert_eq!(supermin_view(&final_config), c_star_view(8, 4));
        assert_eq!(moves, 2, "Cs needs exactly two reduction_1 moves");
    }

    #[test]
    fn every_rigid_configuration_aligns_to_c_star_round_robin() {
        for (n, k) in [(8usize, 4usize), (9, 4), (10, 5), (11, 7), (12, 6), (13, 5)] {
            for config in enumerate_rigid_configurations(n, k) {
                let mut sched = RoundRobinScheduler::new();
                let (final_config, _) = run_to_c_star(&config, &mut sched, 200_000)
                    .unwrap_or_else(|e| panic!("n={n} k={k} {config}: {e}"));
                assert_eq!(
                    supermin_view(&final_config),
                    c_star_view(n, k),
                    "n={n} k={k} started from {config}"
                );
            }
        }
    }

    #[test]
    fn alignment_works_under_every_scheduler() {
        let initial = cfg(&[0, 2, 1, 0, 3, 4]); // rigid, n = 16, k = 6
        assert!(symmetry::is_rigid(&initial));
        let goal = c_star_view(16, 6);

        let mut fsync = FullySynchronousScheduler;
        let (c, _) = run_to_c_star(&initial, &mut fsync, 100_000).unwrap();
        assert_eq!(supermin_view(&c), goal);

        let mut ssync = SemiSynchronousScheduler::seeded(42);
        let (c, _) = run_to_c_star(&initial, &mut ssync, 100_000).unwrap();
        assert_eq!(supermin_view(&c), goal);

        let mut asynch = AsynchronousScheduler::seeded(7);
        let (c, _) = run_to_c_star(&initial, &mut asynch, 400_000).unwrap();
        assert_eq!(supermin_view(&c), goal);
    }

    #[test]
    fn intermediate_configurations_stay_rigid_or_are_the_known_exception() {
        for (n, k) in [(9usize, 4usize), (10, 5), (12, 6)] {
            for config in enumerate_rigid_configurations(n, k) {
                let mut sim = Engine::with_default_options(AlignProtocol, config.clone()).unwrap();
                let mut sched = RoundRobinScheduler::new();
                let mut guard = 0;
                while !AlignProtocol::is_goal(&supermin_view(sim.configuration())) {
                    let view = sim.scheduler_view();
                    let step = sched.next(&view);
                    sim.step(&step, &mut ()).unwrap();
                    let current = sim.configuration();
                    let w = supermin_view(current);
                    assert!(
                        symmetry::is_rigid(current) || w == View::new(vec![0, 0, 2, 2]),
                        "intermediate {current} from {config} is neither rigid nor the exception"
                    );
                    guard += 1;
                    assert!(guard < 100_000, "no progress from {config}");
                }
            }
        }
    }

    #[test]
    fn supermin_never_increases_for_two_consecutive_moves() {
        // Theorem 1: every move (or every two consecutive moves, in the
        // reduction_{-1} case) strictly decreases the supermin view.
        for config in enumerate_rigid_configurations(12, 5) {
            let mut sim = Engine::with_default_options(AlignProtocol, config.clone()).unwrap();
            let mut sched = RoundRobinScheduler::new();
            let mut superminima = vec![supermin_view(sim.configuration())];
            let mut guard = 0;
            while !AlignProtocol::is_goal(&supermin_view(sim.configuration())) {
                let step = sched.next(&sim.scheduler_view());
                let moved = sim.step(&step, &mut ()).unwrap().moved();
                if moved {
                    superminima.push(supermin_view(sim.configuration()));
                }
                guard += 1;
                assert!(guard < 100_000);
            }
            for w in superminima.windows(3) {
                assert!(
                    w[2] < w[0],
                    "supermin did not decrease within two moves: {} -> {} -> {} (start {config})",
                    w[0],
                    w[1],
                    w[2]
                );
            }
        }
    }

    #[test]
    fn align_is_idle_for_tiny_teams() {
        let c = cfg(&[3, 4]); // two robots
        for v in c.occupied_nodes() {
            let s = Snapshot::capture(&c, v, MultiplicityCapability::None, Direction::Cw);
            assert_eq!(AlignProtocol.compute(&s), Decision::Idle);
        }
    }

    #[test]
    fn align_is_idle_at_c_star() {
        let c = cfg(&[0, 0, 0, 1, 6]);
        for v in c.occupied_nodes() {
            let s = Snapshot::capture(&c, v, MultiplicityCapability::None, Direction::Cw);
            assert_eq!(AlignProtocol.compute(&s), Decision::Idle);
        }
    }

    #[test]
    fn move_counts_are_reasonable() {
        // The number of moves to align is at most a small multiple of n·k on
        // these instances (the supermin decreases lexicographically).
        for (n, k) in [(12usize, 5usize), (14, 6)] {
            for config in enumerate_rigid_configurations(n, k).into_iter().take(50) {
                let mut sched = RoundRobinScheduler::new();
                let (_, moves) = run_to_c_star(&config, &mut sched, 200_000).unwrap();
                assert!(
                    moves <= (n * n) as u64,
                    "n={n} k={k}: {moves} moves from {config}"
                );
            }
        }
    }
}
