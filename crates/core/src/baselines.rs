//! Baseline and ablation protocols.
//!
//! These are *not* part of the paper's contribution; they implement the simple
//! strategies the paper discusses when motivating its algorithms
//! (Section 4.1) and the ablations used by experiment E9:
//!
//! * [`SingleWalker`] — one robot walking forever in one direction: it
//!   perpetually explores a ring on its own but never clears it;
//! * [`TwoRobotSlide`] — the textbook two-robot clearing strategy (one robot
//!   anchors, the other sweeps); it is a *centralized* strategy: in the
//!   min-CORDA model the adversary defeats it (Theorem 2), which the checker
//!   crate demonstrates;
//! * [`NaiveAligner`] — Align without the symmetry guards (it always performs
//!   `reduction_1` when the supermin interval is empty): it gets trapped in
//!   the symmetric configurations characterized by Lemmas 3–5.

use rr_corda::{Decision, Protocol, Snapshot, ViewIndex};
use rr_ring::pattern;

use crate::align::reductions::{self, Reduction};

/// A robot that always keeps walking in one direction (relative to its own
/// perception: it moves towards its larger adjacent interval, ties towards the
/// first view), regardless of what the others do.
#[derive(Debug, Default, Clone, Copy)]
pub struct SingleWalker;

impl Protocol for SingleWalker {
    fn name(&self) -> &str {
        "single-walker"
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

/// The best an oblivious disoriented robot can do towards the classical
/// two-robot sweep: walk away from the other robot (into its larger adjacent
/// interval).  The centralized sweep of Section 4.1 needs the walker to keep
/// its direction *past* the point diametral to the anchor, which an oblivious
/// robot cannot do: from the diametral zone onwards "keep going" and "turn
/// back" are indistinguishable, so the walker stalls exactly where Theorem 2
/// places the obstruction.  The tests below and `rr-checker` demonstrate this.
#[derive(Debug, Default, Clone, Copy)]
pub struct TwoRobotSlide;

impl Protocol for TwoRobotSlide {
    fn name(&self) -> &str {
        "two-robot-slide"
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        if snapshot.views[0].len() != 2 {
            return Decision::Idle;
        }
        let a = snapshot.views[0].gap(0);
        let b = snapshot.views[1].gap(0);
        // Walk away from the closer robot (i.e. into the larger gap); when the
        // two gaps are equal the robot cannot break the tie and idles — the
        // diametral deadlock of Theorem 2.
        match a.cmp(&b) {
            std::cmp::Ordering::Greater => Decision::Move(ViewIndex::First),
            std::cmp::Ordering::Less => Decision::Move(ViewIndex::Second),
            std::cmp::Ordering::Equal => Decision::Idle,
        }
    }
}

/// Align without its symmetry guards: whenever the supermin interval is empty
/// it performs `reduction_1` unconditionally (and `reduction_0` otherwise).
/// Used by the ablation experiment to show why the guarded rule order of
/// Figure 1 is necessary: this protocol walks straight into the symmetric
/// configurations of Lemma 3, where two robots become indistinguishable and
/// the adversary forces a collision or a livelock.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveAligner;

impl NaiveAligner {
    /// Whether the word is already the goal configuration `C*`.
    #[must_use]
    fn is_goal(word: &[usize]) -> bool {
        pattern::is_c_star_type(word)
    }
}

impl Protocol for NaiveAligner {
    fn name(&self) -> &str {
        "naive-aligner"
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        let k = snapshot.views[0].len();
        if k < 3 {
            return Decision::Idle;
        }
        let w_min = snapshot.views[0].supermin();
        if Self::is_goal(w_min.gaps()) {
            return Decision::Idle;
        }
        let rule = if w_min.gap(0) > 0 {
            Reduction::Zero
        } else if reductions::ell1(&w_min).is_some_and(|l| l + 1 < k) {
            Reduction::One
        } else {
            return Decision::Idle;
        };
        let mover = reductions::mover_view(&w_min, rule);
        if snapshot.views[0] == mover {
            Decision::Move(ViewIndex::First)
        } else if snapshot.views[1] == mover {
            Decision::Move(ViewIndex::Second)
        } else {
            Decision::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_corda::scheduler::RoundRobinScheduler;
    use rr_corda::{Engine, MultiplicityCapability, RobotSet, Scheduler, SchedulerStep};
    use rr_ring::{symmetry, Configuration, Direction};
    use rr_search::{Contamination, ExplorationTracker};

    fn cfg(gaps: &[usize]) -> Configuration {
        Configuration::from_gaps_at_origin(gaps)
    }

    #[test]
    fn single_walker_explores_but_never_clears() {
        let ring = rr_ring::Ring::new(9);
        let initial = Configuration::new_exclusive(ring, &[0]).unwrap();
        let mut sim = Engine::with_default_options(SingleWalker, initial.clone()).unwrap();
        let mut sched = RoundRobinScheduler::new();
        let mut contamination = Contamination::initial(&initial);
        let mut exploration = ExplorationTracker::new(9, &sim.positions());
        for _ in 0..100 {
            let step = sched.next(&sim.scheduler_view());
            for rec in sim.step(&step, &mut ()).unwrap().moves {
                contamination.observe_move(rec.from, rec.to, sim.configuration());
                exploration.observe_move(rec.robot, rec.to);
            }
        }
        // One robot explores the whole ring many times over ...
        assert!(exploration.min_completions() >= 5);
        // ... but a single robot can never have more than the edge it just
        // traversed clear (everything behind is recontaminated instantly).
        assert!(contamination.clear_count() <= 1);
    }

    #[test]
    fn two_robot_slide_stalls_at_the_diametral_zone() {
        // Robots adjacent on a 9-ring; even a benevolent scheduler that only
        // ever activates the walking robot cannot make it pass the point
        // diametral to the anchor: the oblivious walker turns back there, so
        // the ring is never fully cleared (the obstruction behind Theorem 2).
        let initial = cfg(&[0, 7]);
        let mut sim = Engine::with_default_options(TwoRobotSlide, initial.clone()).unwrap();
        let mut contamination = Contamination::initial(&initial);
        let mut reached_diametral = false;
        for _ in 0..100 {
            for rec in sim
                .step(&SchedulerStep::SsyncRound(RobotSet::single(1)), &mut ())
                .unwrap()
                .moves
            {
                contamination.observe_move(rec.from, rec.to, sim.configuration());
            }
            assert!(
                !contamination.all_clear(),
                "two oblivious robots must not clear the ring"
            );
            let pos = sim.positions();
            reached_diametral |= sim.ring().diametral(pos[0], pos[1]);
        }
        assert!(
            reached_diametral,
            "the walker must reach the diametral zone and stall there"
        );
    }

    #[test]
    fn two_robot_slide_deadlocks_on_diametral_configurations() {
        // On an even ring with the robots diametrally opposed neither robot
        // can distinguish its two sides: the protocol idles forever.
        let initial = cfg(&[3, 3]);
        let mut sim = Engine::with_default_options(TwoRobotSlide, initial).unwrap();
        for r in 0..sim.num_robots() {
            assert!(!sim
                .step(&SchedulerStep::SsyncRound(RobotSet::single(r)), &mut ())
                .unwrap()
                .moved());
        }
        assert_eq!(sim.move_count(), 0);
    }

    #[test]
    fn naive_aligner_reaches_a_symmetric_trap() {
        // Lemma 3 family: from (0,1,2,3) the unguarded reduction_1 creates the
        // symmetric configuration (0,0,3,3), which real Align avoids.
        let initial = cfg(&[0, 1, 2, 3]);
        assert!(symmetry::is_rigid(&initial));
        let mut sim = Engine::with_default_options(NaiveAligner, initial).unwrap();
        let mut sched = RoundRobinScheduler::new();
        let mut reached_symmetric = false;
        for _ in 0..200 {
            let step = sched.next(&sim.scheduler_view());
            if sim.step(&step, &mut ()).is_err() {
                // A collision caused by the broken rule also proves the point.
                reached_symmetric = true;
                break;
            }
            let current = sim.configuration();
            if !symmetry::is_rigid(current)
                && rr_ring::supermin_view(current) != rr_ring::View::new(vec![0, 0, 2, 2])
            {
                reached_symmetric = true;
                break;
            }
        }
        assert!(
            reached_symmetric,
            "the unguarded aligner must hit a symmetric trap"
        );
    }

    #[test]
    fn real_align_avoids_the_trap_where_the_naive_one_fails() {
        use crate::align::run_to_c_star;
        let initial = cfg(&[0, 1, 2, 3]);
        let mut sched = RoundRobinScheduler::new();
        let (final_config, _) = run_to_c_star(&initial, &mut sched, 10_000).unwrap();
        assert_eq!(
            rr_ring::supermin_view(&final_config),
            rr_ring::View::new(vec![0, 0, 1, 5])
        );
    }

    #[test]
    fn walker_decision_is_direction_insensitive() {
        let c = cfg(&[2, 5, 1]);
        for v in c.occupied_nodes() {
            let cw = Snapshot::capture(&c, v, MultiplicityCapability::None, Direction::Cw);
            let ccw = Snapshot::capture(&c, v, MultiplicityCapability::None, Direction::Ccw);
            match (SingleWalker.compute(&cw), SingleWalker.compute(&ccw)) {
                (Decision::Move(a), Decision::Move(b)) => {
                    if cw.views[0].gap(0) != cw.views[1].gap(0) {
                        assert_eq!(a.index(), 1 - b.index());
                    }
                }
                (Decision::Idle, Decision::Idle) => {}
                other => panic!("inconsistent {other:?}"),
            }
        }
    }
}
