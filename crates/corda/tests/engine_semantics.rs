//! Semantic contracts of the unified [`Engine::step`] pipeline:
//!
//! * **determinism** — a run is a pure function of (initial configuration,
//!   protocol, scheduler stream): same seed + same scheduler ⇒ identical
//!   monitor hooks, identical final configuration;
//! * **SSYNC equivalence** — `Engine::step(SsyncRound(..))` implements
//!   exactly the look-all-then-move-all semantics the `ssync_round` entry
//!   point had before the engine refactor, including the CORDA rule that a
//!   pending decision is kept (never recomputed) when its robot is activated
//!   again.

use proptest::prelude::*;
use rr_corda::scheduler::AsynchronousScheduler;
use rr_corda::{
    Decision, Engine, FaultEvent, Monitor, MoveRecord, Protocol, RobotId, RobotSet, Scheduler,
    SchedulerStep, Snapshot, StepReport, ViewIndex,
};
use rr_ring::{Configuration, Direction, Ring};

include!("common/event_log.rs");

/// The non-trivial deterministic test protocol shared with the invariants
/// suite: move towards the larger adjacent gap when the gaps differ.
#[derive(Debug, Clone, Copy)]
struct DriftProtocol;

impl Protocol for DriftProtocol {
    fn name(&self) -> &str {
        "drift"
    }

    fn requires_exclusivity(&self) -> bool {
        false
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        let a = snapshot.views[0].gap(0);
        let b = snapshot.views[1].gap(0);
        match a.cmp(&b) {
            std::cmp::Ordering::Greater => Decision::Move(ViewIndex::First),
            std::cmp::Ordering::Less => Decision::Move(ViewIndex::Second),
            std::cmp::Ordering::Equal => Decision::Idle,
        }
    }
}

fn config_strategy() -> impl Strategy<Value = Configuration> {
    (6usize..16, 2usize..6).prop_flat_map(|(n, k)| {
        proptest::collection::vec(0usize..n, k..=k).prop_filter_map(
            "distinct nodes",
            move |nodes| {
                let mut sorted = nodes.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != nodes.len() {
                    return None;
                }
                Configuration::new_exclusive(Ring::new(n), &nodes).ok()
            },
        )
    })
}

/// Reference SSYNC semantics, written directly against the data model: every
/// listed robot decides on the *pre-round* configuration, then the decided
/// moves are applied in listing order.
fn reference_ssync_round(
    config: &Configuration,
    positions: &[usize],
    robots: &[usize],
) -> (Configuration, Vec<(usize, usize, usize)>) {
    let ring = config.ring();
    let mut decided = Vec::new();
    for &r in robots {
        let node = positions[r];
        let snapshot = Snapshot::capture(config, node, DriftProtocol.capability(), Direction::Cw);
        match DriftProtocol.compute(&snapshot) {
            Decision::Idle => {}
            Decision::Move(idx) => {
                let dir = match idx {
                    ViewIndex::First => Direction::Cw,
                    ViewIndex::Second => Direction::Ccw,
                };
                decided.push((r, node, ring.neighbor(node, dir)));
            }
        }
    }
    let mut after = config.clone();
    for &(_, from, to) in &decided {
        after.move_robot(from, to).expect("reference move is legal");
    }
    (after, decided)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed + same scheduler ⇒ identical monitor hooks and final
    /// configuration.
    #[test]
    fn runs_are_deterministic_per_seed(config in config_strategy(), seed in 0u64..1_000) {
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let mut engine = Engine::with_default_options(DriftProtocol, config.clone()).expect("valid");
            let mut scheduler = AsynchronousScheduler::seeded(seed);
            let mut log = EventLog::default();
            for _ in 0..150 {
                let step = scheduler.next(&engine.scheduler_view());
                engine.step(&step, &mut log).expect("drift never fails");
            }
            outcomes.push((log, engine.configuration().clone()));
        }
        prop_assert_eq!(&outcomes[0].0, &outcomes[1].0, "monitor hooks differ");
        prop_assert_eq!(&outcomes[0].1, &outcomes[1].1, "final configurations differ");
    }

    /// A full SSYNC round through `Engine::step` equals the reference
    /// look-all-then-move-all semantics.
    #[test]
    fn ssync_round_matches_reference_semantics(config in config_strategy()) {
        let mut engine = Engine::with_default_options(DriftProtocol, config.clone()).expect("valid");
        let robots: Vec<usize> = (0..engine.num_robots()).collect();
        let positions = engine.positions();
        let (expected_after, expected_moves) = reference_ssync_round(&config, &positions, &robots);

        let report = engine
            .step(&SchedulerStep::SsyncRound(RobotSet::first(robots.len())), &mut ())
            .expect("drift never fails");
        prop_assert_eq!(engine.configuration(), &expected_after);
        let got: Vec<(usize, usize, usize)> =
            report.moves.iter().map(|m| (m.robot, m.from, m.to)).collect();
        prop_assert_eq!(got, expected_moves);
    }

    /// A pending decision survives an SSYNC round untouched: the robot does
    /// not re-look even though the configuration changed after its Look.
    #[test]
    fn pending_decisions_are_kept_not_recomputed(config in config_strategy(), seed in 0u64..1_000) {
        let mut engine = Engine::with_default_options(DriftProtocol, config.clone()).expect("valid");
        // Robot 0 looks now ...
        engine.step(&SchedulerStep::Look(0), &mut ()).expect("look");
        let was_pending = engine.robots()[0].has_pending_move();
        let pending_target = match engine.robots()[0].phase {
            rr_corda::robot::Phase::MovePending { target } => Some(target),
            _ => None,
        };
        // ... the world changes around it ...
        let mut scheduler = AsynchronousScheduler::seeded(seed);
        for _ in 0..20 {
            let step = scheduler.next(&engine.scheduler_view());
            // Keep robot 0 frozen so only its pending state is at stake.
            let step = match step {
                SchedulerStep::SsyncRound(rs) => {
                    let rs = rs.without(0);
                    if rs.is_empty() { continue; }
                    SchedulerStep::SsyncRound(rs)
                }
                SchedulerStep::Look(0) | SchedulerStep::Execute(0) => continue,
                other => other,
            };
            engine.step(&step, &mut ()).expect("drift never fails");
        }
        // ... and when robot 0 is finally activated, it executes the decision
        // it computed at the very beginning.
        let report = engine
            .step(&SchedulerStep::SsyncRound(RobotSet::single(0)), &mut ())
            .expect("drift never fails");
        prop_assert_eq!(report.looks, 0, "pending robot must not re-look");
        if was_pending {
            prop_assert_eq!(report.moves.len(), 1);
            prop_assert_eq!(Some(report.moves[0].to), pending_target);
        } else {
            prop_assert!(!report.moved());
        }
    }
}

/// One concrete, hand-checkable SSYNC equivalence case (the adjacent-robots
/// scenario where look-then-move ordering is observable).
#[test]
fn ssync_round_is_snapshot_atomic() {
    // Robots at 0 and 1 on an 8-ring: each sees the other adjacent and the
    // big gap behind; both walk away from each other.  If the round moved
    // robot 0 before robot 1 looked, robot 1 would see a different world and
    // decide differently — the assertion would fail.
    let config = Configuration::from_gaps_at_origin(&[0, 6]);
    let mut engine = Engine::with_default_options(DriftProtocol, config.clone()).unwrap();
    let (expected_after, expected_moves) =
        reference_ssync_round(&config, &engine.positions(), &[0, 1]);
    let report = engine
        .step(&SchedulerStep::SsyncRound(RobotSet::first(2)), &mut ())
        .unwrap();
    assert_eq!(report.moves.len(), 2);
    assert_eq!(engine.configuration(), &expected_after);
    let got: Vec<(usize, usize, usize)> = report
        .moves
        .iter()
        .map(|m| (m.robot, m.from, m.to))
        .collect();
    assert_eq!(got, expected_moves);
}
