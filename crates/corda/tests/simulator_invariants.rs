//! Property-based and randomized invariants of the Look–Compute–Move
//! simulator: robot conservation, position/configuration consistency,
//! scheduler well-formedness and monitor faithfulness.

use proptest::prelude::*;
use rr_corda::scheduler::{
    AsynchronousScheduler, FullySynchronousScheduler, RoundRobinScheduler, SemiSynchronousScheduler,
};
use rr_corda::{
    Decision, Engine, EngineOptions, FaultEvent, Monitor, MoveRecord, Protocol, RobotId, RobotSet,
    Scheduler, SchedulerStep, Snapshot, StepReport, ViewIndex,
};
use rr_ring::{Configuration, Ring};

include!("common/event_log.rs");

/// A deterministic but non-trivial test protocol: robots move towards their
/// larger adjacent gap whenever the gaps differ.  Under the asynchronous
/// scheduler a pending move may land on a node that became occupied in the
/// meantime, so the protocol does not declare the exclusivity requirement and
/// the invariants below are about conservation and monitor faithfulness only.
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

/// Runs `steps` scheduler steps, returning the engine and the log of its
/// monitor hooks.
fn run_with<S: Scheduler>(
    config: &Configuration,
    mut scheduler: S,
    steps: u64,
) -> (Engine<DriftProtocol>, EventLog) {
    let mut sim = Engine::with_default_options(DriftProtocol, config.clone()).expect("valid");
    let mut log = EventLog::default();
    for _ in 0..steps {
        let step = scheduler.next(&sim.scheduler_view());
        sim.step(&step, &mut log)
            .expect("exclusivity is not enforced for the drift protocol");
    }
    (sim, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The number of robots is conserved and the simulator's position vector
    /// always matches the configuration's occupancy, under every scheduler.
    #[test]
    fn robots_are_conserved(config in config_strategy(), seed in 0u64..1_000) {
        let k = config.num_robots();
        for variant in 0..4usize {
            let (sim, _) = match variant {
                0 => run_with(&config, RoundRobinScheduler::new(), 60),
                1 => run_with(&config, FullySynchronousScheduler, 30),
                2 => run_with(&config, SemiSynchronousScheduler::seeded(seed), 40),
                _ => run_with(&config, AsynchronousScheduler::seeded(seed), 80),
            };
            prop_assert_eq!(sim.configuration().num_robots(), k);
            prop_assert_eq!(sim.num_robots(), k);
            // positions() and the configuration agree.
            let mut counts = vec![0u32; config.n()];
            for p in sim.positions() {
                counts[p] += 1;
            }
            for (v, count) in counts.iter().enumerate() {
                prop_assert_eq!(*count, sim.configuration().count_at(v));
            }
        }
    }

    /// The observed moves replay to the final configuration: applying the
    /// moves the monitor saw to the initial configuration yields the
    /// simulator's end state.
    #[test]
    fn trace_replays_to_final_configuration(config in config_strategy(), seed in 0u64..1_000) {
        let (sim, log) = run_with(&config, AsynchronousScheduler::seeded(seed), 120);
        let mut replay = config.clone();
        let mut moves = 0u64;
        for hook in &log.hooks {
            if let Hook::Move(record) = hook {
                replay.move_robot(record.from, record.to).expect("observed moves are legal");
                moves += 1;
            }
        }
        prop_assert_eq!(&replay, sim.configuration());
        // The observed moves match the simulator's move counter.
        prop_assert_eq!(moves, sim.move_count());
    }

    /// Every Look is eventually followed by at most one Move/Idle completion
    /// per robot (cycle accounting), and cycles never exceed looks.
    #[test]
    fn cycle_accounting(config in config_strategy(), seed in 0u64..1_000) {
        let (sim, log) = run_with(&config, AsynchronousScheduler::seeded(seed), 100);
        let looks = log
            .hooks
            .iter()
            .filter(|hook| matches!(hook, Hook::Look { .. }))
            .count() as u64;
        let completions: u64 = sim.robots().iter().map(|r| r.cycles).sum();
        prop_assert!(completions <= looks);
        prop_assert_eq!(looks, sim.look_count());
    }

    /// Schedulers only ever name existing robots.
    #[test]
    fn schedulers_name_existing_robots(config in config_strategy(), seed in 0u64..1_000) {
        let options = EngineOptions::for_protocol(&DriftProtocol);
        let sim = Engine::new(DriftProtocol, config.clone(), options).expect("valid");
        let view = sim.scheduler_view();
        let k = config.num_robots();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(RoundRobinScheduler::new()),
            Box::new(FullySynchronousScheduler),
            Box::new(SemiSynchronousScheduler::seeded(seed)),
            Box::new(AsynchronousScheduler::seeded(seed)),
        ];
        for scheduler in &mut schedulers {
            for _ in 0..20 {
                match scheduler.next(&view) {
                    SchedulerStep::SsyncRound(robots) => {
                        prop_assert!(!robots.is_empty());
                        prop_assert!(robots.iter().all(|r| r < k));
                    }
                    SchedulerStep::Look(r) | SchedulerStep::Execute(r) => prop_assert!(r < k),
                }
            }
        }
    }
}

#[test]
fn alternating_view_order_flips_snapshot_orientation() {
    let config = Configuration::from_gaps_at_origin(&[1, 2, 4]);
    let options = EngineOptions::for_protocol(&DriftProtocol)
        .with_view_order(rr_corda::ViewOrder::Alternating);
    let mut sim = Engine::new(DriftProtocol, config, options).unwrap();
    // Two consecutive looks by the same robot id on a frozen configuration
    // would alternate orientation; here we simply check the run stays valid.
    for r in 0..sim.num_robots() {
        sim.step(&SchedulerStep::SsyncRound(RobotSet::single(r)), &mut ())
            .unwrap();
    }
    assert_eq!(sim.configuration().num_robots(), 3);
}

/// Replays `steps` scheduler decisions against a fresh engine, recording the
/// emitted schedule.  Used by the determinism tests below.
fn schedule_of<S: Scheduler>(
    config: &Configuration,
    mut scheduler: S,
    steps: u64,
) -> Vec<SchedulerStep> {
    let options = EngineOptions::for_protocol(&DriftProtocol);
    let mut sim = Engine::new(DriftProtocol, config.clone(), options).expect("valid");
    let mut out = Vec::new();
    for _ in 0..steps {
        let step = scheduler.next(&sim.scheduler_view());
        sim.step(&step, &mut ())
            .expect("drift protocol never fails");
        out.push(step);
    }
    out
}

#[test]
fn round_robin_schedule_is_deterministic() {
    let config = Configuration::from_gaps_at_origin(&[0, 1, 2, 5]);
    let a = schedule_of(&config, RoundRobinScheduler::new(), 64);
    let b = schedule_of(&config, RoundRobinScheduler::new(), 64);
    assert_eq!(a, b);
    // And it is exactly the cyclic single-robot round sequence.
    for (i, step) in a.iter().enumerate() {
        assert_eq!(*step, SchedulerStep::SsyncRound(RobotSet::single(i % 4)));
    }
}

#[test]
fn asynchronous_schedule_is_deterministic_per_seed() {
    let config = Configuration::from_gaps_at_origin(&[0, 1, 2, 5]);
    for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
        let a = schedule_of(&config, AsynchronousScheduler::seeded(seed), 300);
        let b = schedule_of(&config, AsynchronousScheduler::seeded(seed), 300);
        assert_eq!(a, b, "seed {seed}");
    }
    // Different seeds must produce different interleavings (with overwhelming
    // probability; these two fixed seeds are checked to differ).
    let a = schedule_of(&config, AsynchronousScheduler::seeded(1), 300);
    let b = schedule_of(&config, AsynchronousScheduler::seeded(2), 300);
    assert_ne!(a, b);
}

#[test]
fn asynchronous_fairness_window_flushes_deterministically() {
    // With a tiny fairness window every pending action is flushed within
    // `window` scheduler steps, and the flush decisions are a pure function
    // of the seed: the same run replayed twice emits identical schedules and
    // identical flush points.
    let config = Configuration::from_gaps_at_origin(&[0, 1, 2, 5]);
    let window = 4u64;
    let runs: Vec<Vec<SchedulerStep>> = (0..2)
        .map(|_| {
            schedule_of(
                &config,
                AsynchronousScheduler::seeded(9).with_fairness_window(window),
                400,
            )
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    // Fairness: replay the schedule and check no robot stays pending longer
    // than the window.
    let options = EngineOptions::for_protocol(&DriftProtocol);
    let mut sim = Engine::new(DriftProtocol, config, options).expect("valid");
    let mut pending_since = vec![None::<u64>; sim.num_robots()];
    for (t, step) in runs[0].iter().enumerate() {
        sim.step(step, &mut ()).expect("drift protocol never fails");
        let view = sim.scheduler_view();
        for (r, since_slot) in pending_since.iter_mut().enumerate() {
            if view.pending.contains(r) {
                let since = *since_slot.get_or_insert(t as u64);
                assert!(
                    (t as u64) - since <= window * view.num_robots as u64,
                    "robot {r} pending since {since}, still pending at {t}"
                );
            } else {
                *since_slot = None;
            }
        }
    }
}
