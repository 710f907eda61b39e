//! Lockstep property tests for the fault-injection layer.
//!
//! The contract that makes faults safe to thread through the engine's hot
//! paths: an engine with [`FaultModel::None`] armed is **byte-identical** to
//! an engine that never heard of faults — same `StepReport` streams, same
//! errors, same counters, same trace events, same `rr-sweep/v1` JSON bytes.
//! These tests mirror the `leap_lockstep` harness (arbitrary configurations
//! × arbitrary activation scripts) and add the deterministic fault pins:
//! crash-stop ≡ "the victim was never scheduled", corrupted Looks fire
//! exactly once, and `Engine::leap` refuses to serve while a fault is armed,
//! falling back to single-stepping with identical outcomes.

use proptest::prelude::*;
use rr_corda::protocol::GreedyGapWalker;
use rr_corda::scheduler::FullySynchronousScheduler;
use rr_corda::{
    CorruptionKind, Engine, EngineOptions, Event, FaultModel, RobotSet, SchedulerStep, SimError,
    StepPath, StepReport, ViewOrder,
};
use rr_ring::Configuration;

/// A random gap word for `k` robots with a positive total gap, so the ring
/// is never full (same strategy as `leap_lockstep`).
fn gap_word() -> impl Strategy<Value = Vec<usize>> {
    (2usize..6, 1usize..10).prop_flat_map(|(k, extra)| {
        proptest::collection::vec(0usize..4, k).prop_map(move |mut gaps| {
            gaps[k - 1] += extra;
            gaps
        })
    })
}

/// A random scheduler step for a system of `k` robots.
fn step_for(k: usize, kind: u8, a: usize, b: usize) -> SchedulerStep {
    let (a, b) = (a % k, b % k);
    match kind % 5 {
        0 => SchedulerStep::Look(a),
        1 => SchedulerStep::Execute(a),
        2 => SchedulerStep::SsyncRound(RobotSet::single(a)),
        3 => SchedulerStep::SsyncRound([a, b].into_iter().collect()),
        _ => SchedulerStep::SsyncRound(RobotSet::first(k)),
    }
}

fn script() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    proptest::collection::vec((0u8..5, 0usize..8, 0usize..8), 1..40)
}

fn drive(
    engine: &mut Engine<GreedyGapWalker>,
    k: usize,
    script: &[(u8, usize, usize)],
) -> (Vec<StepReport>, Option<SimError>) {
    let mut reports = Vec::new();
    for &(kind, a, b) in script {
        match engine.step(&step_for(k, kind, a, b), &mut ()) {
            Ok(report) => reports.push(report),
            Err(e) => return (reports, Some(e)),
        }
    }
    (reports, None)
}

fn assert_engines_equal(a: &Engine<GreedyGapWalker>, b: &Engine<GreedyGapWalker>) {
    assert_eq!(a.configuration(), b.configuration());
    assert_eq!(a.positions(), b.positions());
    assert_eq!(a.robots(), b.robots());
    assert_eq!(a.step_count(), b.step_count());
    assert_eq!(a.move_count(), b.move_count());
    assert_eq!(a.look_count(), b.look_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Satellite 1: `FaultModel::None` is a perfect no-op.  Over arbitrary
    /// starts and scripts, an engine that armed (and re-armed) `None`
    /// produces byte-identical reports, errors, counters, trace events and
    /// serialized `rr-sweep/v1` JSON to an engine the fault API never
    /// touched.
    #[test]
    fn none_fault_is_byte_identical_to_the_plain_engine(
        gaps in gap_word(),
        order_sel in 0u8..3,
        main in script(),
    ) {
        let order = match order_sel {
            0 => ViewOrder::CwFirst,
            1 => ViewOrder::CcwFirst,
            _ => ViewOrder::Alternating,
        };
        let config = Configuration::from_gaps_at_origin(&gaps);
        let options = EngineOptions::for_protocol(&GreedyGapWalker)
            .with_trace()
            .with_view_order(order);
        let mut armed = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
        armed.arm_fault(FaultModel::None);
        let mut plain = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();

        let k = config.num_robots();
        // Re-arm None mid-run too: arming must not perturb execution state.
        let (head, tail) = main.split_at(main.len() / 2);
        let (armed_head, armed_err_head) = drive(&mut armed, k, head);
        armed.arm_fault(FaultModel::None);
        let (plain_head, plain_err_head) = drive(&mut plain, k, head);
        prop_assert_eq!(armed_head, plain_head);
        prop_assert_eq!(&armed_err_head, &plain_err_head);
        if armed_err_head.is_none() {
            let (armed_tail, armed_err) = drive(&mut armed, k, tail);
            let (plain_tail, plain_err) = drive(&mut plain, k, tail);
            prop_assert_eq!(armed_tail, plain_tail);
            prop_assert_eq!(armed_err, plain_err);
        }
        assert_engines_equal(&armed, &plain);
        prop_assert_eq!(armed.trace().events(), plain.trace().events());
        let a = serde_json::to_string(armed.trace().events()).unwrap();
        let b = serde_json::to_string(plain.trace().events()).unwrap();
        prop_assert_eq!(a, b);
    }

    /// A corruption scheduled beyond the run's last Look is indistinguishable
    /// from no fault at all — the fault plumbing may not perturb the
    /// fault-free pipeline even while armed.
    #[test]
    fn unfired_corruption_is_invisible(
        gaps in gap_word(),
        kind_sel in 0usize..2,
        main in script(),
    ) {
        let config = Configuration::from_gaps_at_origin(&gaps);
        let options = EngineOptions::for_protocol(&GreedyGapWalker).with_trace();
        let mut armed = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
        armed.arm_fault(FaultModel::CorruptLook {
            look: u64::MAX,
            kind: CorruptionKind::ALL[kind_sel],
        });
        let mut plain = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();

        let k = config.num_robots();
        let (armed_reports, armed_err) = drive(&mut armed, k, &main);
        let (plain_reports, plain_err) = drive(&mut plain, k, &main);
        prop_assert_eq!(armed_reports, plain_reports);
        prop_assert_eq!(armed_err, plain_err);
        assert_engines_equal(&armed, &plain);
        prop_assert_eq!(armed.trace().events(), plain.trace().events());
    }

    /// Crash-stop semantics, as a lockstep property: an engine with
    /// `Crash { robot, after_step: 0 }` driven by any script reaches exactly
    /// the configuration of a plain engine driven by the same script with
    /// every activation of the victim deleted.
    #[test]
    fn crash_equals_never_scheduling_the_victim(
        gaps in gap_word(),
        victim_sel in 0usize..8,
        main in script(),
    ) {
        let config = Configuration::from_gaps_at_origin(&gaps);
        let k = config.num_robots();
        let victim = victim_sel % k;
        let options = EngineOptions::for_protocol(&GreedyGapWalker);
        let mut crashed = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
        crashed.arm_fault(FaultModel::Crash { robot: victim, after_step: 0 });
        let mut filtered = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();

        for &(kind, a, b) in &main {
            let step = step_for(k, kind, a, b);
            let crashed_result = crashed.step(&step, &mut ());
            let survivor_step = match &step {
                SchedulerStep::SsyncRound(robots) => {
                    Some(SchedulerStep::SsyncRound(robots.without(victim)))
                }
                SchedulerStep::Look(r) | SchedulerStep::Execute(r) if *r == victim => None,
                other => Some(*other),
            };
            let filtered_result = match survivor_step {
                Some(s) => filtered.step(&s, &mut ()).map(Some),
                // The victim's solo activation is suppressed: a no-op step.
                None => Ok(None),
            };
            match (&crashed_result, &filtered_result) {
                (Ok(_), Ok(_)) => {}
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a, b);
                    break;
                }
                _ => prop_assert!(false, "one engine failed, the other did not"),
            }
            prop_assert_eq!(crashed.configuration(), filtered.configuration());
            prop_assert_eq!(crashed.move_count(), filtered.move_count());
            prop_assert_eq!(crashed.look_count(), filtered.look_count());
        }
    }
}

/// Satellite 2: `Engine::leap` refuses to serve while a fault is armed, and
/// the scheduler-driven run loop falls back to single-stepping with outcomes
/// identical to a baseline engine under the same crash schedule.
#[test]
fn leap_declines_across_a_scheduled_crash_and_falls_back_to_stepping() {
    let config = Configuration::from_gaps_at_origin(&[1, 2, 5]);
    let options = EngineOptions::for_protocol(&GreedyGapWalker);
    let fault = FaultModel::Crash {
        robot: 1,
        after_step: 3,
    };

    let mut leap = Engine::new(
        GreedyGapWalker,
        config.clone(),
        options.with_step_path(StepPath::Leap),
    )
    .unwrap();
    // Sanity: without a fault the certificate does serve.
    assert!(
        leap.leap(1, &mut ()).is_some(),
        "fault-free leap must serve"
    );

    let mut leap = Engine::new(
        GreedyGapWalker,
        config.clone(),
        options.with_step_path(StepPath::Leap),
    )
    .unwrap();
    leap.arm_fault(fault);
    assert_eq!(
        leap.leap(5, &mut ()),
        None,
        "leap must refuse while a fault is armed"
    );

    // Force the leaping run loop across the scheduled crash: it must fall
    // back to single-stepping and agree with the baseline path exactly.
    let mut base = Engine::new(
        GreedyGapWalker,
        config.clone(),
        options.with_step_path(StepPath::StepBaseline),
    )
    .unwrap();
    base.arm_fault(fault);
    let leap_report = leap.run_until(&mut FullySynchronousScheduler, 12, |_| false);
    let base_report = base.run_until(&mut FullySynchronousScheduler, 12, |_| false);
    assert_eq!(leap_report, base_report);
    assert_engines_equal(&leap, &base);
    assert_eq!(
        leap.leap(1, &mut ()),
        None,
        "the fault stays armed after the run"
    );
}

/// Crash-stop behavioral pin: the victim freezes at the crash step, the
/// once-only `FaultCrash` notification fires at its first suppressed
/// activation, and the fault survives a save/restore excursion (it is
/// configuration, not execution state) but not a `reset`.
#[test]
fn crash_freezes_the_victim_and_notes_once() {
    let config = Configuration::from_gaps_at_origin(&[1, 2, 5]);
    let options = EngineOptions::for_protocol(&GreedyGapWalker).with_trace();
    let mut engine = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
    engine.arm_fault(FaultModel::Crash {
        robot: 0,
        after_step: 2,
    });

    let full = RobotSet::first(3);
    for _ in 0..2 {
        engine
            .step(&SchedulerStep::SsyncRound(full), &mut ())
            .unwrap();
    }
    let frozen_at = engine.positions()[0];
    let saved = engine.save_state();
    for _ in 0..6 {
        engine
            .step(&SchedulerStep::SsyncRound(full), &mut ())
            .unwrap();
    }
    assert_eq!(engine.positions()[0], frozen_at, "victim moved after crash");
    let crash_events: Vec<&Event> = engine
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, Event::FaultCrash { .. }))
        .collect();
    assert_eq!(crash_events.len(), 1, "crash must be noted exactly once");
    assert!(
        matches!(crash_events[0], Event::FaultCrash { robot: 0, step } if *step >= 2),
        "unexpected crash note: {:?}",
        crash_events[0]
    );

    // The fault model survives a state excursion (like the protocol and the
    // options do) …
    engine.restore_state(&saved);
    assert_eq!(
        engine.fault_model(),
        FaultModel::Crash {
            robot: 0,
            after_step: 2
        }
    );
    for _ in 0..4 {
        engine
            .step(&SchedulerStep::SsyncRound(full), &mut ())
            .unwrap();
    }
    assert_eq!(engine.positions()[0], frozen_at, "crash lost after restore");

    // … and is cleared by reset: a recycled engine starts fault-free.
    engine.reset(GreedyGapWalker, &config, options).unwrap();
    assert_eq!(engine.fault_model(), FaultModel::None);
}

/// Corruption behavioral pin: the corrupted Look is identified by its global
/// look ordinal, fires exactly once (trace event before the `Looked` event),
/// and all other Looks stay truthful.
#[test]
fn corrupt_look_fires_exactly_once_at_its_ordinal() {
    let config = Configuration::from_gaps_at_origin(&[1, 2, 5]);
    let options = EngineOptions::for_protocol(&GreedyGapWalker).with_trace();
    for kind in CorruptionKind::ALL {
        let mut engine = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
        engine.arm_fault(FaultModel::CorruptLook { look: 2, kind });
        let full = RobotSet::first(3);
        for _ in 0..4 {
            engine
                .step(&SchedulerStep::SsyncRound(full), &mut ())
                .unwrap();
        }
        assert!(engine.look_count() >= 3, "run too short to fire the fault");
        let events = engine.trace().events();
        let corruptions: Vec<usize> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| matches!(e, Event::FaultCorruption { .. }).then_some(i))
            .collect();
        assert_eq!(
            corruptions.len(),
            1,
            "{}: corruption must fire exactly once",
            kind.name()
        );
        let at = corruptions[0];
        // SSYNC rounds Look in robot order: global look ordinal 2 belongs to
        // robot 2 of the first round.
        assert!(
            matches!(events[at], Event::FaultCorruption { robot: 2, kind: k, .. } if k == kind),
            "{}: unexpected corruption event: {:?}",
            kind.name(),
            events[at]
        );
        assert!(
            matches!(events[at + 1], Event::Looked { robot: 2, .. }),
            "{}: corruption must precede its Looked event",
            kind.name()
        );
    }
}
