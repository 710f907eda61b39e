//! Lockstep property tests for the fault-injection layer.
//!
//! The contract that makes faults safe to thread through the engine's hot
//! paths: an engine with [`FaultModel::None`] armed is **byte-identical** to
//! an engine that never heard of faults — same `StepReport` streams, same
//! errors, same counters, same monitor hooks, same `rr-sweep/v1` JSON bytes.
//! These tests drive arbitrary configurations through arbitrary activation
//! scripts and add the deterministic fault pins: a corrupted Look fires
//! exactly once, the run loop agrees with stepping by hand across it, and the
//! armed fault survives a state excursion and is cleared by a reset.

use proptest::prelude::*;
use rr_corda::protocol::GreedyGapWalker;
use rr_corda::scheduler::FullySynchronousScheduler;
use rr_corda::{
    CorruptionKind, Decision, Engine, EngineOptions, FaultEvent, FaultModel, Monitor, MoveRecord,
    RobotId, RobotSet, SchedulerStep, SimError, StepReport, ViewOrder,
};
use rr_ring::Configuration;

include!("common/event_log.rs");

/// A random gap word for `k` robots with a positive total gap, so the ring
/// is never full.
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
    log: &mut EventLog,
    k: usize,
    script: &[(u8, usize, usize)],
) -> (Vec<StepReport>, Option<SimError>) {
    let mut reports = Vec::new();
    for &(kind, a, b) in script {
        match engine.step(&step_for(k, kind, a, b), log) {
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

    /// `FaultModel::None` is a perfect no-op.  Over arbitrary starts and
    /// scripts, an engine that armed (and re-armed) `None` produces
    /// byte-identical reports, errors, counters, monitor hooks and
    /// serialized JSON to an engine the fault API never touched.
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
        let options = EngineOptions::for_protocol(&GreedyGapWalker).with_view_order(order);
        let mut armed = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
        armed.arm_fault(FaultModel::None);
        let mut plain = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
        let (mut armed_log, mut plain_log) = (EventLog::default(), EventLog::default());

        let k = config.num_robots();
        // Re-arm None mid-run too: arming must not perturb execution state.
        let (head, tail) = main.split_at(main.len() / 2);
        let (armed_head, armed_err_head) = drive(&mut armed, &mut armed_log, k, head);
        armed.arm_fault(FaultModel::None);
        let (plain_head, plain_err_head) = drive(&mut plain, &mut plain_log, k, head);
        prop_assert_eq!(armed_head, plain_head);
        prop_assert_eq!(&armed_err_head, &plain_err_head);
        if armed_err_head.is_none() {
            let (armed_tail, armed_err) = drive(&mut armed, &mut armed_log, k, tail);
            let (plain_tail, plain_err) = drive(&mut plain, &mut plain_log, k, tail);
            prop_assert_eq!(armed_tail, plain_tail);
            prop_assert_eq!(armed_err, plain_err);
        }
        assert_engines_equal(&armed, &plain);
        let a = serde_json::to_string(&armed_log.hooks).unwrap();
        let b = serde_json::to_string(&plain_log.hooks).unwrap();
        prop_assert_eq!(armed_log, plain_log);
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
        let options = EngineOptions::for_protocol(&GreedyGapWalker);
        let mut armed = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
        armed.arm_fault(FaultModel::CorruptLook {
            look: u64::MAX,
            kind: CorruptionKind::ALL[kind_sel],
        });
        let mut plain = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
        let (mut armed_log, mut plain_log) = (EventLog::default(), EventLog::default());

        let k = config.num_robots();
        let (armed_reports, armed_err) = drive(&mut armed, &mut armed_log, k, &main);
        let (plain_reports, plain_err) = drive(&mut plain, &mut plain_log, k, &main);
        prop_assert_eq!(armed_reports, plain_reports);
        prop_assert_eq!(armed_err, plain_err);
        assert_engines_equal(&armed, &plain);
        prop_assert_eq!(armed_log, plain_log);
    }
}

/// The scheduler-driven run loop over a scheduled corruption agrees with
/// stepping the same rounds by hand, the fault's one `on_fault` hook
/// included.  The fault is configuration, not execution state: it stays
/// armed after it fired, survives a save/restore excursion and is cleared by
/// a reset.
#[test]
fn an_armed_fault_fires_once_in_a_run_and_stays_armed_until_reset() {
    let config = Configuration::from_gaps_at_origin(&[1, 2, 5]);
    let options = EngineOptions::for_protocol(&GreedyGapWalker);
    let fault = FaultModel::CorruptLook {
        look: 4,
        kind: CorruptionKind::PhantomMultiplicity,
    };

    let mut run = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
    run.arm_fault(fault);
    let mut run_log = EventLog::default();
    let report = run.run(&mut FullySynchronousScheduler, &mut run_log, 12, |_, _| {
        false
    });
    assert_eq!(report.steps, 12);

    let mut stepped = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
    stepped.arm_fault(fault);
    let mut stepped_log = EventLog::default();
    let full = RobotSet::first(config.num_robots());
    let mut moves = 0;
    for _ in 0..12 {
        moves += stepped
            .step(&SchedulerStep::SsyncRound(full), &mut stepped_log)
            .unwrap()
            .moves
            .len() as u64;
    }
    assert_eq!(report.moves, moves);
    assert_engines_equal(&run, &stepped);
    assert_eq!(run_log, stepped_log);
    let faults = run_log
        .hooks
        .iter()
        .filter(|hook| matches!(hook, Hook::Fault(_)))
        .count();
    assert_eq!(faults, 1, "the scheduled corruption fired once");

    assert_eq!(
        run.fault_model(),
        fault,
        "the fault stays armed after the run"
    );
    let saved = run.save_state();
    run.step(&SchedulerStep::SsyncRound(full), &mut ()).unwrap();
    run.restore_state(&saved);
    assert_eq!(run.fault_model(), fault, "an excursion keeps the fault");
    run.reset(GreedyGapWalker, &config, options).unwrap();
    assert_eq!(run.fault_model(), FaultModel::None, "reset disarms");
}

/// Corruption behavioral pin: the corrupted Look is identified by its global
/// look ordinal, fires exactly once (its `on_fault` hook immediately before
/// that robot's `on_look`), and all other Looks stay truthful.
#[test]
fn corrupt_look_fires_exactly_once_at_its_ordinal() {
    let config = Configuration::from_gaps_at_origin(&[1, 2, 5]);
    let options = EngineOptions::for_protocol(&GreedyGapWalker);
    for kind in CorruptionKind::ALL {
        let mut engine = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
        engine.arm_fault(FaultModel::CorruptLook { look: 2, kind });
        let mut log = EventLog::default();
        let full = RobotSet::first(3);
        for _ in 0..4 {
            engine
                .step(&SchedulerStep::SsyncRound(full), &mut log)
                .unwrap();
        }
        assert!(engine.look_count() >= 3, "run too short to fire the fault");
        let events = &log.hooks;
        let corruptions: Vec<usize> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| matches!(e, Hook::Fault(_)).then_some(i))
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
            matches!(events[at], Hook::Fault(FaultEvent::CorruptedLook { robot: 2, kind: k, .. }) if k == kind),
            "{}: unexpected corruption event: {:?}",
            kind.name(),
            events[at]
        );
        assert!(
            matches!(events[at + 1], Hook::Look { robot: 2, .. }),
            "{}: corruption must immediately precede its Look",
            kind.name()
        );
    }
}
