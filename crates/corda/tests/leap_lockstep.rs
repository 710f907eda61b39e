//! Property tests pinning `StepPath::Leap` ≡ `StepPath::StepBaseline`: over
//! arbitrary starting configurations and arbitrary activation scripts (bare
//! Looks, bare Executes, partial and full SSYNC rounds — including the
//! interleavings that create and collapse multiplicities mid-plan), the
//! leaping engine produces **byte-identical** `StepReport` streams, monitor
//! hooks, counters and final states.  The leap certificate is an optimisation
//! contract, never a semantic one: whenever it cannot reproduce stepping
//! exactly it must decline, and these tests are the enforcement.

use proptest::prelude::*;
use rr_corda::protocol::GreedyGapWalker;
use rr_corda::scheduler::FullySynchronousScheduler;
use rr_corda::{
    Decision, Engine, EngineOptions, FaultEvent, LeapRecord, Monitor, MoveRecord, RobotId,
    RobotSet, SchedulerStep, SimError, StepPath, StepReport, ViewOrder,
};
use rr_ring::Configuration;

include!("common/event_log.rs");

/// A random gap word for `k` robots (k inferred from the vector length) with
/// a positive total gap, so the ring is never full.
fn gap_word() -> impl Strategy<Value = Vec<usize>> {
    (2usize..6, 1usize..10).prop_flat_map(|(k, extra)| {
        proptest::collection::vec(0usize..4, k).prop_map(move |mut gaps| {
            gaps[k - 1] += extra;
            gaps
        })
    })
}

/// A random scheduler step for a system of `k` robots: an atomic cycle, a
/// bare Look, a bare Execute, a singleton SSYNC round, a two-robot round, or
/// the full synchronous round every certificate is sized for.
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

/// Applies `script` to `engine`, collecting every `StepReport` (and the
/// first error, which aborts the run exactly like a batch job would abort).
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

fn assert_engines_equal(leap: &Engine<GreedyGapWalker>, base: &Engine<GreedyGapWalker>) {
    assert_eq!(leap.configuration(), base.configuration());
    assert_eq!(leap.positions(), base.positions());
    assert_eq!(leap.robots(), base.robots());
    assert_eq!(leap.step_count(), base.step_count());
    assert_eq!(leap.move_count(), base.move_count());
    assert_eq!(leap.look_count(), base.look_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fast-round memo path: under arbitrary scripts (partial rounds,
    /// pending robots, multiplicity creation and collapse), a Leap engine and
    /// a StepBaseline engine emit the same reports, errors and monitor-hook
    /// bytes.
    #[test]
    fn leap_equals_baseline_over_arbitrary_scripts(
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
        let base_options = EngineOptions::for_protocol(&GreedyGapWalker).with_view_order(order);
        let mut leap = Engine::new(
            GreedyGapWalker,
            config.clone(),
            base_options.with_step_path(StepPath::Leap),
        )
        .unwrap();
        let mut base = Engine::new(
            GreedyGapWalker,
            config.clone(),
            base_options.with_step_path(StepPath::StepBaseline),
        )
        .unwrap();

        let k = config.num_robots();
        let (mut leap_log, mut base_log) = (EventLog::default(), EventLog::default());
        let (leap_reports, leap_err) = drive(&mut leap, &mut leap_log, k, &main);
        let (base_reports, base_err) = drive(&mut base, &mut base_log, k, &main);

        prop_assert_eq!(leap_reports, base_reports);
        prop_assert_eq!(leap_err, base_err);
        assert_engines_equal(&leap, &base);
        let a = serde_json::to_string(&leap_log.hooks).unwrap();
        let b = serde_json::to_string(&base_log.hooks).unwrap();
        prop_assert_eq!(leap_log, base_log);
        prop_assert_eq!(a, b);
    }

    /// The batched path: `Engine::leap(r)` for arbitrary `r` (including 0
    /// and 1) advances exactly like the reported number of fully synchronous
    /// rounds of ordinary stepping, and interleaves soundly with scripted
    /// stepping before and after the jump.
    #[test]
    fn batched_leap_equals_fsync_rounds(
        gaps in gap_word(),
        warmup_rounds in 0usize..4,
        r in 0u64..5,
        tail in script(),
    ) {
        let config = Configuration::from_gaps_at_origin(&gaps);
        let options = EngineOptions::for_protocol(&GreedyGapWalker);
        let mut leap = Engine::new(
            GreedyGapWalker,
            config.clone(),
            options.with_step_path(StepPath::Leap),
        )
        .unwrap();
        let mut base = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();

        let k = config.num_robots();
        let full = RobotSet::first(k);
        let mut aborted = false;
        for _ in 0..warmup_rounds {
            let a = leap.step(&SchedulerStep::SsyncRound(full), &mut ());
            let b = base.step(&SchedulerStep::SsyncRound(full), &mut ());
            prop_assert_eq!(&a, &b, "warmup rounds must agree");
            if a.is_err() {
                // e.g. an exclusivity violation: both engines must have
                // failed identically, and the case ends here.
                aborted = true;
                break;
            }
        }
        if aborted {
            assert_engines_equal(&leap, &base);
            return;
        }

        let jumped = leap.leap(r, &mut ()).unwrap_or(0);
        prop_assert!(jumped <= r, "a leap never overshoots its bound");
        if r == 0 {
            prop_assert_eq!(jumped, 0, "leap(0) must be a no-op");
        }
        for _ in 0..jumped {
            base.step(&SchedulerStep::SsyncRound(full), &mut ()).unwrap();
        }
        assert_engines_equal(&leap, &base);

        // The engines must still agree on everything after the jump.
        let (mut leap_log, mut base_log) = (EventLog::default(), EventLog::default());
        let (leap_reports, leap_err) = drive(&mut leap, &mut leap_log, k, &tail);
        let (base_reports, base_err) = drive(&mut base, &mut base_log, k, &tail);
        prop_assert_eq!(leap_reports, base_reports);
        prop_assert_eq!(leap_err, base_err);
        prop_assert_eq!(leap_log, base_log);
        assert_engines_equal(&leap, &base);
    }
}

/// Deterministic pin of the degenerate jump lengths: a lone walker's
/// certificate holds forever, `leap(0)` declines, `leap(1)` advances exactly
/// one round, and the fully synchronous driver loop reproduces stepping.
#[test]
fn leap_lengths_zero_and_one() {
    let config = Configuration::from_gaps_at_origin(&[7]);
    let options = EngineOptions::for_protocol(&GreedyGapWalker);
    let mut leap = Engine::new(
        GreedyGapWalker,
        config.clone(),
        options.with_step_path(StepPath::Leap),
    )
    .unwrap();
    let mut base = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();

    assert_eq!(leap.leap(0, &mut ()), None, "leap(0) is a no-op");
    assert_eq!(
        leap.leap(1, &mut ()),
        Some(1),
        "lone walker leaps one round"
    );
    base.step(&SchedulerStep::SsyncRound(RobotSet::single(0)), &mut ())
        .unwrap();
    assert_eq!(leap.positions(), base.positions());
    assert_eq!(leap.step_count(), base.step_count());
    assert_eq!(leap.look_count(), base.look_count());
    assert_eq!(leap.move_count(), base.move_count());

    // And the scheduler-driven entry point agrees with plain stepping.
    let report = leap.run_until(&mut FullySynchronousScheduler, 6, |_| false);
    assert!(report.steps > 0);
    for _ in 0..report.steps {
        base.step(&SchedulerStep::SsyncRound(RobotSet::single(0)), &mut ())
            .unwrap();
    }
    assert_eq!(leap.positions(), base.positions());
    assert_eq!(leap.step_count(), base.step_count());
}
