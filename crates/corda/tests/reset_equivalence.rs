//! Property test pinning `Engine::reset` ≡ fresh `Engine::new`: over random
//! step sequences, the recycled engine produces **byte-identical** monitor
//! hooks and `StepReport` streams (and identical errors, positions, and counters) to a
//! freshly constructed engine.  The batch workers (`BatchRunner`) and every
//! sweep built on them rely on exactly this equivalence.

use proptest::prelude::*;
use rr_corda::protocol::GreedyGapWalker;
use rr_corda::{
    Decision, Engine, EngineOptions, FaultEvent, Monitor, MoveRecord, RobotId, RobotSet,
    SchedulerStep, SimError, StepReport,
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
/// bare Look, a bare Execute, or a small SSYNC round.
fn step_for(k: usize, kind: u8, a: usize, b: usize) -> SchedulerStep {
    let (a, b) = (a % k, b % k);
    match kind % 4 {
        0 => SchedulerStep::Look(a),
        1 => SchedulerStep::Execute(a),
        2 => SchedulerStep::SsyncRound(RobotSet::single(a)),
        _ => SchedulerStep::SsyncRound([a, b].into_iter().collect()),
    }
}

fn script() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    proptest::collection::vec((0u8..4, 0usize..8, 0usize..8), 1..40)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A recycled engine (run on one instance, then `reset` onto another) is
    /// indistinguishable from a fresh engine on the second instance: same
    /// `StepReport` stream, same monitor-hook bytes, same final state.
    #[test]
    fn reset_engine_equals_fresh_engine(
        first in gap_word(),
        second in gap_word(),
        warmup in script(),
        main in script(),
    ) {
        let first = Configuration::from_gaps_at_origin(&first);
        let second = Configuration::from_gaps_at_origin(&second);
        let options = EngineOptions::for_protocol(&GreedyGapWalker);

        // Recycled: run the warmup script on the first instance, then reset.
        let mut recycled = Engine::new(GreedyGapWalker, first.clone(), options).unwrap();
        let _ = drive(&mut recycled, &mut EventLog::default(), first.num_robots(), &warmup);
        recycled.reset(GreedyGapWalker, &second, options).unwrap();

        let mut fresh = Engine::new(GreedyGapWalker, second.clone(), options).unwrap();

        let k = second.num_robots();
        let (mut recycled_log, mut fresh_log) = (EventLog::default(), EventLog::default());
        let (recycled_reports, recycled_err) = drive(&mut recycled, &mut recycled_log, k, &main);
        let (fresh_reports, fresh_err) = drive(&mut fresh, &mut fresh_log, k, &main);

        prop_assert_eq!(recycled_reports, fresh_reports);
        prop_assert_eq!(recycled_err, fresh_err);
        prop_assert_eq!(recycled.configuration(), fresh.configuration());
        prop_assert_eq!(recycled.positions(), fresh.positions());
        prop_assert_eq!(recycled.robots(), fresh.robots());
        prop_assert_eq!(recycled.step_count(), fresh.step_count());
        prop_assert_eq!(recycled.move_count(), fresh.move_count());
        prop_assert_eq!(recycled.look_count(), fresh.look_count());
        // Byte-identical monitor hooks (serialized through the same serde
        // path the sweep records use).
        let a = serde_json::to_string(&recycled_log.hooks).unwrap();
        let b = serde_json::to_string(&fresh_log.hooks).unwrap();
        prop_assert_eq!(recycled_log, fresh_log);
        prop_assert_eq!(a, b);
    }

    /// Resetting onto the *same* instance replays the identical run, even
    /// after an aborted (error) run.
    #[test]
    fn reset_is_idempotent_on_the_same_instance(
        gaps in gap_word(),
        main in script(),
    ) {
        let config = Configuration::from_gaps_at_origin(&gaps);
        let options = EngineOptions::for_protocol(&GreedyGapWalker);
        let mut engine = Engine::new(GreedyGapWalker, config.clone(), options).unwrap();
        let k = config.num_robots();

        let (mut first_log, mut second_log) = (EventLog::default(), EventLog::default());
        let first = drive(&mut engine, &mut first_log, k, &main);
        engine.reset(GreedyGapWalker, &config, options).unwrap();
        let second = drive(&mut engine, &mut second_log, k, &main);
        prop_assert_eq!(first, second);
        prop_assert_eq!(first_log, second_log);
    }
}
