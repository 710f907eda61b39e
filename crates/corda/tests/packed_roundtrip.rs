//! Property tests pinning the packed-state codec: over random engine
//! histories, `pack`/`restore_packed` round-trips are **byte-identical** to
//! `save_state`/`restore_state` — the saved state, the restored engine's
//! next save, and their serialized JSON bytes all coincide — and the two
//! pack entry points (`EngineState::pack`, `Engine::pack_state`) agree bit
//! for bit.  The behavioural projection (`Engine::pack_behavior`) and the
//! state signatures are pinned against their reference definitions
//! (`exact_key`, `canonical_key`, in `common/reference_keys.rs`) on the
//! same histories.

use proptest::prelude::*;
use rr_corda::protocol::GreedyGapWalker;
use rr_corda::robot::Phase;
use rr_corda::{Engine, EngineOptions, EngineState, RobotSet, SchedulerStep};
use rr_ring::{Configuration, Direction, View};

include!("common/reference_keys.rs");

/// A random gap word for `k` robots with a positive total gap.
fn gap_word() -> impl Strategy<Value = Vec<usize>> {
    (2usize..6, 1usize..10).prop_flat_map(|(k, extra)| {
        proptest::collection::vec(0usize..4, k).prop_map(move |mut gaps| {
            gaps[k - 1] += extra;
            gaps
        })
    })
}

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
    proptest::collection::vec((0u8..4, 0usize..8, 0usize..8), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every prefix of a random history, packing and restoring
    /// reproduces the engine state byte for byte.
    #[test]
    fn pack_restore_is_byte_identical_to_save_restore(
        gaps in gap_word(),
        steps in script(),
    ) {
        let initial = Configuration::from_gaps_at_origin(&gaps);
        let options = EngineOptions {
            enforce_exclusivity: false,
            ..EngineOptions::default()
        };
        let mut engine = Engine::new(GreedyGapWalker, initial.clone(), options).unwrap();
        let k = engine.num_robots();
        let mut scratch = Engine::new(GreedyGapWalker, initial, options).unwrap();
        for &(kind, a, b) in &steps {
            // Advance (ignoring rejected steps — the history stays random).
            let _ = engine.step(&step_for(k, kind, a, b), &mut ());

            let saved = engine.save_state();
            let packed = saved.pack();
            prop_assert_eq!(&packed, &engine.pack_state(), "pack entry points disagree");

            // Codec path: restore the packed bits into a second engine.
            scratch.restore_packed(&packed);
            let unpacked = scratch.save_state();
            prop_assert_eq!(&unpacked, &saved, "packed round trip drifted");
            prop_assert_eq!(
                serde_json::to_string(&unpacked).unwrap(),
                serde_json::to_string(&saved).unwrap(),
                "serialized bytes differ"
            );

            // Clone path for reference: restore_state must agree with
            // restore_packed on every observable.
            scratch.restore_state(&saved);
            prop_assert_eq!(&scratch.save_state(), &saved);
            prop_assert_eq!(scratch.positions(), engine.positions());
        }
    }

    /// The delta codec round-trips: for every state along a random history,
    /// `apply_delta(base, state.delta_from(&base)) == state` against every
    /// earlier state as the cluster base — exactly how the spill store's
    /// cluster compression uses it.
    #[test]
    fn delta_codec_round_trips_over_move_scripts(
        gaps in gap_word(),
        steps in script(),
    ) {
        let initial = Configuration::from_gaps_at_origin(&gaps);
        let options = EngineOptions {
            enforce_exclusivity: false,
            ..EngineOptions::default()
        };
        let mut engine = Engine::new(GreedyGapWalker, initial, options).unwrap();
        let k = engine.num_robots();
        let mut history = vec![engine.pack_state()];
        for &(kind, a, b) in &steps {
            let _ = engine.step(&step_for(k, kind, a, b), &mut ());
            history.push(engine.pack_state());
        }
        let base = &history[0];
        for state in &history {
            let delta = state.delta_from(base);
            prop_assert_eq!(
                &rr_corda::PackedState::apply_delta(base, &delta),
                state,
                "delta round trip drifted"
            );
            // A state deltas against itself to the empty entry list.
            let self_delta = state.delta_from(state);
            prop_assert_eq!(
                &rr_corda::PackedState::apply_delta(state, &self_delta),
                state
            );
        }
    }

    /// The packed signatures agree with their reference definitions: equal
    /// `behavior_sig` ⇔ equal `exact_key`, and equal `canonical_sig` ⇔ equal
    /// `canonical_key` — across states drawn from two random histories of
    /// the same instance.  The behavioural projection `pack_behavior` keys
    /// the same behaviour class as the full pack.
    #[test]
    fn signatures_match_their_reference_keys(
        gaps in gap_word(),
        first in script(),
        second in script(),
    ) {
        let initial = Configuration::from_gaps_at_origin(&gaps);
        let options = EngineOptions {
            enforce_exclusivity: false,
            ..EngineOptions::default()
        };
        let mut a = Engine::new(GreedyGapWalker, initial.clone(), options).unwrap();
        let mut b = Engine::new(GreedyGapWalker, initial, options).unwrap();
        let k = a.num_robots();
        for &(kind, x, y) in &first {
            let _ = a.step(&step_for(k, kind, x, y), &mut ());
        }
        for &(kind, x, y) in &second {
            let _ = b.step(&step_for(k, kind, x, y), &mut ());
        }
        let (sa, sb) = (a.save_state(), b.save_state());
        prop_assert_eq!(
            exact_key(&sa) == exact_key(&sb),
            a.behavior_sig() == b.behavior_sig()
        );
        prop_assert_eq!(
            canonical_key(&sa) == canonical_key(&sb),
            a.canonical_sig() == b.canonical_sig()
        );
        // Live-engine and packed-state signature entry points agree.
        prop_assert_eq!(a.behavior_sig(), sa.pack().behavior_sig());
        prop_assert_eq!(a.canonical_sig(), sa.pack().canonical_sig());
        // The behavioural projection drops exactly the counters.
        let projected = a.pack_behavior();
        prop_assert_eq!(projected.behavior_sig(), a.behavior_sig());
        let mut scratch = a.clone();
        scratch.restore_packed(&projected);
        prop_assert_eq!(exact_key(&scratch.save_state()), exact_key(&sa));
        prop_assert_eq!(scratch.step_count(), 0, "projection zeroes the counters");
        prop_assert_eq!(scratch.configuration(), a.configuration());
    }
}
