//! Property-based tests for the view / supermin / symmetry algebra of
//! Section 2 of the paper.

use proptest::prelude::*;
use rr_ring::{enumerate, supermin_intervals, supermin_view, symmetry, Configuration, Ring, View};

/// Reference for `View::min_rotation`: the minimum over every materialized
/// rotation.  The empty view has none and is its own minimum.
fn min_rotation_naive(w: &View) -> View {
    w.all_rotations()
        .into_iter()
        .min()
        .unwrap_or_else(|| w.clone())
}

/// Reference for `View::supermin`: the smaller of the two reading
/// directions' naive minimal rotations.
fn supermin_naive(w: &View) -> View {
    min_rotation_naive(w).min(min_rotation_naive(&w.opposite_direction()))
}

/// Words of 2–24 gaps: the sweeps read words of up to 21 gaps (E6's
/// (60, 21)), so the Booth, `supermin` and `is_symmetric` checks against the
/// naive scans cover every length the experiments meet.
fn gap_word() -> impl Strategy<Value = Vec<usize>> {
    (2usize..25, 1usize..12).prop_flat_map(|(k, extra)| {
        proptest::collection::vec(0usize..5, k).prop_map(move |mut gaps| {
            gaps[k - 1] += extra;
            gaps
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rotating a view and then rotating back is the identity; reflecting
    /// twice is the identity.
    #[test]
    fn rotation_and_reflection_are_involutive(gaps in gap_word(), i in 0usize..16) {
        let w = View::new(gaps);
        let k = w.len();
        let i = i % k;
        prop_assert_eq!(w.rotation(i).rotation((k - i) % k), w.clone());
        prop_assert_eq!(w.reflection().reflection(), w.clone());
        prop_assert_eq!(w.opposite_direction().opposite_direction(), w);
    }

    /// The supermin of a view is no larger than any rotation or reflection of
    /// the view, and is itself a rotation or reflection-rotation of it.
    #[test]
    fn supermin_is_a_minimum_and_a_member(gaps in gap_word()) {
        let w = View::new(gaps);
        let s = w.supermin();
        for i in 0..w.len() {
            prop_assert!(s <= w.rotation(i));
            prop_assert!(s <= w.reflection_rotation(i));
        }
        let mut members = w.all_rotations();
        members.extend(w.opposite_direction().all_rotations());
        prop_assert!(members.contains(&s));
    }

    /// The period of the cyclic word divides its length, and a word is
    /// periodic iff its period is a proper divisor.
    #[test]
    fn period_divides_length(gaps in gap_word()) {
        let w = View::new(gaps);
        let p = w.period();
        prop_assert_eq!(w.len() % p, 0);
        prop_assert_eq!(w.is_periodic(), p < w.len());
    }

    /// Booth's least-rotation `min_rotation`/`supermin` agree with the
    /// all-rotations reference implementations on random gap vectors.
    #[test]
    fn booth_matches_naive_min_rotation_and_supermin(gaps in gap_word()) {
        let w = View::new(gaps);
        prop_assert_eq!(w.min_rotation(), min_rotation_naive(&w));
        prop_assert_eq!(w.supermin(), supermin_naive(&w));
        prop_assert_eq!(w.opposite_direction().min_rotation(),
                        min_rotation_naive(&w.opposite_direction()));
        prop_assert_eq!(w.reflection().supermin(), supermin_naive(&w));
    }

    /// The KMP-based `period` and canonical-form `is_symmetric` agree with
    /// naive scans over all rotations (the seed implementations).
    #[test]
    fn fast_period_and_symmetry_match_naive_scans(gaps in gap_word()) {
        let w = View::new(gaps);
        let k = w.len();
        let naive_period = (1..=k)
            .find(|&p| k.is_multiple_of(p) && w.rotation(p) == w)
            .expect("the full length is always a period");
        prop_assert_eq!(w.period(), naive_period);
        let refl = w.reflection();
        let naive_symmetric = (0..k).any(|i| refl.rotation(i) == w);
        prop_assert_eq!(w.is_symmetric(), naive_symmetric);
    }

    /// `from_gaps` round-trips through `gap_sequence` up to rotation.
    #[test]
    fn gap_round_trip(gaps in gap_word(), start in 0usize..20) {
        let n: usize = gaps.iter().sum::<usize>() + gaps.len();
        let ring = Ring::new(n);
        let start = start % n;
        let config = Configuration::from_gaps(ring, start, &gaps).unwrap();
        let observed = View::new(config.gap_sequence());
        let expected = View::new(gaps);
        let is_rotation = (0..expected.len()).any(|i| expected.rotation(i) == observed);
        prop_assert!(is_rotation);
    }

    /// The number of supermin intervals obeys Lemma 1's coarse reading:
    /// a rigid configuration has exactly one supermin interval, and more than
    /// two supermin intervals implies periodicity.
    #[test]
    fn supermin_multiplicity_vs_lemma1(gaps in gap_word()) {
        let config = Configuration::from_gaps_at_origin(&gaps);
        let info = supermin_intervals(&config);
        let sym = symmetry::analyze(&config);
        if sym.is_rigid() {
            prop_assert_eq!(info.multiplicity(), 1);
        }
        if info.multiplicity() > 2 {
            prop_assert!(sym.periodic);
        }
        prop_assert!(symmetry::check_lemma1(&config).is_ok());
    }

    /// The canonical key is invariant under reflecting the whole configuration.
    #[test]
    fn canonical_key_reflection_invariant(gaps in gap_word()) {
        let config = Configuration::from_gaps_at_origin(&gaps);
        let n = config.n();
        let reflected_nodes: Vec<usize> =
            config.occupied_nodes().into_iter().map(|v| (n - v) % n).collect();
        let reflected = Configuration::new_exclusive(Ring::new(n), &reflected_nodes).unwrap();
        prop_assert_eq!(config.canonical_key(), reflected.canonical_key());
    }

    /// Enumeration invariant: every canonical sequence the enumerator returns
    /// is its own supermin and sums to n - k.
    #[test]
    fn enumeration_is_canonical(n in 5usize..12, k in 1usize..8) {
        prop_assume!(k < n);
        for gaps in enumerate::enumerate_gap_sequences(n, k) {
            let view = View::new(gaps.clone());
            prop_assert_eq!(view.supermin(), view.clone());
            prop_assert_eq!(view.total_gap(), n - k);
            prop_assert_eq!(view.len(), k);
        }
    }

    /// The supermin view of a configuration equals the supermin computed from
    /// any robot's snapshot-style view.
    #[test]
    fn supermin_view_matches_per_robot_supermins(gaps in gap_word()) {
        let config = Configuration::from_gaps_at_origin(&gaps);
        let s = supermin_view(&config);
        for (_, _, view) in config.all_views() {
            prop_assert_eq!(view.supermin(), s.clone());
        }
    }
}
