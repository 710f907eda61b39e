//! Property-based equivalence of the incremental occupancy index against
//! from-scratch recomputation.
//!
//! `Configuration` maintains its occupied-node cycle, gap structure and
//! aggregate counters incrementally (O(1) per move).  These tests drive
//! arbitrary move sequences — including multiplicity creation and collapse —
//! against a *shadow* count vector, rebuild a fresh configuration from the
//! shadow after every step, and require the incrementally maintained one to
//! agree on every observable: occupied nodes, gap sequence, counters, and
//! `view_from_into` ≡ `view_from` ≡ `view_from_scan` for every occupied node
//! and direction.  (In debug builds the configuration additionally
//! cross-checks its own index after each mutation.)

use proptest::prelude::*;
use rr_ring::config::ConfigError;
use rr_ring::{Configuration, Direction, NodeId, Ring, View};

include!("common/view_scan.rs");

/// Degenerate-occupancy contracts: a single occupied node is its own cw/ccw
/// successor, its occupancy cycle is the one-element cycle, and its gap
/// sequence is the whole ring minus the node itself.  These hold whether the
/// node carries one robot or a tower, and regardless of where the node
/// sits.
#[test]
fn single_occupied_node_contracts() {
    for n in [3usize, 5, 9] {
        for node in [0usize, 1, n - 1] {
            for tower in [1u32, 4] {
                let mut counts = vec![0u32; n];
                counts[node] = tower;
                let c = Configuration::from_counts(Ring::new(n), counts).unwrap();
                assert_eq!(c.num_occupied(), 1);
                assert_eq!(c.occupied_anchor(), node);
                assert_eq!(c.gap_sequence(), vec![n - 1]);
                assert!(c.is_gathered());
                for dir in Direction::BOTH {
                    assert_eq!(c.occupied_after(node, dir), node, "self-successor");
                    let cycle: Vec<_> = c.occupied_cycle(node, dir).collect();
                    assert_eq!(cycle, vec![node], "one-element cycle");
                }
            }
        }
    }
}

/// An empty occupancy (k = 0) is unrepresentable: construction fails, so no
/// consumer of the occupancy index ever has to handle a zero-length cycle.
#[test]
fn empty_occupancy_is_rejected_at_construction() {
    assert_eq!(
        Configuration::from_counts(Ring::new(7), vec![0; 7]).unwrap_err(),
        ConfigError::Empty
    );
    assert_eq!(
        Configuration::from_gaps(Ring::new(7), 0, &[]).unwrap_err(),
        ConfigError::Empty
    );
}

/// A random instance: ring size, per-node robot counts (at least one robot),
/// and a script of (occupied-node selector, direction bit) moves.
fn instance() -> impl Strategy<Value = (usize, Vec<u32>, Vec<(usize, u8)>)> {
    (3usize..14)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0u32..3, n),
                proptest::collection::vec((0usize..64, 0u8..2), 0..40),
            )
        })
        .prop_map(|(n, mut counts, moves)| {
            if counts.iter().all(|&c| c == 0) {
                counts[n / 2] = 2; // guarantee at least one robot
            }
            (n, counts, moves)
        })
}

/// Everything the incremental index is supposed to keep equal to a rebuild.
fn assert_matches_fresh(c: &Configuration, counts: &[u32]) {
    let fresh = Configuration::from_counts(c.ring(), counts.to_vec()).unwrap();
    assert_eq!(c, &fresh, "counts drifted");
    assert_eq!(c.occupied_nodes(), fresh.occupied_nodes());
    assert_eq!(c.gap_sequence(), fresh.gap_sequence());
    assert_eq!(c.num_robots(), fresh.num_robots());
    assert_eq!(c.num_occupied(), fresh.num_occupied());
    assert_eq!(c.is_exclusive(), fresh.is_exclusive());
    assert_eq!(c.is_gathered(), fresh.is_gathered());
    let mut reused = View::new(Vec::new());
    for v in c.occupied_nodes() {
        for dir in Direction::BOTH {
            let scan = view_from_scan(c, v, dir);
            assert_eq!(c.view_from(v, dir), scan, "view_from at v={v}");
            c.view_from_into(v, dir, &mut reused);
            assert_eq!(reused, scan, "view_from_into at v={v}");
            assert_eq!(fresh.view_from(v, dir), scan, "fresh view at v={v}");
            // The occupancy cycle visits the occupied nodes in view order.
            let cycle: Vec<_> = c.occupied_cycle(v, dir).collect();
            assert_eq!(cycle.len(), c.num_occupied());
            assert_eq!(cycle[0], v);
            for pair in cycle.windows(2) {
                assert_eq!(c.occupied_after(pair[0], dir), pair[1]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every move of an arbitrary script (merges, splits, wraparounds,
    /// towers), the incremental structure equals a from-scratch rebuild.
    #[test]
    fn incremental_equals_scratch_after_arbitrary_moves(case in instance()) {
        let (n, counts, moves) = case;
        let ring = Ring::new(n);
        let mut shadow = counts.clone();
        let mut c = Configuration::from_counts(ring, counts).unwrap();
        assert_matches_fresh(&c, &shadow);
        for (pick, cw) in moves {
            let occ = c.occupied_nodes();
            let from = occ[pick % occ.len()];
            let dir = if cw == 1 { Direction::Cw } else { Direction::Ccw };
            let to = c.move_robot_dir(from, dir).unwrap();
            shadow[from] -= 1;
            shadow[to] += 1;
            assert_matches_fresh(&c, &shadow);
        }
    }

    /// `view_from_into` into a dirty, undersized or oversized buffer always
    /// produces exactly `view_from`'s gaps.
    #[test]
    fn view_from_into_reuses_any_buffer(
        case in instance(),
        junk in proptest::collection::vec(0usize..1000, 0..20)
    ) {
        let (n, counts, _) = case;
        let c = Configuration::from_counts(Ring::new(n), counts).unwrap();
        let mut buffer = View::new(junk);
        for v in c.occupied_nodes() {
            for dir in Direction::BOTH {
                c.view_from_into(v, dir, &mut buffer);
                prop_assert_eq!(&buffer, &c.view_from(v, dir));
            }
        }
    }
}
