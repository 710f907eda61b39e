//! The ring topology itself: neighbourhood, distances and edges.

use serde::{Deserialize, Serialize};

use crate::node::{Direction, EdgeId, NodeId};

/// An anonymous, unoriented ring (cycle graph) on `n >= 3` nodes.
///
/// The `Ring` only knows about topology; robot placement lives in
/// [`crate::Configuration`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ring {
    n: usize,
}

impl Ring {
    /// Creates a ring with `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (the paper always assumes `n >= 3`; a "ring" on fewer
    /// nodes is degenerate).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 nodes, got {n}");
        Ring { n }
    }

    /// Number of nodes (= number of edges) of the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// A ring is never empty; provided for clippy-friendliness alongside
    /// [`Ring::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterator over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n
    }

    /// Iterator over all edge identifiers.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        0..self.n
    }

    /// The neighbour of `v` in direction `dir`.
    #[must_use]
    pub fn neighbor(&self, v: NodeId, dir: Direction) -> NodeId {
        debug_assert!(v < self.n);
        match dir {
            Direction::Cw if v + 1 == self.n => 0,
            Direction::Cw => v + 1,
            Direction::Ccw if v == 0 => self.n - 1,
            Direction::Ccw => v - 1,
        }
    }

    /// Both neighbours of `v`, ordered `[cw, ccw]`.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> [NodeId; 2] {
        [
            self.neighbor(v, Direction::Cw),
            self.neighbor(v, Direction::Ccw),
        ]
    }

    /// The node reached from `v` after `steps` hops in direction `dir`.
    #[must_use]
    pub fn walk(&self, v: NodeId, dir: Direction, steps: usize) -> NodeId {
        debug_assert!(v < self.n);
        let steps = steps % self.n;
        match dir {
            Direction::Cw => (v + steps) % self.n,
            Direction::Ccw => (v + self.n - steps) % self.n,
        }
    }

    /// Number of hops from `a` to `b` walking clockwise.
    #[must_use]
    pub fn distance_cw(&self, a: NodeId, b: NodeId) -> usize {
        debug_assert!(a < self.n && b < self.n);
        if b >= a {
            b - a
        } else {
            b + self.n - a
        }
    }

    /// Graph distance (length of the shortest of the two arcs) between `a` and `b`.
    #[must_use]
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let d = self.distance_cw(a, b);
        d.min(self.n - d)
    }

    /// Whether `a` and `b` are adjacent.
    #[must_use]
    pub fn adjacent(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.distance(a, b) == 1
    }

    /// Whether `a` and `b` are *diametral* in the sense of Theorem 2 of the
    /// paper: for even `n` there are two shortest paths between them, for odd
    /// `n` the two arc lengths differ by exactly one.
    #[must_use]
    pub fn diametral(&self, a: NodeId, b: NodeId) -> bool {
        let d = self.distance_cw(a, b);
        let other = self.n - d;
        if self.n.is_multiple_of(2) {
            d == other
        } else {
            d.abs_diff(other) == 1
        }
    }

    /// The edge between two adjacent nodes.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not adjacent.
    #[must_use]
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> EdgeId {
        assert!(
            self.adjacent(a, b),
            "nodes {a} and {b} are not adjacent in a ring of {} nodes",
            self.n
        );
        if (a + 1) % self.n == b {
            a
        } else {
            b
        }
    }

    /// The two endpoints of edge `e`, ordered `(e, (e + 1) % n)`.
    #[must_use]
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        debug_assert!(e < self.n);
        (e, (e + 1) % self.n)
    }

    /// The two edges incident to node `v`, ordered `[ccw-side edge, cw-side edge]`,
    /// i.e. `[edge(v-1, v), edge(v, v+1)]`.
    #[must_use]
    pub fn incident_edges(&self, v: NodeId) -> [EdgeId; 2] {
        debug_assert!(v < self.n);
        [(v + self.n - 1) % self.n, v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least 3 nodes")]
    fn rejects_tiny_rings() {
        let _ = Ring::new(2);
    }

    #[test]
    fn neighbors_wrap_around() {
        let r = Ring::new(5);
        assert_eq!(r.neighbor(4, Direction::Cw), 0);
        assert_eq!(r.neighbor(0, Direction::Ccw), 4);
        assert_eq!(r.neighbors(0), [1, 4]);
    }

    #[test]
    fn neighbor_and_distance_cw_equal_the_modular_formulas() {
        // Built without `Ring::new`, so the degenerate sizes 1 and 2 check
        // the wrap arithmetic too.
        for n in 1..=64 {
            let r = Ring { n };
            for v in 0..n {
                assert_eq!(r.neighbor(v, Direction::Cw), (v + 1) % n, "n={n} v={v}");
                assert_eq!(
                    r.neighbor(v, Direction::Ccw),
                    (v + n - 1) % n,
                    "n={n} v={v}"
                );
                for b in 0..n {
                    assert_eq!(r.distance_cw(v, b), (b + n - v) % n, "n={n} {v}->{b}");
                }
            }
        }
    }

    #[test]
    fn walk_matches_repeated_neighbor() {
        let r = Ring::new(7);
        for v in r.nodes() {
            for dir in Direction::BOTH {
                let mut cur = v;
                for steps in 0..15 {
                    assert_eq!(r.walk(v, dir, steps), cur);
                    cur = r.neighbor(cur, dir);
                }
            }
        }
    }

    #[test]
    fn distances_are_symmetric_and_bounded() {
        let r = Ring::new(9);
        for a in r.nodes() {
            for b in r.nodes() {
                assert_eq!(r.distance(a, b), r.distance(b, a));
                assert!(r.distance(a, b) <= 4);
                assert!(r.distance_cw(a, b) + r.distance_cw(b, a) == 9 || a == b);
            }
        }
    }

    #[test]
    fn adjacency_and_edges() {
        let r = Ring::new(6);
        assert!(r.adjacent(0, 1));
        assert!(r.adjacent(5, 0));
        assert!(!r.adjacent(0, 2));
        assert!(!r.adjacent(3, 3));
        assert_eq!(r.edge_between(0, 1), 0);
        assert_eq!(r.edge_between(1, 0), 0);
        assert_eq!(r.edge_between(5, 0), 5);
        assert_eq!(r.edge_endpoints(5), (5, 0));
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn edge_between_rejects_non_adjacent() {
        let r = Ring::new(6);
        let _ = r.edge_between(0, 3);
    }

    #[test]
    fn incident_edges_cover_all_edges_twice() {
        let r = Ring::new(8);
        let mut count = [0usize; 8];
        for v in r.nodes() {
            for e in r.incident_edges(v) {
                count[e] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 2));
    }

    #[test]
    fn diametral_even_and_odd() {
        let even = Ring::new(8);
        assert!(even.diametral(0, 4));
        assert!(!even.diametral(0, 3));
        let odd = Ring::new(9);
        assert!(odd.diametral(0, 4));
        assert!(odd.diametral(0, 5));
        assert!(!odd.diametral(0, 3));
    }

    #[test]
    fn diametral_is_symmetric() {
        for n in [5usize, 6, 9, 12] {
            let r = Ring::new(n);
            for a in r.nodes() {
                for b in r.nodes() {
                    assert_eq!(r.diametral(a, b), r.diametral(b, a), "n={n} a={a} b={b}");
                }
            }
        }
    }
}
