//! Configurations of robots on the ring.
//!
//! Following the paper, a *configuration* is the set of occupied nodes; it
//! does not record how many robots stand on each node.  Because the gathering
//! task (Section 5) creates multiplicities, [`Configuration`] additionally
//! tracks per-node robot counts, but all view / symmetry computations operate
//! on the occupied-node set only, exactly as in the paper.

use serde::{Deserialize, Serialize};

use crate::node::{Direction, NodeId};
use crate::ring::Ring;
use crate::view::View;

/// Errors raised by configuration constructors and mutations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigError {
    /// A node index was out of range.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The ring size.
        n: usize,
    },
    /// A robot was placed twice in an exclusive constructor.
    DuplicateNode {
        /// The node occupied twice.
        node: NodeId,
    },
    /// The configuration would contain no robot at all.
    Empty,
    /// A move was requested from an unoccupied node.
    SourceNotOccupied {
        /// The empty source node.
        node: NodeId,
    },
    /// A move was requested between two non-adjacent nodes.
    NotAdjacent {
        /// Source node.
        from: NodeId,
        /// Target node.
        to: NodeId,
    },
    /// The gap sequence handed to [`Configuration::from_gaps`] does not fit the ring.
    GapMismatch {
        /// Sum of gaps plus number of robots.
        implied_n: usize,
        /// Actual ring size.
        n: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for a ring of {n} nodes")
            }
            ConfigError::DuplicateNode { node } => {
                write!(
                    f,
                    "node {node} occupied twice in an exclusive configuration"
                )
            }
            ConfigError::Empty => write!(f, "a configuration must contain at least one robot"),
            ConfigError::SourceNotOccupied { node } => {
                write!(f, "no robot occupies node {node}")
            }
            ConfigError::NotAdjacent { from, to } => {
                write!(f, "nodes {from} and {to} are not adjacent")
            }
            ConfigError::GapMismatch { implied_n, n } => write!(
                f,
                "gap sequence implies a ring of {implied_n} nodes but the ring has {n}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A placement of robots on the nodes of a [`Ring`].
///
/// Next to the per-node robot counts, a `Configuration` maintains an
/// **incremental occupancy index** — the cyclic doubly-linked list of
/// occupied nodes (equivalently, the inter-robot gap ring the paper's
/// unified algorithm reasons over) plus O(1) aggregate counters — updated in
/// O(1) by [`Configuration::move_robot`].  The index is what makes the Look
/// phase O(k) ([`Configuration::view_from_into`]) instead of an O(n) walk
/// around the ring; it is derived state, excluded from equality, hashing and
/// serialization, and cross-checked against a from-scratch scan in debug
/// builds after every mutation.
#[derive(Debug, Serialize, Deserialize)]
pub struct Configuration {
    ring: Ring,
    counts: Vec<u32>,
    /// Next occupied node clockwise of an occupied node (undefined at empty
    /// nodes; self-loop when only one node is occupied).
    #[serde(skip)]
    next_occ: Vec<u32>,
    /// Next occupied node counter-clockwise of an occupied node.
    #[serde(skip)]
    prev_occ: Vec<u32>,
    /// An arbitrary but deterministically maintained occupied node: the
    /// entry point into the linked list.
    #[serde(skip)]
    anchor: u32,
    /// Number of occupied nodes (`k` of the paper's gap sequences).
    #[serde(skip)]
    occupied: u32,
    /// Total robots, counting multiplicities.
    #[serde(skip)]
    robots: u64,
    /// Number of nodes hosting more than one robot.
    #[serde(skip)]
    multis: u32,
    /// Reusable scratch for [`Configuration::assign_positions`] (distinct
    /// occupied nodes of the incoming placement).
    #[serde(skip)]
    scratch_nodes: Vec<u32>,
}

impl Clone for Configuration {
    fn clone(&self) -> Self {
        Configuration {
            ring: self.ring,
            counts: self.counts.clone(),
            next_occ: self.next_occ.clone(),
            prev_occ: self.prev_occ.clone(),
            anchor: self.anchor,
            occupied: self.occupied,
            robots: self.robots,
            multis: self.multis,
            scratch_nodes: Vec::new(),
        }
    }

    /// Allocation-reusing clone: `Engine::reset` / `restore_state` rewind
    /// configurations through this without touching the heap once the
    /// buffers have their final length.
    fn clone_from(&mut self, source: &Self) {
        self.ring = source.ring;
        self.counts.clone_from(&source.counts);
        self.next_occ.clone_from(&source.next_occ);
        self.prev_occ.clone_from(&source.prev_occ);
        self.anchor = source.anchor;
        self.occupied = source.occupied;
        self.robots = source.robots;
        self.multis = source.multis;
    }
}

// The occupancy index is derived state: identity is the ring + the counts.
impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        self.ring == other.ring && self.counts == other.counts
    }
}

impl Eq for Configuration {}

impl std::hash::Hash for Configuration {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ring.hash(state);
        self.counts.hash(state);
    }
}

impl Configuration {
    /// Creates an exclusive configuration with one robot on each node of
    /// `occupied`.
    pub fn new_exclusive(ring: Ring, occupied: &[NodeId]) -> Result<Self, ConfigError> {
        if occupied.is_empty() {
            return Err(ConfigError::Empty);
        }
        let mut counts = vec![0u32; ring.len()];
        for &v in occupied {
            if v >= ring.len() {
                return Err(ConfigError::NodeOutOfRange {
                    node: v,
                    n: ring.len(),
                });
            }
            if counts[v] > 0 {
                return Err(ConfigError::DuplicateNode { node: v });
            }
            counts[v] = 1;
        }
        Ok(Configuration::from_parts(ring, counts))
    }

    /// Builds the configuration and its occupancy index from validated
    /// per-node counts (at least one robot).
    fn from_parts(ring: Ring, counts: Vec<u32>) -> Self {
        let mut config = Configuration {
            ring,
            counts,
            next_occ: Vec::new(),
            prev_occ: Vec::new(),
            anchor: 0,
            occupied: 0,
            robots: 0,
            multis: 0,
            scratch_nodes: Vec::new(),
        };
        config.rebuild_index();
        config
    }

    /// Recomputes the occupancy index (linked list + counters) from the
    /// per-node counts with one O(n) scan.  Constructors and bulk mutations
    /// go through here; single-robot moves maintain the index in O(1).
    fn rebuild_index(&mut self) {
        let n = self.ring.len();
        // Only the *occupied* nodes' links are ever read, so stale entries
        // need no clearing — resize is a no-op when the ring size is
        // unchanged (the restore-heavy model-checker path).
        self.next_occ.resize(n, 0);
        self.prev_occ.resize(n, 0);
        self.robots = 0;
        self.multis = 0;
        let mut first: Option<usize> = None;
        let mut last: Option<usize> = None;
        let mut occupied = 0u32;
        for v in 0..n {
            let c = self.counts[v];
            if c == 0 {
                continue;
            }
            self.robots += u64::from(c);
            if c > 1 {
                self.multis += 1;
            }
            occupied += 1;
            if let Some(p) = last {
                self.next_occ[p] = v as u32;
                self.prev_occ[v] = p as u32;
            } else {
                first = Some(v);
            }
            last = Some(v);
        }
        self.occupied = occupied;
        if let (Some(f), Some(l)) = (first, last) {
            self.next_occ[l] = f as u32;
            self.prev_occ[f] = l as u32;
            self.anchor = f as u32;
        }
        debug_assert!(self.index_is_consistent());
    }

    /// Debug cross-check: the incremental index equals what a from-scratch
    /// scan of the counts would produce.  O(n) and allocation-free, so a
    /// debug build's moves allocate no more than a release build's; only
    /// ever called behind `debug_assert!`.
    fn index_is_consistent(&self) -> bool {
        let robots: u64 = self.counts.iter().map(|&c| u64::from(c)).sum();
        let multis = self.counts.iter().filter(|&&c| c > 1).count();
        let mut occ = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(v, _)| v);
        let Some(first) = occ.next() else {
            return false;
        };
        // Each occupied node must link to the next one clockwise, and the
        // last one back round to the first.
        let linked = |v: usize, next: usize| {
            self.next_occ[v] as usize == next && self.prev_occ[next] as usize == v
        };
        let (mut last, mut occupied) = (first, 1usize);
        for v in occ {
            if !linked(last, v) {
                return false;
            }
            (last, occupied) = (v, occupied + 1);
        }
        linked(last, first)
            && self.occupied as usize == occupied
            && self.robots == robots
            && self.multis as usize == multis
            && self.counts[self.anchor as usize] > 0
    }

    /// Creates a configuration from explicit per-node robot counts.
    pub fn from_counts(ring: Ring, counts: Vec<u32>) -> Result<Self, ConfigError> {
        if counts.len() != ring.len() {
            return Err(ConfigError::GapMismatch {
                implied_n: counts.len(),
                n: ring.len(),
            });
        }
        if counts.iter().all(|&c| c == 0) {
            return Err(ConfigError::Empty);
        }
        Ok(Configuration::from_parts(ring, counts))
    }

    /// Creates an exclusive configuration from a clockwise gap sequence.
    ///
    /// A robot is placed at `start`, then each subsequent robot is placed
    /// `gaps[i] + 1` nodes further clockwise.  The last gap must close the
    /// ring: `sum(gaps) + gaps.len() == n`.
    pub fn from_gaps(ring: Ring, start: NodeId, gaps: &[usize]) -> Result<Self, ConfigError> {
        if gaps.is_empty() {
            return Err(ConfigError::Empty);
        }
        if start >= ring.len() {
            return Err(ConfigError::NodeOutOfRange {
                node: start,
                n: ring.len(),
            });
        }
        let implied_n: usize = gaps.iter().sum::<usize>() + gaps.len();
        if implied_n != ring.len() {
            return Err(ConfigError::GapMismatch {
                implied_n,
                n: ring.len(),
            });
        }
        let mut occupied = Vec::with_capacity(gaps.len());
        let mut cur = start;
        for &g in gaps {
            occupied.push(cur);
            cur = ring.walk(cur, Direction::Cw, g + 1);
        }
        Configuration::new_exclusive(ring, &occupied)
    }

    /// Convenience constructor for tests and examples: builds the ring and the
    /// exclusive configuration from a clockwise gap sequence placed at node 0.
    ///
    /// # Panics
    ///
    /// Panics if the gap sequence is invalid (see [`Configuration::from_gaps`]).
    #[must_use]
    pub fn from_gaps_at_origin(gaps: &[usize]) -> Self {
        let n = gaps.iter().sum::<usize>() + gaps.len();
        let ring = Ring::new(n);
        Configuration::from_gaps(ring, 0, gaps).expect("valid gap sequence")
    }

    /// The underlying ring.
    #[must_use]
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// Number of nodes of the ring.
    #[must_use]
    pub fn n(&self) -> usize {
        self.ring.len()
    }

    /// Total number of robots (counting multiplicities).  O(1).
    #[must_use]
    pub fn num_robots(&self) -> usize {
        self.robots as usize
    }

    /// Number of occupied nodes (ignoring multiplicities).  O(1).
    #[must_use]
    pub fn num_occupied(&self) -> usize {
        self.occupied as usize
    }

    /// The occupied nodes, in increasing node order.  O(k): reads the
    /// maintained occupancy cycle and rotates it to start at the smallest
    /// node (the cyclic successor order ascends between wraparounds, so one
    /// rotation sorts it).
    #[must_use]
    pub fn occupied_nodes(&self) -> Vec<NodeId> {
        let k = self.occupied as usize;
        let mut out = Vec::with_capacity(k);
        let mut cur = self.anchor as usize;
        let mut min_idx = 0;
        for i in 0..k {
            out.push(cur);
            if cur < out[min_idx] {
                min_idx = i;
            }
            cur = self.next_occ[cur] as usize;
        }
        out.rotate_left(min_idx);
        out
    }

    /// An occupied node, arbitrary but deterministically maintained (the
    /// entry point of the occupancy cycle).  O(1).
    #[must_use]
    pub fn occupied_anchor(&self) -> NodeId {
        self.anchor as usize
    }

    /// The next occupied node strictly after occupied node `v` in direction
    /// `dir` (cyclically; `v` itself when it is the only occupied node).
    /// O(1) off the maintained occupancy index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is not occupied.
    #[must_use]
    pub fn occupied_after(&self, v: NodeId, dir: Direction) -> NodeId {
        debug_assert!(self.is_occupied(v), "occupied_after at empty node {v}");
        match dir {
            Direction::Cw => self.next_occ[v] as usize,
            Direction::Ccw => self.prev_occ[v] as usize,
        }
    }

    /// Iterator over all `k` occupied nodes in walking order of `dir`,
    /// starting at occupied node `start`.  O(k) total, no allocation — this
    /// is the pass the `Global` multiplicity snapshot reads its flags from.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not occupied.
    pub fn occupied_cycle(
        &self,
        start: NodeId,
        dir: Direction,
    ) -> impl Iterator<Item = NodeId> + '_ {
        assert!(
            self.is_occupied(start),
            "occupied_cycle at empty node {start}"
        );
        let mut cur = start;
        (0..self.occupied as usize).map(move |_| {
            let v = cur;
            cur = self.occupied_after(v, dir);
            v
        })
    }

    /// Number of robots on node `v`.
    #[must_use]
    pub fn count_at(&self, v: NodeId) -> u32 {
        self.counts[v]
    }

    /// Whether node `v` hosts at least one robot.
    #[must_use]
    pub fn is_occupied(&self, v: NodeId) -> bool {
        self.counts[v] > 0
    }

    /// Whether node `v` hosts strictly more than one robot (a *multiplicity*).
    #[must_use]
    pub fn is_multiplicity(&self, v: NodeId) -> bool {
        self.counts[v] > 1
    }

    /// Whether every node hosts at most one robot (the *exclusivity*
    /// property).  O(1) off the maintained multiplicity counter.
    #[must_use]
    pub fn is_exclusive(&self) -> bool {
        self.multis == 0
    }

    /// Whether some node hosts more than one robot.  O(1).
    #[must_use]
    pub fn has_multiplicity(&self) -> bool {
        !self.is_exclusive()
    }

    /// Whether all robots stand on a single node (the gathering goal).  O(1).
    #[must_use]
    pub fn is_gathered(&self) -> bool {
        self.occupied == 1
    }

    /// Moves one robot from `from` to the adjacent node `to`.
    pub fn move_robot(&mut self, from: NodeId, to: NodeId) -> Result<(), ConfigError> {
        if from >= self.ring.len() {
            return Err(ConfigError::NodeOutOfRange {
                node: from,
                n: self.ring.len(),
            });
        }
        if to >= self.ring.len() {
            return Err(ConfigError::NodeOutOfRange {
                node: to,
                n: self.ring.len(),
            });
        }
        if self.counts[from] == 0 {
            return Err(ConfigError::SourceNotOccupied { node: from });
        }
        if !self.ring.adjacent(from, to) {
            return Err(ConfigError::NotAdjacent { from, to });
        }
        let cf = self.counts[from];
        let ct = self.counts[to];
        self.counts[from] = cf - 1;
        self.counts[to] = ct + 1;
        // Incremental O(1) maintenance of the occupancy index: a move only
        // touches the two gaps adjacent to the moving robot.
        if cf == 2 {
            self.multis -= 1; // `from` stops being a multiplicity
        }
        if ct == 1 {
            self.multis += 1; // `to` becomes one
        }
        let from_emptied = cf == 1;
        let to_filled = ct == 0;
        match (from_emptied, to_filled) {
            (false, false) => {}
            (true, false) => {
                // `to` is occupied elsewhere in the cycle, so k >= 2 here:
                // unlink `from`.
                if self.anchor as usize == from {
                    self.anchor = self.next_occ[from];
                }
                let p = self.prev_occ[from] as usize;
                let nx = self.next_occ[from] as usize;
                self.next_occ[p] = nx as u32;
                self.prev_occ[nx] = p as u32;
            }
            (false, true) => {
                // `to` is the first node of the gap adjacent to `from` on
                // one side: splice it in right next to `from` on that side.
                if to == self.ring.neighbor(from, Direction::Cw) {
                    let nx = self.next_occ[from] as usize;
                    self.next_occ[from] = to as u32;
                    self.prev_occ[to] = from as u32;
                    self.next_occ[to] = nx as u32;
                    self.prev_occ[nx] = to as u32;
                } else {
                    let p = self.prev_occ[from] as usize;
                    self.next_occ[p] = to as u32;
                    self.prev_occ[to] = p as u32;
                    self.next_occ[to] = from as u32;
                    self.prev_occ[from] = to as u32;
                }
            }
            (true, true) => {
                // The robot carries `from`'s slot in the cycle over to `to`;
                // cyclic order is preserved because `to` lies strictly inside
                // one of the gaps bordering `from`.
                let nx = self.next_occ[from] as usize;
                if nx == from {
                    // Sole occupied node: the cycle is a self-loop.
                    self.next_occ[to] = to as u32;
                    self.prev_occ[to] = to as u32;
                } else {
                    let p = self.prev_occ[from] as usize;
                    self.next_occ[p] = to as u32;
                    self.prev_occ[to] = p as u32;
                    self.next_occ[to] = nx as u32;
                    self.prev_occ[nx] = to as u32;
                }
                if self.anchor as usize == from {
                    self.anchor = to as u32;
                }
            }
        }
        self.occupied = self.occupied + u32::from(to_filled) - u32::from(from_emptied);
        debug_assert!(self.index_is_consistent());
        Ok(())
    }

    /// Replaces the whole placement with one robot per item of `positions`
    /// (repeats create multiplicities), reusing the per-node count storage —
    /// the allocation-free bulk mutation the engine's packed-state restore
    /// is built on.
    ///
    /// O(k_old + k log k), **not** O(n): the outgoing occupancy is erased by
    /// walking the maintained occupancy cycle, and the incoming index is
    /// rebuilt from the sorted distinct positions — the ring size never
    /// enters, which is what keeps million-restore model-checking loops
    /// cheap on large rings.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range or the iterator is empty; callers
    /// supply positions that were validated when the placement was first
    /// created.
    pub fn assign_positions(&mut self, positions: impl IntoIterator<Item = NodeId>) {
        // Erase the old placement via the old index: O(k_old).
        let mut cur = self.anchor as usize;
        for _ in 0..self.occupied as usize {
            let next = self.next_occ[cur] as usize;
            self.counts[cur] = 0;
            cur = next;
        }
        self.robots = 0;
        self.multis = 0;
        let mut nodes = std::mem::take(&mut self.scratch_nodes);
        nodes.clear();
        for v in positions {
            assert!(
                v < self.ring.len(),
                "node {v} out of range for a ring of {} nodes",
                self.ring.len()
            );
            if self.counts[v] == 0 {
                nodes.push(v as u32);
            }
            self.counts[v] += 1;
            if self.counts[v] == 2 {
                self.multis += 1;
            }
            self.robots += 1;
        }
        assert!(
            !nodes.is_empty(),
            "a configuration must contain at least one robot"
        );
        nodes.sort_unstable();
        for (i, &v) in nodes.iter().enumerate() {
            let next = nodes[(i + 1) % nodes.len()];
            self.next_occ[v as usize] = next;
            self.prev_occ[next as usize] = v;
        }
        self.anchor = nodes[0];
        self.occupied = nodes.len() as u32;
        self.scratch_nodes = nodes;
        debug_assert!(self.index_is_consistent());
    }

    /// Moves one robot from `from` one step in direction `dir`, returning the
    /// target node.
    pub fn move_robot_dir(&mut self, from: NodeId, dir: Direction) -> Result<NodeId, ConfigError> {
        let to = self.ring.neighbor(from, dir);
        self.move_robot(from, to)?;
        Ok(to)
    }

    /// The clockwise gap sequence: entry `i` is the number of empty nodes
    /// between occupied node `i` and occupied node `i + 1` (indices into
    /// [`Configuration::occupied_nodes`], cyclically).  O(k) off the
    /// maintained occupancy cycle.
    #[must_use]
    pub fn gap_sequence(&self) -> Vec<usize> {
        let n = self.ring.len();
        let anchor = self.anchor as usize;
        let mut min = anchor;
        let mut cur = self.next_occ[anchor] as usize;
        while cur != anchor {
            min = min.min(cur);
            cur = self.next_occ[cur] as usize;
        }
        let k = self.occupied as usize;
        let mut gaps = Vec::with_capacity(k);
        let mut cur = min;
        for _ in 0..k {
            let next = self.next_occ[cur] as usize;
            gaps.push((next + n - cur - 1) % n);
            cur = next;
        }
        gaps
    }

    /// The view of the robot(s) at occupied node `v`, reading in direction
    /// `dir`.  Thin allocating wrapper over
    /// [`Configuration::view_from_into`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is not occupied.
    #[must_use]
    pub fn view_from(&self, v: NodeId, dir: Direction) -> View {
        let mut out = View::new(Vec::with_capacity(self.occupied as usize));
        self.view_from_into(v, dir, &mut out);
        out
    }

    /// Fills `out` with the view at occupied node `v` in direction `dir`,
    /// reusing the caller's gap buffer: O(k) reads off the maintained
    /// occupancy cycle, zero heap allocations once the buffer has capacity
    /// `k`.  This is the Look hot path of the CORDA engine.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not occupied.
    pub fn view_from_into(&self, v: NodeId, dir: Direction, out: &mut View) {
        assert!(self.is_occupied(v), "view requested at empty node {v}");
        let n = self.ring.len();
        out.clear();
        let mut cur = v;
        for _ in 0..self.occupied as usize {
            let next = self.occupied_after(cur, dir);
            // Walking distance from `cur` to `next` in `dir`, minus one, is
            // the gap between them: the clockwise distance from `from` to
            // `to`, which wraps round when `to <= from` (a sole robot sees
            // the full cycle, n - 1).
            let (from, to) = match dir {
                Direction::Cw => (cur, next),
                Direction::Ccw => (next, cur),
            };
            let gap = if to > from {
                to - from - 1
            } else {
                to + n - from - 1
            };
            out.push(gap);
            cur = next;
        }
    }

    /// All views of the configuration: for each occupied node, both directions.
    #[must_use]
    pub fn all_views(&self) -> Vec<(NodeId, Direction, View)> {
        let mut out = Vec::with_capacity(2 * self.num_occupied());
        for v in self.occupied_nodes() {
            for dir in Direction::BOTH {
                out.push((v, dir, self.view_from(v, dir)));
            }
        }
        out
    }

    /// The interval (maximal run of empty nodes, possibly of length zero)
    /// adjacent to occupied node `v` in direction `dir`, returned as the list
    /// of empty nodes in walking order.
    #[must_use]
    pub fn interval_from(&self, v: NodeId, dir: Direction) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.ring.neighbor(v, dir);
        while !self.is_occupied(cur) {
            out.push(cur);
            cur = self.ring.neighbor(cur, dir);
        }
        out
    }

    /// The canonical key of the configuration: the lexicographically smallest
    /// gap sequence over all rotations and reflections.  Two configurations
    /// are isomorphic (equal up to a ring automorphism) iff their canonical
    /// keys are equal.
    #[must_use]
    pub fn canonical_key(&self) -> View {
        View::new(self.gap_sequence()).supermin()
    }

    /// Whether two configurations (possibly on different rings) are isomorphic.
    #[must_use]
    pub fn is_isomorphic(&self, other: &Configuration) -> bool {
        self.n() == other.n() && self.canonical_key() == other.canonical_key()
    }

    /// The maximal runs of consecutive occupied nodes ("blocks"), as lists of
    /// node ids in clockwise order.  Used by the `NminusThree` algorithm of
    /// Section 4.4, which reasons about the three blocks `A < B < C`.
    #[must_use]
    pub fn occupied_blocks(&self) -> Vec<Vec<NodeId>> {
        let n = self.ring.len();
        if self.num_occupied() == n {
            return vec![(0..n).collect()];
        }
        let mut blocks = Vec::new();
        // Find a starting empty node so blocks are not split across the seam.
        let start = (0..n)
            .find(|&v| !self.is_occupied(v))
            .expect("some empty node");
        let mut current: Vec<NodeId> = Vec::new();
        for step in 1..=n {
            let v = (start + step) % n;
            if self.is_occupied(v) {
                current.push(v);
            } else if !current.is_empty() {
                blocks.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            blocks.push(current);
        }
        blocks
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for v in 0..self.ring.len() {
            let c = self.counts[v];
            match c {
                0 => write!(f, ".")?,
                1 => write!(f, "o")?,
                _ => write!(f, "{}", c.min(9))?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The O(n)-scan reference `view_from_scan`; test-only, shared with
    // `tests/config_incremental.rs`.
    include!("../tests/common/view_scan.rs");

    fn ring(n: usize) -> Ring {
        Ring::new(n)
    }

    #[test]
    fn exclusive_constructor_validates() {
        assert!(Configuration::new_exclusive(ring(5), &[]).is_err());
        assert!(Configuration::new_exclusive(ring(5), &[5]).is_err());
        assert!(Configuration::new_exclusive(ring(5), &[1, 1]).is_err());
        let c = Configuration::new_exclusive(ring(5), &[0, 2]).unwrap();
        assert!(c.is_exclusive());
        assert_eq!(c.num_robots(), 2);
        assert_eq!(c.num_occupied(), 2);
    }

    #[test]
    fn from_counts_validates() {
        assert!(Configuration::from_counts(ring(4), vec![0, 0, 0]).is_err());
        assert!(Configuration::from_counts(ring(4), vec![0, 0, 0, 0]).is_err());
        let c = Configuration::from_counts(ring(4), vec![2, 0, 1, 0]).unwrap();
        assert!(c.has_multiplicity());
        assert!(c.is_multiplicity(0));
        assert!(!c.is_multiplicity(2));
        assert_eq!(c.num_robots(), 3);
        assert_eq!(c.num_occupied(), 2);
    }

    #[test]
    fn from_gaps_round_trips() {
        let gaps = [0usize, 1, 0, 0, 6];
        let c = Configuration::from_gaps_at_origin(&gaps);
        assert_eq!(c.n(), 12);
        assert_eq!(c.num_robots(), 5);
        assert_eq!(c.gap_sequence(), gaps.to_vec());
        assert!(Configuration::from_gaps(ring(11), 0, &gaps).is_err());
    }

    #[test]
    fn gap_sequence_of_full_ring_is_zero() {
        let c = Configuration::new_exclusive(ring(5), &[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(c.gap_sequence(), vec![0; 5]);
    }

    #[test]
    fn view_matches_gap_sequence() {
        // Robots at 0, 1, 4 on an 8-ring: gaps cw = (0, 2, 3).
        let c = Configuration::new_exclusive(ring(8), &[0, 1, 4]).unwrap();
        assert_eq!(c.gap_sequence(), vec![0, 2, 3]);
        assert_eq!(c.view_from(0, Direction::Cw).gaps(), &[0, 2, 3]);
        assert_eq!(c.view_from(0, Direction::Ccw).gaps(), &[3, 2, 0]);
        assert_eq!(c.view_from(1, Direction::Cw).gaps(), &[2, 3, 0]);
        assert_eq!(c.view_from(4, Direction::Ccw).gaps(), &[2, 0, 3]);
    }

    #[test]
    fn views_are_rotations_or_reflections_of_each_other() {
        let c = Configuration::from_gaps_at_origin(&[0, 1, 0, 2, 4]);
        let base = c.view_from(0, Direction::Cw);
        for (_, _, w) in c.all_views() {
            assert_eq!(w.supermin(), base.supermin());
            assert_eq!(w.total_gap(), base.total_gap());
        }
    }

    #[test]
    fn single_robot_view() {
        let c = Configuration::new_exclusive(ring(6), &[3]).unwrap();
        assert_eq!(c.view_from(3, Direction::Cw).gaps(), &[5]);
        assert_eq!(c.view_from(3, Direction::Ccw).gaps(), &[5]);
    }

    #[test]
    fn move_robot_validation_and_effect() {
        let mut c = Configuration::new_exclusive(ring(6), &[0, 2]).unwrap();
        assert!(c.move_robot(1, 2).is_err());
        assert!(c.move_robot(0, 3).is_err());
        assert!(c.move_robot(0, 6).is_err());
        c.move_robot(0, 1).unwrap();
        assert!(!c.is_occupied(0));
        assert!(c.is_occupied(1));
        // Moving onto an occupied node creates a multiplicity.
        c.move_robot(1, 2).unwrap();
        assert!(c.is_multiplicity(2));
        assert_eq!(c.num_robots(), 2);
        assert_eq!(c.num_occupied(), 1);
        assert!(c.is_gathered());
    }

    #[test]
    fn move_robot_dir_wraps() {
        let mut c = Configuration::new_exclusive(ring(5), &[0, 3]).unwrap();
        let to = c.move_robot_dir(0, Direction::Ccw).unwrap();
        assert_eq!(to, 4);
        assert!(c.is_occupied(4));
    }

    #[test]
    fn canonical_key_identifies_isomorphic_configs() {
        let a = Configuration::new_exclusive(ring(8), &[0, 1, 4]).unwrap();
        let b = Configuration::new_exclusive(ring(8), &[2, 3, 6]).unwrap();
        let c = Configuration::new_exclusive(ring(8), &[0, 3, 4]).unwrap(); // reflection of a
        let d = Configuration::new_exclusive(ring(8), &[0, 2, 4]).unwrap();
        assert!(a.is_isomorphic(&b));
        assert!(a.is_isomorphic(&c));
        assert!(!a.is_isomorphic(&d));
    }

    #[test]
    fn interval_from_lists_empty_nodes() {
        let c = Configuration::new_exclusive(ring(8), &[0, 1, 4]).unwrap();
        assert_eq!(c.interval_from(0, Direction::Cw), Vec::<usize>::new());
        assert_eq!(c.interval_from(1, Direction::Cw), vec![2, 3]);
        assert_eq!(c.interval_from(0, Direction::Ccw), vec![7, 6, 5]);
    }

    #[test]
    fn occupied_blocks_splits_runs() {
        // Ring of 10, robots at 0,1,2, 5,6, 8 → blocks {0,1,2}, {5,6}, {8}.
        let c = Configuration::new_exclusive(ring(10), &[0, 1, 2, 5, 6, 8]).unwrap();
        let mut blocks = c.occupied_blocks();
        blocks.sort_by_key(|b| b.len());
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0], vec![8]);
        assert_eq!(blocks[1], vec![5, 6]);
        assert_eq!(blocks[2], vec![0, 1, 2]);
    }

    #[test]
    fn occupied_blocks_wraps_around_origin() {
        let c = Configuration::new_exclusive(ring(7), &[6, 0, 1]).unwrap();
        let blocks = c.occupied_blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0], vec![6, 0, 1]);
    }

    #[test]
    fn display_marks_occupation() {
        let c = Configuration::from_counts(ring(4), vec![1, 0, 3, 0]).unwrap();
        assert_eq!(c.to_string(), "[o.3.]");
    }

    /// The incremental occupancy index agrees with a from-scratch rebuild on
    /// every observable quantity.
    fn assert_index_matches_scratch(c: &Configuration) {
        assert!(c.index_is_consistent());
        let fresh = Configuration::from_counts(c.ring(), c.counts.clone()).unwrap();
        assert_eq!(c.occupied_nodes(), fresh.occupied_nodes());
        assert_eq!(c.gap_sequence(), fresh.gap_sequence());
        assert_eq!(c.num_robots(), fresh.num_robots());
        assert_eq!(c.num_occupied(), fresh.num_occupied());
        assert_eq!(c.is_exclusive(), fresh.is_exclusive());
        for v in c.occupied_nodes() {
            for dir in Direction::BOTH {
                assert_eq!(c.view_from(v, dir), view_from_scan(c, v, dir), "v={v}");
                let mut reused = View::new(vec![99; 7]);
                c.view_from_into(v, dir, &mut reused);
                assert_eq!(reused, view_from_scan(c, v, dir), "reused buffer, v={v}");
            }
        }
    }

    #[test]
    fn incremental_index_tracks_merges_splits_and_wraps() {
        // Exercise every list-update case: plain slide (replace), merge into
        // a multiplicity (detach), split out of one (insert), wraparound
        // through node 0, and anchor handoff.
        let mut c = Configuration::from_counts(ring(8), vec![1, 1, 0, 0, 1, 0, 0, 1]).unwrap();
        assert_index_matches_scratch(&c);
        c.move_robot(1, 0).unwrap(); // merge: 0 becomes a multiplicity
        assert_index_matches_scratch(&c);
        assert!(c.is_multiplicity(0));
        c.move_robot(0, 7).unwrap(); // merge again at 7 (ccw, wraps)
        assert_index_matches_scratch(&c);
        c.move_robot(0, 1).unwrap(); // split: 0 empties, 1 fills
        assert_index_matches_scratch(&c);
        c.move_robot(7, 0).unwrap(); // split the 7-multiplicity across the seam
        assert_index_matches_scratch(&c);
        c.move_robot(4, 3).unwrap(); // plain slide of an isolated robot
        assert_index_matches_scratch(&c);
        assert_eq!(c.num_robots(), 4);
    }

    #[test]
    fn incremental_index_survives_a_single_robot_walking_the_ring() {
        // k = 1 exercises the self-loop replace path on every step.
        let mut c = Configuration::new_exclusive(ring(5), &[2]).unwrap();
        for _ in 0..7 {
            let at = c.occupied_nodes()[0];
            c.move_robot_dir(at, Direction::Cw).unwrap();
            assert_index_matches_scratch(&c);
            assert_eq!(
                c.view_from(c.occupied_nodes()[0], Direction::Cw).gaps(),
                &[4]
            );
        }
    }

    #[test]
    fn incremental_index_survives_gathering_everything() {
        // Collapse five robots onto one node, then walk the tower around.
        let mut c = Configuration::new_exclusive(ring(6), &[0, 1, 2, 3, 4]).unwrap();
        for v in [1usize, 2, 3, 4] {
            for _ in 0..v {
                let step_from = c
                    .occupied_nodes()
                    .into_iter()
                    .find(|&w| w != 0 && c.count_at(w) > 0)
                    .unwrap();
                c.move_robot_dir(step_from, Direction::Ccw).unwrap();
                assert_index_matches_scratch(&c);
            }
        }
        assert!(c.is_gathered());
        assert_eq!(c.count_at(0), 5);
        c.move_robot(0, 5).unwrap(); // peel one off the tower
        assert_index_matches_scratch(&c);
        assert_eq!(c.num_occupied(), 2);
    }

    #[test]
    fn clone_from_and_assign_positions_keep_the_index_valid() {
        let a = Configuration::from_counts(ring(9), vec![2, 0, 1, 0, 0, 1, 0, 0, 0]).unwrap();
        let mut b = Configuration::new_exclusive(ring(9), &[4]).unwrap();
        b.clone_from(&a);
        assert_eq!(a, b);
        assert_index_matches_scratch(&b);
        b.assign_positions([3usize, 3, 8]);
        assert_index_matches_scratch(&b);
        assert_eq!(b.occupied_nodes(), vec![3, 8]);
        assert!(b.is_multiplicity(3));
    }

    #[test]
    fn equality_and_hash_ignore_the_derived_index() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Same occupancy reached through different histories (hence
        // different anchors/links) must compare and hash equal.
        let direct = Configuration::new_exclusive(ring(6), &[1, 4]).unwrap();
        let mut walked = Configuration::new_exclusive(ring(6), &[0, 4]).unwrap();
        walked.move_robot(0, 1).unwrap();
        assert_eq!(direct, walked);
        let hash = |c: &Configuration| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&direct), hash(&walked));
    }

    #[test]
    fn occupied_cycle_and_after_walk_the_maintained_ring() {
        let c = Configuration::new_exclusive(ring(8), &[0, 1, 4]).unwrap();
        assert_eq!(c.occupied_after(0, Direction::Cw), 1);
        assert_eq!(c.occupied_after(0, Direction::Ccw), 4);
        let cw: Vec<_> = c.occupied_cycle(1, Direction::Cw).collect();
        assert_eq!(cw, vec![1, 4, 0]);
        let ccw: Vec<_> = c.occupied_cycle(1, Direction::Ccw).collect();
        assert_eq!(ccw, vec![1, 0, 4]);
        assert!(c.is_occupied(c.occupied_anchor()));
    }
}
