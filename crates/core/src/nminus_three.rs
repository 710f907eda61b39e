//! Algorithm **NminusThree** (Section 4.4 of the paper): exclusive perpetual
//! graph searching and exploration of an `n`-node ring (`n ≥ 10`) with
//! exactly `k = n - 3` robots, starting from any rigid exclusive
//! configuration.
//!
//! With three empty nodes the ring decomposes into three (possibly empty)
//! blocks of adjacent robots whose sizes are denoted `A < B < C` (rigidity
//! makes them pairwise distinct).  The algorithm:
//!
//! * **Phase 1** reshapes the configuration into one of the three *final*
//!   configurations `(0,2,k-2)`, `(0,3,k-3)`, `(1,2,k-3)` using rules
//!   R1.1–R1.3;
//! * **Phase 2** cycles forever through the three final configurations using
//!   rules R2.1–R2.3, clearing every edge of the ring in every period of
//!   three moves (Theorem 7).

use rr_corda::{Decision, MultiplicityCapability, Protocol, Snapshot, ViewIndex};
use rr_ring::View;
use serde::{Deserialize, Serialize};

use crate::analysis::relative_occupancy;

/// The NminusThree protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct NminusThreeProtocol;

/// The rule the algorithm applies in a given configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rule {
    /// Phase 1: `A > 0` — move towards `C` the robot of `A` closest to `C`.
    R1x1,
    /// Phase 1: `A = 0`, `B = 1` — move towards `B` the robot of `C` closest to `B`.
    R1x2,
    /// Phase 1: `A = 0`, `B > 3` — move towards `C` the robot of `B` closest to `C`.
    R1x3,
    /// Phase 2, from `(0, 2, k-2)` — move towards `B` the robot of `C` closest to `B`.
    R2x1,
    /// Phase 2, from `(0, 3, k-3)` — move towards `A` the robot of `B` closest to `A`.
    R2x2,
    /// Phase 2, from `(1, 2, k-3)` — move the robot of `A` towards `C`.
    R2x3,
}

/// The block decomposition of a `k = n-3` configuration: the three arcs of
/// occupied nodes delimited by the three empty nodes, in the cyclic order of
/// the view it was computed from.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Arcs {
    /// Relative positions (in the reading direction of the view, 0 = the
    /// observing robot) of the three empty nodes, in increasing order.
    empties: [usize; 3],
    /// Sizes of the arcs: `sizes[i]` is the number of occupied nodes strictly
    /// between `empties[i]` and `empties[(i+1) % 3]` (walking forward).
    sizes: [usize; 3],
    /// Ring size.
    n: usize,
}

impl Arcs {
    fn from_view(view: &View) -> Option<Arcs> {
        let occ = relative_occupancy(view);
        let n = occ.len();
        let empties: Vec<usize> = (0..n).filter(|&i| !occ[i]).collect();
        if empties.len() != 3 {
            return None;
        }
        let empties = [empties[0], empties[1], empties[2]];
        let mut sizes = [0usize; 3];
        for i in 0..3 {
            let from = empties[i];
            let to = empties[(i + 1) % 3];
            sizes[i] = (to + n - from) % n - 1;
        }
        Some(Arcs { empties, sizes, n })
    }

    /// Sorted sizes `(A, B, C)`.
    fn sorted_sizes(&self) -> (usize, usize, usize) {
        let mut s = self.sizes;
        s.sort_unstable();
        (s[0], s[1], s[2])
    }

    /// Index of the arc with the given size (sizes are pairwise distinct for
    /// rigid configurations, so this is unambiguous).
    fn arc_with_size(&self, size: usize) -> usize {
        self.sizes
            .iter()
            .position(|&s| s == size)
            .expect("size present")
    }

    /// The empty node shared by arcs `x` and `y` when they are considered as
    /// cyclically adjacent (each pair of arcs shares exactly one empty node on
    /// its "short" side).
    fn shared_empty(&self, x: usize, y: usize) -> usize {
        debug_assert!(x != y);
        if (x + 1) % 3 == y {
            self.empties[y]
        } else {
            // y precedes x: the shared empty node is the one before arc x.
            self.empties[x]
        }
    }

    /// The move prescribed by "the robot of arc `x` closest to arc `y` moves
    /// towards `y`": returns the mover's relative position and the step
    /// (+1 = the reading direction of the underlying view, -1 = the other).
    ///
    /// Returns `None` if arc `x` is empty.
    fn mover_towards(&self, x: usize, y: usize) -> Option<(usize, isize)> {
        if self.sizes[x] == 0 {
            return None;
        }
        let e = self.shared_empty(x, y);
        if (x + 1) % 3 == y {
            // The shared empty node follows arc x: the mover is just before it
            // and steps forward onto it.
            Some(((e + self.n - 1) % self.n, 1))
        } else {
            // The shared empty node precedes arc x: the mover is just after it
            // and steps backward onto it.
            Some(((e + 1) % self.n, -1))
        }
    }
}

impl NminusThreeProtocol {
    /// Creates the protocol.
    #[must_use]
    pub fn new() -> Self {
        NminusThreeProtocol
    }

    /// Whether the parameters are in the range covered by Theorem 7.
    #[must_use]
    pub fn supports(n: usize, k: usize) -> bool {
        n >= 10 && k + 3 == n
    }

    /// The rule applied in a configuration with sorted block sizes
    /// `(a, b, c)` (for `k = a + b + c = n - 3` robots).
    ///
    /// Returns `None` when the sizes are not pairwise distinct (the
    /// configuration is not rigid) or no rule applies.
    #[must_use]
    pub fn rule_for(a: usize, b: usize, c: usize, k: usize) -> Option<Rule> {
        if a == b || b == c {
            return None;
        }
        if (a, b, c) == (0, 2, k - 2) {
            Some(Rule::R2x1)
        } else if (a, b, c) == (0, 3, k - 3) {
            Some(Rule::R2x2)
        } else if (a, b, c) == (1, 2, k - 3) {
            Some(Rule::R2x3)
        } else if a > 0 {
            Some(Rule::R1x1)
        } else if b == 1 {
            Some(Rule::R1x2)
        } else if b > 3 {
            Some(Rule::R1x3)
        } else {
            None
        }
    }

    /// The decision for a robot whose two directional views are `views`.
    #[must_use]
    pub fn decide(views: &[View; 2]) -> Decision {
        let k = views[0].len();
        let n = k + views[0].total_gap();
        if !Self::supports(n, k) {
            return Decision::Idle;
        }
        // Work in the frame of views[0]; a positive step means "move in the
        // reading direction of views[0]".
        let Some(arcs) = Arcs::from_view(&views[0]) else {
            return Decision::Idle;
        };
        let (a, b, c) = arcs.sorted_sizes();
        let Some(rule) = Self::rule_for(a, b, c, k) else {
            return Decision::Idle;
        };
        let (from_size, to_size) = match rule {
            Rule::R1x1 => (a, c),
            Rule::R1x2 | Rule::R2x1 => (c, b),
            Rule::R1x3 => (b, c),
            Rule::R2x2 => (b, a),
            Rule::R2x3 => (a, c),
        };
        let x = arcs.arc_with_size(from_size);
        let y = arcs.arc_with_size(to_size);
        let Some((mover, step)) = arcs.mover_towards(x, y) else {
            return Decision::Idle;
        };
        if mover != 0 {
            return Decision::Idle;
        }
        if step == 1 {
            Decision::Move(ViewIndex::First)
        } else {
            Decision::Move(ViewIndex::Second)
        }
    }
}

impl Protocol for NminusThreeProtocol {
    fn name(&self) -> &str {
        "n-minus-three"
    }

    fn capability(&self) -> MultiplicityCapability {
        MultiplicityCapability::None
    }

    fn requires_exclusivity(&self) -> bool {
        true
    }

    fn compute(&self, snapshot: &Snapshot) -> Decision {
        NminusThreeProtocol::decide(&snapshot.views)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clearing::run_searching;
    use rr_corda::scheduler::{
        AsynchronousScheduler, RoundRobinScheduler, SemiSynchronousScheduler,
    };
    use rr_corda::{Engine, EngineOptions};
    use rr_ring::enumerate::enumerate_rigid_configurations;
    use rr_ring::{symmetry, Configuration, Direction};

    fn enabled_movers(config: &Configuration) -> Vec<(usize, Decision)> {
        config
            .occupied_nodes()
            .into_iter()
            .filter_map(|v| {
                let s = Snapshot::capture(config, v, MultiplicityCapability::None, Direction::Cw);
                let d = NminusThreeProtocol.compute(&s);
                d.is_move().then_some((v, d))
            })
            .collect()
    }

    fn block_sizes(config: &Configuration) -> Vec<usize> {
        let mut sizes: Vec<usize> = config.occupied_blocks().iter().map(Vec::len).collect();
        while sizes.len() < 3 {
            sizes.push(0);
        }
        sizes.sort_unstable();
        sizes
    }

    #[test]
    fn supports_exactly_k_equals_n_minus_3() {
        assert!(NminusThreeProtocol::supports(10, 7));
        assert!(NminusThreeProtocol::supports(15, 12));
        assert!(!NminusThreeProtocol::supports(9, 6));
        assert!(!NminusThreeProtocol::supports(12, 8));
    }

    #[test]
    fn rule_selection_matches_the_pseudocode() {
        let k = 9; // n = 12
        assert_eq!(NminusThreeProtocol::rule_for(0, 2, 7, k), Some(Rule::R2x1));
        assert_eq!(NminusThreeProtocol::rule_for(0, 3, 6, k), Some(Rule::R2x2));
        assert_eq!(NminusThreeProtocol::rule_for(1, 2, 6, k), Some(Rule::R2x3));
        assert_eq!(NminusThreeProtocol::rule_for(1, 3, 5, k), Some(Rule::R1x1));
        assert_eq!(NminusThreeProtocol::rule_for(2, 3, 4, k), Some(Rule::R1x1));
        assert_eq!(NminusThreeProtocol::rule_for(0, 1, 8, k), Some(Rule::R1x2));
        assert_eq!(NminusThreeProtocol::rule_for(0, 4, 5, k), Some(Rule::R1x3));
        assert_eq!(NminusThreeProtocol::rule_for(1, 1, 7, k), None);
        assert_eq!(NminusThreeProtocol::rule_for(3, 3, 3, k), None);
    }

    #[test]
    fn exactly_one_mover_in_every_rigid_configuration() {
        for n in [10usize, 11, 12] {
            let k = n - 3;
            for config in enumerate_rigid_configurations(n, k) {
                let movers = enabled_movers(&config);
                assert_eq!(movers.len(), 1, "n={n} {config}: movers {movers:?}");
            }
        }
    }

    #[test]
    fn phase2_cycles_through_the_three_final_configurations() {
        let n = 12usize;
        let k = n - 3;
        // Start in the final configuration (0, 2, k-2).
        let mut gaps = vec![0usize; 1]; // block of 2 robots => 1 zero
        gaps.push(1); // one empty node
        gaps.extend(std::iter::repeat_n(0, k - 3)); // block of k-2 robots
        gaps.push(2); // two adjacent empty nodes
        let config = Configuration::from_gaps_at_origin(&gaps);
        assert_eq!(config.n(), n);
        assert_eq!(block_sizes(&config), vec![0, 2, k - 2]);

        let mut current = config;
        let mut seen = Vec::new();
        for _ in 0..9 {
            seen.push(block_sizes(&current));
            let movers = enabled_movers(&current);
            assert_eq!(movers.len(), 1, "{current}");
            let (node, decision) = movers[0];
            let dir = match decision {
                Decision::Move(ViewIndex::First) => Direction::Cw,
                Decision::Move(ViewIndex::Second) => Direction::Ccw,
                Decision::Idle => unreachable!(),
            };
            current.move_robot_dir(node, dir).unwrap();
        }
        let expected_cycle = [vec![0, 2, k - 2], vec![0, 3, k - 3], vec![1, 2, k - 3]];
        for (i, sizes) in seen.iter().enumerate() {
            assert_eq!(*sizes, expected_cycle[i % 3], "step {i}: {seen:?}");
        }
    }

    #[test]
    fn phase1_reaches_a_final_configuration_from_every_rigid_start() {
        for n in [10usize, 11, 12] {
            let k = n - 3;
            for config in enumerate_rigid_configurations(n, k) {
                let mut sim = Engine::new(
                    NminusThreeProtocol,
                    config.clone(),
                    EngineOptions::for_protocol(&NminusThreeProtocol),
                )
                .unwrap();
                let mut sched = RoundRobinScheduler::new();
                let report = sim.run_until(&mut sched, 50_000, |s| {
                    let sizes = block_sizes(s.configuration());
                    sizes == vec![0, 2, k - 2]
                        || sizes == vec![0, 3, k - 3]
                        || sizes == vec![1, 2, k - 3]
                });
                assert!(report.succeeded(), "n={n} from {config}");
                // All intermediate configurations stay rigid (checked cheaply
                // here by re-checking the final one).
                assert!(symmetry::is_rigid(sim.configuration()));
            }
        }
    }

    #[test]
    fn perpetual_clearing_with_n_minus_3_robots() {
        for n in [10usize, 12, 14] {
            let k = n - 3;
            let config = enumerate_rigid_configurations(n, k)
                .into_iter()
                .next()
                .expect("a rigid configuration exists");
            let mut sched = RoundRobinScheduler::new();
            let stats =
                run_searching(NminusThreeProtocol, &config, &mut sched, 0, 0, 40_000).unwrap();
            assert!(stats.clearings >= 5, "n={n}: {} clearings", stats.clearings);
            assert!(
                stats.min_exploration_completions >= 1,
                "n={n}: exploration {}",
                stats.min_exploration_completions
            );
        }
    }

    #[test]
    fn steady_state_clearing_period_is_three_moves() {
        let n = 12usize;
        let k = n - 3;
        let mut gaps = vec![0usize; 1];
        gaps.push(1);
        gaps.extend(std::iter::repeat_n(0, k - 3));
        gaps.push(2);
        let config = Configuration::from_gaps_at_origin(&gaps);
        let mut sched = RoundRobinScheduler::new();
        let stats = run_searching(NminusThreeProtocol, &config, &mut sched, 0, 0, 30_000).unwrap();
        assert!(stats.clearings >= 5);
        let steady: Vec<u64> = stats.clearing_intervals.iter().copied().skip(1).collect();
        for interval in steady {
            assert_eq!(interval, 3, "intervals {:?}", stats.clearing_intervals);
        }
    }

    #[test]
    fn works_under_adversarial_schedulers() {
        let n = 11usize;
        let k = n - 3;
        let config = enumerate_rigid_configurations(n, k)
            .into_iter()
            .next()
            .unwrap();
        for seed in [5u64, 23] {
            let mut ssync = SemiSynchronousScheduler::seeded(seed);
            let stats =
                run_searching(NminusThreeProtocol, &config, &mut ssync, 0, 0, 40_000).unwrap();
            assert!(stats.clearings >= 3, "ssync seed {seed}");
            let mut asynch = AsynchronousScheduler::seeded(seed);
            let stats =
                run_searching(NminusThreeProtocol, &config, &mut asynch, 0, 0, 80_000).unwrap();
            assert!(stats.clearings >= 3, "async seed {seed}");
        }
    }

    #[test]
    fn decision_is_insensitive_to_view_order() {
        for config in enumerate_rigid_configurations(11, 8) {
            for v in config.occupied_nodes() {
                let cw = Snapshot::capture(&config, v, MultiplicityCapability::None, Direction::Cw);
                let ccw =
                    Snapshot::capture(&config, v, MultiplicityCapability::None, Direction::Ccw);
                match (
                    NminusThreeProtocol.compute(&cw),
                    NminusThreeProtocol.compute(&ccw),
                ) {
                    (Decision::Idle, Decision::Idle) => {}
                    (Decision::Move(a), Decision::Move(b)) => {
                        if cw.views[0] != cw.views[1] {
                            assert_eq!(a.index(), 1 - b.index(), "{config} node {v}");
                        }
                    }
                    other => panic!("inconsistent {other:?} for {config} node {v}"),
                }
            }
        }
    }

    #[test]
    fn wrong_parameters_idle() {
        // k != n - 3: the protocol refuses to move.
        let config = Configuration::from_gaps_at_origin(&[0, 1, 2, 5]);
        for v in config.occupied_nodes() {
            let s = Snapshot::capture(&config, v, MultiplicityCapability::None, Direction::Cw);
            assert_eq!(NminusThreeProtocol.compute(&s), Decision::Idle);
        }
    }
}
