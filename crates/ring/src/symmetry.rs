//! Symmetry, periodicity and rigidity of configurations
//! (Property 1 and Lemma 1 of the paper).
//!
//! Two independent characterizations are implemented and cross-checked in
//! tests:
//!
//! * a *geometric* one, enumerating the `2n` candidate rotations / reflections
//!   of the ring and checking which leave the occupied-node set invariant;
//! * a *combinatorial* one on the cyclic gap sequence (Property 1), which is
//!   what the robots themselves can compute from a view.

use serde::{Deserialize, Serialize};

use crate::config::Configuration;
use crate::supermin::supermin_intervals;
use crate::view::View;

/// An axis of reflection of the ring, encoded by the integer `c` of the map
/// `v ↦ (c - v) mod n`.
///
/// If `c` is even the axis passes through node `c/2` (and through node
/// `c/2 + n/2` or the opposite edge depending on parity of `n`); if `c` is
/// odd it passes through the edge between nodes `(c-1)/2` and `(c+1)/2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Axis {
    /// The reflection constant `c` (in `0..2n`).
    pub c: usize,
    /// Ring size, kept so the axis can be interpreted independently.
    pub n: usize,
}

impl Axis {
    /// Image of node `v` under this reflection.
    #[must_use]
    pub fn reflect(&self, v: usize) -> usize {
        (self.c + self.n - (v % self.n)) % self.n
    }

    /// The nodes fixed by this reflection (0, 1 or 2 nodes).
    #[must_use]
    pub fn fixed_nodes(&self) -> Vec<usize> {
        (0..self.n).filter(|&v| self.reflect(v) == v).collect()
    }
}

/// Coarse classification of a configuration (the paper's trichotomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConfigurationClass {
    /// Aperiodic and asymmetric.
    Rigid,
    /// Aperiodic but admitting at least one axis of symmetry (then exactly one,
    /// by Property 1 (iii)).
    SymmetricAperiodic,
    /// Invariant under a non-trivial rotation.
    Periodic,
}

/// Full symmetry analysis of a configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymmetryInfo {
    /// Whether the occupied set is invariant under some non-trivial rotation.
    pub periodic: bool,
    /// Whether the occupied set is invariant under some reflection.
    pub symmetric: bool,
    /// The smallest strictly positive rotation (in nodes) fixing the occupied
    /// set; equals `n` iff the configuration is aperiodic.
    pub period: usize,
    /// All axes of symmetry.
    pub axes: Vec<Axis>,
}

impl SymmetryInfo {
    /// Whether the configuration is rigid (aperiodic and asymmetric).
    #[must_use]
    pub fn is_rigid(&self) -> bool {
        !self.periodic && !self.symmetric
    }

    /// The coarse class.
    #[must_use]
    pub fn class(&self) -> ConfigurationClass {
        if self.periodic {
            ConfigurationClass::Periodic
        } else if self.symmetric {
            ConfigurationClass::SymmetricAperiodic
        } else {
            ConfigurationClass::Rigid
        }
    }
}

/// Geometric symmetry analysis of the occupied-node set of `config`.
#[must_use]
pub fn analyze(config: &Configuration) -> SymmetryInfo {
    let n = config.n();
    let occupied: Vec<bool> = (0..n).map(|v| config.is_occupied(v)).collect();

    let mut period = n;
    for t in 1..n {
        if (0..n).all(|v| occupied[v] == occupied[(v + t) % n]) {
            period = t;
            break;
        }
    }
    let periodic = period < n;

    let mut axes = Vec::new();
    for c in 0..(2 * n) {
        let axis = Axis { c: c % (2 * n), n };
        // The reflection v ↦ (c - v) mod n; c and c + n give the same map on
        // nodes when considered mod n?  No: (c - v) and (c + n - v) coincide
        // mod n, so only c in 0..n yields distinct maps.
        if c >= n {
            break;
        }
        if (0..n).all(|v| occupied[v] == occupied[axis.reflect(v)]) {
            axes.push(axis);
        }
    }
    let symmetric = !axes.is_empty();

    SymmetryInfo {
        periodic,
        symmetric,
        period,
        axes,
    }
}

/// Whether `config` is rigid (aperiodic and asymmetric).
#[must_use]
pub fn is_rigid(config: &Configuration) -> bool {
    analyze(config).is_rigid()
}

/// Whether `config` is symmetric (admits an axis of reflection).
#[must_use]
pub fn is_symmetric(config: &Configuration) -> bool {
    analyze(config).symmetric
}

/// Whether `config` is periodic (invariant under a non-trivial rotation).
#[must_use]
pub fn is_periodic(config: &Configuration) -> bool {
    analyze(config).periodic
}

/// The coarse classification of `config`.
#[must_use]
pub fn classify(config: &Configuration) -> ConfigurationClass {
    analyze(config).class()
}

/// Checks Lemma 1 of the paper on a single configuration, returning `Err` with
/// a description if the configuration violates it (used as a sanity oracle in
/// tests and in the checker crate).
pub fn check_lemma1(config: &Configuration) -> Result<(), String> {
    let info = analyze(config);
    let sm = supermin_intervals(config);
    let ic = sm.multiplicity();
    let n = config.n();
    match ic {
        1 => {
            // Rigid, or a unique axis passing through the supermin interval.
            if info.is_rigid() || (!info.periodic && info.axes.len() == 1) {
                Ok(())
            } else {
                Err(format!(
                    "|I_C| = 1 but configuration {config} is neither rigid nor uniquely symmetric"
                ))
            }
        }
        2 => {
            let half_period = info.periodic && info.period == n / 2 && n.is_multiple_of(2);
            let sym_not_through = !info.periodic && info.symmetric;
            if half_period || sym_not_through {
                Ok(())
            } else {
                Err(format!(
                    "|I_C| = 2 but configuration {config} is neither aperiodic-symmetric nor n/2-periodic"
                ))
            }
        }
        _ => {
            // Lemma 1 (iii) states periodicity with period <= n/3; configurations
            // that are simultaneously n/2-periodic *and* symmetric also exhibit
            // |I_C| > 2 (e.g. gaps (0,0,1,0,0,1)), which the coarse statement of
            // the lemma glosses over — accept them as well.
            let small_period = info.period * 3 <= n;
            let half_period_symmetric = info.period * 2 == n && info.symmetric;
            if info.periodic && (small_period || half_period_symmetric) {
                Ok(())
            } else {
                Err(format!(
                    "|I_C| = {ic} > 2 but configuration {config} is not periodic with period <= n/3 \
                     (nor n/2-periodic and symmetric)"
                ))
            }
        }
    }
}

/// Combinatorial (view-based, Property 1) classification, used to cross-check
/// the geometric analysis.
#[must_use]
pub fn classify_by_views(config: &Configuration) -> ConfigurationClass {
    let w = View::new(config.gap_sequence());
    if w.is_periodic() {
        ConfigurationClass::Periodic
    } else if w.is_symmetric() {
        ConfigurationClass::SymmetricAperiodic
    } else {
        ConfigurationClass::Rigid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;

    fn cfg(gaps: &[usize]) -> Configuration {
        Configuration::from_gaps_at_origin(gaps)
    }

    #[test]
    fn axis_reflection_is_involutive() {
        let axis = Axis { c: 3, n: 9 };
        for v in 0..9 {
            assert_eq!(axis.reflect(axis.reflect(v)), v);
        }
    }

    #[test]
    fn rigid_examples() {
        assert!(is_rigid(&cfg(&[0, 1, 1, 2])));
        assert!(is_rigid(&cfg(&[0, 0, 0, 1, 6])));
        assert!(is_rigid(&cfg(&[0, 1, 2, 5])));
    }

    #[test]
    fn symmetric_examples() {
        assert!(is_symmetric(&cfg(&[0, 0, 2, 2])));
        assert!(is_symmetric(&cfg(&[1, 1, 4])));
        assert!(!is_symmetric(&cfg(&[0, 1, 1, 2])));
    }

    #[test]
    fn periodic_examples() {
        assert!(is_periodic(&cfg(&[1, 1, 1, 1])));
        assert!(is_periodic(&cfg(&[0, 3, 0, 3])));
        assert!(!is_periodic(&cfg(&[0, 1, 1, 2])));
    }

    #[test]
    fn classification_matches_view_based_classification() {
        // Cross-check the geometric and the combinatorial (Property 1)
        // characterizations on every 5-robot configuration of a 10-ring.
        let ring = Ring::new(10);
        let nodes: Vec<usize> = (0..10).collect();
        let mut checked = 0;
        for a in 0..10usize {
            for b in (a + 1)..10 {
                for c in (b + 1)..10 {
                    for d in (c + 1)..10 {
                        for e in (d + 1)..10 {
                            let occ = [nodes[a], nodes[b], nodes[c], nodes[d], nodes[e]];
                            let conf = Configuration::new_exclusive(ring, &occ).unwrap();
                            assert_eq!(classify(&conf), classify_by_views(&conf), "{conf}");
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 252);
    }

    #[test]
    fn aperiodic_symmetric_has_unique_axis() {
        // Property 1 (iii): aperiodic and symmetric => exactly one axis.
        let examples = [
            cfg(&[0, 0, 2, 2]),
            cfg(&[1, 1, 4]),
            cfg(&[0, 2, 0, 4]),
            cfg(&[0, 1, 3, 1]),
        ];
        for c in examples {
            let info = analyze(&c);
            assert!(!info.periodic, "{c}");
            assert!(info.symmetric, "{c}");
            assert_eq!(info.axes.len(), 1, "{c}");
        }
    }

    #[test]
    fn lemma1_holds_on_all_small_configurations() {
        for n in 4..=10usize {
            for k in 1..n {
                let ring = Ring::new(n);
                // Enumerate all k-subsets of 0..n via bitmasks (n <= 10).
                for mask in 0u32..(1 << n) {
                    if mask.count_ones() as usize != k {
                        continue;
                    }
                    let occ: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
                    let conf = Configuration::new_exclusive(ring, &occ).unwrap();
                    check_lemma1(&conf).unwrap();
                }
            }
        }
    }

    #[test]
    fn period_divides_ring_size_for_occupancy() {
        let c = cfg(&[0, 3, 0, 3]);
        let info = analyze(&c);
        assert!(info.periodic);
        assert_eq!(info.period, 5);
        assert_eq!(c.n() % info.period, 0);
    }

    #[test]
    fn rigid_implies_all_views_distinct() {
        let c = cfg(&[0, 1, 2, 5]);
        assert!(is_rigid(&c));
        let views: Vec<_> = c.all_views().into_iter().map(|(_, _, w)| w).collect();
        for i in 0..views.len() {
            for j in (i + 1)..views.len() {
                assert_ne!(views[i], views[j]);
            }
        }
    }

    #[test]
    fn class_enum_round_trip() {
        assert_eq!(classify(&cfg(&[0, 1, 1, 2])), ConfigurationClass::Rigid);
        assert_eq!(
            classify(&cfg(&[0, 0, 2, 2])),
            ConfigurationClass::SymmetricAperiodic
        );
        assert_eq!(classify(&cfg(&[1, 1, 1, 1])), ConfigurationClass::Periodic);
    }

    #[test]
    fn fixed_nodes_of_axes() {
        // Even ring, axis through two opposite nodes.
        let axis = Axis { c: 0, n: 8 };
        assert_eq!(axis.fixed_nodes(), vec![0, 4]);
        // Even ring, axis through two opposite edges.
        let axis = Axis { c: 1, n: 8 };
        assert!(axis.fixed_nodes().is_empty());
        // Odd ring: every axis passes through exactly one node.
        let axis = Axis { c: 2, n: 9 };
        assert_eq!(axis.fixed_nodes(), vec![1]);
    }
}
