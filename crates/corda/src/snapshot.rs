//! The local snapshot a robot obtains during its Look phase.

use rr_ring::{Configuration, Direction, NodeId, View};
use serde::{Deserialize, Serialize};

/// Which multiplicity-detection capability the robots are granted
/// (Section 2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MultiplicityCapability {
    /// No multiplicity detection at all: a robot only perceives the set of
    /// occupied nodes.
    None,
    /// *Local* (weak) multiplicity detection: a robot knows whether its own
    /// node hosts more than one robot, but not the exact count and nothing
    /// about other nodes.  This is the capability assumed for gathering.
    Local,
    /// *Global* multiplicity detection: a robot knows, for every occupied
    /// node, whether it hosts more than one robot.  Not needed by the paper's
    /// algorithms; provided for completeness and for baselines.
    Global,
}

/// The information a robot perceives during its Look phase.
///
/// The robot has no sense of orientation: it receives its two directional
/// views in an order chosen by the simulator (effectively by the adversary)
/// and must not attach any meaning to the order beyond "these are my two
/// reading directions".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// The two views read from the robot's node, one per direction.
    pub views: [View; 2],
    /// Whether the robot's own node is a multiplicity (only with
    /// [`MultiplicityCapability::Local`] or `Global`).
    pub on_multiplicity: Option<bool>,
    /// With [`MultiplicityCapability::Global`]: for each occupied node in the
    /// reading order of `views[0]` (starting with the robot's own node),
    /// whether that node is a multiplicity.
    pub global_multiplicities: Option<Vec<bool>>,
}

impl Snapshot {
    /// An empty snapshot, ready to be filled by [`Snapshot::capture_into`]:
    /// the scratch buffer engines own for the zero-allocation Look pipeline.
    #[must_use]
    pub fn empty() -> Self {
        Snapshot {
            views: [View::new(Vec::new()), View::new(Vec::new())],
            on_multiplicity: None,
            global_multiplicities: None,
        }
    }

    /// Builds the snapshot perceived by a robot standing at `node` in
    /// `config`, with the given capability.  `first_direction` determines
    /// which global direction is presented as `views[0]`; protocols must not
    /// depend on it.
    #[must_use]
    pub fn capture(
        config: &Configuration,
        node: NodeId,
        capability: MultiplicityCapability,
        first_direction: Direction,
    ) -> Self {
        let mut snapshot = Snapshot::empty();
        snapshot.capture_into(config, node, capability, first_direction);
        snapshot
    }

    /// Fills `self` with the snapshot [`Snapshot::capture`] would return,
    /// reusing the existing view buffers and multiplicity-flag vector: O(k)
    /// end to end (both views and the `Global` flags read straight off the
    /// configuration's maintained occupancy cycle) and allocation-free once
    /// the buffers have capacity `k`.  This is the Look hot path the engine
    /// runs on its own scratch snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not occupied.
    pub fn capture_into(
        &mut self,
        config: &Configuration,
        node: NodeId,
        capability: MultiplicityCapability,
        first_direction: Direction,
    ) {
        let d0 = first_direction;
        let d1 = first_direction.opposite();
        config.view_from_into(node, d0, &mut self.views[0]);
        config.view_from_into(node, d1, &mut self.views[1]);
        self.on_multiplicity = match capability {
            MultiplicityCapability::None => None,
            MultiplicityCapability::Local | MultiplicityCapability::Global => {
                Some(config.is_multiplicity(node))
            }
        };
        if capability == MultiplicityCapability::Global {
            // One O(k) pass over the occupied cycle, in the order of
            // views[0] (which starts at the robot's own node).
            let flags = self.global_multiplicities.get_or_insert_with(Vec::new);
            flags.clear();
            flags.extend(
                config
                    .occupied_cycle(node, d0)
                    .map(|v| config.is_multiplicity(v)),
            );
        } else {
            self.global_multiplicities = None;
        }
    }

    /// Applies one bounded sensor corruption to a captured snapshot: the
    /// fault-injection hook behind
    /// [`FaultModel::CorruptLook`](crate::fault::FaultModel::CorruptLook).
    ///
    /// Only the multiplicity channel is perturbed — the gap views stay
    /// truthful, so the lie is a single sensor bit:
    ///
    /// * [`CorruptionKind::PhantomMultiplicity`](crate::fault::CorruptionKind::PhantomMultiplicity)
    ///   reports the robot's own node
    ///   as a multiplicity (raising the own-node flag of the `Global` vector
    ///   too, when present);
    /// * [`CorruptionKind::MissingMultiplicity`](crate::fault::CorruptionKind::MissingMultiplicity)
    ///   hides a real multiplicity on
    ///   the robot's own node (lowering the own-node `Global` flag too).
    ///
    /// Under [`MultiplicityCapability::None`] the snapshot carries no
    /// multiplicity channel and the corruption is a no-op: a sensor the
    /// robots do not have cannot lie to them.
    pub fn corrupt(&mut self, kind: crate::fault::CorruptionKind) {
        use crate::fault::CorruptionKind;
        let lie = match kind {
            CorruptionKind::PhantomMultiplicity => true,
            CorruptionKind::MissingMultiplicity => false,
        };
        if let Some(own) = self.on_multiplicity.as_mut() {
            *own = lie;
        }
        if let Some(flags) = self.global_multiplicities.as_mut() {
            if let Some(own) = flags.first_mut() {
                *own = lie;
            }
        }
    }

    /// Number of occupied nodes visible in the snapshot.
    #[must_use]
    pub fn occupied_nodes(&self) -> usize {
        self.views[0].len()
    }

    /// The size of the ring implied by the snapshot
    /// (`#occupied + sum of gaps`).
    #[must_use]
    pub fn ring_size(&self) -> usize {
        self.views[0].len() + self.views[0].total_gap()
    }

    /// The supermin configuration view reconstructed from the snapshot; since
    /// a view determines the configuration up to isomorphism this is exactly
    /// the paper's `W_min^C`.
    #[must_use]
    pub fn supermin(&self) -> View {
        self.views[0].supermin()
    }

    /// Whether the two directional views coincide (the robot sits on an axis
    /// of symmetry or in a periodic configuration where both directions look
    /// alike); in that case any move decision is inherently ambiguous and the
    /// adversary picks the actual direction.
    #[must_use]
    pub fn is_locally_symmetric(&self) -> bool {
        self.views[0] == self.views[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_ring::Ring;

    // The O(n)-scan reference `capture_scan`; test-only, shared with
    // `tests/look_reference.rs`.
    include!("../tests/common/scan_snapshot.rs");

    fn cfg(gaps: &[usize]) -> Configuration {
        Configuration::from_gaps_at_origin(gaps)
    }

    #[test]
    fn capture_produces_both_directions() {
        let c = cfg(&[0, 1, 0, 0, 6]);
        let s = Snapshot::capture(&c, 0, MultiplicityCapability::None, Direction::Cw);
        assert_eq!(s.views[0], c.view_from(0, Direction::Cw));
        assert_eq!(s.views[1], c.view_from(0, Direction::Ccw));
        assert_eq!(s.on_multiplicity, None);
        assert_eq!(s.global_multiplicities, None);
        assert_eq!(s.occupied_nodes(), 5);
        assert_eq!(s.ring_size(), 12);
    }

    #[test]
    fn capture_respects_first_direction() {
        let c = cfg(&[0, 1, 0, 0, 6]);
        let cw = Snapshot::capture(&c, 0, MultiplicityCapability::None, Direction::Cw);
        let ccw = Snapshot::capture(&c, 0, MultiplicityCapability::None, Direction::Ccw);
        assert_eq!(cw.views[0], ccw.views[1]);
        assert_eq!(cw.views[1], ccw.views[0]);
    }

    #[test]
    fn local_multiplicity_flag() {
        let ring = Ring::new(8);
        let c = Configuration::from_counts(ring, vec![2, 0, 1, 0, 0, 1, 0, 0]).unwrap();
        let s = Snapshot::capture(&c, 0, MultiplicityCapability::Local, Direction::Cw);
        assert_eq!(s.on_multiplicity, Some(true));
        let s = Snapshot::capture(&c, 2, MultiplicityCapability::Local, Direction::Cw);
        assert_eq!(s.on_multiplicity, Some(false));
        assert!(s.global_multiplicities.is_none());
    }

    #[test]
    fn global_multiplicity_flags_follow_view_order() {
        let ring = Ring::new(8);
        let c = Configuration::from_counts(ring, vec![2, 0, 1, 0, 0, 3, 0, 0]).unwrap();
        let s = Snapshot::capture(&c, 2, MultiplicityCapability::Global, Direction::Cw);
        // Occupied nodes in cw order from node 2: 2, 5, 0.
        assert_eq!(s.global_multiplicities, Some(vec![false, true, true]));
        let s = Snapshot::capture(&c, 2, MultiplicityCapability::Global, Direction::Ccw);
        // Occupied nodes in ccw order from node 2: 2, 0, 5.
        assert_eq!(s.global_multiplicities, Some(vec![false, true, true]));
    }

    #[test]
    fn supermin_is_direction_independent() {
        let c = cfg(&[0, 2, 1, 5]);
        for node in c.occupied_nodes() {
            for dir in Direction::BOTH {
                let s = Snapshot::capture(&c, node, MultiplicityCapability::None, dir);
                assert_eq!(s.supermin(), rr_ring::supermin_view(&c));
            }
        }
    }

    #[test]
    fn capture_into_and_scan_agree_with_capture_everywhere() {
        // Every capability × direction × node, with multiplicities: the
        // buffer-reusing capture, the allocating wrapper and the O(n)-scan
        // reference must produce identical snapshots — including a reused
        // scratch that previously held a different instance's data.
        let ring = Ring::new(9);
        let c = Configuration::from_counts(ring, vec![2, 0, 1, 0, 0, 3, 1, 0, 0]).unwrap();
        let mut scratch = Snapshot::capture(
            &cfg(&[0, 1, 3]),
            0,
            MultiplicityCapability::Global,
            Direction::Cw,
        );
        for capability in [
            MultiplicityCapability::None,
            MultiplicityCapability::Local,
            MultiplicityCapability::Global,
        ] {
            for node in c.occupied_nodes() {
                for dir in Direction::BOTH {
                    let fresh = Snapshot::capture(&c, node, capability, dir);
                    let scan = capture_scan(&c, node, capability, dir);
                    scratch.capture_into(&c, node, capability, dir);
                    assert_eq!(fresh, scan, "node={node} capability={capability:?}");
                    assert_eq!(scratch, scan, "node={node} capability={capability:?}");
                }
            }
        }
    }

    #[test]
    fn corrupt_perturbs_only_the_multiplicity_channel() {
        use crate::fault::CorruptionKind;
        let ring = Ring::new(8);
        let c = Configuration::from_counts(ring, vec![2, 0, 1, 0, 0, 3, 0, 0]).unwrap();
        // Phantom on a non-multiplicity node (Local).
        let clean = Snapshot::capture(&c, 2, MultiplicityCapability::Local, Direction::Cw);
        let mut s = clean.clone();
        s.corrupt(CorruptionKind::PhantomMultiplicity);
        assert_eq!(s.on_multiplicity, Some(true));
        assert_eq!(s.views, clean.views, "views stay truthful");
        // Missing on a real multiplicity (Global): own-node flag drops too.
        let clean = Snapshot::capture(&c, 0, MultiplicityCapability::Global, Direction::Cw);
        let mut s = clean.clone();
        s.corrupt(CorruptionKind::MissingMultiplicity);
        assert_eq!(s.on_multiplicity, Some(false));
        let flags = s.global_multiplicities.as_ref().unwrap();
        assert!(!flags[0]);
        assert_eq!(
            &flags[1..],
            &clean.global_multiplicities.as_ref().unwrap()[1..],
            "other nodes' flags untouched"
        );
        // Capability None: nothing to corrupt.
        let clean = Snapshot::capture(&c, 2, MultiplicityCapability::None, Direction::Cw);
        let mut s = clean.clone();
        s.corrupt(CorruptionKind::PhantomMultiplicity);
        assert_eq!(s, clean);
    }

    #[test]
    fn local_symmetry_detection() {
        // Robot 3 in gaps (2,2,0,0) sits on the axis.
        let c = cfg(&[0, 0, 2, 2]);
        let occ = c.occupied_nodes();
        // occupied: 0,1,2,5 on n=8; the axis robot is node 1 (gaps 0 on both sides)?
        // Verify via the snapshot predicate instead of hand-reasoning:
        let symmetric_nodes: Vec<_> = occ
            .iter()
            .copied()
            .filter(|&v| {
                Snapshot::capture(&c, v, MultiplicityCapability::None, Direction::Cw)
                    .is_locally_symmetric()
            })
            .collect();
        assert_eq!(symmetric_nodes.len(), 2);
    }
}
