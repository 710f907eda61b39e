//! Robot relabelings: the automorphism bookkeeping that makes the checker's
//! 2n-fold canonical quotient sound for **liveness**, not just safety.
//!
//! The canonical quotient identifies states up to ring automorphism *and*
//! robot relabeling (`PackedState::canonical_sig`).  For safety that is
//! free: a bad state is bad in every relabeling.  For liveness it is not —
//! fairness is a *per-robot* property, and a cycle in the quotient graph
//! only witnesses an unfair concrete run unless the robot relabeling
//! accumulated along the cycle is tracked and the activation sets are
//! mapped back through it.  [`RobotPerm`] is that bookkeeping: a permutation
//! of robot ids small enough to live in one `u64`, and
//! [`relabel_onto`] computes the *deterministic* alignment between two
//! class-equal states that the checker threads along quotient edges.
//!
//! Determinism matters as much as correctness here: the alignment must be a
//! pure function of the two packed states' bits (never of discovery order or
//! of which thread runs the search), because the quotient-liveness verdict
//! and any extracted counterexample must be byte-identical across storage
//! backends and across the threads a grid runs its classes on.  The
//! alignment goes through each state's [`rr_corda::CanonicalTransform`]: map every
//! robot to its (canonical node index, canonical phase) cell, sort with
//! robot id as the tie-break, and pair by rank.  Robots in identical cells
//! are interchangeable (any pairing is a valid isomorphism), so the id
//! tie-break is a deterministic choice among correct answers.

use rr_corda::packed::{PHASE_MOVE_CCW, PHASE_MOVE_CW};
use rr_corda::PackedState;

/// Largest robot count a [`RobotPerm`] supports: 4 bits per image in one
/// `u64`.  The exhaustive checker asserts `k ≤ 16` before entering the
/// quotient-liveness pass (its grids stop far below that anyway).
pub const MAX_PERM_ROBOTS: usize = 16;

/// A permutation of robot ids `0..k`, packed 4 bits per image.
///
/// Composition follows function notation: `a.compose(&b)` is `a ∘ b`,
/// the permutation mapping `i ↦ a(b(i))`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct RobotPerm {
    k: u8,
    bits: u64,
}

impl std::fmt::Debug for RobotPerm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RobotPerm[")?;
        for i in 0..usize::from(self.k) {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", self.apply(i))?;
        }
        write!(f, "]")
    }
}

impl RobotPerm {
    /// The identity permutation on `k` robots.
    ///
    /// # Panics
    ///
    /// Panics if `k >` [`MAX_PERM_ROBOTS`].
    #[must_use]
    pub fn identity(k: usize) -> Self {
        assert!(k <= MAX_PERM_ROBOTS, "RobotPerm supports k ≤ 16");
        let mut bits = 0u64;
        for i in 0..k {
            bits |= (i as u64) << (4 * i);
        }
        RobotPerm { k: k as u8, bits }
    }

    /// Builds a permutation from its image table: robot `i` maps to
    /// `images[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `images` is longer than [`MAX_PERM_ROBOTS`] or is not a
    /// permutation of `0..images.len()`.
    #[must_use]
    pub fn from_images(images: &[usize]) -> Self {
        let k = images.len();
        let mut perm = RobotPerm::identity(k);
        let mut seen = 0u32;
        let mut bits = 0u64;
        for (i, &image) in images.iter().enumerate() {
            assert!(image < k && seen & (1 << image) == 0, "not a permutation");
            seen |= 1 << image;
            bits |= (image as u64) << (4 * i);
        }
        perm.bits = bits;
        perm
    }

    /// Number of robots the permutation acts on.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.k)
    }

    /// Whether the permutation acts on zero robots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// The image of robot `i`.
    #[must_use]
    pub fn apply(&self, i: usize) -> usize {
        debug_assert!(i < usize::from(self.k));
        ((self.bits >> (4 * i)) & 0xF) as usize
    }

    /// Function composition `self ∘ other`: `i ↦ self(other(i))`.
    #[must_use]
    pub fn compose(&self, other: &RobotPerm) -> RobotPerm {
        debug_assert_eq!(self.k, other.k);
        let mut bits = 0u64;
        for i in 0..usize::from(self.k) {
            bits |= (self.apply(other.apply(i)) as u64) << (4 * i);
        }
        RobotPerm { k: self.k, bits }
    }

    /// The inverse permutation.
    #[must_use]
    pub fn inverse(&self) -> RobotPerm {
        let mut bits = 0u64;
        for i in 0..usize::from(self.k) {
            bits |= (i as u64) << (4 * self.apply(i));
        }
        RobotPerm { k: self.k, bits }
    }

    /// The image of an activation bitmask: bit `i` of `mask` lights bit
    /// `self(i)` of the result.  This is how a stored quotient edge's
    /// activation set is read back as a *concrete* per-robot activation.
    #[must_use]
    pub fn image_mask(&self, mask: u32) -> u32 {
        let mut out = 0u32;
        let mut rest = mask;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            out |= 1 << self.apply(i);
        }
        out
    }

    /// Whether this is the identity permutation.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        *self == RobotPerm::identity(usize::from(self.k))
    }
}

/// The deterministic robot alignment between two class-equal states: a
/// [`RobotPerm`] `π` such that robot `i` of `from` corresponds to robot
/// `π(i)` of `to` under a dihedral isomorphism mapping `from` onto `to`.
/// Returns `None` if the states are not in the same canonical class (or
/// differ in instance).
///
/// Both states are mapped through their own [`CanonicalTransform`]s onto the
/// shared canonical word; robots are sorted by (canonical node index,
/// canonical phase, robot id) and paired by rank.  The result depends only
/// on the two states' bits — the property the quotient-liveness pass relies
/// on for verdicts that do not depend on discovery order or storage.
///
/// [`CanonicalTransform`]: rr_corda::CanonicalTransform
///
/// # Panics
///
/// Panics if `k >` [`MAX_PERM_ROBOTS`].
#[must_use]
pub fn relabel_onto(from: &PackedState, to: &PackedState) -> Option<RobotPerm> {
    let (n, k) = from.instance();
    if to.instance() != (n, k) {
        return None;
    }
    assert!(k <= MAX_PERM_ROBOTS, "relabel_onto supports k ≤ 16");
    let rank = |state: &PackedState| -> Vec<(usize, u64, usize)> {
        let transform = state.canonical_transform();
        let mut cells: Vec<(usize, u64, usize)> = state
            .robot_cells()
            .into_iter()
            .enumerate()
            .map(|(id, (node, phase))| {
                (
                    transform.canonical_index(n, node),
                    transform.canonical_phase(phase),
                    id,
                )
            })
            .collect();
        cells.sort_unstable();
        cells
    };
    let from_ranked = rank(from);
    let to_ranked = rank(to);
    // Class-equal states present identical (index, phase) multisets; any
    // mismatch means the states are not actually in the same class.
    let mut images = vec![0usize; k];
    for (f, t) in from_ranked.iter().zip(&to_ranked) {
        if (f.0, f.1) != (t.0, t.1) {
            return None;
        }
        images[f.2] = t.2;
    }
    Some(RobotPerm::from_images(&images))
}

/// Whether a packed phase code is a pending move (cw or ccw) — a helper for
/// checking that an alignment transported move directions coherently.
#[must_use]
pub fn is_pending_move(phase: u64) -> bool {
    phase == PHASE_MOVE_CW || phase == PHASE_MOVE_CCW
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_corda::packed::{PHASE_IDLE, PHASE_READY};
    use rr_corda::protocol::GreedyGapWalker;
    use rr_corda::{Engine, EngineOptions, RobotSet, SchedulerStep};
    use rr_ring::Configuration;

    #[test]
    fn perm_algebra_holds() {
        let p = RobotPerm::from_images(&[2, 0, 1, 3]);
        let q = RobotPerm::from_images(&[1, 2, 3, 0]);
        assert_eq!(p.apply(0), 2);
        assert_eq!(p.compose(&p.inverse()), RobotPerm::identity(4));
        assert_eq!(p.inverse().compose(&p), RobotPerm::identity(4));
        // (p ∘ q)(i) = p(q(i)).
        let pq = p.compose(&q);
        for i in 0..4 {
            assert_eq!(pq.apply(i), p.apply(q.apply(i)));
        }
        assert!(RobotPerm::identity(4).is_identity());
        assert!(!p.is_identity());
    }

    #[test]
    fn image_mask_tracks_apply() {
        let p = RobotPerm::from_images(&[2, 0, 1]);
        assert_eq!(p.image_mask(0b001), 0b100);
        assert_eq!(p.image_mask(0b011), 0b101);
        assert_eq!(p.image_mask(0b111), 0b111);
        assert_eq!(p.image_mask(0), 0);
    }

    #[test]
    fn self_alignment_is_the_identity() {
        let engine = Engine::new(
            GreedyGapWalker,
            Configuration::from_gaps_at_origin(&[1, 2, 4]),
            EngineOptions::default(),
        )
        .unwrap();
        let packed = engine.pack_behavior();
        let perm = relabel_onto(&packed, &packed).unwrap();
        assert!(perm.is_identity());
    }

    #[test]
    fn rotated_states_align_cell_for_cell() {
        // The same gap word placed at two different ring origins: equal
        // canonical class, and the alignment must map each robot of one
        // state onto a robot of the other sitting in the same canonical
        // cell.
        let a = Engine::new(
            GreedyGapWalker,
            Configuration::from_gaps_at_origin(&[1, 2, 4]),
            EngineOptions::default(),
        )
        .unwrap();
        let mut b = Engine::new(
            GreedyGapWalker,
            Configuration::from_gaps_at_origin(&[1, 2, 4]),
            EngineOptions::default(),
        )
        .unwrap();
        // Advance `b` by a full fair round and back so its robots hold the
        // same configuration but were *relabeled* by the dynamics; fall back
        // to the raw rotation check if the protocol moved them.
        let _ = b.step(&SchedulerStep::SsyncRound(RobotSet::first(3)), &mut ());
        let pa = a.pack_behavior();
        let pb = b.pack_behavior();
        if pa.canonical_sig() == pb.canonical_sig() {
            let perm = relabel_onto(&pa, &pb).unwrap();
            let (n, _) = pa.instance();
            let ta = pa.canonical_transform();
            let tb = pb.canonical_transform();
            let cells_a = pa.robot_cells();
            let cells_b = pb.robot_cells();
            for (i, &(node, phase)) in cells_a.iter().enumerate() {
                let (bn, bp) = cells_b[perm.apply(i)];
                assert_eq!(
                    ta.canonical_index(n, node),
                    tb.canonical_index(n, bn),
                    "robot {i} landed on a different canonical node"
                );
                assert_eq!(ta.canonical_phase(phase), tb.canonical_phase(bp));
            }
        } else {
            // Different class: alignment must refuse.
            assert!(relabel_onto(&pa, &pb).is_none());
        }
    }

    #[test]
    fn phase_helpers_classify_codes() {
        assert!(!is_pending_move(PHASE_READY));
        assert!(!is_pending_move(PHASE_IDLE));
        assert!(is_pending_move(rr_corda::packed::PHASE_MOVE_CW));
        assert!(is_pending_move(rr_corda::packed::PHASE_MOVE_CCW));
    }
}
