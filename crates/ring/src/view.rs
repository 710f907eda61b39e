//! Interval views as perceived by robots (Section 2 of the paper).
//!
//! A *view* at an occupied node `r` is the sequence of lengths of the
//! intervals (maximal runs of empty nodes) met when traversing the ring in one
//! direction starting from `r`.  A robot has two views, one per direction, and
//! — having no sense of orientation — cannot tell which is which.
//!
//! Views are compared lexicographically; all views of the same configuration
//! have the same length, so the lexicographic order used throughout the paper
//! is exactly the derived `Ord` on the underlying vector.

use serde::{Deserialize, Serialize};

/// A view: the cyclic sequence of interval lengths read from an occupied node
/// in one direction, as a linear sequence starting with the interval adjacent
/// to that node in that direction.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct View {
    gaps: Vec<usize>,
}

impl View {
    /// Builds a view from its interval lengths.
    ///
    /// The view of a robot in a configuration always contains at least one
    /// interval (the one closing the cycle back to the observing robot), but
    /// `View` doubles as the workspace's generic cyclic-word type (canonical
    /// state signatures, Booth scans over encoded words), so **every** length
    /// is accepted — including the degenerate cases:
    ///
    /// * the **empty** view (`k = 0`) is the empty cyclic word: aperiodic
    ///   ([`View::period`] `== 0 == len()`), symmetric, and fixed by every
    ///   rotation and reflection;
    /// * a **singleton** view (`k = 1`) is aperiodic (its only period is the
    ///   trivial one, `period() == 1 == len()`) and symmetric.
    #[must_use]
    pub fn new(gaps: Vec<usize>) -> Self {
        View { gaps }
    }

    /// The interval lengths, in reading order.
    #[must_use]
    pub fn gaps(&self) -> &[usize] {
        &self.gaps
    }

    /// Empties the view in place, keeping the gap buffer's allocation.
    ///
    /// Together with [`View::push`] this is the buffer-reuse surface of the
    /// zero-allocation Look pipeline: `Configuration::view_from_into` clears
    /// a caller-owned view and refills it without touching the heap.
    pub fn clear(&mut self) {
        self.gaps.clear();
    }

    /// Appends one interval length (the in-place counterpart of building a
    /// view from a `Vec`; see [`View::clear`]).
    pub fn push(&mut self, gap: usize) {
        self.gaps.push(gap);
    }

    /// Number of intervals in the view (equals the number of occupied nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// Whether the view is empty (the degenerate `k = 0` cyclic word; never
    /// produced by reading a configuration, which always has at least one
    /// interval).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gaps.is_empty()
    }

    /// Sum of the interval lengths (equals `n - #occupied nodes`).
    #[must_use]
    pub fn total_gap(&self) -> usize {
        self.gaps.iter().sum()
    }

    /// The interval length at position `i`.
    #[must_use]
    pub fn gap(&self, i: usize) -> usize {
        self.gaps[i]
    }

    /// The view `W_i` of the paper: the same cyclic sequence read starting
    /// from interval `i`.  The empty view is fixed by every rotation.
    #[must_use]
    pub fn rotation(&self, i: usize) -> View {
        let k = self.gaps.len();
        if k == 0 {
            return self.clone();
        }
        let i = i % k;
        let mut gaps = Vec::with_capacity(k);
        gaps.extend_from_slice(&self.gaps[i..]);
        gaps.extend_from_slice(&self.gaps[..i]);
        View { gaps }
    }

    /// The view read from the same robot in the opposite direction:
    /// the plain reversal `(q_{k-1}, ..., q_1, q_0)`.
    #[must_use]
    pub fn opposite_direction(&self) -> View {
        let mut gaps = self.gaps.clone();
        gaps.reverse();
        View { gaps }
    }

    /// The paper's `W̄ = (q_0, q_{k-1}, q_{k-2}, ..., q_1)`: the reflection of
    /// the view that keeps the first interval in place.  The empty view is
    /// its own reflection.
    #[must_use]
    pub fn reflection(&self) -> View {
        let Some(&first) = self.gaps.first() else {
            return self.clone();
        };
        let mut gaps = Vec::with_capacity(self.gaps.len());
        gaps.push(first);
        gaps.extend(self.gaps[1..].iter().rev().copied());
        View { gaps }
    }

    /// The paper's `W̄_i`: the reflection read starting from interval `i`.
    #[must_use]
    pub fn reflection_rotation(&self, i: usize) -> View {
        self.reflection().rotation(i)
    }

    /// All `k` rotations of this view.
    #[must_use]
    pub fn all_rotations(&self) -> Vec<View> {
        (0..self.gaps.len()).map(|i| self.rotation(i)).collect()
    }

    /// Starting index of the lexicographically smallest rotation, reading the
    /// cyclic word through `gap` (an index-to-value accessor, so callers can
    /// scan the reversed word — or any encoded word that is not a `View` at
    /// all, like the engine's canonical state signatures — without
    /// materializing it).  Returns 0 for the empty word.
    ///
    /// This is the O(k)-time, O(1)-space least-rotation algorithm (Booth's
    /// two-candidate variant): `i` and `j` are the two live candidate start
    /// positions, `len` the length of their common prefix.  A mismatch at
    /// offset `len` eliminates the larger candidate *and* every start inside
    /// its matched prefix.  Both read offsets stay below `2k`, so one
    /// comparison wraps them — no division on the workspace's hottest loop.
    /// `gap` is only ever called with an index below `k`.
    pub fn least_rotation_start(k: usize, gap: impl Fn(usize) -> usize) -> usize {
        let at = |t: usize| gap(wrap(t, k));
        let (mut i, mut j, mut len) = (0usize, 1usize, 0usize);
        while i < k && j < k && len < k {
            let a = at(i + len);
            let b = at(j + len);
            if a == b {
                len += 1;
                continue;
            }
            if a > b {
                i += len + 1;
            } else {
                j += len + 1;
            }
            if i == j {
                j += 1;
            }
            len = 0;
        }
        i.min(j)
    }

    /// The lexicographically smallest rotation of this view (not considering
    /// reflections).
    ///
    /// Runs in O(k) time with no intermediate allocation (only the returned
    /// view is materialized); `tests/view_properties.rs` pins it against the
    /// minimum of [`View::all_rotations`].
    #[must_use]
    pub fn min_rotation(&self) -> View {
        self.rotation(Self::least_rotation_start(self.gaps.len(), |t| {
            self.gaps[t]
        }))
    }

    /// The lexicographically smallest view obtainable by rotating and/or
    /// reflecting this view.  For any view of a configuration `C`, this equals
    /// the supermin configuration view `W_min^C` of the paper.
    ///
    /// Computed allocation-free: one least-rotation scan over the word, one
    /// over its reversal, and one element-wise comparison of the two winning
    /// rotations; only the overall winner is materialized.
    #[must_use]
    pub fn supermin(&self) -> View {
        let k = self.gaps.len();
        let fwd = |t: usize| self.gaps[t];
        let rev = |t: usize| self.gaps[k - 1 - t];
        let fi = Self::least_rotation_start(k, fwd);
        let ri = Self::least_rotation_start(k, rev);
        let reversed_wins = (0..k).find_map(|t| {
            let a = fwd(wrap(fi + t, k));
            let b = rev(wrap(ri + t, k));
            (a != b).then_some(b < a)
        });
        if reversed_wins == Some(true) {
            View::new((0..k).map(|t| rev(wrap(ri + t, k))).collect())
        } else {
            self.rotation(fi)
        }
    }

    /// Property 1 (i) of the paper: the configuration is periodic iff the view
    /// equals one of its non-trivial rotations.
    #[must_use]
    pub fn is_periodic(&self) -> bool {
        self.period() < self.gaps.len()
    }

    /// The smallest non-trivial period of the cyclic gap sequence, in number
    /// of intervals; equals `len()` iff the view is aperiodic.  The empty
    /// view has `period() == 0 == len()` and is therefore aperiodic.
    ///
    /// Computed from the KMP border array in O(k): the smallest period of a
    /// word that divides its length is `k - border(k)`, and a cyclic word has
    /// period `p | k` iff the underlying linear word does.
    #[must_use]
    pub fn period(&self) -> usize {
        let g = &self.gaps;
        let k = g.len();
        if k == 0 {
            return 0;
        }
        let mut border = vec![0usize; k];
        for i in 1..k {
            let mut b = border[i - 1];
            while b > 0 && g[i] != g[b] {
                b = border[b - 1];
            }
            if g[i] == g[b] {
                b += 1;
            }
            border[i] = b;
        }
        let p = k - border[k - 1];
        if k.is_multiple_of(p) {
            p
        } else {
            k
        }
    }

    /// Property 1 (ii) of the paper: the configuration is symmetric iff the
    /// view equals some rotation of its reflection.
    ///
    /// The reflection is itself a rotation of the reversed word, so this is
    /// exactly cyclic equality of the word and its reversal: the two
    /// least-rotation canonical forms coincide.  O(k) instead of the naive
    /// O(k^2) rotation scan.
    #[must_use]
    pub fn is_symmetric(&self) -> bool {
        let k = self.gaps.len();
        let fwd = |t: usize| self.gaps[t];
        let rev = |t: usize| self.gaps[k - 1 - t];
        let fi = Self::least_rotation_start(k, fwd);
        let ri = Self::least_rotation_start(k, rev);
        (0..k).all(|t| fwd(wrap(fi + t, k)) == rev(wrap(ri + t, k)))
    }

    /// Whether the configuration seen by this view is *rigid*: aperiodic and
    /// asymmetric.
    #[must_use]
    pub fn is_rigid(&self) -> bool {
        !self.is_periodic() && !self.is_symmetric()
    }
}

/// `t mod k` for `t < 2k`: the one-comparison wrap of an offset from a
/// start index below `k` by less than `k`.  Inlined into the generic Booth
/// scan's instances in other crates (the checker's canonical signature).
#[inline]
fn wrap(t: usize, k: usize) -> usize {
    if t >= k {
        t - k
    } else {
        t
    }
}

impl std::fmt::Display for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, g) in self.gaps.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{g}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for View {
    fn from(gaps: Vec<usize>) -> Self {
        View::new(gaps)
    }
}

impl From<&[usize]> for View {
    fn from(gaps: &[usize]) -> Self {
        View::new(gaps.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(gaps: &[usize]) -> View {
        View::new(gaps.to_vec())
    }

    #[test]
    fn empty_view_contract_covers_every_method() {
        // The degenerate k = 0 cyclic word: aperiodic (period 0), symmetric,
        // fixed by every rotation/reflection — and, crucially, no method
        // panics (period/is_periodic used to).
        let e = View::new(vec![]);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        assert_eq!(e.gaps(), &[] as &[usize]);
        assert_eq!(e.total_gap(), 0);
        assert_eq!(e.rotation(0), e);
        assert_eq!(e.rotation(17), e);
        assert_eq!(e.opposite_direction(), e);
        assert_eq!(e.reflection(), e);
        assert_eq!(e.reflection_rotation(3), e);
        assert_eq!(e.all_rotations(), Vec::<View>::new());
        assert_eq!(e.min_rotation(), e);
        assert_eq!(e.supermin(), e);
        assert_eq!(e.period(), 0, "empty is aperiodic with period 0 = len");
        assert!(!e.is_periodic());
        assert!(e.is_symmetric());
        assert!(!e.is_rigid(), "symmetric, hence not rigid");
        assert_eq!(View::least_rotation_start(0, |_| unreachable!()), 0);
        assert_eq!(e.to_string(), "()");
    }

    #[test]
    fn singleton_view_contract_covers_every_method() {
        let s = v(&[5]);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.total_gap(), 5);
        assert_eq!(s.gap(0), 5);
        assert_eq!(s.rotation(0), s);
        assert_eq!(s.rotation(4), s);
        assert_eq!(s.opposite_direction(), s);
        assert_eq!(s.reflection(), s);
        assert_eq!(s.reflection_rotation(2), s);
        assert_eq!(s.all_rotations(), vec![s.clone()]);
        assert_eq!(s.min_rotation(), s);
        assert_eq!(s.supermin(), s);
        assert_eq!(s.period(), 1, "the only period of a singleton is trivial");
        assert!(!s.is_periodic());
        assert!(s.is_symmetric());
        assert!(!s.is_rigid());
        assert_eq!(s.to_string(), "(5)");
    }

    #[test]
    fn rotation_and_reflection_basics() {
        let w = v(&[0, 1, 2, 3]);
        assert_eq!(w.rotation(0), w);
        assert_eq!(w.rotation(1), v(&[1, 2, 3, 0]));
        assert_eq!(w.rotation(4), w);
        assert_eq!(w.opposite_direction(), v(&[3, 2, 1, 0]));
        assert_eq!(w.reflection(), v(&[0, 3, 2, 1]));
        assert_eq!(w.reflection().reflection(), w);
    }

    #[test]
    fn opposite_direction_is_rotation_of_reflection() {
        // Reading the other way from the same robot permutes the same cyclic
        // word; it must belong to {W̄_i}.
        let w = v(&[0, 0, 1, 5, 2]);
        let opp = w.opposite_direction();
        let refl = w.reflection();
        assert!((0..w.len()).any(|i| refl.rotation(i) == opp));
    }

    #[test]
    fn supermin_is_invariant_under_rotation_and_reflection() {
        let w = v(&[2, 0, 1, 4, 0, 3]);
        let s = w.supermin();
        for i in 0..w.len() {
            assert_eq!(w.rotation(i).supermin(), s);
            assert_eq!(w.reflection_rotation(i).supermin(), s);
            assert_eq!(w.opposite_direction().rotation(i).supermin(), s);
        }
    }

    #[test]
    fn supermin_examples_from_paper() {
        // C* for k = 5, n = 12 has supermin view (0,0,0,1,6).
        let c_star = v(&[1, 6, 0, 0, 0]);
        assert_eq!(c_star.supermin(), v(&[0, 0, 0, 1, 6]));
        // Cs of the paper: supermin (0,1,1,2).
        let cs = v(&[1, 2, 0, 1]);
        assert_eq!(cs.supermin(), v(&[0, 1, 1, 2]));
    }

    #[test]
    fn periodicity_detection() {
        assert!(v(&[1, 2, 1, 2]).is_periodic());
        assert!(v(&[3, 3, 3]).is_periodic());
        assert!(!v(&[1, 2, 3]).is_periodic());
        assert!(!v(&[5]).is_periodic());
        assert_eq!(v(&[1, 2, 1, 2]).period(), 2);
        assert_eq!(v(&[3, 3, 3]).period(), 1);
        assert_eq!(v(&[1, 2, 3]).period(), 3);
    }

    #[test]
    fn symmetry_detection() {
        // Palindromic cyclic words are symmetric.
        assert!(v(&[0, 1, 1, 0, 4]).is_symmetric());
        assert!(v(&[2, 2]).is_symmetric());
        assert!(v(&[7]).is_symmetric());
        // (0,1,1,2) — the paper's Cs — is rigid.
        assert!(!v(&[0, 1, 1, 2]).is_symmetric());
        assert!(!v(&[0, 1, 1, 2]).is_periodic());
        assert!(v(&[0, 1, 1, 2]).is_rigid());
        // (0,0,2,2) — the symmetric intermediate configuration of Theorem 1.
        assert!(v(&[0, 0, 2, 2]).is_symmetric());
        assert!(!v(&[0, 0, 2, 2]).is_rigid());
    }

    #[test]
    fn rigidity_of_c_star() {
        // C* = (0^{k-2}, 1, n-k-1) is rigid whenever n - k - 1 >= 2.
        for k in 3..8usize {
            for extra in 2..6usize {
                let mut gaps = vec![0; k - 2];
                gaps.push(1);
                gaps.push(extra);
                assert!(View::new(gaps).is_rigid(), "k={k} extra={extra}");
            }
        }
    }

    #[test]
    fn periodic_configs_are_symmetric_or_not_independent() {
        // A periodic but asymmetric word.
        let w = v(&[0, 1, 2, 0, 1, 2]);
        assert!(w.is_periodic());
        assert!(!w.is_symmetric());
        assert!(!w.is_rigid());
    }

    #[test]
    fn display_formats_as_tuple() {
        assert_eq!(v(&[0, 1, 5]).to_string(), "(0,1,5)");
    }

    #[test]
    fn total_gap_and_len() {
        let w = v(&[0, 3, 2]);
        assert_eq!(w.total_gap(), 5);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
    }
}
