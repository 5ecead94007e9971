//! Address distances and the zero-/unit-cost classification.

use raco_ir::{AccessPattern, UpdateRange};

/// Distances between the accesses of one pattern under an auto-modify
/// range `M`.
///
/// Two accesses `a_i`, `a_j` of the same array have *intra-iteration
/// distance* `offset(j) - offset(i)` — the post-modify an address register
/// needs after serving `a_i` so that it points at `a_j` in the **same**
/// iteration. Across the loop back-edge the register additionally travels
/// the pattern's effective stride: the *wrap distance* from `a_i` (last
/// access served in iteration `t`) to `a_j` (first access served in
/// iteration `t+1`) is `offset(j) + stride - offset(i)`.
///
/// A distance `d` is **free** (zero-cost) iff it falls inside the
/// machine's free [`UpdateRange`] — the paper's Section 2 model uses the
/// symmetric window `|d| <= M`; generalized machines may free an
/// asymmetric window (e.g. `[0, 1]` on MAC post-increment AGUs).
/// Any other update costs one extra instruction (unit cost).
///
/// # Examples
///
/// ```
/// use raco_graph::DistanceModel;
/// use raco_ir::AccessPattern;
///
/// let pattern = AccessPattern::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1);
/// let dm = DistanceModel::new(&pattern, 1);
/// assert_eq!(dm.intra_distance(0, 2), 1);   // A[i+1] → A[i+2]
/// assert!(dm.free_intra(0, 2));
/// assert_eq!(dm.wrap_distance(2, 0), 0);    // A[i+2] → A[(i+1)+1]
/// assert!(dm.free_wrap(2, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceModel {
    offsets: Vec<i64>,
    stride: i64,
    range: UpdateRange,
}

impl DistanceModel {
    /// Builds the distance model of `pattern` under the symmetric
    /// auto-modify range `modify_range` (the paper's `M`).
    pub fn new(pattern: &AccessPattern, modify_range: u32) -> Self {
        Self::with_range(pattern, UpdateRange::symmetric(modify_range))
    }

    /// Builds the distance model of `pattern` under an arbitrary free
    /// update window.
    pub fn with_range(pattern: &AccessPattern, range: UpdateRange) -> Self {
        DistanceModel {
            offsets: pattern.offsets(),
            stride: pattern.stride(),
            range,
        }
    }

    /// Builds a model from raw offsets under a symmetric range, for
    /// algorithm-only use.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty.
    pub fn from_offsets(offsets: &[i64], stride: i64, modify_range: u32) -> Self {
        Self::from_offsets_range(offsets, stride, UpdateRange::symmetric(modify_range))
    }

    /// Builds a model from raw offsets under an arbitrary free update
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty.
    pub fn from_offsets_range(offsets: &[i64], stride: i64, range: UpdateRange) -> Self {
        assert!(!offsets.is_empty(), "a distance model needs accesses");
        DistanceModel {
            offsets: offsets.to_vec(),
            stride,
            range,
        }
    }

    /// Number of accesses (the paper's `N`).
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// `true` if the model covers no accesses (never the case for models
    /// built through the public constructors).
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The access offsets in sequence order.
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// Offset of access `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn offset(&self, i: usize) -> i64 {
        self.offsets[i]
    }

    /// Effective per-iteration address stride.
    pub fn stride(&self) -> i64 {
        self.stride
    }

    /// Symmetric auto-modify summary `M` (the largest `M` with `[-M, M]`
    /// inside the window; exact on paper-shaped machines).
    pub fn modify_range(&self) -> u32 {
        self.range.symmetric_radius()
    }

    /// The exact free update window.
    pub fn range(&self) -> UpdateRange {
        self.range
    }

    /// `true` iff a post-modify by `d` is free (inside the window).
    #[inline]
    pub fn is_free(&self, d: i64) -> bool {
        self.range.contains(d)
    }

    /// Post-modify needed to go from access `from` to access `to` within
    /// one iteration.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn intra_distance(&self, from: usize, to: usize) -> i64 {
        let (from, to) = (self.offsets[from], self.offsets[to]);
        // Offsets come from i64 arithmetic on source constants; on
        // adversarial inputs their difference overflows, and is then
        // worked out in i128 and clamped (a clamped distance is never
        // free anyway).
        to.checked_sub(from)
            .unwrap_or_else(|| clamp_i128(i128::from(to) - i128::from(from)))
    }

    /// Post-modify needed to go from access `from` in iteration `t` to
    /// access `to` in iteration `t + 1`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn wrap_distance(&self, from: usize, to: usize) -> i64 {
        let (from, to) = (self.offsets[from], self.offsets[to]);
        to.checked_add(self.stride)
            .and_then(|d| d.checked_sub(from))
            .unwrap_or_else(|| {
                clamp_i128(i128::from(to) + i128::from(self.stride) - i128::from(from))
            })
    }

    /// `true` iff `from → to` (same iteration, `from` before `to`) is a
    /// zero-cost step. This is the edge relation of the paper's graph `G`.
    #[inline]
    pub fn free_intra(&self, from: usize, to: usize) -> bool {
        self.is_free(self.intra_distance(from, to))
    }

    /// `true` iff the back-edge step from `from` (tail, iteration `t`) to
    /// `to` (head, iteration `t+1`) is zero-cost.
    #[inline]
    pub fn free_wrap(&self, from: usize, to: usize) -> bool {
        self.is_free(self.wrap_distance(from, to))
    }
}

fn clamp_i128(v: i128) -> i64 {
    v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_model() -> DistanceModel {
        DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1)
    }

    #[test]
    fn intra_distances_match_offset_differences() {
        let dm = paper_model();
        assert_eq!(dm.intra_distance(0, 1), -1);
        assert_eq!(dm.intra_distance(1, 2), 2);
        assert_eq!(dm.intra_distance(3, 6), -1);
        assert_eq!(dm.intra_distance(2, 2), 0);
    }

    #[test]
    fn wrap_distances_add_the_stride() {
        let dm = paper_model();
        // a_7 (offset -2) → a_1 (offset 1) next iteration: 1 + 1 - (-2) = 4
        assert_eq!(dm.wrap_distance(6, 0), 4);
        // a_3 (offset 2) → a_1 (offset 1) next iteration: 1 + 1 - 2 = 0
        assert_eq!(dm.wrap_distance(2, 0), 0);
    }

    #[test]
    fn freeness_respects_m() {
        let dm = paper_model();
        assert!(dm.free_intra(0, 1)); // distance -1
        assert!(!dm.free_intra(1, 2)); // distance 2
        assert!(dm.free_wrap(2, 0)); // distance 0
        assert!(!dm.free_wrap(6, 0)); // distance 4

        let dm2 = DistanceModel::from_offsets(&[1, 0, 2], 1, 2);
        assert!(dm2.free_intra(1, 2)); // distance 2 <= M = 2
    }

    #[test]
    fn singleton_freeness_tracks_stride() {
        // A register serving one access wraps by the stride itself.
        assert!(DistanceModel::from_offsets(&[0], 1, 1).free_wrap(0, 0));
        assert!(!DistanceModel::from_offsets(&[0], 3, 1).free_wrap(0, 0));
        assert!(DistanceModel::from_offsets(&[0], -1, 1).free_wrap(0, 0));
    }

    #[test]
    fn negative_strides_shift_wrap_distances() {
        let dm = DistanceModel::from_offsets(&[0, 1], -1, 1);
        // tail 1 (offset 1) → head 0 (offset 0): 0 - 1 - 1 = -2
        assert_eq!(dm.wrap_distance(1, 0), -2);
        assert!(!dm.free_wrap(1, 0));
        // tail 1 → head 1: -1 → free
        assert!(dm.free_wrap(1, 1));
    }

    #[test]
    fn from_pattern_matches_from_offsets() {
        let pattern = raco_ir::AccessPattern::from_offsets(&[3, 1, 4], 2);
        let a = DistanceModel::new(&pattern, 1);
        let b = DistanceModel::from_offsets(&[3, 1, 4], 2, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(a.offset(2), 4);
        assert_eq!(a.offsets(), &[3, 1, 4]);
        assert_eq!(a.stride(), 2);
        assert_eq!(a.modify_range(), 1);
    }

    #[test]
    fn extreme_offsets_do_not_overflow() {
        let dm = DistanceModel::from_offsets(&[i64::MIN, i64::MAX], i64::MAX, u32::MAX);
        assert_eq!(dm.intra_distance(0, 1), i64::MAX); // clamped
        assert!(!dm.free_intra(0, 1));
        assert_eq!(dm.wrap_distance(0, 1), i64::MAX); // clamped
        assert_eq!(dm.intra_distance(1, 0), i64::MIN); // clamped

        // An overflowing partial sum still gives the exact distance.
        let dm = DistanceModel::from_offsets(&[10, i64::MAX], 1, 1);
        assert_eq!(dm.wrap_distance(0, 1), i64::MAX - 9);
        assert_eq!(dm.wrap_distance(1, 0), 11 - i64::MAX);
        assert_eq!(dm.intra_distance(0, 1), i64::MAX - 10);
    }

    #[test]
    #[should_panic(expected = "needs accesses")]
    fn empty_offsets_are_rejected() {
        let _ = DistanceModel::from_offsets(&[], 1, 1);
    }

    #[test]
    fn asymmetric_ranges_free_one_direction_only() {
        // MAC-style [0, 1]: +1 is free, -1 is not.
        let range = UpdateRange::new(0, 1).unwrap();
        let dm = DistanceModel::from_offsets_range(&[0, 1, 0], 1, range);
        assert!(dm.free_intra(0, 1)); // +1
        assert!(!dm.free_intra(1, 2)); // -1
        assert!(dm.is_free(0) && dm.is_free(1));
        assert!(!dm.is_free(-1));
        assert_eq!(dm.range(), range);
        assert_eq!(dm.modify_range(), 0, "summary radius of [0,1] is 0");
        // The symmetric constructors agree with the range constructors.
        let pattern = raco_ir::AccessPattern::from_offsets(&[0, 1, 0], 1);
        assert_eq!(
            DistanceModel::with_range(&pattern, UpdateRange::symmetric(2)),
            DistanceModel::new(&pattern, 2),
        );
    }
}
