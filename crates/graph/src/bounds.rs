//! Lower and upper bounds on the number of virtual registers `K̃`.
//!
//! Phase 1 of the paper sandwiches the exact branch-and-bound between a
//! matching-based lower bound (their ref \[2\]) and a fast heuristic upper
//! bound; when the two coincide the search is skipped entirely.

use crate::distance::DistanceModel;
use crate::matching;
use crate::path::{Path, PathCover};

/// Bounds on the minimum number of zero-cost paths (virtual registers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bounds {
    /// Matching lower bound (always sound).
    pub lower: usize,
    /// Heuristic zero-cost cover, if the heuristic found one. Its
    /// register count is an upper bound on `K̃`.
    pub upper: Option<PathCover>,
}

impl Bounds {
    /// The upper bound value, if a feasible cover was found.
    pub fn upper_value(&self) -> Option<usize> {
        self.upper.as_ref().map(PathCover::register_count)
    }

    /// `true` when lower and upper bound coincide, i.e. the heuristic
    /// cover is provably optimal.
    pub fn is_tight(&self) -> bool {
        self.upper_value() == Some(self.lower)
    }
}

/// Heuristic upper bound: take the matching cover (zero intra cost,
/// minimum path count) and *split-repair* every path whose wrap step is
/// not free.
///
/// Splitting a path into contiguous segments preserves the freeness of all
/// intra steps, so the only question is where to cut such that every
/// segment closes its own wrap; a quadratic DP finds the minimum number of
/// segments per path, or proves that no contiguous split works (in which
/// case `None` is returned and the exact search starts without an
/// incumbent).
///
/// # Examples
///
/// ```
/// use raco_graph::{bounds, DistanceModel};
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let cover = bounds::upper_bound_cover(&dm).expect("feasible");
/// assert!(cover.is_zero_cost(&dm));
/// ```
pub fn upper_bound_cover(dm: &DistanceModel) -> Option<PathCover> {
    split_repair_cover(&matching::min_path_cover(dm), dm)
}

/// [`upper_bound_cover`] from an already computed matching cover `base`.
pub(crate) fn split_repair_cover(base: &PathCover, dm: &DistanceModel) -> Option<PathCover> {
    let mut repaired: Vec<Path> = Vec::new();
    for path in base.paths() {
        repaired.extend(split_repair(path, dm)?);
    }
    Some(PathCover::new(repaired, dm.len()).expect("splits preserve the partition"))
}

/// Computes both bounds from `matched`, the [`matching::min_path_cover`]
/// of `dm`, which a caller can share with
/// [`bb::min_zero_cost_cover_from`](crate::bb::min_zero_cost_cover_from)
/// so that one matching serves the bounds and the search.
pub fn bounds(dm: &DistanceModel, matched: &PathCover) -> Bounds {
    Bounds {
        lower: matched.register_count(),
        upper: split_repair_cover(matched, dm),
    }
}

/// Splits `path` into the minimum number of contiguous segments such that
/// every segment's wrap step is free. Returns `None` if impossible.
fn split_repair(path: &Path, dm: &DistanceModel) -> Option<Vec<Path>> {
    let idx = path.indices();
    let len = idx.len();
    if dm.free_wrap(path.tail(), path.head()) {
        return Some(vec![path.clone()]);
    }
    // seg[i] = minimum segments covering idx[i..], usize::MAX = impossible.
    let mut seg = vec![usize::MAX; len + 1];
    let mut cut = vec![len; len + 1]; // cut[i] = end (exclusive) of the segment starting at i
    seg[len] = 0;
    for i in (0..len).rev() {
        for j in i..len {
            // Segment idx[i..=j]: head idx[i], tail idx[j].
            if dm.free_wrap(idx[j], idx[i]) && seg[j + 1] != usize::MAX {
                let candidate = 1 + seg[j + 1];
                if candidate < seg[i] {
                    seg[i] = candidate;
                    cut[i] = j + 1;
                }
            }
        }
    }
    if seg[0] == usize::MAX {
        return None;
    }
    let mut out = Vec::with_capacity(seg[0]);
    let mut i = 0;
    while i < len {
        let j = cut[i];
        out.push(Path::new(idx[i..j].to_vec()).expect("contiguous slice stays increasing"));
        i = j;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_bounds_are_tight_at_two() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let b = bounds(&dm, &matching::min_path_cover(&dm));
        assert_eq!(b.lower, 2);
        // The heuristic must find some zero-cost cover; with luck it is
        // tight, but at minimum it must be feasible and >= lower.
        let cover = b.upper.expect("upper bound exists");
        assert!(cover.is_zero_cost(&dm));
        assert!(cover.register_count() >= b.lower);
    }

    #[test]
    fn monotone_run_is_one_register_and_tight() {
        // 0,1,2,3 with stride 1: chain is free and the wrap 0+1-3 = -2 is
        // not free, so the chain must split; stride 4 would close it.
        let dm = DistanceModel::from_offsets(&[0, 1, 2, 3], 4, 1);
        let b = bounds(&dm, &matching::min_path_cover(&dm));
        assert_eq!(b.lower, 1);
        assert!(b.is_tight(), "wrap 0+4-3 = 1 is free: single register");
    }

    #[test]
    fn split_repair_splits_unclosable_chains() {
        // Chain 0,1,2,3 stride 1: wrap distance 0+1-3 = -2 unfree.
        // Split into (0,1),(2,3): wraps 0+1-1 = 0 and 2+1-3 = 0 → free.
        let dm = DistanceModel::from_offsets(&[0, 1, 2, 3], 1, 1);
        let cover = upper_bound_cover(&dm).expect("feasible");
        assert!(cover.is_zero_cost(&dm));
        assert_eq!(cover.register_count(), 2);
    }

    #[test]
    fn upper_bound_fails_when_no_singleton_can_close() {
        // Stride 5, M = 1: a singleton wrap is 5, and the only two
        // accesses are 10 apart, so nothing closes.
        let dm = DistanceModel::from_offsets(&[0, 10], 5, 1);
        assert_eq!(upper_bound_cover(&dm), None);
    }

    #[test]
    fn upper_bound_uses_nontrivial_wraps_when_stride_is_large() {
        // Stride 2, M = 1: singletons don't close (wrap = 2), but the
        // pair (0 → 1) closes: 0 + 2 - 1 = 1.
        let dm = DistanceModel::from_offsets(&[0, 1], 2, 1);
        let cover = upper_bound_cover(&dm).expect("pair closes");
        assert_eq!(cover.register_count(), 1);
        assert!(cover.is_zero_cost(&dm));
    }

    #[test]
    fn bounds_upper_value_and_tightness() {
        let dm = DistanceModel::from_offsets(&[0, 1, 2], 3, 1);
        let b = bounds(&dm, &matching::min_path_cover(&dm));
        assert_eq!(b.lower, 1);
        assert_eq!(b.upper_value(), Some(1)); // wrap 0+3-2 = 1 free
        assert!(b.is_tight());
    }

    #[test]
    fn lower_bound_counts_isolated_nodes() {
        let dm = DistanceModel::from_offsets(&[0, 100, 200], 1, 1);
        assert_eq!(bounds(&dm, &matching::min_path_cover(&dm)).lower, 3);
        let cover = upper_bound_cover(&dm).expect("singletons close with stride 1");
        assert_eq!(cover.register_count(), 3);
    }
}
