//! Lower and upper bounds on the number of virtual registers `K̃`.
//!
//! Phase 1 of the paper sandwiches the exact branch-and-bound between a
//! matching-based lower bound (their ref \[2\]) and a fast heuristic upper
//! bound; when the two coincide the search is skipped entirely.

use crate::distance::DistanceModel;
use crate::matching::MatchingCover;
use crate::path::PathCover;

/// Bounds on the minimum number of zero-cost paths (virtual registers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bounds {
    /// Matching lower bound (always sound).
    pub lower: usize,
    /// The split repair, if it found a zero-cost cover: a path id per
    /// access and the number of paths. The search starts from it as
    /// its incumbent, so the repair runs once per pattern.
    pub(crate) repair: Option<(Vec<usize>, usize)>,
}

impl Bounds {
    /// The upper bound value, if a feasible cover was found.
    pub fn upper_value(&self) -> Option<usize> {
        self.repair.as_ref().map(|&(_, paths)| paths)
    }

    /// The heuristic zero-cost cover, if the heuristic found one. Its
    /// register count is [`upper_value`](Self::upper_value).
    pub fn upper_cover(&self) -> Option<PathCover> {
        self.repair
            .as_ref()
            .map(|(assignment, _)| PathCover::from_assignment(assignment))
    }
}

/// Computes both bounds from `matched`, the [`MatchingCover`] of
/// `dm`. The lower bound is the matching's path count. The upper
/// bound takes the matching cover (zero intra cost, minimum path count)
/// and *split-repairs* every path whose wrap step is not free: cutting
/// a path into contiguous segments keeps every intra step free, so the
/// only question is where to cut such that every segment closes its own
/// wrap. A quadratic DP finds the fewest segments per path, or proves
/// that no contiguous split works, in which case there is no upper
/// bound and the exact search starts without an incumbent.
///
/// Pass the bounds on to [`bb::search`](crate::bb::search), so that one
/// matching and one split repair serve the bounds and the search.
///
/// # Examples
///
/// ```
/// use raco_graph::matching::MatchingCover;
/// use raco_graph::{bounds, DistanceModel};
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let bounds = bounds::bounds(&dm, &MatchingCover::new(&dm));
/// assert_eq!(bounds.lower, 2);
/// assert!(bounds.upper_cover().expect("feasible").is_zero_cost(&dm));
/// ```
pub fn bounds(dm: &DistanceModel, matched: &MatchingCover) -> Bounds {
    Bounds {
        lower: matched.register_count(),
        repair: split_repair(dm, matched),
    }
}

/// One position of a chain in [`split_repair`]'s DP.
#[derive(Debug, Clone, Copy)]
struct Cut {
    access: usize,
    segments: usize,
    end: usize,
}

/// The split repair of `matched`: every chain cut into the fewest
/// contiguous segments whose wraps are free, as a path id per access
/// and the number of paths. `None` if some chain cannot be cut so.
fn split_repair(dm: &DistanceModel, matched: &MatchingCover) -> Option<(Vec<usize>, usize)> {
    let n = dm.len();
    let mut assignment = vec![0; n];
    let mut paths = 0;
    // A chain that must split: per position `i`, its access and the
    // fewest segments covering `chain[i..]` (`usize::MAX`: impossible)
    // with the end of the first; one more entry ends the chain.
    let mut chain: Vec<Cut> = Vec::new();
    for head in (0..n).filter(|&head| matched.is_head(head)) {
        let tail = matched.chain(head).last().expect("a chain has its head");
        if dm.free_wrap(tail, head) {
            for at in matched.chain(head) {
                assignment[at] = paths;
            }
            paths += 1;
            continue;
        }
        chain.clear();
        chain.extend(matched.chain(head).map(|access| Cut {
            access,
            segments: usize::MAX,
            end: 0,
        }));
        let len = chain.len();
        chain.push(Cut {
            access: usize::MAX,
            segments: 0,
            end: len,
        });
        for i in (0..len).rev() {
            for j in i..len {
                // Segment chain[i..=j]: head chain[i], tail chain[j].
                let rest = chain[j + 1].segments;
                if dm.free_wrap(chain[j].access, chain[i].access)
                    && rest != usize::MAX
                    && 1 + rest < chain[i].segments
                {
                    (chain[i].segments, chain[i].end) = (1 + rest, j + 1);
                }
            }
        }
        if chain[0].segments == usize::MAX {
            return None;
        }
        let mut i = 0;
        while i < len {
            let end = chain[i].end;
            for cut in &chain[i..end] {
                assignment[cut.access] = paths;
            }
            paths += 1;
            i = end;
        }
    }
    Some((assignment, paths))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds_of(dm: &DistanceModel) -> Bounds {
        bounds(dm, &MatchingCover::new(dm))
    }

    #[test]
    fn paper_example_bounds_are_tight_at_two() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let b = bounds_of(&dm);
        assert_eq!(b.lower, 2);
        // The heuristic must find some zero-cost cover; with luck it is
        // tight, but at minimum it must be feasible and >= lower.
        let cover = b.upper_cover().expect("upper bound exists");
        assert!(cover.is_zero_cost(&dm));
        assert!(cover.register_count() >= b.lower);
    }

    #[test]
    fn monotone_run_is_one_register_and_tight() {
        // 0,1,2,3 with stride 1: chain is free and the wrap 0+1-3 = -2 is
        // not free, so the chain must split; stride 4 would close it.
        let dm = DistanceModel::from_offsets(&[0, 1, 2, 3], 4, 1);
        let b = bounds_of(&dm);
        assert_eq!(b.lower, 1);
        assert_eq!(
            b.upper_value(),
            Some(1),
            "wrap 0+4-3 = 1 is free: single register"
        );
    }

    #[test]
    fn split_repair_splits_unclosable_chains() {
        // Chain 0,1,2,3 stride 1: wrap distance 0+1-3 = -2 unfree.
        // Split into (0,1),(2,3): wraps 0+1-1 = 0 and 2+1-3 = 0 → free.
        let dm = DistanceModel::from_offsets(&[0, 1, 2, 3], 1, 1);
        let cover = bounds_of(&dm).upper_cover().expect("feasible");
        assert!(cover.is_zero_cost(&dm));
        assert_eq!(cover.register_count(), 2);
    }

    #[test]
    fn upper_bound_fails_when_no_singleton_can_close() {
        // Stride 5, M = 1: a singleton wrap is 5, and the only two
        // accesses are 10 apart, so nothing closes.
        let dm = DistanceModel::from_offsets(&[0, 10], 5, 1);
        assert_eq!(bounds_of(&dm).upper_cover(), None);
    }

    #[test]
    fn upper_bound_uses_nontrivial_wraps_when_stride_is_large() {
        // Stride 2, M = 1: singletons don't close (wrap = 2), but the
        // pair (0 → 1) closes: 0 + 2 - 1 = 1.
        let dm = DistanceModel::from_offsets(&[0, 1], 2, 1);
        let cover = bounds_of(&dm).upper_cover().expect("pair closes");
        assert_eq!(cover.register_count(), 1);
        assert!(cover.is_zero_cost(&dm));
    }

    #[test]
    fn bounds_upper_value_and_tightness() {
        let dm = DistanceModel::from_offsets(&[0, 1, 2], 3, 1);
        let b = bounds_of(&dm);
        assert_eq!(b.lower, 1);
        assert_eq!(b.upper_value(), Some(1)); // wrap 0+3-2 = 1 free
    }

    #[test]
    fn lower_bound_counts_isolated_nodes() {
        let dm = DistanceModel::from_offsets(&[0, 100, 200], 1, 1);
        assert_eq!(bounds_of(&dm).lower, 3);
        let cover = bounds_of(&dm)
            .upper_cover()
            .expect("singletons close with stride 1");
        assert_eq!(cover.register_count(), 3);
    }
}
