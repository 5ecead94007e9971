//! Exhaustive oracles for small instances.
//!
//! These enumerate *all* partitions of the access sequence into paths
//! (set partitions in restricted-growth-string form) and are used to
//! validate the branch-and-bound (Phase 1) on small patterns in tests
//! and ablation experiments. The exact allocation oracle that checks
//! Phase 2 (`raco_core::exact`) enumerates the same partitions and
//! prices them with the allocator's own cost model.
//!
//! Complexity is the Bell number `B(n)` — keep `n <= 12`.

use crate::distance::DistanceModel;
use crate::path::PathCover;

/// Calls `f(assignment, block_count)` for every partition of `0..n` into
/// at most `max_blocks` non-empty blocks.
///
/// `assignment[i]` is the block id of element `i`; ids form a restricted
/// growth string (block ids appear in first-use order), so every set
/// partition is visited exactly once. [`PathCover::from_assignment`]
/// turns a visit into its cover.
///
/// # Examples
///
/// ```
/// let mut count = 0;
/// raco_graph::brute::for_each_partition(4, 4, |_, _| count += 1);
/// assert_eq!(count, 15); // Bell(4)
/// ```
pub fn for_each_partition(n: usize, max_blocks: usize, mut f: impl FnMut(&[usize], usize)) {
    if n == 0 || max_blocks == 0 {
        return;
    }
    let mut assignment = vec![0usize; n];
    recurse(&mut assignment, 1, 1, max_blocks, &mut f);
}

fn recurse(
    assignment: &mut Vec<usize>,
    pos: usize,
    used: usize,
    max_blocks: usize,
    f: &mut impl FnMut(&[usize], usize),
) {
    let n = assignment.len();
    if pos == n {
        f(assignment, used);
        return;
    }
    for b in 0..used.min(max_blocks) {
        assignment[pos] = b;
        recurse(assignment, pos + 1, used, max_blocks, f);
    }
    if used < max_blocks {
        assignment[pos] = used;
        recurse(assignment, pos + 1, used + 1, max_blocks, f);
        assignment[pos] = 0;
    }
}

/// Exhaustive minimum zero-cost cover: the true `K̃`, or `None` if no
/// zero-cost cover exists.
///
/// # Panics
///
/// Panics if `dm.len() > 12` (the enumeration would be astronomically
/// large).
pub fn min_zero_cost_cover_brute(dm: &DistanceModel) -> Option<PathCover> {
    let n = dm.len();
    assert!(n <= 12, "brute-force oracle limited to n <= 12");
    let mut best: Option<PathCover> = None;
    for_each_partition(n, n, |assignment, blocks| {
        if let Some(b) = &best {
            if blocks >= b.register_count() {
                return;
            }
        }
        let cover = PathCover::from_assignment(assignment);
        if cover.is_zero_cost(dm) {
            best = Some(cover);
        }
    });
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_counts_are_bell_numbers() {
        let bell = [1usize, 1, 2, 5, 15, 52, 203];
        for (n, &b) in bell.iter().enumerate().skip(1) {
            let mut count = 0;
            for_each_partition(n, n, |_, _| count += 1);
            assert_eq!(count, b, "Bell({n})");
        }
    }

    #[test]
    fn partition_block_limit_is_respected() {
        let mut max_seen = 0;
        for_each_partition(5, 2, |_, blocks| max_seen = max_seen.max(blocks));
        assert_eq!(max_seen, 2);
        // Stirling numbers: S(5,1) + S(5,2) = 1 + 15 = 16 partitions.
        let mut count = 0;
        for_each_partition(5, 2, |_, _| count += 1);
        assert_eq!(count, 16);
    }

    #[test]
    fn degenerate_inputs_visit_nothing() {
        let mut count = 0;
        for_each_partition(0, 3, |_, _| count += 1);
        for_each_partition(3, 0, |_, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn brute_zero_cost_on_paper_example() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let cover = min_zero_cost_cover_brute(&dm).expect("feasible");
        assert_eq!(cover.register_count(), 3);
        assert!(cover.is_zero_cost(&dm));
    }

    #[test]
    fn brute_detects_infeasibility() {
        let dm = DistanceModel::from_offsets(&[0, 10], 5, 1);
        assert_eq!(min_zero_cost_cover_brute(&dm), None);
    }
}
