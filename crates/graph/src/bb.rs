//! Exact minimum zero-cost path cover via branch-and-bound (Phase 1).
//!
//! Computing the minimum number of virtual registers `K̃` **with**
//! inter-iteration dependencies is "an exponential problem" (paper,
//! Section 3.1); the paper solves it with the fast branch-and-bound of
//! their ref \[3\] (Leupers, Basu, Marwedel — ASP-DAC 1998), sandwiched
//! between the matching lower bound and a heuristic upper bound.
//!
//! The search processes accesses in sequence order and, for each access,
//! either appends it to a compatible open path (free intra step from the
//! path's current tail) or opens a new path. A cover is feasible when
//! every path's wrap step (tail → head, next iteration) is free.
//!
//! Pruning:
//! * *incumbent*: a partial state with as many open paths as the best
//!   known cover can never improve;
//! * *closability*: a path whose wrap is currently not free and whose head
//!   cannot be wrap-reached by any remaining access is dead;
//! * *dominance memoization*: states are canonicalized to
//!   `(position, multiset of (head offset, tail offset))`; a revisit with
//!   an equal-or-worse path count is pruned;
//! * *symmetry*: appending to two open paths with identical
//!   `(head offset, tail offset)` is equivalent — only one branch is
//!   explored.

use std::collections::HashMap;
use std::fmt;

use crate::bounds;
use crate::distance::DistanceModel;
use crate::matching;
use crate::path::PathCover;

/// Tuning knobs for the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BbOptions {
    /// Maximum number of search nodes to expand before giving up. When the
    /// limit is hit the best cover found so far is returned with
    /// `optimal = false`.
    pub node_limit: u64,
    /// Enable dominance memoization (recommended; costs memory
    /// proportional to the number of distinct states).
    pub memoize: bool,
}

impl Default for BbOptions {
    fn default() -> Self {
        BbOptions {
            node_limit: 10_000_000,
            memoize: true,
        }
    }
}

/// Outcome of the branch-and-bound search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BbResult {
    /// The best zero-cost cover found. Its register count is `K̃` when
    /// `optimal` is set.
    pub cover: PathCover,
    /// `true` if the search proved minimality (or the bounds were tight).
    pub optimal: bool,
    /// Search nodes expanded (0 when the bounds were tight).
    pub nodes: u64,
    /// The matching lower bound.
    pub lower_bound: usize,
}

impl BbResult {
    /// The number of virtual registers of the returned cover.
    pub fn virtual_registers(&self) -> usize {
        self.cover.register_count()
    }
}

/// Failure modes of the zero-cost cover search.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoverSearchError {
    /// No zero-cost cover exists at all — e.g. the effective stride
    /// exceeds `M` and some access can neither close its own wrap nor be
    /// chained into a path that does. Callers typically fall back to the
    /// relaxed matching cover (zero intra cost, paid wraps).
    NoZeroCostCover,
    /// The node limit was exhausted before *any* feasible cover was found
    /// (only possible when the heuristic upper bound also failed).
    SearchBudgetExhausted {
        /// Nodes expanded before giving up.
        nodes: u64,
    },
}

impl fmt::Display for CoverSearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverSearchError::NoZeroCostCover => {
                f.write_str("no zero-cost cover exists for this pattern")
            }
            CoverSearchError::SearchBudgetExhausted { nodes } => {
                write!(
                    f,
                    "search budget exhausted after {nodes} nodes without a feasible cover"
                )
            }
        }
    }
}

impl std::error::Error for CoverSearchError {}

/// Computes the minimum zero-cost cover (the paper's `K̃`) with default
/// options.
///
/// # Errors
///
/// See [`CoverSearchError`].
///
/// # Examples
///
/// The paper's running example needs three virtual registers once
/// inter-iteration dependencies are enforced (`a_7` can only close onto
/// itself):
///
/// ```
/// use raco_graph::{bb, DistanceModel};
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let result = bb::min_zero_cost_cover(&dm).expect("feasible");
/// assert_eq!(result.virtual_registers(), 3);
/// assert!(result.optimal);
/// ```
pub fn min_zero_cost_cover(dm: &DistanceModel) -> Result<BbResult, CoverSearchError> {
    min_zero_cost_cover_with(dm, BbOptions::default())
}

/// [`min_zero_cost_cover`] with explicit [`BbOptions`].
///
/// # Errors
///
/// See [`CoverSearchError`].
pub fn min_zero_cost_cover_with(
    dm: &DistanceModel,
    options: BbOptions,
) -> Result<BbResult, CoverSearchError> {
    min_zero_cost_cover_from(dm, &matching::min_path_cover(dm), options)
}

/// [`min_zero_cost_cover_with`] from an already computed
/// [`matching::min_path_cover`] of `dm`, for callers that keep the
/// matching cover (Phase 1 falls back to it when this search fails).
/// One matching serves both bounds: its path count is the lower bound,
/// its split repair the heuristic upper bound.
///
/// # Errors
///
/// See [`CoverSearchError`].
pub fn min_zero_cost_cover_from(
    dm: &DistanceModel,
    matched: &PathCover,
    options: BbOptions,
) -> Result<BbResult, CoverSearchError> {
    let n = dm.len();
    let lb = matched.register_count();
    let heuristic = bounds::split_repair_cover(matched, dm);
    if let Some(cover) = heuristic.as_ref().filter(|c| c.register_count() == lb) {
        return Ok(BbResult {
            cover: cover.clone(),
            optimal: true,
            nodes: 0,
            lower_bound: lb,
        });
    }

    let mut search = Search {
        dm,
        n,
        lb,
        best_count: heuristic
            .as_ref()
            .map_or(usize::MAX, PathCover::register_count),
        best_assign: heuristic.as_ref().map(PathCover::assignment),
        nodes: 0,
        node_limit: options.node_limit,
        memoize: options.memoize,
        memo: HashMap::new(),
        closable_later: closable_later_table(dm),
        aborted: false,
        proved: false,
    };
    let mut open: Vec<OpenPath> = Vec::new();
    let mut assign: Vec<usize> = vec![usize::MAX; n];
    search.dfs(0, &mut open, &mut assign, 0);

    match search.best_assign {
        Some(assignment) => {
            let cover = PathCover::from_assignment(&assignment);
            let optimal = !search.aborted || cover.register_count() == lb;
            Ok(BbResult {
                cover,
                optimal,
                nodes: search.nodes,
                lower_bound: lb,
            })
        }
        None => {
            if search.aborted {
                Err(CoverSearchError::SearchBudgetExhausted {
                    nodes: search.nodes,
                })
            } else {
                Err(CoverSearchError::NoZeroCostCover)
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenPath {
    head: usize,
    tail: usize,
    id: usize,
}

struct Search<'a> {
    dm: &'a DistanceModel,
    n: usize,
    lb: usize,
    best_count: usize,
    best_assign: Option<Vec<usize>>,
    nodes: u64,
    node_limit: u64,
    memoize: bool,
    memo: HashMap<(usize, Vec<(i64, i64)>), usize>,
    /// `closable_later[h][p]` — does any access `x >= p` close a wrap onto
    /// head `h` (`free_wrap(x, h)`)?
    closable_later: Vec<Vec<bool>>,
    aborted: bool,
    proved: bool,
}

/// Builds the suffix table used by the closability prune.
fn closable_later_table(dm: &DistanceModel) -> Vec<Vec<bool>> {
    let n = dm.len();
    (0..n)
        .map(|h| {
            let mut suffix = vec![false; n + 1];
            for p in (0..n).rev() {
                suffix[p] = suffix[p + 1] || dm.free_wrap(p, h);
            }
            suffix
        })
        .collect()
}

impl Search<'_> {
    fn dfs(&mut self, pos: usize, open: &mut Vec<OpenPath>, assign: &mut Vec<usize>, count: usize) {
        if self.aborted || self.proved {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.aborted = true;
            return;
        }
        if count >= self.best_count {
            return; // incumbent prune: count never decreases
        }
        if pos == self.n {
            if open.iter().all(|p| self.dm.free_wrap(p.tail, p.head)) {
                self.best_count = count;
                self.best_assign = Some(assign.clone());
                if count == self.lb {
                    self.proved = true;
                }
            }
            return;
        }
        // Closability prune: every open path must either already close or
        // still have a potential closing tail among the remaining accesses.
        for p in open.iter() {
            if !self.dm.free_wrap(p.tail, p.head) && !self.closable_later[p.head][pos] {
                return;
            }
        }
        // Dominance memoization.
        if self.memoize {
            let mut key: Vec<(i64, i64)> = open
                .iter()
                .map(|p| (self.dm.offset(p.head), self.dm.offset(p.tail)))
                .collect();
            key.sort_unstable();
            match self.memo.get_mut(&(pos, key.clone())) {
                Some(best_seen) if *best_seen <= count => return,
                Some(best_seen) => *best_seen = count,
                None => {
                    self.memo.insert((pos, key), count);
                }
            }
        }

        // Branch 1: append `pos` to a compatible open path (deduplicated
        // by (head offset, tail offset), nearest tail first).
        let mut candidates: Vec<usize> = Vec::new();
        let mut seen: Vec<(i64, i64)> = Vec::new();
        for (slot, p) in open.iter().enumerate() {
            if !self.dm.free_intra(p.tail, pos) {
                continue;
            }
            // After appending, the path must remain closable.
            if !self.dm.free_wrap(pos, p.head) && !self.closable_later[p.head][pos + 1] {
                continue;
            }
            let sig = (self.dm.offset(p.head), self.dm.offset(p.tail));
            if seen.contains(&sig) {
                continue; // symmetric branch
            }
            seen.push(sig);
            candidates.push(slot);
        }
        candidates.sort_by_key(|&slot| self.dm.intra_distance(open[slot].tail, pos).unsigned_abs());
        for slot in candidates {
            let saved_tail = open[slot].tail;
            let id = open[slot].id;
            open[slot].tail = pos;
            assign[pos] = id;
            self.dfs(pos + 1, open, assign, count);
            open[slot].tail = saved_tail;
            assign[pos] = usize::MAX;
            if self.aborted || self.proved {
                return;
            }
        }

        // Branch 2: open a new path at `pos` (if a fresh singleton can
        // still close eventually).
        if count + 1 < self.best_count
            && (self.dm.free_wrap(pos, pos) || self.closable_later[pos][pos + 1])
        {
            open.push(OpenPath {
                head: pos,
                tail: pos,
                id: count,
            });
            assign[pos] = count;
            self.dfs(pos + 1, open, assign, count + 1);
            open.pop();
            assign[pos] = usize::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;

    #[test]
    fn paper_example_has_three_virtual_registers() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let r = min_zero_cost_cover(&dm).expect("feasible");
        assert_eq!(r.virtual_registers(), 3);
        assert!(r.optimal);
        assert!(r.cover.is_zero_cost(&dm));
        assert_eq!(r.lower_bound, 2);
        // a_7 must be a singleton: nothing else closes onto offset -2.
        let a7 = r.cover.path_of(6).unwrap();
        assert_eq!(a7.len(), 1);
    }

    #[test]
    fn monotone_pattern_closes_with_matching_stride() {
        let dm = DistanceModel::from_offsets(&[0, 1, 2, 3], 4, 1);
        let r = min_zero_cost_cover(&dm).expect("feasible");
        assert_eq!(r.virtual_registers(), 1);
        assert!(r.optimal);
        assert_eq!(r.nodes, 0, "tight bounds skip the search");
    }

    #[test]
    fn infeasible_pattern_reports_no_cover() {
        let dm = DistanceModel::from_offsets(&[0, 10], 5, 1);
        assert_eq!(
            min_zero_cost_cover(&dm).unwrap_err(),
            CoverSearchError::NoZeroCostCover
        );
    }

    #[test]
    fn zero_node_limit_without_heuristic_exhausts() {
        // Heuristic upper bound fails here (see bounds tests), and a zero
        // node budget stops the search immediately.
        let dm = DistanceModel::from_offsets(&[0, 10], 5, 1);
        let err = min_zero_cost_cover_with(
            &dm,
            BbOptions {
                node_limit: 0,
                memoize: true,
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoverSearchError::SearchBudgetExhausted { .. }
        ));
    }

    #[test]
    fn node_limit_with_heuristic_returns_heuristic_cover() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let r = min_zero_cost_cover_with(
            &dm,
            BbOptions {
                node_limit: 0,
                memoize: true,
            },
        )
        .expect("heuristic incumbent exists");
        assert!(r.cover.is_zero_cost(&dm));
    }

    #[test]
    fn memoization_does_not_change_results() {
        for offsets in [
            vec![1, 0, 2, -1, 1, 0, -2],
            vec![0, 2, 4, 1, 3, 5],
            vec![5, 5, 5, 5],
            vec![0, -1, -2, -3, 7],
        ] {
            let dm = DistanceModel::from_offsets(&offsets, 1, 1);
            let with = min_zero_cost_cover_with(
                &dm,
                BbOptions {
                    memoize: true,
                    ..BbOptions::default()
                },
            );
            let without = min_zero_cost_cover_with(
                &dm,
                BbOptions {
                    memoize: false,
                    ..BbOptions::default()
                },
            );
            match (with, without) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.virtual_registers(), b.virtual_registers(), "{offsets:?}")
                }
                (a, b) => panic!("inconsistent feasibility: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_on_small_patterns() {
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        for _ in 0..60 {
            let n = 1 + (next().unsigned_abs() as usize % 7);
            let m = (next().unsigned_abs() % 2) as u32 + 1;
            let stride = [1i64, 1, 2, -1][(next().unsigned_abs() % 4) as usize];
            let offsets: Vec<i64> = (0..n).map(|_| next().rem_euclid(9) - 4).collect();
            let dm = DistanceModel::from_offsets(&offsets, stride, m);
            let brute = brute::min_zero_cost_cover_brute(&dm);
            let bb = min_zero_cost_cover(&dm);
            match (brute, bb) {
                (Some(bc), Ok(r)) => assert_eq!(
                    r.virtual_registers(),
                    bc.register_count(),
                    "offsets {offsets:?} stride {stride} m {m}"
                ),
                (None, Err(CoverSearchError::NoZeroCostCover)) => {}
                (b, r) => panic!("feasibility mismatch for {offsets:?}: {b:?} vs {r:?}"),
            }
        }
    }

    #[test]
    fn repeated_offsets_collapse_into_one_register() {
        let dm = DistanceModel::from_offsets(&[3, 3, 3, 3, 3], 1, 1);
        let r = min_zero_cost_cover(&dm).expect("feasible");
        assert_eq!(r.virtual_registers(), 1);
    }

    #[test]
    fn single_access_patterns() {
        let dm = DistanceModel::from_offsets(&[7], 1, 1);
        let r = min_zero_cost_cover(&dm).expect("feasible");
        assert_eq!(r.virtual_registers(), 1);
        let dm = DistanceModel::from_offsets(&[7], 9, 1);
        assert_eq!(
            min_zero_cost_cover(&dm).unwrap_err(),
            CoverSearchError::NoZeroCostCover
        );
    }
}
