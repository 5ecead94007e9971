//! Phase 1: the minimum number of virtual registers `K̃`.
//!
//! Runs the exact branch-and-bound of `raco-graph` (the paper's ref \[3\])
//! and reports the zero-cost cover. When no zero-cost cover exists at all
//! (possible when the effective stride exceeds `M`) or the search budget
//! runs out, Phase 1 falls back to the relaxed matching cover — zero
//! intra-iteration cost, wrap steps paid — so that Phase 2 can still
//! proceed; the outcome records which case occurred.

use raco_graph::matching::MatchingCover;
use raco_graph::{bb, bounds, BbOptions, DistanceModel, PathCover};

/// How Phase 1 obtained its cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Phase1Outcome {
    /// A zero-cost cover was found; `K̃` is its register count.
    /// `proved_minimal` is `false` only if the branch-and-bound budget ran
    /// out after finding a feasible but possibly non-minimal cover.
    ZeroCost {
        /// Whether minimality was proved.
        proved_minimal: bool,
    },
    /// No zero-cost cover exists (or was found within budget); the relaxed
    /// matching cover is used instead and wrap steps cost one instruction
    /// each.
    Relaxed,
}

/// The result of Phase 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase1Report {
    cover: PathCover,
    outcome: Phase1Outcome,
    lower_bound: usize,
    nodes: u64,
}

impl Phase1Report {
    /// Reassembles a report from its serialized parts — the inverse of
    /// the [`cover`](Self::cover)/[`outcome`](Self::outcome)/
    /// [`lower_bound`](Self::lower_bound)/[`nodes`](Self::nodes)
    /// accessors, used by snapshot decoders (`raco_driver::persist`)
    /// to rebuild cached allocations without re-running the search.
    pub fn from_parts(
        cover: PathCover,
        outcome: Phase1Outcome,
        lower_bound: usize,
        nodes: u64,
    ) -> Self {
        Phase1Report {
            cover,
            outcome,
            lower_bound,
            nodes,
        }
    }

    /// The Phase-1 cover (zero-cost if `outcome` is
    /// [`Phase1Outcome::ZeroCost`]).
    pub fn cover(&self) -> &PathCover {
        &self.cover
    }

    /// The number of virtual registers `K̃` (register count of the cover).
    pub fn virtual_registers(&self) -> usize {
        self.cover.register_count()
    }

    /// How the cover was obtained.
    pub fn outcome(&self) -> Phase1Outcome {
        self.outcome
    }

    /// The matching lower bound on `K̃`.
    pub fn lower_bound(&self) -> usize {
        self.lower_bound
    }

    /// Branch-and-bound nodes expanded (0 if the bounds were tight).
    pub fn nodes(&self) -> u64 {
        self.nodes
    }
}

/// Runs Phase 1 on a distance model. One matching gives the lower
/// bound, the split repair's incumbent and the relaxed fallback;
/// [`bb::search`] looks for the zero-cost cover between the bounds.
///
/// # Examples
///
/// ```
/// use raco_core::phase1;
/// use raco_graph::{BbOptions, DistanceModel};
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let report = phase1::run(&dm, BbOptions::default());
/// assert_eq!(report.virtual_registers(), 3);
/// ```
pub fn run(dm: &DistanceModel, options: BbOptions) -> Phase1Report {
    let matched = MatchingCover::new(dm);
    let bounds = bounds::bounds(dm, &matched);
    let lower_bound = bounds.lower;
    let found = bb::search(dm, bounds, options);
    match found.cover {
        Some(cover) => Phase1Report {
            cover,
            outcome: Phase1Outcome::ZeroCost {
                proved_minimal: found.proved,
            },
            lower_bound,
            nodes: found.nodes,
        },
        // No zero-cost cover exists, or none was found within the
        // budget: the relaxed matching cover, reported with 0 nodes.
        None => Phase1Report {
            cover: matched.cover(),
            outcome: Phase1Outcome::Relaxed,
            lower_bound,
            nodes: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;

    #[test]
    fn paper_example_is_zero_cost_with_three_registers() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let r = run(&dm, BbOptions::default());
        assert_eq!(r.virtual_registers(), 3);
        assert_eq!(
            r.outcome(),
            Phase1Outcome::ZeroCost {
                proved_minimal: true
            }
        );
        assert!(r.cover().is_zero_cost(&dm));
        assert_eq!(r.lower_bound(), 2);
    }

    #[test]
    fn infeasible_patterns_fall_back_to_relaxed_cover() {
        // Stride 5, M = 1: no wrap ever closes.
        let dm = DistanceModel::from_offsets(&[0, 1, 2], 5, 1);
        let r = run(&dm, BbOptions::default());
        assert_eq!(r.outcome(), Phase1Outcome::Relaxed);
        // Relaxed cover still has zero intra cost …
        let cover = r.cover();
        assert_eq!(CostModel::paper_literal().cover_cost(cover, &dm), 0);
        // … and pays for every wrap.
        assert_eq!(
            CostModel::steady_state().cover_cost(cover, &dm),
            cover.register_count() as u32
        );
    }

    #[test]
    fn relaxed_fallback_minimizes_path_count() {
        let dm = DistanceModel::from_offsets(&[0, 1, 2], 5, 1);
        let r = run(&dm, BbOptions::default());
        // The chain 0→1→2 is intra-free, so one path suffices.
        assert_eq!(r.virtual_registers(), 1);
    }

    #[test]
    fn budget_exhaustion_without_feasible_cover_degrades_gracefully() {
        let dm = DistanceModel::from_offsets(&[0, 10], 5, 1);
        let r = run(
            &dm,
            BbOptions {
                node_limit: 0,
                memoize: true,
            },
        );
        assert_eq!(r.outcome(), Phase1Outcome::Relaxed);
        assert_eq!(r.virtual_registers(), 2);
    }
}
