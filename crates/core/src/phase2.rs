//! Phase 2: path merging under the register constraint.
//!
//! If Phase 1 needs more virtual registers than the machine has
//! (`K̃ > K`), paths must be merged. The paper's heuristic (Section 3.2)
//! always merges the pair `(P_i, P_j)` whose merge `P_i ⊕ P_j` has the
//! minimal cost `C(P_i ⊕ P_j)` among all pairs, repeating until `K` paths
//! remain. The evaluation baseline (*naive* allocation, Section 4) merges
//! two *arbitrary* paths instead; both are implemented here as
//! [`MergeStrategy`] variants, together with a deliberately bad
//! worst-case strategy for ablation studies.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use raco_graph::{DistanceModel, PathCover};

use crate::cost::CostModel;

/// How merge candidates are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MergeStrategy {
    /// The paper's heuristic: merge the pair with minimal merged cost
    /// `C(P_i ⊕ P_j)`. Ties are broken by smaller *marginal* cost
    /// (`C(P_i ⊕ P_j) - C(P_i) - C(P_j)` — extending a path that already
    /// pays an update is better than spoiling two clean ones), then by
    /// smaller merged length, then by smaller pair indices (covers are
    /// canonically ordered, so the result is deterministic).
    GreedyMinCost,
    /// The paper's baseline: merge two arbitrary paths. Pairs are drawn
    /// uniformly from a seeded RNG so experiments are reproducible.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Always merge the first two paths in canonical order — a
    /// deterministic flavour of "arbitrary".
    FirstPair,
    /// Adversarial: merge the pair with *maximal* merged cost. Used by
    /// ablation experiments to bracket the strategy space.
    WorstCost,
}

/// One merge step performed by Phase 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeRecord {
    /// Number of paths before this merge.
    pub paths_before: usize,
    /// Lengths of the two merged paths.
    pub merged_lengths: (usize, usize),
    /// Cost of the merged path under the configured cost model.
    pub merged_path_cost: u32,
    /// Total cover cost after this merge.
    pub total_cost_after: u32,
}

/// The result of Phase 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase2Report {
    cover: PathCover,
    records: Vec<MergeRecord>,
    cost_trajectory: Vec<(usize, u32)>,
}

impl Phase2Report {
    /// Reassembles a report from its serialized parts — the inverse of
    /// the [`cover`](Self::cover)/[`records`](Self::records)/
    /// [`cost_trajectory`](Self::cost_trajectory) accessors, used by
    /// snapshot decoders (`raco_driver::persist`) to rebuild cached
    /// allocations without re-running the merge trajectory.
    ///
    /// All recorded costs are evaluated under the *accounting* cost
    /// model the merge ran with — on a machine with modify registers
    /// that is the MR-aware predicted cost, the same number the
    /// simulator measures.
    pub fn from_parts(
        cover: PathCover,
        records: Vec<MergeRecord>,
        cost_trajectory: Vec<(usize, u32)>,
    ) -> Self {
        Phase2Report {
            cover,
            records,
            cost_trajectory,
        }
    }

    /// The final cover (at most `K` paths).
    pub fn cover(&self) -> &PathCover {
        &self.cover
    }

    /// One record per merge, in execution order.
    pub fn records(&self) -> &[MergeRecord] {
        &self.records
    }

    /// `(register count, total cost)` after Phase 1 and after every
    /// merge — i.e. the whole cost curve from `K̃` down to the final
    /// register count. Useful for register sweeps: the cost for any
    /// intermediate `k` can be read off without re-running.
    pub fn cost_trajectory(&self) -> &[(usize, u32)] {
        &self.cost_trajectory
    }

    /// The cost the trajectory reports for `k` registers, if the
    /// trajectory passed through `k`.
    pub fn cost_at(&self, k: usize) -> Option<u32> {
        self.cost_trajectory
            .iter()
            .find(|&&(count, _)| count == k)
            .map(|&(_, cost)| cost)
    }

    /// The predicted cost of the final cover — the last trajectory
    /// entry, evaluated under the accounting cost model the merge ran
    /// with (MR-aware on machines with modify registers).
    pub fn final_cost(&self) -> u32 {
        self.cost_trajectory
            .last()
            .map(|&(_, cost)| cost)
            .unwrap_or(0)
    }
}

/// Merges paths of `cover` until at most `k` remain.
///
/// The returned report contains the final cover, per-merge records and the
/// full cost trajectory. If the cover already satisfies the constraint it
/// is returned unchanged (empty record list).
///
/// For [`MergeStrategy::GreedyMinCost`] merging continues **below** the
/// constraint as long as a merge strictly reduces total cost. This can
/// only happen when Phase 1 fell back to a relaxed cover (paths that
/// individually pay their wrap steps can combine into a cheaper chain);
/// for zero-cost Phase-1 covers every merge costs at least one update, so
/// the greedy result uses exactly `min(k, K̃)` registers. The baseline
/// strategies stop at `k` paths, faithful to the paper's naive allocator.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Examples
///
/// ```
/// use raco_core::{phase2, CostModel, MergeStrategy};
/// use raco_graph::{bb, DistanceModel};
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let phase1 = bb::min_zero_cost_cover(&dm).unwrap().cover; // K̃ = 3
/// let report = phase2::merge_until(
///     &phase1,
///     2,
///     &dm,
///     CostModel::steady_state(),
///     MergeStrategy::GreedyMinCost,
/// );
/// assert_eq!(report.cover().register_count(), 2);
/// assert!(report.cost_at(2).unwrap() >= 1); // every merge costs ≥ 1
/// ```
pub fn merge_until(
    cover: &PathCover,
    k: usize,
    dm: &DistanceModel,
    cost_model: CostModel,
    strategy: MergeStrategy,
) -> Phase2Report {
    merge_until_with_selection(cover, k, dm, cost_model, cost_model, strategy)
}

/// [`merge_until`] with the cost model split into two roles:
///
/// * `account` prices every recorded cost — merge records, the cost
///   trajectory, and therefore the final predicted cost. On machines
///   with modify registers this is the MR-aware model, so Phase 2
///   reports the same number the simulator measures.
/// * `selection` ranks merge candidates. With zero modify registers the
///   ranking is the paper's (minimal merged-path cost, byte-identical
///   to the pre-MR behaviour); with modify registers it charges a delta
///   zero cycles when one of `selection`'s modify registers would hold
///   it, steering merges toward covers whose over-range deltas repeat.
///
/// Splitting the roles lets `Optimizer` sweep selection aggressiveness
/// (`0..=MR` priced registers) while every candidate is judged under
/// the one true machine model — which is what makes the final predicted
/// cost monotone in the machine's modify-register count.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn merge_until_with_selection(
    cover: &PathCover,
    k: usize,
    dm: &DistanceModel,
    account: CostModel,
    selection: CostModel,
    strategy: MergeStrategy,
) -> Phase2Report {
    assert!(k > 0, "cannot allocate to zero registers");
    let mut cover = cover.clone();
    let mut records = Vec::new();
    let mut trajectory = vec![(cover.register_count(), account.cover_cost(&cover, dm))];
    let mut rng = match strategy {
        MergeStrategy::Random { seed } => Some(SmallRng::seed_from_u64(seed)),
        _ => None,
    };
    while cover.register_count() > k {
        let paths_before = cover.register_count();
        let (i, j) = select_pair(&cover, dm, selection, strategy, rng.as_mut());
        let merged_lengths = (cover.paths()[i].len(), cover.paths()[j].len());
        let merged_path_cost = account.merged_path_cost(&cover.paths()[i], &cover.paths()[j], dm);
        cover.merge_pair(i, j).expect("cover paths are disjoint");
        let total_cost_after = account.cover_cost(&cover, dm);
        records.push(MergeRecord {
            paths_before,
            merged_lengths,
            merged_path_cost,
            total_cost_after,
        });
        trajectory.push((cover.register_count(), total_cost_after));
    }
    // Opportunistic phase: keep merging while it strictly pays off
    // (relaxed Phase-1 covers only; see the function docs). A cover that
    // pays no step at all cannot get cheaper, so it skips the scan.
    if strategy == MergeStrategy::GreedyMinCost {
        while cover.register_count() >= 2 && cover.total_cost(dm, selection.includes_wrap()) > 0 {
            let Some((i, j, marginal)) = best_marginal_pair(&cover, dm, selection) else {
                break;
            };
            if marginal >= 0 {
                break;
            }
            let paths_before = cover.register_count();
            let merged_lengths = (cover.paths()[i].len(), cover.paths()[j].len());
            let merged_path_cost =
                account.merged_path_cost(&cover.paths()[i], &cover.paths()[j], dm);
            cover.merge_pair(i, j).expect("cover paths are disjoint");
            let total_cost_after = account.cover_cost(&cover, dm);
            records.push(MergeRecord {
                paths_before,
                merged_lengths,
                merged_path_cost,
                total_cost_after,
            });
            trajectory.push((cover.register_count(), total_cost_after));
        }
    }
    Phase2Report {
        cover,
        records,
        cost_trajectory: trajectory,
    }
}

/// The pair with the smallest marginal merge cost
/// (`C(P_i ⊕ P_j) - C(P_i) - C(P_j)`), or `None` for single-path covers.
/// Ranking key of a merge candidate in the opportunistic phase.
type MarginalRank = (i64, usize, usize, usize);

fn best_marginal_pair(
    cover: &PathCover,
    dm: &DistanceModel,
    cost_model: CostModel,
) -> Option<(usize, usize, i64)> {
    let p = cover.register_count();
    if p < 2 {
        return None;
    }
    if cost_model.modify_registers() > 0 {
        let before = i64::from(cost_model.cover_cost(cover, dm));
        let (i, j, cost_after) = best_mr_aware_pair(cover, dm, cost_model, false);
        return Some((i, j, i64::from(cost_after) - before));
    }
    let path_costs: Vec<i64> = cover
        .paths()
        .iter()
        .map(|path| i64::from(cost_model.path_cost(path, dm)))
        .collect();
    let mut best: Option<(MarginalRank, (usize, usize))> = None;
    for i in 0..p {
        for j in (i + 1)..p {
            let (pi, pj) = (&cover.paths()[i], &cover.paths()[j]);
            let marginal =
                i64::from(cost_model.merged_path_cost(pi, pj, dm)) - path_costs[i] - path_costs[j];
            let rank = (marginal, pi.len() + pj.len(), i, j);
            if best.as_ref().is_none_or(|(r, _)| rank < *r) {
                best = Some((rank, (i, j)));
            }
        }
    }
    best.map(|((marginal, _, _, _), (i, j))| (i, j, marginal))
}

/// The MR-aware merge candidate scan shared by greedy selection and the
/// opportunistic marginal search: with modify registers, a candidate is
/// judged by the cost of the *whole cover after the merge* — a delta is
/// free when one of the model's registers would hold it, and which
/// deltas those are depends on every path's step frequencies, not just
/// the merged pair's. Returns the selected `(i, j)` plus the cover cost
/// after that merge; `worst` inverts the primary criterion (ablation).
/// Ties break toward shorter merged paths, then smaller indices, so
/// selection stays deterministic.
///
/// # Panics
///
/// Panics if the cover has fewer than two paths (callers check).
fn best_mr_aware_pair(
    cover: &PathCover,
    dm: &DistanceModel,
    cost_model: CostModel,
    worst: bool,
) -> (usize, usize, u32) {
    /// Ranking key of an MR-aware candidate: primary criterion, merged
    /// length, then the pair indices.
    type MrAwareRank = (u32, usize, usize, usize);
    let p = cover.register_count();
    let mut best: Option<(MrAwareRank, (usize, usize, u32))> = None;
    for i in 0..p {
        for j in (i + 1)..p {
            let mut merged_cover = cover.clone();
            merged_cover
                .merge_pair(i, j)
                .expect("cover paths are disjoint");
            let cost = cost_model.cover_cost(&merged_cover, dm);
            let primary = if worst { u32::MAX - cost } else { cost };
            let merged_len = cover.paths()[i].len() + cover.paths()[j].len();
            let rank = (primary, merged_len, i, j);
            if best.as_ref().is_none_or(|(r, _)| rank < *r) {
                best = Some((rank, (i, j, cost)));
            }
        }
    }
    best.expect("at least one pair exists").1
}

/// Ranking key of a merge candidate in the greedy/worst strategies.
type GreedyRank = (u32, i64, usize, usize, usize);

fn select_pair(
    cover: &PathCover,
    dm: &DistanceModel,
    cost_model: CostModel,
    strategy: MergeStrategy,
    rng: Option<&mut SmallRng>,
) -> (usize, usize) {
    let p = cover.register_count();
    debug_assert!(p >= 2);
    match strategy {
        MergeStrategy::FirstPair => (0, 1),
        MergeStrategy::Random { .. } => {
            let rng = rng.expect("random strategy carries an RNG");
            let i = rng.gen_range(0..p);
            let mut j = rng.gen_range(0..p - 1);
            if j >= i {
                j += 1;
            }
            (i.min(j), i.max(j))
        }
        MergeStrategy::GreedyMinCost | MergeStrategy::WorstCost
            if cost_model.modify_registers() > 0 =>
        {
            let (i, j, _) =
                best_mr_aware_pair(cover, dm, cost_model, strategy == MergeStrategy::WorstCost);
            (i, j)
        }
        MergeStrategy::GreedyMinCost | MergeStrategy::WorstCost => {
            let path_costs: Vec<i64> = cover
                .paths()
                .iter()
                .map(|p| i64::from(cost_model.path_cost(p, dm)))
                .collect();
            let mut best: Option<(GreedyRank, (usize, usize))> = None;
            for i in 0..p {
                for j in (i + 1)..p {
                    let (pi, pj) = (&cover.paths()[i], &cover.paths()[j]);
                    let merged_len = pi.len() + pj.len();
                    let cost = cost_model.merged_path_cost(pi, pj, dm);
                    let marginal = i64::from(cost) - path_costs[i] - path_costs[j];
                    let rank = if strategy == MergeStrategy::WorstCost {
                        // Invert the primary criterion; tie-breaks stay
                        // deterministic.
                        (u32::MAX - cost, -marginal, merged_len, i, j)
                    } else {
                        (cost, marginal, merged_len, i, j)
                    };
                    if best.as_ref().is_none_or(|(r, _)| rank < *r) {
                        best = Some((rank, (i, j)));
                    }
                }
            }
            best.expect("at least one pair exists").1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_graph::Path;

    fn paper_dm() -> DistanceModel {
        DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1)
    }

    fn paper_phase1_cover() -> PathCover {
        // {(a_1,a_3,a_5), (a_2,a_4,a_6), (a_7)} — the zero-cost K̃ = 3 cover.
        PathCover::new(
            vec![
                Path::new(vec![0, 2, 4]).unwrap(),
                Path::new(vec![1, 3, 5]).unwrap(),
                Path::new(vec![6]).unwrap(),
            ],
            7,
        )
        .unwrap()
    }

    #[test]
    fn already_satisfied_constraint_is_a_no_op() {
        let dm = paper_dm();
        let cover = paper_phase1_cover();
        let r = merge_until(
            &cover,
            3,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        assert_eq!(r.cover(), &cover);
        assert!(r.records().is_empty());
        assert_eq!(r.cost_trajectory(), &[(3, 0)]);
    }

    #[test]
    fn greedy_merges_down_to_k_and_each_merge_costs_at_least_one() {
        let dm = paper_dm();
        let r = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        assert_eq!(r.cover().register_count(), 1);
        assert_eq!(r.records().len(), 2);
        // Minimality of K̃ implies every merge of zero-cost paths costs >= 1.
        let mut last = 0;
        for (k, cost) in r.cost_trajectory().iter().skip(1) {
            assert!(*cost > last, "merge to {k} registers must add cost");
            last = *cost;
        }
    }

    #[test]
    fn cost_trajectory_indexes_by_register_count() {
        let dm = paper_dm();
        let r = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        assert_eq!(r.cost_at(3), Some(0));
        assert!(r.cost_at(2).unwrap() >= 1);
        assert!(r.cost_at(1).unwrap() >= r.cost_at(2).unwrap());
        assert_eq!(r.cost_at(7), None);
    }

    #[test]
    fn greedy_is_no_worse_than_worst_case_here() {
        let dm = paper_dm();
        let greedy = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        let worst = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::WorstCost,
        );
        assert!(
            greedy.cost_at(1).unwrap() <= worst.cost_at(1).unwrap(),
            "greedy {} vs worst {}",
            greedy.cost_at(1).unwrap(),
            worst.cost_at(1).unwrap()
        );
    }

    #[test]
    fn random_strategy_is_reproducible_per_seed() {
        let dm = paper_dm();
        let a = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::Random { seed: 42 },
        );
        let b = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::Random { seed: 42 },
        );
        assert_eq!(a.cover(), b.cover());
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn first_pair_strategy_merges_canonical_heads() {
        let dm = paper_dm();
        let r = merge_until(
            &paper_phase1_cover(),
            2,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::FirstPair,
        );
        assert_eq!(r.cover().register_count(), 2);
        // First two canonical paths are (a_1,a_3,a_5) and (a_2,a_4,a_6):
        // merged into the 6-access chain; a_7 stays alone.
        assert_eq!(r.cover().paths()[0].len(), 6);
        assert_eq!(r.cover().paths()[1].len(), 1);
    }

    #[test]
    fn merging_preserves_the_access_partition() {
        let dm = paper_dm();
        for strategy in [
            MergeStrategy::GreedyMinCost,
            MergeStrategy::FirstPair,
            MergeStrategy::Random { seed: 7 },
            MergeStrategy::WorstCost,
        ] {
            let r = merge_until(
                &paper_phase1_cover(),
                1,
                &dm,
                CostModel::steady_state(),
                strategy,
            );
            let total: usize = r.cover().paths().iter().map(|p| p.len()).sum();
            assert_eq!(total, 7, "{strategy:?}");
        }
    }

    #[test]
    fn marginal_tie_break_grows_one_chain_instead_of_many_pairs() {
        // FIR-style pattern: offsets 0, -1, …, -7 with stride 1: K̃ = 8
        // (no multi-access path can close its wrap), and the optimum for
        // every 1 <= k < 8 is exactly one unit cost — one long chain pays
        // a single wrap. A greedy that ties toward fresh singleton pairs
        // would pay once per pair instead.
        let offsets: Vec<i64> = (0..8).map(|i| -i).collect();
        let dm = DistanceModel::from_offsets(&offsets, 1, 1);
        let phase1 = crate::phase1::run(&dm, raco_graph::BbOptions::default());
        assert_eq!(phase1.virtual_registers(), 8);
        let r = merge_until(
            phase1.cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        for (k, cost) in r.cost_trajectory() {
            let expected = if *k == 8 { 0 } else { 1 };
            assert_eq!(*cost, expected, "k = {k}");
        }
    }

    #[test]
    fn greedy_keeps_merging_below_k_when_it_pays() {
        // Stride 5, M = 1: no zero-cost cover exists, Phase 1 falls back
        // to the relaxed cover (two singletons, each paying its wrap).
        // Chaining them costs 1 instead of 2, so greedy must merge even
        // though the register constraint (k = 2) is already met.
        let dm = DistanceModel::from_offsets(&[0, 5], 5, 1);
        let phase1 = crate::phase1::run(&dm, raco_graph::BbOptions::default());
        assert_eq!(
            phase1.outcome(),
            crate::Phase1Outcome::Relaxed,
            "precondition"
        );
        let r = merge_until(
            phase1.cover(),
            2,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        assert_eq!(r.cover().register_count(), 1);
        assert_eq!(CostModel::steady_state().cover_cost(r.cover(), &dm), 1);
        // The baselines stay at the constraint, as the paper's naive
        // allocator does.
        let naive = merge_until(
            phase1.cover(),
            2,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::FirstPair,
        );
        assert_eq!(naive.cover().register_count(), 2);
    }

    #[test]
    #[should_panic(expected = "zero registers")]
    fn zero_register_target_is_rejected() {
        let dm = paper_dm();
        let _ = merge_until(
            &paper_phase1_cover(),
            0,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
    }
}
