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

use std::ops::RangeInclusive;

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

    /// The predicted cost of the final cover — the last trajectory
    /// entry, evaluated under the accounting cost model the merge ran
    /// with (MR-aware on machines with modify registers).
    pub fn final_cost(&self) -> u32 {
        self.cost_trajectory
            .last()
            .map(|&(_, cost)| cost)
            .unwrap_or(0)
    }

    /// Merges paths `i` and `j` of the cover, recording the step under
    /// `account`.
    fn merge(&mut self, (i, j): (usize, usize), dm: &DistanceModel, account: CostModel) {
        let (pi, pj) = (&self.cover.paths()[i], &self.cover.paths()[j]);
        let paths_before = self.cover.register_count();
        let merged_lengths = (pi.len(), pj.len());
        let merged_path_cost = account.merged_path_cost(pi, pj, dm);
        self.cover
            .merge_pair(i, j)
            .expect("cover paths are disjoint");
        let total_cost_after = account.cover_cost(&self.cover, dm);
        self.records.push(MergeRecord {
            paths_before,
            merged_lengths,
            merged_path_cost,
            total_cost_after,
        });
        self.cost_trajectory
            .push((self.cover.register_count(), total_cost_after));
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
/// This is [`merge_down`] over the single count `k`, with one model in
/// both roles.
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
/// assert!(report.final_cost() >= 1); // every merge costs ≥ 1
/// ```
pub fn merge_until(
    cover: &PathCover,
    k: usize,
    dm: &DistanceModel,
    cost_model: CostModel,
    strategy: MergeStrategy,
) -> Phase2Report {
    let mut reports = merge_down(cover, k..=k, dm, cost_model, cost_model, strategy);
    reports.pop().expect("one report per count")
}

/// The [`merge_until`] report for every register count in `counts`
/// (indexed by `k - counts.start()`), from one merge run.
///
/// The main loop picks its pair without reading the target count, so
/// the run to `k - 1` is the run to `k` plus one step: it runs once,
/// from `cover` down to the smallest count. At each count it passes,
/// the greedy strategy's opportunistic phase continues from a copy of
/// the state reached there; its first candidate scan is the one the
/// main loop's next step ranks too.
///
/// The cost model has two roles:
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
/// Splitting the roles lets `Optimizer` run one trajectory per
/// selection aggressiveness (`0..=MR` priced registers) while every
/// candidate is judged under the one true machine model — which is what
/// makes the final predicted cost monotone in the machine's
/// modify-register count.
///
/// # Panics
///
/// Panics if `counts` starts at zero.
pub fn merge_down(
    cover: &PathCover,
    counts: RangeInclusive<usize>,
    dm: &DistanceModel,
    account: CostModel,
    selection: CostModel,
    strategy: MergeStrategy,
) -> Vec<Phase2Report> {
    assert!(*counts.start() > 0, "cannot allocate to zero registers");
    let mut run = Run {
        report: Phase2Report {
            cover: cover.clone(),
            records: Vec::new(),
            cost_trajectory: vec![(cover.register_count(), account.cover_cost(cover, dm))],
        },
        candidates: None,
    };
    let mut rng = match strategy {
        MergeStrategy::Random { seed } => Some(SmallRng::seed_from_u64(seed)),
        _ => None,
    };
    let mut reports: Vec<Phase2Report> = Vec::with_capacity(counts.clone().count());
    for k in counts.rev() {
        let steps = run.report.records.len();
        while run.report.cover.register_count() > k {
            let pair = match strategy {
                MergeStrategy::FirstPair => (0, 1),
                MergeStrategy::Random { .. } => {
                    let rng = rng.as_mut().expect("random strategy carries an RNG");
                    let p = run.report.cover.register_count();
                    let i = rng.gen_range(0..p);
                    let j = rng.gen_range(0..p - 1);
                    let j = if j >= i { j + 1 } else { j };
                    (i.min(j), i.max(j))
                }
                MergeStrategy::GreedyMinCost => best(run.candidates(dm, selection), |&c| c).3,
                // Invert the primary criterion; tie-breaks stay
                // deterministic.
                MergeStrategy::WorstCost => {
                    let candidates = run.candidates(dm, selection);
                    best(candidates, |&(c, m, l, pair)| (u32::MAX - c, -m, l, pair)).3
                }
            };
            run.merge(pair, dm, account);
        }
        let report = match reports.last() {
            // No merge since the previous count: same state, same report.
            Some(previous) if run.report.records.len() == steps => previous.clone(),
            _ if strategy == MergeStrategy::GreedyMinCost => {
                run.merge_while_it_pays(dm, account, selection)
            }
            _ => run.report.clone(),
        };
        reports.push(report);
    }
    reports.reverse();
    reports
}

/// A merge candidate `P_i ⊕ P_j` priced under the selection model:
/// `(cost, marginal cost, merged length, (i, j))` — the greedy rank.
///
/// Without modify registers the costs are the paper's path-local
/// `C(P_i ⊕ P_j)` and `C(P_i ⊕ P_j) - C(P_i) - C(P_j)`. With modify
/// registers a delta is free when one of the model's registers would
/// hold it, and which deltas those are depends on every path's step
/// frequencies. So the cost is the whole cover's cost after the merge,
/// and the marginal cost is that less the cost before, which ranks
/// exactly as the cost does.
type Candidate = (u32, i64, usize, (usize, usize));

/// Prices every merge candidate of `cover` under `model`, in `(i, j)`
/// order.
fn price_candidates(cover: &PathCover, dm: &DistanceModel, model: CostModel) -> Vec<Candidate> {
    let paths = cover.paths();
    let pairs = (0..paths.len()).flat_map(|i| (i + 1..paths.len()).map(move |j| (i, j)));
    let candidate = |(i, j): (usize, usize), cost: u32, marginal: i64| {
        (cost, marginal, paths[i].len() + paths[j].len(), (i, j))
    };
    if model.modify_registers() > 0 {
        let before = i64::from(model.cover_cost(cover, dm));
        return pairs
            .map(|(i, j)| {
                let merged = paths[i].merge(&paths[j]).expect("cover paths are disjoint");
                let others = (0..paths.len()).filter(|&p| p != i && p != j);
                let after = others.map(|p| &paths[p]).chain([&merged]);
                let cost = model.paths_cost(after.map(|path| (path, dm)));
                candidate((i, j), cost, i64::from(cost) - before)
            })
            .collect();
    }
    let path_costs: Vec<i64> = paths
        .iter()
        .map(|path| i64::from(model.path_cost(path, dm)))
        .collect();
    pairs
        .map(|(i, j)| {
            let cost = model.merged_path_cost(&paths[i], &paths[j], dm);
            candidate(
                (i, j),
                cost,
                i64::from(cost) - path_costs[i] - path_costs[j],
            )
        })
        .collect()
}

/// The candidate with the smallest `rank`. Every rank ends in the pair
/// `(i, j)`, so no two candidates tie and selection is deterministic.
fn best<R: Ord>(candidates: &[Candidate], rank: impl Fn(&Candidate) -> R) -> Candidate {
    *candidates
        .iter()
        .min_by_key(|c| rank(c))
        .expect("at least one pair exists")
}

/// A merge in progress: the report so far and, once priced, the merge
/// candidates of its cover. The candidates are priced at most once per
/// state, so the opportunistic phase at a count and the main loop's
/// next step share one scan.
struct Run {
    report: Phase2Report,
    candidates: Option<Vec<Candidate>>,
}

impl Run {
    fn candidates(&mut self, dm: &DistanceModel, selection: CostModel) -> &[Candidate] {
        let cover = &self.report.cover;
        self.candidates
            .get_or_insert_with(|| price_candidates(cover, dm, selection))
    }

    fn merge(&mut self, pair: (usize, usize), dm: &DistanceModel, account: CostModel) {
        self.candidates = None;
        self.report.merge(pair, dm, account);
    }

    /// The greedy strategy's opportunistic phase, run on a copy of this
    /// state: keep merging the pair with the smallest marginal cost
    /// while that strictly pays off (relaxed Phase-1 covers only; see
    /// [`merge_until`]). A cover that pays no step at all cannot get
    /// cheaper, so it skips the scan.
    fn merge_while_it_pays(
        &mut self,
        dm: &DistanceModel,
        account: CostModel,
        selection: CostModel,
    ) -> Phase2Report {
        // The copy is made at the first merge that pays; until then the
        // scan is this state's own.
        let mut copy: Option<Run> = None;
        loop {
            let run = copy.as_mut().unwrap_or(&mut *self);
            let cover = &run.report.cover;
            if cover.register_count() < 2 || cover.total_cost(dm, selection.includes_wrap()) == 0 {
                break;
            }
            let (_, marginal, _, pair) = best(run.candidates(dm, selection), |&(_, m, l, pair)| {
                (m, l, pair)
            });
            if marginal >= 0 {
                break;
            }
            copy.get_or_insert_with(|| Run {
                report: self.report.clone(),
                candidates: None,
            })
            .merge(pair, dm, account);
        }
        copy.map_or_else(|| self.report.clone(), |run| run.report)
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
        let trajectory = r.cost_trajectory();
        let counts: Vec<usize> = trajectory.iter().map(|&(k, _)| k).collect();
        assert_eq!(counts, [3, 2, 1]);
        assert_eq!(trajectory[0].1, 0);
        assert!(trajectory[1].1 >= 1);
        assert!(trajectory[2].1 >= trajectory[1].1);
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
            greedy.final_cost() <= worst.final_cost(),
            "greedy {} vs worst {}",
            greedy.final_cost(),
            worst.final_cost()
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
    fn one_run_reports_every_count_as_a_run_to_that_count() {
        // Relaxed (stride 3) and zero-cost Phase-1 covers, with selection
        // priced with and without modify registers: the report at each
        // count equals a separate run to that count.
        for (offsets, stride, relaxed) in [
            (&[1, 0, 2, -1, 1, 0, -2][..], 1, false),
            (&[0, 4, -3, 9, 1, 2], 3, true),
        ] {
            let dm = DistanceModel::from_offsets(offsets, stride, 1);
            let phase1 = crate::phase1::run(&dm, raco_graph::BbOptions::default());
            let outcome_is_relaxed = phase1.outcome() == crate::Phase1Outcome::Relaxed;
            assert_eq!(outcome_is_relaxed, relaxed, "precondition");
            let account = CostModel::steady_state().with_modify_registers(2);
            for selection in [account.with_modify_registers(0), account] {
                for strategy in [
                    MergeStrategy::GreedyMinCost,
                    MergeStrategy::FirstPair,
                    MergeStrategy::Random { seed: 7 },
                    MergeStrategy::WorstCost,
                ] {
                    let all = merge_down(phase1.cover(), 1..=8, &dm, account, selection, strategy);
                    assert_eq!(all.len(), 8);
                    for (k, report) in (1..=8).zip(&all) {
                        let alone =
                            merge_down(phase1.cover(), k..=k, &dm, account, selection, strategy);
                        assert_eq!(
                            alone.as_slice(),
                            std::slice::from_ref(report),
                            "{strategy:?} k = {k}"
                        );
                    }
                }
            }
        }
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
