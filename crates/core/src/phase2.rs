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
//!
//! [`sweep`] runs the merge for a range of register counts and several
//! candidate rankings (*selections*) at once, as one merge tree: states
//! are shared until selections pick different pairs, and each state
//! prices every candidate for all of its selections in one scan of an
//! over-range delta histogram. A state is flat per-access arrays — each
//! access's successor on its path and the histogram key of its step —
//! relinked in place by a merge; no [`PathCover`] is built until a
//! report is asked for. A [`Sweep`] keeps the cheapest cost per count
//! and builds the [`Phase2Report`] of a count only when asked, by
//! replaying its merges with [`PathCover::merge_pair`]. [`merge_until`]
//! is its one-selection, one-count case.

use std::cmp;
use std::ops::RangeInclusive;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use raco_graph::modify::{paid_delta, steps};
use raco_graph::{DeltaHistogram, DistanceModel, PathCover};

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
/// This is a [`sweep`] over the single count `k` with one selection,
/// which prices exactly the modify registers `cost_model` prices.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Examples
///
/// ```
/// use raco_core::{phase1, phase2, CostModel, MergeStrategy};
/// use raco_graph::{BbOptions, DistanceModel};
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let zero_cost = phase1::run(&dm, BbOptions::default()); // K̃ = 3
/// let report = phase2::merge_until(
///     zero_cost.cover(),
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
    let priced = [cost_model.modify_registers()];
    sweep(cover, k..=k, dm, cost_model, &priced, strategy).report(cover, k)
}

/// Phase 2 for every register count in `counts` and every selection in
/// `priced` at once: the [`merge_until`] result of each selection at
/// each count, of which [`Sweep`] keeps the cheapest. `dm` is the
/// distance model `cover` covers.
///
/// The cost model has two roles:
///
/// * `account` prices every recorded cost — merge records, the cost
///   trajectory, and therefore the final predicted cost. On machines
///   with modify registers this is the MR-aware model, so Phase 2
///   reports the same number the simulator measures.
/// * A *selection* ranks merge candidates as `account` would with
///   `priced[s]` modify registers. With zero the ranking is the paper's
///   (minimal merged-path cost `C(P_i ⊕ P_j)`, then the marginal cost
///   `C(P_i ⊕ P_j) - C(P_i) - C(P_j)`); with more, a candidate costs the
///   whole cover after the merge, a delta being free when one of those
///   registers would hold it, which steers merges toward covers whose
///   over-range deltas repeat.
///
/// Running every selection aggressiveness (`0..=MR`) and judging each
/// cover under the one true model is what makes `Optimizer`'s predicted
/// cost monotone in the machine's modify-register count.
///
/// **One merge tree.** The main loop picks its pair without reading the
/// target count, so the run to `k - 1` is the run to `k` plus one step,
/// and it runs once, from `cover` down to the smallest count. All
/// selections start from `cover` and advance in lockstep; selections
/// that pick the same pair share one state, and a state splits (its
/// flat arrays are copied) only when its selections pick different
/// pairs. A state holds its paths' heads in ascending order (the
/// cover's canonical order, in which pairs are numbered) and, per
/// access, its successor on its path and the key of its step (to the
/// successor, or the wrap to the head); every step gets its key once,
/// from its [`paid_delta`] under `dm`, in a table built when the sweep
/// starts. A merge relinks the successors of `P_i ⊕ P_j` in place.
/// Each state prices its candidates once for all of its selections: it
/// keeps the over-range delta histogram of its paths
/// ([`DeltaHistogram`]), and a candidate
/// `(i, j)` walks `P_i ⊕ P_j` over the successors, moves only the steps
/// whose key the merge changes out of and into the histogram, reads the
/// cost for every priced count off the largest counts, and moves them
/// back. At each count, the greedy strategy's opportunistic phase
/// (merges below the count that still pay; see [`merge_until`]) grows
/// from each state the same way, and its first scan is the one the next
/// main step ranks.
///
/// No report is built during the sweep, and the sweep keeps no copy of
/// `cover`: [`Sweep::report`] replays the merges behind one count on
/// the cover its caller passes.
///
/// # Panics
///
/// Panics if `counts` starts at zero or `priced` is empty.
pub fn sweep(
    cover: &PathCover,
    counts: RangeInclusive<usize>,
    dm: &DistanceModel,
    account: CostModel,
    priced: &[usize],
    strategy: MergeStrategy,
) -> Sweep {
    assert!(*counts.start() > 0, "cannot allocate to zero registers");
    assert!(!priced.is_empty(), "a sweep needs a selection");
    let mut tree = Tree::new(dm, account, priced, strategy);
    let mut states = vec![tree.root(cover)];
    let mut next = Vec::new();
    let initial_cost = states[0].cost;
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(counts.clone().count());
    for k in counts.clone().rev() {
        let stepped = states[0].paths() > k;
        while states[0].paths() > k {
            for state in states.drain(..) {
                tree.step(state, &mut next);
            }
            std::mem::swap(&mut states, &mut next);
        }
        let outcome = match outcomes.last() {
            // No merge since the previous count: same states, same outcome.
            Some(&previous) if !stepped => previous,
            _ => states
                .iter_mut()
                .map(|state| tree.settle(state))
                .min_by_key(Outcome::rank)
                .expect("a sweep has a state"),
        };
        outcomes.push(outcome);
    }
    outcomes.reverse();
    Sweep {
        initial_cost,
        start: *counts.start(),
        merges: tree.merges,
        outcomes,
    }
}

/// The result of [`sweep`]: per register count, the cheapest cost any
/// selection reached (ties to the earliest selection, i.e. the smallest
/// priced count), and the merges behind it.
#[derive(Debug, Clone)]
pub struct Sweep {
    initial_cost: u32,
    start: usize,
    merges: Vec<Merge>,
    outcomes: Vec<Outcome>,
}

impl Sweep {
    /// The register counts swept.
    pub fn counts(&self) -> RangeInclusive<usize> {
        self.start..=self.start + self.outcomes.len() - 1
    }

    /// The cheapest predicted cost with `k` registers under the
    /// accounting model — the [`final_cost`](Phase2Report::final_cost)
    /// of [`report(k)`](Self::report).
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside [`counts`](Self::counts).
    pub fn cost(&self, k: usize) -> u32 {
        self.outcome(k).cost
    }

    /// The Phase-2 report behind [`cost(k)`](Self::cost), built by
    /// replaying its merges on `cover`, the Phase-1 cover the sweep
    /// started from.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside [`counts`](Self::counts), or if `cover`
    /// has fewer paths than a replayed merge names.
    pub fn report(&self, cover: &PathCover, k: usize) -> Phase2Report {
        let mut chain = Vec::new();
        let mut at = self.outcome(k).last;
        while let Some(index) = at {
            chain.push(index);
            at = self.merges[index].parent;
        }
        let mut cover = cover.clone();
        let mut records = Vec::with_capacity(chain.len());
        let mut cost_trajectory = Vec::with_capacity(chain.len() + 1);
        cost_trajectory.push((cover.register_count(), self.initial_cost));
        for &index in chain.iter().rev() {
            let Merge { pair, record, .. } = self.merges[index];
            cover
                .merge_pair(pair.0, pair.1)
                .expect("cover paths are disjoint");
            records.push(record);
            cost_trajectory.push((cover.register_count(), record.total_cost_after));
        }
        Phase2Report {
            cover,
            records,
            cost_trajectory,
        }
    }

    fn outcome(&self, k: usize) -> &Outcome {
        let counts = self.counts();
        assert!(
            counts.contains(&k),
            "{k} registers is outside the swept {counts:?}"
        );
        &self.outcomes[k - self.start]
    }
}

/// One merge of the tree: the pair merged in its parent's cover and
/// the record of the step.
#[derive(Debug, Clone, Copy)]
struct Merge {
    parent: Option<usize>,
    pair: (usize, usize),
    record: MergeRecord,
}

/// Where one selection settled at one count: its cost under the
/// accounting model, the selection (an index into the priced counts),
/// and the last merge on its way there.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    cost: u32,
    selection: usize,
    last: Option<usize>,
}

impl Outcome {
    fn rank(&self) -> (u32, usize) {
        (self.cost, self.selection)
    }
}

/// A merge candidate `P_i ⊕ P_j` priced under one selection:
/// `(cost, marginal cost, merged length, (i, j))` — the greedy rank.
///
/// Priced with zero modify registers the costs are the paper's
/// path-local `C(P_i ⊕ P_j)` and `C(P_i ⊕ P_j) - C(P_i) - C(P_j)`. With
/// more, which deltas are free depends on every path's step
/// frequencies, so the cost is the whole cover's cost after the merge,
/// and the marginal cost is that less the cost before, which ranks
/// exactly as the cost does.
type Candidate = (u32, i64, usize, (usize, usize));

/// The candidates one selection ranks first in a state: `main` for the
/// strategy's next merge, `pays` for the opportunistic phase (smallest
/// marginal cost).
#[derive(Debug, Clone, Copy)]
struct Picks {
    selection: usize,
    main: Candidate,
    pays: Candidate,
}

impl Picks {
    /// Keeps `candidate` where it ranks before the current pick. Every
    /// rank ends in the pair `(i, j)`, so no two candidates tie.
    fn offer(&mut self, candidate: Candidate, strategy: MergeStrategy) {
        let main_rank = |&(cost, marginal, len, pair): &Candidate| match strategy {
            // Invert the primary criterion; tie-breaks stay
            // deterministic.
            MergeStrategy::WorstCost => (u32::MAX - cost, -marginal, len, pair),
            _ => (cost, marginal, len, pair),
        };
        if main_rank(&candidate) < main_rank(&self.main) {
            self.main = candidate;
        }
        let pays_rank = |&(_, marginal, len, pair): &Candidate| (marginal, len, pair);
        if pays_rank(&candidate) < pays_rank(&self.pays) {
            self.pays = candidate;
        }
    }
}

/// The [`DeltaHistogram`] key of every step between two accesses of one
/// distance model (see [`steps`]), worked out when the table is built:
/// the distinct paid deltas are numbered densely in ascending order, so
/// equal deltas share a key and a histogram holds one count per distinct
/// delta however far apart the offsets are. Without `distinct` keys
/// every paid step has key 0, and only paid totals are read.
struct StepTable {
    n: usize,
    /// Per step `(from, to)` at `from * n + to`: its key, or [`FREE`].
    keys: Vec<u32>,
    /// One more than the largest key.
    len: usize,
}

/// The [`StepTable`] entry of a step that pays nothing.
const FREE: u32 = u32::MAX;

impl StepTable {
    fn new(dm: &DistanceModel, include_wrap: bool, distinct: bool) -> Self {
        let n = dm.len();
        let mut keys = vec![FREE; n * n];
        // Distinct keys: each paid step's delta and place, sorted by
        // delta. Key 0 is written directly: collecting and sorting
        // all-zero deltas measured 5 % of a cost curve on the machines
        // without modify registers.
        let mut paid: Vec<(i64, usize)> = Vec::with_capacity(if distinct { n * n } else { 0 });
        for from in 0..n {
            for to in 0..n {
                if let Some(delta) = paid_delta(dm, (from, to), include_wrap) {
                    if distinct {
                        paid.push((delta, from * n + to));
                    } else {
                        keys[from * n + to] = 0;
                    }
                }
            }
        }
        paid.sort_unstable();
        let mut key = 0;
        for (at, &(delta, step)) in paid.iter().enumerate() {
            if at > 0 && delta != paid[at - 1].0 {
                key += 1;
            }
            keys[step] = key;
        }
        StepTable {
            n,
            keys,
            len: key as usize + 1,
        }
    }

    /// The key of the step `(from, to)`, or [`FREE`].
    #[inline]
    fn key(&self, from: u32, to: u32) -> u32 {
        self.keys[from as usize * self.n + to as usize]
    }
}

/// The [`Link::next`] of a path's tail.
const END: u32 = u32::MAX;

/// One access of a [`State`]: where its register steps next, and at a
/// path's head the size of the path.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The next access on the path, or [`END`] at its tail.
    next: u32,
    /// The [`StepTable`] key of the step out of this access: to `next`,
    /// or from the tail the wrap to the head.
    key: u32,
    /// At a path's head: the path's accesses.
    len: u32,
    /// At a path's head: the path's paid steps.
    paid: u32,
}

/// Calls `visit(access, successor)` for every access of `P_i ⊕ P_j`, the
/// paths with heads `hi` and `hj`, in pattern order; the last access's
/// successor is [`END`].
#[inline]
fn walk(links: &[Link], hi: u32, hj: u32, mut visit: impl FnMut(u32, u32)) {
    let (mut a, mut b) = (hi, hj);
    let mut from = END;
    loop {
        let at = a.min(b);
        if at == END {
            break;
        }
        let next = links[at as usize].next;
        if at == a {
            a = next;
        } else {
            b = next;
        }
        if from != END {
            visit(from, at);
        }
        from = at;
    }
    visit(from, END);
}

/// A cover on its way down, shared by the selections that picked the
/// same pairs so far, as flat per-access arrays.
#[derive(Debug)]
struct State {
    /// The head of each path, ascending: the cover's canonical order,
    /// in which candidate pairs are numbered.
    heads: Vec<u32>,
    /// Per access, its successor and step; per head, its path's size.
    links: Vec<Link>,
    /// All paid steps of the cover, by key.
    histogram: DeltaHistogram,
    /// The cover's cost under the accounting model.
    cost: u32,
    /// The merge that made this state.
    last: Option<usize>,
    /// The selections here, as indices into the priced counts,
    /// ascending.
    selections: Vec<usize>,
    /// Per selection, its picks in this state once `scanned`: the
    /// opportunistic phase at a count and the next main step share the
    /// scan. The buffer is reused from one scan to the next.
    picks: Vec<Picks>,
    scanned: bool,
}

impl State {
    /// A copy of this state for `selections`.
    fn fork(&self, selections: Vec<usize>) -> State {
        State {
            heads: self.heads.clone(),
            links: self.links.clone(),
            histogram: self.histogram.clone(),
            cost: self.cost,
            last: self.last,
            selections,
            picks: Vec::new(),
            scanned: false,
        }
    }

    /// The number of paths.
    fn paths(&self) -> usize {
        self.heads.len()
    }

    /// Prices merging the paths with heads `hi` and `hj`: returns the
    /// paid steps of `P_i ⊕ P_j` and, for `limit > 0`, fills `tops` with
    /// the sums of the largest counts of the histogram after the merge
    /// (`tops[m]` for `m` up to `limit` or the number of keys with a
    /// step; see [`DeltaHistogram::top_sums`]). Only the steps whose key
    /// the merge changes move out of and into the histogram, and back.
    fn price(
        &mut self,
        steps: &StepTable,
        (hi, hj): (u32, u32),
        limit: usize,
        changes: &mut Vec<(u32, u32)>,
        tops: &mut Vec<u32>,
    ) -> u32 {
        let links = &self.links;
        changes.clear();
        walk(links, hi, hj, |from, to| {
            let key = steps.key(from, if to == END { hi.min(hj) } else { to });
            let old = links[from as usize].key;
            if key != old {
                changes.push((old, key));
            }
        });
        let mut paid = links[hi as usize].paid + links[hj as usize].paid;
        for &(old, key) in changes.iter() {
            paid = paid + u32::from(key != FREE) - u32::from(old != FREE);
        }
        if limit > 0 {
            let histogram = &mut self.histogram;
            for &(old, key) in changes.iter() {
                move_step(histogram, old, key);
            }
            histogram.top_sums(limit, tops);
            for &(old, key) in changes.iter() {
                move_step(histogram, key, old);
            }
        }
        paid
    }
}

/// Moves one step of `histogram` from key `from` to key `to`; [`FREE`]
/// is no key.
#[inline]
fn move_step(histogram: &mut DeltaHistogram, from: u32, to: u32) {
    if from != FREE {
        histogram.remove(from as usize);
    }
    if to != FREE {
        histogram.add(to as usize);
    }
}

/// Buffers reused from one candidate, and one merge, to the next.
#[derive(Debug)]
struct Scratch {
    /// Per selection of the state: its priced count and its cost of
    /// the cover as it is.
    priced: Vec<(usize, i64)>,
    /// The `(old, new)` keys of the steps a candidate's merge changes.
    changes: Vec<(u32, u32)>,
    /// The accesses of a merged path with their new successors.
    relinks: Vec<(u32, u32)>,
    /// Sums of the largest counts after the candidate's merge.
    tops: Vec<u32>,
}

/// What every state of one sweep shares.
struct Tree<'a> {
    steps: StepTable,
    account: CostModel,
    priced: &'a [usize],
    strategy: MergeStrategy,
    rng: Option<SmallRng>,
    merges: Vec<Merge>,
    scratch: Scratch,
}

impl<'a> Tree<'a> {
    fn new(
        dm: &DistanceModel,
        account: CostModel,
        priced: &'a [usize],
        strategy: MergeStrategy,
    ) -> Self {
        let distinct = account.modify_registers() > 0 || priced.iter().any(|&m| m > 0);
        let n = dm.len();
        let limit = priced.iter().copied().max().unwrap_or(0);
        Tree {
            steps: StepTable::new(dm, account.includes_wrap(), distinct),
            account,
            priced,
            strategy,
            rng: match strategy {
                MergeStrategy::Random { seed } => Some(SmallRng::seed_from_u64(seed)),
                _ => None,
            },
            // Sized for one lineage (at most `n - 1` merges); sweeps
            // that fork keep every lineage's merges here and may grow it.
            merges: Vec::with_capacity(n),
            scratch: Scratch {
                priced: Vec::with_capacity(priced.len()),
                changes: Vec::with_capacity(n),
                relinks: Vec::with_capacity(n),
                tops: Vec::with_capacity(limit + 1),
            },
        }
    }

    fn root(&self, cover: &PathCover) -> State {
        let n = cover.accesses();
        assert!(u32::try_from(n).is_ok_and(|n| n < END), "too many accesses");
        let mut links = vec![
            Link {
                next: END,
                key: FREE,
                len: 0,
                paid: 0,
            };
            n
        ];
        let mut histogram = DeltaHistogram::with_capacity(self.steps.len, n);
        for path in cover.paths() {
            let mut paid = 0;
            for (from, to) in steps(path.indices()) {
                let (from, to) = (from as u32, to as u32);
                let link = &mut links[from as usize];
                link.key = self.steps.key(from, to);
                // The step from the tail is the wrap: `from >= to`.
                link.next = if from < to { to } else { END };
                if link.key != FREE {
                    histogram.add(link.key as usize);
                    paid += 1;
                }
            }
            let head = &mut links[path.head()];
            (head.len, head.paid) = (path.len() as u32, paid);
        }
        State {
            heads: cover
                .paths()
                .iter()
                .map(|path| path.head() as u32)
                .collect(),
            links,
            cost: self.account.histogram_cost(&histogram),
            histogram,
            last: None,
            selections: (0..self.priced.len()).collect(),
            picks: Vec::with_capacity(self.priced.len()),
            scanned: false,
        }
    }

    /// One main-loop merge of `state`: each group of its selections
    /// that picks the same pair goes on in its own state.
    fn step(&mut self, mut state: State, out: &mut Vec<State>) {
        let pair = match self.strategy {
            MergeStrategy::FirstPair => (0, 1),
            MergeStrategy::Random { .. } => {
                let rng = self.rng.as_mut().expect("random strategy carries an RNG");
                let p = state.paths();
                let i = rng.gen_range(0..p);
                let j = rng.gen_range(0..p - 1);
                let j = if j >= i { j + 1 } else { j };
                (i.min(j), i.max(j))
            }
            MergeStrategy::GreedyMinCost | MergeStrategy::WorstCost => {
                let picks = self.picks(&mut state);
                let pair = picks[0].main.3;
                if picks.iter().all(|pick| pick.main.3 == pair) {
                    pair
                } else {
                    let mut groups = group(picks.iter().map(|pick| (pick.main.3, pick.selection)));
                    let (pair, selections) = groups.pop().expect("a state has a selection");
                    for (pair, selections) in groups {
                        let mut fork = state.fork(selections);
                        self.merge(&mut fork, pair);
                        out.push(fork);
                    }
                    state.selections = selections;
                    pair
                }
            }
        };
        self.merge(&mut state, pair);
        out.push(state);
    }

    /// Where the selections of `state` settle at its register count —
    /// the state itself, or for the greedy strategy the end of its
    /// opportunistic phase: keep merging the pair with the smallest
    /// marginal cost while that strictly pays off (relaxed Phase-1
    /// covers only; see [`merge_until`]). A cover that pays no step at
    /// all cannot get cheaper, so it skips the scan. Returns the
    /// cheapest outcome.
    fn settle(&mut self, state: &mut State) -> Outcome {
        let here = Outcome {
            cost: state.cost,
            selection: state.selections[0],
            last: state.last,
        };
        if self.strategy != MergeStrategy::GreedyMinCost
            || state.paths() < 2
            || state.histogram.paid() == 0
        {
            return here;
        }
        let picks = self.picks(state);
        let stays = picks.iter().find(|pick| pick.pays.1 >= 0);
        let mut best = stays.map(|pick| Outcome {
            selection: pick.selection,
            ..here
        });
        let paying = picks.iter().filter(|pick| pick.pays.1 < 0);
        for (pair, selections) in group(paying.map(|pick| (pick.pays.3, pick.selection))) {
            let mut fork = state.fork(selections);
            self.merge(&mut fork, pair);
            let outcome = self.settle(&mut fork);
            best = Some(best.map_or(outcome, |best| {
                cmp::min_by_key(best, outcome, Outcome::rank)
            }));
        }
        best.expect("every selection settles")
    }

    /// The picks of every selection of `state`, scanned once.
    fn picks<'s>(&mut self, state: &'s mut State) -> &'s [Picks] {
        if !state.scanned {
            self.scan(state);
            state.scanned = true;
        }
        &state.picks
    }

    /// Prices every merge candidate of `state` for every selection in
    /// one pass, in `(i, j)` order, into each selection's picks.
    fn scan(&mut self, state: &mut State) {
        let Scratch {
            priced,
            changes,
            tops,
            ..
        } = &mut self.scratch;
        let account = self.account;
        // Per selection: its priced count, and for a count above zero
        // the cost of the cover as it is.
        priced.clear();
        priced.extend(state.selections.iter().map(|&s| {
            let m = self.priced[s];
            (m, i64::from(account.steps_cost(state.histogram.charged(m))))
        }));
        let limit = priced.iter().map(|&(m, _)| m).max().unwrap_or(0);
        let paid = state.histogram.paid();
        let mut picks = std::mem::take(&mut state.picks);
        picks.clear();
        for i in 0..state.paths() {
            for j in i + 1..state.paths() {
                let (hi, hj) = (state.heads[i], state.heads[j]);
                let merged = state.price(&self.steps, (hi, hj), limit, changes, tops);
                let (li, lj) = (state.links[hi as usize], state.links[hj as usize]);
                let paid_after = paid - li.paid - lj.paid + merged;
                let len = (li.len + lj.len) as usize;
                for (at, &(m, before)) in priced.iter().enumerate() {
                    let (cost, marginal) = if m == 0 {
                        let cost = account.steps_cost(merged);
                        let parts = [li, lj].map(|l| i64::from(account.steps_cost(l.paid)));
                        (cost, i64::from(cost) - parts[0] - parts[1])
                    } else {
                        let cost = account.steps_cost(paid_after - tops[m.min(tops.len() - 1)]);
                        (cost, i64::from(cost) - before)
                    };
                    let candidate = (cost, marginal, len, (i, j));
                    match picks.get_mut(at) {
                        Some(pick) => pick.offer(candidate, self.strategy),
                        None => picks.push(Picks {
                            selection: state.selections[at],
                            main: candidate,
                            pays: candidate,
                        }),
                    }
                }
            }
        }
        state.picks = picks;
    }

    /// Merges `pair` in `state`, relinking its accesses in place and
    /// recording the step under the accounting model.
    fn merge(&mut self, state: &mut State, (i, j): (usize, usize)) {
        let Scratch { relinks, .. } = &mut self.scratch;
        // `P_i ⊕ P_j` starts at the smaller head, `hi`.
        let (hi, hj) = (state.heads[i], state.heads[j]);
        let (li, lj) = (state.links[hi as usize], state.links[hj as usize]);
        relinks.clear();
        walk(&state.links, hi, hj, |from, to| relinks.push((from, to)));
        let mut paid = 0;
        for &(from, to) in relinks.iter() {
            let key = self.steps.key(from, if to == END { hi } else { to });
            let link = &mut state.links[from as usize];
            if key != link.key {
                move_step(&mut state.histogram, link.key, key);
            }
            (link.next, link.key) = (to, key);
            paid += u32::from(key != FREE);
        }
        let head = &mut state.links[hi as usize];
        (head.len, head.paid) = (li.len + lj.len, paid);
        let record = MergeRecord {
            paths_before: state.paths(),
            merged_lengths: (li.len as usize, lj.len as usize),
            merged_path_cost: self.account.steps_cost(paid),
            total_cost_after: self.account.histogram_cost(&state.histogram),
        };
        state.heads.remove(j);
        state.cost = record.total_cost_after;
        self.merges.push(Merge {
            parent: state.last,
            pair: (i, j),
            record,
        });
        state.last = Some(self.merges.len() - 1);
        state.scanned = false;
    }
}

/// Groups selections by the pair they pick, in order of first pick;
/// each group keeps its selections in order.
fn group(
    picks: impl Iterator<Item = ((usize, usize), usize)>,
) -> Vec<((usize, usize), Vec<usize>)> {
    let mut groups: Vec<((usize, usize), Vec<usize>)> = Vec::new();
    for (pair, selection) in picks {
        match groups.iter_mut().find(|(p, _)| *p == pair) {
            Some((_, selections)) => selections.push(selection),
            None => groups.push((pair, vec![selection])),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_graph::Path;
    use rand::Rng;

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
    fn one_sweep_reports_every_count_as_a_sweep_to_that_count() {
        // Relaxed (stride 3) and zero-cost Phase-1 covers, with one
        // selection priced with and without modify registers and with
        // both at once: the report at each count equals a separate
        // sweep to that count.
        for (offsets, stride, relaxed) in [
            (&[1, 0, 2, -1, 1, 0, -2][..], 1, false),
            (&[0, 4, -3, 9, 1, 2], 3, true),
        ] {
            let dm = DistanceModel::from_offsets(offsets, stride, 1);
            let phase1 = crate::phase1::run(&dm, raco_graph::BbOptions::default());
            let outcome_is_relaxed = phase1.outcome() == crate::Phase1Outcome::Relaxed;
            assert_eq!(outcome_is_relaxed, relaxed, "precondition");
            let account = CostModel::steady_state().with_modify_registers(2);
            for priced in [&[0][..], &[2], &[0, 1, 2]] {
                for strategy in [
                    MergeStrategy::GreedyMinCost,
                    MergeStrategy::FirstPair,
                    MergeStrategy::Random { seed: 7 },
                    MergeStrategy::WorstCost,
                ] {
                    let cover = phase1.cover();
                    let all = sweep(cover, 1..=8, &dm, account, priced, strategy);
                    assert_eq!(all.counts(), 1..=8);
                    for k in 1..=8 {
                        let alone = sweep(cover, k..=k, &dm, account, priced, strategy);
                        assert_eq!(all.cost(k), alone.cost(k), "{strategy:?} k = {k}");
                        let report = all.report(cover, k);
                        assert_eq!(report, alone.report(cover, k), "{strategy:?} k = {k}");
                        assert_eq!(all.cost(k), report.final_cost());
                    }
                }
            }
        }
    }

    /// The histogram's observable state: paid steps, counts largest
    /// first, and the count of every key handed out.
    fn snapshot(histogram: &DeltaHistogram, keys: usize) -> (u32, Vec<u32>, Vec<u32>) {
        let counts = (0..keys).map(|key| histogram.count(key)).collect();
        (histogram.paid(), histogram.largest().collect(), counts)
    }

    #[test]
    fn histogram_prices_every_candidate_as_paths_cost_does() {
        // Random covers of random patterns, plus tie-heavy deltas (+7
        // and -7 alternating) and deltas on the update-range boundary
        // (steps of exactly M = 3, free, and M + 1 = 4, paid): moving
        // the steps a candidate changes through its state's histogram
        // prices the merge, under every priced count, as `paths_cost`
        // prices the materialised cover, and leaves the histogram as it
        // was.
        let mut rng = SmallRng::seed_from_u64(28);
        let mut patterns: Vec<(Vec<i64>, i64, u32)> = vec![
            (vec![0, 7, 0, 7, 0, 7, 0, 7], 2, 2),
            (vec![0, -7, 0, 7, 14, 7, 0, -7], 7, 1),
            (vec![0, 3, 7, 10, 14, 17, 21, 24], 1, 3),
            (vec![0, 4, 1, 5, 2, 6, 3], -4, 3),
        ];
        patterns.extend((0..60).map(|_| {
            let n = rng.gen_range(2..=10);
            let offsets = (0..n).map(|_| rng.gen_range(-9i64..=9)).collect();
            (
                offsets,
                [1, -1, 2, 3, 7][rng.gen_range(0..5)],
                rng.gen_range(0..=3),
            )
        }));
        for (offsets, stride, range) in &patterns {
            let dm = DistanceModel::from_offsets(offsets, *stride, *range);
            for _ in 0..4 {
                let groups = rng.gen_range(2..=dm.len());
                let assignment: Vec<usize> =
                    (0..dm.len()).map(|_| rng.gen_range(0..groups)).collect();
                let cover = PathCover::from_assignment(&assignment);
                for account in [
                    CostModel::steady_state(),
                    CostModel::paper_literal().with_adda_cost(3),
                ] {
                    let priced = [1];
                    let tree = Tree::new(&dm, account, &priced, MergeStrategy::GreedyMinCost);
                    let mut state = tree.root(&cover);
                    let paths = cover.paths();
                    let mut changes = Vec::new();
                    let mut tops = Vec::new();
                    for i in 0..paths.len() {
                        for j in i + 1..paths.len() {
                            let heads = (state.heads[i], state.heads[j]);
                            assert_eq!(heads, (paths[i].head() as u32, paths[j].head() as u32));
                            let (li, lj) =
                                (state.links[heads.0 as usize], state.links[heads.1 as usize]);
                            let before = snapshot(&state.histogram, tree.steps.len);
                            let merged =
                                state.price(&tree.steps, heads, 6, &mut changes, &mut tops);
                            assert_eq!(snapshot(&state.histogram, tree.steps.len), before);
                            let paid = state.histogram.paid();
                            let paid_after = paid - li.paid - lj.paid + merged;
                            let merged_path = paths[i].merge(&paths[j]).unwrap();
                            assert_eq!(
                                account.steps_cost(merged),
                                account.paths_cost([(&merged_path, &dm)]),
                                "the path-local price of {merged_path} in {cover}"
                            );
                            let others = (0..paths.len()).filter(|&p| p != i && p != j);
                            for m in 0..=6 {
                                let after = others
                                    .clone()
                                    .map(|p| &paths[p])
                                    .chain([&merged_path])
                                    .map(|path| (path, &dm));
                                let expected = account.with_modify_registers(m).paths_cost(after);
                                let top = tops[m.min(tops.len() - 1)];
                                assert_eq!(
                                    account.steps_cost(paid_after - top),
                                    expected,
                                    "m' = {m}: ({i}, {j}) of {cover}, offsets {offsets:?} \
                                     stride {stride} range {range}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn far_apart_offsets_keep_the_step_table_dense() {
        // Paid deltas 2^40 apart: keyed by their offset from the
        // smallest, a state's histogram would hold 2^40 counts. Numbered
        // densely, it holds one per distinct delta.
        let dm = DistanceModel::from_offsets(&[0, 1 << 40, 3, 1 << 40, 0], 1, 1);
        let account = CostModel::steady_state().with_modify_registers(1);
        let (priced, greedy) = ([0, 1], MergeStrategy::GreedyMinCost);
        let keys = Tree::new(&dm, account, &priced, greedy).steps.len;
        assert!(keys <= dm.len() * dm.len(), "{keys} keys");
        let cover = PathCover::singletons(dm.len());
        let all = sweep(&cover, 1..=5, &dm, account, &priced, greedy);
        for k in 1..=5 {
            let cost = account.cover_cost(all.report(&cover, k).cover(), &dm);
            assert_eq!(all.cost(k), cost, "k = {k}");
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
