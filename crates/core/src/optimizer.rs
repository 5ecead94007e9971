//! The end-to-end optimizer: Phase 1 + Phase 2 behind one call.

use std::fmt;
use std::sync::{Arc, OnceLock};

use raco_graph::{BbOptions, DistanceModel, PathCover};
use raco_ir::{AccessPattern, AguSpec, ArrayId, LoopSpec};
use raco_obs::Histogram;

use crate::cost::CostModel;
use crate::partition;
use crate::phase1::{self, Phase1Report};
use crate::phase2::{self, MergeStrategy, Phase2Report};

/// Global latency histogram for Phase-1 branch-and-bound runs,
/// resolved once (metric `core.phase1`, nanoseconds).
fn phase1_histogram() -> &'static Arc<Histogram> {
    static HISTOGRAM: OnceLock<Arc<Histogram>> = OnceLock::new();
    HISTOGRAM.get_or_init(|| raco_obs::global().histogram("core.phase1"))
}

/// Global latency histogram for Phase-2 merge runs (one observation per
/// [`Optimizer::best_phase2`] call, so MR selection sweeps record each
/// register count they evaluate; metric `core.phase2`, nanoseconds).
fn phase2_histogram() -> &'static Arc<Histogram> {
    static HISTOGRAM: OnceLock<Arc<Histogram>> = OnceLock::new();
    HISTOGRAM.get_or_init(|| raco_obs::global().histogram("core.phase2"))
}

/// Phase-1 output bundled with the distance model it ran on.
///
/// Prepared once per pattern and shared by the cost curve and the final
/// allocation, so the branch-and-bound search — the cycle sink of the
/// whole allocator — runs exactly once per pattern in
/// [`Optimizer::allocate_loop`].
struct PreparedPattern {
    dm: DistanceModel,
    phase1: Phase1Report,
}

/// Configuration of the two-phase allocator.
///
/// Options are `Hash` so they can participate in allocation-cache keys
/// (see `raco-driver`): two optimizers with equal options produce equal
/// allocations for equal inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptimizerOptions {
    /// Cost model used by Phase 2 and reported costs.
    pub cost_model: CostModel,
    /// Branch-and-bound budget for Phase 1.
    pub bb: BbOptions,
    /// Merge-candidate selection for Phase 2.
    pub strategy: MergeStrategy,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            cost_model: CostModel::steady_state(),
            bb: BbOptions::default(),
            strategy: MergeStrategy::GreedyMinCost,
        }
    }
}

/// Errors produced by multi-array allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocError {
    /// The loop accesses more arrays than the machine has address
    /// registers; every array needs at least one dedicated register
    /// (registers cannot cheaply jump between address spaces).
    InsufficientRegisters {
        /// Number of accessed arrays.
        arrays: usize,
        /// Number of available address registers.
        registers: usize,
    },
    /// The loop contains no array accesses.
    EmptyLoop,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::InsufficientRegisters { arrays, registers } => write!(
                f,
                "loop accesses {arrays} arrays but the AGU has only {registers} address registers"
            ),
            AllocError::EmptyLoop => f.write_str("loop contains no array accesses"),
        }
    }
}

impl std::error::Error for AllocError {}

/// The paper's two-phase register-constrained allocator.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use raco_core::Optimizer;
/// use raco_ir::{examples, AguSpec};
///
/// let spec = examples::paper_loop();
/// let alloc = Optimizer::new(AguSpec::new(2, 1)?).allocate(&spec.patterns()[0]);
/// assert_eq!(alloc.register_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Optimizer {
    agu: AguSpec,
    options: OptimizerOptions,
}

impl Optimizer {
    /// Creates an optimizer for the given machine with default options
    /// (steady-state cost model, greedy merging).
    ///
    /// The cost model prices the *whole* machine: when `agu` has modify
    /// registers, the model charges zero cycles for deltas a modify
    /// register would absorb, so predicted costs match what generated
    /// code measures on that machine.
    pub fn new(agu: AguSpec) -> Self {
        let mut options = OptimizerOptions::default();
        options.cost_model = options
            .cost_model
            .with_modify_registers(agu.modify_registers());
        Optimizer { agu, options }
    }

    /// Creates an optimizer with explicit options.
    ///
    /// The options are taken verbatim — in particular the cost model's
    /// modify-register count is *not* synchronized with `agu`, so
    /// ablations can deliberately allocate MR-blind for an MR-equipped
    /// machine. Use [`Optimizer::new`] for a model that matches the
    /// machine.
    pub fn with_options(agu: AguSpec, options: OptimizerOptions) -> Self {
        Optimizer { agu, options }
    }

    /// Replaces the merge strategy (builder style).
    #[must_use]
    pub fn strategy(mut self, strategy: MergeStrategy) -> Self {
        self.options.strategy = strategy;
        self
    }

    /// Replaces the cost model (builder style).
    #[must_use]
    pub fn cost_model(mut self, cost_model: CostModel) -> Self {
        self.options.cost_model = cost_model;
        self
    }

    /// Replaces the Phase-1 branch-and-bound options (builder style).
    #[must_use]
    pub fn bb_options(mut self, bb: BbOptions) -> Self {
        self.options.bb = bb;
        self
    }

    /// The machine this optimizer targets.
    pub fn agu(&self) -> &AguSpec {
        &self.agu
    }

    /// The active options.
    pub fn options(&self) -> &OptimizerOptions {
        &self.options
    }

    /// Allocates the accesses of a single-array pattern to the machine's
    /// `K` address registers (the paper's core problem).
    pub fn allocate(&self, pattern: &AccessPattern) -> Allocation {
        self.allocate_model(DistanceModel::with_range(pattern, self.agu.update_range()))
    }

    /// Allocates directly from a [`DistanceModel`] — the algorithm-only
    /// entry point used by experiments on synthetic offset lists.
    pub fn allocate_model(&self, dm: DistanceModel) -> Allocation {
        self.allocate_model_with_registers(dm, self.agu.address_registers())
    }

    /// Allocates `pattern` onto exactly `k` registers, overriding the
    /// machine's register count but keeping its modify range.
    ///
    /// This is the entry point a batch driver needs once a register
    /// partition has decided how many of the machine's `K` registers
    /// each array receives: the per-array sub-problems are allocated
    /// (and cached) independently of the loop they came from.
    pub fn allocate_with_registers(&self, pattern: &AccessPattern, k: usize) -> Allocation {
        self.allocate_model_with_registers(
            DistanceModel::with_range(pattern, self.agu.update_range()),
            k,
        )
    }

    fn allocate_model_with_registers(&self, dm: DistanceModel, k: usize) -> Allocation {
        let prepared = self.prepare_model(dm);
        let phase2 = self.best_phase2(&prepared.phase1, &prepared.dm, k);
        self.finish_allocation(prepared, phase2)
    }

    /// Runs Phase 1 on a distance model, recording its latency.
    fn prepare_model(&self, dm: DistanceModel) -> PreparedPattern {
        let phase1 = phase1_histogram().time(|| phase1::run(&dm, self.options.bb));
        PreparedPattern { dm, phase1 }
    }

    /// Assembles an [`Allocation`] from prepared Phase-1 state and a
    /// Phase-2 result, pricing the final cover. Moves both parts — no
    /// clones on this path.
    fn finish_allocation(&self, prepared: PreparedPattern, phase2: Phase2Report) -> Allocation {
        let cost = self
            .options
            .cost_model
            .cover_cost(phase2.cover(), &prepared.dm);
        Allocation {
            dm: prepared.dm,
            cost,
            phase1: prepared.phase1,
            phase2,
        }
    }

    /// Runs Phase 2 down to `k` registers under the configured cost
    /// model.
    ///
    /// On machines with modify registers the greedy merge *selection*
    /// is swept across pricing aggressiveness — each `m' ∈ 0..=MR`
    /// ranks candidates as if `m'` modify registers were available —
    /// and every resulting cover is judged under the one true MR-aware
    /// model; the cheapest wins (ties to the smallest `m'`, i.e. the
    /// paper's plain greedy). The sweep makes the predicted cost
    /// monotone in the machine's MR count by construction: the
    /// candidate set only grows with MR, and a fixed cover never gets
    /// more expensive when another modify register appears. With zero
    /// modify registers (or a non-greedy strategy, where selection
    /// ignores the model) this is a single plain [`phase2::merge_until`]
    /// run, byte-identical to the pre-MR behaviour.
    fn best_phase2(&self, phase1: &Phase1Report, dm: &DistanceModel, k: usize) -> Phase2Report {
        phase2_histogram().time(|| self.best_phase2_inner(phase1, dm, k))
    }

    fn best_phase2_inner(
        &self,
        phase1: &Phase1Report,
        dm: &DistanceModel,
        k: usize,
    ) -> Phase2Report {
        let model = self.options.cost_model;
        let mr = model.modify_registers();
        if mr == 0 || self.options.strategy != MergeStrategy::GreedyMinCost {
            return phase2::merge_until(phase1.cover(), k, dm, model, self.options.strategy);
        }
        // A cover has exactly one step per access, so selection pricing
        // beyond `len` distinct deltas cannot change any ranking.
        let cap = mr.min(dm.len());
        let mut best: Option<(u32, Phase2Report)> = None;
        for priced in 0..=cap {
            let selection = model.with_modify_registers(priced);
            let report = phase2::merge_until_with_selection(
                phase1.cover(),
                k,
                dm,
                model,
                selection,
                self.options.strategy,
            );
            let cost = model.cover_cost(report.cover(), dm);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, report));
            }
        }
        best.expect("sweep runs at least once").1
    }

    /// Allocates every array of a loop, distributing the `K` registers
    /// across arrays so that the total cost is minimal (each array needs
    /// at least one register of its own).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::EmptyLoop`] for loops without accesses and
    /// [`AllocError::InsufficientRegisters`] when the loop touches more
    /// arrays than there are registers.
    pub fn allocate_loop(&self, spec: &LoopSpec) -> Result<LoopAllocation, AllocError> {
        let patterns = spec.patterns();
        if patterns.is_empty() {
            return Err(AllocError::EmptyLoop);
        }
        let k = self.agu.address_registers();
        if patterns.len() > k {
            return Err(AllocError::InsufficientRegisters {
                arrays: patterns.len(),
                registers: k,
            });
        }
        // Cost curve per pattern: cost with 1..=k registers. Phase 1
        // runs once per pattern and is shared with the final allocation
        // below; on MR machines the curve's selection sweep already
        // produced the Phase-2 report for every register count, so the
        // granted-k allocation is a lookup, not a re-run (previously
        // both the branch-and-bound search and the sweep ran twice).
        let mut prepared = Vec::with_capacity(patterns.len());
        let mut curves: Vec<Vec<u32>> = Vec::with_capacity(patterns.len());
        let mut swept: Vec<Vec<Phase2Report>> = Vec::with_capacity(patterns.len());
        for p in &patterns {
            let prep = self.prepare_model(DistanceModel::with_range(p, self.agu.update_range()));
            let (curve, reports) = self.curve_from(&prep, k, true);
            prepared.push(prep);
            curves.push(curve);
            swept.push(reports);
        }
        let assignment = partition::distribute_registers(&curves, k).expect("arity checked above");
        let per_array = patterns
            .iter()
            .zip(prepared)
            .zip(swept)
            .zip(&assignment)
            .map(|(((p, prep), mut reports), &ka)| {
                let phase2 = if ka <= reports.len() {
                    reports.swap_remove(ka - 1)
                } else {
                    self.best_phase2(&prep.phase1, &prep.dm, ka)
                };
                (p.array(), Arc::new(self.finish_allocation(prep, phase2)))
            })
            .collect::<Vec<_>>();
        // Modify registers are machine-wide: the loop's total is priced
        // over the pooled covers (see CostModel::covers_cost), not as a
        // sum of per-array costs that would each claim the full budget.
        let covers: Vec<_> = per_array
            .iter()
            .map(|(_, a)| (a.cover(), a.distance_model()))
            .collect();
        let total_cost = self.options.cost_model.covers_cost(&covers);
        drop(covers);
        Ok(LoopAllocation {
            per_array,
            registers: assignment,
            total_cost,
        })
    }

    /// The cost of allocating `pattern` with `1..=k_max` registers, as a
    /// vector indexed by `k - 1`.
    ///
    /// Computed from a single merge trajectory (merging from `K̃` all the
    /// way down to one register), so a whole register sweep costs one
    /// allocation. A budget of `k` registers admits any allocation with
    /// **at most** `k` paths, so the value at `k` is the minimum
    /// trajectory cost over register counts `<= k` — this matters when
    /// Phase 1 fell back to a relaxed cover, where merging can *reduce*
    /// cost (paths that individually pay their wraps combine into a
    /// cheaper chain). The curve is therefore non-increasing in `k` by
    /// construction.
    pub fn cost_curve(&self, pattern: &AccessPattern, k_max: usize) -> Vec<u32> {
        let prepared =
            self.prepare_model(DistanceModel::with_range(pattern, self.agu.update_range()));
        self.curve_from(&prepared, k_max, false).0
    }

    /// Computes the cost curve from prepared Phase-1 state. With
    /// `keep_reports`, the MR selection sweep's per-`k` Phase-2 reports
    /// are returned alongside the curve (indexed by `k - 1`) so a caller
    /// that goes on to allocate at one of the swept counts can reuse the
    /// report instead of re-running the sweep; on the single-trajectory
    /// path the report vector is empty.
    fn curve_from(
        &self,
        prepared: &PreparedPattern,
        k_max: usize,
        keep_reports: bool,
    ) -> (Vec<u32>, Vec<Phase2Report>) {
        let PreparedPattern { dm, phase1 } = prepared;
        if self.options.cost_model.modify_registers() > 0
            && self.options.strategy == MergeStrategy::GreedyMinCost
        {
            // MR-aware greedy allocations come out of a selection sweep
            // (see best_phase2), whose result a single merge trajectory
            // cannot reproduce — run the sweep per register count so
            // curve entries equal what allocation at that count costs.
            let mut reports = Vec::with_capacity(if keep_reports { k_max } else { 0 });
            let mut running_min = u32::MAX;
            let curve = (1..=k_max)
                .map(|k| {
                    let phase2 = self.best_phase2(phase1, dm, k);
                    let at_k = self.options.cost_model.cover_cost(phase2.cover(), dm);
                    if keep_reports {
                        reports.push(phase2);
                    }
                    running_min = running_min.min(at_k);
                    running_min
                })
                .collect();
            return (curve, reports);
        }
        let base_cost = self.options.cost_model.cover_cost(phase1.cover(), dm);
        let phase2 = phase2::merge_until(
            phase1.cover(),
            1,
            dm,
            self.options.cost_model,
            self.options.strategy,
        );
        let mut running_min = u32::MAX;
        let curve = (1..=k_max)
            .map(|k| {
                let at_k = phase2.cost_at(k).unwrap_or(base_cost);
                running_min = running_min.min(at_k);
                running_min
            })
            .collect();
        (curve, Vec::new())
    }
}

/// The result of allocating one access pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    dm: DistanceModel,
    cost: u32,
    phase1: Phase1Report,
    phase2: Phase2Report,
}

impl Allocation {
    /// Reassembles an allocation from its serialized parts.
    ///
    /// This is the constructor a snapshot decoder (see
    /// `raco_driver::persist`) uses to rebuild a cached allocation that
    /// was computed in an earlier process. The parts are taken at face
    /// value — `cost` is *not* recomputed — so callers are expected to
    /// have validated structural invariants (covers partition their
    /// accesses; the decoder's checksum guards the rest). An allocation
    /// rebuilt from the parts of [`Allocation`] accessors compares
    /// equal to the original:
    ///
    /// ```
    /// use raco_core::{Allocation, Optimizer};
    /// use raco_ir::{AccessPattern, AguSpec};
    ///
    /// let pattern = AccessPattern::from_offsets(&[1, 0, 2, -1], 1);
    /// let original = Optimizer::new(AguSpec::new(2, 1).unwrap()).allocate(&pattern);
    /// let rebuilt = Allocation::from_parts(
    ///     original.distance_model().clone(),
    ///     original.cost(),
    ///     original.phase1().clone(),
    ///     original.phase2().clone(),
    /// );
    /// assert_eq!(rebuilt, original);
    /// ```
    pub fn from_parts(
        dm: DistanceModel,
        cost: u32,
        phase1: Phase1Report,
        phase2: Phase2Report,
    ) -> Self {
        Allocation {
            dm,
            cost,
            phase1,
            phase2,
        }
    }

    /// The final path cover: one path per used address register.
    pub fn cover(&self) -> &PathCover {
        self.phase2.cover()
    }

    /// Unit-cost address computations per steady-state iteration under the
    /// configured cost model.
    pub fn cost(&self) -> u32 {
        self.cost
    }

    /// Number of address registers actually used.
    pub fn register_count(&self) -> usize {
        self.cover().register_count()
    }

    /// The paper's `K̃`: virtual registers needed for a zero-cost scheme.
    pub fn virtual_registers(&self) -> usize {
        self.phase1.virtual_registers()
    }

    /// `true` if the allocation incurs no unit-cost computations.
    pub fn is_zero_cost(&self) -> bool {
        self.cost == 0
    }

    /// The Phase-1 report (cover, bounds, search statistics).
    pub fn phase1(&self) -> &Phase1Report {
        &self.phase1
    }

    /// The Phase-2 report (merge records, cost trajectory).
    pub fn phase2(&self) -> &Phase2Report {
        &self.phase2
    }

    /// The distance model the allocation was computed against.
    pub fn distance_model(&self) -> &DistanceModel {
        &self.dm
    }

    /// A human-readable summary of both phases, merges and register
    /// paths (see [`crate::AllocationReport`]).
    pub fn report(&self) -> crate::AllocationReport<'_> {
        crate::AllocationReport::new(self)
    }
}

/// The result of allocating a whole loop (possibly several arrays).
///
/// Per-array allocations are held behind [`Arc`], so assembling a loop
/// allocation out of cached [`Allocation`]s is a pointer bump per
/// array — a warm cache hit in `raco-driver` never deep-clones covers,
/// distance models or phase reports. Freshly computed allocations pay
/// one `Arc::new` each, which is noise next to the search they ran.
///
/// ```
/// use std::sync::Arc;
/// use raco_core::{CostModel, LoopAllocation, Optimizer};
/// use raco_ir::{dsl, AguSpec};
///
/// let spec = dsl::parse_loop(
///     "for (i = 1; i < 64; i++) { y[i] = x[i - 1] + x[i] + x[i + 1]; }",
/// ).unwrap();
/// let whole = Optimizer::new(AguSpec::new(4, 1).unwrap())
///     .allocate_loop(&spec)
///     .unwrap();
/// // Rebuilding from shared parts clones no allocation data …
/// let rebuilt = LoopAllocation::from_parts(
///     whole.per_array().to_vec(), // clones Arcs, not Allocations
///     whole.registers().to_vec(),
///     CostModel::steady_state(),
/// );
/// assert_eq!(rebuilt, whole);
/// // … the per-array allocations are literally the same memory:
/// assert!(Arc::ptr_eq(&rebuilt.per_array()[0].1, &whole.per_array()[0].1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopAllocation {
    per_array: Vec<(ArrayId, Arc<Allocation>)>,
    registers: Vec<usize>,
    total_cost: u32,
}

impl LoopAllocation {
    /// Assembles a loop allocation from per-array parts.
    ///
    /// `registers` is the per-array register grant, parallel to
    /// `per_array`. This is the constructor a compilation driver uses
    /// when the per-array allocations were obtained from a cache
    /// instead of [`Optimizer::allocate_loop`]: the cache hands out
    /// `Arc<Allocation>`s, and this constructor stores them as-is —
    /// no allocation data is cloned. The total cost is recomputed from
    /// the parts under `cost_model` — over the *pooled* covers, so on a
    /// machine with modify registers the machine-wide budget is priced
    /// once for the whole loop, never once per array.
    ///
    /// # Panics
    ///
    /// Panics if `registers` and `per_array` have different lengths.
    pub fn from_parts(
        per_array: Vec<(ArrayId, Arc<Allocation>)>,
        registers: Vec<usize>,
        cost_model: CostModel,
    ) -> Self {
        assert_eq!(
            per_array.len(),
            registers.len(),
            "one register grant per allocated array"
        );
        let covers: Vec<_> = per_array
            .iter()
            .map(|(_, a)| (a.cover(), a.distance_model()))
            .collect();
        let total_cost = cost_model.covers_cost(&covers);
        drop(covers);
        LoopAllocation {
            per_array,
            registers,
            total_cost,
        }
    }

    /// Per-array allocations, in [`ArrayId`] order of appearance.
    ///
    /// The `Arc`s are shared with whatever produced them (typically the
    /// driver's allocation cache); cloning an entry clones a pointer.
    pub fn per_array(&self) -> &[(ArrayId, Arc<Allocation>)] {
        &self.per_array
    }

    /// The allocation of a specific array, if it is accessed by the loop.
    pub fn for_array(&self, id: ArrayId) -> Option<&Allocation> {
        self.per_array
            .iter()
            .find(|(a, _)| *a == id)
            .map(|(_, alloc)| alloc.as_ref())
    }

    /// Registers granted to each array (parallel to
    /// [`per_array`](Self::per_array)).
    pub fn registers(&self) -> &[usize] {
        &self.registers
    }

    /// Total registers used across arrays.
    pub fn total_registers(&self) -> usize {
        self.per_array.iter().map(|(_, a)| a.register_count()).sum()
    }

    /// Total unit-cost computations per iteration across all arrays.
    pub fn total_cost(&self) -> u32 {
        self.total_cost
    }
}

// The batch driver shares optimizers and allocations across worker
// threads; keep that property from regressing.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Optimizer>();
    assert_send_sync::<OptimizerOptions>();
    assert_send_sync::<Allocation>();
    assert_send_sync::<LoopAllocation>();
    assert_send_sync::<AllocError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use raco_ir::dsl::parse_loop;

    fn paper_pattern() -> AccessPattern {
        AccessPattern::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1)
    }

    #[test]
    fn zero_cost_when_k_at_least_k_tilde() {
        let alloc = Optimizer::new(AguSpec::new(3, 1).unwrap()).allocate(&paper_pattern());
        assert_eq!(alloc.virtual_registers(), 3);
        assert_eq!(alloc.register_count(), 3);
        assert!(alloc.is_zero_cost());
        assert!(alloc.phase2().records().is_empty());
    }

    #[test]
    fn one_merge_when_one_register_short() {
        let alloc = Optimizer::new(AguSpec::new(2, 1).unwrap()).allocate(&paper_pattern());
        assert_eq!(alloc.register_count(), 2);
        assert_eq!(alloc.phase2().records().len(), 1);
        assert!(alloc.cost() >= 1);
    }

    #[test]
    fn excess_registers_are_not_wasted_on_extra_paths() {
        let alloc = Optimizer::new(AguSpec::new(8, 1).unwrap()).allocate(&paper_pattern());
        assert_eq!(alloc.register_count(), 3, "K̃ = 3 paths suffice");
        assert!(alloc.is_zero_cost());
    }

    #[test]
    fn cost_curve_is_monotone_and_reaches_zero_at_k_tilde() {
        let opt = Optimizer::new(AguSpec::new(8, 1).unwrap());
        let curve = opt.cost_curve(&paper_pattern(), 8);
        assert_eq!(curve.len(), 8);
        for w in curve.windows(2) {
            assert!(
                w[0] >= w[1],
                "more registers can never cost more: {curve:?}"
            );
        }
        assert_eq!(curve[2], 0, "zero cost at K̃ = 3");
        assert!(curve[0] > 0);
        assert_eq!(curve[7], 0);
    }

    #[test]
    fn allocate_model_matches_allocate() {
        let opt = Optimizer::new(AguSpec::new(2, 1).unwrap());
        let via_pattern = opt.allocate(&paper_pattern());
        let via_model =
            opt.allocate_model(DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1));
        assert_eq!(via_pattern, via_model);
    }

    #[test]
    fn builder_options_round_trip() {
        let opt = Optimizer::new(AguSpec::new(2, 1).unwrap())
            .strategy(MergeStrategy::FirstPair)
            .cost_model(CostModel::paper_literal())
            .bb_options(BbOptions {
                node_limit: 1000,
                memoize: false,
            });
        assert_eq!(opt.options().strategy, MergeStrategy::FirstPair);
        assert_eq!(opt.options().cost_model, CostModel::paper_literal());
        assert_eq!(opt.options().bb.node_limit, 1000);
        assert_eq!(opt.agu().address_registers(), 2);
    }

    #[test]
    fn allocate_with_registers_matches_a_machine_of_that_size() {
        let pattern = paper_pattern();
        let big = Optimizer::new(AguSpec::new(8, 1).unwrap());
        let small = Optimizer::new(AguSpec::new(2, 1).unwrap());
        assert_eq!(
            big.allocate_with_registers(&pattern, 2),
            small.allocate(&pattern)
        );
    }

    #[test]
    fn from_parts_recomputes_the_total_cost() {
        let spec = parse_loop(
            "for (i = 1; i < 255; i++) {
                y[i] = x[i - 1] + x[i] + x[i + 1];
            }",
        )
        .unwrap();
        let opt = Optimizer::new(AguSpec::new(4, 1).unwrap());
        let whole = opt.allocate_loop(&spec).unwrap();
        let rebuilt = LoopAllocation::from_parts(
            whole.per_array().to_vec(),
            whole.registers().to_vec(),
            opt.options().cost_model,
        );
        assert_eq!(rebuilt.total_cost(), whole.total_cost());
        assert_eq!(rebuilt.per_array().len(), whole.per_array().len());
    }

    #[test]
    #[should_panic(expected = "one register grant")]
    fn from_parts_rejects_mismatched_grants() {
        let _ = LoopAllocation::from_parts(Vec::new(), vec![1], CostModel::steady_state());
    }

    #[test]
    fn loop_allocation_splits_registers_across_arrays() {
        let spec = parse_loop(
            "for (i = 1; i < 255; i++) {
                y[i] = x[i - 1] + x[i] + x[i + 1];
            }",
        )
        .unwrap();
        let alloc = Optimizer::new(AguSpec::new(4, 1).unwrap())
            .allocate_loop(&spec)
            .unwrap();
        assert_eq!(alloc.per_array().len(), 2);
        assert!(alloc.total_registers() <= 4);
        assert_eq!(alloc.total_cost(), 0, "x chain and y singleton are free");
        let x = spec.array_id("x").unwrap();
        assert!(alloc.for_array(x).is_some());
        assert!(alloc.for_array(raco_ir::ArrayId::from_index(9)).is_none());
    }

    #[test]
    fn machine_modify_registers_enter_the_default_cost_model() {
        let plain = Optimizer::new(AguSpec::new(2, 1).unwrap());
        assert_eq!(plain.options().cost_model.modify_registers(), 0);
        let mr = Optimizer::new(AguSpec::new(2, 1).unwrap().with_modify_registers(3));
        assert_eq!(mr.options().cost_model.modify_registers(), 3);
        // with_options takes the model verbatim (MR-blind ablation).
        let blind = Optimizer::with_options(
            AguSpec::new(2, 1).unwrap().with_modify_registers(3),
            OptimizerOptions::default(),
        );
        assert_eq!(blind.options().cost_model.modify_registers(), 0);
    }

    #[test]
    fn modify_registers_lower_predicted_cost_on_scattered_chains() {
        // One register chains 0, 10, 20, 30: three +10 steps plus an
        // over-range wrap. One modify register absorbs all the +10s.
        let pattern = AccessPattern::from_offsets(&[0, 10, 20, 30], 1);
        let plain = Optimizer::new(AguSpec::new(1, 1).unwrap()).allocate(&pattern);
        let with_mr =
            Optimizer::new(AguSpec::new(1, 1).unwrap().with_modify_registers(1)).allocate(&pattern);
        assert_eq!(plain.cost(), 4);
        assert_eq!(with_mr.cost(), 1, "three +10 steps become free");
        assert_eq!(
            with_mr.cost(),
            with_mr.phase2().final_cost(),
            "phase-2 trajectory records the MR-aware cost"
        );
    }

    #[test]
    fn mr_aware_cost_is_monotone_in_modify_register_count() {
        let pattern = AccessPattern::from_offsets(&[0, 9, 3, 30, 12, -5], 4);
        for k in 1..=3 {
            let mut last = u32::MAX;
            for mr in 0..=4 {
                let agu = AguSpec::new(k, 1).unwrap().with_modify_registers(mr);
                let cost = Optimizer::new(agu).allocate(&pattern).cost();
                assert!(cost <= last, "K={k} MR={mr}: {cost} > {last}");
                last = cost;
            }
        }
    }

    #[test]
    fn mr_aware_selection_can_beat_mr_blind_covers() {
        // The sweep evaluates the plain greedy cover too, so the
        // MR-aware allocation is never worse than pricing the blind
        // cover under the MR model.
        let pattern = AccessPattern::from_offsets(&[0, 10, 1, 11, 2, 12], 1);
        let agu = AguSpec::new(2, 1).unwrap().with_modify_registers(1);
        let aware = Optimizer::new(agu).allocate(&pattern);
        let blind = Optimizer::with_options(agu, OptimizerOptions::default()).allocate(&pattern);
        let blind_under_mr = Optimizer::new(agu)
            .options()
            .cost_model
            .cover_cost(blind.cover(), blind.distance_model());
        assert!(
            aware.cost() <= blind_under_mr,
            "aware {} vs blind-repriced {blind_under_mr}",
            aware.cost()
        );
    }

    #[test]
    fn zero_mr_machines_allocate_byte_identically_to_explicit_options() {
        // Regression pin for the paper reproduction: a machine without
        // modify registers must produce exactly the pre-MR allocations.
        let pattern = paper_pattern();
        for k in 1..=4 {
            let agu = AguSpec::new(k, 1).unwrap();
            let via_new = Optimizer::new(agu).allocate(&pattern);
            let via_options =
                Optimizer::with_options(agu, OptimizerOptions::default()).allocate(&pattern);
            assert_eq!(via_new, via_options, "K = {k}");
        }
    }

    #[test]
    fn cost_curve_matches_allocation_costs_on_mr_machines() {
        let pattern = AccessPattern::from_offsets(&[0, 10, 3, 30, 12, -5, 7], 2);
        let agu = AguSpec::new(4, 1).unwrap().with_modify_registers(2);
        let opt = Optimizer::new(agu);
        let curve = opt.cost_curve(&pattern, 4);
        for (i, &cost) in curve.iter().enumerate() {
            let alloc = opt.allocate_with_registers(&pattern, i + 1);
            assert_eq!(cost, alloc.cost(), "K = {}", i + 1);
        }
        for w in curve.windows(2) {
            assert!(w[0] >= w[1], "curve must stay monotone: {curve:?}");
        }
    }

    #[test]
    fn multi_array_totals_pool_the_modify_budget() {
        // With one register per array, `a` chains with three +10 steps
        // (and a -29 wrap), `b` with two +9 steps (and a -17 wrap). The
        // single machine-wide MR holds +10 — the most frequent delta
        // across the whole loop — so `b`'s updates stay explicit.
        let spec = parse_loop(
            "for (i = 0; i < 64; i++) {
                s = a[i] + a[i + 10] + a[i + 20] + a[i + 30]
                  + b[i] + b[i + 9] + b[i + 18];
            }",
        )
        .unwrap();
        let agu = AguSpec::new(2, 1).unwrap().with_modify_registers(1);
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        // Raw cost 4 + 3, minus the three absorbed +10 steps.
        assert_eq!(alloc.total_cost(), 4);
        // Each per-array cost optimistically claims the MR for itself;
        // the loop total must not sum those claims.
        let per_array_sum: u32 = alloc.per_array().iter().map(|(_, a)| a.cost()).sum();
        assert_eq!(per_array_sum, 2);
    }

    #[test]
    fn deduped_loop_allocation_matches_standalone_allocations() {
        // allocate_loop reuses Phase 1 (and the MR sweep's Phase-2
        // reports) across the curve and the final allocation; the
        // result must stay byte-identical to the undeduplicated path:
        // a public cost curve per array, the register partition over
        // those curves, then each array allocated separately at its
        // granted register count.
        let cases = [
            (
                "for (i = 0; i < 64; i++) {
                    s = a[i] + a[i + 10] + a[i + 20] + a[i + 30]
                      + b[i] + b[i + 9] + b[i + 18];
                }",
                3,
            ),
            (
                "for (i = 2; i < 64; i++) { y[i] = x[i-2] + x[i] + x[i+3] + y[i-1] + y[i-2]; }",
                4,
            ),
        ];
        for (source, k) in cases {
            let spec = parse_loop(source).unwrap();
            for mr in [0, 1, 2] {
                let agu = AguSpec::new(k, 1).unwrap().with_modify_registers(mr);
                let opt = Optimizer::new(agu);
                let whole = opt.allocate_loop(&spec).unwrap();
                let curves: Vec<Vec<u32>> = spec
                    .patterns()
                    .iter()
                    .map(|p| opt.cost_curve(p, k))
                    .collect();
                let grants = partition::distribute_registers(&curves, k).unwrap();
                assert_eq!(whole.registers(), grants.as_slice(), "MR={mr} {source}");
                for ((array, alloc), &ka) in whole.per_array().iter().zip(whole.registers()) {
                    let pattern = spec
                        .patterns()
                        .into_iter()
                        .find(|p| p.array() == *array)
                        .unwrap();
                    let standalone = opt.allocate_with_registers(&pattern, ka);
                    assert_eq!(**alloc, standalone, "MR={mr} array={array:?} K={ka}");
                }
            }
        }
    }

    #[test]
    fn core_phase_histograms_accumulate() {
        let opt = Optimizer::new(AguSpec::new(2, 1).unwrap());
        let before = raco_obs::global().histogram("core.phase1").snapshot().count;
        let _ = opt.allocate(&paper_pattern());
        let after = raco_obs::global().histogram("core.phase1").snapshot().count;
        assert_eq!(after, before + 1, "one Phase-1 run per allocation");
        assert!(raco_obs::global().histogram("core.phase2").snapshot().count >= 1);
    }

    #[test]
    fn loop_allocation_rejects_too_many_arrays() {
        let spec = parse_loop("for (i = 0; i < 9; i++) { a[i] = b[i] + c[i] + d[i]; }").unwrap();
        let err = Optimizer::new(AguSpec::new(2, 1).unwrap())
            .allocate_loop(&spec)
            .unwrap_err();
        assert_eq!(
            err,
            AllocError::InsufficientRegisters {
                arrays: 4,
                registers: 2
            }
        );
    }

    #[test]
    fn loop_allocation_rejects_empty_loops() {
        let spec = parse_loop("for (i = 0; i < 9; i++) { s = t; }").unwrap();
        let err = Optimizer::new(AguSpec::new(2, 1).unwrap())
            .allocate_loop(&spec)
            .unwrap_err();
        assert_eq!(err, AllocError::EmptyLoop);
    }

    #[test]
    fn loop_allocation_prefers_needy_arrays() {
        // `a` is a free chain (1 register is enough); `b` is scattered and
        // profits from every extra register.
        let spec = parse_loop(
            "for (i = 0; i < 64; i++) {
                s = a[i] + b[i] + b[i + 10] + b[i + 20];
            }",
        )
        .unwrap();
        let alloc = Optimizer::new(AguSpec::new(4, 1).unwrap())
            .allocate_loop(&spec)
            .unwrap();
        let a = spec.array_id("a").unwrap();
        let b = spec.array_id("b").unwrap();
        assert_eq!(alloc.for_array(a).unwrap().register_count(), 1);
        assert_eq!(alloc.for_array(b).unwrap().register_count(), 3);
        assert_eq!(alloc.total_cost(), 0);
    }
}
