//! The end-to-end optimizer: Phase 1 + Phase 2 behind one call.

use std::fmt;
use std::ops::RangeInclusive;
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

/// Global latency histogram for Phase 2 (one observation per
/// [`Optimizer::best_phase2`] sweep: a whole cost curve's register
/// range is one observation, as is one allocation; building an
/// allocation's report from a curve's sweep is not one; metric
/// `core.phase2`, nanoseconds).
fn phase2_histogram() -> &'static Arc<Histogram> {
    static HISTOGRAM: OnceLock<Arc<Histogram>> = OnceLock::new();
    HISTOGRAM.get_or_init(|| raco_obs::global().histogram("core.phase2"))
}

/// Phase-1 output bundled with the distance model it ran on.
///
/// Prepared once per pattern and shared by the cost curve and the final
/// allocation, so the branch-and-bound search — the cycle sink of the
/// whole allocator — runs at most once per pattern in
/// [`Optimizer::allocate_patterns`], and Phase 2 reads its steps from
/// the distance model Phase 1 read.
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

/// The two questions [`Optimizer::allocate_patterns`] asks about each
/// array of a loop, answered from a memo — typically a cache keyed by
/// canonical pattern, machine and options — with `compute` as the
/// fallback on a miss.
///
/// The optimizer calls [`cost_curve`](Self::cost_curve) for every
/// pattern in index order, partitions the registers, then calls
/// [`allocation`](Self::allocation) for every pattern in index order.
/// An answer must equal what `compute` returns, except that an
/// allocation may hold a shifted twin of its distance model (offsets
/// moved by a constant, as a cache keyed by canonical pattern hands
/// out); the optimizer takes it on trust.
pub trait AllocationMemo {
    /// The cost curve of pattern `index` for `1..=K` registers (what
    /// [`Optimizer::cost_curve`] returns with `k_max = K`).
    fn cost_curve(&mut self, index: usize, compute: impl FnOnce() -> Vec<u32>) -> Arc<Vec<u32>>;

    /// The allocation of pattern `index` onto `registers` registers
    /// (what [`Optimizer::allocate_with_registers`] returns).
    fn allocation(
        &mut self,
        index: usize,
        registers: usize,
        compute: impl FnOnce() -> Allocation,
    ) -> Arc<Allocation>;
}

/// The memo of [`Optimizer::allocate_loop`]: remembers nothing.
struct Recompute;

impl AllocationMemo for Recompute {
    fn cost_curve(&mut self, _: usize, compute: impl FnOnce() -> Vec<u32>) -> Arc<Vec<u32>> {
        Arc::new(compute())
    }

    fn allocation(
        &mut self,
        _: usize,
        _: usize,
        compute: impl FnOnce() -> Allocation,
    ) -> Arc<Allocation> {
        Arc::new(compute())
    }
}

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
    /// The cost model prices the *whole* machine
    /// ([`CostModel::for_machine`]): deltas a modify register would
    /// absorb cost zero cycles and an explicit update costs the
    /// machine's `ADDA`, so predicted costs match what generated code
    /// measures on that machine.
    pub fn new(agu: AguSpec) -> Self {
        let mut options = OptimizerOptions::default();
        options.cost_model = options.cost_model.for_machine(&agu);
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
        let phase2 = self
            .best_phase2(&prepared, k..=k)
            .report(prepared.phase1.cover(), k);
        Allocation::from_parts(prepared.dm, prepared.phase1, phase2)
    }

    /// Runs Phase 1 on a distance model, recording its latency.
    fn prepare_model(&self, dm: DistanceModel) -> PreparedPattern {
        let phase1 = phase1_histogram().time(|| phase1::run(&dm, self.options.bb));
        PreparedPattern { dm, phase1 }
    }

    /// Runs Phase 2 under the configured cost model for every register
    /// count in `counts`: one [`phase2::sweep`], which keeps per count
    /// the cheapest cost and the merges behind it.
    ///
    /// On machines with modify registers the greedy merge *selection*
    /// is swept over every pricing aggressiveness — each
    /// `m' ∈ 0..=MR` ranks candidates as if `m'` modify registers were
    /// available — and every resulting cover is judged under the one
    /// true MR-aware model; per count the cheapest wins (ties to the
    /// smallest `m'`, i.e. the paper's plain greedy). This makes the
    /// predicted cost monotone in the machine's MR count by
    /// construction: the candidate set only grows with MR, and a fixed
    /// cover never gets more expensive when another modify register
    /// appears. The selections share one merge tree, splitting only
    /// where they pick different pairs. With zero modify registers
    /// this is a single plain selection, byte-identical to the pre-MR
    /// behaviour; a non-greedy strategy is not swept either and
    /// selects under the machine's own model.
    fn best_phase2(
        &self,
        prepared: &PreparedPattern,
        counts: RangeInclusive<usize>,
    ) -> phase2::Sweep {
        let (dm, cover) = (&prepared.dm, prepared.phase1.cover());
        let model = self.options.cost_model;
        let strategy = self.options.strategy;
        // A cover has exactly one step per access, so selection pricing
        // beyond `len` distinct deltas cannot change any ranking.
        let priced: Vec<usize> = match strategy {
            MergeStrategy::GreedyMinCost => (0..=model.modify_registers().min(dm.len())).collect(),
            _ => vec![model.modify_registers()],
        };
        phase2_histogram().time(|| phase2::sweep(cover, counts, dm, model, &priced, strategy))
    }

    /// Allocates every array of a loop, distributing the `K` registers
    /// across arrays so that the total cost is minimal (each array needs
    /// at least one register of its own).
    ///
    /// This is [`allocate_patterns`](Self::allocate_patterns) over the
    /// loop's patterns with no memo: every curve and allocation is
    /// computed.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::EmptyLoop`] for loops without accesses and
    /// [`AllocError::InsufficientRegisters`] when the loop touches more
    /// arrays than there are registers.
    pub fn allocate_loop(&self, spec: &LoopSpec) -> Result<LoopAllocation, AllocError> {
        self.allocate_patterns(&spec.patterns(), &mut Recompute)
    }

    /// Allocates the per-array `patterns` of one loop in the paper's
    /// order — a cost curve per array, the register partition over the
    /// curves ([`partition::distribute_registers`]), then each array at
    /// its granted register count — asking `memo` for every curve and
    /// every allocation before computing it.
    ///
    /// Phase 1 and Phase 2 run at most once per pattern: a curve miss
    /// keeps its prepared Phase-1 state and its Phase-2 sweep, and an
    /// allocation miss for the same pattern builds its report from the
    /// sweep at its count (the only report built). A memo that answers
    /// correctly leaves the result unchanged: it equals
    /// [`allocate_loop`](Self::allocate_loop) on a loop with these
    /// patterns.
    ///
    /// # Errors
    ///
    /// As [`allocate_loop`](Self::allocate_loop); a failing loop asks
    /// the memo nothing.
    pub fn allocate_patterns(
        &self,
        patterns: &[AccessPattern],
        memo: &mut impl AllocationMemo,
    ) -> Result<LoopAllocation, AllocError> {
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
        // What each curve miss computed on the way — Phase-1 state and
        // the Phase-2 sweep — kept for that pattern's allocation.
        let mut kept: Vec<Option<(PreparedPattern, phase2::Sweep)>> =
            std::iter::repeat_with(|| None)
                .take(patterns.len())
                .collect();
        let curves: Vec<Arc<Vec<u32>>> = patterns
            .iter()
            .zip(&mut kept)
            .enumerate()
            .map(|(i, (p, slot))| {
                memo.cost_curve(i, || {
                    let prep =
                        self.prepare_model(DistanceModel::with_range(p, self.agu.update_range()));
                    let (curve, sweep) = self.curve_from(&prep, k);
                    *slot = Some((prep, sweep));
                    curve
                })
            })
            .collect();
        let views: Vec<&[u32]> = curves.iter().map(|c| c.as_slice()).collect();
        let assignment = partition::distribute_registers(&views, k).expect("arity checked above");
        let per_array = patterns
            .iter()
            .zip(kept)
            .zip(&assignment)
            .enumerate()
            .map(|(i, ((p, slot), &ka))| {
                let allocation = memo.allocation(i, ka, || match slot {
                    Some((prep, sweep)) => {
                        let phase2 = sweep.report(prep.phase1.cover(), ka);
                        Allocation::from_parts(prep.dm, prep.phase1, phase2)
                    }
                    None => self.allocate_with_registers(p, ka),
                });
                (p.array(), allocation)
            })
            .collect();
        Ok(LoopAllocation::from_parts(
            per_array,
            assignment,
            self.options.cost_model,
        ))
    }

    /// The cost of allocating `pattern` with `1..=k_max` registers, as a
    /// vector indexed by `k - 1`.
    ///
    /// Computed from one [`phase2::sweep`] over `1..=k_max`, so a whole
    /// register sweep costs about one allocation. A budget of `k`
    /// registers admits any allocation with **at most** `k` paths, so
    /// the value at `k` is the minimum allocation cost over register
    /// counts `<= k` — this matters when Phase 1 fell back to a relaxed
    /// cover, where merging can *reduce* cost (paths that individually
    /// pay their wraps combine into a cheaper chain). The curve is
    /// therefore non-increasing in `k` by construction.
    pub fn cost_curve(&self, pattern: &AccessPattern, k_max: usize) -> Vec<u32> {
        let prepared =
            self.prepare_model(DistanceModel::with_range(pattern, self.agu.update_range()));
        self.curve_from(&prepared, k_max).0
    }

    /// Computes the cost curve from prepared Phase-1 state, reading
    /// each count's cost off one Phase-2 sweep; the sweep is returned
    /// too, so a caller that goes on to allocate at one of these counts
    /// builds that report instead of merging again.
    fn curve_from(&self, prepared: &PreparedPattern, k_max: usize) -> (Vec<u32>, phase2::Sweep) {
        let sweep = self.best_phase2(prepared, 1..=k_max);
        let mut running_min = u32::MAX;
        let curve = (1..=k_max)
            .map(|k| {
                running_min = running_min.min(sweep.cost(k));
                running_min
            })
            .collect();
        (curve, sweep)
    }
}

/// The result of allocating one access pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    dm: DistanceModel,
    phase1: Phase1Report,
    phase2: Phase2Report,
}

impl Allocation {
    /// Reassembles an allocation from its serialized parts.
    ///
    /// This is the constructor a snapshot decoder (see
    /// `raco_driver::persist`) uses to rebuild a cached allocation that
    /// was computed in an earlier process, and the one the optimizer
    /// ends every allocation with. The parts are taken at face value:
    /// the cost is the Phase-2 report's
    /// [`final_cost`](Phase2Report::final_cost), which the merge priced
    /// under the accounting cost model, so callers are expected to have
    /// validated structural invariants (covers partition their
    /// accesses; the decoder's checksum guards the rest) and that
    /// price. An allocation rebuilt from the parts of [`Allocation`]
    /// accessors compares equal to the original:
    ///
    /// ```
    /// use raco_core::{Allocation, Optimizer};
    /// use raco_ir::{AccessPattern, AguSpec};
    ///
    /// let pattern = AccessPattern::from_offsets(&[1, 0, 2, -1], 1);
    /// let original = Optimizer::new(AguSpec::new(2, 1).unwrap()).allocate(&pattern);
    /// let rebuilt = Allocation::from_parts(
    ///     original.distance_model().clone(),
    ///     original.phase1().clone(),
    ///     original.phase2().clone(),
    /// );
    /// assert_eq!(rebuilt, original);
    /// ```
    pub fn from_parts(dm: DistanceModel, phase1: Phase1Report, phase2: Phase2Report) -> Self {
        Allocation { dm, phase1, phase2 }
    }

    /// The parts [`from_parts`](Self::from_parts) takes, moved out: the
    /// distance model and both phase reports.
    pub fn into_parts(self) -> (DistanceModel, Phase1Report, Phase2Report) {
        (self.dm, self.phase1, self.phase2)
    }

    /// The final path cover: one path per used address register.
    pub fn cover(&self) -> &PathCover {
        self.phase2.cover()
    }

    /// Unit-cost address computations per steady-state iteration under the
    /// configured cost model: the Phase-2 report's
    /// [`final_cost`](Phase2Report::final_cost).
    pub fn cost(&self) -> u32 {
        self.phase2.final_cost()
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
        self.cost() == 0
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
    /// `per_array`. [`Optimizer::allocate_patterns`] ends here, and so
    /// does a compilation driver whose per-array allocations came from
    /// a cache: the cache hands out `Arc<Allocation>`s, and this
    /// constructor stores them as-is — no allocation data is cloned.
    /// The total cost is recomputed from the parts under `cost_model`
    /// ([`CostModel::covers_cost`] over every array's cover), so on a
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
    use raco_ir::CanonicalPattern;
    use std::collections::HashMap;

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

    /// A memo over plain maps — curves by cost class, allocations by
    /// exact canonical form and register count, as the driver's cache
    /// keys them — counting how often it falls back to `compute`.
    #[derive(Default)]
    struct MapMemo {
        canonicals: Vec<CanonicalPattern>,
        remember: bool,
        curves: HashMap<CanonicalPattern, Arc<Vec<u32>>>,
        allocations: HashMap<(CanonicalPattern, usize), Arc<Allocation>>,
        curve_computes: usize,
        alloc_computes: usize,
    }

    impl MapMemo {
        fn run(&mut self, opt: &Optimizer, spec: &LoopSpec) -> LoopAllocation {
            let patterns = spec.patterns();
            self.canonicals = patterns.iter().map(CanonicalPattern::of).collect();
            opt.allocate_patterns(&patterns, self).unwrap()
        }
    }

    impl AllocationMemo for MapMemo {
        fn cost_curve(
            &mut self,
            index: usize,
            compute: impl FnOnce() -> Vec<u32>,
        ) -> Arc<Vec<u32>> {
            let key = self.canonicals[index].cost_class();
            if let Some(curve) = self.curves.get(&key) {
                return Arc::clone(curve);
            }
            self.curve_computes += 1;
            let curve = Arc::new(compute());
            if self.remember {
                self.curves.insert(key, Arc::clone(&curve));
            }
            curve
        }

        fn allocation(
            &mut self,
            index: usize,
            registers: usize,
            compute: impl FnOnce() -> Allocation,
        ) -> Arc<Allocation> {
            let key = (self.canonicals[index].clone(), registers);
            if let Some(allocation) = self.allocations.get(&key) {
                return Arc::clone(allocation);
            }
            self.alloc_computes += 1;
            let allocation = Arc::new(compute());
            if self.remember {
                self.allocations.insert(key, Arc::clone(&allocation));
            }
            allocation
        }
    }

    #[test]
    fn memoized_loop_allocation_equals_plain_allocate_loop() {
        let forward = parse_loop(
            "for (i = 0; i < 64; i++) { y[i] = x[i] + x[i + 1] + x[i + 3] + x[i + 9]; }",
        )
        .unwrap();
        // The same shape walked backwards: every pattern is the mirror
        // of its forward twin, so it shares the cost class (curve hit)
        // but not the exact canonical form (allocation miss).
        let mirrored = parse_loop(
            "for (i = 63; i > 0; i--) { y[i] = x[i] + x[i - 1] + x[i - 3] + x[i - 9]; }",
        )
        .unwrap();
        let arrays = forward.patterns().len();
        for mr in [0, 1, 2] {
            let opt = Optimizer::new(AguSpec::new(3, 1).unwrap().with_modify_registers(mr));
            let plain = opt.allocate_loop(&forward).unwrap();

            let mut always_miss = MapMemo::default();
            assert_eq!(always_miss.run(&opt, &forward), plain, "MR={mr}");
            assert_eq!(always_miss.run(&opt, &forward), plain, "MR={mr}");
            assert_eq!(always_miss.curve_computes, 2 * arrays);
            assert_eq!(always_miss.alloc_computes, 2 * arrays);

            let mut memo = MapMemo {
                remember: true,
                ..MapMemo::default()
            };
            assert_eq!(memo.run(&opt, &forward), plain, "MR={mr} cold");
            let computes = (memo.curve_computes, memo.alloc_computes);
            assert_eq!(computes, (arrays, arrays));
            assert_eq!(memo.run(&opt, &forward), plain, "MR={mr} all hits");
            assert_eq!((memo.curve_computes, memo.alloc_computes), computes);

            let mirrored_plain = opt.allocate_loop(&mirrored).unwrap();
            assert_eq!(memo.run(&opt, &mirrored), mirrored_plain, "MR={mr} mirror");
            assert_eq!(memo.curve_computes, arrays, "mirrored curves hit");
            assert_eq!(memo.alloc_computes, 2 * arrays, "mirrored allocations miss");
        }
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
