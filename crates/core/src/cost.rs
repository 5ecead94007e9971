//! The cost model configuration.

use raco_graph::{DeltaHistogram, DistanceModel, ModifyAllocation, Path, PathCover};
use raco_ir::AguSpec;

/// Selects how path costs are measured.
///
/// The paper defines `C(P)` as the number of over-range consecutive pairs
/// *inside* a path (Section 3.2). For the cost to agree with what the loop
/// actually executes in steady state, the back-edge (wrap) step of each
/// register must be counted too — Phase 1 requires it to be free for every
/// virtual register, so a merge that breaks a wrap genuinely costs an
/// instruction. [`CostModel::steady_state`] therefore includes wrap costs
/// and is the default; [`CostModel::paper_literal`] reproduces the
/// intra-only definition for ablation experiments.
///
/// ## Modify registers
///
/// Real AGUs (DSP56k, ADSP-210x) add *modify registers*: a post-update by
/// the content of a modify register is as free as an in-range auto-modify.
/// [`CostModel::with_modify_registers`] (or [`CostModel::for_machine`])
/// prices that machine: [`CostModel::paths_cost`] charges a delta
/// **zero** cycles when one of the machine's modify registers would
/// hold it — ranked by per-iteration frequency, exactly the ranking code
/// generation uses ([`ModifyAllocation`]) — so the allocator's predicted
/// cost equals the simulator's measured cost on MR-equipped machines.
/// Phase 2 prices the same steps from a running [`DeltaHistogram`]
/// ([`CostModel::histogram_cost`]). With zero modify registers (the
/// default, the plain paper machine) every cost is byte-identical to the
/// base model.
///
/// # Examples
///
/// ```
/// use raco_core::CostModel;
/// use raco_graph::{DistanceModel, Path, PathCover};
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let p = Path::new(vec![0, 2, 4, 5]).unwrap(); // (a_1, a_3, a_5, a_6)
/// assert_eq!(CostModel::paper_literal().paths_cost([(&p, &dm)]), 0);
/// assert_eq!(CostModel::steady_state().paths_cost([(&p, &dm)]), 1); // wrap = 2
///
/// // A repeated over-range delta becomes free once an MR holds it:
/// let dm = DistanceModel::from_offsets(&[0, 7, 14, 21], 22, 1);
/// let chain = PathCover::single_chain(4);
/// assert_eq!(CostModel::steady_state().cover_cost(&chain, &dm), 3);
/// let mr = CostModel::steady_state().with_modify_registers(1);
/// assert_eq!(mr.cover_cost(&chain, &dm), 0); // three +7 steps absorbed
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostModel {
    include_wrap: bool,
    modify_registers: usize,
    adda_cost: u32,
}

impl CostModel {
    /// Steady-state cost: intra-path unit costs plus the wrap step.
    pub fn steady_state() -> Self {
        CostModel {
            include_wrap: true,
            modify_registers: 0,
            adda_cost: 1,
        }
    }

    /// Paper-literal `C(P)`: intra-path unit costs only.
    pub fn paper_literal() -> Self {
        CostModel {
            include_wrap: false,
            modify_registers: 0,
            adda_cost: 1,
        }
    }

    /// Prices a machine with `count` modify registers (builder style):
    /// cover costs charge zero for deltas a globally-allocated modify
    /// register would absorb.
    #[must_use]
    pub fn with_modify_registers(mut self, count: usize) -> Self {
        self.modify_registers = count;
        self
    }

    /// Prices machines whose explicit `ADDA` costs `cycles` instead of
    /// one (builder style). Scaling is uniform, so the optimal cover is
    /// unchanged; only reported costs grow — keeping `predicted ==
    /// measured` on machines with multi-cycle address arithmetic.
    ///
    /// A `cycles` of zero is treated as one (explicit instructions are
    /// never free).
    #[must_use]
    pub fn with_adda_cost(mut self, cycles: u32) -> Self {
        self.adda_cost = cycles.max(1);
        self
    }

    /// Prices `agu` (builder style): its modify-register count and its
    /// `ADDA` cost replace this model's, and the wrap flag stays. Every
    /// model that must agree with the code generated for `agu` is made
    /// here, so predicted and measured costs cannot drift apart.
    #[must_use]
    pub fn for_machine(self, agu: &AguSpec) -> Self {
        self.with_modify_registers(agu.modify_registers())
            .with_adda_cost(agu.cost_table().adda())
    }

    /// Whether wrap (back-edge) steps are charged.
    pub fn includes_wrap(&self) -> bool {
        self.include_wrap
    }

    /// Modify registers priced by this model (zero on the plain paper
    /// machine).
    pub fn modify_registers(&self) -> usize {
        self.modify_registers
    }

    /// Cycles charged per explicit `ADDA` (one on the paper machine).
    pub fn adda_cost(&self) -> u32 {
        self.adda_cost
    }

    /// The cycles of `steps` explicit updates: every cost here is paid
    /// steps priced through this.
    pub fn steps_cost(&self, steps: u32) -> u32 {
        steps.saturating_mul(self.adda_cost)
    }

    /// The cost of a set of paths sharing one machine, each stepping
    /// through its own distance model — the one modify-register-aware
    /// price every other cost here is built on.
    ///
    /// It is the paid steps of all paths, less the steps the machine's
    /// modify registers absorb, times the `ADDA` cost. Modify registers
    /// are machine-wide, so the ranking ([`ModifyAllocation`], the one
    /// code generation loads) pools the over-range deltas of *every*
    /// path before picking the most frequent values. With zero modify
    /// registers no delta is told apart from another.
    pub fn paths_cost<'a>(
        &self,
        paths: impl IntoIterator<Item = (&'a Path, &'a DistanceModel)>,
    ) -> u32 {
        self.steps_cost(
            ModifyAllocation::new(paths, self.modify_registers, self.include_wrap).charged(),
        )
    }

    /// [`paths_cost`](Self::paths_cost) of the paths whose paid steps
    /// `histogram` counts, one key per distinct delta (wrap steps
    /// counted exactly when this model [includes
    /// them](Self::includes_wrap)): the paid steps less the
    /// [`top`](DeltaHistogram::top) counts this model's modify
    /// registers absorb, times `ADDA`.
    pub fn histogram_cost(&self, histogram: &DeltaHistogram) -> u32 {
        self.steps_cost(histogram.charged(self.modify_registers))
    }

    /// [`paths_cost`](Self::paths_cost) of one cover.
    pub fn cover_cost(&self, cover: &PathCover, dm: &DistanceModel) -> u32 {
        self.paths_cost(cover.paths().iter().map(|path| (path, dm)))
    }

    /// [`paths_cost`](Self::paths_cost) of several covers sharing one
    /// machine — the cost of a whole loop whose arrays were allocated
    /// independently. Summing per-cover [`cover_cost`](Self::cover_cost)s
    /// instead would let each array claim the full modify-register budget
    /// for itself and under-predict multi-array loops.
    pub fn covers_cost(&self, items: &[(&PathCover, &DistanceModel)]) -> u32 {
        self.paths_cost(
            items
                .iter()
                .flat_map(|&(cover, dm)| cover.paths().iter().map(move |path| (path, dm))),
        )
    }
}

impl Default for CostModel {
    /// Defaults to [`CostModel::steady_state`].
    fn default() -> Self {
        CostModel::steady_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_steady_state() {
        assert_eq!(CostModel::default(), CostModel::steady_state());
        assert!(CostModel::steady_state().includes_wrap());
        assert!(!CostModel::paper_literal().includes_wrap());
        assert_eq!(CostModel::steady_state().modify_registers(), 0);
        assert_eq!(
            CostModel::steady_state().with_modify_registers(0),
            CostModel::steady_state(),
            "a zero-MR model is the plain model"
        );
    }

    #[test]
    fn cover_cost_matches_sum_of_paths() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let cover = PathCover::single_chain(7);
        let model = CostModel::steady_state();
        let by_paths: u32 = cover
            .paths()
            .iter()
            .map(|p| model.paths_cost([(p, &dm)]))
            .sum();
        assert_eq!(model.cover_cost(&cover, &dm), by_paths);
        assert_eq!(model.cover_cost(&cover, &dm), 5);
        assert_eq!(CostModel::paper_literal().cover_cost(&cover, &dm), 4);
    }

    #[test]
    fn modify_registers_absorb_top_ranked_deltas() {
        // Chain steps: +7, +7, +7; wrap 0 + 22 - 21 = 1 (free).
        let dm = DistanceModel::from_offsets(&[0, 7, 14, 21], 22, 1);
        let chain = PathCover::single_chain(4);
        let base = CostModel::steady_state();
        assert_eq!(base.cover_cost(&chain, &dm), 3);
        assert_eq!(base.with_modify_registers(1).cover_cost(&chain, &dm), 0);
        // More registers than distinct deltas: cost still bottoms at 0.
        assert_eq!(base.with_modify_registers(4).cover_cost(&chain, &dm), 0);
    }

    #[test]
    fn modify_cost_is_monotone_in_register_count_for_a_fixed_cover() {
        let dm = DistanceModel::from_offsets(&[0, 5, -4, 13, 6], 1, 1);
        let cover = PathCover::single_chain(5);
        let mut last = u32::MAX;
        for count in 0..6 {
            let cost = CostModel::steady_state()
                .with_modify_registers(count)
                .cover_cost(&cover, &dm);
            assert!(cost <= last, "MR {count}: {cost} > {last}");
            last = cost;
        }
    }

    #[test]
    fn paper_literal_with_modify_registers_ranks_intra_steps_only() {
        // Only step is the wrap (+8): paper-literal charges nothing and
        // must not rank the wrap into a modify register either.
        let dm = DistanceModel::from_offsets(&[0, 1], 9, 1);
        let cover = PathCover::single_chain(2);
        let model = CostModel::paper_literal().with_modify_registers(2);
        assert_eq!(model.cover_cost(&cover, &dm), 0);
    }

    #[test]
    fn adda_cost_scales_uniformly() {
        let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
        let cover = PathCover::single_chain(7);
        let base = CostModel::steady_state();
        let scaled = base.with_adda_cost(3);
        assert_eq!(scaled.adda_cost(), 3);
        assert_eq!(
            scaled.cover_cost(&cover, &dm),
            3 * base.cover_cost(&cover, &dm)
        );
        for p in cover.paths() {
            let path = [(p, &dm)];
            assert_eq!(scaled.paths_cost(path), 3 * base.paths_cost(path));
        }
        // MR savings are applied before scaling.
        let dm = DistanceModel::from_offsets(&[0, 7, 14, 21], 22, 1);
        let chain = PathCover::single_chain(4);
        let mr = base.with_modify_registers(1).with_adda_cost(5);
        assert_eq!(mr.cover_cost(&chain, &dm), 0);
        // Zero is clamped to one: explicit instructions are never free.
        assert_eq!(base.with_adda_cost(0), base);
    }

    #[test]
    fn covers_cost_pools_the_modify_budget_globally() {
        // Array A repeats +7 three times, array B repeats +9 twice; one
        // machine-wide modify register holds +7 (more frequent), so B's
        // over-range steps stay explicit.
        let dm_a = DistanceModel::from_offsets(&[0, 7, 14, 21], 22, 1);
        let dm_b = DistanceModel::from_offsets(&[0, 9, 18], 19, 1);
        let a = PathCover::single_chain(4);
        let b = PathCover::single_chain(3);
        let model = CostModel::steady_state().with_modify_registers(1);
        let global = model.covers_cost(&[(&a, &dm_a), (&b, &dm_b)]);
        assert_eq!(global, 2, "B keeps its two +9 updates");
        // Summing per-cover costs would give each array its own MR:
        let summed = model.cover_cost(&a, &dm_a) + model.cover_cost(&b, &dm_b);
        assert!(summed < global, "per-array sums under-predict: {summed}");
        // With zero MRs the pooled cost is exactly the raw sum.
        let base = CostModel::steady_state();
        assert_eq!(
            base.covers_cost(&[(&a, &dm_a), (&b, &dm_b)]),
            base.cover_cost(&a, &dm_a) + base.cover_cost(&b, &dm_b)
        );
    }
}
