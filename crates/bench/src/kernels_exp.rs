//! Kernel compilation-model comparison (experiments E4 and E7).
//!
//! Three compilation models per kernel:
//!
//! 1. **explicit** — a regular C compiler without AGU optimization:
//!    every access recomputes its address in the data path (two
//!    instructions per access);
//! 2. **chain** — naive AGU use: the minimum number of registers (one
//!    per array), each serving its array's accesses in original order
//!    with no allocation intelligence;
//! 3. **optimized** — the paper's two-phase allocation on `K` registers
//!    (optionally with modify registers), compiled through
//!    [`Pipeline::compile_loop`](raco_driver::Pipeline::compile_loop):
//!    the listing passes both oracles (simulator and listing checker)
//!    and its predicted cost equals the measured one before it is
//!    reported.

use raco_agu::metrics::{improvement_percent, ProgramMetrics};
use raco_core::CostModel;
use raco_driver::PipelineConfig;
use raco_graph::{DistanceModel, ModifyAllocation, PathCover};
use raco_ir::AguSpec;
use raco_kernels::Kernel;

/// The comparison row of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    /// Kernel name.
    pub name: String,
    /// Accesses per iteration.
    pub accesses: usize,
    /// Compute (data-path) instructions per iteration.
    pub compute: u64,
    /// Explicit-addressing baseline: code words.
    pub explicit_words: u64,
    /// Explicit-addressing baseline: total cycles.
    pub explicit_cycles: u64,
    /// Naive chaining: code words.
    pub chain_words: u64,
    /// Naive chaining: total cycles.
    pub chain_cycles: u64,
    /// Optimized: code words.
    pub opt_words: u64,
    /// Optimized: total cycles.
    pub opt_cycles: u64,
    /// Code-size improvement vs explicit addressing, percent.
    pub size_improvement_pct: f64,
    /// Speed improvement vs explicit addressing, percent.
    pub speed_improvement_pct: f64,
}

/// Compares the three compilation models on one kernel.
///
/// The optimized program is compiled through the pipeline, validated
/// over `iterations` iterations.
///
/// # Panics
///
/// Panics if the kernel needs more arrays than `k` registers, or if the
/// pipeline rejects the generated code (see
/// [`compile_validated`](crate::compile_validated)).
pub fn compare_kernel(kernel: &Kernel, agu: AguSpec, iterations: u64) -> KernelRow {
    let spec = kernel.spec();
    let compute = kernel.compute_ops();
    let n = spec.len();

    // Model 1: explicit addressing.
    let explicit = ProgramMetrics::explicit_addressing(n);

    // Model 2: naive chaining — one register per array, accesses served
    // in original order (single chain per array). Its body words are
    // its paid steps, one `ADDA` word each (the plain steady-state
    // count); its cycles are the same chains priced on `agu`, whose
    // `ADDA` may take several cycles and whose modify registers absorb
    // the most frequent over-range steps of all chains together. Its
    // prologue loads each array's register and each value those modify
    // registers hold, as code generation would.
    let arrays = spec.patterns();
    let covers: Vec<(PathCover, DistanceModel)> = arrays
        .iter()
        .map(|p| {
            (
                PathCover::single_chain(p.len()),
                DistanceModel::with_range(p, agu.update_range()),
            )
        })
        .collect();
    let chains: Vec<(&PathCover, &DistanceModel)> = covers.iter().map(|(c, dm)| (c, dm)).collect();
    let modify = ModifyAllocation::new(
        (covers.iter()).flat_map(|(c, dm)| c.paths().iter().map(move |path| (path, dm))),
        agu.modify_registers(),
        CostModel::steady_state().includes_wrap(),
    );
    let chain = ProgramMetrics::synthetic(
        (arrays.len() + modify.values().len()) as u64,
        u64::from(CostModel::steady_state().covers_cost(&chains)),
        u64::from(
            CostModel::steady_state()
                .for_machine(&agu)
                .covers_cost(&chains),
        ),
        n as u64,
    );

    // Model 3: the paper's optimizer, compiled through the pipeline.
    let mut config = PipelineConfig::new(agu);
    config.validation_iterations = iterations;
    let (_, program) = crate::compile_validated(kernel.name(), config, spec);
    let opt = ProgramMetrics::of(&program);

    let explicit_words = explicit.code_words(compute);
    let explicit_cycles = explicit.cycles(compute, iterations);
    let opt_words = opt.code_words(compute);
    let opt_cycles = opt.cycles(compute, iterations);
    KernelRow {
        name: kernel.name().to_owned(),
        accesses: n,
        compute,
        explicit_words,
        explicit_cycles,
        chain_words: chain.code_words(compute),
        chain_cycles: chain.cycles(compute, iterations),
        opt_words,
        opt_cycles,
        size_improvement_pct: improvement_percent(explicit_words, opt_words),
        speed_improvement_pct: improvement_percent(explicit_cycles, opt_cycles),
    }
}

/// Runs the comparison over a whole suite.
pub fn compare_suite<'k>(
    kernels: impl IntoIterator<Item = &'k Kernel>,
    agu: AguSpec,
    iterations: u64,
) -> Vec<KernelRow> {
    kernels
        .into_iter()
        .map(|k| compare_kernel(k, agu, iterations))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fir_improves_both_axes() {
        let agu = AguSpec::new(4, 1).unwrap();
        let row = compare_kernel(&raco_kernels::fir(4), agu, 128);
        assert!(row.size_improvement_pct > 0.0, "{row:?}");
        assert!(row.speed_improvement_pct > 0.0, "{row:?}");
        assert!(row.opt_cycles < row.chain_cycles || row.chain_cycles == row.opt_cycles);
    }

    #[test]
    fn optimized_never_loses_to_naive_chaining_on_cycles() {
        let agu = AguSpec::new(6, 1).unwrap();
        for kernel in raco_kernels::suite() {
            if kernel.spec().patterns().len() > agu.address_registers() {
                continue;
            }
            let row = compare_kernel(kernel, agu, 64);
            assert!(
                row.opt_cycles <= row.chain_cycles,
                "{}: optimized {} vs chain {}",
                row.name,
                row.opt_cycles,
                row.chain_cycles
            );
        }
    }

    #[test]
    fn suite_comparison_is_reproducible() {
        let agu = AguSpec::new(4, 1).unwrap();
        let kernels = vec![raco_kernels::dot_product(), raco_kernels::biquad()];
        let a = compare_suite(&kernels, agu, 32);
        let b = compare_suite(&kernels, agu, 32);
        assert_eq!(a, b);
    }

    /// The chain baseline's body `ADDA` words and its addressing cycles
    /// per iteration, read back from a row whose chains load `prologue`
    /// registers.
    fn chain_words_and_cycles(row: &KernelRow, prologue: u64, iterations: u64) -> (u64, u64) {
        let body_words = row.chain_words - prologue - row.compute;
        let cycles = (row.chain_cycles - prologue) / iterations - row.compute;
        (body_words, cycles)
    }

    #[test]
    fn chain_cycles_pay_the_machines_adda_cost() {
        let agu = AguSpec::new(4, 1)
            .unwrap()
            .with_cost_table(raco_ir::CostTable::new(1, 1, 2).unwrap());
        let kernel = raco_kernels::fir(4);
        let arrays = kernel.spec().patterns().len() as u64;
        let row = compare_kernel(&kernel, agu, 64);
        let (words, cycles) = chain_words_and_cycles(&row, arrays, 64);
        assert!(words > 0, "{row:?}");
        assert_eq!(cycles, 2 * words, "two cycles per ADDA word: {row:?}");
    }

    #[test]
    fn chain_cycles_let_modify_registers_absorb_steps() {
        let agu = AguSpec::new(4, 1).unwrap().with_modify_registers(2);
        let kernel = raco_kernels::matmul_inner(8);
        let arrays = kernel.spec().patterns().len() as u64;
        let row = compare_kernel(&kernel, agu, 64);
        // One address register per array and one modify register (+8).
        let (words, cycles) = chain_words_and_cycles(&row, arrays + 1, 64);
        assert!(words > 0, "{row:?}");
        assert!(
            cycles < words,
            "modify registers absorb the stride-8 wraps: {cycles} cycles for {words} words"
        );
    }

    #[test]
    fn chain_prologue_loads_the_modify_registers_its_cycles_use() {
        // matmul's chains are `a[i]` (wrap +1, free) and `b[8 * i]`
        // (wrap +8, paid): with modify registers the +8 is absorbed, so
        // its cycles rely on one `LDM`, which the prologue now counts
        // next to one register load per array.
        let plain = AguSpec::new(4, 1).unwrap();
        let kernel = raco_kernels::matmul_inner(8);
        let arrays = kernel.spec().patterns().len() as u64;
        let without = compare_kernel(&kernel, plain, 64);
        let with = compare_kernel(&kernel, plain.with_modify_registers(2), 64);
        assert_eq!(with.chain_words, without.chain_words + 1, "{with:?}");
        assert_eq!(
            with.chain_cycles,
            arrays + 1 + 64 * with.compute,
            "every step absorbed: {with:?}"
        );
    }

    #[test]
    fn modify_registers_help_the_matmul_column() {
        let plain = AguSpec::new(4, 1).unwrap();
        let with_mr = AguSpec::new(4, 1).unwrap().with_modify_registers(2);
        let kernel = raco_kernels::matmul_inner(8);
        let a = compare_kernel(&kernel, plain, 64);
        let b = compare_kernel(&kernel, with_mr, 64);
        assert!(
            b.opt_cycles < a.opt_cycles,
            "modify registers must absorb the stride-8 wraps: {} vs {}",
            b.opt_cycles,
            a.opt_cycles
        );
    }
}
