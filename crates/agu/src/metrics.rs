//! Code-size and cycle accounting for the E4 experiment.
//!
//! The paper cites (their ref \[1\], Liem/Paulin/Jerraya, DAC 1996) code
//! size improvements of up to 30 % and speed improvements of up to 60 %
//! for optimized array index computation compared to code from a regular C
//! compiler. This module provides the accounting used to reproduce that
//! *shape*: the addressing footprint of a generated [`AddressProgram`]
//! versus an explicit-addressing baseline, combined with each kernel's
//! data-path (compute) instruction count.

use crate::isa::AddressProgram;

/// The addressing footprint of one compilation of a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramMetrics {
    prologue_words: u64,
    body_addressing_words: u64,
    addressing_cycles_per_iteration: u64,
    accesses_per_iteration: u64,
}

impl ProgramMetrics {
    /// Extracts the metrics of a generated address program.
    pub fn of(program: &AddressProgram) -> Self {
        ProgramMetrics {
            prologue_words: program.prologue_cycles(),
            body_addressing_words: program.cycles_per_iteration(),
            addressing_cycles_per_iteration: program.cycles_per_iteration(),
            accesses_per_iteration: program.uses_per_iteration() as u64,
        }
    }

    /// The explicit-addressing baseline of a "regular C compiler" without
    /// AGU optimization: every access recomputes its address in the data
    /// path — one index add plus one pointer move per access, i.e. **two
    /// instructions per access**, both in code and in every iteration.
    pub fn explicit_addressing(accesses_per_iteration: usize) -> Self {
        let n = accesses_per_iteration as u64;
        ProgramMetrics {
            prologue_words: 0,
            body_addressing_words: 2 * n,
            addressing_cycles_per_iteration: 2 * n,
            accesses_per_iteration: n,
        }
    }

    /// Builds metrics from explicit counts, for compilation models that
    /// are costed analytically instead of through generated code (e.g.
    /// the naive per-array chaining baseline of experiment E4). Words and
    /// cycles are separate counts: an `ADDA` word may take several
    /// cycles, and a modify register absorbs a step's cycles.
    pub fn synthetic(
        prologue_words: u64,
        body_addressing_words: u64,
        addressing_cycles_per_iteration: u64,
        accesses_per_iteration: u64,
    ) -> Self {
        ProgramMetrics {
            prologue_words,
            body_addressing_words,
            addressing_cycles_per_iteration,
            accesses_per_iteration,
        }
    }

    /// One-time addressing words (register initialization).
    pub fn prologue_words(&self) -> u64 {
        self.prologue_words
    }

    /// Addressing words inside the loop body.
    pub fn body_addressing_words(&self) -> u64 {
        self.body_addressing_words
    }

    /// Addressing cycles added to every iteration.
    pub fn addressing_cycles_per_iteration(&self) -> u64 {
        self.addressing_cycles_per_iteration
    }

    /// Accesses per iteration.
    pub fn accesses_per_iteration(&self) -> u64 {
        self.accesses_per_iteration
    }

    /// Total code words of the loop, given the kernel's data-path
    /// instruction count per iteration.
    pub fn code_words(&self, compute_words_per_iteration: u64) -> u64 {
        self.prologue_words + self.body_addressing_words + compute_words_per_iteration
    }

    /// Total cycles over `iterations`, given the kernel's data-path
    /// instruction count per iteration (prologue amortized once).
    pub fn cycles(&self, compute_cycles_per_iteration: u64, iterations: u64) -> u64 {
        self.prologue_words
            + iterations * (self.addressing_cycles_per_iteration + compute_cycles_per_iteration)
    }
}

/// Relative improvement of `optimized` over `baseline`, in percent
/// (positive = optimized is better/smaller).
///
/// # Examples
///
/// ```
/// use raco_agu::metrics::improvement_percent;
/// assert_eq!(improvement_percent(100, 70), 30.0);
/// assert_eq!(improvement_percent(0, 0), 0.0);
/// ```
pub fn improvement_percent(baseline: u64, optimized: u64) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    (baseline as f64 - optimized as f64) / baseline as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::CodeGenerator;
    use raco_core::Optimizer;
    use raco_ir::{examples, AguSpec, MemoryLayout};

    #[test]
    fn explicit_baseline_is_two_instructions_per_access() {
        let m = ProgramMetrics::explicit_addressing(7);
        assert_eq!(m.body_addressing_words(), 14);
        assert_eq!(m.addressing_cycles_per_iteration(), 14);
        assert_eq!(m.prologue_words(), 0);
        assert_eq!(m.accesses_per_iteration(), 7);
    }

    #[test]
    fn optimized_paper_loop_beats_the_baseline() {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(3, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 64);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        let opt = ProgramMetrics::of(&program);
        let base = ProgramMetrics::explicit_addressing(7);

        let compute = 7; // one data-path op per access, say
        let iterations = 256;
        assert!(opt.code_words(compute) < base.code_words(compute));
        assert!(opt.cycles(compute, iterations) < base.cycles(compute, iterations));

        // Speed improvement: (7 + 14) vs (7 + 0) per iteration → 66 %.
        let speedup = improvement_percent(
            base.cycles(compute, iterations),
            opt.cycles(compute, iterations),
        );
        assert!(speedup > 60.0, "speedup was {speedup:.1} %");
    }

    #[test]
    fn improvement_percent_edge_cases() {
        assert_eq!(improvement_percent(200, 100), 50.0);
        assert!(
            improvement_percent(100, 130) < 0.0,
            "regressions are negative"
        );
        assert_eq!(improvement_percent(0, 5), 0.0);
    }

    #[test]
    fn cycles_amortize_the_prologue() {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(3, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 64);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        let m = ProgramMetrics::of(&program);
        assert_eq!(m.cycles(10, 1), m.prologue_words() + 10);
        assert_eq!(m.cycles(10, 100), m.prologue_words() + 100 * 10);
    }
}
