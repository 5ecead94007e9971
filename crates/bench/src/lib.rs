//! # raco-bench — the paper-reproduction experiment harness
//!
//! One binary per experiment (see `DESIGN.md` §5 and `EXPERIMENTS.md`):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `e1_figure1` | Figure 1 — the graph model of the example loop |
//! | `e2_example` | the Section 2/3 worked example (K̃, merging, codegen) |
//! | `e3_random_sweep` | Results ¶1 — ~40 % average cost reduction vs naive |
//! | `e4_kernels` | Results ¶2 — code-size / speed improvement on kernels |
//! | `e5_bounds` | ablation: phase-1 bounds tightness and search effort |
//! | `e6_ablation` | ablation: merge strategies, cost models, optimality gap |
//! | `e7_modify_regs` | extension: modify registers (ref \[2\] machine) |
//! | `e8_offset_assignment` | complementary SOA/GOA (refs \[4, 5\]) |
//!
//! Each binary prints a Markdown table and writes a CSV next to the build
//! tree (`target/experiments/`). All randomness is seeded; re-running
//! reproduces identical tables.
//!
//! [`trajectory`] is the recorder behind `raco bench-trajectory`: it runs
//! the repository benchmark (`perfbench`, the only timer) and appends one
//! point to the committed `BENCH_pipeline.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels_exp;
pub mod stats;
pub mod sweep;
pub mod table;
pub mod trajectory;

use std::path::PathBuf;

use raco_agu::AddressProgram;
use raco_driver::{LoopReport, Pipeline, PipelineConfig};
use raco_ir::LoopSpec;

/// Directory where experiment CSVs are written
/// (`<workspace>/target/experiments`).
pub fn experiments_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.push("target");
    dir.push("experiments");
    std::fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Compiles the loop `name` through [`Pipeline::compile_loop`]: allocation,
/// code generation and, with `config.validate` on (the default), both
/// oracles — the simulator and the listing checker — plus the
/// predicted == measured cost check.
///
/// # Panics
///
/// Panics with the [`LoopFailure`](raco_driver::LoopFailure) text if
/// the pipeline rejects the loop: reporting numbers from code that
/// failed validation would be worse than stopping.
pub fn compile_validated(
    name: &str,
    config: PipelineConfig,
    spec: &LoopSpec,
) -> (LoopReport, AddressProgram) {
    let (report, program) = Pipeline::with_config(config).compile_loop(spec);
    if let Some(failure) = &report.failure {
        panic!("{name} fails the pipeline: {failure}");
    }
    (report, program.expect("a loop that compiled has a program"))
}

/// Parses `--key value` style options from `std::env::args`, returning
/// the value for `key` if present.
pub fn arg_value(key: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == key {
            return args.next();
        }
    }
    None
}

/// Parses `--samples N` (default `default`).
pub fn samples_arg(default: usize) -> usize {
    arg_value("--samples")
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "fir_4 fails the pipeline: allocation")]
    fn rejected_loops_panic_with_the_failure() {
        // Two arrays on one address register cannot allocate.
        let config = PipelineConfig::new(raco_ir::AguSpec::new(1, 1).unwrap());
        let kernel = raco_kernels::fir(4);
        compile_validated(kernel.name(), config, kernel.spec());
    }

    #[test]
    fn experiments_dir_exists_after_call() {
        let dir = experiments_dir();
        assert!(dir.ends_with("target/experiments"));
        assert!(dir.is_dir());
    }
}
