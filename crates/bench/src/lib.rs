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
    #[test]
    fn experiments_dir_exists_after_call() {
        let dir = super::experiments_dir();
        assert!(dir.ends_with("target/experiments"));
        assert!(dir.is_dir());
    }
}
