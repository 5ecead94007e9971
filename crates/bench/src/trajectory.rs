//! The `raco bench-trajectory` suite: a small, versioned pipeline
//! benchmark whose JSON output (`BENCH_pipeline.json`, committed at the
//! repository root) is refreshed per change, so the performance
//! trajectory of the pipeline is tracked in-repo alongside the code.
//!
//! The suite is hand-timed (no criterion — that is a dev-dependency of
//! the bench binaries only) and deliberately tiny: a cold compile, a
//! warm cache-hit compile, a warm serve round trip, and the deduplicated
//! vs. undeduplicated whole-loop allocation pair that documents the
//! `best_phase2` reuse win.

use std::path::PathBuf;
use std::time::Instant;

use raco_core::{partition, Optimizer};
use raco_driver::json::Json;
use raco_driver::{Pipeline, PipelineConfig};
use raco_ir::{dsl, AguSpec, LoopSpec};
use raco_serve::Server;

/// Schema identifier stamped into every trajectory file.
pub const SCHEMA: &str = "raco-bench-trajectory";

/// Schema version stamped into every trajectory file.
pub const VERSION: u64 = 1;

/// File name of the committed trajectory report.
pub const FILE_NAME: &str = "BENCH_pipeline.json";

/// A three-tap stencil: the canonical warm-path workload.
const FIR_SOURCE: &str = "for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }";

/// A two-array loop on a modify-register machine: the workload where
/// `allocate_loop` used to re-run `best_phase2` at the granted register
/// count after `cost_curve` had already swept it.
const LOOP_SOURCE: &str =
    "for (i = 2; i < 64; i++) { y[i] = x[i-2] + x[i] + x[i+3] + y[i-1] + y[i-2]; }";

/// One measured benchmark: the median per-operation latency over
/// `samples` timed repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSample {
    /// Benchmark name (stable across versions of the trajectory file).
    pub name: &'static str,
    /// Unit of `value` (always microseconds today).
    pub unit: &'static str,
    /// Median per-operation latency.
    pub value: f64,
    /// Number of timed repetitions behind the median.
    pub samples: usize,
}

/// Times `inner` iterations of `f` per sample, `samples` times, and
/// returns the median per-operation latency in microseconds.
fn median_us(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                f();
            }
            start.elapsed().as_nanos() as f64 / inner as f64 / 1000.0
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn machine() -> AguSpec {
    AguSpec::new(4, 1).expect("valid machine")
}

fn loop_spec() -> LoopSpec {
    let mut specs = dsl::parse_program(LOOP_SOURCE).expect("benchmark source parses");
    specs.remove(0)
}

/// Runs the whole suite. `quick` cuts sample counts for CI smoke runs;
/// the measured medians are noisier but the schema and bench set are
/// identical.
pub fn run(quick: bool) -> Vec<BenchSample> {
    let (samples, inner) = if quick { (5, 4) } else { (20, 16) };
    let mut results = Vec::new();

    // Cold compile: a fresh pipeline (empty cache) per operation.
    let cold_samples = if quick { 3 } else { 10 };
    results.push(BenchSample {
        name: "pipeline_cold",
        unit: "us",
        value: median_us(cold_samples, 1, || {
            let pipeline = Pipeline::new(machine());
            pipeline
                .compile_str("bench", FIR_SOURCE)
                .expect("benchmark source compiles");
        }),
        samples: cold_samples,
    });

    // Warm compile: every allocation is a cache hit; this is the bench
    // the instrumentation-overhead budget (≤ 2 %) is judged on.
    let warm = Pipeline::new(machine());
    warm.compile_str("bench", FIR_SOURCE).expect("warms");
    results.push(BenchSample {
        name: "pipeline_warm",
        unit: "us",
        value: median_us(samples, inner, || {
            warm.compile_str("bench", FIR_SOURCE).expect("warm compile");
        }),
        samples,
    });

    // Warm serve round trip: request parse + warm compile + response
    // rendering through the loopback `handle_line`.
    let server = Server::new(PipelineConfig::new(machine()));
    let request = format!(r#"{{"op":"compile","source":"{FIR_SOURCE}"}}"#);
    server.handle_line(&request);
    results.push(BenchSample {
        name: "serve_warm_compile",
        unit: "us",
        value: median_us(samples, inner, || {
            server.handle_line(&request);
        }),
        samples,
    });

    // The dedup pair: whole-loop allocation on a modify-register
    // machine, after (reuse the cost-curve sweep's phase-2 reports) vs.
    // before (re-run best_phase2 at the granted register count).
    let optimizer = Optimizer::new(machine().with_modify_registers(2));
    let spec = loop_spec();
    results.push(BenchSample {
        name: "alloc_loop_dedup",
        unit: "us",
        value: median_us(samples, inner, || {
            optimizer.allocate_loop(&spec).expect("loop allocates");
        }),
        samples,
    });
    results.push(BenchSample {
        name: "alloc_loop_undeduped",
        unit: "us",
        value: median_us(samples, inner, || {
            undeduped_allocate_loop(&optimizer, &spec);
        }),
        samples,
    });

    results
}

/// The pre-dedup `allocate_loop` shape: sweep a full cost curve per
/// pattern, partition registers across arrays, then allocate each array
/// from scratch at its granted count — running phase 1 and the phase-2
/// modify-register sweep a second time per pattern.
fn undeduped_allocate_loop(optimizer: &Optimizer, spec: &LoopSpec) {
    let k = optimizer.agu().address_registers();
    let patterns = spec.patterns();
    let curves: Vec<Vec<u32>> = patterns
        .iter()
        .map(|p| optimizer.cost_curve(p, k))
        .collect();
    let assignment = partition::distribute_registers(&curves, k).expect("arity fits");
    for (pattern, &granted) in patterns.iter().zip(&assignment) {
        optimizer.allocate_with_registers(pattern, granted);
    }
}

/// Renders the trajectory report: schema header, free-form `label`
/// (e.g. a git revision or PR tag), and one entry per benchmark.
pub fn report_json(label: &str, benches: &[BenchSample]) -> Json {
    Json::Obj(vec![
        ("schema".to_owned(), Json::str(SCHEMA)),
        ("version".to_owned(), Json::UInt(VERSION)),
        ("label".to_owned(), Json::str(label)),
        (
            "benches".to_owned(),
            Json::Arr(
                benches
                    .iter()
                    .map(|b| {
                        Json::Obj(vec![
                            ("name".to_owned(), Json::str(b.name)),
                            ("unit".to_owned(), Json::str(b.unit)),
                            ("value".to_owned(), Json::Num(b.value)),
                            ("samples".to_owned(), Json::UInt(b.samples as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Where `raco bench-trajectory` writes without `-o`:
/// `BENCH_pipeline.json` in the current directory. Run from the
/// repository root, that is the committed trajectory file; a binary run
/// from another checkout writes into that checkout, never into the one
/// it was built in.
pub fn default_output_path() -> PathBuf {
    PathBuf::from(FILE_NAME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_matches_the_schema() {
        let benches = [BenchSample {
            name: "pipeline_warm",
            unit: "us",
            value: 123.5,
            samples: 20,
        }];
        let json = report_json("test", &benches);
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(json.get("version").and_then(Json::as_u64), Some(VERSION));
        assert_eq!(json.get("label").and_then(Json::as_str), Some("test"));
        let Some(Json::Arr(entries)) = json.get("benches") else {
            panic!("benches must be an array");
        };
        assert_eq!(entries.len(), 1);
        let entry = &entries[0];
        assert_eq!(
            entry.get("name").and_then(Json::as_str),
            Some("pipeline_warm")
        );
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some("us"));
        assert_eq!(entry.get("value"), Some(&Json::Num(123.5)));
        assert_eq!(entry.get("samples").and_then(Json::as_u64), Some(20));
        // The rendered line reparses losslessly (it is committed as a
        // file); small integers reparse as `Int`, so compare renders.
        let reparsed = Json::parse(&json.render()).unwrap();
        assert_eq!(reparsed.render(), json.render());
    }

    #[test]
    fn default_output_path_is_in_the_current_directory() {
        // Relative, so it resolves against the working directory at run
        // time, not a directory baked in when the binary was built.
        assert_eq!(default_output_path(), PathBuf::from(FILE_NAME));
    }

    #[test]
    fn undeduped_baseline_matches_the_deduped_allocation_cost() {
        // The baseline must be a faithful "before": same machine, same
        // granted registers, same final costs — only the redundant
        // recomputation differs.
        let optimizer = Optimizer::new(machine().with_modify_registers(2));
        let spec = loop_spec();
        let deduped = optimizer.allocate_loop(&spec).expect("loop allocates");
        let k = optimizer.agu().address_registers();
        let patterns = spec.patterns();
        let curves: Vec<Vec<u32>> = patterns
            .iter()
            .map(|p| optimizer.cost_curve(p, k))
            .collect();
        let assignment = partition::distribute_registers(&curves, k).expect("arity fits");
        let baseline_cost: u32 = patterns
            .iter()
            .zip(&assignment)
            .map(|(p, &granted)| optimizer.allocate_with_registers(p, granted).cost())
            .sum();
        assert_eq!(deduped.total_cost(), baseline_cost);
    }
}
