//! Integration tests of the batch compilation driver: every kernel
//! through the pipeline with trace validation, agreement with the
//! direct allocator on every built-in machine, warm-cache and
//! fresh-pipeline agreement, multi-unit batches, JSON/table rendering
//! and the kernel batch workload.

use raco::agu::codegen::CodeGenerator;
use raco::agu::sim;
use raco::core::Optimizer;
use raco::driver::{Parallelism, Pipeline, PipelineConfig};
use raco::ir::{AguSpec, MachineDescription, MemoryLayout, Trace};

fn pipeline_with(k: usize, m: u32, sequential: bool) -> Pipeline {
    let mut config = PipelineConfig::new(AguSpec::new(k, m).unwrap());
    if sequential {
        config.parallelism = Parallelism::Sequential;
    }
    Pipeline::with_config(config)
}

#[test]
fn every_kernel_compiles_and_its_trace_matches_the_reference() {
    let pipeline = pipeline_with(4, 1, false);
    let report = pipeline.compile_kernels();
    assert_eq!(
        report.loop_count(),
        raco::kernels::suite().len(),
        "one loop per kernel"
    );
    assert_eq!(report.failed(), 0, "table:\n{}", report.render_table());
    let suite = raco::kernels::suite();
    for lr in report.loops() {
        // The pipeline simulated every generated program against the
        // raco_ir::trace reference; a cost or address mismatch would
        // have been recorded as a failure.
        let measured = lr.measured_cost.expect("validation enabled");
        assert_eq!(measured, lr.cost, "{}: measured == predicted", lr.name);
        // Plain loops simulate the configured 16 iterations; flattened
        // nests simulate their whole (finite) iteration space.
        let kernel = suite.iter().find(|k| k.name() == lr.name).unwrap();
        let iterations = match kernel.spec().nest() {
            Some(nest) => nest
                .total_iterations()
                .clamp(1, raco::driver::NEST_VALIDATION_CAP),
            None => 16,
        };
        assert_eq!(
            lr.addresses_checked,
            iterations * lr.accesses as u64,
            "{}: every access of every simulated iteration checked",
            lr.name
        );
    }
}

#[test]
fn pipeline_programs_equal_directly_generated_programs() {
    // On every built-in machine, the pipeline's kernel batch — cold,
    // then warm on the same cache — must generate byte-identical
    // programs to the direct Optimizer::allocate_loop + CodeGenerator
    // path, which consults no cache.
    let suite = raco::kernels::suite();
    for &machine in MachineDescription::builtin_names() {
        let agu = *MachineDescription::builtin(machine).unwrap().spec();
        let mut config = PipelineConfig::new(agu);
        config.parallelism = Parallelism::Sequential;
        config.listings = true;
        let optimizer = Optimizer::with_options(agu, config.effective_options());
        let pipeline = Pipeline::with_config(config);
        for pass in ["cold", "warm"] {
            let misses = pipeline.cache_stats().allocation_misses;
            let report = pipeline.compile_kernels();
            if pass == "warm" {
                assert_eq!(
                    report.cache.allocation_misses, misses,
                    "{machine}: the warm pass is all hits"
                );
            }
            assert_eq!(report.loop_count(), suite.len(), "{machine}/{pass}");
            for (kernel, lr) in suite.iter().zip(report.loops()) {
                let name = kernel.name();
                assert_eq!(lr.name, name, "{machine}/{pass}");
                assert!(lr.succeeded(), "{machine}/{pass}/{name}: {:?}", lr.failure);
                let direct_alloc = optimizer
                    .allocate_loop(kernel.spec())
                    .expect("kernels fit the machine");
                let layout = MemoryLayout::contiguous(kernel.spec(), 0x1000, 0x400);
                let direct = CodeGenerator::new(agu)
                    .generate(kernel.spec(), &direct_alloc, &layout)
                    .expect("codegen succeeds");
                assert_eq!(
                    lr.listing.as_deref(),
                    Some(direct.to_string().as_str()),
                    "{machine}/{pass}/{name}: pipeline and direct path diverge"
                );
                // And the program verifies against an independently
                // captured, longer trace than the pipeline used.
                let trace = Trace::capture(kernel.spec(), &layout, 40);
                let sim_report = sim::run(&direct, &trace, &agu).expect("verifies");
                assert_eq!(
                    sim_report.explicit_updates_per_iteration(),
                    lr.cost,
                    "{machine}/{pass}/{name}"
                );
            }
        }
    }
}

#[test]
fn cache_on_and_off_produce_identical_reports() {
    // Served from a warm cache (on) or computed fresh on a pipeline
    // whose cache holds nothing yet (off), every loop report is the
    // same, and its cost is the memo-less Optimizer::allocate_loop's.
    let warm = pipeline_with(4, 1, true);
    warm.compile_kernels();
    let misses = warm.cache_stats().allocation_misses;
    let cached = warm.compile_kernels();
    assert_eq!(
        cached.cache.allocation_misses, misses,
        "the second batch is served from the cache"
    );
    let fresh = pipeline_with(4, 1, true).compile_kernels();
    assert!(
        fresh.cache.allocation_misses > 0,
        "the fresh pipeline computes its allocations"
    );
    assert_eq!(cached.loop_count(), fresh.loop_count());
    for (a, b) in cached.loops().zip(fresh.loops()) {
        assert_eq!(a, b, "loop {} diverges between cache modes", a.name);
    }
    let optimizer = Optimizer::new(AguSpec::new(4, 1).unwrap());
    for (kernel, lr) in raco::kernels::suite().iter().zip(cached.loops()) {
        let direct = optimizer
            .allocate_loop(kernel.spec())
            .expect("kernels fit the machine");
        assert_eq!(lr.cost, u64::from(direct.total_cost()), "{}", kernel.name());
    }
}

#[test]
fn repeated_kernel_batches_become_pure_cache_hits() {
    let pipeline = pipeline_with(4, 1, false);
    let first = pipeline.compile_kernels();
    let misses_after_first = first.cache.allocation_misses + first.cache.curve_misses;
    let second = pipeline.compile_kernels();
    let misses_after_second = second.cache.allocation_misses + second.cache.curve_misses;
    assert_eq!(
        misses_after_first, misses_after_second,
        "a repeated batch must not miss"
    );
    assert!(
        second.cache.allocation_hits > first.cache.allocation_hits,
        "second batch hits the allocation table"
    );
    for (a, b) in first.loops().zip(second.loops()) {
        assert_eq!(a, b, "warm results match cold results");
    }
}

#[test]
fn multi_unit_batches_keep_unit_attribution() {
    let units = vec![
        (
            "fir.dsp".to_owned(),
            "for (i = 4; i < 256; i++) { y[i] = h0*x[i] + h1*x[i-1] + h2*x[i-2]; }".to_owned(),
        ),
        (
            "stages.dsp".to_owned(),
            "for (i = 0; i < 64; i++) { t[i] = x[i] * w[63 - i]; }
             for (k = 64; k > 0; k--) { y[k] = t[k] + t[k - 1]; }"
                .to_owned(),
        ),
    ];
    let report = pipeline_with(4, 1, false).compile_units(&units).unwrap();
    assert_eq!(report.units.len(), 2);
    assert_eq!(report.units[0].name, "fir.dsp");
    assert_eq!(report.units[0].loops.len(), 1);
    assert_eq!(report.units[1].loops.len(), 2);
    assert_eq!(report.units[1].loops[0].name, "loop0");
    assert_eq!(report.failed(), 0);

    let json = report.to_json();
    assert!(json.contains(r#""name": "stages.dsp""#));
    assert!(json.contains(r#""loops": 3"#));
    let table = report.render_table();
    assert!(table.contains("fir.dsp"));
    assert!(table.contains("3 loop(s) in 2 unit(s): 3 ok, 0 failed"));
}

#[test]
fn the_paper_example_reports_the_expected_allocation() {
    // K = 2 on the paper's loop: K̃ = 3, so exactly one merge and a
    // positive cost; the simulator must agree with the prediction.
    let report = pipeline_with(2, 1, true)
        .compile_str("paper", raco::ir::examples::PAPER_LOOP_SOURCE)
        .unwrap();
    let lr = &report.units[0].loops[0];
    assert!(lr.succeeded());
    assert_eq!(lr.virtual_registers, 3);
    assert_eq!(lr.registers_used, 2);
    assert!(lr.cost >= 1);
    assert_eq!(lr.measured_cost, Some(lr.cost));
}

#[test]
fn parallel_and_sequential_batches_agree() {
    let source = raco::kernels::suite_program();
    let sequential = pipeline_with(4, 1, true)
        .compile_str("suite", &source)
        .unwrap();
    let parallel = pipeline_with(4, 1, false)
        .compile_str("suite", &source)
        .unwrap();
    assert_eq!(sequential.loop_count(), parallel.loop_count());
    for (a, b) in sequential.loops().zip(parallel.loops()) {
        assert_eq!(a, b, "scheduling must not change results");
    }
}

#[test]
fn modify_register_machines_validate_with_bounded_cost() {
    let mut config = PipelineConfig::new(AguSpec::new(2, 1).unwrap().with_modify_registers(1));
    config.parallelism = Parallelism::Sequential;
    let report = Pipeline::with_config(config)
        .compile_str(
            "matmul",
            "for (i = 0; i < 8; i++) { acc += a[i] * b[8 * i]; }",
        )
        .unwrap();
    let lr = &report.units[0].loops[0];
    assert!(lr.succeeded(), "{:?}", lr.failure);
    // The modify register absorbs the +8 stride at codegen time, so
    // the measurement may undercut the allocator's prediction.
    assert!(lr.measured_cost.unwrap() <= lr.cost);
}

// ---------------------------------------------------------------------
// Backward-compat pin: the classic machines re-expressed as declarative
// descriptions must reproduce the pre-refactor toolchain byte for byte.
// The fixtures under `tests/fixtures/` were captured from the seed
// (knob-configured) build: per-machine listings for three nested
// kernels, the full kernel cost table, and the canonical patterns the
// cache keys on.
// ---------------------------------------------------------------------

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The four machines the seed supported via numeric knobs, now looked
/// up as built-in descriptions.
const CLASSIC_MACHINES: [&str; 4] = ["paper", "tms320c2x", "dsp56k", "adsp210x"];

fn kernel_report_for(machine: &str) -> raco::driver::CompilationReport {
    let spec = *raco::ir::MachineDescription::builtin(machine)
        .unwrap_or_else(|| panic!("`{machine}` is a built-in"))
        .spec();
    let mut config = PipelineConfig::new(spec);
    config.listings = true;
    config.parallelism = Parallelism::Sequential;
    Pipeline::with_config(config).compile_kernels()
}

#[test]
fn classic_descriptions_reproduce_seed_listings_byte_identically() {
    for machine in CLASSIC_MACHINES {
        let report = kernel_report_for(machine);
        assert_eq!(report.failed(), 0, "{machine}:\n{}", report.render_table());
        for lr in report.loops() {
            if !matches!(lr.name.as_str(), "conv2d" | "transpose" | "stencil5") {
                continue;
            }
            let expected = fixture(&format!("listing_{machine}_{}.txt", lr.name));
            let actual = lr.listing.as_deref().expect("listings requested");
            assert_eq!(
                actual, expected,
                "{machine}/{}: listing drifted from the seed capture",
                lr.name
            );
        }
    }
}

#[test]
fn classic_descriptions_reproduce_seed_kernel_costs() {
    let mut pinned = std::collections::BTreeMap::new();
    for line in fixture("kernel_costs_classic.txt").lines() {
        let mut parts = line.split_whitespace();
        let machine = parts.next().expect("machine").to_owned();
        let kernel = parts.next().expect("kernel").to_owned();
        let cost: u64 = parts.next().expect("cost").parse().expect("numeric cost");
        pinned.insert((machine, kernel), cost);
    }
    assert_eq!(
        pinned.len(),
        CLASSIC_MACHINES.len() * raco::kernels::suite().len()
    );
    for machine in CLASSIC_MACHINES {
        let report = kernel_report_for(machine);
        for lr in report.loops() {
            let key = (machine.to_owned(), lr.name.clone());
            assert_eq!(
                Some(&lr.cost),
                pinned.get(&key),
                "{machine}/{}: cost drifted from the seed capture",
                lr.name
            );
            assert_eq!(
                lr.measured_cost,
                Some(lr.cost),
                "{machine}/{}: predicted != measured",
                lr.name
            );
        }
    }
}

#[test]
fn canonical_forms_match_the_seed_capture() {
    // The allocation cache and snapshots key on these canonical forms;
    // a drift would silently invalidate every persisted snapshot.
    let mut actual = String::new();
    for kernel in raco::kernels::suite() {
        for pattern in kernel.spec().patterns() {
            let canonical = raco::ir::CanonicalPattern::of(&pattern);
            actual.push_str(&format!(
                "CF {} {} {canonical}\n",
                kernel.name(),
                pattern.array_name(),
            ));
        }
    }
    assert_eq!(
        actual,
        fixture("canonical_forms.txt"),
        "canonical cache keys drifted from the seed capture"
    );
}
