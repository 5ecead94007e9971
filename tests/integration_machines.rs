//! The two description-only backends — `bwdsp` (clustered VLIW with
//! post-increment-only MAC addressing, two-cycle pointer loads) and
//! `saris` (stream-register machine: no free auto-modify at all, every
//! stride through a stream/modify register) — through the full
//! toolchain: every kernel compiles with predicted == measured under
//! both validation oracles, the three nested kernels pin byte-identical
//! golden listings, and a corrupted post-modify / stream update is
//! caught by a *named* checker invariant per description. On all six
//! built-ins, a seeded pattern set pins every cost curve and every
//! Phase-2 report byte for byte (`tests/fixtures/phase2_reports.txt`),
//! and two seeded pattern sets pin every Phase-1 report — cover,
//! outcome, lower bound and search nodes
//! (`tests/fixtures/phase1_reports.txt`).

use raco::agu::codegen::CodeGenerator;
use raco::agu::isa::{AddressInstr, AddressProgram, Update};
use raco::agu::sim;
use raco::check;
use raco::core::random::PatternGenerator;
use raco::core::{phase1, Optimizer};
use raco::driver::{Parallelism, Pipeline, PipelineConfig};
use raco::graph::{BbOptions, DistanceModel};
use raco::ir::{AccessPattern, AguSpec, LoopSpec, MachineDescription, MemoryLayout, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NEW_MACHINES: [&str; 2] = ["bwdsp", "saris"];

fn spec_for(machine: &str) -> AguSpec {
    *MachineDescription::builtin(machine)
        .unwrap_or_else(|| panic!("`{machine}` is a built-in"))
        .spec()
}

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn layout_for(spec: &LoopSpec) -> MemoryLayout {
    MemoryLayout::contiguous(spec, 0x1000, 0x400)
}

#[test]
fn new_backends_compile_every_kernel_with_predicted_equal_measured() {
    for machine in NEW_MACHINES {
        let mut config = PipelineConfig::new(spec_for(machine));
        config.parallelism = Parallelism::Sequential;
        let report = Pipeline::with_config(config).compile_kernels();
        assert_eq!(
            report.loop_count(),
            raco::kernels::suite().len(),
            "{machine}: one loop per kernel"
        );
        // `failed() == 0` means BOTH oracles (simulator replay and the
        // declarative checker) passed on every kernel — the pipeline
        // gates on the pair and reports disagreement as its own class.
        assert_eq!(report.failed(), 0, "{machine}:\n{}", report.render_table());
        for lr in report.loops() {
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
fn new_backends_pass_both_oracles_standalone() {
    // Same two oracles, driven directly (no pipeline) so a pipeline
    // wiring bug can't mask a backend bug.
    for machine in NEW_MACHINES {
        let agu = spec_for(machine);
        for kernel in raco::kernels::suite() {
            let spec = kernel.spec();
            let allocation = Optimizer::new(agu)
                .allocate_loop(spec)
                .unwrap_or_else(|e| panic!("{machine}/{}: {e:?}", kernel.name()));
            let layout = layout_for(spec);
            let program = CodeGenerator::new(agu)
                .generate(spec, &allocation, &layout)
                .unwrap_or_else(|e| panic!("{machine}/{}: {e:?}", kernel.name()));
            let iterations = match spec.nest() {
                Some(nest) => nest.total_iterations().clamp(1, 256),
                None => 16,
            };
            let trace = Trace::capture(spec, &layout, iterations);
            sim::run(&program, &trace, &agu)
                .unwrap_or_else(|e| panic!("{machine}/{}: simulator rejected: {e}", kernel.name()));
            let report = check::check_program(spec, &layout, &agu, &program, None);
            assert!(
                report.is_clean(),
                "{machine}/{}: checker rejected: {}",
                kernel.name(),
                report.summary()
            );
        }
    }
}

#[test]
fn new_backend_golden_listings_are_byte_identical() {
    for machine in NEW_MACHINES {
        let mut config = PipelineConfig::new(spec_for(machine));
        config.listings = true;
        config.parallelism = Parallelism::Sequential;
        let report = Pipeline::with_config(config).compile_kernels();
        assert_eq!(report.failed(), 0, "{machine}:\n{}", report.render_table());
        for lr in report.loops() {
            if !matches!(lr.name.as_str(), "conv2d" | "transpose" | "stencil5") {
                continue;
            }
            let expected = fixture(&format!("listing_{machine}_{}.txt", lr.name));
            let actual = lr.listing.as_deref().expect("listings requested");
            assert_eq!(
                actual, expected,
                "{machine}/{}: listing drifted from the golden fixture",
                lr.name
            );
        }
    }
}

#[test]
fn saris_listings_route_every_stride_through_stream_registers() {
    // The SARIS description has update range [0, 0]: NO free
    // auto-modify. A `USE *ARn+=d` with d != 0 in a saris listing would
    // mean the codegen ignored the description's range.
    let agu = spec_for("saris");
    for kernel in raco::kernels::suite() {
        let spec = kernel.spec();
        let allocation = Optimizer::new(agu).allocate_loop(spec).unwrap();
        let layout = layout_for(spec);
        let program = CodeGenerator::new(agu)
            .generate(spec, &allocation, &layout)
            .unwrap();
        for instr in program.body() {
            if let AddressInstr::Use {
                update: Update::Auto { delta },
                ..
            } = instr
            {
                assert_eq!(
                    *delta,
                    0,
                    "{}: saris must not auto-modify by {delta}",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn bwdsp_listings_never_use_free_decrements() {
    // The BWDSP description frees only post-increments ([0, 1]); a
    // free `-=` step would violate its update-range shape.
    let agu = spec_for("bwdsp");
    for kernel in raco::kernels::suite() {
        let spec = kernel.spec();
        let allocation = Optimizer::new(agu).allocate_loop(spec).unwrap();
        let layout = layout_for(spec);
        let program = CodeGenerator::new(agu)
            .generate(spec, &allocation, &layout)
            .unwrap();
        for instr in program.body() {
            if let AddressInstr::Use {
                update: Update::Auto { delta },
                ..
            } = instr
            {
                assert!(
                    (0..=1).contains(delta),
                    "{}: bwdsp auto-update {delta} outside [0, 1]",
                    kernel.name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Checker mutation tests per description: corrupting one post-modify
// (bwdsp) or one stream update (saris) must trip a *named* invariant.
// ---------------------------------------------------------------------

/// Rebuilds `program` with its cost table preserved — `AddressProgram::
/// new` defaults to unit costs, which would itself trip the checker's
/// cycle accounting on bwdsp/saris and mask the intended mutation.
fn rebuild(
    program: &AddressProgram,
    body: Vec<AddressInstr>,
    modify_values: Vec<i64>,
) -> AddressProgram {
    AddressProgram::new(
        program.prologue().to_vec(),
        body,
        program.address_registers(),
        modify_values,
    )
    .with_carries(program.carries().to_vec())
    .with_cost_table(program.cost_table())
}

/// bwdsp mutation: bump the first free post-increment out of the
/// machine's `[0, 1]` update range.
fn corrupt_post_modify(program: &AddressProgram) -> Option<AddressProgram> {
    let mut body = program.body().to_vec();
    let delta = body.iter_mut().find_map(|instr| match instr {
        AddressInstr::Use {
            update: Update::Auto { delta },
            ..
        } if *delta != 0 => Some(delta),
        _ => None,
    })?;
    *delta += 1;
    Some(rebuild(program, body, program.modify_values().to_vec()))
}

/// saris mutation: corrupt the value streamed through the first modify
/// register — every subsequent `+=Mn` step lands on the wrong address.
fn corrupt_stream_update(program: &AddressProgram) -> Option<AddressProgram> {
    let mut modify_values = program.modify_values().to_vec();
    let slot = modify_values.iter_mut().find(|v| **v != 0)?;
    *slot += 1;
    Some(rebuild(program, program.body().to_vec(), modify_values))
}

fn mutation_is_caught(machine: &str, corrupt: fn(&AddressProgram) -> Option<AddressProgram>) {
    let agu = spec_for(machine);
    let mut caught = 0usize;
    for kernel in raco::kernels::suite() {
        let spec = kernel.spec();
        let allocation = Optimizer::new(agu).allocate_loop(spec).unwrap();
        let layout = layout_for(spec);
        let program = CodeGenerator::new(agu)
            .generate(spec, &allocation, &layout)
            .unwrap();
        let Some(corrupted) = corrupt(&program) else {
            continue;
        };
        let report = check::check_program(spec, &layout, &agu, &corrupted, None);
        assert!(
            !report.is_clean(),
            "{machine}/{}: corrupted update slipped past the checker",
            kernel.name()
        );
        let named: Vec<&str> = report.violations().iter().map(|v| v.invariant).collect();
        assert!(
            named.iter().any(|invariant| matches!(
                *invariant,
                "free-updates-in-range"
                    | "delta-coverage"
                    | "steady-state-advance"
                    | "cycle-accounting"
            )),
            "{machine}/{}: unexpected invariants {named:?}",
            kernel.name()
        );
        caught += 1;
    }
    assert!(
        caught >= 5,
        "{machine}: only {caught} kernels had an update to corrupt"
    );
}

#[test]
fn corrupted_bwdsp_post_modify_trips_a_named_invariant() {
    mutation_is_caught("bwdsp", corrupt_post_modify);
}

#[test]
fn corrupted_saris_stream_update_trips_a_named_invariant() {
    mutation_is_caught("saris", corrupt_stream_update);
}

/// The seeded pattern set of the Phase-2 fixture: 1–12 accesses at
/// offsets −4..=4, strides 1, −1, 2 and 3 (2 and 3 leave no zero-cost
/// cover on unit-range machines, so Phase 1 falls back to relaxed covers).
fn phase2_fixture_patterns() -> Vec<(Vec<i64>, i64)> {
    let mut rng = SmallRng::seed_from_u64(26);
    (0..40)
        .map(|_| {
            let len = rng.gen_range(1..=12usize);
            let offsets = (0..len).map(|_| rng.gen_range(-4..=4i64)).collect();
            let stride = [1, -1, 2, 3][rng.gen_range(0..4usize)];
            (offsets, stride)
        })
        .collect()
}

/// Every (built-in machine, pattern) case: the cost curve for
/// `1..=K`, then for each `k` the allocation at `k` registers — its
/// cost, final cover, merge records (`paths before: merged lengths ->
/// merged path cost / total after`) and cost trajectory.
fn phase2_report_cases() -> String {
    let mut out = String::new();
    for &machine in MachineDescription::builtin_names() {
        let agu = spec_for(machine);
        let k_max = agu.address_registers();
        let optimizer = Optimizer::new(agu);
        for (offsets, stride) in phase2_fixture_patterns() {
            let pattern = AccessPattern::from_offsets(&offsets, stride);
            let curve = optimizer.cost_curve(&pattern, k_max);
            out.push_str(&format!(
                "{machine} {offsets:?} stride {stride}: curve {curve:?}\n"
            ));
            for k in 1..=k_max {
                let alloc = optimizer.allocate_with_registers(&pattern, k);
                let phase2 = alloc.phase2();
                let records: Vec<String> = phase2
                    .records()
                    .iter()
                    .map(|r| {
                        format!(
                            "{}:{}+{}->{}/{}",
                            r.paths_before,
                            r.merged_lengths.0,
                            r.merged_lengths.1,
                            r.merged_path_cost,
                            r.total_cost_after
                        )
                    })
                    .collect();
                out.push_str(&format!(
                    "  k={k} cost {} cover {} records [{}] trajectory {:?}\n",
                    alloc.cost(),
                    alloc.cover(),
                    records.join(" "),
                    phase2.cost_trajectory()
                ));
            }
        }
    }
    out
}

#[test]
fn phase2_reports_match_the_golden_fixture() {
    let expected = fixture("phase2_reports.txt");
    let actual = phase2_report_cases();
    if let Some((line, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!("line {}: expected\n  {want}\ngot\n  {got}", line + 1);
    }
    assert_eq!(actual, expected, "Phase-2 reports drifted from the fixture");
}

/// The pattern sets of the Phase-1 fixture, stride 1: the 300 patterns
/// of the ROADMAP's Table 1 (`PatternGenerator::new(1 + s % 12)`, offsets
/// −8..=8, seed `s`), then 60 seeded patterns shaped like a
/// `batch_cold` loop's one-dimensional arrays (1–12 accesses at offsets
/// −6..=6).
fn phase1_fixture_patterns() -> Vec<Vec<i64>> {
    let table1 = (0..300u64).map(|s| {
        PatternGenerator::new(1 + s as usize % 12)
            .offset_span(8)
            .generate_offsets(s)
    });
    let mut rng = SmallRng::seed_from_u64(33);
    let batch_cold: Vec<Vec<i64>> = (0..60)
        .map(|_| {
            let len = rng.gen_range(1..=12usize);
            (0..len).map(|_| rng.gen_range(-6..=6i64)).collect()
        })
        .collect();
    table1.chain(batch_cold).collect()
}

/// Every (built-in machine, pattern) case's Phase-1 report — cover,
/// outcome, lower bound and nodes — under the default search options,
/// then under a 12-node budget and without the dominance memo, which
/// pin the order in which the search explores.
fn phase1_report_cases() -> String {
    let budgets = [
        ("default", BbOptions::default()),
        (
            "12 nodes",
            BbOptions {
                node_limit: 12,
                memoize: true,
            },
        ),
        (
            "no memo",
            BbOptions {
                memoize: false,
                ..BbOptions::default()
            },
        ),
    ];
    let mut out = String::new();
    for (label, options) in budgets {
        for &machine in MachineDescription::builtin_names() {
            let range = spec_for(machine).update_range();
            for offsets in phase1_fixture_patterns() {
                let dm = DistanceModel::from_offsets_range(&offsets, 1, range);
                let report = phase1::run(&dm, options);
                out.push_str(&format!(
                    "{label} {machine} {offsets:?}: cover {} {:?} lower {} nodes {}\n",
                    report.cover(),
                    report.outcome(),
                    report.lower_bound(),
                    report.nodes()
                ));
            }
        }
    }
    out
}

#[test]
fn phase1_reports_match_the_golden_fixture() {
    let expected = fixture("phase1_reports.txt");
    let actual = phase1_report_cases();
    if let Some((line, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!("line {}: expected\n  {want}\ngot\n  {got}", line + 1);
    }
    assert_eq!(actual, expected, "Phase-1 reports drifted from the fixture");
}
