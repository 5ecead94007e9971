//! Two-oracle validation at the integration level.
//!
//! The pipeline validates every generated listing twice: operationally
//! (the simulator replays it against a captured access trace) and
//! declaratively (`raco-check` re-derives correctness from the listing
//! rows alone). These tests drive both oracles over the full kernel
//! suite and then mutation-test the declarative one: a deliberately
//! corrupted listing must be caught, the offending program shrunk, and
//! a minimal `.dsp` reproducer written — the same path `raco fuzz`
//! takes on a real failure.

use raco::agu::codegen::CodeGenerator;
use raco::agu::isa::{AddressInstr, AddressProgram, CarryBlock, MrId, RegId, Update};
use raco::agu::sim;
use raco::check;
use raco::core::Optimizer;
use raco::fuzz::{gen_unit, shrink_unit, write_failure, GenUnit};
use raco::ir::dsl;
use raco::ir::{AguSpec, CostTable, LoopSpec, MachineDescription, MemoryLayout, Trace};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The pipeline's layout defaults (`PipelineConfig::new`).
fn layout_for(spec: &LoopSpec) -> MemoryLayout {
    MemoryLayout::contiguous(spec, 0x1000, 0x400)
}

/// Compiles the loop, or `None` when the machine is too small for it
/// (e.g. a 3-array kernel on K = 2 — a legitimate allocation error,
/// not a listing bug).
fn compile(spec: &LoopSpec, agu: &AguSpec) -> Option<(MemoryLayout, AddressProgram)> {
    let allocation = Optimizer::new(*agu).allocate_loop(spec).ok()?;
    let layout = layout_for(spec);
    let program = CodeGenerator::new(*agu)
        .generate(spec, &allocation, &layout)
        .expect("kernel codegen succeeds");
    Some((layout, program))
}

fn simulate(
    spec: &LoopSpec,
    layout: &MemoryLayout,
    agu: &AguSpec,
    program: &AddressProgram,
) -> Result<(), String> {
    let iterations = match spec.nest() {
        Some(nest) => nest.total_iterations().clamp(1, 256),
        None => 16,
    };
    let trace = Trace::capture(spec, layout, iterations);
    sim::run(program, &trace, agu)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

#[test]
fn every_kernel_passes_both_oracles_across_machines() {
    let machines = [
        AguSpec::new(2, 1).unwrap(),
        AguSpec::new(4, 1).unwrap(),
        AguSpec::new(4, 2).unwrap().with_modify_registers(2),
        AguSpec::new(8, 0).unwrap().with_modify_registers(1),
    ];
    let suite = raco::kernels::suite();
    assert!(suite.len() >= 12, "kernel suite shrank to {}", suite.len());
    let mut combinations = 0usize;
    for kernel in suite {
        for agu in &machines {
            let spec = kernel.spec();
            let Some((layout, program)) = compile(spec, agu) else {
                continue;
            };
            combinations += 1;
            simulate(spec, &layout, agu, &program).unwrap_or_else(|e| {
                panic!(
                    "simulator rejected kernel `{}` on {agu:?}: {e}",
                    kernel.name()
                )
            });
            let report = check::check_program(spec, &layout, agu, &program, None);
            assert!(
                report.is_clean(),
                "checker rejected kernel `{}` on {agu:?}: {}",
                kernel.name(),
                report.summary()
            );
        }
    }
    assert!(
        combinations >= suite.len() * 2,
        "too few feasible kernel × machine combinations: {combinations}"
    );
}

#[test]
fn pipeline_rejects_nothing_on_the_clean_kernel_suite() {
    // The pipeline gates on BOTH oracles since the checker landed; a
    // clean suite means neither oracle fires and they never disagree.
    let report = raco::driver::Pipeline::new(AguSpec::new(4, 1).unwrap()).compile_kernels();
    assert_eq!(report.failed(), 0, "{}", report.render_table());
}

/// Corrupts the first auto-update of the body: the classic off-by-one
/// a buggy distance model would produce. Returns `None` for programs
/// with no auto-updating serve (nothing to corrupt).
fn corrupt_first_auto_update(program: &AddressProgram) -> Option<AddressProgram> {
    let mut body = program.body().to_vec();
    let target = body.iter_mut().find_map(|instr| match instr {
        AddressInstr::Use {
            update: Update::Auto { delta },
            ..
        } => Some(delta),
        _ => None,
    })?;
    *target += 1;
    Some(
        AddressProgram::new(
            program.prologue().to_vec(),
            body,
            program.address_registers(),
            program.modify_values().to_vec(),
        )
        .with_carries(program.carries().to_vec())
        .with_cost_table(program.cost_table()),
    )
}

#[test]
fn corrupted_auto_update_keeps_the_cost_table() {
    // Only the delta changes: a mutant priced under the unit table
    // would also trip `cycle-accounting` on non-unit machines.
    let mut non_unit_mutants = 0;
    for &machine in MachineDescription::builtin_names() {
        let agu = *MachineDescription::builtin(machine)
            .expect("built-in")
            .spec();
        for kernel in raco::kernels::suite() {
            let Some((_, program)) = compile(kernel.spec(), &agu) else {
                continue;
            };
            let Some(mutant) = corrupt_first_auto_update(&program) else {
                continue;
            };
            if !program.cost_table().is_unit() {
                non_unit_mutants += 1;
            }
            assert_eq!(
                mutant.cost_table(),
                program.cost_table(),
                "{machine}/{}",
                kernel.name()
            );
        }
    }
    assert!(
        non_unit_mutants > 0,
        "no non-unit built-in machine produced a mutant"
    );
}

/// The mutation predicate `raco fuzz` would shrink against: compile
/// the unit with the reference toolchain, corrupt the listing, and
/// report whether the declarative checker catches it.
fn mutated_unit_fails_checker(unit: &GenUnit, agu: &AguSpec) -> bool {
    let Ok(specs) = dsl::parse_program(&unit.render()) else {
        return false;
    };
    for spec in &specs {
        let Ok(allocation) = Optimizer::new(*agu).allocate_loop(spec) else {
            continue;
        };
        let layout = layout_for(spec);
        let Ok(program) = CodeGenerator::new(*agu).generate(spec, &allocation, &layout) else {
            continue;
        };
        let Some(corrupted) = corrupt_first_auto_update(&program) else {
            continue;
        };
        if !check::check_program(spec, &layout, agu, &corrupted, None).is_clean() {
            return true;
        }
    }
    false
}

#[test]
fn corrupted_listing_is_caught_shrunk_and_written_as_a_repro() {
    let agu = AguSpec::new(4, 1).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xbadc0de);
    // Find a generated unit whose corrupted listing the checker flags
    // (almost all of them: any program with an auto-updating serve).
    let unit = loop {
        let unit = gen_unit(&mut rng);
        if mutated_unit_fails_checker(&unit, &agu) {
            break unit;
        }
    };

    let minimal = shrink_unit(&unit, |u| mutated_unit_fails_checker(u, &agu), 400);
    assert!(
        mutated_unit_fails_checker(&minimal, &agu),
        "shrinking must preserve the failure"
    );
    assert_eq!(minimal.loops.len(), 1, "minimal repro keeps one loop");
    assert_eq!(
        minimal.loops[0].stmts.len(),
        1,
        "minimal repro keeps one statement"
    );

    // The fuzz failure path writes the shrunk source as a `.dsp` repro
    // with a JSON sidecar carrying the seed and request.
    let dir = std::env::temp_dir().join(format!("raco-check-mutation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let source = minimal.render();
    let path = write_failure(
        &dir,
        "checker-mutation",
        0xbadc0de,
        1,
        Some(&source),
        r#"{"op":"compile","name":"mutation"}"#,
        "corrupted auto-update caught by delta-coverage",
    )
    .unwrap();
    assert!(path.exists());
    let dsp = std::fs::read_to_string(&path).unwrap();
    assert!(dsp.contains("seed 0xbadc0de"));
    // The repro must itself be valid DSL (comments included).
    let reparsed = dsl::parse_program(&source).expect("repro parses");
    assert!(!reparsed.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checker_names_the_violated_invariant_for_a_corrupted_kernel() {
    let agu = AguSpec::new(4, 1).unwrap();
    let suite = raco::kernels::suite();
    let mut corrupted_any = false;
    for kernel in suite {
        let spec = kernel.spec();
        let (layout, program) = compile(spec, &agu).expect("K = 4 fits every kernel");
        let Some(corrupted) = corrupt_first_auto_update(&program) else {
            continue;
        };
        corrupted_any = true;
        let report = check::check_program(spec, &layout, &agu, &corrupted, None);
        assert!(
            !report.is_clean(),
            "kernel `{}`: corrupted listing slipped past the checker",
            kernel.name()
        );
        assert!(
            report
                .violations()
                .iter()
                .any(|v| v.invariant == "delta-coverage" || v.invariant == "steady-state-advance"),
            "kernel `{}`: unexpected invariants {:?}",
            kernel.name(),
            report
                .violations()
                .iter()
                .map(|v| v.invariant)
                .collect::<Vec<_>>()
        );
    }
    assert!(corrupted_any, "no kernel had an auto-update to corrupt");
}

// ---------------------------------------------------------------------
// Golden violation text
// ---------------------------------------------------------------------

/// Rebuilds `program` from new parts, keeping its cost table.
fn reassemble(
    program: &AddressProgram,
    prologue: Vec<AddressInstr>,
    body: Vec<AddressInstr>,
    carries: Vec<CarryBlock>,
) -> AddressProgram {
    AddressProgram::new(
        prologue,
        body,
        program.address_registers(),
        program.modify_values().to_vec(),
    )
    .with_carries(carries)
    .with_cost_table(program.cost_table())
}

fn with_prologue(program: &AddressProgram, prologue: Vec<AddressInstr>) -> AddressProgram {
    reassemble(
        program,
        prologue,
        program.body().to_vec(),
        program.carries().to_vec(),
    )
}

fn with_body(program: &AddressProgram, body: Vec<AddressInstr>) -> AddressProgram {
    reassemble(
        program,
        program.prologue().to_vec(),
        body,
        program.carries().to_vec(),
    )
}

fn with_carry_blocks(program: &AddressProgram, carries: Vec<CarryBlock>) -> AddressProgram {
    reassemble(
        program,
        program.prologue().to_vec(),
        program.body().to_vec(),
        carries,
    )
}

fn use_rows(program: &AddressProgram) -> Vec<usize> {
    program
        .body()
        .iter()
        .enumerate()
        .filter_map(|(i, instr)| matches!(instr, AddressInstr::Use { .. }).then_some(i))
        .collect()
}

/// Replaces the first body serve with `f(reg, position, update)`.
fn rewrite_first_serve(
    program: &AddressProgram,
    f: impl FnOnce(RegId, usize, Update) -> AddressInstr,
) -> Option<AddressProgram> {
    let mut body = program.body().to_vec();
    let row = body
        .iter_mut()
        .find(|instr| matches!(instr, AddressInstr::Use { .. }))?;
    if let AddressInstr::Use {
        reg,
        position,
        update,
    } = *row
    {
        *row = f(reg, position, update);
    }
    Some(with_body(program, body))
}

type Mutation = fn(&AddressProgram, &AguSpec) -> Option<AddressProgram>;

/// One mutation family per invariant (and per distinct message of it).
const MUTATIONS: &[(&str, Mutation)] = &[
    ("none", |p, _| Some(p.clone())),
    ("first-auto-update+1", |p, _| corrupt_first_auto_update(p)),
    ("declare-more-ars-than-machine", |p, agu| {
        Some(
            AddressProgram::new(
                p.prologue().to_vec(),
                p.body().to_vec(),
                agu.address_registers() + 1,
                p.modify_values().to_vec(),
            )
            .with_carries(p.carries().to_vec())
            .with_cost_table(p.cost_table()),
        )
    }),
    ("serve-from-undeclared-ar", |p, _| {
        let reg = RegId(u16::try_from(p.address_registers()).ok()?);
        rewrite_first_serve(p, |_, position, update| AddressInstr::Use {
            reg,
            position,
            update,
        })
    }),
    ("declare-more-mrs-than-machine", |p, agu| {
        let mut modify_values = p.modify_values().to_vec();
        let mut prologue = p.prologue().to_vec();
        while modify_values.len() <= agu.modify_registers() {
            let mr = MrId(u16::try_from(modify_values.len()).ok()?);
            prologue.push(AddressInstr::Ldm { mr, value: 1 });
            modify_values.push(1);
        }
        Some(
            AddressProgram::new(
                prologue,
                p.body().to_vec(),
                p.address_registers(),
                modify_values,
            )
            .with_carries(p.carries().to_vec())
            .with_cost_table(p.cost_table()),
        )
    }),
    ("ldm-undeclared-mr", |p, _| {
        let mr = MrId(u16::try_from(p.modify_values().len()).ok()?);
        let mut prologue = p.prologue().to_vec();
        prologue.push(AddressInstr::Ldm { mr, value: 1 });
        Some(with_prologue(p, prologue))
    }),
    ("adda-in-prologue", |p, _| {
        let mut prologue = p.prologue().to_vec();
        prologue.push(AddressInstr::Adda {
            reg: RegId(0),
            delta: 1,
        });
        Some(with_prologue(p, prologue))
    }),
    ("lda-twice-in-prologue", |p, _| {
        let first = *p
            .prologue()
            .iter()
            .find(|i| matches!(i, AddressInstr::Lda { .. }))?;
        let mut prologue = p.prologue().to_vec();
        prologue.push(first);
        Some(with_prologue(p, prologue))
    }),
    ("ldm-twice-in-prologue", |p, _| {
        let first = *p
            .prologue()
            .iter()
            .find(|i| matches!(i, AddressInstr::Ldm { .. }))?;
        let mut prologue = p.prologue().to_vec();
        prologue.push(first);
        Some(with_prologue(p, prologue))
    }),
    ("bump-first-lda", |p, _| {
        let mut prologue = p.prologue().to_vec();
        let address = prologue.iter_mut().find_map(|i| match i {
            AddressInstr::Lda { address, .. } => Some(address),
            _ => None,
        })?;
        *address += 1;
        Some(with_prologue(p, prologue))
    }),
    ("drop-first-lda", |p, _| {
        let mut prologue = p.prologue().to_vec();
        let row = prologue
            .iter()
            .position(|i| matches!(i, AddressInstr::Lda { .. }))?;
        prologue.remove(row);
        Some(with_prologue(p, prologue))
    }),
    ("bump-first-ldm", |p, _| {
        let mut prologue = p.prologue().to_vec();
        let value = prologue.iter_mut().find_map(|i| match i {
            AddressInstr::Ldm { value, .. } => Some(value),
            _ => None,
        })?;
        *value += 1;
        Some(with_prologue(p, prologue))
    }),
    ("drop-first-ldm", |p, _| {
        let mut prologue = p.prologue().to_vec();
        let row = prologue
            .iter()
            .position(|i| matches!(i, AddressInstr::Ldm { .. }))?;
        prologue.remove(row);
        Some(with_prologue(p, prologue))
    }),
    ("swap-first-two-serves", |p, _| {
        let rows = use_rows(p);
        let (&a, &b) = (rows.first()?, rows.get(1)?);
        let mut body = p.body().to_vec();
        body.swap(a, b);
        Some(with_body(p, body))
    }),
    ("drop-last-serve", |p, _| {
        let row = *use_rows(p).last()?;
        let mut body = p.body().to_vec();
        body.remove(row);
        Some(with_body(p, body))
    }),
    ("serve-position-past-the-loop", |p, _| {
        rewrite_first_serve(p, |reg, position, update| AddressInstr::Use {
            reg,
            position: position + 1000,
            update,
        })
    }),
    ("auto-update-past-the-range", |p, agu| {
        let delta = agu.update_range().max() + 1;
        rewrite_first_serve(p, |reg, position, _| AddressInstr::Use {
            reg,
            position,
            update: Update::Auto { delta },
        })
    }),
    ("drop-first-post-modify", |p, _| {
        let mut body = p.body().to_vec();
        let update = body.iter_mut().find_map(|i| match i {
            AddressInstr::Use { update, .. } if *update != Update::None => Some(update),
            _ => None,
        })?;
        *update = Update::None;
        Some(with_body(p, body))
    }),
    ("drop-first-body-adda", |p, _| {
        let mut body = p.body().to_vec();
        let row = body
            .iter()
            .position(|i| matches!(i, AddressInstr::Adda { .. }))?;
        body.remove(row);
        Some(with_body(p, body))
    }),
    ("adda-in-body", |p, _| {
        let mut body = p.body().to_vec();
        body.push(AddressInstr::Adda {
            reg: RegId(0),
            delta: 1,
        });
        Some(with_body(p, body))
    }),
    ("lda-in-body", |p, _| {
        let first = *p
            .prologue()
            .iter()
            .find(|i| matches!(i, AddressInstr::Lda { .. }))?;
        let mut body = p.body().to_vec();
        body.push(first);
        Some(with_body(p, body))
    }),
    ("ldm-in-body", |p, _| {
        let first = *p
            .prologue()
            .iter()
            .find(|i| matches!(i, AddressInstr::Ldm { .. }))?;
        let mut body = p.body().to_vec();
        body.push(first);
        Some(with_body(p, body))
    }),
    ("bump-first-carry-delta", |p, _| {
        let mut carries = p.carries().to_vec();
        let delta = carries
            .iter_mut()
            .flat_map(|block| block.instrs.iter_mut())
            .find_map(|i| match i {
                AddressInstr::Adda { delta, .. } => Some(delta),
                _ => None,
            })?;
        *delta += 1;
        Some(with_carry_blocks(p, carries))
    }),
    ("bump-first-carry-period", |p, _| {
        let mut carries = p.carries().to_vec();
        carries.first_mut()?.period += 1;
        Some(with_carry_blocks(p, carries))
    }),
    ("use-in-carry-block", |p, _| {
        let mut carries = p.carries().to_vec();
        let serve = *p
            .body()
            .iter()
            .find(|i| matches!(i, AddressInstr::Use { .. }))?;
        carries.first_mut()?.instrs.push(serve);
        Some(with_carry_blocks(p, carries))
    }),
    ("add-carry-block", |p, _| {
        let mut carries = p.carries().to_vec();
        carries.push(CarryBlock {
            period: 4,
            instrs: vec![AddressInstr::Adda {
                reg: RegId(0),
                delta: 1,
            }],
        });
        Some(with_carry_blocks(p, carries))
    }),
    ("foreign-cost-table", |p, _| {
        let costs = p.cost_table();
        let foreign = CostTable::new(costs.lda() + 1, costs.ldm(), costs.adda() + 1).ok()?;
        Some(p.clone().with_cost_table(foreign))
    }),
];

/// Every (built-in machine, kernel, mutation) case, one `CheckReport`
/// display per line. The display shows the first three violations;
/// any further violations follow on indented lines, so the whole
/// report is pinned in order. The checker gets the unmutated
/// program's cycles as the claimed cost, as the pipeline passes the
/// allocator's prediction.
fn violation_cases() -> String {
    let mut out = String::new();
    for &machine in MachineDescription::builtin_names() {
        let agu = *MachineDescription::builtin(machine)
            .expect("built-in")
            .spec();
        for kernel in raco::kernels::suite() {
            let spec = kernel.spec();
            let Some((layout, program)) = compile(spec, &agu) else {
                continue;
            };
            let claimed = Some(program.cycles_per_iteration());
            for (name, mutate) in MUTATIONS {
                let Some(mutated) = mutate(&program, &agu) else {
                    continue;
                };
                let report = check::check_program(spec, &layout, &agu, &mutated, claimed);
                out.push_str(&format!("{machine}/{}/{name}: {report}\n", kernel.name()));
                for violation in report.violations().iter().skip(3) {
                    out.push_str(&format!("    {violation}\n"));
                }
            }
        }
    }
    out
}

#[test]
fn checker_violation_text_matches_the_golden_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/check_violations.txt");
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let actual = violation_cases();
    if let Some((line, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!("line {}: expected\n  {want}\ngot\n  {got}", line + 1);
    }
    assert_eq!(actual, expected, "violation text drifted from the fixture");
    for invariant in check::INVARIANTS {
        assert!(
            expected.contains(&format!("{}: ", invariant.name)),
            "no case in the fixture trips `{}`",
            invariant.name
        );
    }
}
