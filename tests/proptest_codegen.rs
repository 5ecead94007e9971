//! Property-based end-to-end validation: random loops are lowered,
//! allocated, compiled to address code and simulated; the simulator is
//! the judge.

use proptest::prelude::*;

use raco::agu::codegen::CodeGenerator;
use raco::agu::sim;
use raco::core::Optimizer;
use raco::ir::{AccessKind, AguSpec, LoopSpec, MemoryLayout, Trace};

/// Strategy: a random loop over 1–3 arrays with random offsets, kinds,
/// coefficients and stride.
fn random_loop() -> impl Strategy<Value = LoopSpec> {
    let arrays = prop::collection::vec(
        (prop_oneof![Just(0i64), Just(1i64), Just(2i64), Just(-1i64)],),
        1..=3,
    );
    let accesses = prop::collection::vec((0usize..3, -5i64..=5, prop::bool::ANY), 1..=12);
    let stride = prop_oneof![Just(1i64), Just(-1i64), Just(2i64)];
    let start = -4i64..=4;
    (arrays, accesses, stride, start).prop_map(|(arrays, accesses, stride, start)| {
        let mut spec = LoopSpec::new("prop", "i", stride);
        spec.set_start(start);
        let ids: Vec<_> = arrays
            .iter()
            .enumerate()
            .map(|(idx, (coeff,))| spec.add_array(&format!("arr{idx}"), *coeff))
            .collect();
        for (which, offset, write) in accesses {
            let id = ids[which % ids.len()];
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            spec.push_access(id, offset, kind).expect("known array");
        }
        spec
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_loops_compile_and_verify(
        spec in random_loop(),
        k in 3usize..=6,
        m in 1u32..=2,
        iterations in 1u64..=12,
    ) {
        let agu = AguSpec::new(k, m).unwrap();
        let arrays_used = spec.patterns().len();
        if arrays_used == 0 || arrays_used > k {
            return Ok(());
        }
        let alloc = Optimizer::new(agu).allocate_loop(&spec).expect("fits");
        let layout = MemoryLayout::contiguous(&spec, 0x1000, 0x100);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .expect("emits");
        let trace = Trace::capture(&spec, &layout, iterations);
        let report = sim::run(&program, &trace, &agu).expect("verifies");
        prop_assert_eq!(
            report.explicit_updates_per_iteration(),
            u64::from(alloc.total_cost())
        );
        prop_assert_eq!(report.accesses_checked(), iterations * spec.len() as u64);
    }

    #[test]
    fn modify_registers_never_hurt(
        spec in random_loop(),
        mr in 1usize..=3,
    ) {
        let plain = AguSpec::new(6, 1).unwrap();
        let with_mr = AguSpec::new(6, 1).unwrap().with_modify_registers(mr);
        let arrays_used = spec.patterns().len();
        if arrays_used == 0 || arrays_used > 6 {
            return Ok(());
        }
        let alloc = Optimizer::new(plain).allocate_loop(&spec).expect("fits");
        let layout = MemoryLayout::contiguous(&spec, 0x1000, 0x100);
        let trace = Trace::capture(&spec, &layout, 8);

        let p_plain = CodeGenerator::new(plain)
            .generate(&spec, &alloc, &layout)
            .expect("emits");
        let p_mr = CodeGenerator::new(with_mr)
            .generate(&spec, &alloc, &layout)
            .expect("emits");
        let r_plain = sim::run(&p_plain, &trace, &plain).expect("verifies");
        let r_mr = sim::run(&p_mr, &trace, &with_mr).expect("verifies");
        prop_assert!(
            r_mr.explicit_updates_per_iteration()
                <= r_plain.explicit_updates_per_iteration()
        );
    }

    #[test]
    fn corrupted_layout_is_always_caught(
        spec in random_loop(),
        delta in 1i64..=64,
    ) {
        // Generate code against one layout, simulate against a shifted
        // trace: the simulator must detect the mismatch on loops that
        // actually access memory.
        let agu = AguSpec::new(6, 1).unwrap();
        let arrays_used = spec.patterns().len();
        if arrays_used == 0 || arrays_used > 6 {
            return Ok(());
        }
        let alloc = Optimizer::new(agu).allocate_loop(&spec).expect("fits");
        let layout = MemoryLayout::contiguous(&spec, 0x1000, 0x100);
        let shifted = MemoryLayout::contiguous(&spec, 0x1000 + delta, 0x100);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .expect("emits");
        let trace = Trace::capture(&spec, &shifted, 4);
        prop_assert!(sim::run(&program, &trace, &agu).is_err());
    }

    #[test]
    fn deoptimized_slack_programs_still_verify(
        spec in random_loop(),
        split in -2i64..=2,
    ) {
        // Take a correct generated program, de-optimize it in
        // semantics-preserving ways (free updates → explicit ADDAs, one
        // ADDA → two, stray ADDA 0s), and check the slack program still
        // verifies and never costs less than the generated one.
        use raco::agu::{AddressInstr, AddressProgram, Update};
        let agu = AguSpec::new(6, 1).unwrap();
        let arrays_used = spec.patterns().len();
        if arrays_used == 0 || arrays_used > 6 {
            return Ok(());
        }
        let alloc = Optimizer::new(agu).allocate_loop(&spec).expect("fits");
        let layout = MemoryLayout::contiguous(&spec, 0x1000, 0x100);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .expect("emits");

        let mut slack_body: Vec<AddressInstr> = Vec::new();
        for instr in program.body() {
            match *instr {
                AddressInstr::Use {
                    reg,
                    position,
                    update: Update::Auto { delta },
                } if delta != 0 => {
                    // Free update → USE + explicit ADDA (possibly split).
                    slack_body.push(AddressInstr::Use {
                        reg,
                        position,
                        update: Update::None,
                    });
                    if split != 0 && split != delta {
                        slack_body.push(AddressInstr::Adda { reg, delta: split });
                        slack_body.push(AddressInstr::Adda {
                            reg,
                            delta: delta - split,
                        });
                    } else {
                        slack_body.push(AddressInstr::Adda { reg, delta });
                    }
                    slack_body.push(AddressInstr::Adda { reg, delta: 0 });
                }
                other => slack_body.push(other),
            }
        }
        let slack = AddressProgram::new(
            program.prologue().to_vec(),
            slack_body,
            program.address_registers(),
            program.modify_values().to_vec(),
        );
        // A slack machine with a huge modify range would hide nothing;
        // verify against the true machine. The slack program's explicit
        // ADDAs are machine-independent, so it still runs on `agu`.
        let trace = Trace::capture(&spec, &layout, 6);
        let slack_report = sim::run(&slack, &trace, &agu).expect("slack verifies");
        prop_assert!(
            slack_report.explicit_updates_per_iteration() >= u64::from(alloc.total_cost())
        );
    }

    #[test]
    fn listings_are_parseable_text(spec in random_loop()) {
        let agu = AguSpec::new(6, 1).unwrap().with_modify_registers(1);
        let arrays_used = spec.patterns().len();
        if arrays_used == 0 || arrays_used > 6 {
            return Ok(());
        }
        let alloc = Optimizer::new(agu).allocate_loop(&spec).expect("fits");
        let layout = MemoryLayout::contiguous(&spec, 0, 0x100);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .expect("emits");
        let listing = program.to_string();
        prop_assert!(listing.contains("; prologue"));
        prop_assert!(listing.contains("; loop body"));
        // Every USE line names a register and an access label.
        for line in listing.lines().filter(|l| l.contains("USE")) {
            prop_assert!(line.contains("*AR"), "line: {line}");
            prop_assert!(line.contains("; a_"), "line: {line}");
        }
    }
}
