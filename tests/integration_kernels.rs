//! The whole kernel suite, across machines: allocate, emit, simulate,
//! and cross-check predictions against measurements.

use raco::agu::codegen::CodeGenerator;
use raco::agu::sim;
use raco::core::{CostModel, Optimizer};
use raco::graph::{DistanceModel, PathCover};
use raco::ir::{AguSpec, MemoryLayout, Trace};

fn verify_kernel(kernel: &raco::kernels::Kernel, agu: AguSpec, iterations: u64) -> u64 {
    let spec = kernel.spec();
    let alloc = Optimizer::new(agu)
        .allocate_loop(spec)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    let layout = MemoryLayout::contiguous(spec, 0x4000, 0x800);
    let program = CodeGenerator::new(agu)
        .generate(spec, &alloc, &layout)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    let trace = Trace::capture(spec, &layout, iterations);
    let report =
        sim::run(&program, &trace, &agu).unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    // The allocator prices the whole machine — modify registers
    // included — so prediction equals measurement everywhere.
    assert_eq!(
        report.explicit_updates_per_iteration(),
        u64::from(alloc.total_cost()),
        "{}: predicted vs measured on {agu}",
        kernel.name()
    );
    report.explicit_updates_per_iteration()
}

#[test]
fn suite_verifies_on_plain_machines() {
    for kernel in raco::kernels::suite() {
        for k in [2usize, 4, 8] {
            if kernel.spec().patterns().len() > k {
                continue;
            }
            let agu = AguSpec::new(k, 1).unwrap();
            verify_kernel(kernel, agu, 16);
        }
    }
}

#[test]
fn suite_verifies_with_modify_registers() {
    for kernel in raco::kernels::suite() {
        if kernel.spec().patterns().len() > 4 {
            continue;
        }
        let agu = AguSpec::new(4, 1).unwrap().with_modify_registers(2);
        verify_kernel(kernel, agu, 16);
    }
}

#[test]
fn more_registers_never_cost_more_on_kernels() {
    for kernel in raco::kernels::suite() {
        let arrays = kernel.spec().patterns().len();
        let mut last = u64::MAX;
        for k in [2usize, 3, 4, 6, 8] {
            if arrays > k {
                continue;
            }
            let cost = verify_kernel(kernel, AguSpec::new(k, 1).unwrap(), 8);
            assert!(
                cost <= last,
                "{}: K = {k} costs {cost} > previous {last}",
                kernel.name()
            );
            last = cost;
        }
    }
}

#[test]
fn optimizer_never_loses_to_naive_chaining() {
    for kernel in raco::kernels::suite() {
        let arrays = kernel.spec().patterns().len();
        let agu = AguSpec::new(arrays.max(2), 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(kernel.spec()).unwrap();
        let chain_cost: u32 = kernel
            .spec()
            .patterns()
            .iter()
            .map(|p| {
                let dm = DistanceModel::new(p, 1);
                CostModel::steady_state().cover_cost(&PathCover::single_chain(p.len()), &dm)
            })
            .sum();
        assert!(
            alloc.total_cost() <= chain_cost,
            "{}: optimized {} vs chain {}",
            kernel.name(),
            alloc.total_cost(),
            chain_cost
        );
    }
}

#[test]
fn presets_handle_the_suite() {
    for (name, agu) in [
        ("tms320c2x", AguSpec::new(8, 1).unwrap()),
        (
            "dsp56k",
            AguSpec::new(8, 1).unwrap().with_modify_registers(4),
        ),
        (
            "adsp210x",
            AguSpec::new(4, 1).unwrap().with_modify_registers(4),
        ),
    ] {
        let builtin = raco::ir::MachineDescription::builtin(name).unwrap();
        assert_eq!(builtin.spec(), &agu, "{name}");
        for kernel in raco::kernels::suite() {
            if kernel.spec().patterns().len() > agu.address_registers() {
                continue;
            }
            verify_kernel(kernel, agu, 8);
        }
    }
}

#[test]
fn fir_cost_structure_is_understood() {
    // The FIR delay line 0, -1, …, -(t-1) has K̃ = t (no pair closes its
    // wrap), but one register chaining everything pays exactly one update
    // per iteration — so cost is 1 whenever 1 <= K < K̃ + 1 registers are
    // available for x.
    for taps in [2usize, 4, 8] {
        let kernel = raco::kernels::fir(taps);
        let cost = verify_kernel(&kernel, AguSpec::new(2, 1).unwrap(), 12);
        assert_eq!(cost, 1, "fir_{taps} with K = 2");
        let generous = verify_kernel(&kernel, AguSpec::new(taps + 1, 1).unwrap(), 12);
        assert_eq!(generous, 0, "fir_{taps} with K = taps + 1");
    }
}
