//! E2 — the worked example of Sections 2–3: Phase 1 (`K̃`), Phase 2
//! (merging) and the address code the pipeline generates and validates
//! with both oracles for the paper's running loop.

use raco_bench::table::Table;
use raco_core::{Optimizer, Phase1Outcome};
use raco_driver::PipelineConfig;
use raco_ir::{examples, AguSpec};

fn main() {
    let spec = examples::paper_loop();
    let pattern = &spec.patterns()[0];
    println!("E2 — worked example (paper Sections 2 and 3)\n");

    // Phase 1 exact K̃ with inter-iteration dependencies.
    let probe = Optimizer::new(AguSpec::new(8, 1).unwrap()).allocate(pattern);
    let phase1 = probe.phase1();
    println!(
        "phase 1: K̃ = {} (lower bound {}, {} B&B nodes, outcome {:?})",
        phase1.virtual_registers(),
        phase1.lower_bound(),
        phase1.nodes(),
        phase1.outcome()
    );
    assert_eq!(phase1.virtual_registers(), 3);
    assert!(matches!(
        phase1.outcome(),
        Phase1Outcome::ZeroCost {
            proved_minimal: true
        }
    ));
    for path in phase1.cover().paths() {
        println!("    register path {path}");
    }
    println!(
        "\nNote: the relaxed (intra-only) model of the paper's Figure 1 admits a\n2-path cover, but a_7 (offset -2) can only close its loop-carried wrap\nonto itself, so the steady-state K̃ is 3.\n"
    );

    // Register sweep K = 1..4.
    let mut table = Table::new(
        "Example loop: unit-cost address computations per iteration",
        &["K", "greedy cost", "optimal cost", "merges"],
    );
    for k in 1..=4usize {
        let agu = AguSpec::new(k, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate(pattern);
        let (optimal, _) = raco_core::exact::optimal_allocation(
            alloc.distance_model(),
            k,
            raco_core::CostModel::steady_state(),
        );
        table.push_row(vec![
            k.to_string(),
            alloc.cost().to_string(),
            optimal.to_string(),
            alloc.phase2().records().len().to_string(),
        ]);
    }
    table.emit("e2_example_sweep");

    // Code generation for K = 2 (one merge forced), validated by both
    // oracles over 64 iterations.
    let mut config = PipelineConfig::new(AguSpec::new(2, 1).unwrap());
    config.layout_origin = 0x100;
    config.array_words = 256;
    config.validation_iterations = 64;
    let (report, program) = raco_bench::compile_validated("paper_loop", config, &spec);
    println!("address code for K = 2 (cost {}):\n", report.cost);
    println!("{program}");
    println!(
        "simulated {} iterations, {} accesses checked, {} explicit update(s)/iteration ✓",
        report.addresses_checked / report.accesses as u64,
        report.addresses_checked,
        report.measured_cost.expect("validation is on")
    );
}
