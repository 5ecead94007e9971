//! End-to-end integration test: the complete paper walkthrough on the
//! running example of Section 2 / Figure 1.

use raco::agu::codegen::CodeGenerator;
use raco::agu::sim;
use raco::core::{exact, CostModel, Optimizer, Phase1Outcome};
use raco::graph::modify::{step_delta, steps};
use raco::graph::{AccessGraph, Path};
use raco::ir::{examples, AguSpec, MemoryLayout, Trace};

#[test]
fn figure1_edge_set_is_reproduced_exactly() {
    let spec = examples::paper_loop();
    let graph = AccessGraph::build(&spec.patterns()[0], 1);
    let expected: Vec<(usize, usize)> = vec![
        (0, 1),
        (0, 2),
        (0, 4),
        (0, 5),
        (1, 3),
        (1, 4),
        (1, 5),
        (2, 4),
        (3, 5),
        (3, 6),
        (4, 5),
    ];
    assert_eq!(graph.intra_edges(), expected.as_slice());
}

#[test]
fn section2_subsequence_is_a_zero_cost_path() {
    // "the access sub-sequence (a_1, a_3, a_5, a_6) … could be realized
    //  with a single register R and using only auto-increment and
    //  auto-decrement operations on R."
    let spec = examples::paper_loop();
    let graph = AccessGraph::build(&spec.patterns()[0], 1);
    let dm = graph.distance_model();
    let path = Path::new(vec![0, 2, 4, 5]).unwrap();
    assert_eq!(CostModel::paper_literal().paths_cost([(&path, dm)]), 0);
    let mut deltas: Vec<i64> = steps(path.indices())
        .map(|step| step_delta(dm, step))
        .collect();
    deltas.pop(); // the wrap into the next iteration
    for step in deltas {
        assert!(step.abs() <= 1, "step {step} must be auto-inc/dec");
    }
}

#[test]
fn phase1_proves_three_virtual_registers() {
    let spec = examples::paper_loop();
    let alloc = Optimizer::new(AguSpec::new(8, 1).unwrap()).allocate(&spec.patterns()[0]);
    assert_eq!(alloc.virtual_registers(), 3);
    assert_eq!(
        alloc.phase1().outcome(),
        Phase1Outcome::ZeroCost {
            proved_minimal: true
        }
    );
    assert_eq!(alloc.phase1().lower_bound(), 2);
    assert!(alloc.is_zero_cost());
    // a_7 is necessarily alone: only offset -2 wrap-closes onto -2.
    let a7 = alloc.cover().path_of(6).unwrap();
    assert_eq!(a7.indices(), &[6]);
}

#[test]
fn register_sweep_matches_the_exhaustive_oracle() {
    let spec = examples::paper_loop();
    let pattern = &spec.patterns()[0];
    for k in 1..=4usize {
        let alloc = Optimizer::new(AguSpec::new(k, 1).unwrap()).allocate(pattern);
        let (optimal, _) =
            exact::optimal_allocation(alloc.distance_model(), k, CostModel::steady_state());
        assert_eq!(
            alloc.cost(),
            optimal,
            "greedy must match the oracle on the paper example at K = {k}"
        );
    }
}

#[test]
fn each_merge_costs_at_least_one_unit() {
    // "each merge operation incurs at least one unit-cost address
    //  computation" — implied by the minimality of K̃.
    let spec = examples::paper_loop();
    let alloc = Optimizer::new(AguSpec::new(1, 1).unwrap()).allocate(&spec.patterns()[0]);
    let mut previous = 0;
    for record in alloc.phase2().records() {
        assert!(record.total_cost_after > previous);
        previous = record.total_cost_after;
    }
    assert_eq!(alloc.phase2().records().len(), 2); // K̃ - K = 3 - 1
}

#[test]
fn generated_code_executes_correctly_for_every_k() {
    let spec = examples::paper_loop();
    for k in 1..=4usize {
        let agu = AguSpec::new(k, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0x100, 64);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        let trace = Trace::capture(&spec, &layout, 50);
        let report = sim::run(&program, &trace, &agu).expect("verified run");
        assert_eq!(
            report.explicit_updates_per_iteration(),
            u64::from(alloc.total_cost()),
            "K = {k}: predicted cost must equal simulator-measured updates"
        );
        assert_eq!(report.accesses_checked(), 50 * 7);
    }
}

#[test]
fn merge_example_from_section_3_2() {
    // "merging paths P1 = (a_1, a_4, a_6) and P2 = (a_3, a_5) results in
    //  the path P1 ⊕ P2 = (a_1, a_3, a_4, a_5, a_6)."
    let p1 = Path::new(vec![0, 3, 5]).unwrap();
    let p2 = Path::new(vec![2, 4]).unwrap();
    assert_eq!(p1.merge(&p2).unwrap().indices(), &[0, 2, 3, 4, 5]);
}
