//! E1 — reproduces **Figure 1** of the paper: the graph model of the
//! example loop (Section 2).
//!
//! Prints the annotated access listing, the exact intra-iteration edge
//! set (verified against the hand-derived edge list from the paper's
//! figure), the inter-iteration edges our model adds, and a Graphviz DOT
//! rendering written to `target/experiments/figure1.dot`.

use raco_bench::table::Table;
use raco_graph::modify::{step_delta, steps};
use raco_graph::AccessGraph;
use raco_ir::{examples, pretty};

fn main() {
    let spec = examples::paper_loop();
    println!("E1 — Figure 1: graph model for the example loop\n");
    println!("{}", pretty::print_access_listing(&spec));

    let pattern = &spec.patterns()[0];
    let graph = AccessGraph::build(pattern, 1);

    // The intra-iteration edge set of Figure 1, derived by hand from the
    // offsets (1, 0, 2, -1, 1, 0, -2) and M = 1.
    let expected: &[(usize, usize)] = &[
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
    assert_eq!(
        graph.intra_edges(),
        expected,
        "the generated graph must match Figure 1 exactly"
    );
    println!(
        "graph: {} nodes, {} intra-iteration edges (matches Figure 1), {} inter-iteration edges\n",
        graph.node_count(),
        graph.intra_edges().len(),
        graph.inter_edges().len()
    );

    let mut table = Table::new(
        "Figure 1 — zero-cost edges (M = 1)",
        &["edge", "kind", "offsets", "distance"],
    );
    let dm = graph.distance_model();
    for &(i, j) in graph.intra_edges() {
        table.push_row(vec![
            format!("a_{} -> a_{}", i + 1, j + 1),
            "intra".into(),
            format!("{} -> {}", dm.offset(i), dm.offset(j)),
            dm.intra_distance(i, j).to_string(),
        ]);
    }
    for &(i, j) in graph.inter_edges() {
        table.push_row(vec![
            format!("a_{} -> a_{}'", i + 1, j + 1),
            "inter".into(),
            format!("{} -> {}", dm.offset(i), dm.offset(j)),
            dm.wrap_distance(i, j).to_string(),
        ]);
    }
    table.emit("e1_figure1_edges");

    // The paper's example path (a_1, a_3, a_5, a_6) is zero-cost.
    let path = raco_graph::Path::new(vec![0, 2, 4, 5]).unwrap();
    let mut deltas: Vec<i64> = steps(path.indices()).map(|s| step_delta(dm, s)).collect();
    deltas.pop(); // the wrap into the next iteration
    println!("paper path {path} : intra steps {deltas:?} — all within M = 1 ✓");

    let dot = graph.to_dot();
    let dot_path = raco_bench::experiments_dir().join("figure1.dot");
    std::fs::write(&dot_path, &dot).expect("write DOT");
    println!("\nDOT rendering written to {}", dot_path.display());
    println!("\n{dot}");
}
