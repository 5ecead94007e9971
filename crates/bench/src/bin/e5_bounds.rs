//! E5 — ablation of the Phase-1 machinery (paper Section 3.1): how tight
//! are the matching lower bound and the split-repair upper bound, and how
//! much branch-and-bound search effort remains between them.
//!
//! Usage: `e5_bounds [--samples N]` (default 100 per cell).

use raco_bench::stats::Summary;
use raco_bench::sweep::{sample_seed, CellKey};
use raco_bench::table::{f1, f2, Table};
use raco_core::random::{PatternGenerator, Spread};
use raco_graph::matching::MatchingCover;
use raco_graph::{bb, bounds, BbOptions, DistanceModel};

fn main() {
    let samples = raco_bench::samples_arg(100);
    println!("E5 — Phase-1 bounds and search effort ({samples} samples/cell)\n");

    let mut table = Table::new(
        "Matching LB vs heuristic UB vs exact K~ (random patterns, M = 1)",
        &[
            "N",
            "spread",
            "mean LB",
            "mean UB",
            "mean K~",
            "LB tight %",
            "UB tight %",
            "mean B&B nodes",
            "max nodes",
        ],
    );
    for spread in Spread::all() {
        for n in [8usize, 12, 16, 20, 24] {
            let generator = PatternGenerator::new(n).spread(spread, 1);
            let key = CellKey {
                n,
                m: 1,
                k: 1,
                spread,
            };
            let mut lbs = Vec::new();
            let mut ubs = Vec::new();
            let mut exacts = Vec::new();
            let mut nodes = Vec::new();
            let mut lb_tight = 0usize;
            let mut ub_tight = 0usize;
            for s in 0..samples {
                let pattern = generator.generate(sample_seed(0xB0_07ED, &key, s));
                let dm = DistanceModel::new(&pattern, 1);
                let matched = MatchingCover::new(&dm);
                let b = bounds::bounds(&dm, &matched);
                let (lower, upper) = (b.lower, b.upper_value());
                let result = bb::search(
                    &dm,
                    b,
                    BbOptions {
                        node_limit: 2_000_000,
                        memoize: true,
                    },
                );
                let exact = result
                    .cover
                    .expect("stride-1 patterns always admit singleton covers")
                    .register_count();
                lbs.push(lower as f64);
                exacts.push(exact as f64);
                nodes.push(result.nodes as f64);
                if lower == exact {
                    lb_tight += 1;
                }
                if let Some(ub) = upper {
                    ubs.push(ub as f64);
                    if ub == exact {
                        ub_tight += 1;
                    }
                }
            }
            let node_summary = Summary::of(&nodes);
            table.push_row(vec![
                n.to_string(),
                spread.name().into(),
                f2(Summary::of(&lbs).mean),
                f2(Summary::of(&ubs).mean),
                f2(Summary::of(&exacts).mean),
                f1(lb_tight as f64 / samples as f64 * 100.0),
                f1(ub_tight as f64 / samples as f64 * 100.0),
                f1(node_summary.mean),
                format!("{:.0}", node_summary.max),
            ]);
        }
    }
    table.emit("e5_bounds");
    println!(
        "Reading: when LB = UB the branch-and-bound is skipped entirely (0 nodes),\n\
         which is the paper's \"based on these bounds, one can quickly decide\" claim."
    );
}
