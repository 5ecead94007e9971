//! E4 — realistic DSP kernels (Results ¶2): code-size and speed
//! improvements of optimized AGU addressing versus a regular C compiler's
//! explicit addressing. The paper (citing its ref \[1\]) reports
//! improvements of up to 30 % in code size and up to 60 % in speed.

use raco_bench::kernels_exp::compare_suite;
use raco_bench::table::{f1, Table};
use raco_ir::AguSpec;

fn main() {
    let iterations = 256;
    println!("E4 — kernel suite, optimized AGU vs explicit addressing ({iterations} iterations)\n");

    for k in [2usize, 4, 6] {
        let agu = AguSpec::new(k, 1).unwrap();
        let kernels = raco_kernels::suite()
            .iter()
            .filter(|kernel| kernel.spec().patterns().len() <= k);
        let rows = compare_suite(kernels, agu, iterations);

        let mut table = Table::new(
            &format!("Kernel comparison, K = {k}, M = 1"),
            &[
                "kernel",
                "acc",
                "ops",
                "explicit w",
                "chain w",
                "opt w",
                "explicit cyc",
                "chain cyc",
                "opt cyc",
                "size %",
                "speed %",
            ],
        );
        for r in &rows {
            table.push_row(vec![
                r.name.clone(),
                r.accesses.to_string(),
                r.compute.to_string(),
                r.explicit_words.to_string(),
                r.chain_words.to_string(),
                r.opt_words.to_string(),
                r.explicit_cycles.to_string(),
                r.chain_cycles.to_string(),
                r.opt_cycles.to_string(),
                f1(r.size_improvement_pct),
                f1(r.speed_improvement_pct),
            ]);
        }
        table.emit(&format!("e4_kernels_k{k}"));

        let max_size = rows
            .iter()
            .map(|r| r.size_improvement_pct)
            .fold(f64::NEG_INFINITY, f64::max);
        let max_speed = rows
            .iter()
            .map(|r| r.speed_improvement_pct)
            .fold(f64::NEG_INFINITY, f64::max);
        let mean_size: f64 =
            rows.iter().map(|r| r.size_improvement_pct).sum::<f64>() / rows.len() as f64;
        let mean_speed: f64 =
            rows.iter().map(|r| r.speed_improvement_pct).sum::<f64>() / rows.len() as f64;
        println!(
            "K = {k}: size improvement mean {mean_size:.1} % / max {max_size:.1} %, \
             speed improvement mean {mean_speed:.1} % / max {max_speed:.1} %"
        );
        println!("        (paper, citing ref [1]: up to 30 % code size, up to 60 % speed)\n");
    }
}
