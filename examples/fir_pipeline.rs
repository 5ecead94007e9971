//! The workload the paper's introduction motivates: an FIR filter whose
//! array addressing is moved entirely into the AGU.
//!
//! Compares three compilation models on an 8-tap FIR — explicit
//! addressing ("regular C compiler"), naive per-array chaining, and the
//! paper's two-phase allocation — then shows the optimized assembly,
//! compiled and validated by the pipeline.
//!
//! Run with: `cargo run --example fir_pipeline`

use raco::driver::PipelineConfig;
use raco::ir::AguSpec;
use raco_bench::compile_validated;
use raco_bench::kernels_exp::compare_kernel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = raco::kernels::fir(8);
    println!("kernel: {} — {}\n", kernel.name(), kernel.description());
    println!("{}\n", kernel.source());

    let iterations = 256;
    let agu = AguSpec::new(4, 1)?;
    let row = compare_kernel(&kernel, agu, iterations);
    println!(
        "{:<22} {:>12} {:>14}",
        "model", "code words", "total cycles"
    );
    for (name, words, cycles) in [
        (
            "explicit addressing",
            row.explicit_words,
            row.explicit_cycles,
        ),
        ("naive chaining", row.chain_words, row.chain_cycles),
        ("two-phase optimized", row.opt_words, row.opt_cycles),
    ] {
        println!("{name:<22} {words:>12} {cycles:>14}");
    }
    println!(
        "\noptimized vs explicit: code size -{:.1} %, speed -{:.1} %",
        row.size_improvement_pct, row.speed_improvement_pct
    );

    // The listing, compiled with the arrays from 0x2000.
    let mut config = PipelineConfig::new(agu);
    config.layout_origin = 0x2000;
    config.validation_iterations = iterations;
    let (report, program) = compile_validated(kernel.name(), config, kernel.spec());
    println!(
        "simulation: {} accesses verified, {} explicit update(s)/iteration ✓\n",
        report.addresses_checked,
        report.measured_cost.expect("validation is on")
    );
    println!("{program}");
    Ok(())
}
