//! From C-like source to verified AGU assembly.
//!
//! Parses a loop written in the `raco-ir` DSL and compiles it through
//! the pipeline: the paper's two-phase register allocation, the address
//! program, and its validation by both oracles — simulation against the
//! reference address trace and the declarative listing checker.
//!
//! Run with: `cargo run --example dsl_to_asm`

use raco::driver::{Pipeline, PipelineConfig};
use raco::ir::{dsl, AguSpec};

const SOURCE: &str = "
for (i = 1; i < 255; i++) {
    // A symmetric 3-tap smoother with distinct in/out arrays.
    y[i] = c0 * x[i - 1] + c1 * x[i] + c0 * x[i + 1];
}";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("source:\n{SOURCE}\n");
    let spec = dsl::parse_loop(SOURCE)?;

    // Arrays from 0x400, 0x100 words apart; prove the program serves
    // every access of 100 iterations correctly.
    let mut config = PipelineConfig::new(AguSpec::new(3, 1)?);
    config.layout_origin = 0x0400;
    config.array_words = 0x0100;
    config.validation_iterations = 100;
    let (report, program) = Pipeline::with_config(config).compile_loop(&spec);
    if let Some(failure) = &report.failure {
        panic!("{}: {failure}", report.name);
    }
    let program = program.expect("a loop that compiled has a program");
    println!(
        "allocation: {} register(s), {} unit-cost update(s)/iteration",
        report.registers_used, report.cost
    );
    println!("\n{program}");
    println!(
        "simulation: {} iterations, {} accesses checked, {} explicit update(s)/iteration ✓",
        report.addresses_checked / report.accesses as u64,
        report.addresses_checked,
        report.measured_cost.expect("validation is on")
    );
    Ok(())
}
