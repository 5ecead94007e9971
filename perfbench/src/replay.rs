//! The traced run's compile: `Pipeline::compile_units_with`, replayed
//! step by step through each layer's public functions so the benchmark
//! can put a span around every call. It follows the pipeline's order
//! and failure rules (parse, lower, pool fan-out, cached cost curves,
//! register partition, cached allocations, codegen, trace, simulate,
//! check), and its report must render byte-identically to the real
//! pipeline's: the traced run's fixed pass checks that for every input.

use std::slice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use raco::agu::codegen::CodeGenerator;
use raco::agu::sim;
use raco::core::{partition, AllocError, LoopAllocation, Optimizer};
use raco::driver::pool::map_parallel;
use raco::driver::{
    CompilationReport, LoopFailure, LoopReport, Pipeline, PipelineConfig, UnitReport,
    NEST_VALIDATION_CAP,
};
use raco::ir::{dsl, CanonicalPattern, LoopSpec, MemoryLayout, Trace};

use crate::trace::Recorder;

/// A replayed compile: the report plus the branch-and-bound nodes its
/// cache misses explored.
pub struct Replay {
    pub report: CompilationReport,
    pub bb_nodes: u64,
}

/// Replays `pipeline.compile_units_with(config, units)`; every span is a
/// descendant of `parent`.
pub fn compile(
    rec: &Recorder,
    parent: u32,
    pipeline: &Pipeline,
    config: &PipelineConfig,
    units: &[(String, String)],
) -> Result<Replay, String> {
    let started = Instant::now();
    let mut work: Vec<(usize, LoopSpec)> = Vec::new();
    let mut names = Vec::with_capacity(units.len());
    for (index, (name, source)) in units.iter().enumerate() {
        let (decls, asts) = rec
            .span("ir.parse", parent, |_| dsl::parse_unit(source))
            .map_err(|e| format!("{name}: {e}"))?;
        names.push(name.clone());
        for (i, ast) in asts.iter().enumerate() {
            let mut spec = rec
                .span("ir.lower", parent, |_| dsl::lower_unit_loop(&decls, ast))
                .map_err(|e| format!("{name}: {}", e.attach_source(source)))?;
            spec.set_name(&format!("loop{i}"));
            work.push((index, spec));
        }
    }
    let bb_nodes = AtomicU64::new(0);
    let compiled = map_parallel(config.parallelism, &work, |_, (unit, spec)| {
        (
            *unit,
            compile_loop(rec, parent, pipeline, config, spec, &bb_nodes),
        )
    });
    let mut reports: Vec<UnitReport> = names
        .into_iter()
        .map(|name| UnitReport {
            name,
            loops: Vec::new(),
            listing: None,
        })
        .collect();
    for (unit, loop_report) in compiled {
        reports[unit].loops.push(loop_report);
    }
    let report = CompilationReport {
        units: reports,
        address_registers: config.agu.address_registers(),
        modify_range: config.agu.modify_range(),
        update_range: config.agu.update_range(),
        costs: config.agu.cost_table(),
        modify_registers: config.agu.modify_registers(),
        threads: config.parallelism.resolve(work.len()),
        elapsed: started.elapsed(),
        cache: pipeline.cache_stats(),
        timings: Vec::new(),
    };
    Ok(Replay {
        report,
        bb_nodes: bb_nodes.into_inner(),
    })
}

fn compile_loop(
    rec: &Recorder,
    parent: u32,
    pipeline: &Pipeline,
    config: &PipelineConfig,
    spec: &LoopSpec,
    bb_nodes: &AtomicU64,
) -> LoopReport {
    let mut report = LoopReport {
        name: spec.name().to_owned(),
        arrays: 0,
        accesses: spec.len(),
        registers_used: 0,
        virtual_registers: 0,
        cost: 0,
        code_words: 0,
        measured_cost: None,
        addresses_checked: 0,
        listing: None,
        failure: None,
    };
    let allocation = match allocate(rec, parent, pipeline, config, spec, bb_nodes) {
        Ok(allocation) => allocation,
        Err(failure) => {
            report.failure = Some(failure);
            return report;
        }
    };
    report.arrays = allocation.per_array().len();
    report.registers_used = allocation.total_registers();
    report.virtual_registers = allocation
        .per_array()
        .iter()
        .map(|(_, a)| a.virtual_registers())
        .sum();
    report.cost = u64::from(allocation.total_cost());

    let layout = MemoryLayout::contiguous(spec, config.layout_origin, config.array_words);
    let generated = rec.span("agu.codegen", parent, |_| {
        CodeGenerator::new(config.agu).generate(spec, &allocation, &layout)
    });
    let program = match generated {
        Ok(program) => program,
        Err(error) => {
            report.failure = Some(LoopFailure::CodeGen(error.to_string()));
            return report;
        }
    };
    report.code_words = program.words();
    if !config.validate {
        return report;
    }
    let iterations = match spec.nest() {
        Some(nest) => nest
            .total_iterations()
            .clamp(1, config.validation_iterations.max(NEST_VALIDATION_CAP)),
        None => config.validation_iterations.max(1),
    };
    let trace = rec.span("agu.trace", parent, |_| {
        Trace::capture(spec, &layout, iterations)
    });
    let outcome = rec.span("agu.sim", parent, |_| {
        sim::run(&program, &trace, &config.agu)
    });
    let checked = rec.span("check.check", parent, |_| {
        raco::check::check_program(spec, &layout, &config.agu, &program, Some(report.cost))
    });
    match (outcome, checked.is_clean()) {
        (Ok(sim_report), true) => {
            let measured = sim_report.explicit_updates_per_iteration();
            report.measured_cost = Some(measured);
            report.addresses_checked = sim_report.accesses_checked();
            if measured != report.cost {
                report.failure = Some(LoopFailure::CostMismatch {
                    predicted: report.cost,
                    measured,
                });
            }
        }
        (Ok(sim_report), false) => {
            report.measured_cost = Some(sim_report.explicit_updates_per_iteration());
            report.addresses_checked = sim_report.accesses_checked();
            report.failure = Some(LoopFailure::OracleDisagreement {
                simulator: None,
                checker: Some(checked.summary()),
            });
        }
        (Err(error), false) => {
            report.failure = Some(LoopFailure::Validation(format!(
                "{error}; checker: {}",
                checked.summary()
            )));
        }
        (Err(error), true) => {
            report.failure = Some(LoopFailure::OracleDisagreement {
                simulator: Some(error.to_string()),
                checker: None,
            });
        }
    }
    report
}

/// The pipeline's cached allocation path: cost curves through the
/// cache, register partition, then per-array allocations through the
/// cache. A cache span that ran its compute closure is an insert.
fn allocate(
    rec: &Recorder,
    parent: u32,
    pipeline: &Pipeline,
    config: &PipelineConfig,
    spec: &LoopSpec,
    bb_nodes: &AtomicU64,
) -> Result<LoopAllocation, LoopFailure> {
    let options = config.effective_options();
    let optimizer = Optimizer::with_options(config.agu, options);
    let patterns = spec.patterns();
    let k = config.agu.address_registers();
    if patterns.is_empty() {
        return Err(LoopFailure::Allocation(AllocError::EmptyLoop.to_string()));
    }
    if patterns.len() > k {
        return Err(LoopFailure::Allocation(
            AllocError::InsufficientRegisters {
                arrays: patterns.len(),
                registers: k,
            }
            .to_string(),
        ));
    }
    let range = config.agu.update_range();
    let cache = pipeline.cache();
    let canonicals: Vec<CanonicalPattern> = patterns.iter().map(CanonicalPattern::of).collect();
    let mut curves: Vec<Vec<u32>> = Vec::with_capacity(patterns.len());
    for (pattern, canonical) in patterns.iter().zip(&canonicals) {
        let id = rec.open("driver.cache_lookup", parent);
        let curve = cache.cost_curve(canonical, range, k, &options, || {
            rec.rename(id, "driver.cache_insert");
            rec.span("core.curve", id, |_| optimizer.cost_curve(pattern, k))
        });
        rec.close(id);
        curves.push(curve.as_ref().clone());
    }
    let grants = rec
        .span("core.partition", parent, |_| {
            partition::distribute_registers(&curves, k)
        })
        .map_err(|e| LoopFailure::Allocation(e.to_string()))?;
    let mut per_array = Vec::with_capacity(patterns.len());
    for ((pattern, canonical), &granted) in patterns.iter().zip(&canonicals).zip(&grants) {
        let id = rec.open("driver.cache_lookup", parent);
        let allocation = cache.allocation(canonical, range, granted, &options, || {
            rec.rename(id, "driver.cache_insert");
            let allocation = rec.span("core.alloc", id, |_| {
                optimizer.allocate_with_registers(pattern, granted)
            });
            bb_nodes.fetch_add(allocation.phase1().nodes(), Ordering::Relaxed);
            allocation
        });
        rec.close(id);
        per_array.push((pattern.array(), Arc::clone(&allocation)));
    }
    Ok(LoopAllocation::from_parts(
        per_array,
        grants,
        options.cost_model,
    ))
}

/// Convenience for a single unit.
pub fn compile_one(
    rec: &Recorder,
    parent: u32,
    pipeline: &Pipeline,
    config: &PipelineConfig,
    unit: &(String, String),
) -> Result<Replay, String> {
    compile(rec, parent, pipeline, config, slice::from_ref(unit))
}
