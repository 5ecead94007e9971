//! The end-to-end batch compilation pipeline.
//!
//! One [`Pipeline`] owns a machine description, optimizer options and
//! an [`AllocationCache`]; each `compile_*` call takes a batch of DSL
//! sources through the whole stack —
//!
//! ```text
//! DSL text ──parse──▶ LoopSpec ──patterns──▶ allocation (cached)
//!     ──codegen──▶ AddressProgram ──simulate──▶ validated LoopReport
//! ```
//!
//! — fanning independent loops out across a worker pool from the
//! batch's first cache miss on, and assembling a [`CompilationReport`].
//! The pipeline is `Sync`: a long-lived server can share one instance
//! (and thus one warm cache) across requests.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use raco_agu::codegen::CodeGenerator;
use raco_agu::isa::AddressProgram;
use raco_agu::listing::ProgramListing;
use raco_agu::sim;
use raco_core::{Allocation, AllocationMemo, LoopAllocation, Optimizer, OptimizerOptions};
use raco_ir::dsl::{self, ParseError};
use raco_ir::{AguSpec, CanonicalPattern, LoopSpec, MemoryLayout, Trace, UpdateRange};

use crate::cache::{AllocationCache, CachePolicy, CacheStats};
use crate::pool::{map_on_demand, FanOut, Parallelism};
use crate::report::{CompilationReport, LoopFailure, LoopReport, UnitReport};
use crate::timings::{BatchTimings, Stage, StageClock};

/// Errors that abort a whole batch (per-loop problems are reported in
/// the [`CompilationReport`] instead).
#[derive(Debug)]
#[non_exhaustive]
pub enum DriverError {
    /// A unit failed to parse.
    Parse {
        /// Unit label (file path or caller-provided name).
        unit: String,
        /// The underlying parse error.
        error: ParseError,
    },
    /// A source path could not be read or enumerated.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// The batch contained no compilable source (empty directory, or a
    /// directory with no recognized extensions).
    EmptyBatch {
        /// The path that yielded nothing.
        path: PathBuf,
    },
    /// [`PipelineConfig::deadline`] passed before every loop of the
    /// batch had started. Loops that finished before it stay cached.
    DeadlineExceeded,
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Parse { unit, error } => write!(f, "{unit}: {error}"),
            DriverError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            DriverError::EmptyBatch { path } => {
                write!(f, "{}: no DSL sources found", path.display())
            }
            DriverError::DeadlineExceeded => {
                write!(f, "the compute deadline passed before every loop started")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// Source-file extensions recognized when compiling a directory.
pub const SOURCE_EXTENSIONS: &[&str] = &["dsp", "loop", "c"];

/// Default cap on simulated iterations when validating a flattened
/// loop nest. Nests are validated over their whole (finite) iteration
/// space — carry bugs only show at sweep boundaries — but a submitted
/// nest with a huge iteration space must not stall a request; raise
/// [`PipelineConfig::validation_iterations`] above this value to
/// validate more of such a nest.
pub const NEST_VALIDATION_CAP: u64 = 4096;

/// Largest [`PipelineConfig::validation_iterations`] a request or the
/// CLI may ask for. Simulation time grows with the iteration count and
/// the compute deadline is only checked between loops, so an unbounded
/// count would let one request occupy its thread for hours. At least
/// [`NEST_VALIDATION_CAP`], so every nest up to the cap stays fully
/// validatable.
pub const MAX_VALIDATION_ITERATIONS: u64 = 1 << 20;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The target machine.
    pub agu: AguSpec,
    /// Worker-pool sizing.
    pub parallelism: Parallelism,
    /// Simulate every generated program against a reference trace.
    pub validate: bool,
    /// Iterations to simulate when `validate` is on. Flattened loop
    /// nests always validate their whole finite iteration space capped
    /// at `max(validation_iterations, NEST_VALIDATION_CAP)` — see
    /// [`NEST_VALIDATION_CAP`].
    pub validation_iterations: u64,
    /// Base address of the first array in the per-loop memory layout.
    pub layout_origin: i64,
    /// Words reserved per array in the per-loop memory layout.
    pub array_words: i64,
    /// Cache retention policy. Only the policy the [`Pipeline`] was
    /// *built* with matters — the cache lives as long as the pipeline,
    /// so per-request override configs (see
    /// [`Pipeline::compile_units_with`]) cannot change it.
    pub cache_policy: CachePolicy,
    /// Attach per-loop listings and per-unit assembled listings.
    pub listings: bool,
    /// When set, [`Pipeline::compile_units_with`] and
    /// [`Pipeline::compile_kernels_with`] check it before starting each
    /// loop and abandon the batch with [`DriverError::DeadlineExceeded`]
    /// once it has passed. A loop that has started always finishes —
    /// one allocation is bounded by the branch-and-bound node limit
    /// instead — so every cache entry is whole, and the deadline is
    /// part of no cache key. `None` (the default) never expires.
    pub deadline: Option<Instant>,
}

impl PipelineConfig {
    /// Defaults for `agu`: parallel, validating, no listings.
    pub fn new(agu: AguSpec) -> Self {
        PipelineConfig {
            agu,
            parallelism: Parallelism::Auto,
            validate: true,
            validation_iterations: 16,
            layout_origin: 0x1000,
            array_words: 0x400,
            cache_policy: CachePolicy::Unbounded,
            listings: false,
            deadline: None,
        }
    }

    /// The optimizer options this configuration allocates with: the
    /// default options (steady-state cost model, branch-and-bound
    /// budget, greedy merging) with the cost model priced for
    /// [`agu`](Self::agu) — its modify-register count and
    /// explicit-update cost.
    ///
    /// Allocation must price the same machine code generation emits
    /// for, or predicted and measured costs drift apart, so the options
    /// follow the machine, also for one overridden per request
    /// (`raco serve` builds the request machine from knobs). Since the
    /// options are part of every allocation-cache key, this is also
    /// what keys machines by modify-register count and ADDA cost.
    pub fn effective_options(&self) -> OptimizerOptions {
        let mut options = OptimizerOptions::default();
        options.cost_model = options.cost_model.for_machine(&self.agu);
        options
    }
}

/// The batch compilation pipeline. See the [module docs](self).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use raco_driver::Pipeline;
/// use raco_ir::AguSpec;
///
/// let pipeline = Pipeline::new(AguSpec::new(4, 1)?);
/// let report = pipeline.compile_str(
///     "two-stage",
///     "for (i = 0; i < 64; i++) { y[i] = x[i - 1] + x[i] + x[i + 1]; }
///      for (j = 0; j < 32; j++) { z[j] = y[j - 1] + y[j] + y[j + 1]; }",
/// )?;
/// assert_eq!(report.loop_count(), 2);
/// assert_eq!(report.failed(), 0);
/// // The second loop's x/y chains canonicalize like the first one's:
/// assert!(report.cache.allocation_hits + report.cache.curve_hits > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    cache: AllocationCache,
}

impl Pipeline {
    /// A pipeline with default configuration for `agu`.
    pub fn new(agu: AguSpec) -> Self {
        Self::with_config(PipelineConfig::new(agu))
    }

    /// A pipeline with explicit configuration.
    pub fn with_config(config: PipelineConfig) -> Self {
        let cache = AllocationCache::with_policy(config.cache_policy);
        Pipeline { config, cache }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The pipeline's allocation cache (for snapshotting and stats).
    pub fn cache(&self) -> &AllocationCache {
        &self.cache
    }

    /// Cumulative cache statistics for this pipeline instance.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Restores a cache snapshot (see [`crate::persist`]) into this
    /// pipeline's cache. Corrupt or mismatched entries are skipped and
    /// reported, never fatal.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PersistError`] when the file cannot be read.
    pub fn load_cache(
        &self,
        path: &Path,
    ) -> Result<crate::persist::LoadReport, crate::persist::PersistError> {
        raco_obs::global()
            .histogram("snapshot.load")
            .time(|| crate::persist::load(&self.cache, path))
    }

    /// Writes every resident cache entry to a snapshot file that a
    /// later process can [`load_cache`](Self::load_cache).
    ///
    /// # Errors
    ///
    /// Returns [`crate::PersistError`] when the file cannot be written.
    pub fn save_cache(
        &self,
        path: &Path,
    ) -> Result<crate::persist::SaveReport, crate::persist::PersistError> {
        raco_obs::global()
            .histogram("snapshot.save")
            .time(|| crate::persist::save(&self.cache, path))
    }

    /// Drops every cached allocation and cost curve (hit/miss counters
    /// are cumulative and survive). Long-lived pipelines serving
    /// unbounded workloads can call this to cap memory.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Compiles one in-memory source (possibly many loops).
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Parse`] if the source does not parse;
    /// per-loop failures are recorded in the report.
    pub fn compile_str(&self, name: &str, source: &str) -> Result<CompilationReport, DriverError> {
        self.compile_units(&[(name.to_owned(), source.to_owned())])
    }

    /// Compiles files and directories as one batch: each file is one
    /// unit, and a directory contributes every recognized source in it
    /// (extensions: [`SOURCE_EXTENSIONS`]), sorted by path.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Io`] on unreadable paths,
    /// [`DriverError::EmptyBatch`] for a directory without sources and
    /// [`DriverError::Parse`] on the first unparsable unit.
    pub fn compile_paths<P: AsRef<Path>>(
        &self,
        paths: &[P],
    ) -> Result<CompilationReport, DriverError> {
        let io = |path: &Path| {
            let path = path.to_path_buf();
            move |error| DriverError::Io { path, error }
        };
        let mut units = Vec::new();
        for path in paths.iter().map(AsRef::as_ref) {
            let mut files = vec![path.to_path_buf()];
            if path.is_dir() {
                files = std::fs::read_dir(path)
                    .map_err(io(path))?
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| {
                        p.extension()
                            .and_then(|e| e.to_str())
                            .is_some_and(|e| SOURCE_EXTENSIONS.contains(&e))
                    })
                    .collect();
                if files.is_empty() {
                    return Err(DriverError::EmptyBatch {
                        path: path.to_path_buf(),
                    });
                }
                files.sort();
            }
            for file in files {
                let text = std::fs::read_to_string(&file).map_err(io(&file))?;
                units.push((file.display().to_string(), text));
            }
        }
        self.compile_units(&units)
    }

    /// Compiles the whole `raco-kernels` suite as one batch workload.
    /// A [`PipelineConfig::deadline`] in the pipeline's own
    /// configuration does not apply here; pass it to
    /// [`compile_kernels_with`](Self::compile_kernels_with).
    pub fn compile_kernels(&self) -> CompilationReport {
        self.kernel_batch(&self.config, None)
            .expect("a batch without a deadline compiles every loop")
    }

    /// Like [`compile_kernels`](Self::compile_kernels), but under a
    /// per-request configuration (see
    /// [`compile_units_with`](Self::compile_units_with)).
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::DeadlineExceeded`] when `config.deadline`
    /// passes before every kernel has started.
    pub fn compile_kernels_with(
        &self,
        config: &PipelineConfig,
    ) -> Result<CompilationReport, DriverError> {
        self.kernel_batch(config, config.deadline)
    }

    /// The kernel suite as one unit, `raco-kernels`, each loop named
    /// after its kernel.
    fn kernel_batch(
        &self,
        config: &PipelineConfig,
        deadline: Option<Instant>,
    ) -> Result<CompilationReport, DriverError> {
        let kernels = raco_kernels::suite();
        let started = Instant::now();
        let work = kernels
            .iter()
            .map(|kernel| {
                let mut spec = kernel.spec().clone();
                spec.set_name(kernel.name());
                (0, spec)
            })
            .collect();
        let units = vec!["raco-kernels".to_owned()];
        self.compile_batch(config, deadline, units, work, started, BatchTimings::new())
    }

    /// Compiles named `(name, source)` units as one batch: all loops of
    /// all units are scheduled on one worker pool, so small units do
    /// not serialize behind large ones.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Parse`] on the first unit that fails to
    /// parse (per-loop failures do not abort the batch).
    pub fn compile_units(
        &self,
        units: &[(String, String)],
    ) -> Result<CompilationReport, DriverError> {
        self.compile_units_with(&self.config, units)
    }

    /// Like [`compile_units`](Self::compile_units), but under a
    /// per-request configuration while still sharing this pipeline's
    /// allocation cache.
    ///
    /// This is the entry point for request/response front ends
    /// (`raco serve`): every cache key already includes the machine
    /// parameters and optimizer options, so requests against different
    /// machines can safely share one warm cache. One field of the
    /// override is ignored because it is a property of the pipeline,
    /// not of a request: [`PipelineConfig::cache_policy`] (the cache
    /// was built when the pipeline was).
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Parse`] on the first unit that fails to
    /// parse (per-loop failures do not abort the batch), and
    /// [`DriverError::DeadlineExceeded`] when `config.deadline` passes
    /// before every loop has started.
    pub fn compile_units_with(
        &self,
        config: &PipelineConfig,
        units: &[(String, String)],
    ) -> Result<CompilationReport, DriverError> {
        let started = Instant::now();
        let timings = BatchTimings::new();
        // Parse up front: parse errors abort the batch, and parsing is
        // cheap relative to allocation. Parsing and lowering are timed
        // as separate stages (this is `dsl::parse_program` split at its
        // two halves, with identical naming and error mapping) on one
        // boundary-to-boundary clock.
        let mut work: Vec<(usize, LoopSpec)> = Vec::new();
        let mut unit_names: Vec<String> = Vec::with_capacity(units.len());
        let mut clock = StageClock::starting_at(&timings, started);
        for (index, (name, source)) in units.iter().enumerate() {
            let parsed = dsl::parse_unit(source);
            clock.lap(Stage::Parse);
            let (decls, asts) = parsed.map_err(|error| DriverError::Parse {
                unit: name.clone(),
                error,
            })?;
            unit_names.push(name.clone());
            for (i, ast) in asts.iter().enumerate() {
                let lowered = dsl::lower_unit_loop(&decls, ast);
                clock.lap(Stage::Lower);
                let mut spec = lowered.map_err(|e| DriverError::Parse {
                    unit: name.clone(),
                    error: e.attach_source(source),
                })?;
                spec.set_name(&format!("loop{i}"));
                work.push((index, spec));
            }
        }

        self.compile_batch(config, config.deadline, unit_names, work, started, timings)
    }

    /// Compiles lowered loops on the worker pool and assembles them
    /// into one report with a unit per entry of `unit_names`; each loop
    /// of `work` carries the index of its unit. The loops run on the
    /// calling thread until the first cache miss spawns the pool's
    /// helpers (see [`CacheMemo`]), so a batch of hits spawns no
    /// thread, and neither does a miss with too few loops left for a
    /// helper to pay for itself. Fails with [`DriverError::DeadlineExceeded`] when
    /// `deadline` passes before every loop has started.
    fn compile_batch(
        &self,
        config: &PipelineConfig,
        deadline: Option<Instant>,
        unit_names: Vec<String>,
        work: Vec<(usize, LoopSpec)>,
        started: Instant,
        timings: BatchTimings,
    ) -> Result<CompilationReport, DriverError> {
        let workers = config.parallelism.resolve(work.len());
        let (compiled, threads) = map_on_demand(workers, &work, |_, (unit, spec), fan_out| {
            if expired(deadline) {
                return None;
            }
            Some((
                *unit,
                self.compile_loop_timed(config, spec, &timings, fan_out),
            ))
        });
        if compiled.iter().any(Option::is_none) {
            return Err(DriverError::DeadlineExceeded);
        }

        let mut reports: Vec<UnitReport> = unit_names
            .into_iter()
            .map(|name| UnitReport {
                name,
                loops: Vec::new(),
                listing: None,
            })
            .collect();
        let mut listings: Vec<ProgramListing> = if config.listings {
            reports
                .iter()
                .map(|u| ProgramListing::new(u.name.clone()))
                .collect()
        } else {
            Vec::new()
        };
        for (unit, (loop_report, program)) in compiled.into_iter().flatten() {
            if let (true, Some(program)) = (config.listings, program) {
                listings[unit].push(loop_report.name.clone(), program);
            }
            reports[unit].loops.push(loop_report);
        }
        for (unit, listing) in reports.iter_mut().zip(listings) {
            unit.listing = Some(listing.to_string());
        }
        Ok(self.finish_report(config, reports, threads, started, &timings))
    }

    fn finish_report(
        &self,
        config: &PipelineConfig,
        units: Vec<UnitReport>,
        threads: usize,
        started: Instant,
        timings: &BatchTimings,
    ) -> CompilationReport {
        CompilationReport {
            units,
            address_registers: config.agu.address_registers(),
            modify_range: config.agu.modify_range(),
            update_range: config.agu.update_range(),
            costs: config.agu.cost_table(),
            modify_registers: config.agu.modify_registers(),
            threads,
            elapsed: started.elapsed(),
            cache: self.cache.stats(),
            timings: timings.finish(),
        }
    }

    /// Compiles a single loop end to end, returning its report and (on
    /// success) the generated address program.
    ///
    /// This is the pipeline's unit of parallel work; it is public so
    /// callers with their own scheduling (or pre-parsed [`LoopSpec`]s)
    /// can reuse the cached hot path.
    pub fn compile_loop(&self, spec: &LoopSpec) -> (LoopReport, Option<AddressProgram>) {
        // Standalone loops still feed the process-wide stage
        // histograms; batch entry points share one BatchTimings across
        // the pool instead.
        let timings = BatchTimings::new();
        let out = self.compile_loop_timed(&self.config, spec, &timings, FanOut::INERT);
        timings.finish();
        out
    }

    fn compile_loop_timed(
        &self,
        config: &PipelineConfig,
        spec: &LoopSpec,
        timings: &BatchTimings,
        fan_out: FanOut<'_>,
    ) -> (LoopReport, Option<AddressProgram>) {
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

        let allocation = match self.allocate(config, spec, timings, fan_out) {
            Ok(allocation) => allocation,
            Err(failure) => {
                report.failure = Some(failure);
                return (report, None);
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
        let generator = CodeGenerator::new(config.agu);
        // Codegen and simulate are timed boundary-to-boundary: the
        // clock read that ends the codegen sample starts the simulate
        // one.
        let mut clock = StageClock::starting_at(timings, Instant::now());
        let generated = generator.generate(spec, &allocation, &layout);
        clock.lap(Stage::Codegen);
        let program = match generated {
            Ok(program) => program,
            Err(error) => {
                report.failure = Some(LoopFailure::CodeGen(error.to_string()));
                return (report, None);
            }
        };
        report.code_words = program.words();

        if config.validate {
            // Flattened nests are finite and their carry behaviour only
            // shows at sweep boundaries, so validate the whole nest
            // (capped — raising validation_iterations raises the cap)
            // instead of the configured prefix.
            let iterations = match spec.nest() {
                Some(nest) => nest
                    .total_iterations()
                    .clamp(1, config.validation_iterations.max(NEST_VALIDATION_CAP)),
                None => config.validation_iterations.max(1),
            };
            let outcome = {
                let trace = Trace::capture(spec, &layout, iterations);
                sim::run(&program, &trace, &config.agu)
            };
            clock.lap(Stage::Simulate);
            // Second oracle: the declarative listing checker re-derives
            // correctness from the rows alone. Both oracles must pass;
            // a listing exactly one of them rejects is an oracle
            // disagreement — its own bug class, never silently folded
            // into a plain validation failure.
            let checked = timings.time(Stage::Check, || {
                raco_check::check_program(spec, &layout, &config.agu, &program, Some(report.cost))
            });
            match (outcome, checked.is_clean()) {
                (Ok(sim_report), true) => {
                    let measured = sim_report.explicit_updates_per_iteration();
                    report.measured_cost = Some(measured);
                    report.addresses_checked = sim_report.accesses_checked();
                    // The allocator prices the same machine codegen
                    // emits for — modify registers included — so the
                    // predicted cost must equal the measured cost
                    // exactly, on every machine.
                    if measured != report.cost {
                        report.failure = Some(LoopFailure::CostMismatch {
                            predicted: report.cost,
                            measured,
                        });
                        return (report, None);
                    }
                }
                (Ok(sim_report), false) => {
                    report.measured_cost = Some(sim_report.explicit_updates_per_iteration());
                    report.addresses_checked = sim_report.accesses_checked();
                    report.failure = Some(LoopFailure::OracleDisagreement {
                        simulator: None,
                        checker: Some(checked.summary()),
                    });
                    return (report, None);
                }
                (Err(error), false) => {
                    report.failure = Some(LoopFailure::Validation(format!(
                        "{error}; checker: {}",
                        checked.summary()
                    )));
                    return (report, None);
                }
                (Err(error), true) => {
                    report.failure = Some(LoopFailure::OracleDisagreement {
                        simulator: Some(error.to_string()),
                        checker: None,
                    });
                    return (report, None);
                }
            }
        }

        if config.listings {
            report.listing = Some(program.to_string());
        }
        (report, Some(program))
    }

    /// Allocates one loop through [`Optimizer::allocate_patterns`] with
    /// the allocation cache as its memo (see [`CacheMemo`]).
    fn allocate(
        &self,
        config: &PipelineConfig,
        spec: &LoopSpec,
        timings: &BatchTimings,
        fan_out: FanOut<'_>,
    ) -> Result<LoopAllocation, LoopFailure> {
        // The effective options price the machine's modify registers
        // (and, being part of every cache key, keep machines differing
        // only in MR count on distinct entries).
        let options = config.effective_options();
        let patterns = spec.patterns();
        let mut memo = CacheMemo {
            cache: &self.cache,
            canonicals: patterns.iter().map(CanonicalPattern::of).collect(),
            range: config.agu.update_range(),
            k: config.agu.address_registers(),
            options,
            clock: StageClock::starting_at(timings, Instant::now()),
            fan_out,
        };
        Optimizer::with_options(config.agu, options)
            .allocate_patterns(&patterns, &mut memo)
            .map_err(|e| LoopFailure::Allocation(e.to_string()))
    }
}

/// The allocation cache answering one loop's curve and allocation
/// questions for [`Optimizer::allocate_patterns`].
///
/// Curves are looked up by curve class (the mirror-invariant cost
/// class on symmetric machines, the exact canonical form otherwise),
/// allocations by exact canonical form, so hits reuse covers *and*
/// concrete update deltas. A missed allocation enters the cache in its
/// shift-normalized form (see [`AllocationCache::allocation`]), so an
/// answer may hold a shifted twin of the loop's own distance model; its
/// steps' deltas are the same. A hit hands out
/// the cache's `Arc`, so a warm loop shares its covers, distance models
/// and phase reports with the cache instead of copying them.
///
/// The batch's first miss spawns its helpers (see [`FanOut::widen`])
/// before it computes, when enough loops are left for each helper to
/// expect two, so the rest of a large cold batch runs in parallel with
/// the allocation while a small one stays on the caller; the cache runs
/// the computation outside its shard lock, so no lock is held while
/// threads spawn.
///
/// Each lookup is timed into its `_hit` or `_miss` stage: the compute
/// closure runs only on a miss, so a flag set inside it picks the
/// stage; the helpers' spawn lands in the first miss's sample. The
/// curve → partition → allocation stages run back to back, so they are
/// timed on one [`StageClock`]; the register partition is the span
/// between the last curve and the first allocation.
struct CacheMemo<'a> {
    cache: &'a AllocationCache,
    canonicals: Vec<CanonicalPattern>,
    range: UpdateRange,
    k: usize,
    options: OptimizerOptions,
    clock: StageClock<'a>,
    fan_out: FanOut<'a>,
}

impl AllocationMemo for CacheMemo<'_> {
    fn cost_curve(&mut self, index: usize, compute: impl FnOnce() -> Vec<u32>) -> Arc<Vec<u32>> {
        let mut missed = false;
        let curve = self.cache.cost_curve(
            &self.canonicals[index],
            self.range,
            self.k,
            &self.options,
            || {
                missed = true;
                self.fan_out.widen();
                compute()
            },
        );
        self.clock.lap(if missed {
            Stage::CurveMiss
        } else {
            Stage::CurveHit
        });
        curve
    }

    fn allocation(
        &mut self,
        index: usize,
        registers: usize,
        compute: impl FnOnce() -> Allocation,
    ) -> Arc<Allocation> {
        if index == 0 {
            self.clock.lap(Stage::Partition);
        }
        let mut missed = false;
        let allocation = self.cache.allocation(
            &self.canonicals[index],
            self.range,
            registers,
            &self.options,
            || {
                missed = true;
                self.fan_out.widen();
                compute()
            },
        );
        self.clock.lap(if missed {
            Stage::AllocMiss
        } else {
            Stage::AllocHit
        });
        allocation
    }
}

/// `true` once `deadline` has passed; `None` never expires.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|deadline| Instant::now() >= deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn pipeline(k: usize) -> Pipeline {
        Pipeline::new(AguSpec::new(k, 1).unwrap())
    }

    #[test]
    fn single_loop_compiles_and_validates() {
        let report = pipeline(3)
            .compile_str(
                "unit",
                "for (i = 1; i < 100; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }",
            )
            .unwrap();
        assert_eq!(report.loop_count(), 1);
        assert_eq!(report.failed(), 0);
        let lr = &report.units[0].loops[0];
        assert_eq!(lr.cost, 0);
        assert_eq!(lr.measured_cost, Some(0));
        assert!(lr.addresses_checked > 0);
        assert_eq!(lr.arrays, 2);
    }

    #[test]
    fn parse_errors_abort_the_batch() {
        let err = pipeline(3)
            .compile_str("bad", "for (i = 0; i++) {")
            .unwrap_err();
        assert!(matches!(err, DriverError::Parse { .. }));
        assert!(err.to_string().contains("bad"));
    }

    #[test]
    fn a_passed_deadline_abandons_the_batch_and_caches_nothing() {
        let pipeline = pipeline(4);
        let mut config = pipeline.config().clone();
        config.deadline = Some(Instant::now());
        let units = [(
            "two".to_owned(),
            "for (i = 0; i < 64; i++) { y[i] = x[i-1] + x[i+1]; }
             for (j = 0; j < 32; j++) { z[j] = y[j] + y[j+3]; }"
                .to_owned(),
        )];
        let err = pipeline.compile_units_with(&config, &units).unwrap_err();
        assert!(matches!(err, DriverError::DeadlineExceeded), "{err}");
        let err = pipeline.compile_kernels_with(&config).unwrap_err();
        assert!(matches!(err, DriverError::DeadlineExceeded), "{err}");
        // No loop started, so nothing reached the cache.
        let stats = pipeline.cache_stats();
        assert_eq!(stats.allocation_entries + stats.curve_entries, 0);
        // Without the deadline the same request compiles in full.
        config.deadline = None;
        let report = pipeline.compile_units_with(&config, &units).unwrap();
        assert_eq!((report.loop_count(), report.failed()), (2, 0));
        assert_eq!(pipeline.compile_kernels_with(&config).unwrap().failed(), 0);
    }

    #[test]
    fn warm_batches_run_on_the_caller() {
        let mut config = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
        config.parallelism = Parallelism::Fixed(4);
        config.listings = true;
        let pipeline = Pipeline::with_config(config.clone());
        let three = (
            "three".to_owned(),
            "for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }
             for (j = 0; j < 32; j++) { z[j] = y[j] + y[j+3] + w[j+1]; }
             for (k = 2; k < 48; k++) { s += a[k-2] * b[k] + a[k+5]; }"
                .to_owned(),
        );
        let fresh = (
            "fresh".to_owned(),
            "for (i = 0; i < 64; i++) { q[i] = p[i+7] + p[i] + p[i-4]; }
             for (j = 0; j < 16; j++) { r[j] = u[j] + u[j+9]; }
             for (k = 0; k < 16; k++) { t[k] = v[k+2] + v[k-3]; }
             for (l = 0; l < 16; l++) { d[l] = e[l+5] + e[l] + e[l-6]; }
             for (m = 0; m < 16; m++) { f[m] = g[m-1] + g[m+8]; }"
                .to_owned(),
        );
        let units =
            |report: &CompilationReport| report.to_json_value().get("units").map(Json::render);

        // The first loop misses, but two unclaimed loops are too few
        // for a helper to pay for itself; the same unit again is all
        // hits.
        let cold = pipeline
            .compile_units(std::slice::from_ref(&three))
            .unwrap();
        assert_eq!((cold.threads, cold.failed()), (1, 0));
        let warm = pipeline
            .compile_units(std::slice::from_ref(&three))
            .unwrap();
        assert_eq!(warm.threads, 1);
        assert_eq!(units(&warm), units(&cold));
        assert_eq!(warm.units[0].listing, cold.units[0].listing);

        // A cached unit ahead of a new one: the caller compiles the
        // hits, and the first miss leaves four loops unclaimed, enough
        // for one helper.
        let batch = [three, fresh];
        let mixed = pipeline.compile_units(&batch).unwrap();
        assert_eq!((mixed.threads, mixed.failed()), (2, 0));
        config.parallelism = Parallelism::Sequential;
        let sequential = Pipeline::with_config(config).compile_units(&batch).unwrap();
        assert_eq!(units(&mixed), units(&sequential));
    }

    #[test]
    fn fan_out_keeps_a_cold_three_loop_unit_on_the_caller() {
        // Two loops are left unclaimed at the first miss: a helper
        // could expect only one, which does not pay for its spawn.
        let unit = (
            "three".to_owned(),
            "for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }
             for (j = 0; j < 32; j++) { z[j] = y[j] + y[j+3] + w[j+1]; }
             for (k = 2; k < 48; k++) { s += a[k-2] * b[k] + a[k+5]; }"
                .to_owned(),
        );
        for parallelism in [Parallelism::Fixed(2), Parallelism::Auto] {
            let mut config = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
            config.parallelism = parallelism;
            let report = Pipeline::with_config(config)
                .compile_units(std::slice::from_ref(&unit))
                .unwrap();
            assert_eq!((report.threads, report.failed()), (1, 0), "{parallelism:?}");
        }
    }

    #[test]
    fn fan_out_gives_the_cold_kernel_suite_a_helper() {
        // The suite's first miss leaves its other 18 loops unclaimed.
        let mut config = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
        config.parallelism = Parallelism::Fixed(2);
        let report = Pipeline::with_config(config).compile_kernels();
        assert!(report.loop_count() >= 6, "the suite has enough loops");
        assert_eq!((report.threads, report.failed()), (2, 0));
    }

    #[test]
    fn per_loop_failures_do_not_abort_the_batch() {
        // Second loop needs 3 arrays on a K = 2 machine.
        let report = pipeline(2)
            .compile_str(
                "unit",
                "for (i = 0; i < 8; i++) { s += x[i]; }
                 for (j = 0; j < 8; j++) { a[j] = b[j] + c[j]; }",
            )
            .unwrap();
        assert_eq!(report.loop_count(), 2);
        assert_eq!(report.succeeded(), 1);
        assert_eq!(report.failed(), 1);
        let failed = &report.units[0].loops[1];
        assert!(matches!(failed.failure, Some(LoopFailure::Allocation(_))));
    }

    #[test]
    fn repeated_shapes_hit_the_cache() {
        let pipeline = pipeline(4);
        let source: String = (0..8)
            .map(|i| {
                format!(
                    "for (i = 0; i < 64; i++) {{ y{0}[i] = x{0}[i-1] + x{0}[i] + x{0}[i+1]; }}\n",
                    i
                )
            })
            .collect();
        let report = pipeline.compile_str("repeats", &source).unwrap();
        assert_eq!(report.failed(), 0);
        let stats = report.cache;
        // 8 identical loops: everything after the first is a pure hit.
        assert!(
            stats.allocation_hits >= 14,
            "expected hits for 7 repeated loops, got {stats:?}"
        );
        assert_eq!(stats.allocation_entries, 2, "x-chain and y-singleton");

        // Clearing empties the tables (counters are cumulative) and
        // the next batch repopulates them with identical results.
        pipeline.clear_cache();
        assert_eq!(pipeline.cache_stats().allocation_entries, 0);
        let again = pipeline.compile_str("repeats", &source).unwrap();
        assert_eq!(again.cache.allocation_entries, 2);
        for (a, b) in report.loops().zip(again.loops()) {
            assert_eq!(a, b, "results identical after cache clear");
        }
    }

    #[test]
    fn shifted_suite_units_compile_cold_and_warm() {
        // Units that each repeat the kernel suite (hits by key
        // equality) plus a loop at per-unit base offsets (hits through
        // shift normalization) compile without a failure on a cold
        // cache and all-hits on a warm one.
        let suite = raco_kernels::suite_program();
        let units: Vec<(String, String)> = (0..2)
            .map(|c| {
                let smooth = format!(
                    "for (i = {}; i < 256; i++) {{ s{c}[i] = d{c}[i - {}] + d{c}[i - {}] + d{c}[i - {c}]; }}",
                    8 + c,
                    c + 1,
                    c + 2
                );
                (format!("unit{c}"), format!("{suite}\n{smooth}\n"))
            })
            .collect();
        let mut config = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
        config.validation_iterations = 4;
        let pipeline = Pipeline::with_config(config);
        let primed = pipeline.compile_units(&units).unwrap();
        assert_eq!(primed.loop_count(), 2 * (raco_kernels::suite().len() + 1));
        assert_eq!(primed.failed(), 0, "{}", primed.render_table());
        let misses = pipeline.cache_stats().allocation_misses;
        let replay = pipeline.compile_units(&units).unwrap();
        assert_eq!(replay.failed(), 0, "{}", replay.render_table());
        assert_eq!(pipeline.cache_stats().allocation_misses, misses);
    }

    #[test]
    fn snapshot_bytes_do_not_depend_on_which_shifted_twin_missed_first() {
        // Two shifted twins of one tap chain share every cache key, so
        // pipelines that compile them in opposite orders hold equal
        // caches, and their snapshots must be byte-identical.
        let twins = [
            "for (j = 10; j < 250; j++) { w[j] = x[j + 6] + x[j + 5] + x[j + 4] + x[j + 3]; }",
            "for (j = 10; j < 250; j++) { w[j] = x[j] + x[j - 1] + x[j - 2] + x[j - 3]; }",
        ];
        let snapshot = |order: [usize; 2]| {
            let mut config = PipelineConfig::new(AguSpec::new(2, 1).unwrap());
            config.parallelism = Parallelism::Sequential;
            let pipeline = Pipeline::with_config(config);
            for twin in order {
                let report = pipeline.compile_str("twin", twins[twin]).unwrap();
                assert_eq!(report.failed(), 0, "{}", report.render_table());
            }
            assert_eq!(pipeline.cache_stats().allocation_hits, 2);
            crate::persist::encode(pipeline.cache())
        };
        assert_eq!(snapshot([0, 1]), snapshot([1, 0]));
    }

    #[test]
    fn per_request_configs_share_one_cache() {
        let pipeline = pipeline(4);
        let source = "for (i = 0; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }";
        let first = pipeline.compile_str("a", source).unwrap();
        assert_eq!(first.failed(), 0);

        // A request against a *different* machine: distinct cache keys,
        // so it must miss (no false sharing) …
        let mut other_machine = pipeline.config().clone();
        other_machine.agu = AguSpec::new(2, 2).unwrap();
        let second =
            pipeline.compile_units_with(&other_machine, &[("b".to_owned(), source.to_owned())]);
        let second = second.unwrap();
        assert_eq!(second.failed(), 0);
        assert_eq!(second.address_registers, 2);
        assert_eq!(second.modify_range, 2);
        let after_second = pipeline.cache_stats();

        // … while a repeat of the first request, issued through the
        // override entry point with the default config, is a pure hit.
        let third = pipeline
            .compile_units_with(
                &pipeline.config().clone(),
                &[("c".to_owned(), source.to_owned())],
            )
            .unwrap();
        assert_eq!(third.failed(), 0);
        let after_third = pipeline.cache_stats();
        assert!(after_third.allocation_hits > after_second.allocation_hits);
        assert_eq!(
            after_third.allocation_misses,
            after_second.allocation_misses
        );
        for (a, b) in first.loops().zip(third.loops()) {
            assert_eq!(a, b, "identical request, identical report");
        }
    }

    #[test]
    fn bounded_pipelines_evict_instead_of_growing() {
        let agu = AguSpec::new(4, 1).unwrap();
        let mut config = PipelineConfig::new(agu);
        config.cache_policy = CachePolicy::Bounded(16);
        config.parallelism = Parallelism::Sequential;
        let pipeline = Pipeline::with_config(config);
        // A sweep of distinct shapes (one per gap width) overflows the
        // bound; entry counts stay near it while counters keep going.
        for gap in 1..200i64 {
            let source = format!(
                "for (i = 0; i < 64; i++) {{ y[i] = x[i] + x[i + {gap}] + x[i + {}]; }}",
                3 * gap
            );
            let report = pipeline.compile_str("sweep", &source).unwrap();
            assert_eq!(report.failed(), 0);
        }
        let stats = pipeline.cache_stats();
        assert!(
            stats.allocation_entries <= 16 + 16,
            "alloc entries {} not bounded",
            stats.allocation_entries
        );
        assert!(stats.allocation_evictions > 0);
        assert!(stats.curve_evictions > 0);
    }

    #[test]
    fn kernels_compile_as_a_batch() {
        let report = pipeline(4).compile_kernels();
        assert_eq!(report.loop_count(), raco_kernels::suite().len());
        assert_eq!(report.failed(), 0, "table:\n{}", report.render_table());
        assert!(report.loops().all(|l| l.measured_cost.is_some()));
        let names: Vec<&str> = report.units[0]
            .loops
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        assert!(names.contains(&"paper_example"));
    }

    #[test]
    fn listings_are_attached_on_request() {
        let agu = AguSpec::new(3, 1).unwrap();
        let mut config = PipelineConfig::new(agu);
        config.listings = true;
        let report = Pipeline::with_config(config)
            .compile_str(
                "unit",
                "for (i = 0; i < 8; i++) { y[i] = x[i]; }
                 for (j = 0; j < 8; j++) { s += x[j]; }",
            )
            .unwrap();
        let unit = &report.units[0];
        let listing = unit.listing.as_deref().expect("unit listing requested");
        assert!(listing.contains("loop0:"));
        assert!(listing.contains("loop1:"));
        assert!(listing.contains("; unit total"));
        assert!(unit.loops.iter().all(|l| l.listing.is_some()));
    }

    #[test]
    fn directory_compilation_reads_every_source() {
        let dir = std::env::temp_dir().join(format!(
            "raco-driver-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("a.dsp"),
            "for (i = 0; i < 8; i++) { y[i] = x[i]; }",
        )
        .unwrap();
        std::fs::write(
            dir.join("b.loop"),
            "for (i = 0; i < 8; i++) { s += x[i] * h[7 - i]; }",
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "not source").unwrap();
        let report = pipeline(3).compile_paths(&[&dir]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(report.units.len(), 2);
        assert_eq!(report.loop_count(), 2);
        assert_eq!(report.failed(), 0);
        // Units are sorted by path for determinism.
        assert!(report.units[0].name.ends_with("a.dsp"));
    }

    #[test]
    fn missing_paths_surface_io_errors() {
        let err = pipeline(2)
            .compile_paths(&[Path::new("/nonexistent/raco/source.dsp")])
            .unwrap_err();
        assert!(matches!(err, DriverError::Io { .. }));
        let empty = std::env::temp_dir().join(format!("raco-driver-empty-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        let err = pipeline(2).compile_paths(&[&empty]).unwrap_err();
        std::fs::remove_dir_all(&empty).ok();
        assert!(matches!(err, DriverError::EmptyBatch { .. }));
    }

    #[test]
    fn reports_carry_stage_timings() {
        let pipeline = pipeline(4);
        let source = "for (i = 0; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }";
        let cold = pipeline.compile_str("unit", source).unwrap();
        let stages: Vec<&str> = cold.timings.iter().map(|t| t.stage).collect();
        for expected in [
            "parse",
            "lower",
            "curve_miss",
            "partition",
            "alloc_miss",
            "codegen",
            "simulate",
            "check",
        ] {
            assert!(
                stages.contains(&expected),
                "missing {expected} in {stages:?}"
            );
        }
        let parse = cold.timings.iter().find(|t| t.stage == "parse").unwrap();
        assert_eq!(parse.calls, 1);
        assert!(parse.total_ns > 0);
        assert!(parse.p50_ns <= parse.max_ns);

        // A warm identical batch allocates through cache hits.
        let warm = pipeline.compile_str("unit", source).unwrap();
        let warm_stages: Vec<&str> = warm.timings.iter().map(|t| t.stage).collect();
        assert!(warm_stages.contains(&"alloc_hit"), "{warm_stages:?}");
        assert!(!warm_stages.contains(&"alloc_miss"), "{warm_stages:?}");
    }

    #[test]
    fn pipeline_is_shareable_across_threads() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pipeline>();
        assert_send_sync::<PipelineConfig>();
        assert_send_sync::<DriverError>();
    }
}
