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
//! — fanning independent loops out across a worker pool and assembling
//! a [`CompilationReport`]. The pipeline is `Sync`: a long-lived server
//! can share one instance (and thus one warm cache) across requests.

use std::path::{Path, PathBuf};
use std::time::Instant;

use raco_agu::codegen::CodeGenerator;
use raco_agu::isa::AddressProgram;
use raco_agu::listing::ProgramListing;
use raco_agu::sim;
use raco_core::{partition, AllocError, LoopAllocation, Optimizer, OptimizerOptions};
use raco_ir::dsl::{self, ParseError};
use raco_ir::{AguSpec, CanonicalPattern, LoopSpec, MemoryLayout, Trace};

use crate::cache::{AllocationCache, CachePolicy, CacheStats};
use crate::pool::{map_workers, Parallelism};
use crate::report::{CompilationReport, LoopFailure, LoopReport, UnitReport};
use crate::timings::{BatchTimings, Stage};

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

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The target machine.
    pub agu: AguSpec,
    /// Allocator options (cost model, branch-and-bound budget, merge
    /// strategy); part of every cache key.
    pub options: OptimizerOptions,
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
    /// Use the allocation cache (disable to measure cold paths).
    pub caching: bool,
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
    /// Defaults for `agu`: parallel, validating, caching, no listings.
    /// The optimizer options price the machine's modify registers (see
    /// [`PipelineConfig::effective_options`]).
    pub fn new(agu: AguSpec) -> Self {
        let mut options = OptimizerOptions::default();
        options.cost_model = options
            .cost_model
            .with_modify_registers(agu.modify_registers());
        PipelineConfig {
            agu,
            options,
            parallelism: Parallelism::Auto,
            validate: true,
            validation_iterations: 16,
            layout_origin: 0x1000,
            array_words: 0x400,
            caching: true,
            cache_policy: CachePolicy::Unbounded,
            listings: false,
            deadline: None,
        }
    }

    /// The optimizer options this configuration actually allocates
    /// with: [`PipelineConfig::options`] with the cost model's
    /// modify-register count and explicit-update cost forced to the
    /// machine's.
    ///
    /// Allocation must price the same machine code generation emits
    /// for, or predicted and measured costs drift apart — so the
    /// pipeline never lets the two disagree, even for configurations
    /// assembled by hand or overridden per request (`raco serve`
    /// builds the request machine from knobs without touching the
    /// options). Since the options are part of every allocation-cache
    /// key, this is also what keys machines by modify-register count
    /// and ADDA cost.
    pub fn effective_options(&self) -> OptimizerOptions {
        let mut options = self.options;
        options.cost_model = options
            .cost_model
            .with_modify_registers(self.agu.modify_registers())
            .with_adda_cost(self.agu.cost_table().adda());
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
        let _span = raco_obs::global().time("snapshot.load");
        crate::persist::load(&self.cache, path)
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
        let _span = raco_obs::global().time("snapshot.save");
        crate::persist::save(&self.cache, path)
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

    /// Compiles a file, or every recognized source in a directory
    /// (extensions: [`SOURCE_EXTENSIONS`]), as one batch.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Io`] on unreadable paths,
    /// [`DriverError::EmptyBatch`] for directories without sources and
    /// [`DriverError::Parse`] on the first unparsable unit.
    pub fn compile_path(&self, path: &Path) -> Result<CompilationReport, DriverError> {
        let read = |p: &Path| -> Result<(String, String), DriverError> {
            let text = std::fs::read_to_string(p).map_err(|error| DriverError::Io {
                path: p.to_path_buf(),
                error,
            })?;
            Ok((p.display().to_string(), text))
        };
        let mut units = Vec::new();
        if path.is_dir() {
            let entries = std::fs::read_dir(path).map_err(|error| DriverError::Io {
                path: path.to_path_buf(),
                error,
            })?;
            let mut files: Vec<PathBuf> = entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.extension()
                        .and_then(|e| e.to_str())
                        .is_some_and(|e| SOURCE_EXTENSIONS.contains(&e))
                })
                .collect();
            files.sort();
            for file in files {
                units.push(read(&file)?);
            }
            if units.is_empty() {
                return Err(DriverError::EmptyBatch {
                    path: path.to_path_buf(),
                });
            }
        } else {
            units.push(read(path)?);
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
            .ok_or(DriverError::DeadlineExceeded)
    }

    /// The kernel suite as one unit; `None` when `deadline` passed
    /// before every loop started.
    fn kernel_batch(
        &self,
        config: &PipelineConfig,
        deadline: Option<Instant>,
    ) -> Option<CompilationReport> {
        let kernels = raco_kernels::suite();
        let started = Instant::now();
        let timings = BatchTimings::new();
        let loops: Vec<(String, LoopSpec)> = kernels
            .iter()
            .map(|k| (k.name().to_owned(), k.spec().clone()))
            .collect();
        let workers = config.parallelism.resolve(loops.len());
        let compiled = map_workers(workers, &loops, |_, (name, spec)| {
            if expired(deadline) {
                return None;
            }
            let (mut report, program) = self.compile_loop_timed(config, spec, &timings);
            report.name = name.clone();
            Some((report, program))
        });
        if compiled.iter().any(Option::is_none) {
            return None;
        }
        let mut unit_listing = config.listings.then(|| ProgramListing::new("raco-kernels"));
        let mut reports = Vec::with_capacity(compiled.len());
        for (report, program) in compiled.into_iter().flatten() {
            if let (Some(listing), Some(program)) = (unit_listing.as_mut(), program) {
                listing.push(report.name.clone(), program);
            }
            reports.push(report);
        }
        let units = vec![UnitReport {
            name: "raco-kernels".to_owned(),
            loops: reports,
            listing: unit_listing.map(|l| l.to_string()),
        }];
        Some(self.finish_report(config, units, workers, started, &timings))
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
    /// machines can safely share one warm cache. Two fields of the
    /// override are ignored because they are properties of the
    /// pipeline, not of a request: [`PipelineConfig::cache_policy`]
    /// (the cache was built when the pipeline was) and — when the
    /// override disables it — [`PipelineConfig::caching`] only skips
    /// the cache for that request without dropping existing entries.
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
        // two halves, with identical naming and error mapping). The
        // stages are timed boundary-to-boundary with one shared clock
        // read per boundary — reading the clock is not free on every
        // host, so the glue between stages lands in the following
        // stage's sample instead of paying an extra read to exclude it.
        let mut work: Vec<(usize, LoopSpec)> = Vec::new();
        let mut unit_names: Vec<String> = Vec::with_capacity(units.len());
        let mut mark = started;
        for (index, (name, source)) in units.iter().enumerate() {
            let parsed = dsl::parse_unit(source);
            let now = Instant::now();
            timings.record_ns(Stage::Parse, now.duration_since(mark).as_nanos() as u64);
            mark = now;
            let (decls, asts) = parsed.map_err(|error| DriverError::Parse {
                unit: name.clone(),
                error,
            })?;
            unit_names.push(name.clone());
            for (i, ast) in asts.iter().enumerate() {
                let lowered = dsl::lower_unit_loop(&decls, ast);
                let now = Instant::now();
                timings.record_ns(Stage::Lower, now.duration_since(mark).as_nanos() as u64);
                mark = now;
                let mut spec = lowered.map_err(|e| DriverError::Parse {
                    unit: name.clone(),
                    error: e.attach_source(source),
                })?;
                spec.set_name(&format!("loop{i}"));
                work.push((index, spec));
            }
        }

        let workers = config.parallelism.resolve(work.len());
        let compiled = map_workers(workers, &work, |_, (unit, spec)| {
            if expired(config.deadline) {
                return None;
            }
            Some((*unit, self.compile_loop_timed(config, spec, &timings)))
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
        Ok(self.finish_report(config, reports, workers, started, &timings))
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
        self.compile_loop_with(&self.config, spec)
    }

    /// Like [`compile_loop`](Self::compile_loop), but under a
    /// per-request configuration (see
    /// [`compile_units_with`](Self::compile_units_with)).
    pub fn compile_loop_with(
        &self,
        config: &PipelineConfig,
        spec: &LoopSpec,
    ) -> (LoopReport, Option<AddressProgram>) {
        // Standalone loops still feed the process-wide stage
        // histograms; batch entry points share one BatchTimings across
        // the pool instead.
        let timings = BatchTimings::new();
        let out = self.compile_loop_timed(config, spec, &timings);
        timings.finish();
        out
    }

    fn compile_loop_timed(
        &self,
        config: &PipelineConfig,
        spec: &LoopSpec,
        timings: &BatchTimings,
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

        let allocation = match self.allocate(config, spec, timings) {
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
        // one (see compile_units_with on why reads are rationed).
        let codegen_started = Instant::now();
        let generated = generator.generate(spec, &allocation, &layout);
        let codegen_done = Instant::now();
        timings.record_ns(
            Stage::Codegen,
            codegen_done.duration_since(codegen_started).as_nanos() as u64,
        );
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
            timings.record_ns(Stage::Simulate, codegen_done.elapsed().as_nanos() as u64);
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

    /// Allocates one loop, going through the cache when enabled.
    ///
    /// The cached path mirrors [`Optimizer::allocate_loop`] exactly:
    /// per-pattern cost curves (cached by curve class — the
    /// mirror-invariant cost class on symmetric machines, the exact
    /// canonical form otherwise) feed the register partition, then
    /// each array is allocated with
    /// its granted register count (cached by exact canonical form, so
    /// hits reuse covers *and* concrete update deltas).
    fn allocate(
        &self,
        config: &PipelineConfig,
        spec: &LoopSpec,
        timings: &BatchTimings,
    ) -> Result<LoopAllocation, LoopFailure> {
        // The effective options price the machine's modify registers
        // (and, being part of every cache key, keep machines differing
        // only in MR count on distinct entries).
        let options = config.effective_options();
        let optimizer = Optimizer::with_options(config.agu, options);
        if !config.caching {
            return timings
                .time(Stage::Allocate, || optimizer.allocate_loop(spec))
                .map_err(|e| LoopFailure::Allocation(e.to_string()));
        }

        let patterns = spec.patterns();
        let k = config.agu.address_registers();
        // Same prechecks (and, via AllocError, the same failure texts)
        // as the uncached Optimizer::allocate_loop path.
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

        let canonicals: Vec<CanonicalPattern> = patterns.iter().map(CanonicalPattern::of).collect();
        // Cache-facing stages time the whole lookup and discriminate by
        // outcome: the compute closure runs only on a miss, so setting a
        // flag inside it routes the sample to the hit or miss histogram.
        // The curve → partition → allocation stages run back to back,
        // so they are timed boundary-to-boundary with one shared clock
        // read per boundary (see compile_units_with).
        let mut mark = Instant::now();
        let mut curves: Vec<Vec<u32>> = Vec::with_capacity(patterns.len());
        for (pattern, canonical) in patterns.iter().zip(&canonicals) {
            let mut missed = false;
            let curve = self
                .cache
                .cost_curve(canonical, range, k, &options, || {
                    missed = true;
                    optimizer.cost_curve(pattern, k)
                })
                .as_ref()
                .clone();
            let now = Instant::now();
            let stage = if missed {
                Stage::CurveMiss
            } else {
                Stage::CurveHit
            };
            timings.record_ns(stage, now.duration_since(mark).as_nanos() as u64);
            mark = now;
            curves.push(curve);
        }
        let grants = partition::distribute_registers(&curves, k);
        let now = Instant::now();
        timings.record_ns(Stage::Partition, now.duration_since(mark).as_nanos() as u64);
        mark = now;
        let grants = grants.map_err(|e| LoopFailure::Allocation(e.to_string()))?;

        let mut per_array = Vec::with_capacity(patterns.len());
        for ((pattern, canonical), &granted) in patterns.iter().zip(&canonicals).zip(&grants) {
            let mut missed = false;
            let allocation = self
                .cache
                .allocation(canonical, range, granted, &options, || {
                    missed = true;
                    optimizer.allocate_with_registers(pattern, granted)
                });
            let now = Instant::now();
            let stage = if missed {
                Stage::AllocMiss
            } else {
                Stage::AllocHit
            };
            timings.record_ns(stage, now.duration_since(mark).as_nanos() as u64);
            mark = now;
            // Zero-clone hit path: the Arc handed out by the cache
            // goes straight into the LoopAllocation, so a warm hit
            // is a pointer bump — covers, distance models and phase
            // reports are shared with the cache, never deep-copied.
            per_array.push((pattern.array(), allocation));
        }
        Ok(LoopAllocation::from_parts(
            per_array,
            grants,
            options.cost_model,
        ))
    }
}

/// `true` once `deadline` has passed; `None` never expires.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|deadline| Instant::now() >= deadline)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn cached_and_uncached_runs_agree() {
        let source = "for (i = 0; i < 32; i++) { acc += a[i] * b[8 * i]; }
            for (j = 2; j < 100; j++) {
                s1 = A[j+1]; s2 = A[j]; s3 = A[j+2]; s4 = A[j-1];
                s5 = A[j+1]; s6 = A[j]; s7 = A[j-2];
            }
            for (k = 16; k > 0; k--) { z[k] = z[k] + w[16 - k]; }";
        let agu = AguSpec::new(3, 1).unwrap();
        let mut cold_config = PipelineConfig::new(agu);
        cold_config.caching = false;
        cold_config.parallelism = Parallelism::Sequential;
        let cold = Pipeline::with_config(cold_config)
            .compile_str("unit", source)
            .unwrap();
        let warm_pipeline = Pipeline::new(agu);
        // Run twice so the second pass is all hits; results must agree
        // with each other and with the uncached run.
        let warm1 = warm_pipeline.compile_str("unit", source).unwrap();
        let warm2 = warm_pipeline.compile_str("unit", source).unwrap();
        for (a, b) in cold.loops().zip(warm1.loops()) {
            assert_eq!(a, b, "cold vs warm first pass");
        }
        for (a, b) in warm1.loops().zip(warm2.loops()) {
            assert_eq!(a, b, "first vs second warm pass");
        }
        let stats = warm_pipeline.cache_stats();
        assert!(stats.allocation_hits > 0);
    }

    #[test]
    fn shifted_suite_units_compile_cold_and_warm() {
        // Units that each repeat the kernel suite (hits by key
        // equality) plus a loop at per-unit base offsets (hits through
        // shift normalization) compile without a failure, with the
        // cache off, on a cold cache and all-hits on a warm one.
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
        let config = |caching| {
            let mut config = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
            config.caching = caching;
            config.validation_iterations = 4;
            config
        };
        let uncached = Pipeline::with_config(config(false))
            .compile_units(&units)
            .unwrap();
        assert_eq!(uncached.loop_count(), 2 * (raco_kernels::suite().len() + 1));
        assert_eq!(uncached.failed(), 0, "{}", uncached.render_table());
        let warm = Pipeline::with_config(config(true));
        let primed = warm.compile_units(&units).unwrap();
        assert_eq!(primed.failed(), 0, "{}", primed.render_table());
        let misses = warm.cache_stats().allocation_misses;
        let replay = warm.compile_units(&units).unwrap();
        assert_eq!(replay.failed(), 0, "{}", replay.render_table());
        assert_eq!(warm.cache_stats().allocation_misses, misses);
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
        let report = pipeline(3).compile_path(&dir).unwrap();
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
            .compile_path(Path::new("/nonexistent/raco/source.dsp"))
            .unwrap_err();
        assert!(matches!(err, DriverError::Io { .. }));
        let empty = std::env::temp_dir().join(format!("raco-driver-empty-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        let err = pipeline(2).compile_path(&empty).unwrap_err();
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
        assert!(
            !stages.contains(&"allocate"),
            "cached batch never runs the uncached stage"
        );
        let parse = cold.timings.iter().find(|t| t.stage == "parse").unwrap();
        assert_eq!(parse.calls, 1);
        assert!(parse.total_ns > 0);
        assert!(parse.p50_ns <= parse.max_ns);

        // A warm identical batch allocates through cache hits.
        let warm = pipeline.compile_str("unit", source).unwrap();
        let warm_stages: Vec<&str> = warm.timings.iter().map(|t| t.stage).collect();
        assert!(warm_stages.contains(&"alloc_hit"), "{warm_stages:?}");
        assert!(!warm_stages.contains(&"alloc_miss"), "{warm_stages:?}");

        // Uncached runs time whole-loop allocation instead.
        let mut uncached_config = pipeline.config().clone();
        uncached_config.caching = false;
        let uncached = pipeline
            .compile_units_with(&uncached_config, &[("u".to_owned(), source.to_owned())])
            .unwrap();
        let uncached_stages: Vec<&str> = uncached.timings.iter().map(|t| t.stage).collect();
        assert!(uncached_stages.contains(&"allocate"), "{uncached_stages:?}");
        assert!(
            !uncached_stages.contains(&"alloc_hit"),
            "{uncached_stages:?}"
        );
    }

    #[test]
    fn pipeline_is_shareable_across_threads() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pipeline>();
        assert_send_sync::<PipelineConfig>();
        assert_send_sync::<DriverError>();
    }
}
