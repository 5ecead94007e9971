//! # raco-driver — end-to-end batch compilation pipeline
//!
//! The seed crates of this workspace each solve one layer of
//! *"Register-Constrained Address Computation in DSP Programs"* (Basu,
//! Leupers, Marwedel — DATE 1998): IR and DSL (`raco-ir`), path covers
//! (`raco-graph`), the two-phase allocator (`raco-core`), address-code
//! generation and simulation (`raco-agu`). This crate is the subsystem
//! that takes whole programs *through* that stack:
//!
//! * [`Pipeline`] — accepts DSL sources (strings, files or whole
//!   directories), fans their loops out across a scoped worker pool
//!   ([`pool`]), allocates, generates code and simulator-validates
//!   every loop, and assembles a structured [`CompilationReport`]
//!   (JSON and aligned-table renderings).
//! * [`AllocationCache`] — the hot path. Access patterns are
//!   canonicalized ([`raco_ir::canonical`]) so identical shapes across
//!   loops, units and requests hit a sharded concurrent memo instead
//!   of re-running branch-and-bound; cost curves additionally share
//!   entries between mirror-image patterns. The pipeline hands the
//!   cache to [`raco_core::Optimizer::allocate_patterns`] as its memo,
//!   so the allocator itself runs in one place. Long-lived pipelines
//!   can bound the tables with [`CachePolicy::Bounded`] (FIFO eviction).
//! * [`persist`] — cache snapshots. The warm cache serializes to a
//!   dependency-free, checksummed binary file and restores entry by
//!   entry in a later process ([`Pipeline::save_cache`] /
//!   [`Pipeline::load_cache`], `raco … --cache-save/--cache-load`), so
//!   a restart is a warm boot instead of a cold start.
//! * [`json`] — the dependency-free JSON reader/writer behind report
//!   rendering and the `raco-serve` wire protocol.
//!
//! The pipeline is `Sync` and every `compile_*` method takes `&self`,
//! so one instance (and its warm cache) can serve many threads,
//! requests and connections; `raco-serve` is exactly that, with
//! [`Pipeline::compile_units_with`] applying per-request configuration
//! over the shared cache.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use raco_driver::Pipeline;
//! use raco_ir::AguSpec;
//!
//! let pipeline = Pipeline::new(AguSpec::new(4, 1)?);
//! let report = pipeline.compile_kernels(); // the whole DSP suite
//! assert_eq!(report.failed(), 0);
//! println!("{}", report.render_table());
//! # Ok(())
//! # }
//! ```
//!
//! A service-shaped pipeline bounds its cache and watches it work:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use raco_driver::{CachePolicy, Pipeline, PipelineConfig};
//! use raco_ir::AguSpec;
//!
//! let mut config = PipelineConfig::new(AguSpec::new(4, 1)?);
//! config.cache_policy = CachePolicy::Bounded(4096);
//! let pipeline = Pipeline::with_config(config);
//!
//! let source = "for (i = 0; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }";
//! pipeline.compile_str("first", source)?;
//! let warm = pipeline.compile_str("second", source)?; // identical shape: all hits
//! assert!(warm.cache.allocation_hits > 0);
//! assert_eq!(warm.cache.allocation_evictions, 0); // far below the bound
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod json;
pub mod persist;
pub mod pipeline;
pub mod pool;
pub mod report;
pub mod timings;

pub use cache::{AllocationCache, CachePolicy, CacheStats};
pub use json::{Json, JsonParseError};
pub use persist::{LoadReport, PersistError, SaveReport};
pub use pipeline::{
    DriverError, Pipeline, PipelineConfig, MAX_VALIDATION_ITERATIONS, NEST_VALIDATION_CAP,
    SOURCE_EXTENSIONS,
};
pub use pool::Parallelism;
pub use report::{CompilationReport, LoopFailure, LoopReport, UnitReport};
pub use timings::StageTiming;
