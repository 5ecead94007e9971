//! # raco — Register-constrained Address Computation Optimization
//!
//! A production-quality reproduction of *"Register-Constrained Address
//! Computation in DSP Programs"* (Anupam Basu, Rainer Leupers, Peter
//! Marwedel — **DATE 1998**).
//!
//! DSP address-generation units (AGUs) update address registers in
//! parallel with the data path, but only within a bounded auto-modify
//! range `M`. Given a loop whose body performs a fixed sequence of array
//! accesses and a machine with `K` address registers, **raco** allocates
//! accesses to registers so that the number of extra (unit-cost) address
//! computation instructions per iteration is minimized — the paper's
//! two-phase algorithm: an exact minimum zero-cost path cover (the number
//! of *virtual* registers `K̃`), followed by greedy minimum-cost path
//! merging down to `K` physical registers.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`ir`] | `raco-ir` | loop IR, C-like DSL, machine model, traces |
//! | [`graph`] | `raco-graph` | distance graph, path covers, matching, branch-and-bound |
//! | [`core`] | `raco-core` | the two-phase allocator, merge strategies, exact oracle |
//! | [`agu`] | `raco-agu` | address code generation, listings, simulator, modify registers |
//! | [`check`] | `raco-check` | declarative listing invariants — the second correctness oracle |
//! | [`oa`] | `raco-oa` | offset assignment for scalars (SOA/GOA, refs \[4,5\]) |
//! | [`kernels`] | `raco-kernels` | DSPstone-style kernel suite |
//! | [`obs`] | `raco-obs` | dependency-free metrics: one registry of named latency histograms |
//! | [`driver`] | `raco-driver` | batch pipeline: parallel scheduling, allocation cache, reports |
//! | [`serve`] | `raco-serve` | long-lived compile service: NDJSON protocol over stdio/TCP |
//! | [`client`] | (this crate) | a spawned `raco serve` child and framed NDJSON connections to it |
//! | [`fuzz`] | (this crate) | budgeted adversarial long-runner driving the real `raco serve` binary |
//! | [`loadgen`] | (this crate) | mixed-machine trace load generator benchmarking the serve tier |
//!
//! ## Quickstart
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use raco::core::Optimizer;
//! use raco::ir::AguSpec;
//!
//! // The paper's running example (Section 2, Figure 1):
//! let spec = raco::ir::examples::paper_loop();
//! let pattern = &spec.patterns()[0];
//!
//! // A machine with M = 1 and K = 2 address registers:
//! let agu = AguSpec::new(2, 1)?;
//!
//! let allocation = Optimizer::new(agu).allocate(pattern);
//! println!(
//!     "K̃ = {}, cost with K = 2: {} unit-cost computations/iteration",
//!     allocation.virtual_registers(),
//!     allocation.cost()
//! );
//! # Ok(())
//! # }
//! ```
//!
//! See `EXPERIMENTS.md` in the repository for the full paper-reproduction
//! harness (Figure 1, the ~40 % statistical result, kernel code-size/speed
//! tables and ablations).

#![forbid(unsafe_code)]

pub use raco_agu as agu;
pub use raco_check as check;
pub use raco_core as core;
pub use raco_driver as driver;
pub use raco_graph as graph;
pub use raco_ir as ir;
pub use raco_kernels as kernels;
pub use raco_oa as oa;
pub use raco_obs as obs;
pub use raco_serve as serve;

pub mod client;
pub mod fuzz;
pub mod loadgen;
