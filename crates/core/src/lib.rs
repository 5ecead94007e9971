//! # raco-core — register-constrained address-register allocation
//!
//! The paper's contribution (*"Register-Constrained Address Computation in
//! DSP Programs"*, Basu/Leupers/Marwedel, DATE 1998, Section 3): given a
//! loop access pattern and an AGU with `K` address registers and
//! auto-modify range `M`, minimize the number of unit-cost address
//! computations per iteration. The algorithm has two phases:
//!
//! 1. **Phase 1** ([`phase1`]): compute the minimum number `K̃` of
//!    *virtual* registers admitting a completely zero-cost addressing
//!    scheme (exact branch-and-bound over path covers, inter-iteration
//!    dependencies included). If `K̃ <= K` the allocation is free.
//! 2. **Phase 2** ([`phase2`]): otherwise merge paths — always the pair
//!    whose merge `P_i ⊕ P_j` is cheapest — until only `K` paths remain.
//!
//! The crate also provides the paper's evaluation baseline (*naive*
//! allocation: merge arbitrary paths), a worst-case strategy, an exact
//! optimal allocator for small instances ([`exact`]), seeded random
//! pattern generation ([`random`]) for the statistical experiment, and a
//! register-partitioning pass for loops that access several arrays
//! ([`partition`]).
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use raco_core::Optimizer;
//! use raco_ir::{examples, AguSpec};
//!
//! let spec = examples::paper_loop();
//! let pattern = &spec.patterns()[0];
//!
//! // The example needs K̃ = 3 virtual registers for zero cost; with only
//! // K = 2 physical registers one merge is necessary.
//! let alloc = Optimizer::new(AguSpec::new(2, 1)?).allocate(pattern);
//! assert_eq!(alloc.virtual_registers(), 3);
//! assert_eq!(alloc.register_count(), 2);
//! assert!(alloc.cost() >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod anneal;
mod cost;
pub mod exact;
mod optimizer;
pub mod partition;
pub mod phase1;
pub mod phase2;
pub mod random;
mod report;

pub use cost::CostModel;
pub use optimizer::{
    AllocError, Allocation, AllocationMemo, LoopAllocation, Optimizer, OptimizerOptions,
};
pub use phase1::{Phase1Outcome, Phase1Report};
pub use phase2::{MergeRecord, MergeStrategy, Phase2Report};
pub use report::AllocationReport;
