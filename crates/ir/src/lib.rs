//! # raco-ir — loop IR, front-end DSL and machine model
//!
//! This crate is the front end of the **raco** project, a reproduction of
//! *"Register-Constrained Address Computation in DSP Programs"* (Basu,
//! Leupers, Marwedel — DATE 1998). It defines everything the optimizer
//! consumes:
//!
//! * [`LoopSpec`] — a single innermost loop with a fixed sequence of array
//!   accesses, each with a constant offset with respect to the loop
//!   variable (the paper's *access pattern*),
//! * [`AccessPattern`] — the per-array projection of a loop's accesses that
//!   the allocation algorithms operate on,
//! * [`AguSpec`] — the address-generation-unit machine model (number of
//!   address registers `K`, auto-modify range `M`, optional modify
//!   registers),
//! * [`dsl`] — a small C-like language for writing loops as text,
//! * [`trace`] — reference address traces used to validate generated
//!   address code,
//! * [`canonical`] — shift-normalized pattern forms, the keys of the
//!   driver's allocation cache, and
//! * [`examples`] — canned loops, including the exact running example of
//!   the paper (Section 2, Figure 1).
//!
//! ## Quick example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use raco_ir::{dsl, AguSpec};
//!
//! let spec = dsl::parse_loop(
//!     "for (i = 2; i <= 100; i++) {
//!          y[i] = y[i] + a[i + 1] * a[i - 1];
//!      }",
//! )?;
//! let patterns = spec.patterns();
//! assert_eq!(patterns.len(), 2); // arrays `y` and `a`
//!
//! let agu = AguSpec::new(4, 1)?; // K = 4 address registers, |d| <= 1 free
//! assert_eq!(agu.address_registers(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! ## Canonicalization
//!
//! The allocation algorithms only see offset *differences*, so two
//! patterns that differ by a constant shift are the same allocation
//! problem. [`CanonicalPattern`] is the cache key that makes a batch
//! driver (or a long-lived `raco serve` process) exploit that:
//!
//! ```
//! use raco_ir::{AccessPattern, CanonicalPattern};
//!
//! // The same three-tap chain at two different base offsets …
//! let near = AccessPattern::from_offsets(&[0, -1, -2], 1);
//! let far = AccessPattern::from_offsets(&[40, 39, 38], 1);
//! // … is one cache entry, whose key is plain data, the same in every
//! // process:
//! assert_eq!(CanonicalPattern::of(&near), CanonicalPattern::of(&far));
//! assert_eq!(CanonicalPattern::of(&far).offsets(), &[0, -1, -2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod canonical;
pub mod dsl;
pub mod examples;
pub mod machine;
pub mod model;
pub mod pretty;
pub mod trace;

pub use canonical::CanonicalPattern;
pub use machine::{
    AguSpec, CostTable, MachineDescription, MachineParseError, SpecError, UpdateRange,
    MAX_INSTRUCTION_COST, MAX_MACHINE_REGISTERS,
};
pub use model::{
    Access, AccessKind, AccessPattern, ArrayId, ArrayInfo, IrError, LoopNest, LoopSpec, NestLevel,
    PatternAccess,
};
pub use trace::{MemoryLayout, Trace, TraceEntry};
