//! # raco-graph — the distance-graph model and path-cover algorithms
//!
//! This crate implements Section 2 and Section 3.1 of *"Register-
//! Constrained Address Computation in DSP Programs"* (Basu, Leupers,
//! Marwedel — DATE 1998):
//!
//! * [`DistanceModel`] — address distances between accesses of one
//!   [`AccessPattern`](raco_ir::AccessPattern), inside an iteration and
//!   across the loop back-edge, and the zero-/unit-cost classification
//!   induced by the AGU auto-modify range `M`. It is the one step
//!   relation: Phase 1's matching, bounds and search ask it whether a
//!   step is free, and Phase 2 (`raco-core`) reads its deltas through
//!   [`modify::paid_delta`], each computed from the offsets when asked;
//! * [`AccessGraph`] — the paper's graph `G = (V, E)` (Figure 1), with
//!   intra-iteration and inter-iteration zero-cost edges, exportable to
//!   Graphviz DOT;
//! * [`Path`] and [`PathCover`] — node-disjoint order-preserving paths,
//!   the object both phases of the paper's algorithm manipulate;
//! * [`matching`] — Hopcroft–Karp maximum bipartite matching, giving the
//!   polynomial minimum path cover when inter-iteration (wrap) constraints
//!   are relaxed; this is the paper's lower bound (their ref \[2\]);
//! * [`bounds`] — the matching lower bound and a split-repair heuristic
//!   upper bound on the number of virtual registers `K̃`;
//! * [`bb`] — the exact branch-and-bound minimum **zero-cost** cover
//!   (their ref \[3\]) between those bounds: [`bb::search`] returns the
//!   best cover it found and whether its register count is proved
//!   minimal. `raco-core`'s Phase 1 chains matching, bounds and search,
//!   and falls back to the matching cover when there is no zero-cost
//!   one;
//! * [`brute`] — exhaustive oracles used by tests and ablation
//!   experiments;
//! * [`modify`] — the one step model: [`modify::steps`] walks a
//!   register's `(from, to)` steps (each consecutive pair, then the
//!   wrap into the next iteration), [`modify::step_delta`] gives a
//!   step's post-modify delta and [`modify::paid_delta`] the delta of
//!   a step that needs an explicit update. Every price, every
//!   generated update and every printed delta reads steps through
//!   them; [`Path`] and [`PathCover`] carry no cost of their own;
//! * [`ModifyAllocation`] — frequency-ranked assignment of over-range
//!   deltas to modify registers, shared by the allocator's cost model
//!   (`raco-core`) and code generation (`raco-agu`) so both price the
//!   same machine; the [`modify`] module also holds the
//!   [`DeltaHistogram`] that counts the paid steps, and Phase 2 prices
//!   merge candidates through it.
//!
//! ## Example: Figure 1 of the paper
//!
//! ```
//! use raco_graph::AccessGraph;
//! use raco_ir::examples;
//!
//! let spec = examples::paper_loop();
//! let graph = AccessGraph::build(&spec.patterns()[0], 1);
//! // a_1 (offset 1) → a_3 (offset 2) is a zero-cost edge with M = 1 …
//! assert!(graph.has_intra_edge(0, 2));
//! // … while a_1 (offset 1) → a_4 (offset -1) is not (distance 2 > M).
//! assert!(!graph.has_intra_edge(0, 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bb;
pub mod bounds;
pub mod brute;
mod distance;
mod graph;
pub mod matching;
pub mod modify;
mod path;

pub use bb::BbOptions;
pub use distance::DistanceModel;
pub use graph::AccessGraph;
pub use modify::{DeltaHistogram, ModifyAllocation};
pub use path::{CoverError, Path, PathCover, PathError};
