//! # raco-serve — a long-lived compile service over one warm cache
//!
//! Batch compilation (`raco compile`, `raco kernels`) throws its warm
//! allocation cache away when the process exits; real addressing
//! workloads keep coming back with the same access-pattern shapes.
//! This crate keeps one [`Pipeline`](raco_driver::Pipeline) alive
//! behind a newline-delimited JSON protocol ([`protocol`]) served over
//! stdio or TCP ([`server`]), so every request — across clients and
//! connections — amortizes the same two-phase allocation work. Each
//! compile runs on the thread that read its request, against that one
//! pipeline: there is no queue and no worker handoff, and a panic or
//! an expired compute deadline costs one named error reply. Pair it
//! with [`CachePolicy::Bounded`](raco_driver::CachePolicy) so
//! unbounded traffic cannot grow memory without limit.
//!
//! Every reply, the `stats` and `metrics` payloads included, is written
//! field by field through [`raco_driver::json::Writer`] into a buffer
//! the connection keeps. A source nesting deeper than
//! [`raco_ir::dsl::MAX_NESTING_DEPTH`] levels costs one error reply.
//!
//! ## Example
//!
//! A server is a plain value; both transports run one session loop
//! around [`Server::handle_line`], which you can also call directly:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use raco_serve::Server;
//! use raco_driver::{CachePolicy, PipelineConfig};
//! use raco_ir::AguSpec;
//!
//! let mut config = PipelineConfig::new(AguSpec::new(4, 1)?);
//! config.cache_policy = CachePolicy::Bounded(4096);
//! let server = Server::new(config);
//!
//! // Two identical requests: the second hits the shared warm cache
//! // and compiles to the same result (only timings/counters differ).
//! use raco_driver::json::Json;
//! let request = r#"{"op": "compile",
//!                   "source": "for (i = 0; i < 64; i++) { y[i] = x[i-1] + x[i]; }"}"#;
//! let first = Json::parse(&server.handle_line(request).line)?;
//! let second = Json::parse(&server.handle_line(request).line)?;
//! assert_eq!(
//!     first.get("report").and_then(|r| r.get("units")),
//!     second.get("report").and_then(|r| r.get("units")),
//! );
//!
//! let stats = server.pipeline().cache_stats();
//! assert!(stats.allocation_hits > 0);
//! # Ok(())
//! # }
//! ```
//!
//! Over a transport the exchange is the same, one JSON line each way:
//!
//! ```text
//! → {"id": 1, "op": "compile", "source": "for (i = 0; i < 8; i++) { s += x[i]; }"}
//! ← {"id":1,"ok":true,"report":{…}}
//! → {"id": 2, "op": "stats"}
//! ← {"id":2,"ok":true,"stats":{"allocation_hits":1,…}}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;
pub mod protocol;
pub mod server;

pub use metrics::write_histogram;
pub use protocol::{Envelope, Knobs, ProtocolError, Request};
pub use server::{
    Reply, ServeOptions, Server, DEFAULT_MAX_CONNECTIONS, DEFAULT_QUEUE_DEPTH, MAX_REQUEST_LINE,
};
