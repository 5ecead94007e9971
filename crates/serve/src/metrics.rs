//! Per-server request accounting behind the `metrics` protocol op.
//!
//! Every [`Server`](crate::Server) owns one [`ServiceMetrics`]: one
//! latency [`Histogram`] per protocol [`Op`] in a fixed array, plus the
//! service start time and plain atomics for the in-flight level and the
//! shed/deadline/internal-error counts. An op's request count is its
//! histogram's exact `count`. Request latency covers the whole
//! `handle_line` round trip — parse, dispatch, compile, render — so the
//! per-op histograms answer "what does a `compile` cost end to end",
//! while the registry in [`raco_obs::global()`] (surfaced here as
//! `pipeline_us`) breaks the same wall time down by pipeline stage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use raco_driver::json::Writer;
use raco_driver::CacheStats;
use raco_obs::{Histogram, HistogramSnapshot};

use crate::protocol::{self, Request};

/// The op a request line is accounted under. Variants are in label
/// order, so iterating [`Op::ALL`] lists `by_op` and `latency_us`
/// entries alphabetically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    ClearCache,
    Compile,
    /// A request line that never decoded into a [`Request`] (malformed
    /// JSON, unknown ops, oversized lines…).
    Invalid,
    Kernels,
    Metrics,
    Ping,
    SaveCache,
    Shutdown,
    Stats,
}

impl Op {
    const ALL: [Op; 9] = [
        Op::ClearCache,
        Op::Compile,
        Op::Invalid,
        Op::Kernels,
        Op::Metrics,
        Op::Ping,
        Op::SaveCache,
        Op::Shutdown,
        Op::Stats,
    ];

    /// The op a decoded request is accounted under.
    pub(crate) fn of(request: &Request) -> Op {
        match request {
            Request::Compile { .. } => Op::Compile,
            Request::Kernels { .. } => Op::Kernels,
            Request::Stats => Op::Stats,
            Request::Metrics => Op::Metrics,
            Request::ClearCache => Op::ClearCache,
            Request::SaveCache { .. } => Op::SaveCache,
            Request::Ping => Op::Ping,
            Request::Shutdown => Op::Shutdown,
        }
    }

    /// The op's key in `by_op`, `requests_by_op` and `latency_us`.
    fn label(self) -> &'static str {
        match self {
            Op::ClearCache => "clear_cache",
            Op::Compile => "compile",
            Op::Invalid => "invalid",
            Op::Kernels => "kernels",
            Op::Metrics => "metrics",
            Op::Ping => "ping",
            Op::SaveCache => "save_cache",
            Op::Shutdown => "shutdown",
            Op::Stats => "stats",
        }
    }
}

/// Per-op latency histograms and the service counters for one server.
#[derive(Debug)]
pub(crate) struct ServiceMetrics {
    started: Instant,
    /// One latency histogram per op, indexed by `Op as usize`.
    ops: [Histogram; Op::ALL.len()],
    /// Requests between [`begin`](Self::begin) and
    /// [`finish`](Self::finish).
    in_flight: AtomicU64,
    /// Connections refused by the `--max-connections` bound. A shed
    /// connection never became a request, so no op counts it.
    shed_connections: AtomicU64,
    /// Compiles refused because `queue_depth` compiles were already in
    /// flight.
    shed_queue: AtomicU64,
    /// Connections closed for not completing a request within the read
    /// deadline.
    read_deadlines: AtomicU64,
    /// Requests whose compile outran the compute deadline.
    compute_deadlines: AtomicU64,
    /// Compiles that panicked and were answered with `internal`.
    internal_errors: AtomicU64,
}

impl ServiceMetrics {
    pub(crate) fn new() -> Self {
        ServiceMetrics {
            started: Instant::now(),
            ops: std::array::from_fn(|_| Histogram::new()),
            in_flight: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            read_deadlines: AtomicU64::new(0),
            compute_deadlines: AtomicU64::new(0),
            internal_errors: AtomicU64::new(0),
        }
    }

    /// Counts one connection refused at the `--max-connections` bound.
    pub(crate) fn note_shed_connection(&self) {
        self.shed_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one compile shed at the in-flight bound.
    pub(crate) fn note_shed_queue(&self) {
        self.shed_queue.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection reaped by the read deadline.
    pub(crate) fn note_read_deadline(&self) {
        self.read_deadlines.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one compile that outran the compute deadline.
    pub(crate) fn note_compute_deadline(&self) {
        self.compute_deadlines.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one compile that panicked.
    pub(crate) fn note_internal(&self) {
        self.internal_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests/connections shed (queue + connection cap).
    #[cfg(test)]
    pub(crate) fn total_shed(&self) -> u64 {
        self.shed_connections.load(Ordering::Relaxed) + self.shed_queue.load(Ordering::Relaxed)
    }

    /// Marks one request as entering the service.
    pub(crate) fn begin(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the request done: records its end-to-end latency
    /// (nanoseconds) into `op`'s histogram, which also counts it.
    pub(crate) fn finish(&self, op: Op, elapsed_ns: u64) {
        self.ops[op as usize].record(elapsed_ns);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Milliseconds since the server was constructed.
    pub(crate) fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Writes the requests finished so far per op into an open object,
    /// every op listed, in label order.
    fn write_by_op(&self, w: &mut Writer<'_>) {
        for op in Op::ALL {
            w.key(op.label()).uint(self.ops[op as usize].count());
        }
    }

    /// Requests finished so far, across every op.
    pub(crate) fn total_requests(&self) -> u64 {
        self.ops.iter().map(Histogram::count).sum()
    }

    /// Writes the service fields of the `stats` payload, which follow
    /// the cache counters.
    pub(crate) fn write_stats_fields(&self, w: &mut Writer<'_>) {
        w.key("uptime_ms").uint(self.uptime_ms());
        w.key("requests_total").uint(self.total_requests());
        w.key("requests_by_op").object(|w| self.write_by_op(w));
    }

    /// Writes the fields of the `metrics` payload: uptime, request
    /// counts, per-op latency quantiles, accumulated pipeline stage
    /// timings (from [`raco_obs::global()`]), shed/deadline/internal-error
    /// counters and the cache's hit/eviction rates.
    pub(crate) fn write_metrics(&self, w: &mut Writer<'_>, cache: &CacheStats) {
        let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        w.key("uptime_ms").uint(self.uptime_ms());
        w.key("requests").object(|w| {
            w.key("total").uint(self.total_requests());
            w.key("in_flight").uint(count(&self.in_flight));
            w.key("by_op").object(|w| self.write_by_op(w));
        });
        w.key("latency_us").object(|w| {
            for op in Op::ALL {
                let snapshot = self.ops[op as usize].snapshot();
                if snapshot.count > 0 {
                    write_histogram(w.key(op.label()), &snapshot);
                }
            }
        });
        w.key("pipeline_us").object(|w| {
            for (name, snapshot) in raco_obs::global().histograms() {
                if snapshot.count > 0 {
                    write_histogram(w.key(&name), &snapshot);
                }
            }
        });
        w.key("shed").object(|w| {
            w.key("connections").uint(count(&self.shed_connections));
            w.key("queue").uint(count(&self.shed_queue));
        });
        w.key("deadlines").object(|w| {
            w.key("read").uint(count(&self.read_deadlines));
            w.key("compute").uint(count(&self.compute_deadlines));
        });
        w.key("errors")
            .object(|w| w.key("internal").uint(count(&self.internal_errors)));
        w.key("cache").object(|w| protocol::write_stats(w, cache));
    }
}

/// Writes one latency histogram as an object: exact count/total plus
/// estimated quantiles, durations converted from nanoseconds to
/// microseconds. The serve `metrics` op and `raco loadgen`'s artifact
/// both write histograms through this.
pub fn write_histogram(w: &mut Writer<'_>, snapshot: &HistogramSnapshot) {
    let us = |ns: u64| ns as f64 / 1000.0;
    w.object(|w| {
        w.key("count").uint(snapshot.count);
        w.key("total_us").num(us(snapshot.sum));
        w.key("p50_us").num(us(snapshot.quantile(0.50)));
        w.key("p95_us").num(us(snapshot.quantile(0.95)));
        w.key("p99_us").num(us(snapshot.quantile(0.99)));
        w.key("max_us").num(us(snapshot.max));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_driver::json::Json;

    /// The `metrics` payload, parsed back.
    fn payload(metrics: &ServiceMetrics) -> Json {
        let mut out = String::new();
        Writer::compact(&mut out).object(|w| metrics.write_metrics(w, &CacheStats::default()));
        Json::parse(&out).expect("the payload is valid JSON")
    }

    #[test]
    fn finish_counts_and_times_per_op() {
        let metrics = ServiceMetrics::new();
        metrics.begin();
        metrics.finish(Op::Ping, 1_000);
        metrics.begin();
        metrics.finish(Op::Compile, 5_000);
        assert_eq!(metrics.total_requests(), 2);
        assert_eq!(metrics.in_flight.load(Ordering::Relaxed), 0);
        let payload = payload(&metrics);
        let requests = payload.get("requests").unwrap();
        assert_eq!(requests.get("total").and_then(Json::as_u64), Some(2));
        assert_eq!(
            requests
                .get("by_op")
                .and_then(|o| o.get("compile"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let compile = payload
            .get("latency_us")
            .and_then(|l| l.get("compile"))
            .unwrap();
        assert_eq!(compile.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(compile.get("total_us").and_then(Json::as_u64), Some(5));
    }

    #[test]
    fn shed_and_deadline_counters_stay_out_of_request_totals() {
        let metrics = ServiceMetrics::new();
        metrics.note_shed_connection();
        metrics.note_shed_queue();
        metrics.note_shed_queue();
        metrics.note_read_deadline();
        metrics.note_compute_deadline();
        metrics.note_internal();
        // Sheds and deadline reaps never became requests.
        assert_eq!(metrics.total_requests(), 0);
        assert_eq!(metrics.total_shed(), 3);
        let payload = payload(&metrics);
        let shed = payload.get("shed").expect("shed object");
        assert_eq!(shed.get("connections").and_then(Json::as_u64), Some(1));
        assert_eq!(shed.get("queue").and_then(Json::as_u64), Some(2));
        let deadlines = payload.get("deadlines").expect("deadlines object");
        assert_eq!(deadlines.get("read").and_then(Json::as_u64), Some(1));
        assert_eq!(deadlines.get("compute").and_then(Json::as_u64), Some(1));
        let errors = payload.get("errors").expect("errors object");
        assert_eq!(errors.get("internal").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn by_op_lists_every_op_in_label_order_zeros_included() {
        let metrics = ServiceMetrics::new();
        metrics.begin();
        metrics.finish(Op::Invalid, 10);
        let payload = payload(&metrics);
        let Some(Json::Obj(by_op)) = payload.get("requests").and_then(|r| r.get("by_op")) else {
            panic!("by_op object");
        };
        let names: Vec<&str> = by_op.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "clear_cache",
                "compile",
                "invalid",
                "kernels",
                "metrics",
                "ping",
                "save_cache",
                "shutdown",
                "stats"
            ]
        );
        let counts: Vec<u64> = by_op.iter().filter_map(|(_, n)| n.as_u64()).collect();
        assert_eq!(counts, [0, 0, 1, 0, 0, 0, 0, 0, 0]);
        // Latency rows appear only for ops that saw a request.
        let Some(Json::Obj(latency)) = payload.get("latency_us") else {
            panic!("latency_us object");
        };
        assert_eq!(latency.len(), 1);
        assert_eq!(latency[0].0, "invalid");
    }

    #[test]
    fn stats_fields_carry_uptime_and_counts() {
        let metrics = ServiceMetrics::new();
        metrics.begin();
        metrics.finish(Op::Stats, 100);
        let mut out = String::new();
        Writer::compact(&mut out).object(|w| metrics.write_stats_fields(w));
        let Json::Obj(fields) = Json::parse(&out).expect("valid JSON") else {
            panic!("an object: {out}");
        };
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["uptime_ms", "requests_total", "requests_by_op"]);
        assert_eq!(fields[1].1.as_u64(), Some(1));
    }
}
