//! Per-server request accounting behind the `metrics` protocol op.
//!
//! Every [`Server`](crate::Server) owns one [`ServiceMetrics`]: an
//! [`raco_obs::Registry`] whose counters and histograms are keyed by
//! protocol op name, plus the service start time and an in-flight
//! gauge. Request latency covers the whole `handle_line` round trip —
//! parse, dispatch, compile, render — so the per-op histograms answer
//! "what does a `compile` cost end to end", while the registry in
//! [`raco_obs::global()`] (surfaced here as `pipeline_us`) breaks the
//! same wall time down by pipeline stage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use raco_driver::json::Json;
use raco_driver::CacheStats;
use raco_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

use crate::protocol;

/// Op label for request lines that never decoded into a [`Request`]
/// (malformed JSON, unknown ops, oversized lines…).
///
/// [`Request`]: crate::Request
pub(crate) const INVALID_OP: &str = "invalid";

/// Every op label [`ServiceMetrics::finish`] can be called with, hot
/// ops first: handles are pre-resolved per label so the per-request
/// path never takes the registry lock.
const OP_LABELS: [&str; 9] = [
    "compile",
    "kernels",
    "stats",
    "metrics",
    "clear_cache",
    "save_cache",
    "ping",
    "shutdown",
    INVALID_OP,
];

/// Request counters, latency histograms and the in-flight gauge for one
/// server, all keyed by protocol op name.
#[derive(Debug)]
pub(crate) struct ServiceMetrics {
    registry: Registry,
    started: Instant,
    in_flight: Arc<Gauge>,
    /// Pre-resolved (counter, histogram) handle per [`OP_LABELS`] entry.
    ops: [(Arc<Counter>, Arc<Histogram>); OP_LABELS.len()],
    /// Connections refused by the `--max-connections` bound. Plain
    /// atomics rather than registry counters: [`total_requests`] sums
    /// every registry counter, and a shed connection never became a
    /// request.
    ///
    /// [`total_requests`]: Self::total_requests
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
        let registry = Registry::new();
        let in_flight = registry.gauge("in_flight");
        let ops = std::array::from_fn(|i| {
            (
                registry.counter(OP_LABELS[i]),
                registry.histogram(OP_LABELS[i]),
            )
        });
        ServiceMetrics {
            registry,
            started: Instant::now(),
            in_flight,
            ops,
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
        self.in_flight.inc();
    }

    /// Marks the request done: counts it under `op` and records its
    /// end-to-end latency (nanoseconds) into the op's histogram.
    pub(crate) fn finish(&self, op: &str, elapsed_ns: u64) {
        match OP_LABELS.iter().position(|label| *label == op) {
            Some(index) => {
                let (counter, histogram) = &self.ops[index];
                counter.inc();
                histogram.record(elapsed_ns);
            }
            // Unreachable for the labels the server hands out, but a
            // novel label must still be counted, not dropped.
            None => {
                self.registry.counter(op).inc();
                self.registry.histogram(op).record(elapsed_ns);
            }
        }
        self.in_flight.dec();
    }

    /// Milliseconds since the server was constructed.
    pub(crate) fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Requests finished so far, across every op.
    pub(crate) fn total_requests(&self) -> u64 {
        self.registry.counters().iter().map(|(_, n)| n).sum()
    }

    /// The service fields appended to the `stats` response, after the
    /// cache counters.
    pub(crate) fn stats_fields(&self) -> Vec<(String, Json)> {
        let by_op: Vec<(String, Json)> = self
            .registry
            .counters()
            .into_iter()
            .map(|(op, n)| (op, Json::UInt(n)))
            .collect();
        vec![
            ("uptime_ms".to_owned(), Json::UInt(self.uptime_ms())),
            (
                "requests_total".to_owned(),
                Json::UInt(self.total_requests()),
            ),
            ("requests_by_op".to_owned(), Json::Obj(by_op)),
        ]
    }

    /// The full `metrics` response payload: uptime, request counts,
    /// per-op latency quantiles, accumulated pipeline stage timings
    /// (from [`raco_obs::global()`]), shed/deadline/internal-error
    /// counters and the cache's hit/eviction rates.
    pub(crate) fn payload(&self, cache: &CacheStats) -> Json {
        let by_op: Vec<(String, Json)> = self
            .registry
            .counters()
            .into_iter()
            .map(|(op, n)| (op, Json::UInt(n)))
            .collect();
        let latency: Vec<(String, Json)> = self
            .registry
            .histograms()
            .into_iter()
            .filter(|(_, snapshot)| snapshot.count > 0)
            .map(|(op, snapshot)| (op, histogram_json(&snapshot)))
            .collect();
        let pipeline: Vec<(String, Json)> = raco_obs::global()
            .histograms()
            .into_iter()
            .filter(|(_, snapshot)| snapshot.count > 0)
            .map(|(name, snapshot)| (name, histogram_json(&snapshot)))
            .collect();
        Json::Obj(vec![
            ("uptime_ms".to_owned(), Json::UInt(self.uptime_ms())),
            (
                "requests".to_owned(),
                Json::Obj(vec![
                    ("total".to_owned(), Json::UInt(self.total_requests())),
                    ("in_flight".to_owned(), Json::Int(self.in_flight.get())),
                    ("by_op".to_owned(), Json::Obj(by_op)),
                ]),
            ),
            ("latency_us".to_owned(), Json::Obj(latency)),
            ("pipeline_us".to_owned(), Json::Obj(pipeline)),
            (
                "shed".to_owned(),
                Json::Obj(vec![
                    (
                        "connections".to_owned(),
                        Json::UInt(self.shed_connections.load(Ordering::Relaxed)),
                    ),
                    (
                        "queue".to_owned(),
                        Json::UInt(self.shed_queue.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "deadlines".to_owned(),
                Json::Obj(vec![
                    (
                        "read".to_owned(),
                        Json::UInt(self.read_deadlines.load(Ordering::Relaxed)),
                    ),
                    (
                        "compute".to_owned(),
                        Json::UInt(self.compute_deadlines.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "errors".to_owned(),
                Json::Obj(vec![(
                    "internal".to_owned(),
                    Json::UInt(self.internal_errors.load(Ordering::Relaxed)),
                )]),
            ),
            ("cache".to_owned(), protocol::stats_json(cache)),
        ])
    }
}

/// One latency histogram as JSON: exact count/total plus estimated
/// quantiles, durations converted from nanoseconds to microseconds.
fn histogram_json(snapshot: &HistogramSnapshot) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1000.0);
    Json::Obj(vec![
        ("count".to_owned(), Json::UInt(snapshot.count)),
        ("total_us".to_owned(), us(snapshot.sum)),
        ("p50_us".to_owned(), us(snapshot.quantile(0.50))),
        ("p95_us".to_owned(), us(snapshot.quantile(0.95))),
        ("p99_us".to_owned(), us(snapshot.quantile(0.99))),
        ("max_us".to_owned(), us(snapshot.max)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_counts_and_times_per_op() {
        let metrics = ServiceMetrics::new();
        metrics.begin();
        metrics.finish("ping", 1_000);
        metrics.begin();
        metrics.finish("compile", 5_000);
        assert_eq!(metrics.total_requests(), 2);
        assert_eq!(metrics.in_flight.get(), 0);
        let payload = metrics.payload(&CacheStats::default());
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
        assert_eq!(compile.get("total_us"), Some(&Json::Num(5.0)));
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
        let payload = metrics.payload(&CacheStats::default());
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
    fn stats_fields_carry_uptime_and_counts() {
        let metrics = ServiceMetrics::new();
        metrics.begin();
        metrics.finish("stats", 100);
        let fields = metrics.stats_fields();
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["uptime_ms", "requests_total", "requests_by_op"]);
        assert_eq!(fields[1].1, Json::UInt(1));
    }
}
