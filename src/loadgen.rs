//! `raco loadgen` — a load generator for the serve tier.
//!
//! Replays a deterministic **mixed-machine trace** against a live
//! `raco serve` TCP endpoint from many concurrent connections, then
//! writes a schema-versioned benchmark artifact (`BENCH_serve.json`)
//! with end-to-end latency quantiles, connect+first-reply latency,
//! throughput, error counts and the server's own `metrics` payload
//! (cache hit rate, shed and deadline counters), fetched after the run.
//!
//! The trace is what a production addressing workload looks like: a
//! pool of distinct loop shapes sampled with a hot-head skew (a few
//! shapes dominate, a long tail recurs occasionally), each request
//! compiled for one of several machines (`registers`/`modify` knobs
//! vary per request). Every connection compiles against the server's
//! one shared pipeline, so each (shape, machine) pair misses once and
//! then hits from any connection — the aggregate hit rate in the
//! artifact is the direct evidence.
//!
//! By default `loadgen` spawns its own `raco serve --tcp 127.0.0.1:0`
//! child (the binary under test is the binary running loadgen) and
//! shuts it down afterwards; `--tcp <addr>` points it at an already
//! running server instead.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use raco_driver::json::{Json, Writer};
use raco_obs::{Histogram, HistogramSnapshot};
use raco_serve::write_histogram;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::client::{Connection, SpawnedServer, Transport};

/// The artifact's schema tag (`BENCH_serve.json`).
pub const SCHEMA: &str = "raco-bench-serve";
/// The artifact's schema version. Version 2 dropped the per-shard
/// `server.shards` breakdown along with the shards themselves.
pub const SCHEMA_VERSION: u64 = 2;

/// Default number of requests replayed.
pub const DEFAULT_REQUESTS: u64 = 100_000;
/// Default number of concurrent client connections.
pub const DEFAULT_CONNECTIONS: usize = 8;
/// Default number of distinct loop shapes in the trace pool.
pub const DEFAULT_SHAPES: usize = 64;
/// Connect+ping probes measured after the load phase.
const CONNECT_PROBES: usize = 100;

/// The numeric-knob machines the mixed trace cycles through (address
/// registers, auto-modify range) — small enough that every (shape,
/// machine) pair recurs many times over a 100k-request trace, so a
/// warm server is mostly cache hits.
const MACHINES: &[(usize, u32)] = &[(2, 1), (4, 1), (4, 2), (8, 2)];

/// Named machine descriptions mixed into the trace alongside the
/// numeric knobs — the asymmetric-range / non-unit-cost backends
/// (`bwdsp`, `saris`) exercise the description-keyed cache paths under
/// production-shaped load.
const NAMED_MACHINES: &[&str] = &["paper", "dsp56k", "bwdsp", "saris"];

/// What one loadgen run should do.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The `raco` binary to spawn in serve mode when `addr` is `None`.
    pub binary: PathBuf,
    /// Attack an already-running server instead of spawning one.
    pub addr: Option<String>,
    /// Total requests replayed across all connections.
    pub requests: u64,
    /// Concurrent client connections.
    pub connections: usize,
    /// Distinct loop shapes in the trace pool.
    pub shapes: usize,
    /// Master seed: the whole trace is a pure function of it.
    pub seed: u64,
    /// Extra CLI args for the spawned server (deadlines, bounds…).
    /// Ignored when `addr` targets an external server.
    pub server_args: Vec<String>,
    /// Where the benchmark artifact goes.
    pub output: PathBuf,
    /// Label stamped into the artifact.
    pub label: String,
}

impl LoadgenConfig {
    /// A config with the documented defaults for `binary`.
    pub fn new(binary: PathBuf) -> Self {
        LoadgenConfig {
            binary,
            addr: None,
            requests: DEFAULT_REQUESTS,
            connections: DEFAULT_CONNECTIONS,
            shapes: DEFAULT_SHAPES,
            seed: 0x10ad_9e4e,
            server_args: Vec::new(),
            output: PathBuf::from("BENCH_serve.json"),
            label: "local".to_owned(),
        }
    }
}

/// One run's results (everything the artifact serializes, pre-render).
#[derive(Debug)]
pub struct LoadgenReport {
    /// Requests sent (equals the configured total on a clean run).
    pub sent: u64,
    /// `ok:true` replies.
    pub ok: u64,
    /// `ok:false` replies, by `error_kind` (plain `error`s count under
    /// `"error"`).
    pub rejected: BTreeMap<String, u64>,
    /// Connections that died mid-run (I/O errors). Zero on a healthy
    /// server — the serve tier's whole point.
    pub transport_errors: u64,
    /// Wall time of the load phase.
    pub elapsed: Duration,
    /// End-to-end request latency (nanoseconds), merged across workers.
    pub latency: HistogramSnapshot,
    /// Fresh-connection latency: TCP connect through first `ping`
    /// reply, measured after the load phase (this is what the accept
    /// loop's backoff bounds).
    pub connect: HistogramSnapshot,
    /// The server's `metrics` payload, captured after the run.
    pub server_metrics: Option<Json>,
}

impl LoadgenReport {
    /// Requests per second over the load phase.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.sent as f64 / secs
        } else {
            0.0
        }
    }

    /// Total `ok:false` replies.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.values().sum()
    }

    /// The server's aggregate cache hit rate after the run, if the
    /// `metrics` capture succeeded.
    pub fn aggregate_hit_rate(&self) -> Option<f64> {
        as_f64(
            self.server_metrics
                .as_ref()?
                .get("cache")?
                .get("hit_rate")?,
        )
    }

    /// The artifact file's text: the schema-versioned report indented
    /// by two spaces, then a blank line.
    pub fn artifact(&self, config: &LoadgenConfig) -> String {
        let mut out = String::new();
        Writer::pretty(&mut out).object(|w| {
            w.key("schema").str(SCHEMA);
            w.key("version").uint(SCHEMA_VERSION);
            w.key("label").str(&config.label);
            w.key("seed").uint(config.seed);
            w.key("requests").uint(self.sent);
            w.key("connections").uint(config.connections as u64);
            w.key("shapes").uint(config.shapes as u64);
            w.key("elapsed_ms").num(self.elapsed.as_secs_f64() * 1000.0);
            w.key("throughput_rps").num(self.throughput_rps());
            w.key("ok").uint(self.ok);
            w.key("errors").object(|w| {
                w.key("transport").uint(self.transport_errors);
                w.key("rejected").uint(self.rejected_total());
                w.key("by_kind").object(|w| {
                    for (kind, n) in &self.rejected {
                        w.key(kind).uint(*n);
                    }
                });
            });
            write_histogram(w.key("latency_us"), &self.latency);
            write_histogram(w.key("connect_us"), &self.connect);
            if let Some(metrics) = &self.server_metrics {
                w.key("server").value(metrics);
            }
        });
        out.push_str("\n\n");
        out
    }
}

/// An all-zero snapshot (the type has no `Default`).
fn empty_snapshot() -> HistogramSnapshot {
    Histogram::new().snapshot()
}

fn as_f64(json: &Json) -> Option<f64> {
    match json {
        Json::Num(n) => Some(*n),
        Json::UInt(n) => Some(*n as f64),
        Json::Int(n) => Some(*n as f64),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Trace generation
// ---------------------------------------------------------------------

/// Builds the deterministic shape pool: `shapes` distinct single-loop
/// sources over one or two arrays with bounded offsets — the same
/// territory the DSL fuzzer and the kernel suite cover, sized so a
/// compile is cheap but not trivial.
fn shape_pool(shapes: usize, seed: u64) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    (0..shapes)
        .map(|_| {
            let accesses = rng.gen_range(2usize..=5);
            let bound = rng.gen_range(16i64..=96);
            let two_arrays: bool = rng.gen();
            let mut terms = Vec::with_capacity(accesses);
            for a in 0..accesses {
                let offset = rng.gen_range(-8i64..=8);
                let array = if two_arrays && a % 2 == 1 { "h" } else { "x" };
                let index = match offset {
                    0 => "i".to_owned(),
                    o if o > 0 => format!("i+{o}"),
                    o => format!("i-{}", -o),
                };
                terms.push(format!("{array}[{index}]"));
            }
            format!(
                "for (i = 8; i < {bound}; i++) {{ y[i] = {}; }}",
                terms.join(" + ")
            )
        })
        .collect()
}

/// Samples the next trace request as one NDJSON line. Shape choice is
/// hot-head skewed (squaring a uniform sample concentrates mass near
/// index 0) and the machine cycles uniformly through [`MACHINES`] and
/// [`NAMED_MACHINES`] — together a mixed-machine trace with realistic
/// reuse across both knob-shaped and description-shaped requests.
fn trace_line(rng: &mut SmallRng, shapes: &[String], id: u64) -> String {
    let skew: f64 = rng.gen();
    let shape = &shapes[((skew * skew) * shapes.len() as f64) as usize % shapes.len()];
    let choice = rng.gen_range(0usize..MACHINES.len() + NAMED_MACHINES.len());
    let mut line = String::new();
    Writer::compact(&mut line).object(|w| {
        w.key("id").uint(id);
        w.key("op").str("compile");
        w.key("source").str(shape);
        match MACHINES.get(choice) {
            Some(&(registers, modify)) => {
                w.key("registers").uint(registers as u64);
                w.key("modify").uint(u64::from(modify));
            }
            None => w
                .key("machine")
                .str(NAMED_MACHINES[choice - MACHINES.len()]),
        }
    });
    line
}

// ---------------------------------------------------------------------
// The load phase
// ---------------------------------------------------------------------

/// What one worker connection accumulated.
struct WorkerStats {
    sent: u64,
    ok: u64,
    rejected: BTreeMap<String, u64>,
    transport_errors: u64,
    latency: Histogram,
}

/// Worker `w`'s share of the request ids `0..requests` split over
/// `connections` workers, as `(first_id, quota)`: the first
/// `requests % connections` workers send one extra request, and the
/// shares are consecutive, so no two workers send the same id.
fn worker_ids(requests: u64, connections: u64, w: u64) -> (u64, u64) {
    let base_quota = requests / connections;
    let remainder = requests % connections;
    (
        w * base_quota + w.min(remainder),
        base_quota + u64::from(w < remainder),
    )
}

/// Replays `quota` trace requests over one connection.
fn worker(addr: &str, shapes: &[String], seed: u64, first_id: u64, quota: u64) -> WorkerStats {
    let mut stats = WorkerStats {
        sent: 0,
        ok: 0,
        rejected: BTreeMap::new(),
        transport_errors: 0,
        latency: Histogram::new(),
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut client = match Connection::tcp(addr) {
        Ok(client) => client,
        Err(_) => {
            stats.transport_errors += 1;
            return stats;
        }
    };
    for n in 0..quota {
        let line = trace_line(&mut rng, shapes, first_id + n);
        let started = Instant::now();
        let reply = match client.request(&line) {
            Ok(reply) => reply,
            Err(_) => {
                stats.transport_errors += 1;
                return stats;
            }
        };
        stats.latency.record(started.elapsed().as_nanos() as u64);
        stats.sent += 1;
        if reply.contains("\"ok\":true") {
            stats.ok += 1;
        } else {
            // Rejections are rare; a full parse here is fine.
            let kind = Json::parse(&reply)
                .ok()
                .and_then(|json| {
                    json.get("error_kind")
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                })
                .unwrap_or_else(|| "error".to_owned());
            *stats.rejected.entry(kind).or_insert(0) += 1;
        }
    }
    stats
}

/// Measures fresh-connection latency: TCP connect through the first
/// `ping` reply, on an otherwise idle server. This is the figure the
/// accept loop's backoff (vs the old fixed 5 ms sleep) bounds.
fn connect_probes(addr: &str, probes: usize) -> HistogramSnapshot {
    let histogram = Histogram::new();
    for _ in 0..probes {
        let started = Instant::now();
        if let Ok(mut client) = Connection::tcp(addr) {
            if client.request(r#"{"op":"ping"}"#).is_ok() {
                histogram.record(started.elapsed().as_nanos() as u64);
            }
        }
    }
    histogram.snapshot()
}

/// Runs the whole loadgen session: (spawn +) load + probes + metrics
/// capture (+ shutdown), and writes the artifact to `config.output`.
///
/// # Errors
///
/// Returns a message for infrastructure failures — spawn/bind/connect
/// problems or an unwritable artifact path. Per-request rejections and
/// connection deaths are *results*, reported in the artifact, not
/// errors.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let spawned = match &config.addr {
        Some(_) => None,
        None => Some(
            SpawnedServer::spawn(&config.binary, Transport::Tcp, &config.server_args)
                .map_err(|e| format!("loadgen: cannot spawn server: {e}"))?,
        ),
    };
    let addr = config.addr.clone().unwrap_or_else(|| {
        let server = spawned.as_ref().expect("spawned when no addr");
        server.addr().expect("spawned over TCP").to_owned()
    });

    let shapes = shape_pool(config.shapes.max(1), config.seed);
    let connections = config.connections.max(1) as u64;

    let started = Instant::now();
    let next_seed = AtomicU64::new(1);
    let results: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|w| {
                let (first_id, quota) = worker_ids(config.requests, connections, w);
                let seed = config.seed ^ next_seed.fetch_add(0x9e37_79b9, Ordering::Relaxed);
                let addr = &addr;
                let shapes = &shapes;
                scope.spawn(move || worker(addr, shapes, seed, first_id, quota))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let elapsed = started.elapsed();

    let latency = Histogram::new();
    let mut report = LoadgenReport {
        sent: 0,
        ok: 0,
        rejected: BTreeMap::new(),
        transport_errors: 0,
        elapsed,
        latency: empty_snapshot(),
        connect: empty_snapshot(),
        server_metrics: None,
    };
    for stats in results {
        report.sent += stats.sent;
        report.ok += stats.ok;
        report.transport_errors += stats.transport_errors;
        for (kind, n) in stats.rejected {
            *report.rejected.entry(kind).or_insert(0) += n;
        }
        latency.merge_from(&stats.latency);
    }
    report.latency = latency.snapshot();

    report.connect = connect_probes(&addr, CONNECT_PROBES);

    // Capture the server's own view (cache hit rate, shed and deadline
    // counters) before tearing it down.
    if let Ok(mut client) = Connection::tcp(&addr) {
        if let Ok(reply) = client.request(r#"{"op":"metrics"}"#) {
            report.server_metrics = Json::parse(&reply)
                .ok()
                .and_then(|json| json.get("metrics").cloned());
        }
    }

    if let Some(mut server) = spawned {
        server
            .connect()
            .and_then(|connection| server.shutdown(connection))
            .map_err(|e| format!("loadgen: server shutdown failed: {e}"))?;
    }

    std::fs::write(&config.output, report.artifact(config))
        .map_err(|e| format!("{}: {e}", config.output.display()))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_ids_cover_every_request_exactly_once() {
        for (requests, connections) in [(10, 4), (7, 3), (100_000, 8), (3, 5), (0, 2), (9, 1)] {
            let mut ids: Vec<u64> = (0..connections)
                .flat_map(|w| {
                    let (first, quota) = worker_ids(requests, connections, w);
                    first..first + quota
                })
                .collect();
            ids.sort_unstable();
            let expected: Vec<u64> = (0..requests).collect();
            assert_eq!(
                ids, expected,
                "{requests} requests over {connections} workers"
            );
        }
    }

    #[test]
    fn shape_pool_is_deterministic_and_parses() {
        let a = shape_pool(32, 42);
        let b = shape_pool(32, 42);
        assert_eq!(a, b);
        for source in &a {
            raco_ir::dsl::parse_program(source)
                .unwrap_or_else(|e| panic!("`{source}` must parse: {e}"));
        }
        assert_ne!(a, shape_pool(32, 43), "seed changes the pool");
    }

    #[test]
    fn trace_lines_are_valid_requests() {
        let shapes = shape_pool(8, 7);
        let mut rng = SmallRng::seed_from_u64(7);
        let (mut knob_lines, mut named_lines) = (0u64, 0u64);
        for id in 0..200 {
            let line = trace_line(&mut rng, &shapes, id);
            let json = Json::parse(&line).expect("trace line is valid JSON");
            assert_eq!(json.get("op").and_then(Json::as_str), Some("compile"));
            assert_eq!(json.get("id").and_then(Json::as_u64), Some(id));
            if let Some(machine) = json.get("machine").and_then(Json::as_str) {
                named_lines += 1;
                assert!(NAMED_MACHINES.contains(&machine), "{machine}");
                assert!(
                    json.get("registers").is_none(),
                    "named lines carry no knobs"
                );
            } else {
                knob_lines += 1;
                let registers = json.get("registers").and_then(Json::as_u64).unwrap();
                assert!(MACHINES.iter().any(|(k, _)| *k as u64 == registers));
            }
        }
        assert!(
            knob_lines > 0 && named_lines > 0,
            "the trace mixes both forms"
        );
    }

    #[test]
    fn trace_lines_are_pinned() {
        let shapes = shape_pool(8, 7);
        let mut rng = SmallRng::seed_from_u64(7);
        let lines: Vec<String> = (0..4).map(|id| trace_line(&mut rng, &shapes, id)).collect();
        assert_eq!(
            lines[0],
            r#"{"id":0,"op":"compile","source":"for (i = 8; i < 63; i++) { y[i] = x[i-5] + x[i+8] + x[i-8] + x[i+2]; }","registers":4,"modify":2}"#
        );
        assert_eq!(
            lines[3],
            r#"{"id":3,"op":"compile","source":"for (i = 8; i < 20; i++) { y[i] = x[i-2] + x[i+4] + x[i-6]; }","machine":"paper"}"#
        );
    }

    #[test]
    fn named_trace_machines_all_resolve() {
        for name in NAMED_MACHINES {
            raco_ir::MachineDescription::resolve(name)
                .unwrap_or_else(|e| panic!("`{name}` must resolve: {e}"));
        }
    }

    #[test]
    fn report_json_is_schema_versioned() {
        let config = LoadgenConfig::new(PathBuf::from("raco"));
        let latency = Histogram::new();
        for ns in [1_500, 2_000, 80_000] {
            latency.record(ns);
        }
        let server = r#"{"uptime_ms":12,"requests":{"total":3,"in_flight":1,"by_op":{"compile":2,"metrics":1}},"latency_us":{},"pipeline_us":{"pipeline.parse":{"count":2,"total_us":3.25}},"errors":[],"cache":{"hit_rate":0.5,"delta":-4,"name":"a\"b"}}"#;
        let report = LoadgenReport {
            sent: 10,
            ok: 9,
            rejected: BTreeMap::from([("shed".to_owned(), 1)]),
            transport_errors: 0,
            elapsed: Duration::from_millis(500),
            latency: latency.snapshot(),
            connect: empty_snapshot(),
            server_metrics: Some(Json::parse(server).unwrap()),
        };
        let artifact = report.artifact(&config);
        assert_eq!(artifact, PINNED_ARTIFACT);
        let json = Json::parse(&artifact).expect("the artifact parses");
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            json.get("version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(report.throughput_rps(), 20.0);
        assert_eq!(report.aggregate_hit_rate(), Some(0.5));
    }

    /// The artifact of `report_json_is_schema_versioned`'s report, byte
    /// for byte.
    const PINNED_ARTIFACT: &str = "{\n  \"schema\": \"raco-bench-serve\",\n  \"version\": 2,\n  \"label\": \"local\",\n  \"seed\": 279813710,\n  \"requests\": 10,\n  \"connections\": 8,\n  \"shapes\": 64,\n  \"elapsed_ms\": 500,\n  \"throughput_rps\": 20,\n  \"ok\": 9,\n  \"errors\": {\n    \"transport\": 0,\n    \"rejected\": 1,\n    \"by_kind\": {\n      \"shed\": 1\n    }\n  },\n  \"latency_us\": {\n    \"count\": 3,\n    \"total_us\": 83.5,\n    \"p50_us\": 2.047,\n    \"p95_us\": 80,\n    \"p99_us\": 80,\n    \"max_us\": 80\n  },\n  \"connect_us\": {\n    \"count\": 0,\n    \"total_us\": 0,\n    \"p50_us\": 0,\n    \"p95_us\": 0,\n    \"p99_us\": 0,\n    \"max_us\": 0\n  },\n  \"server\": {\n    \"uptime_ms\": 12,\n    \"requests\": {\n      \"total\": 3,\n      \"in_flight\": 1,\n      \"by_op\": {\n        \"compile\": 2,\n        \"metrics\": 1\n      }\n    },\n    \"latency_us\": {},\n    \"pipeline_us\": {\n      \"pipeline.parse\": {\n        \"count\": 2,\n        \"total_us\": 3.25\n      }\n    },\n    \"errors\": [],\n    \"cache\": {\n      \"hit_rate\": 0.5,\n      \"delta\": -4,\n      \"name\": \"a\\\"b\"\n    }\n  }\n}\n\n";
}
