//! The service loop: shard-per-core pipelines behind stdio or TCP.
//!
//! A [`Server`] owns a set of shards (the private `shard` module), each
//! with
//! its own warm [`Pipeline`], and routes every compile by a consistent
//! hash of its *canonical* cache key — so every repetition of a shape
//! lands on the shard that already paid for its allocation. In the
//! default single-shard configuration this degenerates to the original
//! design: one pipeline, one cache, zero handoff overhead.
//!
//! Transports:
//!
//! * [`Server::serve`] — a blocking request/response loop over any
//!   `BufRead`/`Write` pair (stdin/stdout in the CLI, in-memory
//!   buffers in tests).
//! * [`Server::serve_tcp`] — accepts TCP connections and runs the same
//!   loop per connection on a scoped thread, so concurrent clients
//!   compile in parallel against the shard set. A `shutdown` request
//!   stops the accept loop.
//!
//! The TCP tier enforces production bounds, each configured through
//! [`ServeOptions`]: a connection cap (over-limit connects get a
//! `busy` error and a clean close), a per-request read deadline (a
//! client with no complete request in time is answered with a
//! `read_deadline` error and reaped — the slow-loris fix), a compute
//! deadline (a compile that outruns it gets a `compute_deadline` error
//! while the shard finishes warming its cache in the background), and
//! bounded shard queues (a full queue sheds the request with a `shed`
//! error instead of queueing unbounded work).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use raco_driver::json::Json;
use raco_driver::{
    persist, AllocationCache, CompilationReport, LoadReport, PersistError, Pipeline,
    PipelineConfig, SaveReport,
};

use crate::metrics::{self, ServiceMetrics, INVALID_OP};
use crate::protocol::{self, Envelope, Request};
use crate::shard::{self, ShardSet, ShedError};

/// How long a drained connection thread may lag behind the stop flag:
/// blocked reads wake at this interval to check whether a shutdown was
/// requested elsewhere.
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// How many further poll intervals a connection that has already
/// received *part* of a request line is given, after the stop flag
/// rises, to finish sending it. A half-received request is nearly in
/// flight — dropping it instantly would lose work the client believes
/// it submitted — but an unbounded wait would let one stalled client
/// wedge the drain, so the grace is bounded (10 × 50 ms = 500 ms).
const DRAIN_GRACE_POLLS: u32 = 10;

/// Accept-loop backoff bounds: an idle listener starts polling at the
/// floor and doubles up to the ceiling, and any accepted connection
/// resets it — so connect latency right after an idle stretch is
/// bounded by the ceiling (1 ms), not a fixed sleep.
const ACCEPT_BACKOFF_FLOOR: Duration = Duration::from_micros(25);
const ACCEPT_BACKOFF_CEIL: Duration = Duration::from_millis(1);

/// Maximum accepted request line length in bytes (1 MiB). Longer lines
/// are consumed and answered with an error response — the connection
/// survives, and a hostile or buggy client can no longer balloon server
/// memory by never sending a newline.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Default bound on queued requests per shard.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Default bound on concurrently served TCP connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Operational limits of the serve tier. [`Default`] reproduces the
/// pre-shard behaviour exactly: one shard, inline execution, no
/// deadlines — existing embedders and tests see no change unless they
/// opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Shard workers to run; `0` means one per available core
    /// ([`raco_driver::pool::available_workers`]).
    pub shards: usize,
    /// Bound on queued requests per shard; beyond it requests are shed
    /// with an `ok:false` `shed` response.
    pub queue_depth: usize,
    /// A TCP connection with no *complete* request line within this
    /// window is answered with a `read_deadline` error and closed
    /// (slow-loris reaping). `None` disables reaping.
    pub read_deadline: Option<Duration>,
    /// A compile outrunning this budget gets a `compute_deadline`
    /// error; the connection survives and the shard finishes the
    /// compile in the background (warming its cache for a retry).
    /// `None` disables the deadline (and keeps single-shard servers on
    /// the inline zero-handoff path).
    pub compute_deadline: Option<Duration>,
    /// Bound on concurrently served TCP connections; over-limit
    /// connects get an `ok:false` `busy` response and a clean close.
    pub max_connections: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: 1,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            read_deadline: None,
            compute_deadline: None,
            max_connections: DEFAULT_MAX_CONNECTIONS,
        }
    }
}

/// Reads one newline-terminated line from `reader`, capping its length
/// at `limit` bytes (exclusive of the newline).
///
/// Returns `None` at end of input, otherwise a [`ReadOutcome`]: a line
/// within the cap, an oversized line (consumed to its terminating
/// newline — buffering at most one `BufRead` chunk at a time — so the
/// caller can keep serving the connection), or an idle timeout.
///
/// When `stop` is given, the underlying stream is expected to have a
/// read timeout: a timed-out read re-checks the flag and either keeps
/// waiting (flag clear) or winds the connection down (flag set). The
/// wind-down distinguishes how far a request got: a thread parked
/// *between* requests (nothing read yet) gives up immediately as a
/// clean end of input, while a thread that has already consumed part
/// of a line keeps waiting up to [`DRAIN_GRACE_POLLS`] more intervals
/// for the client to finish it — so a request the client is actively
/// sending still gets served, but a stalled half-line cannot wedge the
/// drain forever.
///
/// When `idle_deadline` is given, the whole read — from entry to the
/// terminating newline — must finish within it; otherwise the caller
/// gets [`ReadOutcome::IdleTimeout`]. This is what unseats a slow
/// loris: a client that connects and never completes a line used to
/// park its connection thread until shutdown.
fn read_limited_line<R: BufRead>(
    reader: &mut R,
    limit: usize,
    stop: Option<&AtomicBool>,
    idle_deadline: Option<Duration>,
) -> io::Result<Option<ReadOutcome>> {
    let deadline = idle_deadline.map(|window| Instant::now() + window);
    let mut line: Vec<u8> = Vec::new();
    let mut total: u64 = 0;
    let mut saw_input = false;
    let mut grace = DRAIN_GRACE_POLLS;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if let Some(deadline) = deadline {
                    if Instant::now() >= deadline {
                        return Ok(Some(ReadOutcome::IdleTimeout));
                    }
                }
                match stop {
                    Some(flag) if flag.load(Ordering::Acquire) => {
                        if !saw_input || grace == 0 {
                            return Ok(None);
                        }
                        grace -= 1;
                        continue;
                    }
                    Some(_) => continue,
                    None => return Err(e),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // End of input; the final line may lack its newline.
            if !saw_input {
                return Ok(None);
            }
            break;
        }
        saw_input = true;
        let (used, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (chunk.len(), false),
        };
        let content = used - usize::from(done);
        total += content as u64;
        if total <= limit as u64 {
            line.extend_from_slice(&chunk[..content]);
        } else {
            // Over the cap: stop accumulating, keep draining the line.
            line.clear();
        }
        reader.consume(used);
        if done {
            break;
        }
    }
    if total > limit as u64 {
        Ok(Some(ReadOutcome::Oversized(total)))
    } else {
        Ok(Some(ReadOutcome::Line(
            String::from_utf8_lossy(&line).into_owned(),
        )))
    }
}

/// What one bounded line read produced.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ReadOutcome {
    /// A complete line within the cap.
    Line(String),
    /// A line of this many bytes exceeded the cap (fully drained).
    Oversized(u64),
    /// No complete line arrived within the idle deadline.
    IdleTimeout,
}

/// One response line plus the connection's fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The single-line JSON response (no trailing newline).
    pub line: String,
    /// `true` if the client asked this connection to close.
    pub shutdown: bool,
}

/// What a routed compile runs on its shard.
enum ComputeWork {
    /// Named DSL units (a `compile` request, or one named kernel).
    Units(Vec<(String, String)>),
    /// The whole built-in kernel suite.
    KernelSuite,
}

/// Why a routed compile produced no report.
enum ComputeError {
    /// The pipeline itself failed (parse error, driver error…).
    Driver(String),
    /// The routed shard's queue was full.
    Shed(ShedError),
    /// The compile outran the compute deadline.
    Deadline(Duration),
}

/// Runs one unit of compute work against a shard's pipeline.
fn run_work(
    pipeline: &Pipeline,
    config: &PipelineConfig,
    work: &ComputeWork,
) -> Result<CompilationReport, String> {
    match work {
        ComputeWork::Units(units) => pipeline
            .compile_units_with(config, units)
            .map_err(|e| e.to_string()),
        ComputeWork::KernelSuite => Ok(pipeline.compile_kernels_with(config)),
    }
}

/// A long-lived compile service over a consistent-hash shard set.
#[derive(Debug)]
pub struct Server {
    shards: ShardSet,
    options: ServeOptions,
    /// Where graceful shutdowns (and default-path `save_cache`
    /// requests) snapshot the warm cache; `None` disables both.
    cache_save_path: Option<PathBuf>,
    /// Per-op request counters and latency histograms (the `metrics`
    /// op reads these; every response carries their `elapsed_us`).
    metrics: ServiceMetrics,
}

impl Server {
    /// A server whose defaults (machine, options, cache policy) come
    /// from `config`. Per-request knobs override everything except the
    /// cache policy, which is fixed for the server's lifetime.
    pub fn new(config: PipelineConfig) -> Self {
        Self::with_options(config, ServeOptions::default())
    }

    /// A server with explicit operational limits: shard count, queue
    /// depth, read/compute deadlines and the connection cap.
    pub fn with_options(config: PipelineConfig, options: ServeOptions) -> Self {
        let mut options = options;
        if options.shards == 0 {
            options.shards = raco_driver::pool::available_workers();
        }
        options.queue_depth = options.queue_depth.max(1);
        options.max_connections = options.max_connections.max(1);
        // One shard with no compute deadline needs no worker handoff:
        // jobs run inline on the submitting thread, exactly like the
        // pre-shard server (loopback benches and embedders keep their
        // zero-handoff latency).
        let inline = options.shards == 1 && options.compute_deadline.is_none();
        let shards = ShardSet::new(&config, options.shards, options.queue_depth, inline);
        Server {
            shards,
            options,
            cache_save_path: None,
            metrics: ServiceMetrics::new(),
        }
    }

    /// Wraps an existing pipeline (e.g. one pre-warmed by a batch run
    /// or one that loaded a cache snapshot at boot) as a single-shard
    /// inline server.
    pub fn with_pipeline(pipeline: Pipeline) -> Self {
        let options = ServeOptions::default();
        Server {
            shards: ShardSet::from_pipeline(pipeline, options.queue_depth),
            options,
            cache_save_path: None,
            metrics: ServiceMetrics::new(),
        }
    }

    /// Snapshot the warm cache to `path` on graceful shutdown (builder
    /// style). The same path backs `save_cache` requests that do not
    /// name their own.
    #[must_use]
    pub fn with_cache_save_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_save_path = Some(path.into());
        self
    }

    /// The configured shutdown-snapshot path, if any.
    pub fn cache_save_path(&self) -> Option<&std::path::Path> {
        self.cache_save_path.as_deref()
    }

    /// The server's operational limits (normalized: `shards` is the
    /// resolved count, never 0).
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Shard 0's pipeline. With the default single shard this is *the*
    /// pipeline, exactly as before sharding; with more shards it is
    /// only one slice of the cache — use
    /// [`cache_stats`](Self::cache_stats) for fleet-wide numbers.
    pub fn pipeline(&self) -> &Pipeline {
        self.shards.first_pipeline()
    }

    /// Cache statistics aggregated across every shard.
    pub fn cache_stats(&self) -> raco_driver::CacheStats {
        self.shards.aggregate_cache_stats()
    }

    /// Seeds **every** shard's pipeline from the snapshot at `path`, so
    /// each shard boots warm whatever slice of the keyspace it owns.
    ///
    /// # Errors
    ///
    /// Returns the first shard's load failure (shards are seeded in
    /// order; a failure leaves later shards cold).
    pub fn load_cache(&self, path: &std::path::Path) -> Result<Vec<LoadReport>, PersistError> {
        self.shards
            .shards()
            .iter()
            .map(|shard| shard.pipeline.load_cache(path))
            .collect()
    }

    /// Snapshots the union of every shard's cache to `path`. A
    /// single-shard server saves its pipeline's cache directly
    /// (preserving that cache's `persisted` accounting); a sharded one
    /// folds all shards into a fresh cache first, so the snapshot
    /// warms a later boot of *any* shard count.
    ///
    /// # Errors
    ///
    /// Returns the underlying persistence failure.
    pub fn save_cache_merged(&self, path: &std::path::Path) -> Result<SaveReport, PersistError> {
        if self.shards.len() == 1 {
            return self.shards.first_pipeline().save_cache(path);
        }
        let merged = AllocationCache::new();
        for shard in self.shards.shards() {
            merged.absorb_entries(shard.pipeline.cache());
        }
        persist::save(&merged, path)
    }

    /// Writes the shutdown snapshot, if one is configured. Both serve
    /// loops call this once their last connection has drained; a
    /// snapshot failure is reported on stderr but never turns a clean
    /// shutdown into an error (the cache is an optimization — losing
    /// it must not fail the service).
    fn snapshot_on_shutdown(&self) {
        if let Some(path) = &self.cache_save_path {
            match self.save_cache_merged(path) {
                Ok(report) => {
                    eprintln!("raco serve: cache snapshot {} ({report})", path.display());
                }
                Err(error) => eprintln!("raco serve: cache snapshot failed: {error}"),
            }
        }
    }

    /// Handles one request line and produces one response line.
    ///
    /// This is the transport-free core: both [`serve`](Self::serve)
    /// and [`serve_tcp`](Self::serve_tcp) are loops around it, and
    /// tests and benches call it directly (a "loopback" client).
    ///
    /// Every request is counted and timed into the server's per-op
    /// metrics (see the `metrics` op), and every response line gets an
    /// `elapsed_us` field with its end-to-end wall time.
    pub fn handle_line(&self, line: &str) -> Reply {
        let started = Instant::now();
        self.metrics.begin();
        let (op, mut reply) = self.dispatch(line);
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        self.metrics.finish(op, elapsed_ns);
        reply.line = attach_elapsed(reply.line, elapsed_ns);
        reply
    }

    /// Routes one compile to its shard and waits for the report —
    /// inline on the calling thread for a single-shard no-deadline
    /// server, through the shard's bounded queue otherwise.
    fn execute(
        &self,
        key: u64,
        config: PipelineConfig,
        work: ComputeWork,
    ) -> Result<CompilationReport, ComputeError> {
        let shard = self.shards.route(key);
        if self.shards.is_inline() {
            let mut out = None;
            shard.run_inline(|pipeline| out = Some(run_work(pipeline, &config, &work)));
            return out
                .expect("inline job ran on the calling thread")
                .map_err(ComputeError::Driver);
        }
        let (tx, rx) = mpsc::sync_channel(1);
        let submitted = Instant::now();
        shard
            .submit(Box::new(move |pipeline| {
                // The receiver may have walked away on a compute
                // deadline; the compile still warmed the shard cache.
                let _ = tx.send(run_work(pipeline, &config, &work));
            }))
            .map_err(ComputeError::Shed)?;
        let result = match self.options.compute_deadline {
            // The budget runs from the submit, not from this wait: a
            // connection thread descheduled after submitting must not
            // find a late reply already queued and pass it as on time.
            Some(deadline) => match rx.recv_timeout(deadline.saturating_sub(submitted.elapsed())) {
                Ok(result) if submitted.elapsed() <= deadline => result,
                Ok(_) | Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(ComputeError::Deadline(deadline))
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    Err("shard worker unavailable".to_owned())
                }
            },
            None => rx
                .recv()
                .unwrap_or_else(|_| Err("shard worker unavailable".to_owned())),
        };
        result.map_err(ComputeError::Driver)
    }

    /// Renders a routed compile's failure, counting sheds and deadline
    /// hits into the service metrics.
    fn compute_error_line(&self, id: &Option<Json>, error: &ComputeError) -> String {
        match error {
            ComputeError::Driver(message) => protocol::error_line(id, message),
            ComputeError::Shed(shed) => {
                self.metrics.note_shed_queue();
                protocol::error_kind_line(
                    id,
                    "shed",
                    &format!(
                        "shard {} queue full (depth {}); request shed — retry with backoff",
                        shed.shard, shed.depth
                    ),
                )
            }
            ComputeError::Deadline(deadline) => {
                self.metrics.note_compute_deadline();
                protocol::error_kind_line(
                    id,
                    "compute_deadline",
                    &format!(
                        "compile exceeded the {} ms compute deadline; the shard keeps \
                         warming its cache in the background, so a retry may hit",
                        deadline.as_millis()
                    ),
                )
            }
        }
    }

    /// The per-shard `metrics` breakdown: request count, compute
    /// latency and the shard's own cache statistics (whose hit rates
    /// show consistent routing keeping each slice hot).
    fn shards_json(&self) -> Json {
        Json::Arr(
            self.shards
                .shards()
                .iter()
                .map(|shard| {
                    let stats = shard.pipeline.cache_stats();
                    let mut fields = vec![
                        ("id".to_owned(), Json::UInt(shard.index as u64)),
                        (
                            "requests".to_owned(),
                            Json::UInt(shard.executed.load(Ordering::Relaxed)),
                        ),
                        ("hit_rate".to_owned(), Json::Num(stats.hit_rate())),
                        ("cache".to_owned(), protocol::stats_json(&stats)),
                    ];
                    let latency = shard.latency.snapshot();
                    if latency.count > 0 {
                        fields.push(("compute_us".to_owned(), metrics::histogram_json(&latency)));
                    }
                    Json::Obj(fields)
                })
                .collect(),
        )
    }

    /// Decodes and executes one request; returns the op label the
    /// request is accounted under plus the raw (un-timed) reply.
    fn dispatch(&self, line: &str) -> (&'static str, Reply) {
        let Envelope { id, request, knobs } = match protocol::parse_line(line) {
            Ok(envelope) => envelope,
            Err(e) => {
                return (
                    INVALID_OP,
                    Reply {
                        line: protocol::error_line(&e.id, &e.message),
                        shutdown: false,
                    },
                )
            }
        };
        let op = op_label(&request);
        let reply = |line: String| Reply {
            line,
            shutdown: false,
        };
        // Serve responses omit the per-stage `timings` array unless the
        // request opts in: rendering it costs more than a warm compile,
        // and the `metrics` op serves accumulated stage timings anyway.
        let report_reply = |mut report: raco_driver::CompilationReport| {
            if knobs.timings != Some(true) {
                report.timings.clear();
            }
            reply(protocol::report_line(&id, &report))
        };
        let base_config = self.shards.first_pipeline().config();
        let out = match request {
            Request::Compile { name, source } => {
                let config = match knobs.apply(base_config) {
                    Ok(config) => config,
                    Err(message) => return (op, reply(protocol::error_line(&id, &message))),
                };
                let key = shard::compile_route_key(&source, &config);
                match self.execute(key, config, ComputeWork::Units(vec![(name, source)])) {
                    Ok(report) => report_reply(report),
                    Err(e) => reply(self.compute_error_line(&id, &e)),
                }
            }
            Request::Kernels { kernel } => {
                let config = match knobs.apply(base_config) {
                    Ok(config) => config,
                    Err(message) => return (op, reply(protocol::error_line(&id, &message))),
                };
                let key = shard::kernels_route_key(kernel.as_deref(), &config);
                let work = match kernel {
                    None => ComputeWork::KernelSuite,
                    Some(name) => {
                        let suite = raco_kernels::suite();
                        let Some(kernel) = suite.iter().find(|k| k.name() == name) else {
                            let known: Vec<&str> = suite.iter().map(|k| k.name()).collect();
                            return (
                                op,
                                reply(protocol::error_line(
                                    &id,
                                    &format!(
                                        "unknown kernel `{name}` (known: {})",
                                        known.join(", ")
                                    ),
                                )),
                            );
                        };
                        ComputeWork::Units(vec![(name.clone(), kernel.source().to_owned())])
                    }
                };
                match self.execute(key, config, work) {
                    Ok(report) => report_reply(report),
                    Err(e) => reply(self.compute_error_line(&id, &e)),
                }
            }
            Request::Stats => {
                // Cache counters first (their layout is load-bearing
                // for scripted clients), then the service fields.
                let Json::Obj(mut fields) = protocol::stats_json(&self.cache_stats()) else {
                    unreachable!("stats_json returns an object")
                };
                fields.extend(self.metrics.stats_fields());
                reply(protocol::payload_line(
                    &id,
                    vec![("stats".to_owned(), Json::Obj(fields))],
                ))
            }
            Request::Metrics => {
                let shards = (self.shards.len() > 1).then(|| self.shards_json());
                let payload = self.metrics.payload(&self.cache_stats(), shards);
                reply(protocol::payload_line(
                    &id,
                    vec![("metrics".to_owned(), payload)],
                ))
            }
            Request::ClearCache => {
                for shard in self.shards.shards() {
                    shard.pipeline.clear_cache();
                }
                reply(protocol::ack_line(&id, "cleared"))
            }
            Request::SaveCache { path } => {
                let target = match (&path, &self.cache_save_path) {
                    (Some(path), _) => PathBuf::from(path),
                    (None, Some(default)) => default.clone(),
                    (None, None) => {
                        return (
                            op,
                            reply(protocol::error_line(
                                &id,
                                "save_cache needs a `path` (the server has no --cache-save \
                                 default)",
                            )),
                        )
                    }
                };
                match self.save_cache_merged(&target) {
                    Ok(report) => reply(protocol::saved_line(&id, &target, &report)),
                    Err(error) => reply(protocol::error_line(&id, &error.to_string())),
                }
            }
            Request::Ping => reply(protocol::ack_line(&id, "pong")),
            Request::Shutdown => Reply {
                line: protocol::ack_line(&id, "shutdown"),
                shutdown: true,
            },
        };
        (op, out)
    }

    /// Produces the error reply for a request line of `total` bytes that
    /// exceeded [`MAX_REQUEST_LINE`]. Counted under the `invalid` op
    /// like any other undecodable request.
    fn oversized_reply(&self, total: u64) -> Reply {
        let started = Instant::now();
        self.metrics.begin();
        let line = protocol::error_line(
            &None,
            &format!("request line of {total} bytes exceeds the {MAX_REQUEST_LINE}-byte limit"),
        );
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        self.metrics.finish(INVALID_OP, elapsed_ns);
        Reply {
            line: attach_elapsed(line, elapsed_ns),
            shutdown: false,
        }
    }

    /// Serves NDJSON requests from `input`, writing responses to
    /// `output`, until a `shutdown` request or end of input. Blank
    /// lines are skipped; lines longer than [`MAX_REQUEST_LINE`] get an
    /// error response and the session continues; responses are flushed
    /// per request so a pipe-connected client never deadlocks waiting
    /// on a buffer. Both exits are graceful: if a cache-save path is
    /// configured (see [`with_cache_save_path`](Self::with_cache_save_path))
    /// the warm cache is snapshotted before returning.
    ///
    /// # Errors
    ///
    /// Returns the first transport I/O error (protocol-level problems
    /// are error *responses*, not errors here). The shutdown snapshot
    /// is still attempted on the error path — whatever warmth was
    /// accumulated is worth keeping.
    pub fn serve<R: BufRead, W: Write>(&self, mut input: R, mut output: W) -> io::Result<()> {
        let result = self.serve_inner(&mut input, &mut output);
        self.snapshot_on_shutdown();
        result
    }

    fn serve_inner<R: BufRead, W: Write>(&self, input: &mut R, output: &mut W) -> io::Result<()> {
        // Stdio has no read timeouts, so the idle deadline does not
        // apply here: a pipe's writer is the server's own supervisor,
        // not an untrusted remote peer.
        while let Some(read) = read_limited_line(input, MAX_REQUEST_LINE, None, None)? {
            let reply = match read {
                ReadOutcome::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.handle_line(&line)
                }
                ReadOutcome::Oversized(total) => self.oversized_reply(total),
                ReadOutcome::IdleTimeout => unreachable!("no idle deadline on stdio"),
            };
            output.write_all(reply.line.as_bytes())?;
            output.write_all(b"\n")?;
            output.flush()?;
            if reply.shutdown {
                break;
            }
        }
        Ok(())
    }

    /// Accepts connections on `listener` and serves each on its own
    /// scoped thread against the shard set, until any client sends
    /// `shutdown`.
    ///
    /// Operational bounds ([`ServeOptions`]) are enforced here: at most
    /// `max_connections` concurrent connections (over-limit connects
    /// are answered with a `busy` error and closed), and per-connection
    /// read deadlines (enforced by the capped line reader's idle
    /// handling).
    ///
    /// Shutdown is a **graceful drain**: the accept loop stops, every
    /// connection thread finishes the request it is currently
    /// compiling and writes its response, threads parked in blocking
    /// reads (idle keep-alive clients) notice the stop flag within a
    /// short poll interval (50 ms) and close, and only then — after
    /// every connection has drained — is the cache snapshot written
    /// (when a save path is configured).
    ///
    /// # Errors
    ///
    /// Returns the first *accept* error. Per-connection I/O errors
    /// only end that connection.
    pub fn serve_tcp(&self, listener: &TcpListener) -> io::Result<()> {
        // Nonblocking accept so the loop can observe the stop flag a
        // shutdown request (on any connection thread) sets.
        listener.set_nonblocking(true)?;
        let stop = AtomicBool::new(false);
        let active = AtomicUsize::new(0);
        let result = std::thread::scope(|scope| {
            let mut backoff = ACCEPT_BACKOFF_FLOOR;
            while !stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        backoff = ACCEPT_BACKOFF_FLOOR;
                        if active.load(Ordering::Acquire) >= self.options.max_connections {
                            self.metrics.note_shed_connection();
                            self.refuse_connection(&stream);
                            continue;
                        }
                        active.fetch_add(1, Ordering::AcqRel);
                        let stop = &stop;
                        let active = &active;
                        scope.spawn(move || {
                            let shutdown = self.serve_stream(&stream, stop);
                            active.fetch_sub(1, Ordering::AcqRel);
                            if shutdown {
                                stop.store(true, Ordering::Release);
                            }
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        // Exponential backoff from a 25 µs floor to a
                        // 1 ms ceiling (reset on every accept): a burst
                        // arriving after an idle stretch waits at most
                        // the ceiling, where a fixed 5 ms sleep used to
                        // put a hard floor under connect latency.
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF_CEIL);
                    }
                    Err(e) => return Err(e),
                }
            }
            // Leaving the scope joins every connection thread: this is
            // the drain barrier in-flight requests finish behind.
            Ok(())
        });
        self.snapshot_on_shutdown();
        result
    }

    /// Answers an over-limit connection with a `busy` error and drops
    /// it. Best-effort: a peer that cannot take the write is simply
    /// closed.
    fn refuse_connection(&self, stream: &TcpStream) {
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        let mut line = protocol::error_kind_line(
            &None,
            "busy",
            &format!(
                "server is at its connection limit ({}); retry with backoff",
                self.options.max_connections
            ),
        );
        line.push('\n');
        let mut writer = stream;
        let _ = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush());
    }

    /// Serves one TCP connection; `true` if the client asked the whole
    /// server to shut down. The read side polls `stop` (via a read
    /// timeout) so a drain elsewhere closes this connection between
    /// requests instead of waiting for the client to hang up, and — in
    /// the same polling — enforces the read deadline: a client with no
    /// complete request within it gets a `read_deadline` error and is
    /// closed, freeing the thread a slow loris used to pin.
    fn serve_stream(&self, stream: &TcpStream, stop: &AtomicBool) -> bool {
        // Blocking per-connection I/O (the listener's nonblocking flag
        // is inherited on some platforms) with a short read timeout —
        // the timeout is what turns a parked idle connection into one
        // that notices a server-wide drain or an expired read deadline.
        if stream.set_nonblocking(false).is_err() {
            return false;
        }
        if stream.set_read_timeout(Some(DRAIN_POLL)).is_err() {
            return false;
        }
        // Replies are written as one buffer, but disable Nagle anyway:
        // with it on, any reply split across writes has its tail held
        // hostage by the peer's delayed ACK (~40 ms on Linux) — fatal
        // to request/response latency on a warm cache.
        let _ = stream.set_nodelay(true);
        let mut writer = match stream.try_clone() {
            Ok(writer) => writer,
            Err(_) => return false,
        };
        let mut reader = BufReader::new(stream);
        let mut shutdown = false;
        // Per-connection I/O errors just end this connection.
        while let Ok(Some(read)) = read_limited_line(
            &mut reader,
            MAX_REQUEST_LINE,
            Some(stop),
            self.options.read_deadline,
        ) {
            let reply = match read {
                ReadOutcome::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.handle_line(&line)
                }
                ReadOutcome::Oversized(total) => self.oversized_reply(total),
                ReadOutcome::IdleTimeout => {
                    // The slow-loris reap: answer, then close. After a
                    // mid-line stall the stream offers no resync point,
                    // and an idle keep-alive past the deadline has had
                    // its chance — either way the thread is reclaimed.
                    self.metrics.note_read_deadline();
                    let deadline = self
                        .options
                        .read_deadline
                        .expect("idle timeout implies a deadline");
                    let mut line = protocol::error_kind_line(
                        &None,
                        "read_deadline",
                        &format!(
                            "no complete request within the {} ms read deadline; closing",
                            deadline.as_millis()
                        ),
                    );
                    line.push('\n');
                    let _ = writer
                        .write_all(line.as_bytes())
                        .and_then(|()| writer.flush());
                    break;
                }
            };
            // One framed write per reply: a reply split across writes
            // would interact with Nagle + delayed ACKs (see above).
            let mut framed = reply.line;
            framed.push('\n');
            if writer
                .write_all(framed.as_bytes())
                .and_then(|()| writer.flush())
                .is_err()
            {
                break;
            }
            if reply.shutdown {
                shutdown = true;
                break;
            }
        }
        shutdown
    }
}

/// The op name a decoded request is accounted under.
fn op_label(request: &Request) -> &'static str {
    match request {
        Request::Compile { .. } => "compile",
        Request::Kernels { .. } => "kernels",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::ClearCache => "clear_cache",
        Request::SaveCache { .. } => "save_cache",
        Request::Ping => "ping",
        Request::Shutdown => "shutdown",
    }
}

/// Appends `"elapsed_us":…` as the final field of a rendered response
/// object. String surgery instead of a reparse: response lines are
/// always single-line JSON objects, so the closing `}` is the last byte.
fn attach_elapsed(mut line: String, elapsed_ns: u64) -> String {
    use std::fmt::Write;
    debug_assert!(line.ends_with('}'), "response must be a JSON object");
    line.pop();
    // Integer formatting (µs + fixed three fractional digits) rather
    // than an f64 render: this runs on every response, and float
    // formatting costs several times an integer write.
    let _ = write!(
        line,
        ",\"elapsed_us\":{}.{:03}}}",
        elapsed_ns / 1_000,
        elapsed_ns % 1_000
    );
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_driver::json::Json;
    use raco_ir::AguSpec;

    fn server() -> Server {
        Server::new(PipelineConfig::new(AguSpec::new(4, 1).unwrap()))
    }

    fn parsed(reply: &Reply) -> Json {
        Json::parse(&reply.line).expect("response is valid JSON")
    }

    #[test]
    fn ping_and_shutdown_round_trip() {
        let server = server();
        let pong = server.handle_line(r#"{"op":"ping","id":1}"#);
        assert!(
            pong.line
                .starts_with(r#"{"id":1,"ok":true,"pong":true,"elapsed_us":"#),
            "{}",
            pong.line
        );
        assert!(!pong.shutdown);
        let bye = server.handle_line(r#"{"op":"shutdown"}"#);
        assert!(bye.shutdown);
        assert!(
            bye.line
                .starts_with(r#"{"ok":true,"shutdown":true,"elapsed_us":"#),
            "{}",
            bye.line
        );
    }

    #[test]
    fn every_response_carries_elapsed_us() {
        let server = server();
        for line in [
            r#"{"op":"ping"}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"metrics"}"#,
            "not json",
        ] {
            let reply = server.handle_line(line);
            let json = parsed(&reply);
            assert!(
                json.get("elapsed_us").is_some(),
                "`{line}` response lacks elapsed_us: {}",
                reply.line
            );
        }
        let oversized = server.oversized_reply(MAX_REQUEST_LINE as u64 + 1);
        assert!(parsed(&oversized).get("elapsed_us").is_some());
    }

    #[test]
    fn metrics_op_reports_latency_and_pipeline_stages() {
        let server = server();
        let compile =
            r#"{"op":"compile","source":"for (i = 0; i < 8; i++) { y[i] = x[i] + x[i+1]; }"}"#;
        server.handle_line(compile);
        server.handle_line(compile);
        let json = parsed(&server.handle_line(r#"{"op":"metrics","id":5}"#));
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
        let metrics = json.get("metrics").expect("metrics payload");
        assert!(metrics.get("uptime_ms").and_then(Json::as_u64).is_some());

        let requests = metrics.get("requests").unwrap();
        assert_eq!(requests.get("total").and_then(Json::as_u64), Some(2));
        assert_eq!(
            requests
                .get("by_op")
                .and_then(|o| o.get("compile"))
                .and_then(Json::as_u64),
            Some(2)
        );
        // The metrics request itself is still in flight while its own
        // payload is rendered.
        assert_eq!(requests.get("in_flight").and_then(Json::as_i64), Some(1));

        let compile_latency = metrics
            .get("latency_us")
            .and_then(|l| l.get("compile"))
            .expect("compile latency histogram");
        assert_eq!(compile_latency.get("count").and_then(Json::as_u64), Some(2));
        assert!(compile_latency.get("p50_us").is_some());
        assert!(compile_latency.get("p99_us").is_some());

        // The compiles above drove the whole pipeline, so accumulated
        // per-stage timings are present.
        let pipeline = metrics.get("pipeline_us").expect("pipeline stages");
        for stage in ["pipeline.parse", "pipeline.codegen", "pipeline.simulate"] {
            let entry = pipeline.get(stage).unwrap_or_else(|| panic!("{stage}"));
            assert!(entry.get("count").and_then(Json::as_u64).unwrap() >= 2);
        }

        // Zero sheds and deadline hits, but the counters are present.
        let shed = metrics.get("shed").expect("shed counters");
        assert_eq!(shed.get("connections").and_then(Json::as_u64), Some(0));
        assert_eq!(shed.get("queue").and_then(Json::as_u64), Some(0));
        let deadlines = metrics.get("deadlines").expect("deadline counters");
        assert_eq!(deadlines.get("read").and_then(Json::as_u64), Some(0));
        assert_eq!(deadlines.get("compute").and_then(Json::as_u64), Some(0));
        // A single-shard server reports no per-shard breakdown.
        assert!(metrics.get("shards").is_none());

        let cache = metrics.get("cache").expect("cache rates");
        assert!(cache.get("hit_rate").is_some());
        assert!(
            cache.get("allocation_hits").and_then(Json::as_u64).unwrap() > 0,
            "second identical compile hits the warm cache"
        );
    }

    #[test]
    fn sharded_metrics_report_per_shard_breakdown() {
        let server = Server::with_options(
            PipelineConfig::new(AguSpec::new(4, 1).unwrap()),
            ServeOptions {
                shards: 3,
                ..ServeOptions::default()
            },
        );
        let compile =
            r#"{"op":"compile","source":"for (i = 0; i < 8; i++) { y[i] = x[i] + x[i+1]; }"}"#;
        let first = parsed(&server.handle_line(compile));
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        server.handle_line(compile);
        let json = parsed(&server.handle_line(r#"{"op":"metrics"}"#));
        let metrics = json.get("metrics").expect("metrics payload");
        let Some(Json::Arr(shards)) = metrics.get("shards") else {
            panic!("sharded server reports a shards array: {json:?}");
        };
        assert_eq!(shards.len(), 3);
        let executed: u64 = shards
            .iter()
            .map(|s| s.get("requests").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(executed, 2, "both compiles executed on some shard");
        // Consistent routing: the identical source hit exactly one shard.
        let busy: Vec<u64> = shards
            .iter()
            .map(|s| s.get("requests").and_then(Json::as_u64).unwrap())
            .filter(|&n| n > 0)
            .collect();
        assert_eq!(busy, vec![2], "one shard took both identical compiles");
        // And the aggregate cache saw the second compile hit.
        let cache = metrics.get("cache").expect("aggregate cache");
        assert!(cache.get("allocation_hits").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn stats_keeps_cache_layout_and_adds_service_counters() {
        let server = server();
        server.handle_line(r#"{"op":"ping"}"#);
        let reply = server.handle_line(r#"{"op":"stats","id":2}"#);
        // Scripted clients key on the cache counters leading the
        // payload, so the service fields must come after them.
        assert!(
            reply.line.contains(r#""stats":{"allocation_hits":"#),
            "{}",
            reply.line
        );
        let stats = parsed(&reply).get("stats").cloned().expect("stats payload");
        assert!(stats.get("uptime_ms").and_then(Json::as_u64).is_some());
        assert_eq!(stats.get("requests_total").and_then(Json::as_u64), Some(1));
        assert_eq!(
            stats
                .get("requests_by_op")
                .and_then(|o| o.get("ping"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn compile_produces_a_report_envelope() {
        let server = server();
        let reply = server.handle_line(
            r#"{"id":9,"op":"compile","name":"tap3",
                "source":"for (i = 1; i < 100; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }"}"#,
        );
        let json = parsed(&reply);
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(json.get("id").and_then(Json::as_u64), Some(9));
        let report = json.get("report").expect("report payload");
        assert_eq!(report.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(
            report
                .get("units")
                .and_then(|u| match u {
                    Json::Arr(items) => items.first(),
                    _ => None,
                })
                .and_then(|u| u.get("name"))
                .and_then(Json::as_str),
            Some("tap3")
        );
    }

    #[test]
    fn report_timings_are_opt_in_per_request() {
        let server = server();
        let source = r#""source":"for (i = 1; i < 16; i++) { y[i] = x[i-1] + x[i]; }""#;
        // By default the response's report carries no timings array
        // (the key is omitted entirely, not rendered empty)...
        let bare = parsed(&server.handle_line(&format!(r#"{{"op":"compile",{source}}}"#)));
        assert_eq!(bare.get("ok"), Some(&Json::Bool(true)));
        assert!(bare.get("report").unwrap().get("timings").is_none());
        // ...and `timings: true` keeps it.
        let timed =
            parsed(&server.handle_line(&format!(r#"{{"op":"compile",{source},"timings":true}}"#)));
        let Some(Json::Arr(stages)) = timed.get("report").unwrap().get("timings") else {
            panic!("timings array must be present when requested");
        };
        assert!(!stages.is_empty());
        assert!(stages
            .iter()
            .any(|s| s.get("stage").and_then(Json::as_str) == Some("parse")));
    }

    #[test]
    fn per_request_knobs_change_the_machine() {
        let server = server();
        let reply = server.handle_line(
            r#"{"op":"compile","source":"for (i = 0; i < 8; i++) { s += x[i]; }","registers":2,"modify":3}"#,
        );
        let json = parsed(&reply);
        let machine = json.get("report").and_then(|r| r.get("machine")).unwrap();
        assert_eq!(
            machine.get("address_registers").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(machine.get("modify_range").and_then(Json::as_u64), Some(3));
        // The server's defaults are untouched.
        assert_eq!(server.pipeline().config().agu.address_registers(), 4);
    }

    #[test]
    fn named_kernels_compile_and_unknown_names_error() {
        let server = server();
        let ok = parsed(&server.handle_line(r#"{"op":"kernels","kernel":"paper_example"}"#));
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            ok.get("report")
                .and_then(|r| r.get("loops"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let err = parsed(&server.handle_line(r#"{"op":"kernels","kernel":"nope"}"#));
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        let message = err.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains("unknown kernel `nope`"));
        assert!(message.contains("paper_example"), "lists known kernels");
    }

    #[test]
    fn read_limited_line_caps_and_resynchronizes() {
        let input = format!("short\n{}\nafter\n", "x".repeat(100));
        let mut reader = std::io::BufReader::with_capacity(16, input.as_bytes());
        assert_eq!(
            read_limited_line(&mut reader, 40, None, None).unwrap(),
            Some(ReadOutcome::Line("short".to_owned()))
        );
        // The long line reports its true length and is fully drained …
        assert_eq!(
            read_limited_line(&mut reader, 40, None, None).unwrap(),
            Some(ReadOutcome::Oversized(100))
        );
        // … so the next read picks up exactly at the following line.
        assert_eq!(
            read_limited_line(&mut reader, 40, None, None).unwrap(),
            Some(ReadOutcome::Line("after".to_owned()))
        );
        assert_eq!(
            read_limited_line(&mut reader, 40, None, None).unwrap(),
            None
        );
        // A final line without a newline still arrives.
        let mut reader = std::io::BufReader::new("tail".as_bytes());
        assert_eq!(
            read_limited_line(&mut reader, 40, None, None).unwrap(),
            Some(ReadOutcome::Line("tail".to_owned()))
        );
    }

    #[test]
    fn sharded_compiles_match_single_shard_reports() {
        let config = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
        let single = Server::new(config.clone());
        let sharded = Server::with_options(
            config,
            ServeOptions {
                shards: 4,
                ..ServeOptions::default()
            },
        );
        let request = r#"{"id":1,"op":"compile","source":"for (i = 0; i < 32; i++) { y[i] = x[i-2] + x[i] + x[i+2]; }"}"#;
        let strip = |json: Json| {
            let Json::Obj(fields) = json else {
                panic!("object")
            };
            Json::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "elapsed_us")
                    .map(|(k, v)| {
                        if k == "report" {
                            let Json::Obj(inner) = v else {
                                panic!("report")
                            };
                            (
                                k,
                                Json::Obj(
                                    inner
                                        .into_iter()
                                        .filter(|(k, _)| {
                                            !matches!(
                                                k.as_str(),
                                                "elapsed_us"
                                                    | "loops_per_second"
                                                    | "cache"
                                                    | "threads"
                                            )
                                        })
                                        .collect(),
                                ),
                            )
                        } else {
                            (k, v)
                        }
                    })
                    .collect(),
            )
        };
        let a = strip(parsed(&single.handle_line(request)));
        let b = strip(parsed(&sharded.handle_line(request)));
        assert_eq!(a, b, "routing must not change compile results");
    }

    #[test]
    fn compute_deadline_returns_named_error_and_keeps_serving() {
        let server = Server::with_options(
            PipelineConfig::new(AguSpec::new(4, 1).unwrap()),
            ServeOptions {
                compute_deadline: Some(Duration::from_nanos(1)),
                ..ServeOptions::default()
            },
        );
        // A 1 ns budget cannot cover a cold compile: named error.
        let reply = parsed(&server.handle_line(
            r#"{"id":3,"op":"compile","source":"for (i = 0; i < 64; i++) { y[i] = x[i-3] + x[i] + x[i+3]; }"}"#,
        ));
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            reply.get("error_kind").and_then(Json::as_str),
            Some("compute_deadline")
        );
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(3));
        // The server keeps serving (the "connection" survives)…
        let pong = parsed(&server.handle_line(r#"{"op":"ping"}"#));
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        // …and metrics recorded the deadline.
        let metrics = parsed(&server.handle_line(r#"{"op":"metrics"}"#));
        let deadlines = metrics
            .get("metrics")
            .and_then(|m| m.get("deadlines"))
            .expect("deadline counters");
        assert!(deadlines.get("compute").and_then(Json::as_u64).unwrap() >= 1);
    }

    #[test]
    fn bad_requests_never_shut_the_connection() {
        let server = server();
        for bad in [
            "not json",
            r#"{"op":"compile","source":"for (i = 0; i++) {"}"#,
            r#"{"op":"compile","source":"x","registers":0}"#,
        ] {
            let reply = server.handle_line(bad);
            assert!(!reply.shutdown, "{bad}");
            let json = parsed(&reply);
            assert_eq!(json.get("ok"), Some(&Json::Bool(false)), "{bad}");
        }
        // Still alive and compiling:
        let ok = server.handle_line(r#"{"op":"ping"}"#);
        assert!(ok.line.contains("pong"));
    }
}
