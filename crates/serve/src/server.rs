//! The service loop: one shared pipeline behind stdio or TCP.
//!
//! A [`Server`] owns one warm [`Pipeline`] and runs every `compile` and
//! `kernels` request on the thread that read it: the caller of
//! [`Server::handle_line`], the stdio loop, or a TCP connection's own
//! thread. Connections supply the concurrency. They share the pipeline
//! by reference, and its allocation cache is internally sharded, so
//! every repetition of a (shape, machine) pair hits the entry the
//! first one paid for, whichever connection sent it.
//!
//! Transports:
//!
//! * [`Server::serve`] — a blocking request/response loop over any
//!   `BufRead`/`Write` pair (stdin/stdout in the CLI, in-memory
//!   buffers in tests).
//! * [`Server::serve_tcp`] — accepts TCP connections and runs the same
//!   loop per connection on a scoped thread, so concurrent clients
//!   compile in parallel against the shared pipeline. A `shutdown`
//!   request stops the accept loop.
//!
//! The server enforces production bounds, each configured through
//! [`ServeOptions`]: a connection cap (over-limit connects get a
//! `busy` error and a clean close), a per-request read deadline (a
//! client with no complete request in time is answered with a
//! `read_deadline` error and reaped — the slow-loris fix), a compute
//! deadline (checked before each loop of a compile starts; once it has
//! passed the request gets a `compute_deadline` error, and the loops
//! that finished stay cached for a retry), and a bound on compiles in
//! flight (past it a compile is shed with a `shed` error instead of
//! oversubscribing the machine). A panic inside a compile costs that
//! request one `internal` error; the connection keeps serving.

use std::any::Any;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use raco_driver::json::{Json, Writer};
use raco_driver::{CompilationReport, DriverError, Pipeline, PipelineConfig};

use crate::metrics::{Op, ServiceMetrics};
use crate::protocol::{self, Envelope, Request};

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

/// Default bound on compiles in flight at once.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Default bound on concurrently served TCP connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Operational limits of the serve tier. [`Default`] sets no
/// deadlines, so embedders and tests see none unless they opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Bound on `compile`/`kernels` requests in flight at once, across
    /// every connection; a compile arriving past it is shed with an
    /// `ok:false` `shed` response. Nothing queues: each compile runs
    /// on the thread that read it, so this caps concurrent compute.
    pub queue_depth: usize,
    /// A TCP connection with no *complete* request line within this
    /// window is answered with a `read_deadline` error and closed
    /// (slow-loris reaping). `None` disables reaping.
    pub read_deadline: Option<Duration>,
    /// Budget for one compile, checked before each of its loops
    /// starts: once it has passed, the request gets a
    /// `compute_deadline` error and the connection survives. A loop
    /// that has started always finishes and stays cached, so a retry
    /// picks up where the compile stopped. `None` disables the
    /// deadline.
    pub compute_deadline: Option<Duration>,
    /// Bound on concurrently served TCP connections; over-limit
    /// connects get an `ok:false` `busy` response and a clean close.
    pub max_connections: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            queue_depth: DEFAULT_QUEUE_DEPTH,
            read_deadline: None,
            compute_deadline: None,
            max_connections: DEFAULT_MAX_CONNECTIONS,
        }
    }
}

/// Reads one newline-terminated line from `reader` into `line`, capping
/// its length at `limit` bytes (exclusive of the newline).
///
/// Returns `None` at end of input, otherwise a [`ReadOutcome`]: a line
/// within the cap (borrowed from `line` unless invalid UTF-8 needs
/// U+FFFD), an oversized line (consumed to its terminating newline —
/// buffering at most one `BufRead` chunk at a time — so the caller can
/// keep serving the connection), or an idle timeout.
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
fn read_limited_line<'a, R: BufRead>(
    reader: &mut R,
    line: &'a mut Vec<u8>,
    limit: usize,
    stop: Option<&AtomicBool>,
    idle_deadline: Option<Duration>,
) -> io::Result<Option<ReadOutcome<'a>>> {
    let deadline = idle_deadline.map(|window| Instant::now() + window);
    line.clear();
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
        Ok(Some(ReadOutcome::Line(String::from_utf8_lossy(line))))
    }
}

/// What one bounded line read produced.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ReadOutcome<'a> {
    /// A complete line within the cap.
    Line(std::borrow::Cow<'a, str>),
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

/// What one compile request runs.
enum ComputeWork {
    /// Named DSL units (a `compile` request, or one named kernel).
    Units(Vec<(String, String)>),
    /// The whole built-in kernel suite.
    KernelSuite,
}

/// Why a compile produced no report.
enum ComputeError {
    /// The pipeline itself failed (parse error, driver error…).
    Driver(String),
    /// `queue_depth` compiles were already in flight.
    Shed,
    /// The compute deadline passed before every loop started.
    Deadline,
    /// The compile panicked; carries the panic message.
    Internal(String),
}

/// A fault the next compile hits, injected by tests.
#[cfg(test)]
#[derive(Debug)]
enum Fault {
    /// Panic inside the compile, as a pipeline bug would.
    Panic,
    /// Wait at the barrier twice: once to tell the test the compile is
    /// in flight, once more to be released.
    Hold(std::sync::Arc<std::sync::Barrier>),
}

/// A long-lived compile service over one shared pipeline.
#[derive(Debug)]
pub struct Server {
    pipeline: Pipeline,
    options: ServeOptions,
    /// Compiles running right now, bounded by `options.queue_depth`.
    in_flight: AtomicUsize,
    /// Where graceful shutdowns (and default-path `save_cache`
    /// requests) snapshot the warm cache; `None` disables both.
    cache_save_path: Option<PathBuf>,
    /// Per-op latency histograms and service counters (the `metrics`
    /// op reads these; every response carries its `elapsed_us`).
    metrics: ServiceMetrics,
    #[cfg(test)]
    fault: std::sync::Mutex<Option<Fault>>,
}

impl Server {
    /// A server whose defaults (machine, options, cache policy) come
    /// from `config`. Per-request knobs override everything except the
    /// cache policy, which is fixed for the server's lifetime.
    pub fn new(config: PipelineConfig) -> Self {
        Self::with_options(config, ServeOptions::default())
    }

    /// A server with explicit operational limits: in-flight bound,
    /// read/compute deadlines and the connection cap.
    pub fn with_options(config: PipelineConfig, options: ServeOptions) -> Self {
        let mut options = options;
        options.queue_depth = options.queue_depth.max(1);
        options.max_connections = options.max_connections.max(1);
        Server {
            pipeline: Pipeline::with_config(config),
            options,
            in_flight: AtomicUsize::new(0),
            cache_save_path: None,
            metrics: ServiceMetrics::new(),
            #[cfg(test)]
            fault: std::sync::Mutex::new(None),
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

    /// The server's operational limits (normalized: bounds are at
    /// least 1).
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// The pipeline every request compiles against: its cache holds
    /// the server's whole working set (load a snapshot into it with
    /// [`Pipeline::load_cache`] to boot warm).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Writes the shutdown snapshot, if one is configured. Both
    /// transports call this once their last session has ended; a
    /// snapshot failure is reported on stderr but never turns a clean
    /// shutdown into an error (the cache is an optimization — losing
    /// it must not fail the service).
    fn snapshot_on_shutdown(&self) {
        if let Some(path) = &self.cache_save_path {
            match self.pipeline.save_cache(path) {
                Ok(report) => {
                    eprintln!("raco serve: cache snapshot {} ({report})", path.display());
                }
                Err(error) => eprintln!("raco serve: cache snapshot failed: {error}"),
            }
        }
    }

    /// Handles one request line and produces one response line.
    ///
    /// This is the transport-free core: the one session loop behind
    /// [`serve`](Self::serve) and [`serve_tcp`](Self::serve_tcp) calls
    /// it once per request, and tests and benches call it directly (a
    /// "loopback" client).
    ///
    /// Every request is counted and timed into the server's per-op
    /// metrics (see the `metrics` op), and every response line gets an
    /// `elapsed_us` field with its end-to-end wall time.
    pub fn handle_line(&self, line: &str) -> Reply {
        let mut out = String::new();
        let shutdown = self.handle_into(line, &mut out);
        Reply {
            line: out,
            shutdown,
        }
    }

    /// [`handle_line`](Self::handle_line) into a caller's buffer: appends
    /// the reply line to `out` and returns whether the client asked this
    /// connection to close.
    fn handle_into(&self, line: &str, out: &mut String) -> bool {
        self.accounted(out, |w| self.dispatch(line, w))
    }

    /// Counts and times one request under the op `respond` returns.
    /// `respond` writes the reply's fields and returns the op and whether
    /// the client asked to close; the reply's last field is its
    /// `elapsed_us`, stamped once the rest is written.
    fn accounted(
        &self,
        out: &mut String,
        respond: impl FnOnce(&mut Writer<'_>) -> (Op, bool),
    ) -> bool {
        let started = Instant::now();
        self.metrics.begin();
        let mut shutdown = false;
        Writer::compact(out).object(|w| {
            let (op, asked) = respond(w);
            shutdown = asked;
            let elapsed_ns = started.elapsed().as_nanos() as u64;
            self.metrics.finish(op, elapsed_ns);
            w.key("elapsed_us").thousandths(elapsed_ns);
        });
        shutdown
    }

    /// Runs one compile on the calling thread: sheds it when
    /// `queue_depth` compiles are already in flight, arms the compute
    /// deadline, and turns a panic into [`ComputeError::Internal`] so
    /// it costs one reply instead of the connection thread (whose
    /// panic would resurface when `serve_tcp` joins it and skip the
    /// shutdown snapshot).
    fn execute(
        &self,
        mut config: PipelineConfig,
        work: ComputeWork,
    ) -> Result<CompilationReport, ComputeError> {
        if self.in_flight.fetch_add(1, Ordering::AcqRel) >= self.options.queue_depth {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return Err(ComputeError::Shed);
        }
        config.deadline = self
            .options
            .compute_deadline
            .map(|budget| Instant::now() + budget);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            self.inject_fault();
            match &work {
                ComputeWork::Units(units) => self.pipeline.compile_units_with(&config, units),
                ComputeWork::KernelSuite => self.pipeline.compile_kernels_with(&config),
            }
        }));
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        match outcome {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(DriverError::DeadlineExceeded)) => Err(ComputeError::Deadline),
            Ok(Err(error)) => Err(ComputeError::Driver(error.to_string())),
            Err(payload) => Err(ComputeError::Internal(panic_message(payload.as_ref()))),
        }
    }

    /// Fires the fault a test armed, once.
    #[cfg(test)]
    fn inject_fault(&self) {
        let fault = self.fault.lock().expect("fault hook").take();
        match fault {
            Some(Fault::Panic) => panic!("injected fault"),
            Some(Fault::Hold(barrier)) => {
                barrier.wait();
                barrier.wait();
            }
            None => {}
        }
    }

    /// Writes a compile's failure, counting sheds, deadline hits and
    /// internal errors into the service metrics.
    fn write_compute_error(&self, w: &mut Writer<'_>, id: &Option<Json>, error: &ComputeError) {
        match error {
            ComputeError::Driver(message) => protocol::write_error(w, id, message),
            ComputeError::Shed => {
                self.metrics.note_shed_queue();
                protocol::write_error_kind(
                    w,
                    id,
                    "shed",
                    &format!(
                        "{} compiles already in flight; request shed — retry with backoff",
                        self.options.queue_depth
                    ),
                )
            }
            ComputeError::Deadline => {
                self.metrics.note_compute_deadline();
                protocol::write_error_kind(
                    w,
                    id,
                    "compute_deadline",
                    &format!(
                        "compile passed the {} ms compute deadline; the loops it finished \
                         stay cached, so a retry may hit",
                        self.options
                            .compute_deadline
                            .unwrap_or_default()
                            .as_millis()
                    ),
                )
            }
            ComputeError::Internal(message) => {
                self.metrics.note_internal();
                protocol::write_error_kind(
                    w,
                    id,
                    "internal",
                    &format!("internal error while compiling: {message}"),
                )
            }
        }
    }

    /// Decodes and executes one request, writing the reply's fields
    /// into `w`; returns the op the request is accounted under and
    /// whether the client asked to close.
    fn dispatch(&self, line: &str, w: &mut Writer<'_>) -> (Op, bool) {
        let Envelope { id, request, knobs } = match protocol::parse_line(line) {
            Ok(envelope) => envelope,
            Err(e) => {
                protocol::write_error(w, &e.id, &e.message);
                return (Op::Invalid, false);
            }
        };
        let op = Op::of(&request);
        let base_config = self.pipeline.config();
        let work = match request {
            Request::Compile { name, source } => Ok(ComputeWork::Units(vec![(name, source)])),
            Request::Kernels { kernel: None } => Ok(ComputeWork::KernelSuite),
            Request::Kernels { kernel: Some(name) } => named_kernel(name),
            Request::Stats => {
                protocol::write_head(w, &id, true);
                // Cache counters first (their layout is load-bearing
                // for scripted clients), then the service fields.
                w.key("stats").object(|w| {
                    protocol::write_stats(w, &self.pipeline.cache_stats());
                    self.metrics.write_stats_fields(w);
                });
                return (op, false);
            }
            Request::Metrics => {
                protocol::write_head(w, &id, true);
                w.key("metrics")
                    .object(|w| self.metrics.write_metrics(w, &self.pipeline.cache_stats()));
                return (op, false);
            }
            Request::ClearCache => {
                self.pipeline.clear_cache();
                protocol::write_ack(w, &id, "cleared");
                return (op, false);
            }
            Request::SaveCache { path } => {
                let target = match (&path, &self.cache_save_path) {
                    (Some(path), _) => PathBuf::from(path),
                    (None, Some(default)) => default.clone(),
                    (None, None) => {
                        protocol::write_error(
                            w,
                            &id,
                            "save_cache needs a `path` (the server has no --cache-save default)",
                        );
                        return (op, false);
                    }
                };
                match self.pipeline.save_cache(&target) {
                    Ok(report) => protocol::write_saved(w, &id, &target, &report),
                    Err(error) => protocol::write_error(w, &id, &error.to_string()),
                }
                return (op, false);
            }
            Request::Ping => {
                protocol::write_ack(w, &id, "pong");
                return (op, false);
            }
            Request::Shutdown => {
                protocol::write_ack(w, &id, "shutdown");
                return (op, true);
            }
        };
        // A bad knob is reported before an unknown kernel name.
        let config = knobs.apply(base_config);
        let (config, work) = match (config, work) {
            (Ok(config), Ok(work)) => (config, work),
            (Err(message), _) | (_, Err(message)) => {
                protocol::write_error(w, &id, &message);
                return (op, false);
            }
        };
        match self.execute(config, work) {
            Ok(mut report) => {
                // Serve responses omit the per-stage `timings` array
                // unless the request opts in: the `metrics` op serves
                // accumulated stage timings anyway.
                if knobs.timings != Some(true) {
                    report.timings.clear();
                }
                protocol::write_report(w, &id, &report);
            }
            Err(e) => self.write_compute_error(w, &id, &e),
        }
        (op, false)
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
    pub fn serve<R: BufRead, W: Write>(&self, input: R, output: W) -> io::Result<()> {
        // Stdio has no read timeouts, so the idle deadline does not
        // apply here: a pipe's writer is the server's own supervisor,
        // not an untrusted remote peer.
        let result = self.session(input, output, None, None);
        self.snapshot_on_shutdown();
        result.map(drop)
    }

    /// Serves one client: reads request lines, writes one framed reply
    /// per request and flushes it, until end of input, a `shutdown`
    /// request, or — when `stop` is given — a server-wide drain.
    /// Returns `true` if the client asked for shutdown.
    ///
    /// Blank lines are skipped. A line longer than [`MAX_REQUEST_LINE`]
    /// gets an error reply (accounted under the `invalid` op) and the
    /// session continues. With a `read_deadline`, a client that sends
    /// no complete request within it gets a `read_deadline` error and
    /// the session ends (the slow-loris reap). Read and write errors
    /// are returned.
    fn session<R: BufRead, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
        stop: Option<&AtomicBool>,
        read_deadline: Option<Duration>,
    ) -> io::Result<bool> {
        // One request and one reply buffer for the connection's lifetime:
        // every reply is written straight into its buffer, then sent.
        let mut request = Vec::new();
        let mut reply = String::new();
        while let Some(read) = read_limited_line(
            &mut reader,
            &mut request,
            MAX_REQUEST_LINE,
            stop,
            read_deadline,
        )? {
            reply.clear();
            let (shutdown, ends) = match read {
                ReadOutcome::Line(line) if line.trim().is_empty() => continue,
                ReadOutcome::Line(line) => {
                    let shutdown = self.handle_into(&line, &mut reply);
                    (shutdown, shutdown)
                }
                ReadOutcome::Oversized(total) => {
                    let message = format!(
                        "request line of {total} bytes exceeds the {MAX_REQUEST_LINE}-byte limit"
                    );
                    self.accounted(&mut reply, |w| {
                        protocol::write_error(w, &None, &message);
                        (Op::Invalid, false)
                    });
                    (false, false)
                }
                ReadOutcome::IdleTimeout => {
                    // Answer, then close: after a mid-line stall the
                    // stream offers no resync point, and an idle
                    // keep-alive past the deadline has had its chance.
                    self.metrics.note_read_deadline();
                    let message = format!(
                        "no complete request within the {} ms read deadline; closing",
                        read_deadline.unwrap_or_default().as_millis()
                    );
                    Writer::compact(&mut reply).object(|w| {
                        protocol::write_error_kind(w, &None, "read_deadline", &message)
                    });
                    (false, true)
                }
            };
            // One framed write per reply: a reply split across writes
            // would interact with Nagle and delayed ACKs on TCP.
            reply.push('\n');
            writer.write_all(reply.as_bytes())?;
            writer.flush()?;
            if ends {
                return Ok(shutdown);
            }
        }
        Ok(false)
    }

    /// Accepts connections on `listener` and serves each on its own
    /// scoped thread against the shared pipeline, until any client sends
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
                            // An I/O error ends only this connection.
                            let shutdown = connection_writer(&stream)
                                .and_then(|writer| {
                                    self.session(
                                        BufReader::new(&stream),
                                        writer,
                                        Some(stop),
                                        self.options.read_deadline,
                                    )
                                })
                                .unwrap_or(false);
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
        let message = format!(
            "server is at its connection limit ({}); retry with backoff",
            self.options.max_connections
        );
        let mut line = String::new();
        Writer::compact(&mut line)
            .object(|w| protocol::write_error_kind(w, &None, "busy", &message));
        line.push('\n');
        let mut writer = stream;
        let _ = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush());
    }
}

/// The work of a `kernels` request naming one kernel, or the error
/// that lists the known names.
fn named_kernel(name: String) -> Result<ComputeWork, String> {
    let suite = raco_kernels::suite();
    match suite.iter().find(|k| k.name() == name) {
        Some(kernel) => Ok(ComputeWork::Units(vec![(name, kernel.source().to_owned())])),
        None => {
            let known: Vec<&str> = suite.iter().map(|k| k.name()).collect();
            Err(format!(
                "unknown kernel `{name}` (known: {})",
                known.join(", ")
            ))
        }
    }
}

/// Readies an accepted connection for its session and returns the
/// write half. Reads block (the listener's nonblocking flag is
/// inherited on some platforms) but time out every [`DRAIN_POLL`]:
/// the timeout is what lets a parked idle connection notice a
/// server-wide drain or an expired read deadline. Nagle is off: with
/// it on, a reply's tail can be held hostage by the peer's delayed
/// ACK (~40 ms on Linux), fatal to request/response latency on a warm
/// cache.
fn connection_writer(stream: &TcpStream) -> io::Result<TcpStream> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(DRAIN_POLL))?;
    let _ = stream.set_nodelay(true);
    stream.try_clone()
}

/// The message a caught panic carried (`panic!` payloads are a `&str`
/// or a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(message), _) => (*message).to_owned(),
        (_, Some(message)) => message.clone(),
        _ => "panic with a non-text payload".to_owned(),
    }
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
        // An oversized line never reaches `handle_line`; the session
        // loop accounts and stamps its error reply the same way.
        let mut output = Vec::new();
        let input = "x".repeat(MAX_REQUEST_LINE + 1);
        server.serve(input.as_bytes(), &mut output).unwrap();
        let reply = Json::parse(String::from_utf8(output).unwrap().trim()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
        assert!(reply.get("elapsed_us").is_some());
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
        let errors = metrics.get("errors").expect("error counters");
        assert_eq!(errors.get("internal").and_then(Json::as_u64), Some(0));

        let cache = metrics.get("cache").expect("cache rates");
        assert!(cache.get("hit_rate").is_some());
        assert!(
            cache.get("allocation_hits").and_then(Json::as_u64).unwrap() > 0,
            "second identical compile hits the warm cache"
        );
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
    fn a_named_kernel_replies_like_a_compile_of_its_source() {
        let server = server();
        for kernel in raco_kernels::suite() {
            for machine in ["paper", "bwdsp"] {
                let named = parsed(&server.handle_line(&format!(
                    r#"{{"op":"kernels","kernel":"{}","machine":"{machine}"}}"#,
                    kernel.name()
                )));
                let compiled = parsed(&server.handle_line(&format!(
                    r#"{{"op":"compile","name":{},"source":{},"machine":"{machine}"}}"#,
                    Json::Str(kernel.name().to_owned()).render(),
                    Json::Str(kernel.source().to_owned()).render()
                )));
                let what = format!("{} on {machine}", kernel.name());
                assert_eq!(named.get("ok"), Some(&Json::Bool(true)), "{what}");
                assert_eq!(units(&named), units(&compiled), "{what}");
                let machine_of =
                    |reply: &Json| reply.get("report").and_then(|r| r.get("machine")).cloned();
                assert_eq!(machine_of(&named), machine_of(&compiled), "{what}");
            }
        }
    }

    #[test]
    fn read_limited_line_caps_and_resynchronizes() {
        let input = format!("short\n{}\nafter\n", "x".repeat(100));
        let mut reader = std::io::BufReader::with_capacity(16, input.as_bytes());
        let mut line = Vec::new();
        assert_eq!(
            read_limited_line(&mut reader, &mut line, 40, None, None).unwrap(),
            Some(ReadOutcome::Line("short".into()))
        );
        // The long line reports its true length and is fully drained …
        assert_eq!(
            read_limited_line(&mut reader, &mut line, 40, None, None).unwrap(),
            Some(ReadOutcome::Oversized(100))
        );
        // … so the next read picks up exactly at the following line.
        assert_eq!(
            read_limited_line(&mut reader, &mut line, 40, None, None).unwrap(),
            Some(ReadOutcome::Line("after".into()))
        );
        assert_eq!(
            read_limited_line(&mut reader, &mut line, 40, None, None).unwrap(),
            None
        );
        // A final line without a newline still arrives.
        let mut reader = std::io::BufReader::new("tail".as_bytes());
        assert_eq!(
            read_limited_line(&mut reader, &mut line, 40, None, None).unwrap(),
            Some(ReadOutcome::Line("tail".into()))
        );
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

    /// A four-loop unit whose loops each cost a cold allocation.
    const MULTI_LOOP: &str = concat!(
        r#""source":"for (i = 0; i < 64; i++) { y[i] = x[i-3] + x[i] + x[i+2] + x[i+7] + x[i+11]; } "#,
        r#"for (j = 0; j < 64; j++) { z[j] = w[j-5] + w[j+1] + w[j+4] + w[j+9] + w[j+13]; } "#,
        r#"for (k = 0; k < 64; k++) { y[k] = v[k-6] + v[k-1] + v[k+3] + v[k+8] + v[k+12]; } "#,
        r#"for (n = 0; n < 64; n++) { z[n] = u[n-7] + u[n-2] + u[n+5] + u[n+6] + u[n+10]; }""#,
    );

    /// The rendered `report.units` of a reply (the part that must not
    /// depend on timing or on what the cache already held).
    fn units(reply: &Json) -> String {
        reply
            .get("report")
            .and_then(|r| r.get("units"))
            .unwrap_or_else(|| panic!("a report: {reply:?}"))
            .render()
    }

    #[test]
    fn compute_deadline_mid_batch_leaves_the_cache_sound() {
        let mut config = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
        config.parallelism = raco_driver::Parallelism::Sequential;
        let request = format!(r#"{{"op":"compile",{MULTI_LOOP}}}"#);
        let reference = units(&parsed(&Server::new(config.clone()).handle_line(&request)));
        // Grow the budget by a quarter until the compile fits in it, so
        // some budget lands between two loop starts. Every budget
        // that expires leaves whatever its finished loops cached; the
        // same request without a deadline must still answer exactly
        // what a fresh server does.
        let (mut deadlines, mut partial) = (0, 0);
        let mut budget = Duration::from_micros(1);
        loop {
            let mut server = Server::with_options(
                config.clone(),
                ServeOptions {
                    compute_deadline: Some(budget),
                    ..ServeOptions::default()
                },
            );
            let reply = parsed(&server.handle_line(&request));
            if reply.get("ok") == Some(&Json::Bool(true)) {
                assert_eq!(units(&reply), reference);
                break;
            }
            assert_eq!(
                reply.get("error_kind").and_then(Json::as_str),
                Some("compute_deadline"),
                "{reply:?}"
            );
            deadlines += 1;
            let stats = server.pipeline().cache_stats();
            if stats.allocation_entries > 0 {
                partial += 1;
            }
            server.options.compute_deadline = None;
            let retry = parsed(&server.handle_line(&request));
            assert_eq!(units(&retry), reference, "budget {budget:?}");
            budget = budget * 5 / 4;
            assert!(budget < Duration::from_secs(60), "the compile never fit");
        }
        assert!(deadlines > 0, "a 1 µs budget cannot fit four cold loops");
        assert!(partial > 0, "some budget expired between loops");
    }

    #[test]
    fn a_compile_past_the_in_flight_bound_is_shed_and_counted() {
        let server = Server::with_options(
            PipelineConfig::new(AguSpec::new(4, 1).unwrap()),
            ServeOptions {
                queue_depth: 1,
                ..ServeOptions::default()
            },
        );
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        *server.fault.lock().unwrap() = Some(Fault::Hold(barrier.clone()));
        let compile =
            r#"{"id":1,"op":"compile","source":"for (i = 0; i < 8; i++) { s += x[i]; }"}"#;
        let (first, shed, pong) = std::thread::scope(|scope| {
            let held = scope.spawn(|| parsed(&server.handle_line(compile)));
            // The first compile is now in flight and holds the one slot.
            barrier.wait();
            let shed = parsed(&server.handle_line(
                r#"{"id":2,"op":"compile","source":"for (i = 0; i < 8; i++) { s += x[i]; }"}"#,
            ));
            let pong = parsed(&server.handle_line(r#"{"op":"ping"}"#));
            barrier.wait();
            (held.join().expect("held compile"), shed, pong)
        });
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first:?}");
        assert_eq!(shed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(shed.get("error_kind").and_then(Json::as_str), Some("shed"));
        assert_eq!(shed.get("id").and_then(Json::as_u64), Some(2));
        // Only compiles count against the bound.
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        let metrics = parsed(&server.handle_line(r#"{"op":"metrics"}"#));
        let shed = metrics
            .get("metrics")
            .and_then(|m| m.get("shed"))
            .expect("shed counters");
        assert_eq!(shed.get("queue").and_then(Json::as_u64), Some(1));
        // The slot is free again.
        let again = parsed(&server.handle_line(compile));
        assert_eq!(again.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn a_panicking_compile_costs_one_internal_reply() {
        let snap =
            std::env::temp_dir().join(format!("raco-serve-panic-{}.snap", std::process::id()));
        std::fs::remove_file(&snap).ok();
        let server = server().with_cache_save_path(&snap);
        *server.fault.lock().unwrap() = Some(Fault::Panic);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().unwrap();
        let compile = |id: u64| {
            format!(
                r#"{{"id":{id},"op":"compile","source":"for (i = 0; i < 8; i++) {{ y[i] = x[i] + x[i+1]; }}"}}"#
            )
        };
        // One connection: the panicking compile, then a ping, the same
        // compile again and the metrics. Replies are checked after the
        // server has shut down, so a failed check cannot strand it.
        let requests = [
            compile(1),
            r#"{"op":"ping","id":2}"#.to_owned(),
            compile(3),
            r#"{"op":"metrics"}"#.to_owned(),
            r#"{"op":"shutdown"}"#.to_owned(),
        ];
        let (replies, served) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_tcp(&listener));
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let replies: Vec<Option<Json>> = requests
                .iter()
                .map(|line| {
                    writeln!(writer, "{line}").ok()?;
                    let mut reply = String::new();
                    reader.read_line(&mut reply).ok()?;
                    Json::parse(&reply).ok()
                })
                .collect();
            if replies[4].is_none() {
                // The connection died: stop the server from another.
                let mut other = TcpStream::connect(addr).expect("connect");
                writeln!(other, r#"{{"op":"shutdown"}}"#).unwrap();
            }
            (replies, handle.join())
        });
        let written = std::fs::metadata(&snap).map(|m| m.len()).unwrap_or(0);
        std::fs::remove_file(&snap).ok();

        assert!(matches!(served, Ok(Ok(()))), "serve_tcp exits cleanly");
        let reply = |i: usize| {
            replies[i]
                .clone()
                .unwrap_or_else(|| panic!("request {i} got no reply"))
        };
        let failed = reply(0);
        assert_eq!(failed.get("ok"), Some(&Json::Bool(false)), "{failed:?}");
        assert_eq!(
            failed.get("error_kind").and_then(Json::as_str),
            Some("internal")
        );
        assert_eq!(failed.get("id").and_then(Json::as_u64), Some(1));
        // The same connection keeps serving, compiles included.
        assert_eq!(reply(1).get("ok"), Some(&Json::Bool(true)));
        let compiled = reply(2);
        assert_eq!(compiled.get("ok"), Some(&Json::Bool(true)), "{compiled:?}");
        let internal = reply(3)
            .get("metrics")
            .and_then(|m| m.get("errors"))
            .and_then(|e| e.get("internal"))
            .and_then(Json::as_u64);
        assert_eq!(internal, Some(1));
        assert!(written > 0, "the shutdown snapshot is still written");
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
