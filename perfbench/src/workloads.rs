//! The three workloads. Each has one caller thread; see README.md for
//! why each exists and which layers it stresses.

use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::slice;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use raco::driver::{CacheStats, CompilationReport, Json, Parallelism, Pipeline, PipelineConfig};
use raco::ir::{AguSpec, MachineDescription};
use raco::serve::protocol;

use crate::calib::Shape;
use crate::gen::{self, Rng};
use crate::procfs;
use crate::replay;
use crate::trace::{name_id, Recorder, NO_PARENT};

/// Seed of every workload's fixed inputs (the cold corpus, the warm pool
/// and the serve shapes). It is a constant, so the fixed pass and its
/// exact counts are the same on every run; `--seed` draws only the order
/// in which the timed phase takes the inputs.
const INPUT_SEED: u64 = 0x1f9e_d5ee_d000;

/// Exact counts over one fixed pass of a workload's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counts {
    /// Sum over loops of predicted explicit address-update cycles per
    /// iteration (the paper's objective).
    pub addr_cycles: u64,
    /// The same sum as measured by the simulator.
    pub measured_cycles: u64,
    /// Generated address-program words.
    pub code_words: u64,
    /// Branch-and-bound nodes explored by a cold pass.
    pub bb_nodes: u64,
    /// Cache hits and lookups in the state the timed phase runs in.
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

impl Counts {
    fn add_loops<'a>(&mut self, loops: impl Iterator<Item = &'a raco::driver::LoopReport>) {
        for l in loops {
            self.addr_cycles += l.cost;
            self.measured_cycles += l.measured_cost.unwrap_or(u64::MAX);
            self.code_words += l.code_words;
        }
    }
}

/// One timed op: wall time of the program call and whether it failed.
pub struct Op {
    pub ns: u64,
    pub failed: bool,
}

/// One traced op: per-span-name self time (ns) and the op's wall time.
pub struct TracedOp {
    pub selfs: Vec<f64>,
    pub wall_ns: u64,
    pub failed: bool,
}

pub trait Workload {
    /// Brings the system to where it can take its first timed op.
    /// Called several times; each call starts from scratch.
    fn setup(&mut self) -> Result<(), String>;
    /// One fixed pass over the inputs; also records the expected output
    /// every timed op is checked against. With `traced`, it also replays
    /// every input through the traced compile (checking that it renders
    /// the same units) and counts the branch-and-bound nodes.
    fn fixed_pass(&mut self, traced: bool) -> Result<Counts, String>;
    fn op(&mut self, i: u64) -> Op;
    fn traced_op(&mut self, i: u64, rec: &mut Recorder) -> TracedOp;
    /// Work done between slices, outside every timing.
    fn between_slices(&mut self) {}
    fn peak_rss_mb(&self) -> Result<f64, String>;
    /// CPU time the program spends off the caller thread (ns, cumulative).
    fn background_cpu_ns(&self) -> u64;
    fn faults(&self) -> &Faults;
    /// The reference-slice shape whose speed tracks this workload's ops.
    fn shape(&self) -> Shape {
        Shape::FanOut
    }
}

/// What went wrong so far. A failed op (a loop failure, parse error,
/// rejected request or transport error) counts against `failed`; an
/// output that differs from its reference fails the whole run, and so
/// does a lost connection, which ends the timed phase.
#[derive(Debug, Default)]
pub struct Faults {
    /// The first few messages of each kind, for the log.
    pub failures: Vec<String>,
    pub mismatches: Vec<String>,
    pub mismatched: u64,
    /// Why the workload cannot take another op, if it cannot.
    pub lost: Option<String>,
}

const KEEP_MESSAGES: usize = 16;

impl Faults {
    fn fail(&mut self, message: String) {
        if self.failures.len() < KEEP_MESSAGES {
            self.failures.push(message);
        }
    }

    fn mismatch(&mut self, message: String) {
        self.mismatched += 1;
        if self.mismatches.len() < KEEP_MESSAGES {
            self.mismatches.push(message);
        }
    }
}

/// Per loop: (predicted cycles, code words, measured cycles).
type Expected = Vec<(u64, u64, Option<u64>)>;

fn outcome(report: &CompilationReport) -> Expected {
    report
        .loops()
        .map(|l| (l.cost, l.code_words, l.measured_cost))
        .collect()
}

fn units_json(report: &CompilationReport) -> String {
    report
        .to_json_value()
        .get("units")
        .map(Json::render)
        .unwrap_or_default()
}

fn lookups(before: &CacheStats, after: &CacheStats) -> (u64, u64) {
    let hits =
        after.allocation_hits + after.curve_hits - before.allocation_hits - before.curve_hits;
    let misses = after.allocation_misses + after.curve_misses
        - before.allocation_misses
        - before.curve_misses;
    (hits, hits + misses)
}

/// Adds one cold, sequential compile of `unit` to `counts`. With
/// `traced`, also replays it layer by layer, checks that the replay
/// renders the same units as the real pipeline, and counts its
/// branch-and-bound nodes. Returns the expected per-loop outcome and the
/// cache statistics of the fresh pipeline it ran on.
fn count_unit(
    config: &PipelineConfig,
    unit: &(String, String),
    counts: &mut Counts,
    traced: bool,
) -> Result<(Expected, CacheStats), String> {
    let mut config = config.clone();
    config.parallelism = Parallelism::Sequential;
    let pipeline = Pipeline::with_config(config.clone());
    let real = pipeline
        .compile_units(slice::from_ref(unit))
        .map_err(|e| format!("fixed pass: {e}"))?;
    if real.failed() != 0 {
        return Err(format!(
            "fixed pass: {} failed: {}",
            unit.0,
            units_json(&real)
        ));
    }
    if traced {
        let replay = replay::compile_one(
            &Recorder::new(),
            NO_PARENT,
            &Pipeline::with_config(config.clone()),
            &config,
            unit,
        )?;
        if units_json(&replay.report) != units_json(&real) {
            return Err(format!("replay of {} diverges from the pipeline", unit.0));
        }
        counts.bb_nodes += replay.bb_nodes;
    }
    counts.add_loops(real.loops());
    Ok((outcome(&real), pipeline.cache_stats()))
}

/// Checks one compile against the fixed pass; `false` if the op failed.
fn check(
    result: Result<CompilationReport, impl std::fmt::Display>,
    expected: &Expected,
    what: &str,
    faults: &mut Faults,
) -> bool {
    match result {
        Ok(report) if report.failed() == 0 => {
            if outcome(&report) != *expected {
                faults.mismatch(format!("{what}: output differs from the fixed pass"));
            }
            true
        }
        Ok(report) => {
            faults.fail(format!("{what}: loop failure: {}", units_json(&report)));
            false
        }
        Err(e) => {
            faults.fail(format!("{what}: {e}"));
            false
        }
    }
}

fn in_process_background_cpu() -> u64 {
    procfs::cpu_ns("self", procfs::own_tid().as_deref())
}

// ---------------------------------------------------------------------
// batch_cold
// ---------------------------------------------------------------------

/// Built-in machines the cold corpus rotates over.
const BUILTINS: &[&str] = &["paper", "tms320c2x", "dsp56k", "adsp210x", "bwdsp", "saris"];
const CORPUS_UNITS: usize = 384;

pub struct BatchCold {
    configs: Vec<PipelineConfig>,
    corpus: Vec<(usize, (String, String))>,
    /// The seeded order the timed phase walks the corpus in.
    order: Vec<u16>,
    expected: Vec<Expected>,
    faults: Faults,
}

impl BatchCold {
    pub fn new(seed: u64) -> Self {
        let configs = BUILTINS
            .iter()
            .map(|m| {
                let spec = *MachineDescription::builtin(m)
                    .expect("built-in machine")
                    .spec();
                PipelineConfig::new(spec)
            })
            .collect();
        let mut inputs = Rng::new(INPUT_SEED ^ 0xba7c_c01d);
        let corpus = (0..CORPUS_UNITS)
            .map(|u| {
                (
                    u % BUILTINS.len(),
                    (format!("unit{u}"), gen::multi_loop_unit(&mut inputs, u)),
                )
            })
            .collect();
        let mut rng = Rng::new(seed ^ 0xba7c_c01d);
        let mut order: Vec<u16> = (0..CORPUS_UNITS as u16).collect();
        for k in (1..order.len()).rev() {
            order.swap(k, rng.range(0, k as i64) as usize);
        }
        BatchCold {
            configs,
            corpus,
            order,
            expected: Vec::new(),
            faults: Faults::default(),
        }
    }

    fn compile(&self, index: usize) -> Result<CompilationReport, raco::driver::DriverError> {
        let (machine, unit) = &self.corpus[index];
        Pipeline::with_config(self.configs[*machine].clone()).compile_units(slice::from_ref(unit))
    }
}

impl Workload for BatchCold {
    /// Cold ops run for milliseconds of CPU-bound allocation on every
    /// CPU, so CPU speed, not thread wake-up, tracks them.
    fn shape(&self) -> Shape {
        Shape::Parallel
    }

    fn setup(&mut self) -> Result<(), String> {
        // Nothing is kept between ops, and a fresh Pipeline costs
        // microseconds, so set-up is the process warm-up: the built-in
        // kernel suite once per machine on fresh pipelines. It exercises
        // every layer a cold op does, so work moved out of the ops into
        // process-wide state shows here.
        for config in &self.configs {
            black_box(Pipeline::with_config(config.clone()).compile_kernels());
        }
        Ok(())
    }

    fn fixed_pass(&mut self, traced: bool) -> Result<Counts, String> {
        // Each unit on a fresh pipeline, as in the timed phase.
        let mut counts = Counts::default();
        self.expected.clear();
        for (machine, unit) in &self.corpus {
            let (expected, stats) =
                count_unit(&self.configs[*machine], unit, &mut counts, traced)?;
            let (hits, total) = lookups(&CacheStats::default(), &stats);
            counts.cache_hits += hits;
            counts.cache_lookups += total;
            self.expected.push(expected);
        }
        Ok(counts)
    }

    fn op(&mut self, i: u64) -> Op {
        let index = usize::from(self.order[i as usize % self.order.len()]);
        let started = Instant::now();
        let result = self.compile(index);
        let ns = started.elapsed().as_nanos() as u64;
        let ok = check(
            result,
            &self.expected[index],
            &self.corpus[index].1 .0,
            &mut self.faults,
        );
        Op { ns, failed: !ok }
    }

    fn traced_op(&mut self, i: u64, rec: &mut Recorder) -> TracedOp {
        let index = usize::from(self.order[i as usize % self.order.len()]);
        let (machine, unit) = &self.corpus[index];
        let config = &self.configs[*machine];
        rec.begin_op(i as u32);
        let root = rec.open("op", NO_PARENT);
        let compile = rec.open("driver.compile", root);
        let pipeline = Pipeline::with_config(config.clone());
        let replayed = replay::compile_one(rec, compile, &pipeline, config, unit);
        drop(pipeline);
        rec.close(compile);
        let wall_ns = rec.close(root);
        let selfs = rec.finish_op();
        let ok = check(
            replayed.map(|r| r.report),
            &self.expected[index],
            &unit.0,
            &mut self.faults,
        );
        TracedOp {
            selfs,
            wall_ns,
            failed: !ok,
        }
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        procfs::peak_rss_mb("self")
    }

    fn background_cpu_ns(&self) -> u64 {
        in_process_background_cpu()
    }

    fn faults(&self) -> &Faults {
        &self.faults
    }
}

// ---------------------------------------------------------------------
// library_warm
// ---------------------------------------------------------------------

const POOL_UNITS: usize = 64;
const DRAWS: usize = 1 << 16;

pub struct LibraryWarm {
    config: PipelineConfig,
    pool: Vec<(String, String)>,
    draws: Vec<u16>,
    pipeline: Option<Pipeline>,
    expected: Vec<Expected>,
    faults: Faults,
}

impl LibraryWarm {
    pub fn new(seed: u64) -> Self {
        let mut inputs = Rng::new(INPUT_SEED ^ 0x11b_4a4d);
        let pool = (0..POOL_UNITS)
            .map(|u| (format!("unit{u}"), gen::multi_loop_unit(&mut inputs, u)))
            .collect();
        let mut rng = Rng::new(seed ^ 0x11b_4a4d);
        let draws = (0..DRAWS).map(|_| rng.skewed(POOL_UNITS) as u16).collect();
        LibraryWarm {
            config: PipelineConfig::new(AguSpec::default()),
            pool,
            draws,
            pipeline: None,
            expected: Vec::new(),
            faults: Faults::default(),
        }
    }

    fn pipeline(&self) -> &Pipeline {
        self.pipeline.as_ref().expect("set up before use")
    }
}

impl Workload for LibraryWarm {
    fn setup(&mut self) -> Result<(), String> {
        self.pipeline = None;
        let pipeline = Pipeline::with_config(self.config.clone());
        for unit in &self.pool {
            let report = pipeline
                .compile_units(slice::from_ref(unit))
                .map_err(|e| e.to_string())?;
            black_box(report);
        }
        self.pipeline = Some(pipeline);
        Ok(())
    }

    fn fixed_pass(&mut self, traced: bool) -> Result<Counts, String> {
        let mut counts = Counts::default();
        self.expected.clear();
        for unit in &self.pool {
            self.expected
                .push(count_unit(&self.config, unit, &mut counts, traced)?.0);
        }
        let before = self.pipeline().cache_stats();
        for unit in &self.pool {
            let report = self
                .pipeline()
                .compile_units(slice::from_ref(unit))
                .map_err(|e| e.to_string())?;
            black_box(report);
        }
        (counts.cache_hits, counts.cache_lookups) =
            lookups(&before, &self.pipeline().cache_stats());
        Ok(counts)
    }

    fn op(&mut self, i: u64) -> Op {
        let index = usize::from(self.draws[i as usize % DRAWS]);
        let unit = &self.pool[index];
        let pipeline = self.pipeline.as_ref().expect("set up before use");
        let started = Instant::now();
        let result = pipeline.compile_units(slice::from_ref(unit));
        let ns = started.elapsed().as_nanos() as u64;
        let ok = check(result, &self.expected[index], &unit.0, &mut self.faults);
        Op { ns, failed: !ok }
    }

    fn traced_op(&mut self, i: u64, rec: &mut Recorder) -> TracedOp {
        let index = usize::from(self.draws[i as usize % DRAWS]);
        let unit = &self.pool[index];
        let pipeline = self.pipeline.as_ref().expect("set up before use");
        rec.begin_op(i as u32);
        let root = rec.open("op", NO_PARENT);
        let compile = rec.open("driver.compile", root);
        let replayed = replay::compile_one(rec, compile, pipeline, &self.config, unit);
        rec.close(compile);
        let wall_ns = rec.close(root);
        let selfs = rec.finish_op();
        let ok = check(
            replayed.map(|r| r.report),
            &self.expected[index],
            &unit.0,
            &mut self.faults,
        );
        TracedOp {
            selfs,
            wall_ns,
            failed: !ok,
        }
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        procfs::peak_rss_mb("self")
    }

    fn background_cpu_ns(&self) -> u64 {
        in_process_background_cpu()
    }

    fn faults(&self) -> &Faults {
        &self.faults
    }
}

// ---------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------

const SHAPES: usize = 120;
/// Four numeric-knob machines (address registers, auto-modify range)…
const KNOB_MACHINES: &[(u64, u64)] = &[(4, 1), (4, 2), (6, 1), (8, 2)];
/// …and four named ones.
const NAMED_MACHINES: &[&str] = &["paper", "dsp56k", "bwdsp", "saris"];
/// Replies cross-checked against a cold in-process compile per run, on
/// top of the full fixed pass.
const SAMPLED_CHECKS: usize = 24;

/// A spawned `raco serve --tcp` with its CLI defaults.
struct Server {
    child: Child,
    pid: String,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    fn spawn(raco: &Path) -> Result<Self, String> {
        let mut child = Command::new(raco)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", raco.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let pid = child.id().to_string();
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("raco serve exited before announcing its port".to_owned());
            }
            if let Some(addr) = line.trim().strip_prefix("raco serve: listening on ") {
                break addr.to_owned();
            }
        };
        // Keep draining stderr so the server never blocks on the pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Server {
            child,
            pid,
            addr,
            drain: Some(drain),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            reply: String::with_capacity(4096),
        })
    }

    /// Sends one framed request line and reads the reply line.
    fn request(&mut self, framed: &[u8]) -> io::Result<&str> {
        self.writer.write_all(framed)?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok(self.reply.trim_end())
    }
}

/// The `"units":[…]` slice of a compile reply (the last report field).
fn units_slice(reply: &str) -> Option<&str> {
    let start = reply.find("\"units\":")?;
    let end = reply.rfind("},\"elapsed_us\":")?;
    reply.get(start..end)
}

fn array(json: Option<&Json>) -> &[Json] {
    match json {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

fn number(json: Option<&Json>) -> Option<f64> {
    match json? {
        Json::Num(x) => Some(*x),
        Json::UInt(n) => Some(*n as f64),
        Json::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// The layer a pipeline stage of the reply's `timings` array belongs to.
/// `simulate` covers trace capture and the simulator run together.
fn stage_layer(stage: &str) -> Option<&'static str> {
    Some(match stage {
        "parse" => "ir.parse",
        "lower" => "ir.lower",
        "curve_hit" | "alloc_hit" => "driver.cache_lookup",
        "curve_miss" => "core.curve",
        "alloc_miss" | "allocate" => "core.alloc",
        "partition" => "core.partition",
        "codegen" => "agu.codegen",
        "simulate" => "agu.sim",
        "check" => "check.check",
        _ => return None,
    })
}

fn elapsed_ns(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

pub struct ServeWarm {
    raco: std::path::PathBuf,
    seed: u64,
    lines: Vec<String>,
    framed: Vec<Vec<u8>>,
    /// The same requests with `"timings":true`, sent by traced ops so the
    /// reply carries the server's own per-stage times.
    timed_lines: Vec<String>,
    framed_timed: Vec<Vec<u8>>,
    draws: Vec<u16>,
    server: Option<Server>,
    conn: Option<Conn>,
    expected: Vec<String>,
    /// Default `raco serve` configuration, compiling sequentially as its
    /// shards do; the in-process reference runs under it.
    base: PipelineConfig,
    /// Traced run: a pipeline warmed like a server shard, whose reports
    /// the protocol render is timed on.
    local: Option<Pipeline>,
    samples: Vec<(usize, String)>,
    sampled: usize,
    faults: Faults,
}

impl ServeWarm {
    pub fn new(seed: u64, raco: &Path) -> Self {
        let mut inputs = Rng::new(INPUT_SEED ^ 0x5e7e_3a7a);
        let shapes: Vec<String> = (0..SHAPES)
            .map(|s| gen::single_loop_shape(&mut inputs, s))
            .collect();
        let (mut lines, mut timed_lines) = (Vec::new(), Vec::new());
        for (s, shape) in shapes.iter().enumerate() {
            let head = vec![
                ("op".to_owned(), Json::str("compile")),
                ("name".to_owned(), Json::str(format!("s{s}"))),
                ("source".to_owned(), Json::str(shape.as_str())),
            ];
            let knobs = KNOB_MACHINES
                .iter()
                .map(|&(registers, modify)| {
                    vec![
                        ("registers".to_owned(), Json::UInt(registers)),
                        ("modify".to_owned(), Json::UInt(modify)),
                    ]
                })
                .chain(
                    NAMED_MACHINES
                        .iter()
                        .map(|m| vec![("machine".to_owned(), Json::str(*m))]),
                );
            for machine in knobs {
                let mut fields = head.clone();
                fields.extend(machine);
                lines.push(Json::Obj(fields.clone()).render());
                fields.push(("timings".to_owned(), Json::Bool(true)));
                timed_lines.push(Json::Obj(fields).render());
            }
        }
        let mut rng = Rng::new(seed ^ 0x5e7e_3a7a);
        let machines = KNOB_MACHINES.len() + NAMED_MACHINES.len();
        let draws = (0..DRAWS)
            .map(|_| {
                let shape = rng.skewed(SHAPES);
                let machine = rng.range(0, machines as i64 - 1) as usize;
                (shape * machines + machine) as u16
            })
            .collect();
        let frame = |lines: &[String]| -> Vec<Vec<u8>> {
            lines
                .iter()
                .map(|l| format!("{l}\n").into_bytes())
                .collect()
        };
        let (framed, framed_timed) = (frame(&lines), frame(&timed_lines));
        let mut base = raco::fuzz::base_config();
        base.parallelism = Parallelism::Sequential;
        ServeWarm {
            raco: raco.to_path_buf(),
            seed,
            lines,
            framed,
            timed_lines,
            framed_timed,
            draws,
            server: None,
            conn: None,
            expected: Vec::new(),
            base,
            local: None,
            samples: Vec::new(),
            sampled: 0,
            faults: Faults::default(),
        }
    }

    fn conn(&mut self) -> &mut Conn {
        self.conn.as_mut().expect("set up before use")
    }

    fn cache_stats(&mut self) -> Result<(u64, u64), String> {
        let reply = self
            .conn()
            .request(b"{\"op\":\"stats\"}\n")
            .map_err(|e| e.to_string())?;
        let json = Json::parse(reply).map_err(|e| e.to_string())?;
        let stats = json.get("stats").ok_or("stats reply without stats")?;
        let field = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
        let hits = field("allocation_hits") + field("curve_hits");
        Ok((
            hits,
            hits + field("allocation_misses") + field("curve_misses"),
        ))
    }

    /// Checks one reply against the expected units; `false` if it failed.
    fn check_reply(&mut self, index: usize, reply: io::Result<()>, i: u64) -> bool {
        let Some(conn) = self.conn.as_ref() else {
            return false;
        };
        let reply_text = conn.reply.trim_end();
        match reply {
            Err(e) => {
                let message = format!("request {i}: transport error: {e}");
                self.faults.fail(message.clone());
                self.faults.lost = Some(message);
                self.conn = None;
                false
            }
            Ok(()) if !reply_text.starts_with("{\"ok\":true") => {
                self.faults
                    .fail(format!("request {i}: rejected: {reply_text}"));
                false
            }
            Ok(()) => {
                if units_slice(reply_text) != Some(self.expected[index].as_str()) {
                    self.faults.mismatch(format!(
                        "request {i}: units differ from the fixed pass: {reply_text}"
                    ));
                    return false;
                }
                if self.sampled < SAMPLED_CHECKS
                    && (i ^ self.seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56 == 0
                {
                    self.sampled += 1;
                    self.samples.push((index, reply_text.to_owned()));
                }
                true
            }
        }
    }

    /// Splits the server's handling (the reply's `elapsed_us`) out of a
    /// traced op's `serve.transport` time. The compile layers come from
    /// the reply's own stage timings. Protocol parse and render are timed
    /// after the op, in-process, on the same request and on a report of
    /// the same compile. What neither explains (dispatch, shard routing,
    /// worker handoff) is `serve.handle`.
    fn split_handling(&self, index: usize, selfs: &mut [f64]) -> Result<(), String> {
        let reply = self.conn.as_ref().ok_or("no connection")?.reply.trim_end();
        let json = Json::parse(reply).map_err(|e| e.to_string())?;
        let handled = number(json.get("elapsed_us")).ok_or("reply without elapsed_us")? * 1e3;
        let mut explained = 0.0;
        let stages = json.get("report").and_then(|r| r.get("timings"));
        for stage in array(stages) {
            let name = stage.get("stage").and_then(Json::as_str).unwrap_or("");
            let layer = stage_layer(name).ok_or(format!("unknown pipeline stage {name:?}"))?;
            let ns = number(stage.get("total_us")).ok_or("stage without total_us")? * 1e3;
            selfs[name_id(layer)] += ns;
            explained += ns;
        }

        let started = Instant::now();
        let envelope = protocol::parse_line(&self.timed_lines[index]).map_err(|e| e.message)?;
        let parse_ns = elapsed_ns(started);
        let config = envelope.knobs.apply(&self.base)?;
        let protocol::Request::Compile { name, source } = envelope.request else {
            return Err("not a compile request".to_owned());
        };
        let local = self.local.as_ref().ok_or("fixed pass before tracing")?;
        let report = local
            .compile_units_with(&config, &[(name, source)])
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        black_box(report.to_json());
        let to_json_ns = elapsed_ns(started);
        let started = Instant::now();
        black_box(protocol::report_line(&envelope.id, &report));
        let render_ns = elapsed_ns(started);

        selfs[name_id("serve.parse")] += parse_ns;
        selfs[name_id("driver.render")] += to_json_ns.min(render_ns);
        selfs[name_id("serve.render")] += (render_ns - to_json_ns).max(0.0);
        explained += parse_ns + render_ns;
        selfs[name_id("serve.handle")] += handled - explained;
        selfs[name_id("serve.transport")] -= handled;
        Ok(())
    }
}

impl Workload for ServeWarm {
    fn setup(&mut self) -> Result<(), String> {
        self.conn = None;
        self.server = None;
        let server = Server::spawn(&self.raco)?;
        let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
        for (framed, line) in self.framed.iter().zip(&self.lines) {
            let reply = conn.request(framed).map_err(|e| e.to_string())?;
            if !reply.starts_with("{\"ok\":true") {
                return Err(format!("warm-up rejected {line}: {reply}"));
            }
        }
        self.server = Some(server);
        self.conn = Some(conn);
        Ok(())
    }

    fn fixed_pass(&mut self, traced: bool) -> Result<Counts, String> {
        let mut counts = Counts::default();
        let before = self.cache_stats()?;
        self.expected.clear();
        let local = Pipeline::with_config(self.base.clone());
        let rec = Recorder::new();
        for index in 0..self.lines.len() {
            let framed = self.framed[index].clone();
            let reply = self
                .conn()
                .request(&framed)
                .map_err(|e| e.to_string())?
                .to_owned();
            let line = &self.lines[index];
            raco::fuzz::cross_check(&reply, line, &self.base)?;
            let json = Json::parse(&reply).map_err(|e| e.to_string())?;
            let report = json.get("report").ok_or("reply without report")?;
            if report.get("failed").and_then(Json::as_u64) != Some(0) {
                return Err(format!("fixed pass: loop failure: {reply}"));
            }
            for unit in array(report.get("units")) {
                for l in array(unit.get("loops")) {
                    let field = |k: &str| l.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
                    counts.addr_cycles += field("predicted_cycles");
                    counts.measured_cycles += field("measured_cycles");
                    counts.code_words += field("code_words");
                }
            }
            let units = units_slice(&reply).ok_or("reply without units")?.to_owned();
            if traced {
                // A cold in-process pass, deduplicated like one shard's
                // cache, counts the branch-and-bound nodes; it warms the
                // pipeline the traced ops render on.
                let envelope = protocol::parse_line(line).map_err(|e| e.message)?;
                let config = envelope.knobs.apply(&self.base)?;
                let protocol::Request::Compile { name, source } = envelope.request else {
                    return Err("not a compile request".to_owned());
                };
                let replayed =
                    replay::compile_one(&rec, NO_PARENT, &local, &config, &(name, source))?;
                if format!("\"units\":{}", units_json(&replayed.report)) != units {
                    return Err(format!("replay diverges from the server on {line}"));
                }
                counts.bb_nodes += replayed.bb_nodes;
            }
            self.expected.push(units);
        }
        let after = self.cache_stats()?;
        counts.cache_hits = after.0 - before.0;
        counts.cache_lookups = after.1 - before.1;
        self.local = traced.then_some(local);
        Ok(counts)
    }

    fn op(&mut self, i: u64) -> Op {
        let index = usize::from(self.draws[i as usize % DRAWS]);
        let Some(conn) = self.conn.as_mut() else {
            return Op {
                ns: 0,
                failed: true,
            };
        };
        let started = Instant::now();
        let result = conn.request(&self.framed[index]).map(|_| ());
        let ns = started.elapsed().as_nanos() as u64;
        let ok = self.check_reply(index, result, i);
        Op { ns, failed: !ok }
    }

    fn traced_op(&mut self, i: u64, rec: &mut Recorder) -> TracedOp {
        let index = usize::from(self.draws[i as usize % DRAWS]);
        rec.begin_op(i as u32);
        let root = rec.open("op", NO_PARENT);
        let transport = rec.open("serve.transport", root);
        let result = match self.conn.as_mut() {
            Some(conn) => conn.request(&self.framed_timed[index]).map(|_| ()),
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
        };
        rec.close(transport);
        let wall_ns = rec.close(root);
        let mut selfs = rec.finish_op();
        if result.is_ok() {
            if let Err(e) = self.split_handling(index, &mut selfs) {
                self.faults.mismatch(format!("request {i}: {e}"));
            }
        }
        let ok = self.check_reply(index, result, i);
        TracedOp {
            selfs,
            wall_ns,
            failed: !ok,
        }
    }

    fn between_slices(&mut self) {
        for (index, reply) in std::mem::take(&mut self.samples) {
            if let Err(e) = raco::fuzz::cross_check(&reply, &self.lines[index], &self.base) {
                self.faults.mismatch(format!("sampled reply: {e}"));
            }
        }
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        let server = self.server.as_ref().ok_or("no server")?;
        procfs::peak_rss_mb(&server.pid)
    }

    fn background_cpu_ns(&self) -> u64 {
        self.server
            .as_ref()
            .map_or(0, |server| procfs::cpu_ns(&server.pid, None))
    }

    fn faults(&self) -> &Faults {
        &self.faults
    }
}
