//! `raco fuzz` — a budgeted adversarial long-runner for the real
//! serve binary.
//!
//! The in-process proptests exercise the library; this module
//! exercises the *product*: it spawns the actual `raco` binary in
//! `serve` mode, drives it over stdio or TCP with a seeded mix of
//!
//! * valid compile requests for randomly generated DSL programs
//!   (flat loops and 2-level nests, random machine knobs or whole
//!   machine descriptions — built-in names and inline `key = value`
//!   texts),
//! * the same requests delivered in dribbled partial writes,
//! * malformed frames (truncated/corrupted JSON, wrong types, unknown
//!   ops),
//! * oversized frames beyond [`raco_serve::MAX_REQUEST_LINE`],
//! * snapshot cycles: `save_cache`, then a second server warm-booted
//!   with `--cache-load` recompiling the same program with zero misses,
//!
//! and cross-checks every compile response against an in-process
//! reference pipeline (which itself runs both validation oracles: the
//! simulator and the declarative checker of `raco-check`).
//!
//! On a failed cross-check the offending program is shrunk to a
//! minimal reproducer ([`shrink_unit`]) and written to
//! `fuzz-failures/` as a `.dsp` file plus a `.json` sidecar holding
//! the request and seed ([`write_failure`]).
//!
//! Entry point: [`run`] with a [`FuzzConfig`]; the CLI front end is
//! `raco fuzz` (see `src/bin/raco.rs`).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::LazyLock;
use std::time::{Duration, Instant};

use raco_driver::{json::Writer, Json, Pipeline, PipelineConfig};
use raco_ir::{AguSpec, MachineDescription};
use raco_serve::protocol;
use raco_serve::Request;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use crate::client::Transport;
use crate::client::{Connection, SpawnedServer};

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Wall-clock budget; the loop stops at the first case boundary
    /// past it.
    pub budget: Duration,
    /// Master seed. Every generated case derives from it, and every
    /// failure report carries it.
    pub seed: u64,
    /// The `raco` binary to spawn in `serve` mode.
    pub binary: PathBuf,
    /// Directory minimal reproducers are written to.
    pub failures_dir: PathBuf,
    /// Transport to drive the server over.
    pub transport: Transport,
    /// Hard cap on cases regardless of budget (`u64::MAX` = no cap).
    pub max_cases: u64,
}

impl FuzzConfig {
    /// A config with the given budget and seed, stdio transport, and
    /// `fuzz-failures/` under the current directory.
    pub fn new(binary: PathBuf, budget: Duration, seed: u64) -> Self {
        FuzzConfig {
            budget,
            seed,
            binary,
            failures_dir: PathBuf::from("fuzz-failures"),
            transport: Transport::Stdio,
            max_cases: u64::MAX,
        }
    }
}

/// One recorded failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Failure class (`compile-mismatch`, `malformed-handling`, …).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
    /// Case number within the run.
    pub case: u64,
    /// Master seed of the run.
    pub seed: u64,
    /// Path of the written reproducer, when one could be written.
    pub repro: Option<PathBuf>,
}

/// Tallies and failures of a finished run.
#[derive(Debug, Default)]
pub struct FuzzOutcome {
    /// Total cases executed.
    pub cases: u64,
    /// Valid compile requests sent whole-line.
    pub valid: u64,
    /// Valid compile requests delivered in dribbled partial writes.
    pub dribbled: u64,
    /// Malformed frames sent.
    pub malformed: u64,
    /// Oversized frames sent.
    pub oversized: u64,
    /// Snapshot save → warm-boot → recompile cycles executed.
    pub snapshot_cycles: u64,
    /// Every recorded failure.
    pub failures: Vec<Failure>,
}

impl fmt::Display for FuzzOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cases ({} valid, {} dribbled, {} malformed, {} oversized, {} snapshot cycles), {} failure(s)",
            self.cases,
            self.valid,
            self.dribbled,
            self.malformed,
            self.oversized,
            self.snapshot_cycles,
            self.failures.len()
        )
    }
}

// ---------------------------------------------------------------------
// Structured program generation
// ---------------------------------------------------------------------

/// One array term of a statement: `array[i+di]` (flat) or
/// `array[i+di][j+dj]` (nested).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenTerm {
    /// Index into the loop's array pool.
    pub array: usize,
    /// Offset on the (outer) induction variable.
    pub di: i64,
    /// Offset on the inner induction variable (nested loops only).
    pub dj: i64,
}

/// One statement: an optional write target and one or more read terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenStmt {
    /// `Some` renders `target = reads…;`, `None` renders `s += reads…;`.
    pub write: Option<GenTerm>,
    /// Read terms, summed left to right.
    pub reads: Vec<GenTerm>,
}

/// One generated loop (flat or a 2-level nest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenLoop {
    /// `true` renders a 2-level nest.
    pub two_d: bool,
    /// Outer trip count (nests only).
    pub outer_trips: u64,
    /// (Inner) trip count.
    pub trips: u64,
    /// Start value of the (outer) induction variable.
    pub start: i64,
    /// Number of distinct arrays the loop draws terms from.
    pub arrays: usize,
    /// Body statements.
    pub stmts: Vec<GenStmt>,
}

/// A generated translation unit: one or more top-level loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenUnit {
    /// The loops, rendered in order.
    pub loops: Vec<GenLoop>,
}

const ARRAY_STEMS: [&str; 4] = ["ax", "bx", "cx", "dx"];

fn array_name(loop_index: usize, array: usize) -> String {
    format!("{}{}", ARRAY_STEMS[array % ARRAY_STEMS.len()], loop_index)
}

fn render_offset(var: &str, offset: i64) -> String {
    match offset.cmp(&0) {
        std::cmp::Ordering::Equal => var.to_owned(),
        std::cmp::Ordering::Greater => format!("{var} + {offset}"),
        std::cmp::Ordering::Less => format!("{var} - {}", -offset),
    }
}

impl GenLoop {
    fn render_term(&self, loop_index: usize, term: &GenTerm) -> String {
        let name = array_name(loop_index, term.array);
        let i = format!("i{loop_index}");
        if self.two_d {
            let j = format!("j{loop_index}");
            format!(
                "{name}[{}][{}]",
                render_offset(&i, term.di),
                render_offset(&j, term.dj)
            )
        } else {
            format!("{name}[{}]", render_offset(&i, term.di))
        }
    }

    fn render(&self, loop_index: usize, out: &mut String) {
        let i = format!("i{loop_index}");
        let end = self.start
            + i64::try_from(if self.two_d {
                self.outer_trips
            } else {
                self.trips
            })
            .unwrap_or(i64::MAX);
        out.push_str(&format!(
            "for ({i} = {}; {i} < {end}; {i}++) {{\n",
            self.start
        ));
        let mut indent = "  ";
        if self.two_d {
            let j = format!("j{loop_index}");
            out.push_str(&format!(
                "  for ({j} = 0; {j} < {}; {j}++) {{\n",
                self.trips
            ));
            indent = "    ";
        }
        for stmt in &self.stmts {
            let sum: Vec<String> = stmt
                .reads
                .iter()
                .map(|term| self.render_term(loop_index, term))
                .collect();
            let sum = sum.join(" + ");
            match &stmt.write {
                Some(target) => out.push_str(&format!(
                    "{indent}{} = {sum};\n",
                    self.render_term(loop_index, target)
                )),
                None => out.push_str(&format!("{indent}s += {sum};\n")),
            }
        }
        if self.two_d {
            out.push_str("  }\n");
        }
        out.push_str("}\n");
    }
}

impl GenUnit {
    /// Renders the unit to DSL source (declarations first, then loops).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (li, l) in self.loops.iter().enumerate() {
            if !l.two_d {
                continue;
            }
            // Nested indexing needs declared shapes for linearization;
            // rows/cols cover every generated offset.
            let rows = l.start.unsigned_abs() + l.outer_trips + 2;
            let cols = l.trips + 4;
            for a in 0..l.arrays {
                out.push_str(&format!("array {}[{rows}][{cols}];\n", array_name(li, a)));
            }
        }
        for (li, l) in self.loops.iter().enumerate() {
            l.render(li, &mut out);
        }
        out
    }
}

fn gen_term(rng: &mut SmallRng, arrays: usize, two_d: bool) -> GenTerm {
    GenTerm {
        array: rng.gen_range(0..arrays),
        di: if two_d {
            rng.gen_range(0..=1)
        } else {
            rng.gen_range(-4..=4)
        },
        dj: if two_d { rng.gen_range(-2..=2) } else { 0 },
    }
}

fn gen_loop(rng: &mut SmallRng) -> GenLoop {
    let two_d = rng.gen_range(0..4u32) == 0;
    let arrays = rng.gen_range(1..=3usize);
    let stmt_count = rng.gen_range(1..=3usize);
    let mut stmts = Vec::with_capacity(stmt_count);
    for _ in 0..stmt_count {
        let read_count = rng.gen_range(1..=4usize);
        let reads = (0..read_count)
            .map(|_| gen_term(rng, arrays, two_d))
            .collect();
        let write = (rng.gen_range(0..10u32) < 3).then(|| gen_term(rng, arrays, two_d));
        stmts.push(GenStmt { write, reads });
    }
    GenLoop {
        two_d,
        outer_trips: rng.gen_range(2..=4),
        trips: if two_d {
            rng.gen_range(2..=8)
        } else {
            rng.gen_range(2..=32)
        },
        start: rng.gen_range(0..=2),
        arrays,
        stmts,
    }
}

/// Generates a random unit with 1–3 loops.
pub fn gen_unit(rng: &mut SmallRng) -> GenUnit {
    let loops = (0..rng.gen_range(1..=3usize))
        .map(|_| gen_loop(rng))
        .collect();
    GenUnit { loops }
}

/// The machine-description pool random requests draw from: the
/// built-in names ([`MachineDescription::builtin_names`], in their
/// order) followed by two valid inline `key = value` descriptions
/// (an asymmetric range, a non-unit cost table). Every entry must
/// resolve.
pub static MACHINE_POOL: LazyLock<Vec<&'static str>> = LazyLock::new(|| {
    let inline = [
        "address_registers = 3\nupdate_min = 0\nupdate_max = 2\nmodify_registers = 1",
        "address_registers = 5\nupdate_range = 2\nlda_cost = 3\nadda_cost = 2",
    ];
    let builtins = MachineDescription::builtin_names().iter().copied();
    builtins.chain(inline).collect()
});

/// Random machine knobs attached to a compile request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenKnobs {
    /// A whole machine description from [`MACHINE_POOL`]: when `Some`
    /// the request carries only the `machine` knob, when `None` it
    /// carries the numeric knobs below.
    pub machine: Option<&'static str>,
    /// Address registers (K).
    pub registers: usize,
    /// Auto-modify range (M).
    pub modify: u32,
    /// Modify registers.
    pub modify_registers: usize,
}

/// Generates random machine knobs: one request in three compiles for a
/// whole description, the rest for numeric knob combinations.
pub fn gen_knobs(rng: &mut SmallRng) -> GenKnobs {
    let machine =
        (rng.gen_range(0..3u32) == 0).then(|| MACHINE_POOL[rng.gen_range(0..MACHINE_POOL.len())]);
    GenKnobs {
        machine,
        registers: rng.gen_range(1..=6),
        modify: rng.gen_range(0..=2),
        modify_registers: rng.gen_range(0..=2),
    }
}

/// Builds the NDJSON compile request line for a unit + knobs.
pub fn compile_request(id: u64, source: &str, knobs: &GenKnobs) -> String {
    let mut line = String::new();
    Writer::compact(&mut line).object(|w| {
        w.key("id").uint(id);
        w.key("op").str("compile");
        w.key("name").str("fuzz");
        w.key("source").str(source);
        match knobs.machine {
            Some(machine) => w.key("machine").str(machine),
            None => {
                w.key("registers").uint(knobs.registers as u64);
                w.key("modify").uint(u64::from(knobs.modify));
                w.key("modify_registers")
                    .uint(knobs.modify_registers as u64);
            }
        }
        w.key("validate").bool(true);
    });
    line
}

// ---------------------------------------------------------------------
// Reference compile + cross-check
// ---------------------------------------------------------------------

/// The base configuration the server under test runs with (`raco
/// serve` defaults: K = 4, M = 1, no modify registers).
pub fn base_config() -> PipelineConfig {
    PipelineConfig::new(AguSpec::new(4, 1).expect("valid default machine"))
}

/// Compiles the request in-process with a fresh pipeline and returns
/// the deterministic subtrees of the report (`units`, `machine`) as
/// rendered JSON.
///
/// The request line is parsed with the *same* protocol code the server
/// uses, so knob interpretation cannot drift; the compile itself runs
/// in this process on a cold cache, so cache state cannot leak into
/// the comparison.
pub fn reference_reply(
    request_line: &str,
    base: &PipelineConfig,
) -> Result<(String, String), String> {
    let envelope = protocol::parse_line(request_line)
        .map_err(|e| format!("reference parse: {}", e.message))?;
    let Request::Compile { name, source } = envelope.request else {
        return Err("reference: not a compile request".to_owned());
    };
    let config = envelope
        .knobs
        .apply(base)
        .map_err(|e| format!("reference knobs: {e}"))?;
    let pipeline = Pipeline::with_config(config);
    let report = pipeline
        .compile_str(&name, &source)
        .map_err(|e| format!("reference compile: {e}"))?;
    let json = report.to_json_value();
    let units = json
        .get("units")
        .ok_or("reference report has no units")?
        .render();
    let machine = json
        .get("machine")
        .ok_or("reference report has no machine")?
        .render();
    Ok((units, machine))
}

/// Cross-checks a server reply against the in-process reference.
pub fn cross_check(reply: &str, request_line: &str, base: &PipelineConfig) -> Result<(), String> {
    let json = Json::parse(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("server rejected a valid request: {reply}"));
    }
    let report = json.get("report").ok_or("reply has no report")?;
    let server_units = report.get("units").ok_or("reply has no units")?.render();
    let server_machine = report
        .get("machine")
        .ok_or("reply has no machine")?
        .render();
    let (ref_units, ref_machine) = reference_reply(request_line, base)?;
    if server_machine != ref_machine {
        return Err(format!(
            "machine mismatch:\n  server:    {server_machine}\n  reference: {ref_machine}"
        ));
    }
    if server_units != ref_units {
        return Err(format!(
            "units mismatch:\n  server:    {server_units}\n  reference: {ref_units}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedily shrinks `unit` while `still_fails` keeps returning `true`,
/// evaluating at most `max_evals` candidates.
///
/// Passes, in order of aggressiveness: drop a loop, flatten a nest,
/// shrink trip counts, drop a statement, drop a read term, drop a
/// write target, zero an offset, zero the start. Restarts from the
/// first pass after every accepted candidate, so the result is a local
/// minimum under all passes.
pub fn shrink_unit<F>(unit: &GenUnit, mut still_fails: F, max_evals: usize) -> GenUnit
where
    F: FnMut(&GenUnit) -> bool,
{
    let mut best = unit.clone();
    let mut evals = 0usize;
    'outer: loop {
        for candidate in shrink_candidates(&best) {
            if evals >= max_evals {
                break 'outer;
            }
            evals += 1;
            if still_fails(&candidate) {
                best = candidate;
                continue 'outer;
            }
        }
        break;
    }
    best
}

fn shrink_candidates(unit: &GenUnit) -> Vec<GenUnit> {
    let mut out = Vec::new();
    // Drop a whole loop.
    if unit.loops.len() > 1 {
        for i in 0..unit.loops.len() {
            let mut u = unit.clone();
            u.loops.remove(i);
            out.push(u);
        }
    }
    for (li, l) in unit.loops.iter().enumerate() {
        // Flatten a nest.
        if l.two_d {
            let mut u = unit.clone();
            let flat = &mut u.loops[li];
            flat.two_d = false;
            for stmt in &mut flat.stmts {
                for term in stmt.reads.iter_mut().chain(stmt.write.iter_mut()) {
                    term.dj = 0;
                }
            }
            out.push(u);
        }
        // Shrink trip counts.
        if l.trips > 4 {
            let mut u = unit.clone();
            u.loops[li].trips = 4;
            out.push(u);
        }
        if l.two_d && l.outer_trips > 2 {
            let mut u = unit.clone();
            u.loops[li].outer_trips = 2;
            out.push(u);
        }
        // Drop a statement.
        if l.stmts.len() > 1 {
            for si in 0..l.stmts.len() {
                let mut u = unit.clone();
                u.loops[li].stmts.remove(si);
                out.push(u);
            }
        }
        for (si, stmt) in l.stmts.iter().enumerate() {
            // Drop a read term.
            if stmt.reads.len() > 1 {
                for ti in 0..stmt.reads.len() {
                    let mut u = unit.clone();
                    u.loops[li].stmts[si].reads.remove(ti);
                    out.push(u);
                }
            }
            // Drop the write target.
            if stmt.write.is_some() {
                let mut u = unit.clone();
                u.loops[li].stmts[si].write = None;
                out.push(u);
            }
            // Zero offsets.
            for (ti, term) in stmt.reads.iter().enumerate() {
                if term.di != 0 || term.dj != 0 {
                    let mut u = unit.clone();
                    let t = &mut u.loops[li].stmts[si].reads[ti];
                    t.di = 0;
                    t.dj = 0;
                    out.push(u);
                }
            }
        }
        if l.start != 0 {
            let mut u = unit.clone();
            u.loops[li].start = 0;
            out.push(u);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Reproducer files
// ---------------------------------------------------------------------

/// Writes a minimal reproducer: `<kind>-<seed>-<case>.dsp` with the
/// shrunk source (when there is one) and a `.json` sidecar with the
/// offending request, seed, and detail. Returns the primary path.
pub fn write_failure(
    dir: &Path,
    kind: &str,
    seed: u64,
    case: u64,
    source: Option<&str>,
    request: &str,
    detail: &str,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let stem = format!("{kind}-{seed:#x}-{case}");
    let mut sidecar = String::new();
    Writer::pretty(&mut sidecar).object(|w| {
        w.key("kind").str(kind);
        w.key("seed").uint(seed);
        w.key("case").uint(case);
        w.key("detail").str(detail);
        w.key("request").str(request);
    });
    sidecar.push('\n');
    let json_path = dir.join(format!("{stem}.json"));
    fs::write(&json_path, sidecar)?;
    match source {
        Some(source) => {
            let dsp_path = dir.join(format!("{stem}.dsp"));
            let mut contents = format!(
                "// raco fuzz reproducer — kind {kind}, seed {seed:#x}, case {case}\n\
                 // request JSON: {stem}.json\n"
            );
            contents.push_str(source);
            fs::write(&dsp_path, contents)?;
            Ok(dsp_path)
        }
        None => Ok(json_path),
    }
}

// ---------------------------------------------------------------------
// The budgeted loop
// ---------------------------------------------------------------------

const MAX_FAILURES: usize = 3;
const SHRINK_EVALS: usize = 200;

fn ping_ok(server: &mut Connection) -> Result<(), String> {
    let reply = server
        .request(r#"{"op":"ping","id":"live"}"#)
        .map_err(|e| format!("ping transport error: {e}"))?;
    let json = Json::parse(&reply).map_err(|e| format!("unparseable ping reply: {e}"))?;
    if json.get("ok") == Some(&Json::Bool(true)) {
        Ok(())
    } else {
        Err(format!("ping rejected: {reply}"))
    }
}

fn malformed_frame(rng: &mut SmallRng, valid: &str) -> String {
    const CORPUS: &[&str] = &[
        "{",
        "}",
        "not json at all",
        "[1,2,3]",
        "42",
        "\"op\"",
        r#"{"op":"warp"}"#,
        r#"{"op":42}"#,
        r#"{"op":"compile"}"#,
        r#"{"op":"compile","source":7}"#,
        r#"{"op":"compile","source":"for (i","name":false}"#,
        r#"{"op":"compile","source":"for (i = 0; i < 4; i++) { s += x[i]; }","registers":"four"}"#,
        r#"{"op":"compile","source":"for (i = 0; i < 4; i++) { s += x[i]; }","registers":0}"#,
        r#"{"op":"compile","source":"for (i = 0; i < 4; i++) { s += x[i]; }","machine":"warpdsp"}"#,
        r#"{"op":"compile","source":"for (i = 0; i < 4; i++) { s += x[i]; }","machine":17}"#,
        r#"{"op":"compile","source":"for (i = 0; i < 4; i++) { s += x[i]; }","machine":"address_registers = 0"}"#,
        r#"{"op":"compile","source":"for (i = 0; i < 4; i++) { s += x[i]; }","machine":"address_registers = 4\nupdate_min = 1\nupdate_max = 2"}"#,
        r#"{"op":"compile","source":"for (i = 0; i < 4; i++) { s += x[i]; }","machine":"address_registers = 4\nwhat"}"#,
        r#"{"op":"compile","source":"for (i = 0; i < 4; i++) { s += x[i]; }","machine":"address_registers = 4\nadda_cost = 99999"}"#,
        r#"{"op":"save_cache"}"#,
        r#"{"op":"kernels","kernel":17}"#,
    ];
    match rng.gen_range(0..3u32) {
        // One past the corpus: a source nested far past the DSL parser's
        // limit, which must cost one error reply, not the server.
        0 => match CORPUS.get(rng.gen_range(0..=CORPUS.len())) {
            Some(frame) => (*frame).to_owned(),
            None => compile_request(
                0,
                &format!(
                    "for (i = 0; i < 4; i++) {{ s += {}x[i]{}; }}",
                    "(-".repeat(3000),
                    ")".repeat(3000)
                ),
                &gen_knobs(rng),
            ),
        },
        1 => {
            // Truncate a valid request at a random byte (on a char
            // boundary; generated requests are ASCII).
            let cut = rng.gen_range(1..valid.len().max(2));
            valid.chars().take(cut).collect()
        }
        _ => {
            // Corrupt one byte of a valid request.
            let mut bytes: Vec<char> = valid.chars().collect();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = char::from(rng.gen_range(33u8..127));
            bytes.into_iter().collect()
        }
    }
}

/// Runs one budgeted fuzz session against the real serve binary.
///
/// # Errors
///
/// Only infrastructure errors (spawn failures, a dead server) surface
/// as `Err`; cross-check failures are recorded in the outcome.
pub fn run(config: &FuzzConfig) -> io::Result<FuzzOutcome> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let base = base_config();
    let mut spawned = SpawnedServer::spawn(&config.binary, config.transport, &[])?;
    let mut server = spawned.connect()?;
    let mut outcome = FuzzOutcome::default();
    let mut last_valid: Option<(GenUnit, GenKnobs)> = None;
    let started = Instant::now();

    while started.elapsed() < config.budget
        && outcome.cases < config.max_cases
        && outcome.failures.len() < MAX_FAILURES
    {
        outcome.cases += 1;
        let case = outcome.cases;
        let roll = rng.gen_range(0..100u32);
        if roll < 60 || (roll >= 92 && last_valid.is_none()) {
            // Valid compile, whole-line.
            let unit = gen_unit(&mut rng);
            let knobs = gen_knobs(&mut rng);
            run_compile_case(
                &mut server,
                &unit,
                &knobs,
                case,
                false,
                &base,
                config,
                &mut outcome,
            )?;
            last_valid = Some((unit, knobs));
            outcome.valid += 1;
        } else if roll < 72 {
            // Valid compile, dribbled delivery.
            let unit = gen_unit(&mut rng);
            let knobs = gen_knobs(&mut rng);
            run_compile_case(
                &mut server,
                &unit,
                &knobs,
                case,
                true,
                &base,
                config,
                &mut outcome,
            )?;
            last_valid = Some((unit, knobs));
            outcome.dribbled += 1;
        } else if roll < 84 {
            // Malformed frame; the server must reply and stay usable.
            let unit = gen_unit(&mut rng);
            let knobs = gen_knobs(&mut rng);
            let valid = compile_request(case, &unit.render(), &knobs);
            let frame = malformed_frame(&mut rng, &valid);
            outcome.malformed += 1;
            let verdict = if frame.trim().is_empty() {
                // Blank lines are skipped by protocol; just confirm
                // liveness.
                server
                    .send_raw(format!("{frame}\n").as_bytes())
                    .map_err(|e| format!("send: {e}"))
                    .and_then(|()| ping_ok(&mut server))
            } else {
                server
                    .request(&frame)
                    .map_err(|e| format!("transport error: {e}"))
                    .and_then(|reply| {
                        Json::parse(&reply)
                            .map_err(|e| {
                                format!("unparseable reply to malformed frame: {e} ({reply})")
                            })
                            .map(|_| ())
                    })
                    .and_then(|()| ping_ok(&mut server))
            };
            if let Err(detail) = verdict {
                record_failure(
                    config,
                    &mut outcome,
                    "malformed-handling",
                    case,
                    None,
                    &frame,
                    &detail,
                );
            }
        } else if roll < 92 {
            // Oversized frame: must be rejected with the connection
            // left usable.
            outcome.oversized += 1;
            let oversized = "x".repeat(raco_serve::MAX_REQUEST_LINE + 1024);
            let verdict = server
                .request(&oversized)
                .map_err(|e| format!("transport error: {e}"))
                .and_then(|reply| {
                    let json = Json::parse(&reply)
                        .map_err(|e| format!("unparseable oversized reply: {e}"))?;
                    if json.get("ok") == Some(&Json::Bool(false)) {
                        Ok(())
                    } else {
                        Err(format!("oversized frame not rejected: {reply}"))
                    }
                })
                .and_then(|()| ping_ok(&mut server));
            if let Err(detail) = verdict {
                record_failure(
                    config,
                    &mut outcome,
                    "oversized-handling",
                    case,
                    None,
                    "<1 MiB + 1024 bytes of 'x'>",
                    &detail,
                );
            }
        } else {
            // Snapshot cycle: save, warm-boot a second server from the
            // snapshot, recompile, verify zero misses.
            let (unit, knobs) = last_valid.clone().expect("guarded by the first arm");
            outcome.snapshot_cycles += 1;
            if let Err(detail) = snapshot_cycle(&mut server, &unit, &knobs, case, &base, config) {
                let request = compile_request(case, &unit.render(), &knobs);
                record_failure(
                    config,
                    &mut outcome,
                    "snapshot-cycle",
                    case,
                    Some(&unit.render()),
                    &request,
                    &detail,
                );
            }
        }
    }

    spawned.shutdown(server)?;
    Ok(outcome)
}

#[allow(clippy::too_many_arguments)]
fn run_compile_case(
    server: &mut Connection,
    unit: &GenUnit,
    knobs: &GenKnobs,
    case: u64,
    dribble: bool,
    base: &PipelineConfig,
    config: &FuzzConfig,
    outcome: &mut FuzzOutcome,
) -> io::Result<()> {
    let request = compile_request(case, &unit.render(), knobs);
    let reply = if dribble {
        let chunk = [1usize, 3, 7][(case % 3) as usize];
        server.request_dribbled(&request, chunk)?
    } else {
        server.request(&request)?
    };
    if let Err(detail) = cross_check(&reply, &request, base) {
        // Shrink against the live server: the failure must keep
        // reproducing over the same transport.
        let mut knobs = *knobs;
        let minimal = shrink_unit(
            unit,
            |candidate| {
                let request = compile_request(case, &candidate.render(), &knobs);
                match server.request(&request) {
                    Ok(reply) => cross_check(&reply, &request, base).is_err(),
                    Err(_) => false,
                }
            },
            SHRINK_EVALS,
        );
        // Minimize the machine dimension too: if the mismatch survives
        // without the description (server defaults), drop it from the
        // repro.
        if knobs.machine.is_some() {
            let stripped = GenKnobs {
                machine: None,
                ..knobs
            };
            let request = compile_request(case, &minimal.render(), &stripped);
            if matches!(server.request(&request),
                        Ok(reply) if cross_check(&reply, &request, base).is_err())
            {
                knobs = stripped;
            }
        }
        let minimal_request = compile_request(case, &minimal.render(), &knobs);
        record_failure(
            config,
            outcome,
            "compile-mismatch",
            case,
            Some(&minimal.render()),
            &minimal_request,
            &detail,
        );
    }
    Ok(())
}

fn snapshot_cycle(
    server: &mut Connection,
    unit: &GenUnit,
    knobs: &GenKnobs,
    case: u64,
    base: &PipelineConfig,
    config: &FuzzConfig,
) -> Result<(), String> {
    let snap_path = std::env::temp_dir().join(format!(
        "raco-fuzz-snap-{:x}-{case}-{}.bin",
        config.seed,
        std::process::id()
    ));
    let mut save = String::new();
    Writer::compact(&mut save).object(|w| {
        w.key("id").uint(case);
        w.key("op").str("save_cache");
        w.key("path").str(&snap_path.display().to_string());
    });
    let result = (|| {
        let reply = server.request(&save).map_err(|e| format!("save: {e}"))?;
        let json = Json::parse(&reply).map_err(|e| format!("save reply: {e}"))?;
        if json.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("save_cache rejected: {reply}"));
        }
        let mut warm = SpawnedServer::spawn(
            &config.binary,
            config.transport,
            &["--cache-load".to_owned(), snap_path.display().to_string()],
        )
        .map_err(|e| format!("warm spawn: {e}"))?;
        let mut connection = warm.connect().map_err(|e| format!("warm connect: {e}"))?;
        let verdict = (|| {
            let request = compile_request(case, &unit.render(), knobs);
            let reply = connection
                .request(&request)
                .map_err(|e| format!("warm compile: {e}"))?;
            cross_check(&reply, &request, base).map_err(|e| format!("warm {e}"))?;
            let stats_reply = connection
                .request(r#"{"op":"stats"}"#)
                .map_err(|e| format!("warm stats: {e}"))?;
            let stats = Json::parse(&stats_reply).map_err(|e| format!("warm stats reply: {e}"))?;
            let stats = stats
                .get("stats")
                .cloned()
                .ok_or("warm reply has no stats")?;
            let misses = stats
                .get("allocation_misses")
                .and_then(Json::as_u64)
                .ok_or("stats missing allocation_misses")?;
            let loaded = stats.get("loaded").and_then(Json::as_u64).unwrap_or(0);
            if loaded == 0 {
                return Err(format!("warm boot loaded nothing: {stats_reply}"));
            }
            if misses != 0 {
                return Err(format!(
                    "warm recompile of a snapshotted program missed the cache \
                     {misses} time(s): {stats_reply}"
                ));
            }
            Ok(())
        })();
        let shutdown = warm
            .shutdown(connection)
            .map_err(|e| format!("warm shutdown: {e}"));
        verdict.and(shutdown)
    })();
    let _ = fs::remove_file(&snap_path);
    result
}

fn record_failure(
    config: &FuzzConfig,
    outcome: &mut FuzzOutcome,
    kind: &str,
    case: u64,
    source: Option<&str>,
    request: &str,
    detail: &str,
) {
    let repro = write_failure(
        &config.failures_dir,
        kind,
        config.seed,
        case,
        source,
        request,
        detail,
    )
    .ok();
    outcome.failures.push(Failure {
        kind: kind.to_owned(),
        detail: detail.to_owned(),
        case,
        seed: config.seed,
        repro,
    });
}

/// Parses a human budget string: `45s`, `2m`, `500ms`, or bare
/// seconds.
pub fn parse_budget(text: &str) -> Result<Duration, String> {
    let text = text.trim();
    let (digits, unit) = match text.find(|c: char| !c.is_ascii_digit()) {
        Some(at) => text.split_at(at),
        None => (text, "s"),
    };
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("invalid budget `{text}`"))?;
    match unit {
        "ms" => Ok(Duration::from_millis(value)),
        "s" | "" => Ok(Duration::from_secs(value)),
        "m" => Ok(Duration::from_secs(value * 60)),
        _ => Err(format!("invalid budget unit `{unit}` in `{text}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_units_are_valid_dsl() {
        // Every generated program must get through the real parser and
        // lowering — reference compile errors would poison every
        // cross-check downstream.
        let mut rng = SmallRng::seed_from_u64(7);
        let base = base_config();
        for case in 0..60u64 {
            let unit = gen_unit(&mut rng);
            let knobs = gen_knobs(&mut rng);
            let request = compile_request(case, &unit.render(), &knobs);
            let reference = reference_reply(&request, &base);
            assert!(
                reference.is_ok(),
                "case {case} failed: {:?}\nsource:\n{}",
                reference,
                unit.render()
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..10 {
            assert_eq!(gen_unit(&mut a), gen_unit(&mut b));
            assert_eq!(gen_knobs(&mut a), gen_knobs(&mut b));
        }
    }

    #[test]
    fn shrinker_reaches_a_minimal_failing_unit() {
        // Failure predicate: the unit still contains an access to
        // array 0 with |di| >= 3. The shrinker must strip everything
        // else and keep one offending term.
        let mut rng = SmallRng::seed_from_u64(3);
        let unit = loop {
            let unit = gen_unit(&mut rng);
            let offending = unit
                .loops
                .iter()
                .flat_map(|l| &l.stmts)
                .any(|s| s.reads.iter().any(|t| t.array == 0 && t.di.abs() >= 3));
            if offending && unit.loops.len() > 1 {
                break unit;
            }
        };
        let fails = |u: &GenUnit| {
            u.loops
                .iter()
                .flat_map(|l| &l.stmts)
                .any(|s| s.reads.iter().any(|t| t.array == 0 && t.di.abs() >= 3))
        };
        let minimal = shrink_unit(&unit, fails, 500);
        assert!(fails(&minimal), "shrinking must preserve the failure");
        assert_eq!(minimal.loops.len(), 1, "all but one loop dropped");
        assert_eq!(minimal.loops[0].stmts.len(), 1, "all but one stmt dropped");
        assert_eq!(
            minimal.loops[0].stmts[0].reads.len(),
            1,
            "all but one term dropped"
        );
        assert!(minimal.loops[0].stmts[0].write.is_none());
    }

    #[test]
    fn machine_pool_entries_all_resolve() {
        // Seeded draws index the pool, so its order and length are
        // part of every replayable seed.
        assert_eq!(&MACHINE_POOL[..6], MachineDescription::builtin_names());
        assert_eq!(MACHINE_POOL.len(), 8);
        for entry in MACHINE_POOL.iter() {
            MachineDescription::resolve(entry)
                .unwrap_or_else(|e| panic!("pool entry {entry:?} must resolve: {e}"));
        }
    }

    #[test]
    fn malformed_machine_descriptions_fail_with_positioned_errors() {
        // Every malformed-machine corpus row must be rejected by the
        // protocol layer (the serve loop turns this into an `ok:false`
        // reply), not crash the reference pipeline.
        let base = base_config();
        for text in [
            "warpdsp",
            "address_registers = 0",
            "address_registers = 4\nupdate_min = 1\nupdate_max = 2",
            "address_registers = 4\nwhat",
            "address_registers = 4\nadda_cost = 99999",
        ] {
            let request = Json::Obj(vec![
                ("op".to_owned(), Json::str("compile")),
                (
                    "source".to_owned(),
                    Json::str("for (i = 0; i < 4; i++) { s += x[i]; }"),
                ),
                ("machine".to_owned(), Json::str(text)),
            ])
            .render();
            let envelope = protocol::parse_line(&request).expect("frame itself is well-formed");
            let err = envelope
                .knobs
                .apply(&base)
                .expect_err("malformed description must be rejected");
            assert!(
                err.contains("machine"),
                "error names the machine dimension: {err}"
            );
        }
    }

    #[test]
    fn the_malformed_corpus_nests_past_the_parser_limit() {
        let mut rng = SmallRng::seed_from_u64(11);
        let valid = compile_request(
            0,
            "for (i = 0; i < 4; i++) { s += x[i]; }",
            &gen_knobs(&mut rng),
        );
        let deep = (0..10_000)
            .map(|_| malformed_frame(&mut rng, &valid))
            .find(|frame| frame.len() > 5_000)
            .expect("the deep-nesting frame is drawn");
        let envelope = protocol::parse_line(&deep).expect("the frame itself is well-formed");
        let Request::Compile { source, .. } = envelope.request else {
            panic!("a compile request");
        };
        let err = raco_ir::dsl::parse_program(&source).unwrap_err();
        assert_eq!(*err.kind(), raco_ir::dsl::ParseErrorKind::NestingTooDeep);
    }

    #[test]
    fn budget_strings_parse() {
        assert_eq!(parse_budget("45s").unwrap(), Duration::from_secs(45));
        assert_eq!(parse_budget("45").unwrap(), Duration::from_secs(45));
        assert_eq!(parse_budget("2m").unwrap(), Duration::from_secs(120));
        assert_eq!(parse_budget("500ms").unwrap(), Duration::from_millis(500));
        assert!(parse_budget("ten").is_err());
        assert!(parse_budget("10h").is_err());
    }

    #[test]
    fn compile_request_lines_are_pinned() {
        let source = "for (i = 0; i < 4; i++) {\n  s += x[i]; // \"tab\"\t\n}\n";
        let knobs = GenKnobs {
            machine: None,
            registers: 3,
            modify: 2,
            modify_registers: 1,
        };
        assert_eq!(compile_request(7, source, &knobs), PINNED_KNOB_REQUEST);
        let described = GenKnobs {
            machine: Some(MACHINE_POOL[6]),
            ..knobs
        };
        assert_eq!(
            compile_request(8, source, &described),
            PINNED_MACHINE_REQUEST
        );
    }

    /// `compile_request`'s lines in `compile_request_lines_are_pinned`.
    const PINNED_KNOB_REQUEST: &str = "{\"id\":7,\"op\":\"compile\",\"name\":\"fuzz\",\"source\":\"for (i = 0; i < 4; i++) {\\n  s += x[i]; // \\\"tab\\\"\\t\\n}\\n\",\"registers\":3,\"modify\":2,\"modify_registers\":1,\"validate\":true}";
    const PINNED_MACHINE_REQUEST: &str = "{\"id\":8,\"op\":\"compile\",\"name\":\"fuzz\",\"source\":\"for (i = 0; i < 4; i++) {\\n  s += x[i]; // \\\"tab\\\"\\t\\n}\\n\",\"machine\":\"address_registers = 3\\nupdate_min = 0\\nupdate_max = 2\\nmodify_registers = 1\",\"validate\":true}";

    #[test]
    fn failure_sidecars_are_pinned() {
        let dir = std::env::temp_dir().join(format!("raco-fuzz-pin-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = write_failure(
            &dir,
            "compile-mismatch",
            0xabc,
            7,
            None,
            r#"{"op":"compile","source":"s\n"}"#,
            "units mismatch:\n  server:    [1]\n  reference: [2]",
        )
        .unwrap();
        let sidecar = fs::read_to_string(&path).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "compile-mismatch-0xabc-7.json");
        assert_eq!(sidecar, PINNED_SIDECAR);
    }

    /// The sidecar `failure_sidecars_are_pinned` writes.
    const PINNED_SIDECAR: &str = "{\n  \"kind\": \"compile-mismatch\",\n  \"seed\": 2748,\n  \"case\": 7,\n  \"detail\": \"units mismatch:\\n  server:    [1]\\n  reference: [2]\",\n  \"request\": \"{\\\"op\\\":\\\"compile\\\",\\\"source\\\":\\\"s\\\\n\\\"}\"\n}\n";

    #[test]
    fn failure_files_carry_source_request_and_seed() {
        let dir = std::env::temp_dir().join(format!("raco-fuzz-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = write_failure(
            &dir,
            "compile-mismatch",
            0xabc,
            7,
            Some("for (i = 0; i < 4; i++) { s += x[i]; }\n"),
            r#"{"op":"compile"}"#,
            "units mismatch",
        )
        .unwrap();
        assert!(path.extension().is_some_and(|e| e == "dsp"));
        let dsp = fs::read_to_string(&path).unwrap();
        assert!(dsp.contains("seed 0xabc"));
        assert!(dsp.contains("s += x[i]"));
        let sidecar = fs::read_to_string(path.with_extension("json")).unwrap();
        assert!(sidecar.contains("compile-mismatch"));
        assert!(sidecar.contains(r#"\"op\":\"compile\""#));
        fs::remove_dir_all(&dir).unwrap();
    }
}
