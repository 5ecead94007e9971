//! raco benchmark runner. One process runs one workload:
//!
//! ```text
//! perfbench --workload <batch_cold|library_warm|serve_warm> --seed <n>
//!           --seconds <s> --trace <0|1> --raco <raco binary> --out <dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics in a separate traced run. The last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `python3 perfbench/run.py` builds everything and calls this.

mod calib;
mod gen;
mod procfs;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::collections::VecDeque;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::{window_factor, Shape, REWARM, WINDOW, WORK_SLICE};
use stats::{median, Hist};
use trace::{metric_name, Recorder, NAMES};
use workloads::{BatchCold, Counts, LibraryWarm, ServeWarm, Workload};

/// Set-ups per untraced run; `setup_s` is their calibrated median.
const SETUPS: usize = 9;
/// Latencies buffered per work slice (never reached: a slice is 100 ms).
const SLICE_CAPACITY: usize = 1 << 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    raco: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut raco, mut out) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--raco" => raco = Some(PathBuf::from(&value)),
            "--out" => out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        raco: raco.ok_or("--raco is required")?,
        out: out.ok_or("--out is required")?,
    })
}

/// Reference slices, with the program's background CPU during them.
struct Calibration {
    shape: Shape,
    rates: Vec<f64>,
    background_ns: u64,
}

impl Calibration {
    fn new(w: &dyn Workload) -> Self {
        Calibration {
            shape: w.shape(),
            rates: Vec::new(),
            background_ns: 0,
        }
    }

    fn slice(&mut self, w: &dyn Workload) -> f64 {
        let cpu = w.background_cpu_ns();
        let rate = calib::reference_slice(self.shape);
        self.background_ns += w.background_cpu_ns().saturating_sub(cpu);
        self.rates.push(rate);
        rate
    }
}

/// One reported metric: calibrated value, raw value (equal for counts)
/// and unit.
struct Metric {
    name: String,
    value: f64,
    raw: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, raw: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        raw,
        unit,
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn make(args: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "batch_cold" => Box::new(BatchCold::new(args.seed)),
        "library_warm" => Box::new(LibraryWarm::new(args.seed)),
        "serve_warm" => Box::new(ServeWarm::new(args.seed, &args.raco)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Exact counts must repeat on every run of a workload with the same
/// build, whatever its seed: the first run records them, later runs
/// compare. Branch-and-bound nodes are counted by traced runs only.
fn check_counts(args: &Args, counts: &Counts) -> Result<(), String> {
    if counts.addr_cycles != counts.measured_cycles {
        return Err(format!(
            "predicted address cycles {} != simulator-measured {}",
            counts.addr_cycles, counts.measured_cycles
        ));
    }
    let stamp = |p: &std::path::Path| {
        std::fs::metadata(p)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos())
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let line = format!(
        "build={}/{} addr_cycles={} code_words={} bb_nodes={} cache_hits={} cache_lookups={}\n",
        stamp(&exe),
        stamp(&args.raco),
        counts.addr_cycles,
        counts.code_words,
        counts.bb_nodes,
        counts.cache_hits,
        counts.cache_lookups
    );
    let path = args.out.join(format!(
        "counts-{}-trace{}.txt",
        args.workload,
        u8::from(args.trace)
    ));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous.split(' ').next() == line.split(' ').next() => {
            if previous != line {
                return Err(format!(
                    "exact counts differ from an earlier run:\n  before: {}  now:    {}",
                    previous, line
                ));
            }
            Ok(())
        }
        _ => std::fs::write(&path, line).map_err(|e| format!("{}: {e}", path.display())),
    }
}

fn count_metrics(counts: &Counts) -> (Metric, Metric) {
    (
        metric(
            "addr_cycles",
            counts.addr_cycles as f64,
            counts.addr_cycles as f64,
            "cycles",
        ),
        metric(
            "code_words",
            counts.code_words as f64,
            counts.code_words as f64,
            "words",
        ),
    )
}

/// One work slice, kept until the reference slices of its window are in.
struct Slice {
    /// Wall time of each timed op that did not fail, in ns.
    ops: Vec<u64>,
    elapsed: f64,
    traced: bool,
    /// Traced slices: self time per span name, summed over the slice.
    layers: Vec<f64>,
}

impl Slice {
    fn new() -> Self {
        // Touch the whole buffer now, so its pages count before the
        // timed phase and never while it runs.
        let mut ops = vec![1u64; SLICE_CAPACITY];
        ops.clear();
        Slice {
            ops,
            elapsed: 0.0,
            traced: false,
            layers: vec![0.0; NAMES.len()],
        }
    }
}

/// The timed phase: for `seconds`, a few untimed ops that re-warm the
/// program after the pause, a work slice, then a reference slice. With
/// `alternate`, every other work slice is traced. Each slice goes to
/// `finish` with its duration factor once its window is measured.
/// Failed ops count as attempted and failed but are kept out of the
/// slices, so they cannot flatter latency or throughput; a lost
/// connection ends the phase with an error.
fn timed_phase(
    seconds: u64,
    alternate: bool,
    w: &mut dyn Workload,
    rec: &mut Recorder,
    cal: &mut Calibration,
    mut finish: impl FnMut(&Slice, f64),
) -> Result<(u64, u64), String> {
    let mut spare: Vec<Slice> = (0..WINDOW + 2).map(|_| Slice::new()).collect();
    let mut pending: VecDeque<(usize, Slice)> = VecDeque::new();
    let mut refs = vec![cal.slice(w)];
    let (mut attempted, mut failed, mut i) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < deadline {
        let rewarm = Instant::now();
        loop {
            failed += u64::from(w.op(i).failed);
            (attempted, i) = (attempted + 1, i + 1);
            if let Some(lost) = &w.faults().lost {
                return Err(lost.clone());
            }
            if rewarm.elapsed() >= REWARM {
                break;
            }
        }
        let mut slice = spare.pop().unwrap_or_else(Slice::new);
        slice.ops.clear();
        slice.layers.iter_mut().for_each(|l| *l = 0.0);
        slice.traced = alternate && refs.len() % 2 == 0;
        let started = Instant::now();
        while started.elapsed() < WORK_SLICE && slice.ops.len() < SLICE_CAPACITY {
            if slice.traced {
                let op = w.traced_op(i, rec);
                if op.failed {
                    failed += 1;
                } else {
                    for (total, s) in slice.layers.iter_mut().zip(&op.selfs) {
                        *total += s;
                    }
                    slice.ops.push(op.wall_ns);
                }
            } else {
                let op = w.op(i);
                if op.failed {
                    failed += 1;
                } else {
                    slice.ops.push(op.ns);
                }
            }
            (attempted, i) = (attempted + 1, i + 1);
            if let Some(lost) = &w.faults().lost {
                return Err(lost.clone());
            }
        }
        slice.elapsed = started.elapsed().as_secs_f64();
        pending.push_back((refs.len() - 1, slice));
        refs.push(cal.slice(w));
        while pending
            .front()
            .is_some_and(|(k, _)| refs.len() > k + WINDOW)
        {
            let (k, slice) = pending.pop_front().expect("checked");
            finish(&slice, window_factor(&refs, k, cal.shape));
            spare.push(slice);
        }
        w.between_slices();
    }
    for (k, slice) in pending {
        finish(&slice, window_factor(&refs, k, cal.shape));
    }
    Ok((attempted, failed))
}

fn untraced(args: &Args, w: &mut dyn Workload) -> Result<Outcome, String> {
    let mut cal = Calibration::new(w);
    let mut setup_raw = Vec::new();
    let mut refs = vec![cal.slice(w)];
    for _ in 0..SETUPS {
        let started = Instant::now();
        w.setup()?;
        setup_raw.push(started.elapsed().as_secs_f64());
        refs.push(cal.slice(w));
    }
    let setup_cal: Vec<f64> = setup_raw
        .iter()
        .enumerate()
        .map(|(k, raw)| raw * window_factor(&refs, k, cal.shape))
        .collect();
    let counts = w.fixed_pass(false)?;
    check_counts(args, &counts)?;

    let (mut lat_raw, mut lat_cal) = (Hist::new(), Hist::new());
    let (mut thr_raw, mut thr_cal) = (Vec::new(), Vec::new());
    cal.background_ns = 0;
    let mut rec = Recorder::new();
    let (attempted, failed) =
        timed_phase(args.seconds, false, w, &mut rec, &mut cal, |slice, f| {
            for &ns in &slice.ops {
                lat_raw.record(ns as f64 / 1000.0);
                lat_cal.record(ns as f64 / 1000.0 * f);
            }
            let rate = slice.ops.len() as f64 / slice.elapsed;
            thr_raw.push(rate);
            thr_cal.push(rate / f);
        })?;
    if lat_cal.count() == 0 {
        return Err(format!("no op succeeded ({failed} of {attempted} failed)"));
    }
    let rss = w.peak_rss_mb()?;
    let (addr, words) = count_metrics(&counts);
    let metrics = vec![
        metric(
            "throughput_per_s",
            median(&thr_cal),
            median(&thr_raw),
            "1/s",
        ),
        metric(
            "latency_p50_us",
            lat_cal.quantile(0.5),
            lat_raw.quantile(0.5),
            "us",
        ),
        metric(
            "latency_p90_us",
            lat_cal.quantile(0.9),
            lat_raw.quantile(0.9),
            "us",
        ),
        metric("setup_s", median(&setup_cal), median(&setup_raw), "s"),
        addr,
        words,
        metric("peak_rss_mb", rss, rss, "MiB"),
    ];
    let notes = vec![
        format!(
            "latency samples {}, work slices {}, setups {SETUPS}; {failed} of {attempted} ops failed and are left out of latency and throughput",
            lat_cal.count(),
            thr_cal.len()
        ),
        // Printed, not gated: see README.md ("Why p90 is the gated tail").
        format!(
            "latency_p99_us {:.4} calibrated, {:.4} raw ({} samples beyond it)",
            lat_cal.quantile(0.99),
            lat_raw.quantile(0.99),
            lat_cal.count() / 100
        ),
        format!(
            "reference rate median {:.0}/s (nominal {:.0}/s), background cpu during reference slices {:.3} ms",
            median(&cal.rates),
            cal.shape.nominal_rate(),
            cal.background_ns as f64 / 1e6
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn traced(args: &Args, w: &mut dyn Workload) -> Result<Outcome, String> {
    let mut cal = Calibration::new(w);
    w.setup()?;
    let counts = w.fixed_pass(true)?;
    check_counts(args, &counts)?;

    let mut rec = Recorder::new();
    let (mut layers, mut layers_raw) = (vec![0.0; NAMES.len()], vec![0.0; NAMES.len()]);
    let (mut traced_wall, mut traced_raw, mut traced_ops) = (0.0, 0.0, 0u64);
    let (mut plain_wall, mut plain_raw, mut plain_ops) = (0.0, 0.0, 0u64);
    let (attempted, failed) = timed_phase(args.seconds, true, w, &mut rec, &mut cal, |slice, f| {
        let sum: f64 = slice.ops.iter().map(|&ns| ns as f64).sum();
        if slice.traced {
            for ((total, raw), s) in layers.iter_mut().zip(&mut layers_raw).zip(&slice.layers) {
                *total += s * f;
                *raw += s;
            }
            traced_wall += sum * f;
            traced_raw += sum;
            traced_ops += slice.ops.len() as u64;
        } else {
            plain_wall += sum * f;
            plain_raw += sum;
            plain_ops += slice.ops.len() as u64;
        }
    })?;
    if traced_ops == 0 || plain_ops == 0 {
        return Err("run too short for a traced and an untraced slice".to_owned());
    }
    let attributed: f64 = layers.iter().sum();
    if (attributed - traced_wall).abs() > 1e-6 * traced_wall.max(1.0) {
        return Err(format!(
            "layer self times {attributed} ns do not add up to the traced wall time {traced_wall} ns"
        ));
    }
    let spans = args
        .out
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    rec.dump(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;

    let per_op = |ns: f64, ops: u64| ns / ops as f64 / 1000.0;
    let mut metrics: Vec<Metric> = NAMES
        .iter()
        .zip(layers.iter().zip(&layers_raw))
        .map(|(name, (&ns, &raw))| {
            metric(
                &metric_name(name),
                per_op(ns, traced_ops),
                per_op(raw, traced_ops),
                "us",
            )
        })
        .collect();
    let e2e = per_op(traced_wall, traced_ops);
    let plain = per_op(plain_wall, plain_ops);
    let (e2e_raw, plain_raw) = (per_op(traced_raw, traced_ops), per_op(plain_raw, plain_ops));
    let hit_rate = counts.cache_hits as f64 / counts.cache_lookups.max(1) as f64;
    let rate = median(&cal.rates);
    metrics.extend([
        metric(
            "graph.bb_nodes",
            counts.bb_nodes as f64,
            counts.bb_nodes as f64,
            "count",
        ),
        metric("driver.cache_hit_rate", hit_rate, hit_rate, "ratio"),
        metric("trace.e2e_us", e2e, e2e_raw, "us"),
        metric("trace.overhead_us", e2e - plain, e2e_raw - plain_raw, "us"),
        metric("calib.rate", rate, rate, "1/s"),
        metric(
            "calib.server_cpu_ms",
            cal.background_ns as f64 / 1e6,
            cal.background_ns as f64 / 1e6,
            "ms",
        ),
    ]);
    let notes = vec![
        format!("traced ops {traced_ops}, untraced ops {plain_ops}, untraced mean {plain:.3} us; {failed} of {attempted} ops failed and are left out"),
        format!(
            "layer self times sum to {:.3} us = traced end-to-end {e2e:.3} us; spans of the first {} ops in {}",
            per_op(attributed, traced_ops),
            trace::KEEP_OPS,
            spans.display()
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn json_metrics(metrics: &[Metric], raw: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if raw { m.raw } else { m.value };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let outcome = make(&args).and_then(|mut w| {
        let outcome = if args.trace {
            traced(&args, &mut *w)
        } else {
            untraced(&args, &mut *w)
        };
        let faults = w.faults();
        for message in faults.failures.iter().chain(&faults.mismatches) {
            eprintln!("perfbench: {message}");
        }
        outcome.map(|o| (o, faults.mismatched))
    });
    let (outcome, mismatched) = match outcome {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{:<26} {:>16} {:>16}  unit", "metric", "calibrated", "raw");
    for m in &outcome.metrics {
        println!(
            "{:<26} {:>16.4} {:>16.4}  {}",
            m.name, m.value, m.raw, m.unit
        );
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "attempted {} failed {} output mismatches {mismatched}",
        outcome.attempted, outcome.failed
    );
    println!("raw {}", json_metrics(&outcome.metrics, true));
    let correct = mismatched == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
