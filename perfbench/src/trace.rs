//! In-memory spans for the traced run, and per-layer self time.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (name, start, end, parent, op id, thread).
//! A layer's self time is its span minus the part its children cover.
//! Where spans run at once on pool threads, each instant is shared
//! equally among the spans running then that have no running child, so
//! the layers of one op always add up to the op's wall time.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Every span name, in report order. Index 0 is the op itself: its self
/// time is the part of the op no layer span covers (`unattributed_us`).
pub const NAMES: &[&str] = &[
    "op",
    "ir.parse",
    "ir.lower",
    "core.curve",
    "core.alloc",
    "core.partition",
    "driver.cache_lookup",
    "driver.cache_insert",
    "agu.codegen",
    "agu.trace",
    "agu.sim",
    "check.check",
    "driver.compile",
    "driver.render",
    "serve.parse",
    "serve.render",
    "serve.handle",
    "serve.transport",
];

pub fn name_id(name: &str) -> usize {
    NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("unknown span name {name}"))
}

/// The per-layer metric a span name's self time is reported as.
pub fn metric_name(name: &str) -> String {
    match name {
        "op" => "unattributed_us".to_owned(),
        "driver.compile" => "driver.compile_self_us".to_owned(),
        other => format!("{other}_us"),
    }
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u8,
    pub parent: u32,
    pub op: u32,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Span store shared by the caller thread and pool workers. One op's
/// spans are collected at a time; [`Recorder::finish_op`] hands them to
/// the attribution and keeps the first [`KEEP_OPS`] ops for the dump.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    op: u32,
    current: Mutex<Vec<Span>>,
    kept: Vec<Span>,
    kept_ops: usize,
}

/// Ops whose spans are written out at the end of the traced run.
pub const KEEP_OPS: usize = 2000;

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            op: 0,
            current: Mutex::new(Vec::with_capacity(256)),
            kept: Vec::new(),
            kept_ops: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
        self.current.get_mut().expect("span lock poisoned").clear();
    }

    pub fn open(&self, name: &str, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.push(name, parent, start_ns, 0)
    }

    /// Adds an already-finished span (a duration measured elsewhere).
    pub fn push(&self, name: &str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        let mut spans = self.current.lock().expect("span lock poisoned");
        spans.push(Span {
            name: name_id(name) as u8,
            parent,
            op: self.op,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
        });
        (spans.len() - 1) as u32
    }

    pub fn close(&self, id: u32) -> u64 {
        let end = self.now_ns();
        let mut spans = self.current.lock().expect("span lock poisoned");
        spans[id as usize].end_ns = end;
        end - spans[id as usize].start_ns
    }

    pub fn rename(&self, id: u32, name: &str) {
        self.current.lock().expect("span lock poisoned")[id as usize].name = name_id(name) as u8;
    }

    pub fn span<R>(&self, name: &str, parent: u32, f: impl FnOnce(u32) -> R) -> R {
        let id = self.open(name, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// Ends the op: returns its per-name self time in ns (every root in
    /// the op is attributed separately) and keeps the spans for the dump.
    pub fn finish_op(&mut self) -> Vec<f64> {
        let spans = self.current.get_mut().expect("span lock poisoned");
        let selfs = attribute(spans);
        if self.kept_ops < KEEP_OPS {
            self.kept.extend_from_slice(spans);
            self.kept_ops += 1;
        }
        selfs
    }

    /// Writes the kept spans as JSON lines.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"thread\":{}}}",
                s.op,
                NAMES[s.name as usize],
                s.start_ns,
                s.end_ns,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
                s.thread
            )?;
        }
        out.flush()
    }
}

/// Self time per span name (ns) over a set of span trees; a parent always
/// precedes its children. Children are clipped to their parent, so a
/// span placed from a separately measured duration cannot overhang it.
pub fn attribute(spans: &[Span]) -> Vec<f64> {
    let n = spans.len();
    let mut lo = vec![0u64; n];
    let mut hi = vec![0u64; n];
    for (i, s) in spans.iter().enumerate() {
        let (mut a, mut b) = (s.start_ns, s.end_ns.max(s.start_ns));
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            a = a.clamp(lo[p], hi[p]);
            b = b.clamp(a, hi[p]);
        }
        lo[i] = a;
        hi[i] = b;
    }
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * n);
    // Zero-length spans cover nothing (and their children are clipped
    // to zero length too).
    for i in (0..n).filter(|&i| hi[i] > lo[i]) {
        events.push((lo[i], true, i));
        events.push((hi[i], false, i));
    }
    // At equal times close before open, and open parents first.
    events.sort_by_key(|&(t, open, i)| (t, open, if open { i } else { usize::MAX - i }));
    let mut active = vec![false; n];
    let mut running_children = vec![0u32; n];
    let mut selfs = vec![0.0; NAMES.len()];
    let mut prev = events.first().map_or(0, |e| e.0);
    for (t, open, i) in events {
        if t > prev {
            let leaves: Vec<usize> = (0..n)
                .filter(|&j| active[j] && running_children[j] == 0)
                .collect();
            let share = (t - prev) as f64 / leaves.len().max(1) as f64;
            for j in leaves {
                selfs[spans[j].name as usize] += share;
            }
            prev = t;
        }
        active[i] = open;
        let p = spans[i].parent;
        if p != NO_PARENT {
            if open {
                running_children[p as usize] += 1;
            } else {
                running_children[p as usize] -= 1;
            }
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name_id(name) as u8,
            parent,
            op: 0,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn sequential_self_times_add_up() {
        let spans = [
            span("op", NO_PARENT, 0, 100),
            span("driver.compile", 0, 10, 90),
            span("ir.parse", 1, 10, 30),
            span("agu.sim", 1, 40, 80),
        ];
        let s = attribute(&spans);
        assert_eq!(s[name_id("op")], 20.0);
        assert_eq!(s[name_id("driver.compile")], 20.0);
        assert_eq!(s[name_id("ir.parse")], 20.0);
        assert_eq!(s[name_id("agu.sim")], 40.0);
        assert_eq!(s.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn concurrent_children_share_wall_time() {
        let spans = [
            span("op", NO_PARENT, 0, 100),
            span("driver.compile", 0, 0, 100),
            span("agu.sim", 1, 0, 60),
            span("check.check", 1, 20, 100),
        ];
        let s = attribute(&spans);
        assert_eq!(s[name_id("agu.sim")], 20.0 + 20.0);
        assert_eq!(s[name_id("check.check")], 20.0 + 40.0);
        assert_eq!(s.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn overhanging_children_are_clipped() {
        let spans = [
            span("op", NO_PARENT, 0, 50),
            span("serve.render", 0, 10, 30),
            span("driver.render", 1, 10, 40),
        ];
        let s = attribute(&spans);
        assert_eq!(s[name_id("serve.render")], 0.0);
        assert_eq!(s[name_id("driver.render")], 20.0);
        assert_eq!(s.iter().sum::<f64>(), 50.0);
    }
}
