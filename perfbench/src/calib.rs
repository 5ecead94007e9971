//! Drift calibration against a frozen reference kernel.
//!
//! Co-tenants on a shared host slow the program over windows of a few
//! hundred milliseconds to minutes. The run therefore alternates work
//! slices of at most [`WORK_SLICE`] with reference slices of
//! [`REF_SLICE`], never while a request is in flight, and rescales each
//! work slice by the reference rate measured in the [`WINDOW`] reference
//! slices on each side of it: a duration is multiplied by
//! `measured ÷ nominal`, a rate by `nominal ÷ measured`. Values stay in µs
//! and ops/s of a host that runs the reference at its nominal rate.
//!
//! The reference is shaped like the workload's ops ([`Shape`]): every
//! CPU runs a frozen, compiler-shaped kernel, either continuously
//! ([`Shape::Parallel`], for long CPU-bound ops) or in rounds of a
//! fan-out that starts one thread per CPU and joins them
//! ([`Shape::FanOut`], for short ops dominated by thread handoffs, as the
//! pipeline's worker pool and the serve tier's threads are). Contention
//! on any CPU then moves the reference as it moves the program; a
//! single-threaded kernel on the caller's CPU missed it.
//!
//! The kernel is benchmark-owned and calls nothing in the repository, so
//! no change to the program can move it. Do not edit it: every calibrated
//! number ever recorded is relative to it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How a reference slice runs the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One thread per CPU runs the kernel for the whole slice; the rate
    /// is the slowest thread's.
    Parallel,
    /// Rounds of: one scoped thread per CPU makes [`CALLS_PER_ROUND`]
    /// kernel calls, then all join; the rate is calls per second per
    /// thread.
    FanOut,
}

impl Shape {
    /// Reference rate of this shape on the 2-vCPU x86-64 VM the committed
    /// steadiness record was taken on, when it was quiet.
    pub fn nominal_rate(self) -> f64 {
        match self {
            Shape::Parallel => 76_000.0,
            Shape::FanOut => 26_000.0,
        }
    }
}

/// Length of one reference slice.
pub const REF_SLICE: Duration = Duration::from_millis(25);
/// Upper bound on one work slice.
pub const WORK_SLICE: Duration = Duration::from_millis(100);
/// Untimed ops after each reference slice. The pause lets the program's
/// threads go idle, and the first requests after it pay a wake-up a
/// closed-loop client that never pauses would not (4x the median on the
/// first serve request); these ops absorb it.
pub const REWARM: Duration = Duration::from_millis(2);

/// One call of the frozen, compiler-shaped reference kernel: builds a
/// small symbol table (allocation + ordered map), sorts a worklist and
/// folds the result. Returns a checksum so nothing is optimized away.
#[inline(never)]
pub fn reference_kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut work: Vec<u64> = Vec::with_capacity(96);
    for _ in 0..96 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        work.push(x % 4096);
    }
    work.sort_unstable();
    let mut table: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for (i, key) in work.iter().enumerate() {
        table.entry(key / 8).or_default().push(i as u32);
    }
    table
        .iter()
        .map(|(k, v)| k.wrapping_mul(v.len() as u64 + 1) ^ u64::from(v[0]))
        .fold(0u64, |acc, h| acc.rotate_left(5) ^ h)
}

/// Kernel calls each fan-out thread makes per round.
const CALLS_PER_ROUND: u64 = 4;

fn cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as u64
}

/// Runs one reference slice of `shape`; returns its rate.
#[inline(never)]
pub fn reference_slice(shape: Shape) -> f64 {
    match shape {
        Shape::Parallel => std::thread::scope(|scope| {
            let threads: Vec<_> = (0..cpus())
                .map(|t| scope.spawn(move || kernel_for(REF_SLICE, t)))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("reference thread panicked"))
                .fold(f64::INFINITY, f64::min)
        }),
        Shape::FanOut => {
            let threads = cpus();
            let started = Instant::now();
            let mut rounds = 0u64;
            loop {
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        scope.spawn(move || {
                            let first = (rounds * threads + t) * CALLS_PER_ROUND;
                            let sink = (first..first + CALLS_PER_ROUND)
                                .fold(0, |acc, seed| acc ^ reference_kernel(black_box(seed)));
                            black_box(sink);
                        });
                    }
                });
                rounds += 1;
                let elapsed = started.elapsed();
                if elapsed >= REF_SLICE {
                    return (rounds * CALLS_PER_ROUND) as f64 / elapsed.as_secs_f64();
                }
            }
        }
    }
}

/// Calls the kernel for `length`; returns calls per second.
fn kernel_for(length: Duration, seed: u64) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    let mut sink = 0u64;
    loop {
        for _ in 0..16 {
            sink ^= reference_kernel(black_box(seed << 32 | calls));
            calls += 1;
        }
        let elapsed = started.elapsed();
        if elapsed >= length {
            black_box(sink);
            return calls as f64 / elapsed.as_secs_f64();
        }
    }
}

/// Reference slices on each side of a work slice whose mean rate scales
/// it: the drift that matters spans seconds, while single 25 ms slices
/// jitter by tens of percent, so a window of ±5 slices (about ±0.6 s)
/// tracks drift without importing that jitter.
pub const WINDOW: usize = 5;

/// The duration factor for work slice `k`, which ran between reference
/// slices `refs[k]` and `refs[k + 1]`: the mean rate of up to [`WINDOW`]
/// reference slices on each side, over the nominal rate. Multiply a raw
/// duration by it; divide a raw rate by it.
pub fn window_factor(refs: &[f64], k: usize, shape: Shape) -> f64 {
    let lo = (k + 1).saturating_sub(WINDOW);
    let hi = (k + 1 + WINDOW).min(refs.len());
    let window = &refs[lo..hi];
    window.iter().sum::<f64>() / window.len() as f64 / shape.nominal_rate()
}
