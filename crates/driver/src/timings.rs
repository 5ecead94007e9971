//! Per-batch pipeline stage timings.
//!
//! Every batch entry point owns a `BatchTimings` (crate-private): one latency
//! histogram per pipeline stage, recorded from the worker pool through
//! lock-free atomics. When the batch finishes, the histograms are
//! summarized into [`StageTiming`] rows for the report *and* folded into
//! the process-wide [`raco_obs::global()`] registry under
//! `pipeline.<stage>`, where long-lived consumers (the serve `metrics`
//! op) read accumulated totals across batches.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use raco_obs::Histogram;

/// A pipeline stage with its own latency histogram.
///
/// Allocation runs through `Optimizer::allocate_patterns` with the
/// allocation cache as its memo, and the memo times each lookup. Lookups
/// come in `_hit`/`_miss` pairs: the same code path is timed into one or
/// the other depending on whether the cache had the entry, so hit
/// latency (a clone of an `Arc`) and miss latency (an optimizer run)
/// stay separately visible. `partition` is the register partition
/// between a loop's last curve lookup and its first allocation lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Parse,
    Lower,
    CurveHit,
    CurveMiss,
    Partition,
    AllocHit,
    AllocMiss,
    Codegen,
    Simulate,
    Check,
}

impl Stage {
    pub(crate) const ALL: [Stage; 10] = [
        Stage::Parse,
        Stage::Lower,
        Stage::CurveHit,
        Stage::CurveMiss,
        Stage::Partition,
        Stage::AllocHit,
        Stage::AllocMiss,
        Stage::Codegen,
        Stage::Simulate,
        Stage::Check,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Lower => "lower",
            Stage::CurveHit => "curve_hit",
            Stage::CurveMiss => "curve_miss",
            Stage::Partition => "partition",
            Stage::AllocHit => "alloc_hit",
            Stage::AllocMiss => "alloc_miss",
            Stage::Codegen => "codegen",
            Stage::Simulate => "simulate",
            Stage::Check => "check",
        }
    }
}

/// The process-wide `pipeline.<stage>` histograms, resolved once: batch
/// finish runs per request in serve mode, so it must not pay a name
/// format + registry lookup per stage per batch.
fn global_stage_histograms() -> &'static [Arc<Histogram>; Stage::ALL.len()] {
    static HISTOGRAMS: OnceLock<[Arc<Histogram>; Stage::ALL.len()]> = OnceLock::new();
    HISTOGRAMS.get_or_init(|| {
        std::array::from_fn(|i| {
            raco_obs::global().histogram(&format!("pipeline.{}", Stage::ALL[i].name()))
        })
    })
}

/// Per-batch stage histograms (one [`Histogram`] per [`Stage`]).
#[derive(Debug)]
pub(crate) struct BatchTimings {
    stages: [Histogram; Stage::ALL.len()],
}

impl BatchTimings {
    pub(crate) fn new() -> Self {
        BatchTimings {
            stages: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Times `f` into the stage's histogram and returns its result.
    pub(crate) fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        self.stages[stage as usize].time(f)
    }

    /// Records an externally measured duration (nanoseconds).
    pub(crate) fn record_ns(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record(ns);
    }

    /// Summarizes the batch into report rows (stages with zero calls are
    /// omitted) and folds every histogram into the global registry under
    /// `pipeline.<stage>`.
    pub(crate) fn finish(&self) -> Vec<StageTiming> {
        let globals = global_stage_histograms();
        let mut rows = Vec::with_capacity(Stage::ALL.len());
        for ((stage, histogram), global) in Stage::ALL.iter().zip(&self.stages).zip(globals) {
            let calls = histogram.count();
            if calls == 0 {
                continue;
            }
            // The batch has quiesced, so count/sum/max are coherent. A
            // stage with ≤ 2 observations — every stage of a warm
            // single-loop batch — is reconstructed exactly from those
            // three scalars (the values are `max` and `sum - max`),
            // skipping the bucket walks of snapshot/merge/quantile;
            // this keeps always-on instrumentation inside its overhead
            // budget on cache-hit traffic.
            let row = if calls <= 2 {
                let total_ns = histogram.sum();
                let max_ns = histogram.max_value();
                let min_ns = total_ns.wrapping_sub(max_ns);
                global.record(max_ns);
                if calls == 2 {
                    global.record(min_ns);
                }
                StageTiming {
                    stage: stage.name(),
                    calls,
                    total_ns,
                    max_ns,
                    // quantile targets for n ≤ 2: p50 is the 1st
                    // observation, p95/p99 the last.
                    p50_ns: if calls == 2 { min_ns } else { max_ns },
                    p95_ns: max_ns,
                    p99_ns: max_ns,
                }
            } else {
                let snapshot = histogram.snapshot();
                global.merge_snapshot(&snapshot);
                let [p50_ns, p95_ns, p99_ns] = snapshot.quantiles([0.50, 0.95, 0.99]);
                StageTiming {
                    stage: stage.name(),
                    calls,
                    total_ns: snapshot.sum,
                    max_ns: snapshot.max,
                    p50_ns,
                    p95_ns,
                    p99_ns,
                }
            };
            rows.push(row);
        }
        rows
    }
}

/// Times back-to-back stages boundary-to-boundary: one clock read per
/// boundary ends one stage's sample and starts the next. Reading the
/// clock is not free on every host, so the glue between two stages
/// lands in the following stage's sample instead of paying an extra
/// read to exclude it.
pub(crate) struct StageClock<'a> {
    timings: &'a BatchTimings,
    mark: Instant,
}

impl<'a> StageClock<'a> {
    /// A clock whose first lap starts at `mark`.
    pub(crate) fn starting_at(timings: &'a BatchTimings, mark: Instant) -> Self {
        StageClock { timings, mark }
    }

    /// Records the time since the previous boundary under `stage`.
    pub(crate) fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        self.timings
            .record_ns(stage, now.duration_since(self.mark).as_nanos() as u64);
        self.mark = now;
    }
}

/// Summary of one pipeline stage over a batch: exact call count and
/// total, estimated quantiles (see [`raco_obs::Histogram`]). Durations
/// are nanoseconds; JSON renderings convert to microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage name (`parse`, `lower`, `curve_hit`, `curve_miss`,
    /// `partition`, `alloc_hit`, `alloc_miss`, `codegen`, `simulate`,
    /// `check`).
    pub stage: &'static str,
    /// Number of timed calls.
    pub calls: u64,
    /// Exact total across calls, in nanoseconds.
    pub total_ns: u64,
    /// Largest single call, in nanoseconds.
    pub max_ns: u64,
    /// Estimated median call, in nanoseconds.
    pub p50_ns: u64,
    /// Estimated 95th-percentile call, in nanoseconds.
    pub p95_ns: u64,
    /// Estimated 99th-percentile call, in nanoseconds.
    pub p99_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_skips_idle_stages_and_orders_rows() {
        let timings = BatchTimings::new();
        timings.record_ns(Stage::Simulate, 500);
        timings.record_ns(Stage::Parse, 1000);
        timings.record_ns(Stage::Parse, 3000);
        let rows = timings.finish();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].stage, "parse");
        assert_eq!(rows[0].calls, 2);
        assert_eq!(rows[0].total_ns, 4000);
        assert_eq!(rows[1].stage, "simulate");
    }

    #[test]
    fn finish_folds_into_the_global_registry() {
        let timings = BatchTimings::new();
        timings.record_ns(Stage::Partition, 42);
        let before = raco_obs::global()
            .histogram("pipeline.partition")
            .snapshot()
            .count;
        timings.finish();
        let after = raco_obs::global()
            .histogram("pipeline.partition")
            .snapshot()
            .count;
        assert_eq!(after, before + 1);
    }

    #[test]
    fn tiny_stages_report_exact_order_statistics() {
        // ≤ 2 observations take the scalar fast path: quantiles are the
        // exact observations, and the global histogram receives them
        // reconstructed from count/sum/max.
        let timings = BatchTimings::new();
        timings.record_ns(Stage::Lower, 700);
        timings.record_ns(Stage::Lower, 300);
        let before = raco_obs::global().histogram("pipeline.lower").snapshot();
        let rows = timings.finish();
        let after = raco_obs::global().histogram("pipeline.lower").snapshot();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].calls, 2);
        assert_eq!(rows[0].total_ns, 1000);
        assert_eq!(rows[0].p50_ns, 300);
        assert_eq!(rows[0].p95_ns, 700);
        assert_eq!(rows[0].p99_ns, 700);
        assert_eq!(rows[0].max_ns, 700);
        // Other tests share the global registry, so deltas are >=.
        assert!(after.count >= before.count + 2);
        assert!(after.sum >= before.sum + 1000);
    }

    #[test]
    fn timed_closures_record_into_the_right_stage() {
        let timings = BatchTimings::new();
        let out = timings.time(Stage::Codegen, || 7);
        assert_eq!(out, 7);
        let rows = timings.finish();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].stage, "codegen");
        assert_eq!(rows[0].calls, 1);
    }
}
