//! Property-based coverage of the observability layer (`raco-obs`) and
//! its contract with the pipeline:
//!
//! 1. **exactness** — histogram `count`/`sum`/`max` are exact for any
//!    recorded values, and estimated quantiles are ordered and bounded
//!    by the true maximum;
//! 2. **merge** — merging per-batch histograms into an accumulator
//!    conserves totals exactly;
//! 3. **no lost time** — an outer timed region's recorded duration
//!    covers the sum of the regions timed inside it;
//! 4. **pool safety** — histograms recorded and timed from many threads
//!    against one shared registry lose nothing;
//! 5. **stage accounting** — a sequential batch's wall time is at least
//!    the sum of its per-stage totals (stages are disjoint intervals of
//!    one thread, so instrumentation can never invent time).

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use raco::obs::{Histogram, Registry};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_count_sum_max_are_exact(
        values in prop::collection::vec(0u64..=1_000_000_000_000, 1..=200)
    ) {
        let histogram = Histogram::new();
        for &v in &values {
            histogram.record(v);
        }
        let snapshot = histogram.snapshot();
        prop_assert_eq!(snapshot.count, values.len() as u64);
        prop_assert_eq!(snapshot.sum, values.iter().sum::<u64>());
        prop_assert_eq!(snapshot.max, *values.iter().max().unwrap());
        let (p50, p95, p99) = (
            snapshot.quantile(0.50),
            snapshot.quantile(0.95),
            snapshot.quantile(0.99),
        );
        prop_assert!(p50 <= p95);
        prop_assert!(p95 <= p99);
        prop_assert!(p99 <= snapshot.max);
    }

    #[test]
    fn merging_batches_conserves_totals(
        batches in prop::collection::vec(
            prop::collection::vec(0u64..=1_000_000_000, 0..=32),
            1..=6,
        )
    ) {
        let accumulator = Histogram::new();
        for batch in &batches {
            let local = Histogram::new();
            for &v in batch {
                local.record(v);
            }
            accumulator.merge_from(&local);
        }
        let all: Vec<u64> = batches.concat();
        let snapshot = accumulator.snapshot();
        prop_assert_eq!(snapshot.count, all.len() as u64);
        prop_assert_eq!(snapshot.sum, all.iter().sum::<u64>());
        prop_assert_eq!(snapshot.max, all.iter().max().copied().unwrap_or(0));
    }

    #[test]
    fn outer_spans_cover_nested_spans(inner_count in 1usize..=8) {
        let registry = Registry::new();
        registry.histogram("outer").time(|| {
            for _ in 0..inner_count {
                registry.histogram("inner").time(|| ());
            }
        });
        let outer = registry.histogram("outer").snapshot();
        let inner = registry.histogram("inner").snapshot();
        prop_assert_eq!(outer.count, 1);
        prop_assert_eq!(inner.count, inner_count as u64);
        // No lost time: the enclosing region's duration is at least the
        // sum of everything timed inside it.
        prop_assert!(
            outer.sum >= inner.sum,
            "outer {} ns < nested total {} ns",
            outer.sum,
            inner.sum
        );
    }

    #[test]
    fn shared_registry_loses_nothing_under_a_pool(
        threads in 2usize..=8,
        per_thread in 1usize..=64,
    ) {
        let registry = Arc::new(Registry::new());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        registry.histogram("latency").record(i as u64);
                        registry.histogram("span").time(|| ());
                    }
                });
            }
        });
        let expected = (threads * per_thread) as u64;
        prop_assert_eq!(registry.histogram("latency").snapshot().count, expected);
        prop_assert_eq!(registry.histogram("span").snapshot().count, expected);
        // One histogram per name, however racy the resolution was.
        prop_assert_eq!(registry.histograms().len(), 2);
    }
}

#[test]
fn sequential_batch_wall_time_covers_stage_totals() {
    use raco::driver::{Parallelism, Pipeline, PipelineConfig};
    use raco::ir::AguSpec;

    let mut config = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
    config.parallelism = Parallelism::Sequential;
    let pipeline = Pipeline::with_config(config);
    let report = pipeline
        .compile_str(
            "bench",
            "for (i = 1; i < 64; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }",
        )
        .expect("compiles");
    assert!(!report.timings.is_empty(), "stage timings must be present");
    let stage_total: u64 = report.timings.iter().map(|t| t.total_ns).sum();
    assert!(
        report.elapsed >= Duration::from_nanos(stage_total),
        "stages are disjoint intervals of one thread: {:?} < {} ns",
        report.elapsed,
        stage_total
    );
}
