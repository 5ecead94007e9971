//! Fixed log2-bucket histogram with exact count/sum and quantile
//! estimation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: bucket 0 holds the value 0, bucket `i` (1..=64)
/// holds values in `[2^(i-1), 2^i)`, with bucket 64 absorbing everything
/// from `2^63` up to `u64::MAX` (saturation bucket).
pub const BUCKETS: usize = 65;

/// Returns the bucket index for a recorded value.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive value range `[lo, hi]` covered by a bucket.
fn bucket_range(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        i => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// A lock-free latency histogram.
///
/// Values (nanoseconds by convention) land in one of [`BUCKETS`]
/// power-of-two buckets. `count` and `sum` are exact; quantiles are
/// estimated by walking the cumulative bucket counts and linearly
/// interpolating inside the matched bucket, so the estimate is always
/// within the matched bucket's `[lo, hi]` range.
///
/// All updates use relaxed atomics: a concurrent snapshot may observe a
/// recording partially applied (e.g. count without sum), which is
/// acceptable for statistics and avoids locking the hot path.
///
/// ```
/// let h = raco_obs::Histogram::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// let s = h.snapshot();
/// assert_eq!(s.count, 4);
/// assert_eq!(s.sum, 106);
/// assert_eq!(s.max, 100);
/// assert!(s.quantile(0.5) <= 100);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. `sum` wraps on overflow (u64 nanoseconds
    /// overflow after ~584 years of accumulated time).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records the elapsed time of `f` in nanoseconds and returns its
    /// result.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.record(start.elapsed().as_nanos() as u64);
        out
    }

    /// Folds another histogram's observations into this one.
    pub fn merge_from(&self, other: &Histogram) {
        self.merge_snapshot(&other.snapshot());
    }

    /// Folds an already-taken snapshot into this histogram — callers
    /// that need both a snapshot and a merge (batch finish does) pay
    /// for the source's atomic loads once.
    pub fn merge_snapshot(&self, snapshot: &HistogramSnapshot) {
        if snapshot.count == 0 {
            return;
        }
        for (mine, &n) in self.buckets.iter().zip(snapshot.buckets.iter()) {
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snapshot.count, Ordering::Relaxed);
        self.sum.fetch_add(snapshot.sum, Ordering::Relaxed);
        self.max.fetch_max(snapshot.max, Ordering::Relaxed);
    }

    /// Exact number of recorded observations: one relaxed load, so
    /// emptiness checks skip the full [`snapshot`](Self::snapshot).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact (wrapping) sum of recorded values, as one relaxed load.
    ///
    /// Together with [`count`](Self::count) and
    /// [`max_value`](Self::max_value) this lets a quiesced histogram
    /// with ≤ 2 observations be reconstructed exactly — the two values
    /// are `max` and `sum - max` — without walking the buckets.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value, as one relaxed load.
    pub fn max_value(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Returns a point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned, immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Exact number of recorded observations.
    pub count: u64,
    /// Exact sum of recorded values (wrapping).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket observation counts.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Estimated value at quantile `q` (clamped to `[0, 1]`).
    ///
    /// Finds the bucket containing the `ceil(q * count)`-th smallest
    /// observation and linearly interpolates across that bucket's value
    /// range by the observation's rank within the bucket. Returns 0 for
    /// an empty histogram. The estimate never exceeds `max`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let (lo, hi) = bucket_range(index);
                let rank = target - seen; // 1-based rank within this bucket
                let fraction = if n <= 1 {
                    1.0
                } else {
                    (rank - 1) as f64 / (n - 1) as f64
                };
                // `(hi - lo) as f64` can round up to 2^63 in the top
                // bucket, so the offset add must saturate.
                let offset = ((hi - lo) as f64 * fraction) as u64;
                return lo.saturating_add(offset).min(self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Estimates several quantiles in one pass over the buckets.
    ///
    /// `qs` must be ascending; each output equals what
    /// [`quantile`](Self::quantile) would return for the same `q`.
    /// Summaries that want p50/p95/p99 together use this to walk the
    /// bucket array once instead of three times.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        debug_assert!(qs.windows(2).all(|w| w[0] <= w[1]), "qs must be ascending");
        let mut out = [0u64; N];
        if self.count == 0 {
            return out;
        }
        let targets = qs.map(|q| {
            let q = q.clamp(0.0, 1.0);
            ((q * self.count as f64).ceil() as u64).clamp(1, self.count)
        });
        let mut seen = 0u64;
        let mut next = 0usize;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            while next < N && seen + n >= targets[next] {
                let (lo, hi) = bucket_range(index);
                let rank = targets[next] - seen;
                let fraction = if n <= 1 {
                    1.0
                } else {
                    (rank - 1) as f64 / (n - 1) as f64
                };
                let offset = ((hi - lo) as f64 * fraction) as u64;
                out[next] = lo.saturating_add(offset).min(self.max);
                next += 1;
            }
            seen += n;
            if next == N {
                return out;
            }
        }
        while next < N {
            out[next] = self.max;
            next += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_ranges_cover_u64_without_gaps() {
        assert_eq!(bucket_range(0), (0, 0));
        let mut next = 1u64;
        for index in 1..BUCKETS {
            let (lo, hi) = bucket_range(index);
            assert_eq!(
                lo, next,
                "bucket {index} must start where the previous ended"
            );
            assert!(hi >= lo);
            assert_eq!(bucket_index(lo), index);
            assert_eq!(bucket_index(hi), index);
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "top bucket must end at u64::MAX");
    }

    #[test]
    fn count_and_sum_are_exact() {
        let h = Histogram::new();
        let values = [0u64, 1, 7, 8, 1000, 65_536, 123_456_789];
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, values.len() as u64);
        assert_eq!(s.sum, values.iter().sum::<u64>());
        assert_eq!(s.max, 123_456_789);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.50);
        let p95 = s.quantile(0.95);
        let p99 = s.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= s.max);
        // The p50 of 1..=1000 lies in bucket [512, 1023]; interpolation
        // should keep it near the true median.
        assert!((400..=700).contains(&p50), "{p50}");
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn quantile_of_uniform_value_is_that_value() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(42);
        }
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let estimate = s.quantile(q);
            let (lo, hi) = bucket_range(bucket_index(42));
            assert!(
                estimate >= lo && estimate <= hi.min(s.max),
                "{q} -> {estimate}"
            );
        }
        assert_eq!(s.quantile(1.0), 42);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
    }

    #[test]
    fn saturation_bucket_holds_extremes() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[64], 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.quantile(0.99), u64::MAX);
    }

    #[test]
    fn merge_preserves_totals() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [5u64, 50, 500, 5000] {
            b.record(v);
        }
        a.merge_from(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 111 + 5555);
        assert_eq!(s.max, 5000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 7);
    }

    #[test]
    fn merge_snapshot_matches_merge_from() {
        let source = Histogram::new();
        for v in [3u64, 300, 30_000] {
            source.record(v);
        }
        let via_histogram = Histogram::new();
        via_histogram.merge_from(&source);
        let via_snapshot = Histogram::new();
        via_snapshot.merge_snapshot(&source.snapshot());
        assert_eq!(via_histogram.snapshot(), via_snapshot.snapshot());
    }

    #[test]
    fn batched_quantiles_match_individual_calls() {
        let h = Histogram::new();
        for v in (0..500u64).map(|i| i * i % 7919) {
            h.record(v);
        }
        let s = h.snapshot();
        let qs = [0.0, 0.25, 0.50, 0.95, 0.99, 1.0];
        let batched = s.quantiles(qs);
        for (q, got) in qs.iter().zip(batched) {
            assert_eq!(got, s.quantile(*q), "q={q}");
        }
        assert_eq!(Histogram::new().snapshot().quantiles([0.5, 0.99]), [0, 0]);
    }

    #[test]
    fn time_records_one_observation() {
        let h = Histogram::new();
        let out = h.time(|| 2 + 2);
        assert_eq!(out, 4);
        assert_eq!(h.snapshot().count, 1);
    }
}
