//! Order statistics with constant memory.

/// A log-bucketed histogram (0.1 % wide buckets from 10 ns to ~100 s)
/// with linear interpolation inside a bucket. Memory does not grow with
/// run length, so the benchmark's own footprint is fixed before the
/// timed phase and `peak_rss_mb` measures the program.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

const MIN_US: f64 = 0.01;
const RATIO: f64 = 1.001;
const BUCKETS: usize = 23_100;

impl Hist {
    pub fn new() -> Self {
        // Allocated and zeroed before the timed phase starts.
        Hist {
            counts: (0..BUCKETS).map(|_| 0).collect(),
            total: 0,
        }
    }

    pub fn record(&mut self, us: f64) {
        let index = ((us.max(MIN_US) / MIN_US).ln() / RATIO.ln()) as usize;
        self.counts[index.min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in µs (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + u64::from(c)) as f64 > rank {
                let lo = MIN_US * RATIO.powi(i as i32);
                let within = (rank - seen as f64 + 0.5) / f64::from(c);
                return lo * (1.0 + (RATIO - 1.0) * within);
            }
            seen += u64::from(c);
        }
        MIN_US * RATIO.powi(BUCKETS as i32)
    }
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
