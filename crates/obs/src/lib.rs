//! Dependency-free observability for the raco workspace.
//!
//! Every timing and count is a [`Histogram`]: a fixed log2-bucket
//! histogram with exact `count`/`sum`/`max` and p50/p95/p99 estimation
//! by linear interpolation inside the matched bucket. A [`Registry`]
//! maps names to histograms; the process-wide one is [`global()`].
//!
//! All durations are recorded in **nanoseconds**; presentation layers
//! convert to microseconds when rendering.
//!
//! # Example
//!
//! ```
//! let registry = raco_obs::Registry::new();
//! let answer = registry.histogram("phase2").time(|| 6 * 7);
//! assert_eq!(answer, 42);
//! let snapshot = registry.histogram("phase2").snapshot();
//! assert_eq!(snapshot.count, 1);
//! ```

mod histogram;
mod registry;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use registry::Registry;

static GLOBAL: Registry = Registry::new();

/// The process-wide histogram registry.
///
/// Pipeline stages record here so that long-lived consumers (the serve
/// tier's `metrics` op, `--timings` tables) can read accumulated totals
/// without threading a registry handle through every call site.
///
/// ```
/// raco_obs::global().histogram("doc.example").record(5);
/// assert!(raco_obs::global().histogram("doc.example").count() >= 1);
/// ```
pub fn global() -> &'static Registry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_is_shared() {
        super::global().histogram("lib.shared").record(2);
        assert!(super::global().histogram("lib.shared").count() >= 1);
    }
}
