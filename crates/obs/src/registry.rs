//! Named histogram registry.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use crate::histogram::{Histogram, HistogramSnapshot};

/// A named collection of histograms.
///
/// Lookups return `Arc` handles so call sites can resolve a histogram
/// once and record through the atomic handle without touching the
/// registry lock again. Names are stored in a `BTreeMap` so enumeration
/// order is deterministic, which keeps rendered tables and JSON stable.
///
/// The registry is `Send + Sync`; the worker pool records into shared
/// handles concurrently.
///
/// ```
/// let registry = raco_obs::Registry::new();
/// registry.histogram("cache.lookup").record(120);
/// assert_eq!(registry.histogram("cache.lookup").count(), 1); // same histogram
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub const fn new() -> Self {
        Self {
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use. Repeated lookups return handles to the same histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(found) = self
            .histograms
            .read()
            .expect("metric registry poisoned")
            .get(name)
        {
            return Arc::clone(found);
        }
        let mut writable = self.histograms.write().expect("metric registry poisoned");
        Arc::clone(writable.entry(name.to_string()).or_default())
    }

    /// Snapshots of all histograms, in name order.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .read()
            .expect("metric registry poisoned")
            .iter()
            .map(|(name, histogram)| (name.clone(), histogram.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_dedupe_by_name() {
        let registry = Registry::new();
        let a = registry.histogram("x");
        let b = registry.histogram("x");
        assert!(Arc::ptr_eq(&a, &b));
        a.record(5);
        assert_eq!(b.snapshot().count, 1);
    }

    #[test]
    fn enumeration_is_name_ordered() {
        let registry = Registry::new();
        registry.histogram("zulu").record(1);
        registry.histogram("alpha").record(1);
        registry.histogram("mike").record(1);
        let names: Vec<_> = registry.histograms().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "mike", "zulu"]);
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
    }

    #[test]
    fn concurrent_resolution_yields_one_histogram() {
        let registry = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        registry.histogram("contended").record(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(registry.histogram("contended").count(), 800);
        assert_eq!(registry.histograms().len(), 1);
    }
}
