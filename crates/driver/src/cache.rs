//! The allocation cache — the pipeline's hot path.
//!
//! Branch-and-bound path-cover search (Phase 1) dominates compilation
//! time, and batch workloads repeat themselves: the same tap chain, the
//! same interleaved re/im walk, the same reduction shape appears in
//! loop after loop at different base offsets. Canonicalization
//! ([`raco_ir::canonical`]) maps all of those to one key, so the second
//! occurrence is a map lookup instead of a search.
//!
//! Two memo tables, keyed at different strengths:
//!
//! * **allocations** — keyed by the *exact* (shift-normalized)
//!   canonical form plus `(M, k, options)`. Entries are stored
//!   shift-normalized too, so a hit returns an [`Allocation`] whose
//!   distance model is the one the optimizer would have built, up to a
//!   shift of every offset: covers, costs and generated update deltas
//!   are all bit-for-bit reusable.
//! * **cost curves** — keyed by the weaker *cost class* (sign
//!   normalized) plus `(M, k_max, options)`. Curves only carry costs,
//!   which are mirror-invariant **on symmetric machines**, so mirrored
//!   patterns share entries there; under an asymmetric update range
//!   (e.g. `[0, 1]`) mirroring changes costs, and the curve table falls
//!   back to the exact canonical key.
//!
//! The map is a `DashMap`-style sharded `RwLock<HashMap>`: shard by
//! key hash, readers never block each other, and a miss computes the
//! value *outside* the lock (a racing duplicate computation is
//! deterministic, so first-write-wins is harmless).
//!
//! A long-lived server compiling unbounded client traffic cannot let
//! the tables grow forever, so the cache takes a [`CachePolicy`]:
//! unbounded (the default — batch runs are finite) or bounded, which
//! evicts the oldest-inserted entries per table once a size limit is
//! reached (FIFO; see [`CachePolicy::Bounded`] for why not LRU).

use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use raco_core::{Allocation, OptimizerOptions};
use raco_graph::DistanceModel;
use raco_ir::{CanonicalPattern, UpdateRange};

const SHARDS: usize = 16;

/// Bounds on the number of entries the cache may keep resident.
///
/// The policy applies to each of the cache's two tables (allocations
/// and cost curves) independently; hit/miss/eviction counters are
/// never bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Keep every entry. The right choice for batch compilation: the
    /// working set is the input, which is finite.
    #[default]
    Unbounded,
    /// Keep at most (approximately) this many entries per table,
    /// evicting the oldest-inserted once full. The bound is enforced
    /// per shard, so the effective limit rounds up to a multiple of
    /// the shard count (≤ 15 entries of slack); a limit of zero still
    /// keeps one entry per shard.
    ///
    /// Eviction is FIFO rather than LRU on purpose: lookups vastly
    /// outnumber insertions here, and FIFO keeps the read path free of
    /// bookkeeping writes (an LRU would turn every shared-lock read
    /// into an exclusive-lock touch).
    Bounded(usize),
}

impl CachePolicy {
    /// Per-shard entry budget; `None` means unbounded.
    fn shard_capacity(self) -> Option<usize> {
        match self {
            CachePolicy::Unbounded => None,
            CachePolicy::Bounded(max) => Some(max.div_ceil(SHARDS).max(1)),
        }
    }
}

/// A key with its hash, computed once per lookup: the hash picks the
/// shard and, through [`PassThrough`], the shard map's bucket.
#[derive(Debug, Clone)]
struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K: PartialEq> PartialEq for Hashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Hashed<K> {}

impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands a [`Hashed`] key's stored hash to the shard map unchanged.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("shard maps only hash `Hashed` keys")
    }
}

/// One shard: the entries plus their insertion order (for FIFO
/// eviction). The queue is only consulted when a capacity is set.
#[derive(Debug)]
struct Shard<K, V> {
    entries: HashMap<Hashed<K>, Arc<V>, BuildHasherDefault<PassThrough>>,
    order: VecDeque<Hashed<K>>,
}

impl<K, V> Shard<K, V> {
    fn new() -> Self {
        Shard {
            entries: HashMap::default(),
            order: VecDeque::new(),
        }
    }
}

/// A concurrent hash map sharded by key hash.
///
/// A shard whose lock was poisoned (a thread panicked holding it) is
/// used as it stands, not failed: every value is a whole `Arc` written
/// in one step, and no call that can panic sits between an entry's
/// insert and its order-queue update, so a panic cannot leave a shard
/// half-updated, and failing every later request on it would turn one
/// panic into a dead cache.
#[derive(Debug)]
struct ShardedMap<K, V> {
    shards: Vec<RwLock<Shard<K, V>>>,
    /// Keys are hashed once, with a per-map random seed like
    /// `HashMap`'s own, so crafted keys cannot pile into one bucket.
    hasher: RandomState,
    /// Entries kept per shard; `None` disables eviction.
    shard_capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> ShardedMap<K, V> {
    fn new(policy: CachePolicy) -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::new())).collect(),
            hasher: RandomState::new(),
            shard_capacity: policy.shard_capacity(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The key's shard and hashed form. The shard comes from bits 32
    /// and up, which the shard map uses neither for its bucket index
    /// (low bits) nor for its control tags (top seven bits).
    fn locate(&self, key: K) -> (&RwLock<Shard<K, V>>, Hashed<K>) {
        let hash = self.hasher.hash_one(&key);
        let shard = &self.shards[(hash >> 32) as usize % SHARDS];
        (shard, Hashed { hash, key })
    }

    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        let (shard, key) = self.locate(key);
        if let Some(v) = shard
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // A racer may insert meanwhile; both values are deterministic
        // functions of the key, and the first one stays.
        self.install(shard, key, Arc::new(compute())).0
    }

    /// Inserts an externally produced value (a snapshot entry), going
    /// through the same capacity/eviction bookkeeping as a computed
    /// miss but touching neither the hit nor the miss counter. Returns
    /// `false` if the key was already present (the resident value
    /// wins — it is as authoritative as the snapshot's).
    fn insert(&self, key: K, value: Arc<V>) -> bool {
        let (shard, key) = self.locate(key);
        self.install(shard, key, value).1
    }

    /// Stores `value` under `key` unless an entry is resident, evicting
    /// the oldest entries past the shard capacity. Returns the value
    /// now resident for `key` and whether it is `value`.
    fn install(
        &self,
        shard: &RwLock<Shard<K, V>>,
        key: Hashed<K>,
        value: Arc<V>,
    ) -> (Arc<V>, bool) {
        let mut guard = shard.write().unwrap_or_else(PoisonError::into_inner);
        let Shard { entries, order } = &mut *guard;
        match entries.entry(key) {
            Entry::Occupied(resident) => return (Arc::clone(resident.get()), false),
            Entry::Vacant(slot) => {
                if self.shard_capacity.is_some() {
                    order.push_back(slot.key().clone());
                }
                slot.insert(Arc::clone(&value));
            }
        }
        if let Some(capacity) = self.shard_capacity {
            while entries.len() > capacity {
                // The queue never outlives its entries (clear() resets
                // both), so the front is always a live key.
                let oldest = order.pop_front().expect("order tracks entries");
                entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        (value, true)
    }

    /// Clones out every resident entry (keys and value handles; the
    /// values themselves are shared, not copied).
    fn export(&self) -> Vec<(K, Arc<V>)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .iter()
                    .map(|(k, v)| (k.key.clone(), Arc::clone(v)))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }

    fn clear(&self) {
        for shard in &self.shards {
            let mut guard = shard.write().unwrap_or_else(PoisonError::into_inner);
            guard.entries.clear();
            guard.order.clear();
        }
    }
}

/// Exact-reuse key: same distance model, same machine, same options.
/// `pub(crate)` so the snapshot codec ([`crate::persist`]) can
/// round-trip entries without widening the public API.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct AllocationKey {
    pub(crate) canonical: CanonicalPattern,
    pub(crate) range: UpdateRange,
    pub(crate) registers: usize,
    pub(crate) options: OptimizerOptions,
}

/// Cost-class key for register-partitioning curves.
///
/// On symmetric machines `cost_class` is the mirror-normalized class;
/// on asymmetric machines it is the exact canonical form (mirror
/// sharing would be unsound — see [`curve_class`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CurveKey {
    pub(crate) cost_class: CanonicalPattern,
    pub(crate) range: UpdateRange,
    pub(crate) k_max: usize,
    pub(crate) options: OptimizerOptions,
}

/// The pattern key a cost curve is shared under for a given machine:
/// the mirror-normalized cost class when the update range is symmetric
/// (mirroring preserves costs), the exact canonical form otherwise.
pub(crate) fn curve_class(canonical: &CanonicalPattern, range: UpdateRange) -> CanonicalPattern {
    if range.is_symmetric() {
        canonical.cost_class()
    } else {
        canonical.clone()
    }
}

/// Every resident allocation entry, exported for serialization.
pub(crate) type AllocationEntries = Vec<(AllocationKey, Arc<Allocation>)>;

/// Every resident cost-curve entry, exported for serialization.
pub(crate) type CurveEntries = Vec<(CurveKey, Arc<Vec<u32>>)>;

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Allocation-table hits.
    pub allocation_hits: u64,
    /// Allocation-table misses (each one ran the two-phase allocator).
    pub allocation_misses: u64,
    /// Cost-curve hits.
    pub curve_hits: u64,
    /// Cost-curve misses (each one ran a full merge trajectory).
    pub curve_misses: u64,
    /// Distinct allocations currently cached.
    pub allocation_entries: usize,
    /// Distinct cost curves currently cached.
    pub curve_entries: usize,
    /// Allocations evicted under a [`CachePolicy::Bounded`] limit.
    pub allocation_evictions: u64,
    /// Cost curves evicted under a [`CachePolicy::Bounded`] limit.
    pub curve_evictions: u64,
    /// Entries (allocations + curves) restored from snapshots via
    /// [`crate::persist`]. Loaded entries count as neither hits nor
    /// misses; their first lookup is a hit.
    pub loaded: u64,
    /// Entries (allocations + curves) written by the most recent
    /// snapshot save (not cumulative — each save overwrites it, so a
    /// server's stats always describe its latest snapshot).
    pub persisted: u64,
}

impl CacheStats {
    /// Overall hit rate across both tables, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.allocation_hits + self.curve_hits;
        let total = hits + self.allocation_misses + self.curve_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// The pipeline's allocation memo. Cheap to share (`&self` everywhere,
/// internally synchronized); one instance typically lives as long as a
/// batch compilation server would.
#[derive(Debug)]
pub struct AllocationCache {
    allocations: ShardedMap<AllocationKey, Allocation>,
    curves: ShardedMap<CurveKey, Vec<u32>>,
    policy: CachePolicy,
    /// Entries restored from snapshots (see [`crate::persist`]).
    loaded: AtomicU64,
    /// Entries written by the most recent snapshot save.
    persisted: AtomicU64,
}

impl Default for AllocationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AllocationCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_policy(CachePolicy::Unbounded)
    }

    /// An empty cache with an explicit retention policy.
    pub fn with_policy(policy: CachePolicy) -> Self {
        AllocationCache {
            allocations: ShardedMap::new(policy),
            curves: ShardedMap::new(policy),
            policy,
            loaded: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
        }
    }

    /// The retention policy this cache was built with.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Returns the cached allocation for the canonical pattern under
    /// `(range, registers, options)`, computing it with `compute` on a
    /// miss.
    ///
    /// A computed allocation is stored shift-normalized: its distance
    /// model takes `canonical`'s offsets (first offset zero), whichever
    /// shifted twin of the pattern `compute` allocated. Shifted twins
    /// share one key, and an allocation reads its offsets only through
    /// their differences, so this is the same allocation; storing it
    /// this way makes an entry, and so a snapshot's bytes, a function
    /// of the key rather than of which twin missed first.
    pub fn allocation(
        &self,
        canonical: &CanonicalPattern,
        range: UpdateRange,
        registers: usize,
        options: &OptimizerOptions,
        compute: impl FnOnce() -> Allocation,
    ) -> Arc<Allocation> {
        self.allocations.get_or_insert_with(
            AllocationKey {
                canonical: canonical.clone(),
                range,
                registers,
                options: *options,
            },
            || shift_normalized(compute(), canonical),
        )
    }

    /// Returns the cached register/cost curve for the pattern's curve
    /// class under `(range, k_max, options)`, computing it with
    /// `compute` on a miss. Mirror-image patterns share a curve only on
    /// symmetric machines (see `curve_class`).
    pub fn cost_curve(
        &self,
        canonical: &CanonicalPattern,
        range: UpdateRange,
        k_max: usize,
        options: &OptimizerOptions,
        compute: impl FnOnce() -> Vec<u32>,
    ) -> Arc<Vec<u32>> {
        self.curves.get_or_insert_with(
            CurveKey {
                cost_class: curve_class(canonical, range),
                range,
                k_max,
                options: *options,
            },
            compute,
        )
    }

    /// Current statistics (hit/miss counters are cumulative).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            allocation_hits: self.allocations.hits.load(Ordering::Relaxed),
            allocation_misses: self.allocations.misses.load(Ordering::Relaxed),
            curve_hits: self.curves.hits.load(Ordering::Relaxed),
            curve_misses: self.curves.misses.load(Ordering::Relaxed),
            allocation_entries: self.allocations.len(),
            curve_entries: self.curves.len(),
            allocation_evictions: self.allocations.evictions.load(Ordering::Relaxed),
            curve_evictions: self.curves.evictions.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
        }
    }

    /// Clones out every resident entry of both tables for
    /// serialization. Value handles are shared (`Arc`), not deep
    /// copies; ongoing lookups are unaffected.
    pub(crate) fn export(&self) -> (AllocationEntries, CurveEntries) {
        (self.allocations.export(), self.curves.export())
    }

    /// Installs one decoded allocation entry (snapshot restore).
    /// Returns `false` if an entry for the key was already resident.
    pub(crate) fn install_allocation(&self, key: AllocationKey, value: Arc<Allocation>) -> bool {
        let fresh = self.allocations.insert(key, value);
        if fresh {
            self.loaded.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Installs one decoded cost-curve entry (snapshot restore).
    /// Returns `false` if an entry for the key was already resident.
    pub(crate) fn install_curve(&self, key: CurveKey, value: Arc<Vec<u32>>) -> bool {
        let fresh = self.curves.insert(key, value);
        if fresh {
            self.loaded.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Records how many entries the most recent snapshot save wrote.
    pub(crate) fn note_persisted(&self, entries: u64) {
        self.persisted.store(entries, Ordering::Relaxed);
    }

    /// Drops every entry (counters are kept; they are cumulative).
    pub fn clear(&self) {
        self.allocations.clear();
        self.curves.clear();
    }
}

/// `allocation` with `canonical`'s offsets in its distance model (see
/// [`AllocationCache::allocation`]).
fn shift_normalized(allocation: Allocation, canonical: &CanonicalPattern) -> Allocation {
    let dm = allocation.distance_model();
    if dm.offsets() == canonical.offsets() {
        return allocation;
    }
    let dm = DistanceModel::from_offsets_range(canonical.offsets(), dm.stride(), dm.range());
    let (_, phase1, phase2) = allocation.into_parts();
    Allocation::from_parts(dm, phase1, phase2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_core::Optimizer;
    use raco_ir::{AccessPattern, AguSpec};

    fn canonical(offsets: &[i64]) -> CanonicalPattern {
        CanonicalPattern::from_offsets(offsets, 1)
    }

    fn sym(m: u32) -> UpdateRange {
        UpdateRange::symmetric(m)
    }

    #[test]
    fn shifted_patterns_hit_the_allocation_table() {
        let cache = AllocationCache::new();
        let options = OptimizerOptions::default();
        let optimizer = Optimizer::new(AguSpec::new(2, 1).unwrap());
        let compute = |offs: &[i64]| {
            let pattern = AccessPattern::from_offsets(offs, 1);
            optimizer.allocate(&pattern)
        };
        let a = cache.allocation(&canonical(&[1, 0, 2]), sym(1), 2, &options, || {
            compute(&[1, 0, 2])
        });
        // Same shape shifted by +7: identical canonical form → hit.
        let b = cache.allocation(&canonical(&[8, 7, 9]), sym(1), 2, &options, || {
            panic!("must not recompute")
        });
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!(stats.allocation_hits, 1);
        assert_eq!(stats.allocation_misses, 1);
        assert_eq!(stats.allocation_entries, 1);
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn entries_do_not_depend_on_which_shifted_twin_missed_first() {
        // Two shifted twins share one key; caches that allocate them in
        // opposite orders must hold the same entry and encode the same
        // snapshot bytes.
        let twins: [&[i64]; 2] = [&[6, 5, 4, 3], &[0, -1, -2, -3]];
        let optimizer = Optimizer::new(AguSpec::new(2, 1).unwrap());
        let snapshot = |order: [usize; 2]| {
            let cache = AllocationCache::new();
            for twin in order {
                let pattern = AccessPattern::from_offsets(twins[twin], 1);
                let key = canonical(twins[twin]);
                let options = OptimizerOptions::default();
                cache.allocation(&key, sym(1), 2, &options, || optimizer.allocate(&pattern));
            }
            assert_eq!(cache.stats().allocation_hits, 1);
            crate::persist::encode(&cache)
        };
        assert_eq!(snapshot([0, 1]), snapshot([1, 0]));
    }

    #[test]
    fn mirrored_patterns_share_curves_but_not_allocations() {
        let cache = AllocationCache::new();
        let options = OptimizerOptions::default();
        // [0, 1, 2] and its mirror [0, -1, -2] (stride negated too).
        let fwd = CanonicalPattern::from_offsets(&[0, 1, 2], 1);
        let bwd = fwd.mirror();
        let c1 = cache.cost_curve(&fwd, sym(1), 4, &options, || vec![1, 0, 0, 0]);
        let c2 = cache.cost_curve(&bwd, sym(1), 4, &options, || panic!("curve must hit"));
        assert!(Arc::ptr_eq(&c1, &c2));
        assert_eq!(cache.stats().curve_hits, 1);

        let optimizer = Optimizer::new(AguSpec::new(1, 1).unwrap());
        let _ = cache.allocation(&fwd, sym(1), 1, &options, || {
            optimizer.allocate(&AccessPattern::from_offsets(&[0, 1, 2], 1))
        });
        let _ = cache.allocation(&bwd, sym(1), 1, &options, || {
            optimizer.allocate(&AccessPattern::from_offsets(&[0, -1, -2], -1))
        });
        // Mirrors are distinct exact keys: no false sharing of deltas.
        assert_eq!(cache.stats().allocation_misses, 2);
        assert_eq!(cache.stats().allocation_entries, 2);
    }

    #[test]
    fn asymmetric_ranges_do_not_share_mirrored_curves() {
        let cache = AllocationCache::new();
        let options = OptimizerOptions::default();
        let fwd = CanonicalPattern::from_offsets(&[0, 1, 2], 1);
        let bwd = fwd.mirror();
        // Post-increment-only machine: +1 is free, -1 is not, so the
        // mirror of a pattern genuinely costs differently and must get
        // its own curve entry.
        let range = UpdateRange::new(0, 1).unwrap();
        let c1 = cache.cost_curve(&fwd, range, 4, &options, || vec![0, 0, 0, 0]);
        let c2 = cache.cost_curve(&bwd, range, 4, &options, || vec![2, 1, 1, 1]);
        assert!(!Arc::ptr_eq(&c1, &c2));
        assert_ne!(*c1, *c2);
        assert_eq!(cache.stats().curve_misses, 2);
        assert_eq!(cache.stats().curve_entries, 2);
    }

    #[test]
    fn distinct_machines_do_not_collide() {
        let cache = AllocationCache::new();
        let options = OptimizerOptions::default();
        let key = canonical(&[0, 5]);
        let _ = cache.cost_curve(&key, sym(1), 4, &options, || vec![1, 1, 1, 1]);
        let _ = cache.cost_curve(&key, sym(2), 4, &options, || vec![0, 0, 0, 0]);
        let _ = cache.cost_curve(&key, sym(1), 8, &options, || vec![1; 8]);
        assert_eq!(cache.stats().curve_entries, 3);
        assert_eq!(cache.stats().curve_misses, 3);
    }

    #[test]
    fn clear_empties_tables_but_keeps_counters() {
        let cache = AllocationCache::new();
        let options = OptimizerOptions::default();
        let _ = cache.cost_curve(&canonical(&[0, 1]), sym(1), 2, &options, || vec![0, 0]);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.curve_entries, 0);
        assert_eq!(stats.curve_misses, 1);
    }

    #[test]
    fn bounded_policy_evicts_oldest_entries() {
        let cache = AllocationCache::with_policy(CachePolicy::Bounded(32));
        assert_eq!(cache.policy(), CachePolicy::Bounded(32));
        let options = OptimizerOptions::default();
        // Sweep far more distinct shapes than the limit admits.
        for i in 0..1000i64 {
            let _ = cache.cost_curve(
                &canonical(&[0, i + 1, 2 * i + 3]),
                sym(1),
                4,
                &options,
                || vec![1, 0, 0, 0],
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.curve_misses, 1000);
        // Bound is enforced per shard: at most ceil(32/16) = 2 each.
        assert!(
            stats.curve_entries <= 32 + SHARDS,
            "entry count {} not bounded",
            stats.curve_entries
        );
        assert!(stats.curve_evictions >= 1000 - (32 + SHARDS) as u64);
        assert_eq!(stats.allocation_evictions, 0);

        // Evicted keys recompute (a miss, not a corrupted hit).
        let first = canonical(&[0, 1, 3]);
        let recomputed = cache.cost_curve(&first, sym(1), 4, &options, || vec![9, 9, 9, 9]);
        assert_eq!(*recomputed, vec![9, 9, 9, 9]);
    }

    #[test]
    fn bounded_policy_keeps_hot_entries_until_displaced() {
        let cache = AllocationCache::with_policy(CachePolicy::Bounded(0));
        let options = OptimizerOptions::default();
        // Limit 0 still keeps one entry per shard, so an immediate
        // repeat of the same key hits.
        let key = canonical(&[0, 4]);
        let _ = cache.cost_curve(&key, sym(1), 2, &options, || vec![1, 1]);
        let _ = cache.cost_curve(&key, sym(1), 2, &options, || panic!("must hit"));
        assert_eq!(cache.stats().curve_hits, 1);
    }

    #[test]
    fn clear_resets_bounded_bookkeeping() {
        let cache = AllocationCache::with_policy(CachePolicy::Bounded(16));
        let options = OptimizerOptions::default();
        for i in 0..64i64 {
            let _ = cache.cost_curve(&canonical(&[0, i + 1]), sym(1), 2, &options, || vec![0, 0]);
        }
        cache.clear();
        assert_eq!(cache.stats().curve_entries, 0);
        // Refill after clear still respects the bound (the FIFO queue
        // was reset along with the entries).
        for i in 0..64i64 {
            let _ = cache.cost_curve(&canonical(&[0, i + 1]), sym(1), 2, &options, || vec![0, 0]);
        }
        assert!(cache.stats().curve_entries <= 16 + SHARDS);
    }

    #[test]
    fn concurrent_bounded_access_stays_within_the_limit() {
        let cache = AllocationCache::with_policy(CachePolicy::Bounded(8));
        let options = OptimizerOptions::default();
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let cache = &cache;
                let options = &options;
                s.spawn(move || {
                    for i in 0..256i64 {
                        let key = canonical(&[0, 1 + (i * 4 + t) % 97]);
                        let _ = cache.cost_curve(&key, sym(1), 2, options, || vec![1, 1]);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.curve_entries <= 8 + SHARDS);
        assert_eq!(stats.curve_hits + stats.curve_misses, 4 * 256);
    }

    #[test]
    fn a_poisoned_shard_keeps_serving() {
        let cache = AllocationCache::new();
        let options = OptimizerOptions::default();
        let _ = cache.cost_curve(&canonical(&[0, 1]), sym(1), 2, &options, || vec![1, 0]);
        // Panic while holding every shard's write guard.
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guards: Vec<_> = cache
                    .curves
                    .shards
                    .iter()
                    .map(|shard| shard.write().unwrap())
                    .collect();
                panic!("poison every shard");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(cache.curves.shards.iter().all(RwLock::is_poisoned));
        // A hit, a miss with its insert, and the new entry's hit.
        let hit = cache.cost_curve(&canonical(&[0, 1]), sym(1), 2, &options, || {
            panic!("must not recompute")
        });
        assert_eq!(*hit, vec![1, 0]);
        let _ = cache.cost_curve(&canonical(&[0, 5]), sym(1), 2, &options, || vec![2, 1]);
        let again = cache.cost_curve(&canonical(&[0, 5]), sym(1), 2, &options, || {
            panic!("must not recompute")
        });
        assert_eq!(*again, vec![2, 1]);
        let stats = cache.stats();
        assert_eq!((stats.curve_hits, stats.curve_misses), (2, 2));
        assert_eq!(stats.curve_entries, 2);
        cache.clear();
        assert_eq!(cache.stats().curve_entries, 0);
    }

    #[test]
    fn cache_is_share_and_send_safe() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AllocationCache>();
        assert_send_sync::<CacheStats>();
    }

    #[test]
    fn concurrent_mixed_access_is_consistent() {
        let cache = AllocationCache::new();
        let options = OptimizerOptions::default();
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                let options = &options;
                s.spawn(move || {
                    for i in 0..64u64 {
                        let offs = [0i64, (i % 7) as i64, 2 * ((i + t) % 5) as i64];
                        let key = CanonicalPattern::from_offsets(&offs, 1);
                        let curve =
                            cache.cost_curve(&key, sym(1), 4, options, || vec![(i % 3) as u32; 4]);
                        assert_eq!(curve.len(), 4);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.curve_hits + stats.curve_misses,
            8 * 64,
            "every lookup is accounted"
        );
        assert!(stats.curve_entries <= 35, "only distinct shapes are stored");
    }
}
