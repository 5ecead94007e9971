//! A small scoped worker pool (rayon-style fan-out over std threads)
//! that grows on demand.
//!
//! The pipeline's unit of work is one loop; loops are independent
//! allocation problems, so batch compilation is embarrassingly
//! parallel. The pool hands out work items through an atomic cursor
//! (work stealing degenerates to work *taking* — items are uniform
//! enough that a shared cursor beats per-thread deques) and preserves
//! input order in the result vector.
//!
//! Implemented on `std::thread::scope` so borrowed work items need no
//! `'static` bound and the crate stays dependency-free. The calling
//! thread is always a worker: it starts draining the cursor alone, and
//! helpers join only when the work asks for them through its
//! `FanOut` handle. The pipeline asks at its first cache miss, so a
//! batch of cache hits — a few µs of lookup, codegen and simulation per
//! loop — runs on the caller without spawning a thread, while a cold
//! batch may fan out at its first lookup. [`map_parallel`] asks before
//! its first item.
//!
//! A helper is started only when it can expect at least two items: a
//! scoped spawn and join cost about as much as one cold loop, so a
//! helper with one item does not pay for itself (see
//! `FanOut::widen`). A cold three-loop unit therefore runs on the
//! caller, while the nineteen-loop kernel suite still fans out. The CPU
//! count behind [`Parallelism::Auto`] is looked up once per process
//! (see [`available_workers`]).

use std::cell::OnceCell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The number of CPUs this process may use, looked up on the first call
/// and cached for the life of the process.
///
/// This is the one place the tree asks the OS how many CPUs there are;
/// the lookup (a cgroup quota and affinity read on Linux) costs tens of
/// microseconds, every later call one atomic load. Quota or affinity
/// changes after the first call are not seen.
pub fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Degree of parallelism for a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Up to one worker per available CPU (the default; see
    /// [`available_workers`]).
    #[default]
    Auto,
    /// Up to this many workers, the calling thread included (clamped
    /// to at least one).
    Fixed(usize),
    /// No worker threads: run on the calling thread. Useful for
    /// debugging and for deterministic profiling.
    Sequential,
}

impl Parallelism {
    /// Resolves to a concrete worker count for `items` work items: the
    /// most workers a batch may use.
    pub fn resolve(self, items: usize) -> usize {
        let workers = match self {
            Parallelism::Auto => available_workers(),
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Sequential => 1,
        };
        workers.min(items.max(1))
    }
}

/// Maps `f` over `items` on up to `parallelism` workers, preserving
/// order.
///
/// `f` must be `Sync` because multiple workers call it concurrently.
/// The calling thread is one of the workers, and every helper is
/// spawned before `f` runs on the first item: only as many as can each
/// expect at least two items, as at a pipeline batch's first miss.
/// Panics in `f` — on a helper thread or on the caller — propagate to
/// the caller once every worker has been joined.
pub fn map_parallel<T, R, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = parallelism.resolve(items.len());
    let (results, _) = map_on_demand(workers, items, |index, item, fan_out| {
        fan_out.widen();
        f(index, item)
    });
    results
}

/// The handle through which a work item of [`map_on_demand`] asks for
/// the batch's helpers.
///
/// Only the calling thread's handle can spawn: helpers get an inert
/// one, and the handle is neither `Send` nor `Sync`, so it cannot reach
/// another thread.
#[derive(Clone, Copy)]
pub(crate) struct FanOut<'a> {
    widen: Option<&'a dyn Fn()>,
}

impl FanOut<'static> {
    /// A handle whose [`widen`](FanOut::widen) does nothing, for work
    /// that runs outside a batch.
    pub(crate) const INERT: Self = FanOut { widen: None };
}

impl FanOut<'_> {
    /// Spawns the batch's helpers, which take the items no worker has
    /// claimed yet: [`helper_count`] of them, so that each can expect at
    /// least two items. Only the first call in a batch spawns; later
    /// calls, and calls through an inert handle, do nothing.
    pub(crate) fn widen(&self) {
        if let Some(widen) = self.widen {
            widen();
        }
    }
}

/// The helpers worth starting for `unclaimed` items on up to `workers`
/// workers: `min(workers - 1, unclaimed / 2 - 1)`, or none when that is
/// below one. The caller keeps the item it holds and shares the
/// unclaimed ones with the helpers, so each of them, the caller
/// included, can expect at least two; starting a helper costs about
/// one cold loop, so a helper with one item does not pay for itself.
fn helper_count(workers: usize, unclaimed: usize) -> usize {
    (unclaimed / 2)
        .saturating_sub(1)
        .min(workers.saturating_sub(1))
}

/// Maps `f` over `items`, preserving order, on the calling thread plus
/// the up to `workers - 1` scoped helpers that `f` spawns through its
/// [`FanOut`] handle ([`helper_count`] of them, counted at the first
/// widening). Returns the results and the number of threads that worked:
/// the caller plus the helpers spawned.
///
/// Panics in `f` — on a helper or on the caller, before or after the
/// helpers were spawned — propagate to the caller once every thread
/// has been joined.
pub(crate) fn map_on_demand<T, R, F>(workers: usize, items: &[T], f: F) -> (Vec<R>, usize)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, FanOut<'_>) -> R + Sync,
{
    // Each worker claims indices from the shared cursor and keeps its
    // `(index, result)` pairs locally; they meet again after the join.
    let cursor = AtomicUsize::new(0);
    let drain = |fan_out: FanOut<'_>| {
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= items.len() {
                return done;
            }
            done.push((index, f(index, &items[index], fan_out)));
        }
    };
    // Borrowed once, so each helper's `move` closure copies a reference.
    let drain = &drain;
    let batches: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let helpers = OnceCell::new();
        let widen = || {
            helpers.get_or_init(|| {
                let unclaimed = items.len().saturating_sub(cursor.load(Ordering::Relaxed));
                (0..helper_count(workers, unclaimed))
                    .map(|_| scope.spawn(move || drain(FanOut::INERT)))
                    .collect::<Vec<_>>()
            });
        };
        // A panic here unwinds through the scope, which joins the
        // helpers before rethrowing it.
        let mut batches = vec![drain(FanOut {
            widen: Some(&widen),
        })];
        for helper in helpers.into_inner().unwrap_or_default() {
            match helper.join() {
                Ok(batch) => batches.push(batch),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        batches
    });

    let threads = batches.len();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (index, result) in batches.into_iter().flatten() {
        slots[index] = Some(result);
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed"))
        .collect();
    (results, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let doubled = map_parallel(Parallelism::Fixed(8), &items, |_, &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<i64> = (-50..50).collect();
        let seq = map_parallel(Parallelism::Sequential, &items, |i, &x| x + i as i64);
        let par = map_parallel(Parallelism::Fixed(4), &items, |i, &x| x + i as i64);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let _ = map_parallel(Parallelism::Auto, &items, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed)
        });
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
    }

    /// Holds each arriving thread until `parties` threads have arrived
    /// in total (or a generous limit passes, so a pool with too few
    /// workers fails its assertions instead of hanging the test).
    struct Rendezvous {
        arrived: Mutex<usize>,
        all_here: Condvar,
        parties: usize,
    }

    impl Rendezvous {
        fn new(parties: usize) -> Self {
            Rendezvous {
                arrived: Mutex::new(0),
                all_here: Condvar::new(),
                parties,
            }
        }

        fn wait(&self) {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all_here.notify_all();
            let limit = Duration::from_secs(5);
            drop(
                self.all_here
                    .wait_timeout_while(arrived, limit, |a| *a < self.parties)
                    .unwrap(),
            );
        }
    }

    /// Runs `2 * workers + 1` items under `Fixed(workers)` (`Sequential`
    /// for one worker): enough that each of the `workers - 1` helpers
    /// can expect two of the `2 * workers` left unclaimed at the first
    /// item. The first `workers` items meet at a rendezvous, so every
    /// worker holds one item at the same time: each claims one and
    /// blocks until all have. `f` may panic after the rendezvous.
    fn run_batch(
        workers: usize,
        f: impl Fn(usize, ThreadId) + Sync,
    ) -> std::thread::Result<HashSet<ThreadId>> {
        let parallelism = match workers {
            1 => Parallelism::Sequential,
            n => Parallelism::Fixed(n),
        };
        let items: Vec<usize> = (0..2 * workers + 1).collect();
        let rendezvous = Rendezvous::new(workers);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_parallel(parallelism, &items, |i, _| {
                rendezvous.wait();
                let id = std::thread::current().id();
                f(i, id);
                id
            })
            .into_iter()
            .collect()
        }))
    }

    #[test]
    fn fixed_n_runs_on_n_threads_including_the_caller() {
        let caller = std::thread::current().id();
        for n in [2, 3, 4] {
            let ids = run_batch(n, |_, _| {}).unwrap();
            assert_eq!(ids.len(), n, "Fixed({n}) must run on exactly {n} threads");
            assert!(ids.contains(&caller), "the caller must work in Fixed({n})");
        }
    }

    #[test]
    fn sequential_runs_on_the_caller_thread() {
        let ids = run_batch(1, |_, _| {}).unwrap();
        assert_eq!(ids, HashSet::from([std::thread::current().id()]));
    }

    /// The message of the panic that reached the caller.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    }

    #[test]
    fn panics_at_the_first_and_last_index_propagate() {
        for at in [0, 8] {
            let payload = run_batch(4, |i, _| assert_ne!(i, at, "boom at {i}"))
                .expect_err("the panic must reach the caller");
            assert!(panic_message(payload).contains(&format!("boom at {at}")));
        }
    }

    #[test]
    fn panics_on_the_caller_and_on_a_helper_propagate() {
        let caller = std::thread::current().id();
        let on_caller = run_batch(4, |_, id| assert!(id != caller, "caller boom"));
        assert!(panic_message(on_caller.unwrap_err()).contains("caller boom"));
        let on_helper = run_batch(4, |_, id| assert!(id == caller, "helper boom"));
        assert!(panic_message(on_helper.unwrap_err()).contains("helper boom"));
    }

    /// Runs `items` items through [`map_on_demand`] on up to `workers`
    /// workers. Items before `widen_at` run without asking for helpers;
    /// from `widen_at` on, every item calls `widen()`, and as many of
    /// them as the widening starts threads meet at a rendezvous, so each
    /// helper spawned holds one of them while the caller holds the
    /// first. `f` may panic after the rendezvous. Returns the thread
    /// that ran each item and the thread count.
    fn run_widening_batch(
        workers: usize,
        items: usize,
        widen_at: usize,
        f: impl Fn(usize, ThreadId) + Sync,
    ) -> std::thread::Result<(Vec<(usize, ThreadId)>, usize)> {
        let threads = 1 + helper_count(workers, items.saturating_sub(widen_at + 1));
        let items: Vec<usize> = (0..items).collect();
        let meeting = widen_at..widen_at + threads;
        let rendezvous = Rendezvous::new(threads.min(items.len().saturating_sub(widen_at)));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_on_demand(workers, &items, |i, _, fan_out| {
                if i >= widen_at {
                    fan_out.widen();
                }
                if meeting.contains(&i) {
                    rendezvous.wait();
                }
                let id = std::thread::current().id();
                f(i, id);
                (i, id)
            })
        }))
    }

    #[test]
    fn without_widen_every_item_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let (ran, threads) = run_widening_batch(4, 16, 16, |_, _| {}).unwrap();
        assert_eq!(threads, 1);
        assert!(ran.iter().all(|&(_, id)| id == caller));
    }

    #[test]
    fn widen_spawns_helpers_for_the_unclaimed_items_once() {
        // (workers, items, widen_at) → helpers = min(workers - 1,
        // unclaimed / 2 - 1), none below one, where the caller holds
        // item `widen_at` and unclaimed = items - widen_at - 1: each
        // helper can expect at least two items.
        for (workers, items, widen_at, helpers) in [
            (4, 16, 0, 3),
            (4, 8, 0, 2),
            (3, 12, 2, 2),
            (4, 8, 3, 1),
            (4, 8, 4, 0),
            (4, 3, 0, 0),
            (4, 8, 7, 0),
            (1, 8, 0, 0),
        ] {
            let calls = AtomicUsize::new(0);
            let (ran, threads) = run_widening_batch(workers, items, widen_at, |_, _| {
                calls.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            let case = format!("Fixed({workers}) widened at item {widen_at} of {items}");
            assert_eq!(threads, 1 + helpers, "{case}");
            let ids: HashSet<ThreadId> = ran.iter().map(|&(_, id)| id).collect();
            assert_eq!(ids.len(), 1 + helpers, "{case}");
            assert!(ids.contains(&std::thread::current().id()), "{case}");
            assert_eq!(calls.load(Ordering::Relaxed), items, "{case}");
            let order: Vec<usize> = ran.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, (0..items).collect::<Vec<_>>(), "{case}");
        }
    }

    #[test]
    fn panics_after_widening_propagate_from_helpers_and_the_caller() {
        let caller = std::thread::current().id();
        let on_helper = run_widening_batch(4, 12, 4, |_, id| assert!(id == caller, "helper boom"));
        assert!(panic_message(on_helper.unwrap_err()).contains("helper boom"));
        let on_caller = run_widening_batch(4, 12, 4, |i, id| {
            assert!(i < 4 || id != caller, "caller boom");
        });
        assert!(panic_message(on_caller.unwrap_err()).contains("caller boom"));
    }

    #[test]
    fn auto_resolves_to_the_cached_cpu_count() {
        for k in [0, 1, 2, 3, 7, 10_000] {
            assert_eq!(
                Parallelism::Auto.resolve(k),
                available_workers().min(k.max(1))
            );
        }
        assert!(available_workers() >= 1);
    }

    #[test]
    fn resolve_clamps_to_item_count() {
        assert_eq!(Parallelism::Fixed(64).resolve(3), 3);
        assert_eq!(Parallelism::Fixed(0).resolve(9), 1);
        assert_eq!(Parallelism::Sequential.resolve(100), 1);
        assert!(Parallelism::Auto.resolve(10_000) >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = map_parallel(Parallelism::Auto, &[] as &[u8], |_, &x| x);
        assert!(out.is_empty());
    }
}
