//! A small scoped worker pool (rayon-style fan-out over std threads).
//!
//! The pipeline's unit of work is one loop; loops are independent
//! allocation problems, so batch compilation is embarrassingly
//! parallel. The pool hands out work items through an atomic cursor
//! (work stealing degenerates to work *taking* — items are uniform
//! enough that a shared cursor beats per-thread deques) and preserves
//! input order in the result vector.
//!
//! Implemented on `std::thread::scope` so borrowed work items need no
//! `'static` bound and the crate stays dependency-free. A batch on `n`
//! workers spawns `n - 1` scoped helpers; the calling thread is the
//! n-th worker and takes items from the same cursor. The CPU count
//! behind [`Parallelism::Auto`] is looked up once per process (see
//! [`available_workers`]), so a warm batch pays neither the lookup nor
//! an idle waiting thread.

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
    /// One worker per available CPU (the default; see
    /// [`available_workers`]).
    #[default]
    Auto,
    /// Exactly this many workers, the calling thread included (clamped
    /// to at least one).
    Fixed(usize),
    /// No worker threads: run on the calling thread. Useful for
    /// debugging and for deterministic profiling.
    Sequential,
}

impl Parallelism {
    /// Resolves to a concrete worker count for `items` work items.
    pub fn resolve(self, items: usize) -> usize {
        let workers = match self {
            Parallelism::Auto => available_workers(),
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Sequential => 1,
        };
        workers.min(items.max(1))
    }
}

/// Maps `f` over `items` on `parallelism` workers, preserving order.
///
/// `f` must be `Sync` because multiple workers call it concurrently.
/// The calling thread is one of the workers. Panics in `f` — on a
/// helper thread or on the caller — propagate to the caller once every
/// worker has been joined.
pub fn map_parallel<T, R, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_workers(parallelism.resolve(items.len()), items, f)
}

/// [`map_parallel`] on an already resolved worker count: the caller
/// plus `workers - 1` scoped helpers.
pub(crate) fn map_workers<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Each worker claims indices from the shared cursor and keeps its
    // `(index, result)` pairs locally; they meet again after the join.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= items.len() {
                return done;
            }
            done.push((index, f(index, &items[index])));
        }
    };
    let batches: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        // A panic here unwinds through the scope, which joins the
        // helpers before rethrowing it.
        let mut batches = vec![work()];
        for helper in helpers {
            match helper.join() {
                Ok(batch) => batches.push(batch),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        batches
    });

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (index, result) in batches.into_iter().flatten() {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed"))
        .collect()
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

    /// Runs `2 * workers` items under `Fixed(workers)` (`Sequential` for
    /// one worker). The first `workers` items meet at a rendezvous, so
    /// every worker holds one item at the same time: each claims one and
    /// blocks until all have. `f` may panic after the rendezvous.
    fn run_batch(
        workers: usize,
        f: impl Fn(usize, ThreadId) + Sync,
    ) -> std::thread::Result<HashSet<ThreadId>> {
        let parallelism = match workers {
            1 => Parallelism::Sequential,
            n => Parallelism::Fixed(n),
        };
        let items: Vec<usize> = (0..2 * workers).collect();
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
        for at in [0, 7] {
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
