//! Heap allocations of Phase 2's merge sweep, counted by this binary's
//! own global allocator, so the bounds hold on any host: without modify
//! registers a sweep allocates the same number of times whether it
//! merges twice or twelve times (nothing per scan or per merge), and a
//! seeded saris pattern set sweeps in at most two thirds of the
//! allocations it took when every state held a `PathCover`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use raco::core::random::PatternGenerator;
use raco::core::{phase1, phase2, CostModel, MergeStrategy};
use raco::graph::{BbOptions, DistanceModel, PathCover};
use raco::ir::MachineDescription;

/// Counts the allocations made on the current thread (the test harness
/// runs tests on parallel threads; each counts only its own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

#[test]
fn a_sweep_without_modify_registers_allocates_nothing_per_merge() {
    // Fourteen accesses ten apart: every intra step pays and every
    // singleton's wrap is free, so the zero-cost Phase-1 cover is the
    // fourteen singletons and every merge is a main-loop merge.
    let offsets: Vec<i64> = (0..14).map(|i| 10 * i).collect();
    let dm = DistanceModel::from_offsets(&offsets, 1, 1);
    let cover = PathCover::singletons(dm.len());
    let sweep_to = |k: usize| {
        allocations(|| {
            phase2::sweep(
                &cover,
                k..=k,
                &dm,
                CostModel::steady_state(),
                &[0],
                MergeStrategy::GreedyMinCost,
            )
        })
    };
    sweep_to(7); // warm any lazy one-time state
    let (two, twelve) = (sweep_to(12), sweep_to(2));
    assert_eq!(
        two, twelve,
        "2 merges made {two} allocations, 12 merges made {twelve}"
    );
}

/// Allocations of the Phase-2 sweeps the optimizer runs for a whole
/// saris cost curve (K = 8, MR = 8, selections priced with 0..=8
/// modify registers) of 48 seeded patterns of 4–15 accesses.
fn saris_sweep_allocations() -> u64 {
    let machine = MachineDescription::builtin("saris").expect("built-in machine");
    let agu = *machine.spec();
    let account = CostModel::steady_state().for_machine(&agu);
    let mut total = 0;
    for seed in 0..48u64 {
        let pattern = PatternGenerator::new(4 + seed as usize % 12)
            .offset_span(8)
            .generate(seed);
        let dm = DistanceModel::with_range(&pattern, agu.update_range());
        let phase1 = phase1::run(&dm, BbOptions::default());
        let priced: Vec<usize> = (0..=account.modify_registers().min(dm.len())).collect();
        total += allocations(|| {
            phase2::sweep(
                phase1.cover(),
                1..=agu.address_registers(),
                &dm,
                account,
                &priced,
                MergeStrategy::GreedyMinCost,
            )
        });
    }
    total
}

#[test]
fn saris_sweeps_allocate_at_most_two_thirds_of_the_cover_based_tree() {
    // Measured with states that cloned a `PathCover` and a key vector
    // per path, and allocated a picks vector per scan.
    const COVER_BASED_TREE: u64 = 12_170;
    let total = saris_sweep_allocations();
    assert!(
        3 * total <= 2 * COVER_BASED_TREE,
        "the saris sweeps made {total} allocations, more than two thirds of {COVER_BASED_TREE}"
    );
}
