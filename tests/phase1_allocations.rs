//! Heap allocations of Phase 1, counted by this binary's own global
//! allocator, so the bounds hold on any host: the branch-and-bound
//! search allocates nothing per node, Phase 1 over the ROADMAP's
//! Table 1 patterns on the six built-ins allocates at most a third of
//! what it did when the bounds, the search and every search node built
//! their own vectors, and on a long loop Phase 1 and a whole cost curve
//! allocate a few bytes per pair of accesses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use raco::core::phase1;
use raco::core::random::PatternGenerator;
use raco::core::Optimizer;
use raco::graph::{BbOptions, DistanceModel};
use raco::ir::{AccessPattern, MachineDescription};

/// Counts the allocations made on the current thread, and the bytes
/// they asked for (the test harness runs tests on parallel threads;
/// each counts only its own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` on this thread.
fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    /// A reallocation counts as one allocation of the bytes it grows by.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
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

/// Bytes allocated on this thread while `f` runs.
fn bytes<T>(f: impl FnOnce() -> T) -> u64 {
    let before = BYTES.with(Cell::get);
    let out = f();
    let after = BYTES.with(Cell::get);
    drop(out);
    after - before
}

/// Table 3's offsets (ROADMAP): a 64-bit LCG (multiplier
/// 6364136223846793005, increment 1442695040888963407, seed 12345),
/// `(s >> 33) % 17 − 8`; the first 32 take the paper machine's search
/// 6394 nodes.
fn table3_prefix(len: usize) -> Vec<i64> {
    let mut state: u64 = 12345;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64 % 17 - 8
        })
        .collect()
}

/// The allocations and the report of Phase 1 on `dm` within
/// `node_limit` nodes.
fn searched(dm: &DistanceModel, node_limit: u64, memoize: bool) -> (u64, phase1::Phase1Report) {
    let options = BbOptions {
        node_limit,
        memoize,
    };
    let report = phase1::run(dm, options);
    (allocations(|| phase1::run(dm, options)), report)
}

#[test]
fn a_search_allocates_nothing_per_node() {
    let dm = DistanceModel::from_offsets(&table3_prefix(32), 1, 1);
    for memoize in [false, true] {
        let (small, ten) = searched(&dm, 10, memoize);
        let (large, thousand) = searched(&dm, 1000, memoize);
        assert_eq!(
            (ten.nodes(), thousand.nodes()),
            (11, 1001),
            "both searches stop at their budget"
        );
        // Both return the heuristic cover, so the report costs the same.
        assert_eq!(ten.cover(), thousand.cover());
        if memoize {
            // Only the memo grows: its table doubles from 64 slots to at
            // most 2048 for 1001 states (five doublings), each a new
            // table and a key-buffer reservation, and the key buffer may
            // outgrow one reservation per doubling.
            assert!(
                large <= small + 3 * 5,
                "10 nodes made {small} allocations, 1000 nodes made {large}"
            );
        } else {
            assert_eq!(
                small, large,
                "10 nodes made {small} allocations, 1000 nodes made {large}"
            );
        }
    }
}

/// The allocations of `phase1::run` over Table 1's 300 patterns
/// (`PatternGenerator::new(1 + s % 12).offset_span(8)`, seed `s`) on
/// each of the six built-ins.
fn table1_allocations() -> u64 {
    let mut total = 0;
    for &name in MachineDescription::builtin_names() {
        let range = MachineDescription::builtin(name)
            .expect("built-in machine")
            .spec()
            .update_range();
        for s in 0..300u64 {
            let pattern = PatternGenerator::new(1 + s as usize % 12)
                .offset_span(8)
                .generate(s);
            let dm = DistanceModel::with_range(&pattern, range);
            total += allocations(|| phase1::run(&dm, BbOptions::default()));
        }
    }
    total
}

#[test]
fn table1_phase1_allocates_at_most_a_third_of_the_per_node_search() {
    // Measured when the matching built adjacency lists, the split repair
    // a path per segment, and every search node its candidate, symmetry
    // and memo-key vectors.
    const PER_NODE_SEARCH: u64 = 88_207;
    // Measured in a debug build (whose assertions allocate too): 26 606
    // when `PathCover::from_assignment` grew each path by `push`, 26 556
    // since it allocates each path once at its full length.
    const PATHS_SIZED_ONCE: u64 = 26_556;
    let total = table1_allocations();
    assert!(
        3 * total <= PER_NODE_SEARCH,
        "Phase 1 made {total} allocations, more than a third of {PER_NODE_SEARCH}"
    );
    assert!(
        total <= PATHS_SIZED_ONCE,
        "Phase 1 made {total} allocations, more than {PATHS_SIZED_ONCE}"
    );
}

/// Accesses of the long loop: one statement that reads `x[i]` this
/// many times, as in the ROADMAP's Table 3.
const LONG_LOOP: usize = 2000;

/// The long loop's pattern, and the paper machine's `K` and update
/// window.
fn long_loop_on_the_paper_machine() -> (AccessPattern, MachineDescription) {
    let machine = MachineDescription::builtin("paper").expect("built-in machine");
    (AccessPattern::from_offsets(&[0; LONG_LOOP], 1), machine)
}

/// The pairs of accesses of the long loop, `n²`: what a per-step table
/// grows with.
const PAIRS: u64 = (LONG_LOOP * LONG_LOOP) as u64;

#[test]
fn phase1_on_a_long_loop_allocates_a_few_bytes_per_access_pair() {
    // Every intra step is free, so the matching's adjacency holds
    // n(n - 1)/2 four-byte entries: about 2 bytes per pair. A table of
    // every step's delta and freeness held 16 more.
    const BYTES_PER_PAIR: u64 = 3;
    let (pattern, machine) = long_loop_on_the_paper_machine();
    let dm = DistanceModel::with_range(&pattern, machine.spec().update_range());
    let report = phase1::run(&dm, BbOptions::default());
    assert_eq!(report.virtual_registers(), 1, "one register serves x[i]");
    let total = bytes(|| phase1::run(&dm, BbOptions::default()));
    assert!(
        total <= BYTES_PER_PAIR * PAIRS,
        "Phase 1 allocated {total} bytes for {PAIRS} pairs, more than {BYTES_PER_PAIR} per pair"
    );
}

#[test]
fn a_long_loop_cost_curve_allocates_a_few_bytes_per_access_pair() {
    // Phase 1's bytes, plus Phase 2's key per step: four bytes per
    // pair.
    const BYTES_PER_PAIR: u64 = 8;
    let (pattern, machine) = long_loop_on_the_paper_machine();
    let optimizer = Optimizer::new(*machine.spec());
    let k = machine.spec().address_registers();
    assert_eq!(optimizer.cost_curve(&pattern, k), vec![0; k]);
    let total = bytes(|| optimizer.cost_curve(&pattern, k));
    assert!(
        total <= BYTES_PER_PAIR * PAIRS,
        "the cost curve allocated {total} bytes for {PAIRS} pairs, more than {BYTES_PER_PAIR} per pair"
    );
}

#[test]
fn a_long_loop_cost_curve_on_dsp56k_allocates_a_few_bytes_per_access_pair() {
    // A step table numbers the distinct paid deltas for the modify
    // registers: the long loop alternates `x[i]` and `x[i + 10]`, so most
    // steps pay one of a few deltas. Phase 2 keeps a four-byte key per
    // pair; a `(delta, step)` entry per paid step held 16 more.
    const BYTES_PER_PAIR: u64 = 8;
    let machine = MachineDescription::builtin("dsp56k").expect("built-in machine");
    assert!(machine.spec().modify_registers() > 0);
    let offsets: Vec<i64> = (0..LONG_LOOP).map(|a| 10 * (a % 2) as i64).collect();
    let pattern = AccessPattern::from_offsets(&offsets, 1);
    let optimizer = Optimizer::new(*machine.spec());
    let k = machine.spec().address_registers();
    let total = bytes(|| optimizer.cost_curve(&pattern, k));
    assert!(
        total <= BYTES_PER_PAIR * PAIRS,
        "the cost curve allocated {total} bytes for {PAIRS} pairs, more than {BYTES_PER_PAIR} per pair"
    );
}
