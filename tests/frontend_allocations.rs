//! Heap allocations of the DSL front end, counted by this binary's own
//! global allocator, so the bound holds on any host: parse + lower of
//! three fixed units stays at most half of what the front end made when
//! identifiers were owned strings and lowering built a vector per
//! expression node, and lowering a subscript allocates the same number
//! of times whatever its length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use raco::ir::dsl;

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

/// A multi-loop unit shaped like the cold batch's: two 1D loops over
/// one to three arrays and a 2D nest over declared arrays.
const MULTI_LOOP: &str = "array x2[5][11];
array h2[5][11];
for (i0 = 8; i0 < 40; i0++) {
  s += x0[i0 - 3] + x0[i0 + 2] + x0[i0];
  x0[i0 + 1] = x0[i0 - 6] + x0[i0 + 5];
}
for (i1 = 8; i1 < 29; i1++) {
  s += x1[i1 + 4] + h1[i1 - 2];
  h1[i1] = x1[i1 - 1] + h1[i1 + 3] + x1[i1 + 6];
  s += h1[i1 - 5];
}
for (i2 = 0; i2 < 3; i2++) {
  for (j2 = 2; j2 < 8; j2++) {
    s += x2[i2][j2 - 1] + h2[i2 + 1][j2 + 2];
    x2[i2 + 1][j2] = h2[i2][j2 - 2] + x2[i2][j2 + 1];
  }
}
";

/// A single loop of the serve workload's shape.
const SINGLE_LOOP: &str = "for (i = 0; i < 64; i++) {
  y[i] = x[i - 2] + x[i + 1] + h[i] + h[i + 3] + x[i - 1];
}
";

/// A 3D nest with compound assignments and a negative stride.
const TRIPLE_NEST: &str = "array t[4][6][8];
array u[4][6][8];
for (i = 3; i >= 0; i--) {
  for (j = 0; j < 5; j++) {
    for (k = 1; k < 7; k += 2) {
      u[i][j][k] += t[i][j + 1][k - 1] * t[i][j][k + 1];
      u[i][j][k - 1] -= 2 * t[i][j][k];
    }
  }
}
";

fn parse_and_lower(source: &str) -> usize {
    let (decls, loops) = dsl::parse_unit(source).expect("fixed unit parses");
    loops
        .iter()
        .map(|ast| {
            dsl::lower_unit_loop(&decls, ast)
                .expect("fixed unit lowers")
                .len()
        })
        .sum()
}

#[test]
fn parse_and_lower_allocate_at_most_half_of_the_owned_token_front_end() {
    // Before tokens were spans, the same three units took 399, 119 and
    // 184 allocations (702 in all): a `String` per identifier token, a
    // clone per consumed token and a `Vec` per subscript node.
    const OWNED_TOKEN_FRONT_END: u64 = 702;
    parse_and_lower(SINGLE_LOOP); // warm any lazy one-time state
    let counts: Vec<u64> = [MULTI_LOOP, SINGLE_LOOP, TRIPLE_NEST]
        .iter()
        .map(|source| allocations(|| parse_and_lower(source)))
        .collect();
    let total: u64 = counts.iter().sum();
    assert!(
        2 * total <= OWNED_TOKEN_FRONT_END,
        "parse + lower made {total} allocations {counts:?}, more than half of {OWNED_TOKEN_FRONT_END}"
    );
}

#[test]
fn lowering_a_subscript_allocates_independently_of_its_length() {
    let lower_allocations = |terms: usize| {
        let index = format!("i{}", " + 1".repeat(terms));
        let source = format!("for (i = 0; i < 8; i++) {{ s += x[{index}]; }}");
        let (decls, loops) = dsl::parse_unit(&source).expect("parses");
        allocations(|| dsl::lower_unit_loop(&decls, &loops[0]).expect("lowers"))
    };
    assert_eq!(lower_allocations(1), lower_allocations(32));
}
