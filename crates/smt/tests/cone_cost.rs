//! Pins the cost contract of the per-call term walks: `vars_of`,
//! `contains_var` and the uncovered path of `TermDigests::of_terms` on a
//! small term allocate the same bytes whether the pool around it holds
//! ten thousand or a million other terms.
//!
//! The counting allocator tallies bytes per thread, so allocations made
//! concurrently by the test harness never enter the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cpr_smt::{Sort, TermDigests, TermPool};

struct CountingAlloc;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while `f` runs.
fn bytes_during<R>(f: impl FnOnce() -> R) -> usize {
    let before = BYTES.with(Cell::get);
    let r = f();
    let after = BYTES.with(Cell::get);
    drop(r);
    after - before
}

/// Allocation footprints of the walks on the 5-node term `(x + 7) < y`,
/// interned after `filler` unrelated terms: `vars_of`, `contains_var`,
/// and `of_terms` against a digest table synced over exactly the filler
/// (so the small term's whole cone is the uncovered tail) and against an
/// empty table.
fn footprints(filler: usize) -> [usize; 4] {
    let mut pool = TermPool::new();
    let f = pool.named_var("f", Sort::Int);
    let mut k = 0i64;
    while pool.len() < filler {
        let c = pool.int(1_000 + k);
        let _ = pool.add(f, c);
        k += 1;
    }
    let mut prefix = TermDigests::default();
    prefix.sync(&pool);
    let filled = pool.len();

    let xv = pool.var("x", Sort::Int);
    let x = pool.var_term(xv);
    let y = pool.named_var("y", Sort::Int);
    let seven = pool.int(7);
    let sum = pool.add(x, seven);
    let t = pool.lt(sum, y);
    assert_eq!(pool.len(), filled + 5, "the small term adds 5 nodes");
    assert!(!prefix.covers(t));
    let empty = TermDigests::default();
    let p = &pool;
    [
        bytes_during(|| p.vars_of(t)),
        bytes_during(|| p.contains_var(t, xv)),
        bytes_during(|| prefix.of_terms(p, &[t])),
        bytes_during(|| empty.of_terms(p, &[t])),
    ]
}

#[test]
fn small_term_walks_allocate_independently_of_pool_size() {
    let small = footprints(10_000);
    let large = footprints(1_000_000);
    assert_eq!(
        small, large,
        "bytes allocated by [vars_of, contains_var, of_terms (synced prefix), \
         of_terms (empty table)] grew with the pool"
    );
    // The walks do allocate (so the comparison is not vacuous), but only
    // for the cone: far below one byte per pool term.
    assert!(small.iter().all(|&b| b > 0 && b < 10_000), "{small:?}");
}
