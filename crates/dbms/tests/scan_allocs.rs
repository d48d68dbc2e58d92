//! Allocation gate for the paged read path. Unlike a timing, an allocation
//! count repeats exactly on every machine, so a regression in the scan —
//! a copy per cell, a `String` per unread text column, a group key per
//! row — fails here instead of hiding in benchmark noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while switched on; otherwise a plain `System`.
struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bump() {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocations made while `f` runs. This file holds a single test, so no
/// other test thread allocates inside the bracket.
fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.load(Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (out, COUNT.load(Ordering::Relaxed) - before)
}

const ROWS: usize = 20_000;

/// `SELECT SUM(x)` over a paged table with text columns: one row buffer
/// per row, and a page buffer per leaf read from the pager. The text
/// columns are never read, so they must never be decoded.
#[test]
fn global_sum_allocates_one_row_buffer_per_row() {
    let db = dbms::gen::gen_emp_paged(ROWS, 7, storage::Store::in_memory(8));
    let pages = db.store().expect("paged database").page_count() as f64;
    let q = algebra::parse::parse_sql("SELECT SUM(salary) AS total FROM emp").unwrap();
    let (rel, allocs) = count(|| dbms::volcano::execute(&q, &db, &[]).unwrap());
    assert_eq!(rel.rows.len(), 1);
    let budget = 1.1 * ROWS as f64 + 2.0 * pages;
    assert!(
        allocs as f64 <= budget,
        "{allocs} allocations for {ROWS} rows on {pages} pages (budget {budget})"
    );
}
