//! Allocation gates for the read path, paged and in memory. Unlike a
//! timing, an allocation count repeats exactly on every machine, so a
//! regression in the scan — a copy per cell, a `String` per unread text
//! column, a group key per row, a second clone of a kept row — fails here
//! instead of hiding in benchmark noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Allocations made while `f` runs. Each test holds this lock for its
/// whole body, so no other test thread allocates inside the bracket.
static SERIAL: Mutex<()> = Mutex::new(());

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
    let _serial = SERIAL.lock().unwrap();
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

/// A `WHERE` filter over an in-memory table: each scanned row is cloned
/// once out of the table (its `Vec` plus one `String` per text column), a
/// kept row moves into the result without a second copy, and the rest is
/// the result vector's doubling and a fixed per-query setup.
#[test]
fn in_memory_filter_clones_each_scanned_row_once() {
    let _serial = SERIAL.lock().unwrap();
    let db = dbms::gen::gen_emp(ROWS, 7);
    let text_columns = 2; // name, dept
    let q = algebra::parse::parse_sql("SELECT * FROM emp WHERE salary > 150000").unwrap();
    let (rel, allocs) = count(|| dbms::eval_query(&q, &db, &[]).unwrap());
    assert!(rel.rows.len() > ROWS / 5, "the filter keeps a good share");
    let budget = (1 + text_columns) * ROWS + 64;
    assert!(
        allocs as usize <= budget,
        "{allocs} allocations for {ROWS} rows (budget {budget})"
    );
}
