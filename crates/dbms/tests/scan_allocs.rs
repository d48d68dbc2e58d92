//! Allocation gates for the read path, paged and in memory. Unlike a
//! timing, an allocation count repeats exactly on every machine, so a
//! regression in the scan — a copy per cell, a `String` per unread text
//! column, a group key per row, a second clone of a kept row — fails here
//! instead of hiding in benchmark noise.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count;

const ROWS: usize = 20_000;

/// Allocations a plan may make once per query: operators, bound
/// expressions, the scan cursor's page copy, the result.
const SETUP: u64 = 64;

/// `SELECT SUM(x)` over a paged table with text columns: the scan decodes
/// every row into one reused buffer and reads every missed leaf into the
/// frame it evicts, so the count is the plan's fixed set-up and does not
/// grow with the table. The text columns are never read, so they must
/// never be decoded.
#[test]
fn global_sum_allocates_nothing_per_row() {
    let q = algebra::parse::parse_sql("SELECT SUM(salary) AS total FROM emp").unwrap();
    let allocs = [ROWS, 2 * ROWS].map(|rows| {
        let db = dbms::gen::gen_emp_paged(rows, 7, storage::Store::in_memory(8));
        let (rel, allocs) = count(|| dbms::volcano::execute(&q, &db, &[]).unwrap());
        assert_eq!(rel.rows.len(), 1);
        allocs
    });
    assert_eq!(
        allocs[0],
        allocs[1],
        "allocations at {ROWS} and {} rows",
        2 * ROWS
    );
    assert!(
        allocs[0] <= SETUP,
        "{} allocations (budget {SETUP})",
        allocs[0]
    );
}

/// A `WHERE` filter over an in-memory table: each scanned row is copied
/// into one reused buffer (its `Vec` and text columns' `String`s reused),
/// so a row the filter drops costs nothing. A kept row moves into the
/// result, and the next copy refills a fresh buffer: its `Vec` plus one
/// exactly sized `String` per text column, each of which may grow once
/// before the next kept row takes it. The rest is the result vector's
/// doubling and a fixed per-query setup.
#[test]
fn in_memory_filter_clones_each_scanned_row_once() {
    let db = dbms::gen::gen_emp(ROWS, 7);
    let text_columns = 2; // name, dept
    let q = algebra::parse::parse_sql("SELECT * FROM emp WHERE salary > 150000").unwrap();
    let (rel, allocs) = count(|| dbms::eval_query(&q, &db, &[]).unwrap());
    let kept = rel.rows.len();
    assert!(kept > ROWS / 5, "the filter keeps a good share");
    assert!(kept < ROWS / 2, "the filter drops a good share");
    let doubling = usize::BITS - kept.leading_zeros();
    let budget = (1 + 2 * text_columns) * kept + doubling as usize + SETUP as usize;
    assert!(
        allocs as usize <= budget,
        "{allocs} allocations for {kept} of {ROWS} rows kept (budget {budget})"
    );
}
