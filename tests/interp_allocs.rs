//! Allocation gate for the interpreter's cursor loops. Each program runs
//! over `gen_emp` at n = 1,000 and n = 2,000 rows. A cursor loop over
//! `executeQuery(..)` streams its rows through two reused buffers, so its
//! count may not grow with n at all, over an in-memory table or a paged
//! one behind a small buffer pool. The other loops are compared with a
//! program that only fetches the same rows: one that reads rows by
//! reference allocates nothing per row beyond the fetch; one that copies a
//! row, a field list or the whole result on every read allocates in
//! proportion to n and fails. `return rows` moves the result, so it may
//! allocate at most a constant more than the fetch. Counts repeat exactly
//! on every machine, so the gate counts allocations rather than time.

use dbms::gen::{gen_emp, gen_emp_paged};
use dbms::{Connection, Database};
use interp::Interp;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count;

/// Fetch every row and visit none of them: the cost of the cursor itself.
const FETCH: &str = r#"
fn f() {
    rows = executeQuery("SELECT * FROM emp");
    return 0;
}
"#;

/// Fetch every row and return them.
const RETURN_ROWS: &str = r#"
fn f() {
    rows = executeQuery("SELECT * FROM emp");
    return rows;
}
"#;

/// The canonical cursor-loop sum (Fig. 10's loop side).
const SUM: &str = r#"
fn f() {
    s = 0;
    for (e in executeQuery("SELECT * FROM emp")) {
        s = s + e.salary;
    }
    return s;
}
"#;

/// The same sum over a variable; `for` iterates a snapshot of `rows`.
const VAR_LOOP: &str = r#"
fn f() {
    s = 0;
    rows = executeQuery("SELECT * FROM emp");
    for (e in rows) {
        s = s + e.salary;
    }
    return s;
}
"#;

/// Ten `rows.size()` calls on one fetched result.
const TEN_SIZES: &str = r#"
fn f() {
    rows = executeQuery("SELECT * FROM emp");
    n = 0;
    i = 0;
    while (i < 10) {
        n = n + rows.size();
        i = i + 1;
    }
    return n;
}
"#;

const SIZES: [usize; 2] = [1_000, 2_000];

/// Allocations of one call of `f` in `src` over `db`; the parse, the
/// database and the interpreter are built outside the count.
fn allocs_on(src: &str, db: Database) -> u64 {
    let program = imp::parser::parse_program(src).unwrap();
    let mut it = Interp::new(&program, Connection::new(db));
    let (v, c) = count(|| it.call("f", vec![]));
    v.unwrap();
    c
}

/// [`allocs_on`] over the in-memory `gen_emp(n, 42)`.
fn allocs(src: &str, n: usize) -> u64 {
    allocs_on(src, gen_emp(n, 42))
}

/// Assert that `src` allocates at most `k` times the bare fetch plus a
/// constant: its excess over `k` fetches must not grow from n = 1,000 to
/// n = 2,000 (a slack of 8 absorbs the logarithmic `Vec` regrowth).
fn gate(what: &str, src: &str, k: u64) {
    let [small, large] = SIZES.map(|n| {
        let (prog, fetch) = (allocs(src, n), allocs(FETCH, n));
        (prog, fetch, prog as i64 - (k * fetch) as i64)
    });
    let per_row = (large.0 - small.0) as f64 / (SIZES[1] - SIZES[0]) as f64;
    let fetch_per_row = (large.1 - small.1) as f64 / (SIZES[1] - SIZES[0]) as f64;
    assert!(
        large.2 <= small.2 + 8,
        "{what}: {} allocations at n = {} and {} at n = {} ({per_row:.1} per row), \
         against {k} x the fetch's {} and {} ({fetch_per_row:.1} per row)",
        small.0,
        SIZES[0],
        large.0,
        SIZES[1],
        small.1,
        large.1,
    );
}

/// The streamed cursor sum allocates a constant per call: its count at
/// n = 2,000 may exceed its count at n = 1,000 by at most 8, in memory and
/// over a paged table of 8 buffer-pool frames that every scan evicts.
#[test]
fn a_cursor_sum_allocates_nothing_per_row() {
    for paged in [false, true] {
        let db = |n| match paged {
            false => gen_emp(n, 42),
            true => gen_emp_paged(n, 42, storage::Store::in_memory(8)),
        };
        let backing = if paged {
            "paged, 8 frames"
        } else {
            "in memory"
        };
        let [small, large] = SIZES.map(|n| allocs_on(SUM, db(n)));
        assert!(
            large <= small + 8,
            "for (e in executeQuery(..)) s = s + e.salary, {backing}: {small} allocations \
             at n = {} and {large} at n = {}",
            SIZES[0],
            SIZES[1],
        );
    }
}

#[test]
fn a_loop_over_a_variable_copies_the_rows_at_most_once() {
    gate("rows = executeQuery(..); for (e in rows) ..", VAR_LOOP, 2);
}

#[test]
fn size_does_not_copy_the_rows() {
    gate("ten rows.size() calls", TEN_SIZES, 1);
}

/// `return rows` moves the result out of the dying frame: it allocates at
/// most 8 more than the bare fetch, at each size, where a copy would
/// allocate once per row.
#[test]
fn return_moves_the_result() {
    for n in SIZES {
        let (ret, fetch) = (allocs(RETURN_ROWS, n), allocs(FETCH, n));
        assert!(
            ret <= fetch + 8,
            "return rows: {ret} allocations at n = {n}, against the fetch's {fetch}"
        );
    }
}
