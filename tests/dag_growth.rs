//! Growth gate for shared ee-DAG nodes. A cursor loop whose body is `n`
//! sequential guarded updates builds a D-IR in which every update reads
//! the previous value twice (condition and both branches), so the DAG is
//! linear in `n` but its unfolding as a tree is exponential. Extraction
//! must stay linear: every walk visits a shared node once and the F-IR
//! text is capped. The gate counts allocations, which repeat exactly on
//! every machine, rather than time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eqsql_core::eedag::DISPLAY_CAP;
use eqsql_core::Extractor;

/// Counts this thread's allocations while switched on; otherwise a plain
/// `System`. The counters are thread-local, so test threads running in
/// parallel cannot add to each other's counts.
struct CountingAlloc;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

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
    // `try_with`: the allocator can run while a thread's locals are torn down.
    let _ = ENABLED.try_with(|on| {
        if on.get() {
            COUNT.with(|c| c.set(c.get() + 1));
        }
    });
}

/// Allocations this thread makes while `f` runs.
fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.with(Cell::get);
    ENABLED.with(|on| on.set(true));
    let out = f();
    ENABLED.with(|on| on.set(false));
    (out, COUNT.with(Cell::get) - before)
}

/// A cursor loop whose body is `n` lines of
/// `if (e.salary > i) { s = s + i; }`, each with an `else` arm when asked.
fn program(n: usize, with_else: bool) -> String {
    let arm = if with_else {
        " else { s = s * 1; }"
    } else {
        ""
    };
    let body: String = (0..n)
        .map(|_| format!("        if (e.salary > i) {{ s = s + i; }}{arm}\n"))
        .collect();
    format!(
        "fn guarded(i) {{\n    rows = executeQuery(\"SELECT * FROM emp\");\n    s = 0;\n    \
         for (e in rows) {{\n{body}    }}\n    return s;\n}}\n"
    )
}

/// Allocations to extract the `n`-line program, after checking that every
/// F-IR string it reports is within the display cap.
fn extract_allocs(n: usize, with_else: bool) -> u64 {
    let catalog = algebra::ddl::parse_ddl(
        "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT);",
    )
    .unwrap();
    let program = imp::parse_and_normalize(&program(n, with_else)).unwrap();
    let extractor = Extractor::new(catalog);
    let (report, allocs) = count(|| extractor.extract_program(&program));
    assert!(!report.vars.is_empty(), "n = {n}: no variable extracted");
    for v in &report.vars {
        let fir = v.fir.as_deref().unwrap_or("");
        assert!(
            fir.len() <= DISPLAY_CAP + '…'.len_utf8(),
            "n = {n}, else = {with_else}: `{}` fir is {} bytes",
            v.var,
            fir.len()
        );
    }
    allocs
}

#[test]
fn sequential_guards_grow_linearly() {
    for with_else in [false, true] {
        let small = extract_allocs(8, with_else);
        let large = extract_allocs(16, with_else);
        assert!(
            large < 3 * small,
            "else = {with_else}: {small} allocations at n = 8, {large} at n = 16"
        );
    }
}
