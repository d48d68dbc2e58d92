//! Growth gate for programs of many functions. Extraction and lint build
//! the program's effect summaries and desugared copy once per run, so
//! their cost must grow linearly in the number of functions, with or
//! without calls between them, and inlining a call tree must cost one
//! build per callee and depth, not one per call site. The gates count
//! allocations, which repeat exactly on every machine, rather than time.

use eqsql_core::{lint_program, Extractor, ExtractorOptions};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count;

/// `n` functions, each summing salaries in one cursor loop; with `calls`,
/// every function but the first also calls its predecessor.
fn program(n: usize, calls: bool) -> imp::ast::Program {
    let src: String = (0..n)
        .map(|k| {
            let ret = if calls && k > 0 {
                format!("s + f{}()", k - 1)
            } else {
                "s".to_string()
            };
            format!(
                "fn f{k}() {{ rows = executeQuery(\"SELECT * FROM emp\"); s = 0; \
                 for (e in rows) {{ s = s + e.salary; }} return {ret}; }}\n"
            )
        })
        .collect();
    imp::parse_and_normalize(&src).unwrap()
}

/// Allocations to extract and to lint the `n`-function program.
fn allocs(n: usize, calls: bool) -> (u64, u64) {
    let catalog = algebra::ddl::parse_ddl(
        "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT);",
    )
    .unwrap();
    let program = program(n, calls);
    let extractor = Extractor::new(catalog.clone());
    let (report, extract) = count(|| extractor.extract_program(&program));
    assert_eq!(report.loops_rewritten, n, "n = {n}, calls = {calls}");
    let opts = ExtractorOptions::default();
    let (_, lint) = count(|| lint_program(&program, &catalog, &opts));
    (extract, lint)
}

#[test]
fn many_functions_grow_linearly() {
    for calls in [false, true] {
        let (extract_small, lint_small) = allocs(64, calls);
        let (extract_large, lint_large) = allocs(256, calls);
        assert!(
            extract_large <= 5 * extract_small,
            "calls = {calls}: extract_program made {extract_small} allocations at n = 64, \
             {extract_large} at n = 256"
        );
        assert!(
            lint_large <= 5 * lint_small,
            "calls = {calls}: lint_program made {lint_small} allocations at n = 64, \
             {lint_large} at n = 256"
        );
    }
}

/// Allocations to extract `f11` of a 12-function chain in which every
/// `fK` returns its own sum plus `fanout` calls of `f(K-1)`.
fn chain_allocs(fanout: usize) -> u64 {
    let catalog = algebra::ddl::parse_ddl(
        "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT);",
    )
    .unwrap();
    let src: String = (0..12)
        .map(|k| {
            let calls: String = if k > 0 {
                (0..fanout).map(|_| format!(" + f{}()", k - 1)).collect()
            } else {
                String::new()
            };
            format!(
                "fn f{k}() {{ rows = executeQuery(\"SELECT * FROM emp\"); s = 0; \
                 for (e in rows) {{ s = s + e.salary; }} return s{calls}; }}\n"
            )
        })
        .collect();
    let program = imp::parse_and_normalize(&src).unwrap();
    let extractor = Extractor::new(catalog);
    let (report, allocs) = count(|| extractor.extract_function(&program, "f11"));
    assert_eq!(report.loops_rewritten, 1, "fan-out {fanout}");
    allocs
}

#[test]
fn call_trees_inline_each_callee_once_per_depth() {
    let single = chain_allocs(1);
    let triple = chain_allocs(3);
    assert!(
        triple <= 3 * single,
        "extracting f11 made {single} allocations at fan-out 1, {triple} at fan-out 3"
    );
}
