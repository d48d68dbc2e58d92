//! Growth gate for programs of many functions. Extraction and lint build
//! the program's effect summaries and desugared copy once per run, so
//! their cost must grow linearly in the number of functions, with or
//! without calls between them. The gate counts allocations, which repeat
//! exactly on every machine, rather than time.

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
