//! Growth gates for shared ee-DAG nodes. A cursor loop whose body is `n`
//! sequential guarded updates builds a D-IR in which every update reads
//! the previous value twice (condition and both branches), so the DAG is
//! linear in `n` but its unfolding as a tree is exponential. Extraction
//! must stay linear: every walk visits a shared node once and the F-IR
//! text is capped. The gate counts allocations, which repeat exactly on
//! every machine, rather than time. A second family checks the D-IR
//! itself: hash-consing keeps a `max` chain's DAG linear in its depth.
//! A third counts bytes on a loop body of `n` accumulating statements, the
//! shape in which a quadratic table (one dependence edge per statement
//! pair) is a single growing allocation an allocation count cannot see.

use analysis::defuse::DefUseCtx;
use eqsql_core::dir::DirBuilder;
use eqsql_core::eedag::DISPLAY_CAP;
use eqsql_core::{lint_program, Extractor, ExtractorOptions};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{count, measure};

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

/// `x = max(x + x, x);` `depth` times: each statement reads the previous
/// value three times, so a tree would have about 3^depth nodes while the
/// hash-consed DAG adds a constant number per statement.
#[test]
fn max_chains_build_a_linear_dag() {
    let catalog = algebra::schema::Catalog::new();
    for depth in [8, 16, 32] {
        let body = "x = max(x + x, x);\n".repeat(depth);
        let src = format!("fn f(a, b) {{ x = a + b;\n{body} return x; }}");
        let program = imp::parse_and_normalize(&src).unwrap();
        let du_ctx = DefUseCtx::of_program(&program);
        let dir =
            DirBuilder::new(&program, &catalog, &du_ctx).build(program.function("f").unwrap());
        assert!(
            dir.dag.len() < 16 * depth + 16,
            "depth {depth}: {} DAG nodes",
            dir.dag.len()
        );
    }
}

#[test]
fn sequential_regions_merge_linearly() {
    let catalog = algebra::schema::Catalog::new();
    let allocs = |n: usize| {
        let body = "    if (a > i) { s = s + i; }\n".repeat(n);
        let src = format!("fn g(a, i) {{\n    s = 0;\n{body}    return s;\n}}\n");
        let program = imp::parse_and_normalize(&src).unwrap();
        let extractor = Extractor::new(catalog.clone());
        let (_, count, bytes) = measure(|| extractor.extract_program(&program));
        (count, bytes)
    };
    let (small, large) = (allocs(256), allocs(512));
    assert!(
        2 * large.0 <= 5 * small.0 && 2 * large.1 <= 5 * small.1,
        "(allocations, bytes): {small:?} at n = 256, {large:?} at n = 512"
    );
}

/// One cursor loop whose body is `n` × `s = s + e.salary;`: every
/// statement reads and writes the accumulator, so every ordered statement
/// pair carries a dependence on it.
#[test]
fn loop_body_dependences_grow_linearly_in_bytes() {
    let catalog = algebra::ddl::parse_ddl(
        "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT);",
    )
    .unwrap();
    let bytes = |n: usize| {
        let body = "        s = s + e.salary;\n".repeat(n);
        let src = format!(
            "fn f() {{\n    rows = executeQuery(\"SELECT * FROM emp\");\n    s = 0;\n    \
             for (e in rows) {{\n{body}    }}\n    return s;\n}}\n"
        );
        let program = imp::parse_and_normalize(&src).unwrap();
        let extractor = Extractor::new(catalog.clone());
        let (_, _, extract) = measure(|| extractor.extract_program(&program));
        let opts = ExtractorOptions::default();
        let (_, _, lint) = measure(|| lint_program(&program, &catalog, &opts));
        (extract, lint)
    };
    let (small, large) = (bytes(256), bytes(512));
    assert!(
        2 * large.0 <= 5 * small.0 && 2 * large.1 <= 5 * small.1,
        "(extract, lint) bytes: {small:?} at n = 256, {large:?} at n = 512"
    );
}
