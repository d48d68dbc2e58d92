//! Allocation gate for the dataflow solver. The input is a straight-line
//! function of `n` assignments over 32 variables; its CFG is one block, so
//! a solver that stores or clones a fact per statement allocates in
//! proportion to `n`, and one that keeps block-level facts does not. The
//! gate counts allocations, which repeat exactly on every machine, rather
//! than time. Each count covers the index build and the solve together.
//! A last gate holds dead-code elimination linear on a dead chain of
//! assignments, by bytes allocated.

use std::hint::black_box;

use analysis::dataflow::FnIndex;
use analysis::defuse::DefUseCtx;
use analysis::liveness::Liveness;
use analysis::reaching::ReachingDefs;
use imp::ast::Function;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{count, measure};

const VARS: usize = 32;

/// `fn f(v0, …, v31)` with `n` assignments `v{i} = v{i+1} + v{i+7} + i`
/// (indices mod 32), returning the sum of all 32 variables.
fn straight_line(n: usize) -> Function {
    let params: Vec<String> = (0..VARS).map(|i| format!("v{i}")).collect();
    let body: String = (0..n)
        .map(|i| {
            format!(
                "    v{} = v{} + v{} + {i};\n",
                i % VARS,
                (i + 1) % VARS,
                (i + 7) % VARS
            )
        })
        .collect();
    let src = format!(
        "fn f({}) {{\n{body}    return {};\n}}\n",
        params.join(", "),
        params.join(" + ")
    );
    imp::parser::parse_program(&src)
        .unwrap()
        .functions
        .remove(0)
}

fn gate(what: &str, allocs: impl Fn(&Function) -> u64) {
    let small = allocs(&straight_line(16));
    let large = allocs(&straight_line(256));
    assert!(
        large <= 2 * small,
        "{what}: {small} allocations at n = 16, {large} at n = 256"
    );
}

#[test]
fn liveness_allocations_do_not_grow_with_the_block() {
    gate("Liveness::compute", |f| {
        count(|| {
            let ix = FnIndex::build(f);
            black_box(Liveness::compute(&ix));
        })
        .1
    });
}

#[test]
fn reaching_defs_allocations_do_not_grow_with_the_block() {
    gate("ReachingDefs::compute", |f| {
        count(|| {
            let ix = FnIndex::build(f);
            black_box(ReachingDefs::compute(&ix, &DefUseCtx::default()));
        })
        .1
    });
}

/// `s = 0;`, `n` × `s = s + 1;`, then a sum loop over `emp`. Extraction
/// folds the prefix into the loop's query, and dead-code elimination then
/// deletes the whole chain.
fn dead_chain(n: usize) -> String {
    format!(
        "fn f() {{\n    rows = executeQuery(\"SELECT * FROM emp\");\n    s = 0;\n{}    \
         for (e in rows) {{\n        s = s + e.salary;\n    }}\n    return s;\n}}\n",
        "    s = s + 1;\n".repeat(n)
    )
}

#[test]
fn dead_code_elimination_removes_a_dead_chain_in_one_round() {
    // Bytes, not allocations: a round per removed link allocates about the
    // same number of times each round, but each round's tables span the
    // whole function.
    let bytes = |n: usize| {
        let catalog = algebra::ddl::parse_ddl(
            "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT);",
        )
        .unwrap();
        let program = imp::parse_and_normalize(&dead_chain(n)).unwrap();
        let extractor = eqsql_core::Extractor::new(catalog);
        let (report, _, bytes) = measure(|| extractor.extract_program(&program));
        assert_eq!(report.loops_rewritten, 1, "n = {n}");
        let body = &report.program.functions[0].body.stmts;
        assert_eq!(body.len(), 2, "n = {n}: the chain is left: {body:?}");
        bytes
    };
    let (small, large) = (bytes(256), bytes(512));
    assert!(
        2 * large <= 5 * small,
        "{small} bytes at n = 256, {large} at n = 512"
    );
}
