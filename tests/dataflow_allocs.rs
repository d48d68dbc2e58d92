//! Allocation gate for the dataflow solver. The input is a straight-line
//! function of `n` assignments over 32 variables; its CFG is one block, so
//! a solver that stores or clones a fact per statement allocates in
//! proportion to `n`, and one that keeps block-level facts does not. The
//! gate counts allocations, which repeat exactly on every machine, rather
//! than time. Each count covers the index build and the solve together.

use std::hint::black_box;

use analysis::dataflow::FnIndex;
use analysis::defuse::DefUseCtx;
use analysis::liveness::Liveness;
use analysis::reaching::ReachingDefs;
use imp::ast::Function;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count;

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
