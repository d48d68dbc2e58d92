//! Static applicability tests for the baselines (Experiment 2).
//!
//! From the paper:
//!
//! * "Batching is applicable only when there is parameterized iterative
//!   query invocation from a loop. If the loop iterates over a query
//!   result, batching is able to extract a join query." Batching also
//!   handles `while` loops via loop splitting.
//! * "Prefetching is possible in all cases we examined" — any query whose
//!   parameters are available earlier can be submitted ahead of its use.

use imp::ast::{builtins, Expr, Program};

/// True when batching \[11\] applies to some loop of `fname`: a loop (cursor
/// or `while`) whose body executes a query.
pub fn batching_applicable(program: &Program, fname: &str) -> bool {
    let Some(f) = program.function(fname) else {
        return false;
    };
    let mut found = false;
    f.body.walk(&mut |s, in_loop| {
        if in_loop {
            for e in s.kind.exprs() {
                e.walk(&mut |x| found |= is_query(x));
            }
        }
    });
    found
}

/// A call that runs a query (`executeQuery` or `executeScalar`).
fn is_query(e: &Expr) -> bool {
    matches!(e, Expr::Call { name, .. }
        if name == builtins::EXECUTE_QUERY || name == builtins::EXECUTE_SCALAR)
}

/// True when prefetching \[19\] applies: the function executes at least one
/// query (its submission can then be moved to the earliest point where its
/// parameters are available).
pub fn prefetch_applicable(program: &Program, fname: &str) -> bool {
    let Some(f) = program.function(fname) else {
        return false;
    };
    let mut found = false;
    f.body.walk_exprs(&mut |e| found |= is_query(e));
    for e in f.body.stmts.iter().flat_map(|s| s.kind.exprs()) {
        e.walk(&mut |x| {
            found |= matches!(x, Expr::Call { name, .. }
                if builtins::DB_FUNCTIONS.contains(&name.as_str()));
        });
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_with_inner_query_is_batchable() {
        let src = r#"
            fn f() {
                rows = executeQuery("SELECT * FROM a");
                for (r in rows) {
                    d = executeScalar("SELECT x FROM b WHERE k = ?", r.id);
                }
                return 0;
            }
        "#;
        let p = imp::parse_and_normalize(src).unwrap();
        assert!(batching_applicable(&p, "f"));
        assert!(prefetch_applicable(&p, "f"));
    }

    #[test]
    fn aggregation_only_loop_is_not_batchable() {
        // No query inside the loop: batching has nothing to batch; EqSQL
        // still extracts the aggregate (the Experiment 2 gap).
        let src = r#"
            fn f() {
                rows = executeQuery("SELECT * FROM a");
                s = 0;
                for (r in rows) { s = s + r.x; }
                return s;
            }
        "#;
        let p = imp::parse_and_normalize(src).unwrap();
        assert!(!batching_applicable(&p, "f"));
        assert!(prefetch_applicable(&p, "f"));
    }

    #[test]
    fn while_loop_with_query_is_batchable() {
        let src = r#"
            fn f(n) {
                i = 0;
                while (i < n) {
                    executeQuery("SELECT * FROM a WHERE id = ?", i);
                    i = i + 1;
                }
                return i;
            }
        "#;
        let p = imp::parse_and_normalize(src).unwrap();
        assert!(batching_applicable(&p, "f"));
    }

    #[test]
    fn no_queries_nothing_applies() {
        let p = imp::parse_and_normalize("fn f() { return 1 + 2; }").unwrap();
        assert!(!batching_applicable(&p, "f"));
        assert!(!prefetch_applicable(&p, "f"));
    }
}
