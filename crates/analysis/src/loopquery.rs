//! Loop-query antipattern lints (`W008`, `W009`), clients of
//! [`crate::reaching`].
//!
//! A database *read* (`executeQuery`/`executeScalar`) issued inside a loop
//! runs once per iteration. Two classic antipatterns are decidable with
//! reaching definitions:
//!
//! * **Hoistable** (`W008`): none of the query's argument variables has a
//!   definition inside the loop, so every iteration runs the identical
//!   query — it can be hoisted before the loop and run once.
//! * **N+1** (`W009`): the query's loop-dependent arguments are keyed only
//!   by the cursor row of the enclosing cursor loop (e.g. `… WHERE owner =
//!   ?`, `e.id`). A join against the outer query fetches the same data in
//!   one round trip — this is exactly the shape the paper's extraction
//!   fuses when preconditions hold, so residual ones are worth flagging.
//!
//! Queries whose arguments depend on other loop-carried state (running
//! accumulators, values computed from previous rows) are neither, and stay
//! silent. Database reads hidden behind user helper functions are also out
//! of scope here — the purity pass (`W003`) already points at those calls.

use intern::Symbol;
use std::collections::{BTreeMap, BTreeSet};

use imp::ast::{builtins, Block, Expr, Stmt, StmtId, StmtKind};

use crate::diag::{Code, Diagnostic};
use crate::pass::{Pass, PassContext};
use crate::reaching::{DefSite, ReachingDefs};

/// The definition sites reaching each statement that makes a database
/// read.
type ReadSites = BTreeMap<StmtId, Vec<DefSite>>;

/// `"loopquery"`: per-iteration database reads that are loop-invariant
/// (hoistable) or row-keyed (N+1 join candidates).
pub struct LoopQueryPass;

/// All statement ids in a loop's subtree, including the header itself
/// (the header is the cursor variable's definition site).
fn subtree_ids(header: &Stmt) -> BTreeSet<imp::ast::StmtId> {
    let mut ids = BTreeSet::from([header.id]);
    if let StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } = &header.kind {
        body.walk(&mut |s, _| {
            ids.insert(s.id);
        });
    }
    ids
}

/// The database-read calls appearing in `s`'s own expressions (for a
/// nested loop header: its iterable, which re-runs per outer iteration),
/// as `(callee, variables feeding any argument)`.
fn db_read_calls(s: &Stmt) -> Vec<(Symbol, BTreeSet<Symbol>)> {
    let mut out = Vec::new();
    for e in s.kind.exprs() {
        e.walk(&mut |sub| {
            if let Expr::Call { name, args } = sub {
                if name.as_str() == builtins::EXECUTE_QUERY
                    || name.as_str() == builtins::EXECUTE_SCALAR
                {
                    let mut vars = BTreeSet::new();
                    for a in args {
                        vars.extend(a.vars());
                    }
                    out.push((*name, vars));
                }
            }
        });
    }
    out
}

impl LoopQueryPass {
    /// Analyze the body of one cursor/while loop; `cursor` is `Some` for
    /// `for` loops. Recurses into nested loops (a nested query is judged
    /// against its *innermost* enclosing loop).
    #[allow(clippy::too_many_arguments)]
    fn scan_loop(
        &self,
        cx: &mut PassContext<'_>,
        reach: &ReadSites,
        header: &Stmt,
        cursor: Option<Symbol>,
        body: &Block,
        loop_ids: &BTreeSet<imp::ast::StmtId>,
    ) {
        for s in &body.stmts {
            match &s.kind {
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    // Conditionals do not change the enclosing loop.
                    self.scan_loop(cx, reach, header, cursor, then_branch, loop_ids);
                    self.scan_loop(cx, reach, header, cursor, else_branch, loop_ids);
                    self.check_stmt(cx, reach, header, cursor, s, loop_ids);
                }
                StmtKind::ForEach {
                    var, body: inner, ..
                } => {
                    // The inner header's iterable re-runs per outer
                    // iteration: judge it against the *outer* loop…
                    self.check_stmt(cx, reach, header, cursor, s, loop_ids);
                    // …and its body against the inner loop.
                    let inner_ids = subtree_ids(s);
                    self.scan_loop(cx, reach, s, Some(*var), inner, &inner_ids);
                }
                StmtKind::While { body: inner, .. } => {
                    self.check_stmt(cx, reach, header, cursor, s, loop_ids);
                    let inner_ids = subtree_ids(s);
                    self.scan_loop(cx, reach, s, None, inner, &inner_ids);
                }
                _ => self.check_stmt(cx, reach, header, cursor, s, loop_ids),
            }
        }
    }

    /// Emit `W008`/`W009` for the database reads in `s`'s own expressions.
    fn check_stmt(
        &self,
        cx: &mut PassContext<'_>,
        reach: &ReadSites,
        header: &Stmt,
        cursor: Option<Symbol>,
        s: &Stmt,
        loop_ids: &BTreeSet<imp::ast::StmtId>,
    ) {
        for (name, arg_vars) in db_read_calls(s) {
            // Variables feeding the call whose value may have been defined
            // inside the loop (observed just before `s` runs).
            let mut loop_dependent: BTreeSet<Symbol> = BTreeSet::new();
            let sites = reach.get(&s.id).map(Vec::as_slice).unwrap_or_default();
            for v in arg_vars {
                let internal = sites
                    .iter()
                    .any(|(var, site)| *var == v && site.is_some_and(|d| loop_ids.contains(&d)));
                if internal {
                    loop_dependent.insert(v);
                }
            }
            if loop_dependent.is_empty() {
                cx.emit(
                    Diagnostic::new(
                        Code::HoistableQuery,
                        s.span,
                        format!("`{name}` inside this loop does not depend on the loop"),
                    )
                    .with_primary_label("identical query runs every iteration")
                    .with_label(header.span, "the enclosing loop")
                    .with_note("hoist the query above the loop and reuse its result"),
                );
            } else if let Some(cv) = cursor {
                if loop_dependent.iter().all(|v| *v == cv) {
                    cx.emit(
                        Diagnostic::new(
                            Code::NPlusOneQuery,
                            s.span,
                            format!(
                                "N+1 query: `{name}` runs once per `{cv}` row and is keyed \
                                 only by that row"
                            ),
                        )
                        .with_var(cv.to_string())
                        .with_primary_label("per-row query inside the cursor loop")
                        .with_label(header.span, "one query per iteration of this loop")
                        .with_note(
                            "a join against the outer query fetches the same data in one \
                             round trip (extraction fuses this shape when preconditions hold)",
                        ),
                    );
                }
            }
        }
    }
}

impl Pass for LoopQueryPass {
    fn name(&self) -> &'static str {
        "loopquery"
    }

    fn run(&self, cx: &mut PassContext<'_>) {
        // Both findings name a database read inside a loop body: without
        // one there is nothing to solve for.
        let mut reads_in_loop = false;
        cx.function.body.walk(&mut |s, in_loop| {
            reads_in_loop |= in_loop && !db_read_calls(s).is_empty();
        });
        if !reads_in_loop {
            return;
        }
        // One replay of every block collects what the checks below read.
        let mut reach = ReadSites::new();
        ReachingDefs::compute(cx.facts.index(), cx.facts.du_ctx()).replay(|s, sites| {
            if !db_read_calls(s).is_empty() {
                reach.insert(s.id, sites.collect());
            }
        });
        // Find top-level loops; statements outside any loop cannot fire.
        let body = &cx.function.body;
        let mut stack: Vec<&Block> = vec![body];
        while let Some(b) = stack.pop() {
            for s in &b.stmts {
                match &s.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        stack.push(then_branch);
                        stack.push(else_branch);
                    }
                    StmtKind::ForEach {
                        var, body: inner, ..
                    } => {
                        let ids = subtree_ids(s);
                        self.scan_loop(cx, &reach, s, Some(*var), inner, &ids);
                    }
                    StmtKind::While { body: inner, .. } => {
                        let ids = subtree_ids(s);
                        self.scan_loop(cx, &reach, s, None, inner, &ids);
                    }
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::FnIndex;
    use crate::defuse::DefUseCtx;
    use crate::pass::{FnFacts, PassManager};

    fn run(src: &str) -> Vec<Diagnostic> {
        let p = imp::parser::parse_program(src).unwrap();
        let du_ctx = DefUseCtx::of_program(&p);
        let mut pm = PassManager::new();
        pm.register(Box::new(LoopQueryPass));
        let mut diags = Vec::new();
        for f in &p.functions {
            let ix = FnIndex::build(f);
            diags.extend(pm.run(&FnFacts::new(&ix, &du_ctx)));
        }
        diags
    }

    #[test]
    fn invariant_query_in_loop_is_hoistable() {
        let diags = run(r#"fn f() {
    rows = executeQuery("SELECT * FROM emp");
    s = 0;
    for (e in rows) {
        floor = executeScalar("SELECT MIN(salary) FROM emp");
        if (e.salary > floor) { s = s + 1; }
    }
    return s;
}"#);
        let hit = diags
            .iter()
            .find(|d| d.code == Code::HoistableQuery)
            .expect("W008");
        assert_eq!(hit.pass, "loopquery");
        assert_eq!(hit.secondary.len(), 1, "loop anchor label");
    }

    #[test]
    fn row_keyed_query_is_n_plus_one() {
        let diags = run(r#"fn f() {
    rows = executeQuery("SELECT * FROM emp");
    s = 0;
    for (e in rows) {
        b = executeScalar("SELECT SUM(budget) FROM project WHERE owner = ?", e.id);
        s = s + b;
    }
    return s;
}"#);
        let hit = diags
            .iter()
            .find(|d| d.code == Code::NPlusOneQuery)
            .expect("W009");
        assert_eq!(hit.var.as_deref(), Some("e"));
        assert!(
            !diags.iter().any(|d| d.code == Code::HoistableQuery),
            "row-keyed is not hoistable: {diags:?}"
        );
    }

    #[test]
    fn accumulator_keyed_query_is_neither() {
        let diags = run(r#"fn f() {
    rows = executeQuery("SELECT * FROM emp");
    s = 0;
    for (e in rows) {
        b = executeScalar("SELECT COUNT(*) FROM emp WHERE salary > ?", s);
        s = s + b;
    }
    return s;
}"#);
        assert!(
            !diags
                .iter()
                .any(|d| matches!(d.code, Code::HoistableQuery | Code::NPlusOneQuery)),
            "loop-carried key is neither hoistable nor row-keyed: {diags:?}"
        );
    }

    #[test]
    fn query_outside_loops_is_silent() {
        let diags = run(r#"fn f(x) {
    n = executeScalar("SELECT COUNT(*) FROM emp WHERE salary > ?", x);
    return n;
}"#);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn nested_invariant_cursor_query_judged_against_outer_loop() {
        let diags = run(r#"fn f() {
    rows = executeQuery("SELECT * FROM t");
    s = 0;
    for (r in rows) {
        for (w in executeQuery("SELECT * FROM u")) {
            if (w.k == r.id) { s = s + w.v; }
        }
    }
    return s;
}"#);
        assert!(
            diags.iter().any(|d| d.code == Code::HoistableQuery),
            "inner iterable re-runs per outer row and is invariant: {diags:?}"
        );
    }

    #[test]
    fn parameter_keyed_query_in_loop_is_hoistable() {
        let diags = run(r#"fn f(dept) {
    rows = executeQuery("SELECT * FROM emp");
    s = 0;
    for (e in rows) {
        n = executeScalar("SELECT COUNT(*) FROM emp WHERE dept = ?", dept);
        s = s + n;
    }
    return s;
}"#);
        assert!(
            diags.iter().any(|d| d.code == Code::HoistableQuery),
            "parameter is defined outside the loop: {diags:?}"
        );
    }
}
