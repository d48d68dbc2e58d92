//! Program rewriting (paper Sec. 5.2): replace an extracted cursor loop
//! with `v = executeQuery(Q)` / `v = executeScalar(Q)` statements, then
//! eliminate the code rendered dead.

use std::collections::BTreeSet;

use intern::Symbol;

use analysis::deadcode::eliminate_dead_code;
use imp::ast::{Block, Expr, Function, Stmt, StmtId, StmtKind};

/// One planned loop replacement.
#[derive(Debug, Clone)]
pub struct RewritePlan {
    /// The `ForEach` statement to replace.
    pub loop_stmt: StmtId,
    /// Replacement assignments, in order.
    pub assigns: Vec<(Symbol, Expr)>,
    /// Replacement expression statements (set-oriented `executeUpdate`
    /// calls from foreach-dml extraction), emitted after the assignments.
    pub dml: Vec<Expr>,
}

/// Check that every variable in `inputs` is safe to reference at the loop
/// site: it must be a function parameter or otherwise never (re)assigned
/// before the loop, because extracted expressions are phrased over
/// *function-entry* values.
pub fn inputs_safe(f: &Function, loop_stmt: StmtId, inputs: &[Symbol]) -> bool {
    let mut assigned = BTreeSet::new();
    let reached = scan_before(&f.body, loop_stmt, &mut assigned);
    debug_assert!(reached, "loop statement must be inside the function");
    inputs.iter().all(|v| !assigned.contains(v))
}

/// Collect variables assigned before `target` in program order; returns
/// true when `target` was found.
fn scan_before(b: &Block, target: StmtId, assigned: &mut BTreeSet<Symbol>) -> bool {
    for s in &b.stmts {
        if s.id == target {
            return true;
        }
        match &s.kind {
            StmtKind::Assign { target: t, .. } => {
                assigned.insert(*t);
            }
            StmtKind::Expr(Expr::MethodCall { recv, name, .. })
                if analysis::defuse::MUTATING_METHODS.contains(&name.as_str()) =>
            {
                if let Expr::Var(v) = recv.as_ref() {
                    assigned.insert(*v);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                if scan_before(then_branch, target, assigned) {
                    return true;
                }
                if scan_before(else_branch, target, assigned) {
                    return true;
                }
            }
            StmtKind::ForEach { var, body, .. } => {
                if scan_before(body, target, assigned) {
                    return true;
                }
                assigned.insert(*var);
                // Conservatively include everything the loop assigns.
                for inner in analysis_defs(body) {
                    assigned.insert(inner);
                }
            }
            StmtKind::While { body, .. } => {
                if scan_before(body, target, assigned) {
                    return true;
                }
                for inner in analysis_defs(body) {
                    assigned.insert(inner);
                }
            }
            _ => {}
        }
    }
    false
}

fn analysis_defs(b: &Block) -> Vec<Symbol> {
    let mut out = Vec::new();
    for s in &b.stmts {
        let du = analysis::defuse::DefUse::of_stmt_recursive(s);
        out.extend(du.defs);
    }
    out
}

/// Apply rewrite plans to a function, then run dead-code elimination.
/// Returns the number of loops replaced.
pub fn apply_plans(f: &mut Function, plans: &[RewritePlan]) -> usize {
    let mut replaced = 0;
    let mut next_id = u32::MAX;
    for plan in plans {
        if replace_in_block(&mut f.body, plan, &mut next_id) {
            replaced += 1;
        }
    }
    if replaced > 0 {
        eliminate_dead_code(f);
    }
    replaced
}

fn replace_in_block(b: &mut Block, plan: &RewritePlan, next_id: &mut u32) -> bool {
    for i in 0..b.stmts.len() {
        if b.stmts[i].id == plan.loop_stmt {
            let span = b.stmts[i].span;
            // Placeholder ids counting down from u32::MAX, renumbered by
            // the caller. They must be *distinct* (across plans too): the
            // dead-code pass keys per-statement liveness facts by id
            // before the renumber happens.
            let mut fresh = || {
                let id = StmtId(*next_id);
                *next_id -= 1;
                id
            };
            let mut new: Vec<Stmt> = plan
                .assigns
                .iter()
                .map(|(v, e)| Stmt {
                    id: fresh(),
                    kind: StmtKind::Assign {
                        target: *v,
                        value: e.clone(),
                    },
                    span,
                })
                .collect();
            new.extend(plan.dml.iter().map(|e| Stmt {
                id: fresh(),
                kind: StmtKind::Expr(e.clone()),
                span,
            }));
            b.stmts.splice(i..=i, new);
            return true;
        }
        let found = match &mut b.stmts[i].kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                replace_in_block(then_branch, plan, next_id)
                    || replace_in_block(else_branch, plan, next_id)
            }
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                replace_in_block(body, plan, next_id)
            }
            _ => false,
        };
        if found {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;
    use imp::pretty::pretty_print;

    #[test]
    fn inputs_safe_detects_reassignment() {
        let p = parse_program("fn f(x) { x = x + 1; for (t in q) { s = s + t.a; } return s; }")
            .unwrap();
        let f = &p.functions[0];
        let loop_id = f.body.stmts[1].id;
        assert!(!inputs_safe(f, loop_id, &[Symbol::intern("x")]));
        assert!(inputs_safe(f, loop_id, &[Symbol::intern("q")]));
    }

    #[test]
    fn inputs_safe_ignores_later_assignments() {
        let p =
            parse_program("fn f(x) { for (t in q) { s = s + t.a; } x = 0; return s; }").unwrap();
        let f = &p.functions[0];
        let loop_id = f.body.stmts[0].id;
        assert!(inputs_safe(f, loop_id, &[Symbol::intern("x")]));
    }

    #[test]
    fn replace_loop_with_assignment() {
        let mut p = parse_program(
            r#"fn f() {
                q = executeQuery("SELECT * FROM t");
                s = 0;
                for (r in q) { s = s + r.x; }
                return s;
            }"#,
        )
        .unwrap();
        let loop_id = p.functions[0].body.stmts[2].id;
        let plan = RewritePlan {
            loop_stmt: loop_id,
            assigns: vec![(
                Symbol::intern("s"),
                Expr::call(
                    "executeScalar",
                    vec![Expr::str("SELECT COALESCE(SUM(x), 0) AS agg0 FROM t")],
                ),
            )],
            dml: Vec::new(),
        };
        let mut f = p.functions.remove(0);
        assert_eq!(apply_plans(&mut f, &[plan]), 1);
        p.functions.push(f);
        p.renumber();
        let out = pretty_print(&p);
        assert!(!out.contains("for ("), "{out}");
        assert!(out.contains("executeScalar"), "{out}");
        // The now-unused original query fetch must be dead-code-eliminated.
        assert!(!out.contains("SELECT * FROM t"), "{out}");
    }
}
