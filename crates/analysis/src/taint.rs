//! SQL-injection taint analysis (`E009`), a forward client of
//! [`crate::dataflow`].
//!
//! The lattice is the powerset of variables that may hold a string (or
//! value) derived from *program inputs* — function parameters are the
//! taint sources, matching how these snippets embed in a host application
//! (the parameter is the request field / user input). Taint propagates
//! through assignments, `+` concatenation, ternaries, field reads, pure
//! library calls, and receiver-mutating methods (`parts.add(name)` taints
//! `parts`); database results (`executeQuery`, cursor rows) are *not*
//! sources — this is a first-order model.
//!
//! The sinks are the SQL-string arguments (argument 0) of the database
//! builtins. A constant query string with tainted *parameters*
//! (`executeQuery("… WHERE name = ?", name)`) is the sanitized,
//! parameterized form and does not fire; a query string *concatenated*
//! from a parameter does.

use intern::Symbol;
use std::collections::BTreeSet;

use imp::ast::{builtins, Expr, Function, Stmt, StmtKind};

use crate::dataflow::{self, Analysis, Direction};
use crate::diag::{Code, Diagnostic};
use crate::pass::{Pass, PassContext};

/// The dataflow client: forward, powerset-of-variables lattice, parameters
/// tainted at the boundary.
struct TaintAnalysis;

/// May `e` evaluate to a value derived from a tainted variable?
fn expr_tainted(e: &Expr, tainted: &BTreeSet<Symbol>) -> bool {
    match e {
        Expr::Lit(_) => false,
        Expr::Var(v) => tainted.contains(v),
        Expr::Unary(_, x) => expr_tainted(x, tainted),
        Expr::Binary(_, l, r) => expr_tainted(l, tainted) || expr_tainted(r, tainted),
        // The chosen value carries the taint; the condition does not flow
        // into the value (no implicit flows in this model).
        Expr::Ternary(_, a, b) => expr_tainted(a, tainted) || expr_tainted(b, tainted),
        Expr::Field(base, _) => expr_tainted(base, tainted),
        Expr::Call { name, args } => {
            if builtins::DB_FUNCTIONS.contains(&name.as_str()) {
                // Database results are not sources in this first-order model.
                false
            } else {
                // Pure library functions and user helpers propagate their
                // arguments' taint (conservative for helpers).
                args.iter().any(|a| expr_tainted(a, tainted))
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            expr_tainted(recv, tainted) || args.iter().any(|a| expr_tainted(a, tainted))
        }
    }
}

impl Analysis for TaintAnalysis {
    type Fact = BTreeSet<Symbol>;

    fn name(&self) -> &'static str {
        "taint"
    }

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn boundary(&self, f: &Function) -> Self::Fact {
        f.params.iter().copied().collect()
    }

    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        a.union(b).copied().collect()
    }

    fn transfer_stmt(&self, s: &Stmt, fact: &Self::Fact) -> Self::Fact {
        let mut out = fact.clone();
        match &s.kind {
            StmtKind::Assign { target, value } => {
                if expr_tainted(value, fact) {
                    out.insert(*target);
                } else {
                    out.remove(target);
                }
            }
            StmtKind::ForEach { var, .. } => {
                // Cursor rows come from the database, not from inputs.
                out.remove(var);
            }
            StmtKind::Expr(Expr::MethodCall { recv, name, args })
                if builtins::MUTATING_METHODS.contains(&name.as_str()) =>
            {
                if let Expr::Var(v) = recv.as_ref() {
                    if args.iter().any(|a| expr_tainted(a, fact)) {
                        out.insert(*v);
                    }
                }
            }
            _ => {}
        }
        out
    }

    fn height(&self, f: &Function) -> usize {
        dataflow::variable_universe(f).len() + 1
    }
}

/// `"taint"`: SQL strings built from program inputs reaching a database
/// call ([`Code::SqlInjectionTaint`]).
pub struct TaintPass;

impl Pass for TaintPass {
    fn name(&self) -> &'static str {
        "taint"
    }

    fn run(&self, cx: &mut PassContext<'_>) {
        let sol = dataflow::solve(&TaintAnalysis, cx.function);
        let mut found: Vec<(imp::token::Span, String, Option<String>)> = Vec::new();
        cx.function.body.walk(&mut |s, _| {
            let Some(tainted) = sol.before.get(&s.id) else {
                return;
            };
            for e in s.kind.exprs() {
                e.walk(&mut |sub| {
                    let Expr::Call { name, args } = sub else {
                        return;
                    };
                    if !builtins::DB_FUNCTIONS.contains(&name.as_str()) {
                        return;
                    }
                    let Some(sql_arg) = args.first() else {
                        return;
                    };
                    if expr_tainted(sql_arg, tainted) {
                        let var = match sql_arg {
                            Expr::Var(v) => Some(v.to_string()),
                            _ => None,
                        };
                        found.push((s.span, name.to_string(), var));
                    }
                });
            }
        });
        for (span, callee, var) in found {
            let mut d = Diagnostic::new(
                Code::SqlInjectionTaint,
                span,
                format!("SQL string passed to `{callee}` is built from program input"),
            )
            .with_primary_label("query text may embed unsanitized input")
            .with_note(
                "concatenating inputs into SQL enables injection; use a constant query \
                 with `?` parameters instead",
            );
            if let Some(v) = var {
                d = d.with_var(v);
            }
            cx.emit(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::ast::Program;
    use imp::parser::parse_program;

    fn run(src: &str) -> (Program, Vec<Diagnostic>) {
        let p = parse_program(src).unwrap();
        let mut pm = crate::pass::PassManager::new();
        pm.register(Box::new(TaintPass));
        let diags = pm.run_function(&p, &p.functions[0]);
        (p.clone(), diags)
    }

    #[test]
    fn concatenated_parameter_fires() {
        let (_, diags) = run(r#"fn find(name) {
    q = "SELECT * FROM emp WHERE name = '" + name + "'";
    rows = executeQuery(q);
    return rows;
}"#);
        let hit = diags
            .iter()
            .find(|d| d.code == Code::SqlInjectionTaint)
            .expect("E009");
        assert_eq!(hit.var.as_deref(), Some("q"));
        assert!(hit.primary.span.end > hit.primary.span.start);
    }

    #[test]
    fn constant_query_with_parameters_does_not_fire() {
        let (_, diags) = run(r#"fn find(name) {
    rows = executeQuery("SELECT * FROM emp WHERE name = ?", name);
    return rows;
}"#);
        assert!(
            !diags.iter().any(|d| d.code == Code::SqlInjectionTaint),
            "parameterized query is sanitized: {diags:?}"
        );
    }

    #[test]
    fn overwriting_with_a_constant_sanitizes() {
        let (_, diags) = run(r#"fn find(name) {
    q = "SELECT * FROM emp WHERE name = '" + name + "'";
    q = "SELECT * FROM emp";
    rows = executeQuery(q);
    return rows;
}"#);
        assert!(
            !diags.iter().any(|d| d.code == Code::SqlInjectionTaint),
            "strong update clears taint: {diags:?}"
        );
    }

    #[test]
    fn cursor_rows_are_not_sources() {
        let (_, diags) = run(r#"fn f() {
    rows = executeQuery("SELECT * FROM emp");
    for (e in rows) {
        q = "SELECT * FROM emp WHERE id = " + e.id;
        inner = executeQuery(q);
    }
    return 0;
}"#);
        assert!(
            !diags.iter().any(|d| d.code == Code::SqlInjectionTaint),
            "database rows are not program input: {diags:?}"
        );
    }

    #[test]
    fn taint_through_collected_parts_fires() {
        let (_, diags) = run(r#"fn find(name) {
    parts = list();
    parts.add(name);
    q = concat("SELECT * FROM emp WHERE name = ", parts.get(0));
    rows = executeQuery(q);
    return rows;
}"#);
        assert!(
            diags.iter().any(|d| d.code == Code::SqlInjectionTaint),
            "{diags:?}"
        );
    }
}
