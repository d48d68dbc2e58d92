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

use imp::ast::{builtins, Expr, Stmt, StmtId, StmtKind};

use crate::dataflow::{self, set_bit, Analysis, BitSet, Direction, FnIndex};
use crate::diag::{Code, Diagnostic};
use crate::pass::{Pass, PassContext};

/// What a statement does to the taint of its target variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effect {
    /// `target = value`: tainted exactly when a source variable is.
    Strong,
    /// `target.add(args)`: becomes tainted when a source variable is.
    Weak,
    /// A cursor variable: rows come from the database, not from inputs.
    Clear,
}

/// The dataflow client: forward, a bitset over the function's variables,
/// parameters tainted at the boundary. Statement position `at` has effect
/// `effects[at]` on its target variable, if any, and reads the source row
/// `at` of `sources`.
#[derive(Debug, Clone)]
struct TaintAnalysis<'a> {
    ix: &'a FnIndex<'a>,
    effects: Vec<Option<(Effect, u32)>>,
    width: usize,
    sources: Vec<u64>,
}

/// Report every variable whose taint would taint the value of `e`.
fn taint_sources(e: &Expr, f: &mut impl FnMut(Symbol)) {
    match e {
        Expr::Lit(_) => {}
        Expr::Var(v) => f(*v),
        Expr::Unary(_, x) | Expr::Field(x, _) => taint_sources(x, f),
        Expr::Binary(_, l, r) => {
            taint_sources(l, f);
            taint_sources(r, f);
        }
        // The chosen value carries the taint; the condition does not flow
        // into the value (no implicit flows in this model).
        Expr::Ternary(_, a, b) => {
            taint_sources(a, f);
            taint_sources(b, f);
        }
        Expr::Call { name, args } => {
            // Database results are not sources in this first-order model;
            // pure library functions and user helpers propagate their
            // arguments' taint (conservative for helpers).
            if !builtins::DB_FUNCTIONS.contains(&name.as_str()) {
                for a in args {
                    taint_sources(a, f);
                }
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            taint_sources(recv, f);
            for a in args {
                taint_sources(a, f);
            }
        }
    }
}

/// May `e` evaluate to a value derived from a variable `tainted` accepts?
fn expr_tainted(e: &Expr, tainted: impl Fn(Symbol) -> bool) -> bool {
    let mut hit = false;
    taint_sources(e, &mut |v| hit |= tainted(v));
    hit
}

impl<'a> TaintAnalysis<'a> {
    fn new(ix: &'a FnIndex<'a>) -> TaintAnalysis<'a> {
        let width = BitSet::words_for(ix.var_count());
        let mut sources = vec![0; ix.stmt_count() * width];
        let mut effects = Vec::with_capacity(ix.stmt_count());
        for at in 0..ix.stmt_count() {
            let row = &mut sources[at * width..(at + 1) * width];
            let mut read =
                |e: &Expr| taint_sources(e, &mut |v| set_bit(row, ix.var(v).expect("indexed")));
            let effect = match &ix.stmt(at).kind {
                StmtKind::Assign { target, value } => {
                    read(value);
                    Some((Effect::Strong, *target))
                }
                StmtKind::ForEach { var, .. } => Some((Effect::Clear, *var)),
                StmtKind::Expr(Expr::MethodCall { recv, name, args })
                    if builtins::MUTATING_METHODS.contains(&name.as_str()) =>
                {
                    match recv.as_ref() {
                        Expr::Var(v) => {
                            args.iter().for_each(&mut read);
                            Some((Effect::Weak, *v))
                        }
                        _ => None,
                    }
                }
                _ => None,
            };
            effects.push(effect.map(|(e, v)| (e, ix.var(v).expect("indexed") as u32)));
        }
        TaintAnalysis {
            ix,
            effects,
            width,
            sources,
        }
    }
}

impl Analysis for TaintAnalysis<'_> {
    type Fact = BitSet;

    fn name(&self) -> &'static str {
        "taint"
    }

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> BitSet {
        BitSet::new(self.ix.var_count())
    }

    fn boundary(&self, ix: &FnIndex<'_>) -> BitSet {
        let mut tainted = self.bottom();
        for p in &ix.function().params {
            tainted.insert(ix.var(*p).expect("parameters are indexed"));
        }
        tainted
    }

    fn join_into(&self, into: &mut BitSet, other: &BitSet) -> bool {
        into.union_with(other)
    }

    fn apply_stmt(&self, at: usize, _s: &Stmt, fact: &mut BitSet) {
        let Some((effect, target)) = self.effects[at] else {
            return;
        };
        let target = target as usize;
        let reads = || fact.intersects(&self.sources[at * self.width..(at + 1) * self.width]);
        match effect {
            Effect::Strong => {
                if reads() {
                    fact.insert(target);
                } else {
                    fact.remove(target);
                }
            }
            Effect::Weak => {
                if reads() {
                    fact.insert(target);
                }
            }
            Effect::Clear => fact.remove(target),
        }
    }

    fn height(&self, ix: &FnIndex<'_>) -> usize {
        ix.var_count() + 1
    }
}

/// Per-statement taint facts of one function: block-level facts, replayed
/// on demand.
pub struct Taint<'a> {
    a: TaintAnalysis<'a>,
    sol: dataflow::Solution<BitSet>,
}

impl<'a> Taint<'a> {
    /// Solve taint over the function `ix` indexes, parameters tainted at
    /// entry.
    pub fn compute(ix: &'a FnIndex<'a>) -> Taint<'a> {
        let a = TaintAnalysis::new(ix);
        let sol = dataflow::solve(&a, ix);
        Taint { a, sol }
    }

    /// Variables that may be tainted just before `id`, in name order
    /// (empty when unknown). Replays `id`'s block.
    pub fn before(&self, id: StmtId) -> BTreeSet<Symbol> {
        self.sol
            .before(&self.a, self.a.ix, id)
            .map(|fact| fact.iter().map(|i| self.a.ix.var_symbol(i)).collect())
            .unwrap_or_default()
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
        // Only a SQL argument that reads a variable can be tainted: skip
        // the solve when every one is built from literals alone.
        let mut reads_var = false;
        cx.function.body.walk_exprs(&mut |e| {
            let Expr::Call { name, args } = e else {
                return;
            };
            if builtins::DB_FUNCTIONS.contains(&name.as_str()) {
                if let Some(sql_arg) = args.first() {
                    taint_sources(sql_arg, &mut |_| reads_var = true);
                }
            }
        });
        if !reads_var {
            return;
        }
        let ix = cx.facts.index();
        let taint = Taint::compute(ix);
        let mut found: Vec<(imp::token::Span, String, Option<String>)> = Vec::new();
        taint.sol.replay(&taint.a, ix, |_, s, tainted| {
            let is_tainted = |v| ix.var(v).is_some_and(|i| tainted.contains(i));
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
                    if expr_tainted(sql_arg, is_tainted) {
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
    use crate::defuse::DefUseCtx;
    use crate::pass::{FnFacts, PassManager};
    use imp::parser::parse_program;

    fn run(src: &str) -> Vec<Diagnostic> {
        let p = parse_program(src).unwrap();
        let du_ctx = DefUseCtx::of_program(&p);
        let mut pm = PassManager::new();
        pm.register(Box::new(TaintPass));
        let mut diags = Vec::new();
        for f in &p.functions {
            let ix = FnIndex::build(f);
            diags.extend(pm.run(&FnFacts::new(&ix, &du_ctx)));
        }
        diags
    }

    #[test]
    fn concatenated_parameter_fires() {
        let diags = run(r#"fn find(name) {
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
        let diags = run(r#"fn find(name) {
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
        let diags = run(r#"fn find(name) {
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
        let diags = run(r#"fn f() {
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
        let diags = run(r#"fn find(name) {
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
