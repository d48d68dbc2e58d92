//! Def/use/external-access sets per statement (paper Sec. 4.2).
//!
//! Conservative conventions from the paper:
//!
//! * "we conservatively treat the entire database/file as a single location"
//!   — every `executeQuery`/`executeScalar` is an **external read**, every
//!   `executeUpdate` an **external write**, and `print` an external write
//!   (to the console);
//! * "reading/writing an element in a collection is treated as accessing
//!   the entire collection" — `c.add(x)` both reads and writes `c`;
//! * unknown free functions are treated as externally reading and writing
//!   (user-defined functions are inlined *before* dependence analysis, so
//!   in practice only genuinely-unknown calls pay this penalty).

use intern::Symbol;
use std::collections::{BTreeMap, BTreeSet};

use imp::ast::{builtins, Expr, Program, Stmt, StmtKind};

use crate::effects::{EffectSet, EffectSummary};

/// Extra context for def/use computation: interprocedural effect summaries
/// for user-defined functions (computed by
/// [`crate::effects::effect_summaries`]). A call to a summarized function
/// contributes exactly its summarized effects — a db-*reading* helper is an
/// external read but **not** an external write, so precondition P3 no
/// longer rejects loops that merely consult the database through a helper.
/// The empty default treats every user call as unknown (read+write), which
/// is the legacy conservative behavior.
#[derive(Debug, Clone, Default)]
pub struct DefUseCtx {
    /// Effect summary per user-defined function.
    pub summaries: BTreeMap<Symbol, EffectSummary>,
}

impl DefUseCtx {
    /// Build the context for a program by running the interprocedural
    /// effect analysis.
    pub fn of_program(p: &Program) -> DefUseCtx {
        DefUseCtx {
            summaries: crate::effects::effect_summaries(p),
        }
    }
}

/// Names of pure library functions that read nothing external.
/// (Shared single-source table: re-exported from [`imp::ast::builtins`].)
pub use imp::ast::builtins::{MUTATING_METHODS, PURE_FUNCTIONS, READING_METHODS};

/// The def/use summary of one statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DefUse {
    /// Variables written.
    pub defs: BTreeSet<Symbol>,
    /// Variables read.
    pub uses: BTreeSet<Symbol>,
    /// Reads an external location (database, console, unknown call).
    pub ext_read: bool,
    /// Writes an external location.
    pub ext_write: bool,
}

impl DefUse {
    /// Def/use summary of a statement, *not* descending into nested blocks
    /// (compound statements summarize only their own condition/iterable —
    /// use [`DefUse::of_stmt_recursive`] for whole-subtree summaries).
    pub fn of_stmt(s: &Stmt) -> DefUse {
        DefUse::of_stmt_in(s, &DefUseCtx::default())
    }

    /// [`DefUse::of_stmt`] with purity context: the set-valued view of
    /// [`for_each_access`].
    pub fn of_stmt_in(s: &Stmt, ctx: &DefUseCtx) -> DefUse {
        let mut du = DefUse::default();
        for_each_access(s, ctx, &mut |a| match a {
            Access::Def(v) => {
                du.defs.insert(v);
            }
            Access::Use(v) => {
                du.uses.insert(v);
            }
            Access::ExtRead => du.ext_read = true,
            Access::ExtWrite => du.ext_write = true,
        });
        du
    }

    /// Def/use summary of a statement including everything nested inside it.
    pub fn of_stmt_recursive(s: &Stmt) -> DefUse {
        DefUse::of_stmt_recursive_in(s, &DefUseCtx::default())
    }

    /// [`DefUse::of_stmt_recursive`] with purity context.
    pub fn of_stmt_recursive_in(s: &Stmt, ctx: &DefUseCtx) -> DefUse {
        let mut du = DefUse::of_stmt_in(s, ctx);
        match &s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                for b in [then_branch, else_branch] {
                    for inner in &b.stmts {
                        du.merge(&DefUse::of_stmt_recursive_in(inner, ctx));
                    }
                }
            }
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                for inner in &body.stmts {
                    du.merge(&DefUse::of_stmt_recursive_in(inner, ctx));
                }
            }
            _ => {}
        }
        du
    }

    /// Union another summary into this one.
    pub fn merge(&mut self, other: &DefUse) {
        self.defs.extend(other.defs.iter().cloned());
        self.uses.extend(other.uses.iter().cloned());
        self.ext_read |= other.ext_read;
        self.ext_write |= other.ext_write;
    }
}

/// One thing a statement does, as reported by [`for_each_access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The statement may write this variable.
    Def(Symbol),
    /// The statement reads this variable.
    Use(Symbol),
    /// The statement reads an external location.
    ExtRead,
    /// The statement writes an external location.
    ExtWrite,
}

/// Report every access of `s` to `f`, not descending into nested blocks
/// (the same scope as [`DefUse::of_stmt_in`]). A variable or effect may be
/// reported more than once. Nothing is allocated, so the dataflow clients
/// can tabulate a whole function's gen/kill sets from it.
pub fn for_each_access(s: &Stmt, ctx: &DefUseCtx, f: &mut impl FnMut(Access)) {
    match &s.kind {
        StmtKind::Assign { target, .. } | StmtKind::ForEach { var: target, .. } => {
            f(Access::Def(*target))
        }
        StmtKind::Print(_) => f(Access::ExtWrite),
        _ => {}
    }
    for e in s.kind.exprs() {
        expr_accesses(e, ctx, f);
    }
}

/// Report the accesses of an expression in value position.
fn expr_accesses(e: &Expr, ctx: &DefUseCtx, f: &mut impl FnMut(Access)) {
    match e {
        Expr::Lit(_) => {}
        Expr::Var(v) => f(Access::Use(*v)),
        Expr::Unary(_, x) | Expr::Field(x, _) => expr_accesses(x, ctx, f),
        Expr::Binary(_, l, r) => {
            expr_accesses(l, ctx, f);
            expr_accesses(r, ctx, f);
        }
        Expr::Ternary(c, a, b) => {
            expr_accesses(c, ctx, f);
            expr_accesses(a, ctx, f);
            expr_accesses(b, ctx, f);
        }
        Expr::Call { name, args } => {
            for a in args {
                expr_accesses(a, ctx, f);
            }
            match builtins::function_effect(name.as_str()) {
                Some(builtins::FnEffect::Pure) => {}
                Some(builtins::FnEffect::DbRead) => f(Access::ExtRead),
                Some(builtins::FnEffect::DbWrite) => {
                    f(Access::ExtRead);
                    f(Access::ExtWrite);
                }
                None => match ctx.summaries.get(name) {
                    Some(s) => {
                        // Summarized user function: contribute exactly its
                        // effects instead of assuming read+write.
                        if s.effects.contains(EffectSet::DB_READ) {
                            f(Access::ExtRead);
                        }
                        if s.effects.contains(EffectSet::DB_WRITE)
                            || s.effects.contains(EffectSet::UNKNOWN)
                        {
                            f(Access::ExtRead);
                            f(Access::ExtWrite);
                        }
                        if s.effects.contains(EffectSet::OUTPUT) {
                            f(Access::ExtWrite);
                        }
                        // A mutated parameter is a def (and a read) of the
                        // argument variable, like `v.add(x)` on the receiver.
                        for (i, a) in args.iter().enumerate() {
                            if s.mutates_param(i) {
                                if let Expr::Var(v) = a {
                                    f(Access::Def(*v));
                                }
                            }
                        }
                    }
                    None => {
                        // Unknown call: conservatively external read+write.
                        f(Access::ExtRead);
                        f(Access::ExtWrite);
                    }
                },
            }
        }
        Expr::MethodCall { recv, name, args } => {
            expr_accesses(recv, ctx, f);
            for a in args {
                expr_accesses(a, ctx, f);
            }
            if MUTATING_METHODS.contains(&name.as_str()) {
                // Mutation in value position: also a def of the receiver
                // variable when the receiver is a variable.
                if let Expr::Var(v) = recv.as_ref() {
                    f(Access::Def(*v));
                }
            } else if !READING_METHODS.contains(&name.as_str()) {
                // Unknown method: conservative external access.
                f(Access::ExtRead);
                f(Access::ExtWrite);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    fn first_stmt_du(src: &str) -> DefUse {
        let p = parse_program(src).unwrap();
        DefUse::of_stmt(&p.functions[0].body.stmts[0])
    }

    #[test]
    fn assign_defs_target_uses_rhs() {
        let du = first_stmt_du("fn f() { x = a + b; }");
        assert!(du.defs.contains(&Symbol::intern("x")));
        assert!(du.uses.contains(&Symbol::intern("a")) && du.uses.contains(&Symbol::intern("b")));
        assert!(!du.ext_read && !du.ext_write);
    }

    #[test]
    fn query_is_external_read() {
        let du = first_stmt_du(r#"fn f() { rs = executeQuery("SELECT * FROM t"); }"#);
        assert!(du.ext_read);
        assert!(!du.ext_write);
        assert!(du.defs.contains(&Symbol::intern("rs")));
    }

    #[test]
    fn update_is_external_write() {
        let du = first_stmt_du(r#"fn f() { executeUpdate("DELETE FROM t"); }"#);
        assert!(du.ext_write);
    }

    #[test]
    fn collection_add_reads_and_writes_receiver() {
        let du = first_stmt_du("fn f() { names.add(u.name); }");
        assert!(
            du.defs.contains(&Symbol::intern("names")),
            "collection is written"
        );
        assert!(
            du.uses.contains(&Symbol::intern("names")),
            "whole collection is also read"
        );
        assert!(du.uses.contains(&Symbol::intern("u")));
        assert!(!du.ext_read && !du.ext_write);
    }

    #[test]
    fn print_is_external_write() {
        let du = first_stmt_du("fn f() { print(x); }");
        assert!(du.ext_write);
        assert!(du.uses.contains(&Symbol::intern("x")));
    }

    #[test]
    fn pure_functions_are_not_external() {
        let du = first_stmt_du("fn f() { m = max(a, b); }");
        assert!(!du.ext_read && !du.ext_write);
    }

    #[test]
    fn unknown_call_is_conservative() {
        let du = first_stmt_du("fn f() { x = mystery(a); }");
        assert!(du.ext_read && du.ext_write);
    }

    #[test]
    fn foreach_defs_cursor_var() {
        let du = first_stmt_du("fn f() { for (t in rows) { x = t.a; } }");
        assert!(du.defs.contains(&Symbol::intern("t")));
        assert!(du.uses.contains(&Symbol::intern("rows")));
        // Non-recursive: body not included.
        assert!(!du.defs.contains(&Symbol::intern("x")));
    }

    #[test]
    fn recursive_summary_includes_body() {
        let p = parse_program("fn f() { for (t in rows) { s = s + t.a; print(s); } }").unwrap();
        let du = DefUse::of_stmt_recursive(&p.functions[0].body.stmts[0]);
        assert!(du.defs.contains(&Symbol::intern("s")));
        assert!(du.ext_write, "print inside body");
    }

    #[test]
    fn summarized_db_read_helper_is_read_only() {
        let p = parse_program(
            r#"fn rate() { return executeScalar("SELECT r FROM c"); }
               fn f() { x = rate() * 2; }"#,
        )
        .unwrap();
        let ctx = DefUseCtx::of_program(&p);
        let du = DefUse::of_stmt_in(&p.functions[1].body.stmts[0], &ctx);
        assert!(du.ext_read, "helper reads the database");
        assert!(!du.ext_write, "…but does not write anything external");
    }

    #[test]
    fn summarized_mutating_helper_defs_its_argument() {
        let p = parse_program(
            "fn addTo(c, x) { c.add(x); } \
             fn f() { addTo(names, 1); }",
        )
        .unwrap();
        let ctx = DefUseCtx::of_program(&p);
        let du = DefUse::of_stmt_in(&p.functions[1].body.stmts[0], &ctx);
        assert!(!du.ext_read && !du.ext_write);
        assert!(
            du.defs.contains(&Symbol::intern("names")),
            "parameter escape surfaces as a def of the argument"
        );
    }

    #[test]
    fn reading_methods_are_pure() {
        let du = first_stmt_du("fn f() { n = names.size(); }");
        assert!(!du.ext_read && !du.ext_write);
        assert!(du.uses.contains(&Symbol::intern("names")));
        assert!(!du.defs.contains(&Symbol::intern("names")));
    }
}
