//! Purity of user-defined functions.
//!
//! The D-IR inlines user functions (paper Appendix D.6), so a call like
//! `clampPositive(e.salary)` inside a loop body is algebraic. The dependence
//! analysis, however, runs over the *source* statements — it needs to know
//! which calls are side-effect free, or every helper call would look like an
//! external write and fail precondition P3.
//!
//! Purity is a *view* of the effect summaries ([`crate::effects`]): a
//! function is pure when `effect_summaries(..)` marks it
//! [`is_externally_pure`](crate::effects::EffectSummary::is_externally_pure)
//! — no database access, output or unknown calls. The joint callgraph
//! fixpoint is strictly more precise than the legacy boolean increasing
//! fixpoint: effect-free (mutually) recursive functions are pure, where the
//! old analysis conservatively rejected all recursion. The legacy algorithm
//! is kept verbatim in [`reference`] so tests can assert the summaries
//! refine it everywhere the old one said "pure".

/// The pre-effects boolean purity analysis, kept *only* as a test oracle
/// (compiled under `cfg(test)` or the `test-oracles` feature, so release
/// builds carry a single builtin-purity table): every function this one
/// calls pure must have an externally pure effect summary (the summaries
/// may additionally admit effect-free recursion).
#[cfg(any(test, feature = "test-oracles"))]
pub mod reference {
    use std::collections::BTreeSet;

    use imp::ast::{builtins, Block, Expr, Program, StmtKind};
    use intern::Symbol;

    /// Legacy increasing-fixpoint purity (recursion conservatively impure).
    pub fn pure_user_functions(p: &Program) -> BTreeSet<Symbol> {
        let mut pure: BTreeSet<Symbol> = BTreeSet::new();
        loop {
            let mut changed = false;
            for f in &p.functions {
                if pure.contains(&f.name) {
                    continue;
                }
                if block_is_pure(&f.body, &pure) {
                    pure.insert(f.name);
                    changed = true;
                }
            }
            if !changed {
                return pure;
            }
        }
    }

    fn block_is_pure(b: &Block, pure: &BTreeSet<Symbol>) -> bool {
        b.stmts.iter().all(|s| match &s.kind {
            StmtKind::Assign { value, .. } => expr_is_pure(value, pure),
            StmtKind::Expr(e) => expr_is_pure(e, pure),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                expr_is_pure(cond, pure)
                    && block_is_pure(then_branch, pure)
                    && block_is_pure(else_branch, pure)
            }
            StmtKind::ForEach { iterable, body, .. } => {
                expr_is_pure(iterable, pure) && block_is_pure(body, pure)
            }
            StmtKind::While { cond, body } => expr_is_pure(cond, pure) && block_is_pure(body, pure),
            StmtKind::Return(v) => v.as_ref().is_none_or(|e| expr_is_pure(e, pure)),
            StmtKind::Break | StmtKind::Continue => true,
            StmtKind::Print(_) => false,
        })
    }

    fn expr_is_pure(e: &Expr, pure: &BTreeSet<Symbol>) -> bool {
        let mut ok = true;
        e.walk(&mut |x| match x {
            Expr::Call { name, .. } => {
                let n = name.as_str();
                if builtins::DB_FUNCTIONS.contains(&n)
                    || (!builtins::PURE_FUNCTIONS.contains(&n)
                        && !pure.contains(&Symbol::intern(n)))
                {
                    ok = false;
                }
            }
            Expr::MethodCall { name, .. } => {
                let n = name.as_str();
                if !builtins::READING_METHODS.contains(&n)
                    && !builtins::MUTATING_METHODS.contains(&n)
                {
                    ok = false;
                }
            }
            _ => {}
        });
        ok
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use crate::effects::effect_summaries;
    use imp::ast::Program;
    use imp::parser::parse_program;
    use intern::Symbol;

    /// The functions of `p` whose effect summary is externally pure.
    fn pure(p: &Program) -> BTreeSet<Symbol> {
        effect_summaries(p)
            .iter()
            .filter(|(_, s)| s.is_externally_pure())
            .map(|(f, _)| *f)
            .collect()
    }

    #[test]
    fn arithmetic_helper_is_pure() {
        let p = parse_program("fn clamp(x) { return max(x, 0); } fn main() { return clamp(1); }")
            .unwrap();
        let pure = pure(&p);
        assert!(pure.contains(&Symbol::intern("clamp")));
        assert!(
            pure.contains(&Symbol::intern("main")),
            "calls only pure functions"
        );
    }

    #[test]
    fn query_function_is_impure() {
        let p = parse_program(
            r#"fn fetch() { return executeQuery("SELECT * FROM t"); } fn m() { return fetch(); }"#,
        )
        .unwrap();
        let pure = pure(&p);
        assert!(!pure.contains(&Symbol::intern("fetch")));
        assert!(!pure.contains(&Symbol::intern("m")), "transitively impure");
    }

    #[test]
    fn print_is_impure() {
        let p = parse_program("fn shout(x) { print(x); return x; }").unwrap();
        assert!(pure(&p).is_empty());
    }

    #[test]
    fn effect_free_recursion_is_now_pure() {
        // The legacy increasing fixpoint could never admit a recursive
        // function; the effect fixpoint converges to "no effects" for it.
        let p = parse_program("fn s(x) { if (x == 0) return 0; return x + s(x - 1); }").unwrap();
        assert!(pure(&p).contains(&Symbol::intern("s")));
        assert!(
            super::reference::pure_user_functions(&p).is_empty(),
            "legacy oracle stays conservative on recursion"
        );
    }

    #[test]
    fn recursion_through_effects_stays_impure() {
        let p =
            parse_program("fn r(x) { print(x); if (x == 0) return 0; return r(x - 1); }").unwrap();
        assert!(pure(&p).is_empty());
    }

    #[test]
    fn chains_of_pure_functions() {
        let p = parse_program(
            "fn a(x) { return x + 1; } fn b(x) { return a(x) * 2; } fn c(x) { return b(a(x)); }",
        )
        .unwrap();
        assert_eq!(pure(&p).len(), 3);
    }

    #[test]
    fn mutual_recursion_of_pure_bodies_is_pure() {
        let p = parse_program(
            "fn even(x) { if (x == 0) return 1; return odd(x - 1); } \
             fn odd(x) { if (x == 0) return 0; return even(x - 1); }",
        )
        .unwrap();
        let pure = pure(&p);
        assert!(pure.contains(&Symbol::intern("even")));
        assert!(pure.contains(&Symbol::intern("odd")));
    }

    #[test]
    fn summary_purity_refines_the_reference_oracle() {
        // Everything the legacy analysis calls pure must still be pure, and
        // impure sinks must not leak in — on a mixed program with chains,
        // one recursive helper, and an output sink.
        let p = parse_program(
            "fn top(x) { return mid(x) + 1; } \
             fn mid(x) { return low(x) * 2; } \
             fn low(x) { return max(x, 0); } \
             fn rec(x) { if (x == 0) return 0; return rec(x - 1) + low(x); } \
             fn sink(x) { print(x); return top(x); }",
        )
        .unwrap();
        let new = pure(&p);
        let old = super::reference::pure_user_functions(&p);
        assert!(old.is_subset(&new), "effects ⊑ pure refines the oracle");
        assert!(new.contains(&Symbol::intern("rec")), "the only gain");
        assert!(!new.contains(&Symbol::intern("sink")));
        assert_eq!(new.len(), old.len() + 1);
        // Convergence is deterministic: recomputing yields the same set.
        assert_eq!(new, pure(&p));
    }
}
