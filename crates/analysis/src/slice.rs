//! Backward program slicing (paper Sec. 4.2).
//!
//! "A program slice `S = slice(P, n, v)` is defined as the subset of all
//! statements and control predicates of the program P that directly or
//! indirectly affect the value of a variable v at the program point n."
//!
//! Within a loop body the slice is computed at the program point *after* the
//! body (the end of an iteration): Weiser's fixpoint over relevant
//! variables, operating on the flattened [`crate::ddg::Ddg`] atoms (whose
//! use sets already include enclosing control predicates' variables).

use intern::Symbol;
use std::collections::BTreeSet;

use imp::ast::StmtId;

use crate::ddg::Ddg;

/// The statement ids of `slice(body, end-of-body, var)`.
///
/// The cursor variable is treated as a loop input (its definition lives in
/// the loop header, not the body), so it never pulls statements in by
/// itself.
pub fn slice_for_var(ddg: &Ddg, var: impl Into<Symbol>) -> BTreeSet<StmtId> {
    // A def of a relevant variable joins the slice and makes its own uses
    // relevant. Each variable is expanded once, through its defining
    // atoms, so a chain of copies costs its length, not its square.
    let var = var.into();
    let mut relevant: BTreeSet<Symbol> = BTreeSet::from([var]);
    let mut work = vec![var];
    let mut in_slice: BTreeSet<StmtId> = BTreeSet::new();
    while let Some(v) = work.pop() {
        for i in ddg.defining_atoms(v) {
            let a = &ddg.atoms[i];
            if in_slice.insert(a.id) {
                for u in &a.uses {
                    if *u != ddg.cursor_var && relevant.insert(*u) {
                        work.push(*u);
                    }
                }
            }
        }
    }
    in_slice
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defuse::DefUseCtx;
    use imp::ast::StmtKind;
    use imp::parser::parse_program;

    fn loop_ddg(src: &str) -> (Ddg, Vec<imp::ast::Stmt>) {
        let p = parse_program(src).unwrap();
        for s in &p.functions[0].body.stmts {
            if let StmtKind::ForEach { var, body, .. } = &s.kind {
                return (
                    Ddg::build_with(body, var, &DefUseCtx::default()),
                    body.stmts.clone(),
                );
            }
        }
        panic!("no loop");
    }

    #[test]
    fn figure7_slices() {
        // slice(P, l, agg) = {agg stmt}; slice(P, l, dummyVal) includes both.
        let (ddg, stmts) =
            loop_ddg("fn f() { for (t in q) { agg = agg + t.x; dummyVal = dummyVal * 2 + agg; } }");
        let s_agg = slice_for_var(&ddg, "agg");
        assert_eq!(s_agg, BTreeSet::from([stmts[0].id]));
        let s_dummy = slice_for_var(&ddg, "dummyVal");
        assert_eq!(s_dummy, BTreeSet::from([stmts[0].id, stmts[1].id]));
    }

    #[test]
    fn slice_includes_chain_of_definitions() {
        let (ddg, stmts) =
            loop_ddg("fn f() { for (t in q) { a = t.x; b = a + 1; c = b * 2; unrelated = t.y; } }");
        let s = slice_for_var(&ddg, "c");
        assert_eq!(
            s,
            BTreeSet::from([stmts[0].id, stmts[1].id, stmts[2].id]),
            "unrelated must be excluded"
        );
    }

    #[test]
    fn slice_includes_control_predicates_defs() {
        // The condition variable's defining statement joins the slice.
        let (ddg, stmts) =
            loop_ddg("fn f() { for (t in q) { flag = t.a > 0; if (flag) { s = s + t.x; } } }");
        let s = slice_for_var(&ddg, "s");
        assert!(
            s.contains(&stmts[0].id),
            "flag definition included via control dep"
        );
    }

    #[test]
    fn unknown_variable_empty_slice() {
        let (ddg, _) = loop_ddg("fn f() { for (t in q) { a = t.x; } }");
        assert!(slice_for_var(&ddg, "zzz").is_empty());
    }

    #[test]
    fn cursor_var_does_not_expand_slice() {
        let (ddg, stmts) = loop_ddg("fn f() { for (t in q) { s = s + t.x; } }");
        let s = slice_for_var(&ddg, "s");
        assert_eq!(s, BTreeSet::from([stmts[0].id]));
    }
}
