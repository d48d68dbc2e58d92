//! Dead-code elimination (paper Sec. 4.2 and 5.2).
//!
//! "Dead code refers to code whose results are not used in any other
//! computation. It may be transitive, i.e., identifying a part of the code
//! as dead may reveal more dead code." After SQL extraction replaces a
//! cursor loop with a single `executeQuery`, the loop and the statements
//! feeding it become dead and are removed here.
//!
//! A statement is removable when its result is dead **and** it has no
//! external *write* effect. Pure external *reads* (queries) are removable:
//! eliminating an unused query round trip is precisely the optimization.

use imp::ast::{Block, Expr, Function, Stmt, StmtId, StmtKind};

use crate::dataflow::FnIndex;
use crate::liveness::Liveness;

/// Remove dead statements from `f` until fixpoint. Returns the number of
/// statements removed.
pub fn eliminate_dead_code(f: &mut Function) -> usize {
    let dead = dead_writes(&Liveness::compute(&FnIndex::build(f)));
    eliminate_dead_code_from(f, dead)
}

/// [`eliminate_dead_code`] with the first round's [`dead_writes`] already
/// computed over `f` as it is.
pub(crate) fn eliminate_dead_code_from(f: &mut Function, mut dead: Vec<StmtId>) -> usize {
    let mut removed_total = 0;
    loop {
        let removed = sweep_block(&mut f.body, &dead);
        removed_total += removed;
        if removed == 0 {
            return removed_total;
        }
        dead = dead_writes(&Liveness::compute(&FnIndex::build(f)));
    }
}

/// The assignments, and the mutations of a variable receiver, whose
/// variable is dead after them under `live`, sorted by id. One liveness
/// replay of every block.
pub(crate) fn dead_writes(live: &Liveness<'_>) -> Vec<StmtId> {
    let mut dead = Vec::new();
    live.replay(|s, is_live| {
        let written = match &s.kind {
            StmtKind::Assign { target, .. } => *target,
            StmtKind::Expr(Expr::MethodCall { recv, name, .. })
                if crate::defuse::MUTATING_METHODS.contains(&name.as_str()) =>
            {
                match recv.as_ref() {
                    Expr::Var(v) => *v,
                    _ => return,
                }
            }
            _ => return,
        };
        if !is_live(written) {
            dead.push(s.id);
        }
    });
    dead.sort_unstable();
    dead
}

/// Would one sweep of `b` with [`dead_writes`]' answer `dead` remove a
/// statement, that is, does [`eliminate_dead_code`] remove anything? A
/// sweep removes a statement exactly when some statement, judged on the
/// block as it stands, is not kept: the first removal happens in a block
/// whose nested blocks are still unchanged.
pub(crate) fn removes_any(b: &Block, dead: &[StmtId]) -> bool {
    let mut any = false;
    b.walk(&mut |s, _| any |= !keeps(s, dead));
    any
}

/// Remove the dead statements of `b`; `dead` is [`dead_writes`]' answer.
fn sweep_block(b: &mut Block, dead: &[StmtId]) -> usize {
    let mut removed = 0;
    // First recurse so emptied bodies can be detected below.
    for s in &mut b.stmts {
        match &mut s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                removed += sweep_block(then_branch, dead);
                removed += sweep_block(else_branch, dead);
            }
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                removed += sweep_block(body, dead);
            }
            _ => {}
        }
    }
    let before = b.stmts.len();
    b.stmts.retain(|s| keeps(s, dead));
    removed + (before - b.stmts.len())
}

/// Does a sweep keep `s`, whose nested blocks are already swept? `dead` is
/// [`dead_writes`]' answer.
fn keeps(s: &Stmt, dead: &[StmtId]) -> bool {
    let is_live = |id: &StmtId| dead.binary_search(id).is_err();
    match &s.kind {
        StmtKind::Assign { value, .. } => is_live(&s.id) || has_side_effect(value),
        StmtKind::Expr(e) => match e {
            // A mutation of a dead collection is dead.
            Expr::MethodCall {
                recv: box_recv,
                name,
                ..
            } if crate::defuse::MUTATING_METHODS.contains(&name.as_str()) => {
                match box_recv.as_ref() {
                    Expr::Var(_) => is_live(&s.id) || has_side_effect(e),
                    _ => true,
                }
            }
            other => has_side_effect(other),
        },
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            !(then_branch.stmts.is_empty()
                && else_branch.stmts.is_empty()
                && !has_side_effect(cond))
        }
        StmtKind::ForEach { iterable, body, .. } => {
            // An empty-bodied cursor loop over a pure query or variable
            // only spends a round trip; remove it.
            !body.stmts.is_empty() || has_external_write(iterable)
        }
        StmtKind::While { .. }
        | StmtKind::Return(_)
        | StmtKind::Break
        | StmtKind::Continue
        | StmtKind::Print(_) => true,
    }
}

/// True when evaluating `e` has an effect that must be preserved: external
/// writes, unknown calls, or mutations of (possibly shared) receivers that
/// are not plain variables.
fn has_side_effect(e: &Expr) -> bool {
    let mut effect = false;
    e.walk(&mut |x| match x {
        Expr::Call { name, args: _ } => {
            let n = name.as_str();
            let pure = crate::defuse::PURE_FUNCTIONS.contains(&n)
                || n == imp::ast::builtins::EXECUTE_QUERY
                || n == imp::ast::builtins::EXECUTE_SCALAR
                || n == imp::ast::builtins::EXECUTE_BATCH;
            if !pure {
                effect = true;
            }
        }
        Expr::MethodCall { name, .. } => {
            let n = name.as_str();
            if !crate::defuse::READING_METHODS.contains(&n)
                && !crate::defuse::MUTATING_METHODS.contains(&n)
            {
                effect = true;
            }
        }
        _ => {}
    });
    effect
}

/// True when `e` performs an external write (DML, unknown call).
fn has_external_write(e: &Expr) -> bool {
    let mut w = false;
    e.walk(&mut |x| {
        if let Expr::Call { name, .. } = x {
            let n = name.as_str();
            if n == imp::ast::builtins::EXECUTE_UPDATE
                || (!crate::defuse::PURE_FUNCTIONS.contains(&n)
                    && !imp::ast::builtins::DB_FUNCTIONS.contains(&n))
            {
                w = true;
            }
        }
    });
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;
    use imp::pretty::pretty_print;

    fn dce(src: &str) -> String {
        let mut p = parse_program(src).unwrap();
        let mut f = p.functions.remove(0);
        eliminate_dead_code(&mut f);
        p.functions.push(f);
        pretty_print(&p)
    }

    #[test]
    fn removes_unused_assignment() {
        let out = dce("fn f() { junk = 1; x = 2; return x; }");
        assert!(!out.contains("junk"), "{out}");
        assert!(out.contains("x = 2"), "{out}");
    }

    #[test]
    fn transitive_removal() {
        let out = dce("fn f() { a = 1; b = a + 1; c = b + 1; return 0; }");
        assert!(
            !out.contains("a = 1") && !out.contains('b') && !out.contains('c'),
            "{out}"
        );
    }

    #[test]
    fn unused_query_is_removed() {
        // A pure read round trip with an unused result is removable.
        let out = dce(r#"fn f() { rs = executeQuery("SELECT * FROM t"); return 1; }"#);
        assert!(!out.contains("executeQuery"), "{out}");
    }

    #[test]
    fn update_statement_is_kept() {
        let out = dce(r#"fn f() { x = executeUpdate("DELETE FROM t"); return 1; }"#);
        assert!(out.contains("executeUpdate"), "{out}");
    }

    #[test]
    fn dead_loop_with_dead_collection_removed() {
        // After extraction, the loop body's appends feed a dead collection.
        let out = dce(r#"fn f() {
                rs = executeQuery("SELECT * FROM t");
                acc = list();
                for (r in rs) { acc.add(r.x); }
                result = executeQuery("SELECT x FROM t");
                return result;
            }"#);
        assert!(!out.contains("for ("), "loop should vanish: {out}");
        assert!(!out.contains("acc"), "dead collection should vanish: {out}");
        assert!(out.contains("result = executeQuery"), "{out}");
    }

    #[test]
    fn live_loop_is_kept() {
        let out = dce(r#"fn f() {
                rs = executeQuery("SELECT * FROM t");
                acc = list();
                for (r in rs) { acc.add(r.x); }
                return acc;
            }"#);
        assert!(out.contains("for ("), "{out}");
        assert!(out.contains("acc.add"), "{out}");
    }

    #[test]
    fn empty_if_removed() {
        let out = dce("fn f() { if (a > 0) { junk = 1; } return 2; }");
        assert!(!out.contains("if ("), "{out}");
    }

    #[test]
    fn print_kept() {
        let out = dce("fn f() { x = 1; print(x); }");
        assert!(out.contains("print(x)"), "{out}");
        assert!(out.contains("x = 1"), "{out}");
    }
}
