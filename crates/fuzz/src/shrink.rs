//! Greedy divergence-preserving case minimization.
//!
//! Every candidate edit is re-checked against the caller-supplied oracle
//! closure; only edits that keep the property (normally "still diverges")
//! are adopted. The passes run to a fixpoint, bounded by an oracle-call
//! budget so a pathological case cannot stall the fuzz loop.
//!
//! Structural edits work on the parsed AST and are re-rendered through
//! `imp::pretty_print`, so every intermediate candidate is a well-formed
//! program — the oracle never sees a syntax error introduced by shrinking.

use imp::ast::{Block, Expr, Literal, Program, Stmt, StmtKind};

use crate::oracle::Case;

/// Shrink `case` while `check` keeps returning `true` for the shrunken
/// candidate. `budget` bounds the number of `check` invocations.
///
/// The passes, cheapest first:
/// 1. drop whole data `INSERT`s;
/// 2. delete statements (preorder over the AST);
/// 3. simplify expressions one edit at a time (replace a binary node by one
///    operand, a ternary by a branch, a literal by `0`/`""`, hoist an `if`
///    body);
/// 4. zero out call arguments.
pub fn shrink_case(case: &Case, check: &mut dyn FnMut(&Case) -> bool, mut budget: usize) -> Case {
    let mut best = case.clone();
    loop {
        let before = best.size();
        shrink_data(&mut best, check, &mut budget);
        shrink_stmts(&mut best, check, &mut budget);
        shrink_exprs(&mut best, check, &mut budget);
        shrink_args(&mut best, check, &mut budget);
        if budget == 0 || best.size() >= before {
            return best;
        }
    }
}

fn try_adopt(
    best: &mut Case,
    cand: Case,
    check: &mut dyn FnMut(&Case) -> bool,
    budget: &mut usize,
) -> bool {
    if *budget == 0 || cand.size() >= best.size() {
        return false;
    }
    *budget -= 1;
    if check(&cand) {
        *best = cand;
        true
    } else {
        false
    }
}

/// Pass 1: drop data statements one at a time.
fn shrink_data(best: &mut Case, check: &mut dyn FnMut(&Case) -> bool, budget: &mut usize) {
    let mut i = 0;
    while i < best.data.len() {
        if *budget == 0 {
            return;
        }
        let mut cand = best.clone();
        cand.data.remove(i);
        if !try_adopt(best, cand, check, budget) {
            i += 1;
        }
    }
}

/// Pass 4: replace call arguments by zero.
fn shrink_args(best: &mut Case, check: &mut dyn FnMut(&Case) -> bool, budget: &mut usize) {
    for i in 0..best.args.len() {
        if best.args[i] == 0 || *budget == 0 {
            continue;
        }
        let mut cand = best.clone();
        cand.args[i] = 0;
        // Arg zeroing does not change `size()`; force-evaluate it anyway so
        // repros read `args: 0` where the value is irrelevant.
        *budget -= 1;
        if check(&cand) {
            *best = cand;
        }
    }
}

fn parsed(case: &Case) -> Option<Program> {
    imp::parse_program(&case.program).ok()
}

fn rerender(case: &Case, program: &Program) -> Case {
    let mut cand = case.clone();
    cand.program = imp::pretty_print(program);
    cand
}

/// Apply `edit` to the statement at preorder index `idx`; returns `false`
/// when `idx` is out of range. `edit` may mutate the owning block (deletion,
/// replacement by the statement's own body, …).
fn edit_stmt_at(
    b: &mut Block,
    idx: &mut usize,
    edit: &mut impl FnMut(&mut Vec<Stmt>, usize) -> bool,
) -> bool {
    let mut i = 0;
    while i < b.stmts.len() {
        if *idx == 0 {
            return edit(&mut b.stmts, i);
        }
        *idx -= 1;
        let done = match &mut b.stmts[i].kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => edit_stmt_at(then_branch, idx, edit) || edit_stmt_at(else_branch, idx, edit),
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                edit_stmt_at(body, idx, edit)
            }
            _ => false,
        };
        if done {
            return true;
        }
        i += 1;
    }
    false
}

/// Pass 2: statement deletion, plus `if`-hoisting (replace an `if` by its
/// then-branch, discarding the condition).
fn shrink_stmts(best: &mut Case, check: &mut dyn FnMut(&Case) -> bool, budget: &mut usize) {
    loop {
        let Some(program) = parsed(best) else { return };
        let mut total = 0;
        for f in &program.functions {
            f.body.walk(&mut |_, _| total += 1);
        }
        let mut adopted = false;
        for idx in 0..total {
            if *budget == 0 {
                return;
            }
            // Deletion.
            let mut p = program.clone();
            let mut cursor = idx;
            let mut changed = false;
            for f in &mut p.functions {
                if edit_stmt_at(&mut f.body, &mut cursor, &mut |stmts, i| {
                    stmts.remove(i);
                    true
                }) {
                    changed = true;
                    break;
                }
            }
            if changed {
                p.renumber();
                if try_adopt(best, rerender(best, &p), check, budget) {
                    adopted = true;
                    break;
                }
            }
            // Hoist an `if`'s then-branch in place of the whole `if`.
            let mut p = program.clone();
            let mut cursor = idx;
            let mut changed = false;
            for f in &mut p.functions {
                if edit_stmt_at(&mut f.body, &mut cursor, &mut |stmts, i| {
                    if let StmtKind::If { then_branch, .. } = &stmts[i].kind {
                        let hoisted = then_branch.stmts.clone();
                        stmts.splice(i..=i, hoisted);
                        true
                    } else {
                        false
                    }
                }) {
                    changed = true;
                    break;
                }
            }
            if changed {
                p.renumber();
                if try_adopt(best, rerender(best, &p), check, budget) {
                    adopted = true;
                    break;
                }
            }
        }
        if !adopted {
            return;
        }
    }
}

/// All single-edit simplifications of `e`, largest-reduction first.
fn expr_variants(e: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    match e {
        Expr::Binary(_, l, r) => {
            out.push((**l).clone());
            out.push((**r).clone());
        }
        Expr::Ternary(_, a, b) => {
            out.push((**a).clone());
            out.push((**b).clone());
        }
        Expr::Unary(_, inner) => out.push((**inner).clone()),
        Expr::Call { name, args } if args.len() == 1 && name.as_str() != "executeQuery" => {
            out.push(args[0].clone());
        }
        Expr::Lit(Literal::Int(v)) if *v != 0 => out.push(Expr::int(0)),
        Expr::Lit(Literal::Str(s)) if !s.is_empty() => out.push(Expr::str("")),
        _ => {}
    }
    // Recurse: one edit somewhere inside a child.
    match e {
        Expr::Unary(op, inner) => {
            for v in expr_variants(inner) {
                out.push(Expr::Unary(*op, Box::new(v)));
            }
        }
        Expr::Binary(op, l, r) => {
            for v in expr_variants(l) {
                out.push(Expr::Binary(*op, Box::new(v), r.clone()));
            }
            for v in expr_variants(r) {
                out.push(Expr::Binary(*op, l.clone(), Box::new(v)));
            }
        }
        Expr::Ternary(c, a, b) => {
            for v in expr_variants(c) {
                out.push(Expr::Ternary(Box::new(v), a.clone(), b.clone()));
            }
            for v in expr_variants(a) {
                out.push(Expr::Ternary(c.clone(), Box::new(v), b.clone()));
            }
            for v in expr_variants(b) {
                out.push(Expr::Ternary(c.clone(), a.clone(), Box::new(v)));
            }
        }
        Expr::Call { name, args }
            if name.as_str() != "executeQuery" && name.as_str() != "executeScalar" =>
        {
            for (i, a) in args.iter().enumerate() {
                for v in expr_variants(a) {
                    let mut args = args.clone();
                    args[i] = v;
                    out.push(Expr::Call { name: *name, args });
                }
            }
        }
        _ => {}
    }
    out
}

/// The shrinkable expression slots of a statement. Loop iterables are
/// excluded: simplifying `executeQuery("…")` away would change the case
/// from "extraction bug" to "program without a query" — never a useful
/// repro.
fn stmt_expr_mut(kind: &mut StmtKind, slot: usize) -> Option<&mut Expr> {
    match kind {
        StmtKind::Assign { value, .. } if slot == 0 => Some(value),
        StmtKind::Expr(e) if slot == 0 => Some(e),
        StmtKind::If { cond, .. } if slot == 0 => Some(cond),
        StmtKind::While { cond, .. } if slot == 0 => Some(cond),
        StmtKind::Return(Some(e)) if slot == 0 => Some(e),
        StmtKind::Print(es) => es.get_mut(slot),
        _ => None,
    }
}

/// Pass 3: single-edit expression simplification across every statement.
fn shrink_exprs(best: &mut Case, check: &mut dyn FnMut(&Case) -> bool, budget: &mut usize) {
    loop {
        let Some(program) = parsed(best) else { return };
        let mut total = 0;
        for f in &program.functions {
            f.body.walk(&mut |_, _| total += 1);
        }
        let mut adopted = false;
        'outer: for idx in 0..total {
            for slot in 0..4 {
                // Snapshot the expression at (idx, slot), if any.
                let mut probe = program.clone();
                let mut cursor = idx;
                let mut current: Option<Expr> = None;
                for f in &mut probe.functions {
                    if edit_stmt_at(&mut f.body, &mut cursor, &mut |stmts, i| {
                        current = stmt_expr_mut(&mut stmts[i].kind, slot).cloned();
                        true
                    }) {
                        break;
                    }
                }
                let Some(current) = current else { continue };
                for variant in expr_variants(&current) {
                    if *budget == 0 {
                        return;
                    }
                    let mut p = program.clone();
                    let mut cursor = idx;
                    for f in &mut p.functions {
                        if edit_stmt_at(&mut f.body, &mut cursor, &mut |stmts, i| {
                            if let Some(e) = stmt_expr_mut(&mut stmts[i].kind, slot) {
                                *e = variant.clone();
                            }
                            true
                        }) {
                            break;
                        }
                    }
                    if try_adopt(best, rerender(best, &p), check, budget) {
                        adopted = true;
                        break 'outer;
                    }
                }
            }
        }
        if !adopted {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case_with(program: &str) -> Case {
        Case {
            ddl: "CREATE TABLE t (id INT PRIMARY KEY, g INT);\n".into(),
            data: vec![
                "INSERT INTO t VALUES (0, 1)".into(),
                "INSERT INTO t VALUES (1, 2)".into(),
            ],
            program: program.into(),
            function: "main".into(),
            args: vec![3],
        }
    }

    #[test]
    fn shrinks_to_minimal_program_preserving_property() {
        let case = case_with(
            "fn main(x) {\n    acc0 = 0;\n    acc1 = 0;\n    for (r in executeQuery(\
             \"SELECT * FROM t\")) {\n        acc0 = acc0 + r.g * 2;\n        \
             if (r.g > 1) { acc1 = acc1 + 1; }\n    }\n    print(acc1);\n    \
             return acc0;\n}\n",
        );
        // Property: the program still contains an addition into acc0.
        let mut check = |c: &Case| c.program.contains("acc0 + ");
        let out = shrink_case(&case, &mut check, 500);
        assert!(
            out.program.contains("acc0 + "),
            "property preserved:\n{}",
            out.program
        );
        assert!(out.size() < case.size(), "case got smaller");
        assert!(
            !out.program.contains("acc1"),
            "unrelated accumulator removed:\n{}",
            out.program
        );
        assert!(
            out.data.is_empty(),
            "data irrelevant to a syntactic property"
        );
        assert_eq!(out.args, vec![0], "args zeroed");
        // Every candidate the shrinker produced parses.
        imp::parse_program(&out.program).expect("shrunken program parses");
    }

    #[test]
    fn keeps_case_when_nothing_shrinkable() {
        let case = case_with("fn main(x) {\n    return 0;\n}\n");
        let mut check = |c: &Case| c.program.contains("return 0");
        let out = shrink_case(&case, &mut check, 200);
        assert!(out.program.contains("return 0"));
        imp::parse_program(&out.program).expect("still parses");
    }
}
