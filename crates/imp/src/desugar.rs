//! Source-level normalizations described by the paper.
//!
//! * [`normalize_minmax`] — Sec. 4.2: the structure
//!   `if (expr OP v) then v = expr` (with `OP ∈ {<, >, <=, >=}`) is a common
//!   implementation of min/max aggregation; it is rewritten to
//!   `v = max(v, expr)` / `v = min(v, expr)` *before* F-IR translation. The
//!   mirrored form `if (v OP expr)` is flipped first.
//! * [`rewrite_prints`] — Sec. 2 / Appendix B ("Handling Output Ordering"):
//!   output statements are replaced with appends to a global ordered
//!   collection (`__out`), printed once at the end of the function, so that
//!   a printing cursor loop becomes an ordinary collection-building loop
//!   amenable to extraction.

use crate::ast::{BinaryOp, Block, Expr, Function, Program, Stmt, StmtId, StmtKind};
use crate::token::Span;

/// The name of the synthetic output collection used by [`rewrite_prints`].
pub const OUT_VAR: &str = "__out";

/// Rewrite `if (expr OP v) v = expr;` into `v = max/min(v, expr);`
/// throughout the program. Returns the number of rewrites performed.
pub fn normalize_minmax(p: &mut Program) -> usize {
    let mut count = 0;
    for f in &mut p.functions {
        count += normalize_block(&mut f.body);
    }
    count
}

/// Rewrite boolean-flag conditionals (paper Appendix B, "Checking for
/// existence using cursor loops"):
///
/// * `if (c) v = true;`  →  `v = v || c;`
/// * `if (c) v = false;` →  `v = v && !c;`
///
/// restoring the accumulation cycle `loopToFold` needs. Returns the number
/// of rewrites.
pub fn normalize_bool_flags(p: &mut Program) -> usize {
    let mut count = 0;
    for f in &mut p.functions {
        count += bool_flags_block(&mut f.body);
    }
    count
}

fn bool_flags_block(b: &mut Block) -> usize {
    let mut count = 0;
    for s in &mut b.stmts {
        match &mut s.kind {
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if let Some((target, bv)) = bool_flag(then_branch, else_branch) {
                    let value = if bv {
                        Expr::Binary(
                            BinaryOp::Or,
                            Box::new(Expr::Var(target)),
                            Box::new(cond.clone()),
                        )
                    } else {
                        Expr::Binary(
                            BinaryOp::And,
                            Box::new(Expr::Var(target)),
                            Box::new(Expr::Unary(
                                crate::ast::UnaryOp::Not,
                                Box::new(cond.clone()),
                            )),
                        )
                    };
                    s.kind = StmtKind::Assign { target, value };
                    count += 1;
                    continue;
                }
                count += bool_flags_block(then_branch);
                count += bool_flags_block(else_branch);
            }
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                count += bool_flags_block(body);
            }
            _ => {}
        }
    }
    count
}

fn normalize_block(b: &mut Block) -> usize {
    let mut count = 0;
    for s in &mut b.stmts {
        match &mut s.kind {
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if let Some((target, func, expr_side)) = minmax(cond, then_branch, else_branch) {
                    let value = Expr::Call {
                        name: func.into(),
                        args: vec![Expr::Var(target), expr_side.clone()],
                    };
                    s.kind = StmtKind::Assign { target, value };
                    count += 1;
                    continue;
                }
                count += normalize_block(then_branch);
                count += normalize_block(else_branch);
            }
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                count += normalize_block(body);
            }
            _ => {}
        }
    }
    count
}

/// Recognize `if (a OP b) v = e;` (no `else`) where one comparison side
/// is `v` and the other equals `e`; return `v`, the aggregate (`"max"` or
/// `"min"`) and `e` for the replacement `v = max/min(v, e)`.
fn minmax<'e>(
    cond: &'e Expr,
    then_branch: &Block,
    else_branch: &Block,
) -> Option<(intern::Symbol, &'static str, &'e Expr)> {
    if !else_branch.stmts.is_empty() || then_branch.stmts.len() != 1 {
        return None;
    }
    let (target, value) = match &then_branch.stmts[0].kind {
        StmtKind::Assign { target, value } => (*target, value),
        _ => return None,
    };
    let (op, lhs, rhs) = match cond {
        Expr::Binary(op, l, r) if op.is_comparison() => (*op, l.as_ref(), r.as_ref()),
        _ => return None,
    };
    // Normalize to the form `expr OP v`.
    let (op, expr_side) = if *rhs == Expr::Var(target) && lhs == value {
        (op, lhs)
    } else if *lhs == Expr::Var(target) && rhs == value {
        // `v OP expr` — flip the comparison (paper Sec. 4.2 last paragraph).
        let flipped = match op {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::Le => BinaryOp::Ge,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::Ge => BinaryOp::Le,
            _ => return None,
        };
        (flipped, rhs)
    } else {
        return None;
    };
    let func = match op {
        BinaryOp::Gt | BinaryOp::Ge => "max",
        BinaryOp::Lt | BinaryOp::Le => "min",
        _ => return None,
    };
    Some((target, func, expr_side))
}

/// Recognize `if (c) v = true;` / `if (c) v = false;` (no `else`); return
/// `v` and the literal.
fn bool_flag(then_branch: &Block, else_branch: &Block) -> Option<(intern::Symbol, bool)> {
    if !else_branch.stmts.is_empty() || then_branch.stmts.len() != 1 {
        return None;
    }
    match &then_branch.stmts[0].kind {
        StmtKind::Assign {
            target,
            value: Expr::Lit(crate::ast::Literal::Bool(bv)),
        } => Some((*target, *bv)),
        _ => None,
    }
}

/// Would [`normalize_minmax`] or [`normalize_bool_flags`] rewrite
/// anything in `p`? Reads `p` only, so a caller can skip copying a
/// program the two leave unchanged. (When the first rewrites nothing, the
/// second sees `p` as it is.)
pub fn needs_normalizing(p: &Program) -> bool {
    let mut found = false;
    for f in &p.functions {
        f.body.walk(&mut |s, _| {
            if let StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } = &s.kind
            {
                found |= minmax(cond, then_branch, else_branch).is_some()
                    || bool_flag(then_branch, else_branch).is_some();
            }
        });
    }
    found
}

/// Replace every `print(e1, …)` in `f` with `__out.add(e)` appends to a
/// synthetic ordered collection, initialize `__out = list()` at the top and
/// `print(__out)` at the bottom. Returns `true` when any print was found.
///
/// The caller should re-[`Program::renumber`] afterwards.
pub fn rewrite_prints(f: &mut Function) -> bool {
    let mut found = false;
    rewrite_prints_block(&mut f.body, &mut found);
    if found {
        let init = Stmt {
            id: StmtId(u32::MAX),
            kind: StmtKind::Assign {
                target: OUT_VAR.into(),
                value: Expr::call("list", vec![]),
            },
            span: Span::default(),
        };
        let flush = Stmt {
            id: StmtId(u32::MAX - 1),
            kind: StmtKind::Print(vec![Expr::var(OUT_VAR)]),
            span: Span::default(),
        };
        f.body.stmts.insert(0, init);
        // Flush before *every* return (early exits must not lose output),
        // and at the end of the function when it can fall off the bottom.
        insert_flush_before_returns(&mut f.body, &flush);
        match f.body.stmts.last() {
            Some(s) if matches!(s.kind, StmtKind::Return(_)) => {}
            _ => f.body.stmts.push(flush),
        }
    }
    found
}

fn insert_flush_before_returns(b: &mut Block, flush: &Stmt) {
    let mut i = 0;
    while i < b.stmts.len() {
        match &mut b.stmts[i].kind {
            StmtKind::Return(_) => {
                b.stmts.insert(i, flush.clone());
                i += 2;
                continue;
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                insert_flush_before_returns(then_branch, flush);
                insert_flush_before_returns(else_branch, flush);
            }
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                insert_flush_before_returns(body, flush);
            }
            _ => {}
        }
        i += 1;
    }
}

fn rewrite_prints_block(b: &mut Block, found: &mut bool) {
    for s in &mut b.stmts {
        match &mut s.kind {
            StmtKind::Print(args) => {
                *found = true;
                let value = match args.len() {
                    0 => Expr::str(""),
                    1 => args[0].clone(),
                    _ => Expr::call("concat", args.clone()),
                };
                s.kind = StmtKind::Expr(Expr::MethodCall {
                    recv: Box::new(Expr::var(OUT_VAR)),
                    name: "add".into(),
                    args: vec![value],
                });
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                rewrite_prints_block(then_branch, found);
                rewrite_prints_block(else_branch, found);
            }
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                rewrite_prints_block(body, found);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::pretty::pretty_print;

    #[test]
    fn minmax_pattern_becomes_max_call() {
        let mut p = parse_program(
            "fn f() { for (t in q) { if (t.score > best) best = t.score; } return best; }",
        )
        .unwrap();
        assert_eq!(normalize_minmax(&mut p), 1);
        let printed = pretty_print(&p);
        assert!(printed.contains("best = max(best, t.score);"), "{printed}");
    }

    #[test]
    fn needs_normalizing_agrees_with_the_rewrite_counts() {
        for src in [
            "fn f() { for (t in q) { if (t.score > best) best = t.score; } return best; }",
            "fn f() { for (t in q) { if (t.x > 0) found = true; } return found; }",
            "fn f() { for (t in q) { if (t.x > best) { best = t.x; n = 1; } } return best; }",
            "fn f() { if (a > 0) { x = true; } else { x = false; } return x; }",
        ] {
            let mut p = parse_program(src).unwrap();
            let predicted = needs_normalizing(&p);
            let rewrites = normalize_minmax(&mut p) + normalize_bool_flags(&mut p);
            assert_eq!(predicted, rewrites > 0, "{src}");
            assert!(!needs_normalizing(&p), "{src}");
        }
    }

    #[test]
    fn flipped_pattern_becomes_min_call() {
        // `v < expr` means v should take expr when expr is… careful:
        // `if (lo > t.x) lo = t.x` is a min; `if (lo < t.x) lo = t.x` is a max.
        let mut p = parse_program("fn f() { for (t in q) { if (lo > t.x) lo = t.x; } return lo; }")
            .unwrap();
        assert_eq!(normalize_minmax(&mut p), 1);
        assert!(pretty_print(&p).contains("lo = min(lo, t.x);"));
    }

    #[test]
    fn var_on_left_is_flipped() {
        let mut p = parse_program("fn f() { for (t in q) { if (hi < t.x) hi = t.x; } return hi; }")
            .unwrap();
        assert_eq!(normalize_minmax(&mut p), 1);
        assert!(pretty_print(&p).contains("hi = max(hi, t.x);"));
    }

    #[test]
    fn unrelated_if_untouched() {
        let src = "fn f() { if (a > b) c = 1; }";
        let mut p = parse_program(src).unwrap();
        assert_eq!(normalize_minmax(&mut p), 0);
    }

    #[test]
    fn if_with_else_untouched() {
        let mut p =
            parse_program("fn f() { for (t in q) { if (t.x > v) { v = t.x; } else { w = 1; } } }")
                .unwrap();
        assert_eq!(normalize_minmax(&mut p), 0);
    }

    #[test]
    fn rewrite_prints_inserts_out_collection() {
        let mut p = parse_program(
            r#"fn f() { rows = executeQuery("SELECT * FROM t"); for (r in rows) { print(r.name); } return 0; }"#,
        )
        .unwrap();
        let f = &mut p.functions[0];
        assert!(rewrite_prints(f));
        p.renumber();
        let printed = pretty_print(&p);
        assert!(printed.contains("__out = list();"), "{printed}");
        assert!(printed.contains("__out.add(r.name);"), "{printed}");
        // Flush goes before the return.
        let flush_pos = printed.find("print(__out);").unwrap();
        let ret_pos = printed.find("return 0;").unwrap();
        assert!(flush_pos < ret_pos, "{printed}");
    }

    #[test]
    fn rewrite_prints_concats_multiple_args() {
        let mut p = parse_program(r#"fn f() { print("a", x); }"#).unwrap();
        assert!(rewrite_prints(&mut p.functions[0]));
        assert!(pretty_print(&p).contains("__out.add(concat(\"a\", x));"));
    }

    #[test]
    fn no_prints_no_changes() {
        let mut p = parse_program("fn f() { x = 1; }").unwrap();
        assert!(!rewrite_prints(&mut p.functions[0]));
        assert_eq!(p.functions[0].body.stmts.len(), 1);
    }
}

/// Rewrite Java-bean getter calls into field accesses throughout the
/// program: `t.getP1()` → `t.p1` (paper Sec. 3.2.1 models "getter and setter
/// functions for object attributes" as ee-DAG operators; we normalize them
/// at the source level). Returns the number of rewrites.
pub fn normalize_getters(p: &mut Program) -> usize {
    let mut count = 0;
    for f in &mut p.functions {
        getters_block(&mut f.body, &mut count);
    }
    count
}

fn getters_block(b: &mut Block, count: &mut usize) {
    for s in &mut b.stmts {
        match &mut s.kind {
            StmtKind::Assign { value, .. } => getters_expr(value, count),
            StmtKind::Expr(e) => getters_expr(e, count),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                getters_expr(cond, count);
                getters_block(then_branch, count);
                getters_block(else_branch, count);
            }
            StmtKind::ForEach { iterable, body, .. } => {
                getters_expr(iterable, count);
                getters_block(body, count);
            }
            StmtKind::While { cond, body } => {
                getters_expr(cond, count);
                getters_block(body, count);
            }
            StmtKind::Return(Some(v)) => getters_expr(v, count),
            StmtKind::Print(args) => {
                for a in args {
                    getters_expr(a, count);
                }
            }
            _ => {}
        }
    }
}

fn getters_expr(e: &mut Expr, count: &mut usize) {
    // Rewrite bottom-up.
    match e {
        Expr::Unary(_, x) => getters_expr(x, count),
        Expr::Binary(_, l, r) => {
            getters_expr(l, count);
            getters_expr(r, count);
        }
        Expr::Ternary(c, a, b) => {
            getters_expr(c, count);
            getters_expr(a, count);
            getters_expr(b, count);
        }
        Expr::Field(o, _) => getters_expr(o, count),
        Expr::Call { args, .. } => {
            for a in args {
                getters_expr(a, count);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            getters_expr(recv, count);
            for a in args {
                getters_expr(a, count);
            }
        }
        _ => {}
    }
    if let Expr::MethodCall { recv, name, args } = e {
        if args.is_empty() {
            if let Some(rest) = name.strip_prefix("get") {
                if !rest.is_empty() {
                    // getP1 → p1, getRoleName → roleName.
                    let mut field = String::new();
                    let mut cs = rest.chars();
                    if let Some(first) = cs.next() {
                        field.extend(first.to_lowercase());
                    }
                    field.extend(cs);
                    *e = Expr::Field(recv.clone(), intern::Symbol::intern(&field));
                    *count += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod getter_tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::pretty::pretty_print;

    #[test]
    fn getters_become_fields() {
        let mut p = parse_program(
            "fn f() { for (t in boards) { p1 = t.getP1(); s = max(t.getP2(), p1); } }",
        )
        .unwrap();
        assert_eq!(normalize_getters(&mut p), 2);
        let out = pretty_print(&p);
        assert!(out.contains("t.p1"), "{out}");
        assert!(out.contains("t.p2"), "{out}");
        assert!(!out.contains("getP"), "{out}");
    }

    #[test]
    fn camel_case_getter() {
        let mut p = parse_program("fn f(u) { return u.getRoleName(); }").unwrap();
        assert_eq!(normalize_getters(&mut p), 1);
        assert!(pretty_print(&p).contains("u.roleName"));
    }

    #[test]
    fn non_getters_untouched() {
        let mut p = parse_program("fn f(c) { return c.size(); }").unwrap();
        assert_eq!(normalize_getters(&mut p), 0);
    }

    #[test]
    fn getter_with_args_untouched() {
        let mut p = parse_program("fn f(c) { return c.getItem(3); }").unwrap();
        assert_eq!(normalize_getters(&mut p), 0);
    }
}
