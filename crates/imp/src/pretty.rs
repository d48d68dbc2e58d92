//! Source regeneration for `imp` programs.
//!
//! Used to display rewritten programs after SQL extraction (paper Sec. 5.2:
//! "The original program is then rewritten to derive the value of that
//! particular variable, using the extracted equivalent SQL").

use std::fmt::Write as _;

use crate::ast::{Block, Expr, Function, Literal, Program, Stmt, StmtKind};

/// Pretty-print a whole program.
pub fn pretty_print(p: &Program) -> String {
    let mut out = String::new();
    for (i, f) in p.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        function(&mut out, f);
    }
    out
}

/// Pretty-print a single expression.
pub fn pretty_expr(e: &Expr) -> String {
    let mut out = String::new();
    expr(&mut out, e);
    out
}

fn function(out: &mut String, f: &Function) {
    let _ = write!(
        out,
        "fn {}({}) ",
        f.name,
        f.params
            .iter()
            .map(|p| p.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    block(out, &f.body, 0);
    out.push('\n');
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn block(out: &mut String, b: &Block, level: usize) {
    out.push_str("{\n");
    for s in &b.stmts {
        stmt(out, s, level + 1);
    }
    indent(out, level);
    out.push('}');
}

fn stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match &s.kind {
        StmtKind::Assign { target, value } => {
            let _ = write!(out, "{target} = ");
            expr(out, value);
            out.push_str(";\n");
        }
        StmtKind::Expr(e) => {
            expr(out, e);
            out.push_str(";\n");
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            out.push_str("if (");
            expr(out, cond);
            out.push_str(") ");
            block(out, then_branch, level);
            if !else_branch.stmts.is_empty() {
                out.push_str(" else ");
                block(out, else_branch, level);
            }
            out.push('\n');
        }
        StmtKind::ForEach {
            var,
            iterable,
            body,
        } => {
            let _ = write!(out, "for ({var} in ");
            expr(out, iterable);
            out.push_str(") ");
            block(out, body, level);
            out.push('\n');
        }
        StmtKind::While { cond, body } => {
            out.push_str("while (");
            expr(out, cond);
            out.push_str(") ");
            block(out, body, level);
            out.push('\n');
        }
        StmtKind::Return(v) => {
            out.push_str("return");
            if let Some(v) = v {
                out.push(' ');
                expr(out, v);
            }
            out.push_str(";\n");
        }
        StmtKind::Break => out.push_str("break;\n"),
        StmtKind::Continue => out.push_str("continue;\n"),
        StmtKind::Print(args) => {
            out.push_str("print(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(out, a);
            }
            out.push_str(");\n");
        }
    }
}

fn expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Lit(l) => literal(out, l),
        Expr::Var(v) => out.push_str(v),
        Expr::Unary(op, x) => {
            out.push(match op {
                crate::ast::UnaryOp::Neg => '-',
                crate::ast::UnaryOp::Not => '!',
            });
            maybe_paren(out, x);
        }
        Expr::Binary(op, l, r) => {
            maybe_paren(out, l);
            let _ = write!(out, " {} ", op.as_str());
            maybe_paren(out, r);
        }
        Expr::Ternary(c, a, b) => {
            maybe_paren(out, c);
            out.push_str(" ? ");
            maybe_paren(out, a);
            out.push_str(" : ");
            maybe_paren(out, b);
        }
        Expr::Field(o, name) => {
            maybe_paren(out, o);
            let _ = write!(out, ".{name}");
        }
        Expr::Call { name, args } => {
            let _ = write!(out, "{name}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(out, a);
            }
            out.push(')');
        }
        Expr::MethodCall { recv, name, args } => {
            maybe_paren(out, recv);
            let _ = write!(out, ".{name}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(out, a);
            }
            out.push(')');
        }
    }
}

fn maybe_paren(out: &mut String, e: &Expr) {
    let needs = matches!(e, Expr::Binary(..) | Expr::Ternary(..) | Expr::Unary(..));
    if needs {
        out.push('(');
    }
    expr(out, e);
    if needs {
        out.push(')');
    }
}

fn literal(out: &mut String, l: &Literal) {
    match l {
        Literal::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Literal::Float(v) => {
            let _ = write!(out, "{v}");
        }
        Literal::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Literal::Str(s) => {
            let _ = write!(out, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
        }
        Literal::Null => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// Pretty-printed source must reparse to the same AST (modulo ids/spans).
    fn roundtrip(src: &str) {
        let p1 = parse_program(src).unwrap();
        let printed = pretty_print(&p1);
        let p2 = parse_program(&printed).unwrap_or_else(|e| {
            panic!("reparse failed: {e}\n--- printed ---\n{printed}");
        });
        // Compare shape via a second print (ids/spans differ).
        assert_eq!(printed, pretty_print(&p2), "print not idempotent");
    }

    #[test]
    fn roundtrip_figure2() {
        roundtrip(
            r#"fn findMaxScore() {
                boards = executeQuery("SELECT * FROM board WHERE rnd_id = 1");
                scoreMax = 0;
                for (t in boards) {
                    score = max(max(max(t.p1, t.p2), t.p3), t.p4);
                    if (score > scoreMax) scoreMax = score;
                }
                return scoreMax;
            }"#,
        );
    }

    #[test]
    fn roundtrip_collections_and_prints() {
        roundtrip(
            r#"fn f(threshold) {
                rows = executeQuery("SELECT * FROM emp WHERE sal > ?", threshold);
                names = list();
                for (r in rows) {
                    names.add(r.name);
                    print("name: ", r.name);
                }
                return names;
            }"#,
        );
    }

    #[test]
    fn roundtrip_operators() {
        roundtrip("fn f(a, b) { x = (a + b) * 2 - -a; y = !(a > b) && (b <= a || a == 1); return x > 0 ? x : y ? 1 : 0; }");
    }

    #[test]
    fn string_escapes_survive() {
        roundtrip(r#"fn f() { s = "a\"b\\c"; return s; }"#);
    }
}
