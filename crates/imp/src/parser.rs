//! Recursive-descent parser for the `imp` language.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels: each block (braced, a
//! single-statement body or an `else if`), parenthesised expression, unary
//! operator, call's argument list and ternary opens one. The parser and
//! every pass over the AST recurse once per level, so a deeper input is a
//! [`ParseError`] at the token that opens the level past the cap rather
//! than a stack overflow.
//!
//! A chain of binary operators or field accesses is read in a loop, but it
//! still becomes a tree as deep as the chain is long, which later passes
//! recurse over. So one expression may have at most [`MAX_OPERANDS`]
//! operands, counted over the whole expression, nested levels included:
//! every binary operator and every `.field` or `.method(..)` adds one.

use std::fmt;

use crate::ast::{
    BinaryOp, Block, Expr, Function, Literal, Program, Stmt, StmtId, StmtKind, UnaryOp,
};
use crate::lexer::{lex, LexError};
use crate::token::{Keyword, Span, Token, TokenKind};

/// A parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the source.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// The deepest nesting [`parse_program`] accepts, counted over blocks and
/// expressions together (see the module comment). A program at this cap
/// parses, extracts and lints on a 2 MiB thread stack in a debug build.
pub const MAX_DEPTH: usize = 64;

/// The most operands one expression may have (see the module comment).
/// On the 8 MiB stack the CLI and the service workers run on, a release
/// build aborted extracting a chain of 30,000 operands (25,000 passed) and
/// running one with `eqsql run` of 23,000 (22,000 passed).
pub const MAX_OPERANDS: usize = 20_000;

/// Parse a full program (a sequence of `fn` definitions).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        next_id: 0,
        depth: 0,
        operands: 0,
    };
    let mut functions = Vec::new();
    while !p.at(&TokenKind::Eof) {
        functions.push(p.function()?);
    }
    Ok(Program { functions })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Nesting levels open at `pos`.
    depth: usize,
    /// Operands read so far in the outermost expression being parsed; 0
    /// outside any expression.
    operands: usize,
}

impl Parser {
    /// Run `f` one nesting level deeper; the level opens at the current
    /// token, where the error points past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Count one more operand of the current expression; the error points
    /// at the operator that would join one past [`MAX_OPERANDS`].
    fn operand(&mut self) -> Result<(), ParseError> {
        if self.operands == MAX_OPERANDS {
            return Err(self.err(format!(
                "more than {MAX_OPERANDS} operands in one expression"
            )));
        }
        self.operands += 1;
        Ok(())
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), TokenKind::Kw(k) if *k == kw)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.span().start,
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.at_kw(kw) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`, found {}", kw.as_str(), self.peek())))
        }
    }

    fn ident(&mut self) -> Result<intern::Symbol, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn fresh_id(&mut self) -> StmtId {
        let id = StmtId(self.next_id);
        self.next_id += 1;
        id
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        let start = self.span();
        self.expect_kw(Keyword::Fn)?;
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                params.push(self.ident()?);
                if self.at(&TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.merge(self.tokens[self.pos.saturating_sub(1)].span);
        Ok(Function {
            name,
            params,
            body,
            span,
        })
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.nested(|p| {
            p.expect(&TokenKind::LBrace)?;
            let mut stmts = Vec::new();
            while !p.at(&TokenKind::RBrace) {
                if p.at(&TokenKind::Eof) {
                    return Err(p.err("unexpected end of input inside block"));
                }
                stmts.push(p.stmt()?);
            }
            p.expect(&TokenKind::RBrace)?;
            Ok(Block { stmts })
        })
    }

    /// A block of the one statement at `pos`.
    fn single(&mut self) -> Result<Block, ParseError> {
        let s = self.nested(Self::stmt)?;
        Ok(Block { stmts: vec![s] })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        let id = self.fresh_id();
        let kind = match self.peek().clone() {
            TokenKind::Kw(Keyword::If) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let then_branch = self.block_or_single()?;
                let else_branch = if self.at_kw(Keyword::Else) {
                    self.bump();
                    if self.at_kw(Keyword::If) {
                        // `else if` — wrap the nested if in a block.
                        self.single()?
                    } else {
                        self.block_or_single()?
                    }
                } else {
                    Block::new()
                };
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                }
            }
            TokenKind::Kw(Keyword::For) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let var = self.ident()?;
                self.expect_kw(Keyword::In)?;
                let iterable = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = self.block_or_single()?;
                StmtKind::ForEach {
                    var,
                    iterable,
                    body,
                }
            }
            TokenKind::Kw(Keyword::While) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = self.block_or_single()?;
                StmtKind::While { cond, body }
            }
            TokenKind::Kw(Keyword::Return) => {
                self.bump();
                let value = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::Semi)?;
                StmtKind::Return(value)
            }
            TokenKind::Kw(Keyword::Break) => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                StmtKind::Break
            }
            TokenKind::Kw(Keyword::Continue) => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                StmtKind::Continue
            }
            TokenKind::Kw(Keyword::Print) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let mut args = Vec::new();
                if !self.at(&TokenKind::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if self.at(&TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Print(args)
            }
            TokenKind::Ident(name) if *self.peek2() == TokenKind::Eq => {
                self.bump();
                self.bump();
                let value = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Assign {
                    target: name,
                    value,
                }
            }
            _ => {
                let e = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                StmtKind::Expr(e)
            }
        };
        let span = start.merge(self.tokens[self.pos.saturating_sub(1)].span);
        Ok(Stmt { id, kind, span })
    }

    /// Either a braced block or a single statement (Java-style bodies).
    fn block_or_single(&mut self) -> Result<Block, ParseError> {
        if self.at(&TokenKind::LBrace) {
            self.block()
        } else {
            self.single()
        }
    }

    // Expression grammar, lowest precedence first.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        if self.operands > 0 {
            return self.ternary();
        }
        self.operands = 1;
        let e = self.ternary();
        self.operands = 0;
        e
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.or_expr()?;
        if self.at(&TokenKind::Question) {
            let (a, b) = self.nested(|p| {
                p.bump();
                let a = p.expr()?;
                p.expect(&TokenKind::Colon)?;
                Ok((a, p.expr()?))
            })?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)))
        } else {
            Ok(cond)
        }
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.at(&TokenKind::OrOr) {
            self.operand()?;
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(BinaryOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.equality()?;
        while self.at(&TokenKind::AndAnd) {
            self.operand()?;
            self.bump();
            let rhs = self.equality()?;
            lhs = Expr::Binary(BinaryOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.relational()?;
        loop {
            let op = match self.peek() {
                TokenKind::EqEq => BinaryOp::Eq,
                TokenKind::NotEq => BinaryOp::Ne,
                _ => break,
            };
            self.operand()?;
            self.bump();
            let rhs = self.relational()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn relational(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                TokenKind::Lt => BinaryOp::Lt,
                TokenKind::Le => BinaryOp::Le,
                TokenKind::Gt => BinaryOp::Gt,
                TokenKind::Ge => BinaryOp::Ge,
                _ => break,
            };
            self.operand()?;
            self.bump();
            let rhs = self.additive()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.operand()?;
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.operand()?;
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            TokenKind::Minus => self.prefix(UnaryOp::Neg),
            TokenKind::Bang => self.prefix(UnaryOp::Not),
            _ => self.postfix(),
        }
    }

    /// The operand of the prefix operator at `pos`.
    fn prefix(&mut self, op: UnaryOp) -> Result<Expr, ParseError> {
        let e = self.nested(|p| {
            p.bump();
            p.unary()
        })?;
        Ok(Expr::Unary(op, Box::new(e)))
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            if self.at(&TokenKind::Dot) {
                self.operand()?;
                self.bump();
                let name = self.ident()?;
                if self.at(&TokenKind::LParen) {
                    let args = self.call_args()?;
                    e = Expr::MethodCall {
                        recv: Box::new(e),
                        name,
                        args,
                    };
                } else {
                    e = Expr::Field(Box::new(e), name);
                }
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.nested(|p| {
            p.expect(&TokenKind::LParen)?;
            let mut args = Vec::new();
            if !p.at(&TokenKind::RParen) {
                loop {
                    args.push(p.expr()?);
                    if p.at(&TokenKind::Comma) {
                        p.bump();
                    } else {
                        break;
                    }
                }
            }
            p.expect(&TokenKind::RParen)?;
            Ok(args)
        })
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(i) => {
                self.bump();
                Ok(Expr::Lit(Literal::Int(i)))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::Lit(Literal::Float(v)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Lit(Literal::Str(s)))
            }
            TokenKind::Kw(Keyword::True) => {
                self.bump();
                Ok(Expr::Lit(Literal::Bool(true)))
            }
            TokenKind::Kw(Keyword::False) => {
                self.bump();
                Ok(Expr::Lit(Literal::Bool(false)))
            }
            TokenKind::Kw(Keyword::Null) => {
                self.bump();
                Ok(Expr::Lit(Literal::Null))
            }
            TokenKind::LParen => self.nested(|p| {
                p.bump();
                let e = p.expr()?;
                p.expect(&TokenKind::RParen)?;
                Ok(e)
            }),
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(&TokenKind::LParen) {
                    let args = self.call_args()?;
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_find_max_score() {
        // The paper's Figure 2, expressed in `imp`.
        let src = r#"
            fn findMaxScore() {
                boards = executeQuery("SELECT * FROM board WHERE rnd_id = 1");
                scoreMax = 0;
                for (t in boards) {
                    p1 = t.p1;
                    p2 = t.p2;
                    p3 = t.p3;
                    p4 = t.p4;
                    score = max(p1, p2);
                    score = max(score, p3);
                    score = max(score, p4);
                    if (score > scoreMax)
                        scoreMax = score;
                }
                return scoreMax;
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "findMaxScore");
        assert_eq!(f.body.stmts.len(), 4);
        match &f.body.stmts[2].kind {
            StmtKind::ForEach { var, body, .. } => {
                assert_eq!(var, "t");
                assert_eq!(body.stmts.len(), 8);
            }
            other => panic!("expected for-each, got {other:?}"),
        }
    }

    #[test]
    fn single_statement_bodies() {
        let p = parse_program("fn f() { if (x > 0) y = 1; else y = 2; }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                assert_eq!(then_branch.stmts.len(), 1);
                assert_eq!(else_branch.stmts.len(), 1);
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn else_if_chains() {
        let p =
            parse_program("fn f() { if (a) { x = 1; } else if (b) { x = 2; } else { x = 3; } }")
                .unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::If { else_branch, .. } => {
                assert_eq!(else_branch.stmts.len(), 1);
                assert!(matches!(else_branch.stmts[0].kind, StmtKind::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn method_calls_and_fields() {
        let p = parse_program("fn f() { names.add(u.name); n = names.size(); }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::Expr(Expr::MethodCall { recv, name, args }) => {
                assert_eq!(**recv, Expr::var("names"));
                assert_eq!(name, "add");
                assert_eq!(
                    args[0],
                    Expr::Field(Box::new(Expr::var("u")), "name".into())
                );
            }
            other => panic!("expected method call, got {other:?}"),
        }
    }

    #[test]
    fn precedence_binds_correctly() {
        let p = parse_program("fn f() { x = a + b * c > d && e; }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::Assign { value, .. } => {
                // ((a + (b*c)) > d) && e
                match value {
                    Expr::Binary(BinaryOp::And, l, _) => {
                        assert!(matches!(**l, Expr::Binary(BinaryOp::Gt, _, _)));
                    }
                    other => panic!("expected &&, got {other:?}"),
                }
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn ternary_expression() {
        let p = parse_program("fn f() { x = a > 0 ? a : 0 - a; }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::Assign {
                value: Expr::Ternary(..),
                ..
            } => {}
            other => panic!("expected ternary assign, got {other:?}"),
        }
    }

    #[test]
    fn statement_ids_are_unique_and_ordered() {
        let p = parse_program("fn f() { a = 1; b = 2; for (t in q) { c = 3; } }").unwrap();
        let b = &p.functions[0].body;
        assert!(b.stmts[0].id < b.stmts[1].id);
        match &b.stmts[2].kind {
            StmtKind::ForEach { body, .. } => assert!(b.stmts[2].id < body.stmts[0].id),
            other => panic!("expected for-each, got {other:?}"),
        }
    }

    #[test]
    fn error_reports_position() {
        let err = parse_program("fn f() { x = ; }").unwrap_err();
        assert_eq!(err.offset, 13);
        assert!(err.message.contains("expected expression"));
    }

    #[test]
    fn print_statement() {
        let p = parse_program("fn f() { print(\"x=\", x); }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::Print(args) => assert_eq!(args.len(), 2),
            other => panic!("expected print, got {other:?}"),
        }
    }

    #[test]
    fn break_and_continue() {
        let p = parse_program("fn f() { for (t in q) { if (t.x > 3) break; continue; } }").unwrap();
        match &p.functions[0].body.stmts[0].kind {
            StmtKind::ForEach { body, .. } => {
                assert!(matches!(body.stmts[1].kind, StmtKind::Continue));
            }
            other => panic!("expected for-each, got {other:?}"),
        }
    }

    /// `prefix`, `open` × n, `body`, `close` × n, `suffix`. The function's
    /// own block is one level, so n = `MAX_DEPTH` - 1 is at the cap.
    fn nest(shape: &(&str, &str, &str, &str, &str, usize), n: usize) -> String {
        let (prefix, open, body, close, suffix, _) = shape;
        format!(
            "{prefix}{}{body}{}{suffix}",
            open.repeat(n),
            close.repeat(n)
        )
    }

    /// One shape per kind of level: (prefix, open, body, close, suffix, at),
    /// where `at` is the offset in `open` of the token opening the level.
    const SHAPES: [(&str, &str, &str, &str, &str, usize); 7] = [
        ("fn f(x) { y = ", "(", "x", ")", "; }", 0),
        ("fn f(x) { y = ", "-", "x", "", "; }", 0),
        ("fn f(x) { y = ", "!", "x", "", "; }", 0),
        ("fn f(x) { y = ", "g(", "x", ")", "; }", 1),
        ("fn f(x) { y = ", "x ? ", "x", " : x", "; }", 2),
        ("fn f(x) { ", "if (x) {", "y = x;", "}", " }", 7),
        // A single-statement body opens its level at the statement.
        ("fn f(x) { ", "while (x) ", "y = x;", "", " }", 10),
    ];

    #[test]
    fn operands_are_capped_per_expression() {
        // `terms` operands joined by `op`, as one assigned expression.
        let chain = |term: &str, op: &str, terms: usize| {
            format!(
                "fn f(x) {{ y = {}; return y; }}",
                vec![term; terms].join(op)
            )
        };
        for (term, op) in [
            ("x", " + "),
            ("x", " * "),
            ("x", " && "),
            ("(x)", " < "),
            ("x", "."),
        ] {
            let src = chain(term, op, MAX_OPERANDS);
            parse_program(&src).unwrap_or_else(|e| panic!("{op}: {e}"));
            let err = parse_program(&chain(term, op, MAX_OPERANDS + 1)).unwrap_err();
            assert!(err.message.contains("operands"), "{err}");
            // The error points at the operator that joins one too many.
            let joined = "fn f(x) { y = ".len() + (term.len() + op.len()) * MAX_OPERANDS;
            assert_eq!(
                err.offset,
                joined - op.len() + op.find(|c| c != ' ').unwrap(),
                "{op}"
            );
        }
        // Operands inside parentheses and call arguments count towards
        // the expression around them ...
        let half = vec!["x"; MAX_OPERANDS / 2].join(" + ");
        let nested = format!("fn f(x) {{ y = g({half}) + ({half} + x); }}");
        assert!(parse_program(&nested)
            .unwrap_err()
            .message
            .contains("operands"));
        // ... but every statement's expression has a count of its own.
        let each = format!("fn f(x) {{ y = {half}; z = {half}; print({half}, {half}); }}");
        parse_program(&each).unwrap();
    }

    #[test]
    fn nesting_is_capped_at_the_opening_token() {
        for shape in &SHAPES {
            let src = nest(shape, MAX_DEPTH - 1);
            parse_program(&src).unwrap_or_else(|e| panic!("{e}: {src}"));
            let err = parse_program(&nest(shape, MAX_DEPTH)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
            let (prefix, open, .., at) = shape;
            assert_eq!(
                err.offset,
                prefix.len() + open.len() * (MAX_DEPTH - 1) + at,
                "{open}"
            );
        }
        // `else if` chains nest too: each `else` body is one level deeper.
        let chain = |n: usize| format!("fn f(x) {{ {}y = 0; }}", "if (x) y = 1; else ".repeat(n));
        parse_program(&chain(MAX_DEPTH - 1)).unwrap();
        assert!(parse_program(&chain(MAX_DEPTH)).is_err());
    }

    #[test]
    fn five_thousand_parentheses_are_an_error_not_an_abort() {
        let src = format!(
            "fn f(x) {{ y = {}x{}; return y; }}",
            "(".repeat(5000),
            ")".repeat(5000)
        );
        let err = parse_program(&src).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn multiple_functions() {
        let p = parse_program("fn a() { return 1; } fn b(x, y) { return x; }").unwrap();
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.functions[1].params, vec!["x", "y"]);
    }
}
