//! Parser for the SQL/HQL subset that appears in application source code.
//!
//! Database applications embed queries as strings:
//! `executeQuery("SELECT * FROM board WHERE rnd_id = ?")`. The extractor
//! parses these into [`RaExpr`] so they become algebraic leaves of the
//! ee-DAG (paper Sec. 3.2.1: "Parameterized queries in the source program
//! can be treated as parameterized expressions in the multiset relational
//! algebra").
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```text
//! query    := SELECT [DISTINCT] items FROM source
//!             [WHERE pred] [GROUP BY exprs] [ORDER BY keys]
//!           | FROM source [WHERE pred] …          -- HQL style, implicit *
//! items    := '*' | item (',' item)*
//! item     := expr [AS ident]
//! source   := table [AS? ident] (JOIN table [AS? ident] ON pred)*
//! expr     := literals, idents, qualified idents, '?', arithmetic,
//!             comparisons, AND/OR/NOT, IS [NOT] NULL, function calls,
//!             aggregate calls (COUNT/SUM/MIN/MAX/AVG)
//! ```
//!
//! [`parse_statement`] reads the DML strings given to `executeUpdate` into
//! a [`Stmt`] with the same lexer, `expr` and `query`:
//!
//! ```text
//! stmt     := INSERT INTO table ['(' col (',' col)* ')']
//!                 (VALUES '(' expr (',' expr)* ')' | query)
//!           | UPDATE table SET col '=' expr (',' col '=' expr)* [WHERE expr]
//!           | UPDATE table SET col '=' s.col (',' col '=' s.col)*
//!                 FROM '(' query ')' [AS] s WHERE [table.]col '=' s.col
//!           | DELETE FROM table [WHERE expr]
//!           | DELETE FROM table WHERE col IN '(' query ')'
//!           followed by at most one ';'
//! ```
//!
//! `?` placeholders are numbered left to right into [`Scalar::Param`],
//! over the whole query or statement.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels: each parenthesised
//! expression, subquery, derived table, function call, `CASE`, `NOT` and
//! unary minus opens one. The parser and every pass over its output
//! recurse once per level, so a deeper input is a [`SqlError`] at the
//! token that opens the level past the cap rather than a stack overflow.
//!
//! A chain of binary operators is read in a loop, but it still becomes a
//! tree as deep as the chain is long, which binding, evaluation and
//! rendering recurse over. So one expression may have at most
//! [`MAX_OPERANDS`] operands, counted over the whole expression, nested
//! levels and subqueries included: every binary operator adds one.

#![allow(clippy::if_same_then_else)] // `AS alias` vs bare-alias parse paths are intentionally parallel

use std::fmt;

use crate::dml::{InsertSource, Stmt};
use crate::ra::{AggCall, AggFunc, ProjItem, RaExpr, SortKey, SortOrder};
use crate::scalar::{BinOp, ColRef, Lit, Scalar, ScalarFunc, UnOp};

/// A SQL parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SQL parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for SqlError {}

/// Parse a SQL/HQL query string into relational algebra.
pub fn parse_sql(input: &str) -> Result<RaExpr, SqlError> {
    let mut p = Parser::new(input)?;
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

/// Parse a DML statement (the `stmt` grammar above) into a [`Stmt`].
pub fn parse_statement(input: &str) -> Result<Stmt, SqlError> {
    let mut p = Parser::new(input)?;
    let stmt = p.statement()?;
    if matches!(p.peek(), Some(Tok::Punct(';'))) {
        p.pos += 1;
    }
    p.expect_end()?;
    Ok(stmt)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok<'a> {
    /// An identifier or keyword, borrowed from the input.
    Ident(&'a str),
    Int(i64),
    Float(f64),
    Str(String),
    Punct(char),
    Le,
    Ge,
    Ne,
    /// `||` — string concatenation.
    PipePipe,
    Question,
}

#[derive(Debug, Clone, PartialEq)]
struct SpTok<'a> {
    tok: Tok<'a>,
    offset: usize,
}

fn lex(input: &str) -> Result<Vec<SpTok<'_>>, SqlError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::with_capacity(input.len() / 4);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        if let Some(tok) = operator(&input[i..]) {
            toks.push(SpTok { tok, offset: start });
            i += 2;
            continue;
        }
        match c {
            'a'..='z' | 'A'..='Z' | '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                toks.push(SpTok {
                    tok: Tok::Ident(&input[i..j]),
                    offset: start,
                });
                i = j;
            }
            '0'..='9' => {
                let mut j = i;
                let mut is_float = false;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                if j < bytes.len()
                    && bytes[j] == b'.'
                    && j + 1 < bytes.len()
                    && (bytes[j + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    j += 1;
                    while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        j += 1;
                    }
                }
                let text = &input[i..j];
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|_| SqlError {
                        message: format!("bad float literal {text}"),
                        offset: start,
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| SqlError {
                        message: format!("bad integer literal {text}"),
                        offset: start,
                    })?)
                };
                toks.push(SpTok { tok, offset: start });
                i = j;
            }
            '\'' => {
                // Copy whole runs between quotes so multi-byte characters
                // stay intact; `''` is an escaped quote.
                let mut j = i + 1;
                let mut s = String::new();
                loop {
                    let Some(run) = input[j..].find('\'') else {
                        return Err(SqlError {
                            message: "unterminated string literal".into(),
                            offset: start,
                        });
                    };
                    s.push_str(&input[j..j + run]);
                    j += run + 1;
                    if bytes.get(j) == Some(&b'\'') {
                        s.push('\'');
                        j += 1;
                    } else {
                        break;
                    }
                }
                toks.push(SpTok {
                    tok: Tok::Str(s),
                    offset: start,
                });
                i = j;
            }
            '?' => {
                toks.push(SpTok {
                    tok: Tok::Question,
                    offset: start,
                });
                i += 1;
            }
            '*' | ',' | '(' | ')' | '.' | '=' | '<' | '>' | '+' | '-' | '/' | '%' | ';' => {
                toks.push(SpTok {
                    tok: Tok::Punct(c),
                    offset: start,
                });
                i += 1;
            }
            _ => {
                let other = input[i..].chars().next().unwrap_or(c);
                return Err(SqlError {
                    message: format!("unexpected character {other:?}"),
                    offset: start,
                });
            }
        }
    }
    Ok(toks)
}

/// The two-character operator `rest` starts with, if any.
fn operator(rest: &str) -> Option<Tok<'static>> {
    Some(match rest.get(..2)? {
        "<=" => Tok::Le,
        ">=" => Tok::Ge,
        "<>" | "!=" => Tok::Ne,
        "||" => Tok::PipePipe,
        _ => return None,
    })
}

/// The deepest nesting a query or statement may have (see the module
/// comment). Nested subqueries are the costliest level to parse: about
/// 100 of them fill a 2 MiB thread stack in a debug build, so a query at
/// this cap parses, binds and executes there with room to spare.
pub const MAX_DEPTH: usize = 64;

/// The most operands one expression may have (see the module comment).
/// Half of `imp::parser::MAX_OPERANDS`: binding and evaluating a chain
/// take larger frames than the imp passes do. On the 8 MiB stack the CLI
/// and the service workers run on, a release build aborted running a
/// `WHERE` chain of 19,000 operands with `eqsql run` (18,000 passed) and
/// extracting one of 22,000 (21,000 passed).
pub const MAX_OPERANDS: usize = 10_000;

struct Parser<'a> {
    tokens: Vec<SpTok<'a>>,
    pos: usize,
    params: usize,
    /// Nesting levels open at `pos`.
    depth: usize,
    /// Operands read so far in the outermost expression being parsed; 0
    /// outside any expression.
    operands: usize,
}

/// A select item before aggregate/projection splitting.
enum Item {
    Star,
    Expr {
        expr: ParsedExpr,
        alias: Option<String>,
    },
}

/// A parsed select expression: either a plain scalar or an aggregate call.
enum ParsedExpr {
    Scalar(Scalar),
    Agg(AggFunc, Scalar),
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Parser<'a>, SqlError> {
        Ok(Parser {
            tokens: lex(input)?,
            pos: 0,
            params: 0,
            depth: 0,
            operands: 0,
        })
    }

    /// Run `f` one nesting level deeper; `at` is the offset of the token
    /// that opens the level, where the error points past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        at: usize,
        f: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if self.depth == MAX_DEPTH {
            return Err(SqlError {
                message: format!("nesting deeper than {MAX_DEPTH} levels"),
                offset: at,
            });
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    /// Count one more operand of the current expression; the error points
    /// at the operator that would join one past [`MAX_OPERANDS`].
    fn operand(&mut self) -> Result<(), SqlError> {
        if self.operands == MAX_OPERANDS {
            return Err(SqlError {
                message: format!("more than {MAX_OPERANDS} operands in one expression"),
                offset: self.offset(),
            });
        }
        self.operands += 1;
        Ok(())
    }

    fn offset(&self) -> usize {
        match self.tokens.get(self.pos) {
            Some(t) => t.offset,
            None => self.tokens.last().map_or(0, |t| t.offset),
        }
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> SqlError {
        SqlError {
            message: message.into(),
            offset: self.offset(),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}")))
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), SqlError> {
        match self.peek() {
            Some(Tok::Punct(p)) if *p == c => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected {c:?}"))),
        }
    }

    fn expect_end(&self) -> Result<(), SqlError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.err("trailing tokens after query"))
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s.to_string()),
            _ => Err(self.err("expected identifier")),
        }
    }

    fn query(&mut self) -> Result<RaExpr, SqlError> {
        let (distinct, items) = if self.eat_kw("select") {
            let distinct = self.eat_kw("distinct");
            (distinct, self.items()?)
        } else if self.at_kw("from") {
            // HQL style: "from Board as b where …" — implicit SELECT *.
            (false, vec![Item::Star])
        } else {
            return Err(self.err("expected SELECT or FROM"));
        };
        self.expect_kw("from")?;
        let mut source = self.table_ref()?;
        loop {
            if self.at_kw("outer") {
                // `OUTER APPLY <from-item>` (SQL Server spelling).
                self.pos += 1;
                self.expect_kw("apply")?;
                let right = self.table_ref()?;
                source = RaExpr::OuterApply {
                    left: Box::new(source),
                    right: Box::new(right),
                };
                continue;
            }
            if !(self.at_kw("join") || self.at_kw("inner") || self.at_kw("left")) {
                break;
            }
            let kind = if self.eat_kw("inner") {
                self.expect_kw("join")?;
                crate::ra::JoinKind::Inner
            } else if self.eat_kw("left") {
                self.eat_kw("outer");
                self.expect_kw("join")?;
                crate::ra::JoinKind::LeftOuter
            } else {
                self.expect_kw("join")?;
                crate::ra::JoinKind::Inner
            };
            if self.eat_kw("lateral") {
                // `LEFT JOIN LATERAL (…) [AS a] ON TRUE` → OUTER APPLY.
                let right = self.table_ref()?;
                self.expect_kw("on")?;
                let cond = self.expr()?;
                if cond != Scalar::Lit(Lit::Bool(true)) {
                    return Err(self.err("LATERAL joins must use ON TRUE"));
                }
                source = RaExpr::OuterApply {
                    left: Box::new(source),
                    right: Box::new(right),
                };
                continue;
            }
            let right = self.table_ref()?;
            self.expect_kw("on")?;
            let pred = self.expr()?;
            source = RaExpr::Join {
                left: Box::new(source),
                right: Box::new(right),
                pred,
                kind,
            };
        }
        if self.eat_kw("where") {
            let pred = self.expr()?;
            source = source.select(pred);
        }
        let mut group_keys = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_keys.push(self.expr()?);
                if !matches!(self.peek(), Some(Tok::Punct(','))) {
                    break;
                }
                self.pos += 1;
            }
        }

        // Parse ORDER BY up front; where it attaches depends on the shape:
        // for plain SELECTs the sort keys reference pre-projection columns,
        // so τ goes *below* π (π preserves order); for aggregates/DISTINCT
        // it goes on top, referencing output aliases.
        let mut sort_keys = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let order = if self.eat_kw("desc") {
                    SortOrder::Desc
                } else {
                    self.eat_kw("asc");
                    SortOrder::Asc
                };
                sort_keys.push(SortKey { expr: e, order });
                if !matches!(self.peek(), Some(Tok::Punct(','))) {
                    break;
                }
                self.pos += 1;
            }
        }

        // Split items into projections vs aggregates.
        let has_agg = items.iter().any(|i| {
            matches!(
                i,
                Item::Expr {
                    expr: ParsedExpr::Agg(..),
                    ..
                }
            )
        });
        let result = if has_agg || !group_keys.is_empty() {
            let mut gb = Vec::new();
            let mut aggs = Vec::new();
            let mut n = 0usize;
            for item in &items {
                match item {
                    Item::Star => {
                        return Err(self.err("SELECT * cannot be combined with aggregates"))
                    }
                    Item::Expr { expr, alias } => {
                        n += 1;
                        match expr {
                            ParsedExpr::Scalar(s) => {
                                let alias = alias.clone().unwrap_or_else(|| default_alias(s, n));
                                gb.push(ProjItem::new(s.clone(), alias));
                            }
                            ParsedExpr::Agg(f, arg) => {
                                let alias = alias.clone().unwrap_or_else(|| format!("col{n}"));
                                aggs.push(AggCall::new(*f, arg.clone(), alias));
                            }
                        }
                    }
                }
            }
            // Non-aggregate select items must be grouping keys; when GROUP BY
            // was written explicitly we trust it, otherwise grouping is empty.
            let group_by = if group_keys.is_empty() {
                if !gb.is_empty() {
                    return Err(self.err("non-aggregate select item without GROUP BY"));
                }
                Vec::new()
            } else {
                // Keep the select-list order/aliases for the group keys.
                gb
            };
            RaExpr::Aggregate {
                input: Box::new(source),
                group_by,
                aggs,
            }
        } else {
            let is_star = items.len() == 1 && matches!(items[0], Item::Star);
            // ORDER BY may reference either source columns (sort below the
            // projection — π preserves order) or select-list aliases (sort
            // above). Keys naming only output aliases attach above.
            let aliases: Vec<&str> = items
                .iter()
                .filter_map(|i| match i {
                    Item::Expr { alias: Some(a), .. } => Some(a.as_str()),
                    _ => None,
                })
                .collect();
            let keys_use_aliases = !is_star
                && !sort_keys.is_empty()
                && sort_keys.iter().all(|k| {
                    k.expr
                        .columns()
                        .iter()
                        .all(|c| c.qualifier.is_none() && aliases.contains(&c.column.as_str()))
                });
            if !sort_keys.is_empty() && !keys_use_aliases {
                source = source.sort(std::mem::take(&mut sort_keys));
            }
            if is_star {
                source
            } else {
                let mut proj = Vec::new();
                let mut n = 0usize;
                for item in items {
                    match item {
                        Item::Star => {
                            return Err(self.err("* mixed with expressions is unsupported"))
                        }
                        Item::Expr { expr, alias } => {
                            n += 1;
                            let s = match expr {
                                ParsedExpr::Scalar(s) => s,
                                ParsedExpr::Agg(..) => unreachable!("handled above"),
                            };
                            let alias = alias.unwrap_or_else(|| default_alias(&s, n));
                            proj.push(ProjItem::new(s, alias));
                        }
                    }
                }
                source.project(proj)
            }
        };

        let mut result = result;
        if !sort_keys.is_empty() {
            // Aggregate/other shapes: sort on top, over output aliases.
            result = result.sort(sort_keys);
        }
        if distinct {
            result = result.dedup();
        }
        if self.eat_kw("limit") {
            match self.bump() {
                Some(Tok::Int(n)) if n >= 0 => result = result.limit(n as u64),
                _ => return Err(self.err("expected row count after LIMIT")),
            }
        }
        Ok(result)
    }

    fn items(&mut self) -> Result<Vec<Item>, SqlError> {
        let mut out = Vec::new();
        loop {
            if matches!(self.peek(), Some(Tok::Punct('*'))) {
                self.pos += 1;
                out.push(Item::Star);
            } else {
                let expr = self.select_expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else if matches!(self.peek(), Some(Tok::Ident(s))
                    if !is_keyword(s))
                {
                    Some(self.ident()?)
                } else {
                    None
                };
                out.push(Item::Expr { expr, alias });
            }
            if matches!(self.peek(), Some(Tok::Punct(','))) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn select_expr(&mut self) -> Result<ParsedExpr, SqlError> {
        // Aggregate call at top level of a select item?
        if let Some(Tok::Ident(name)) = self.peek() {
            if let Some(f) = agg_func(name) {
                if matches!(
                    self.tokens.get(self.pos + 1).map(|t| &t.tok),
                    Some(Tok::Punct('('))
                ) {
                    self.pos += 2;
                    let arg = if matches!(self.peek(), Some(Tok::Punct('*'))) {
                        self.pos += 1;
                        Scalar::int(1)
                    } else {
                        self.expr()?
                    };
                    self.expect_punct(')')?;
                    return Ok(ParsedExpr::Agg(f, arg));
                }
            }
        }
        Ok(ParsedExpr::Scalar(self.expr()?))
    }

    fn table_ref(&mut self) -> Result<RaExpr, SqlError> {
        if matches!(self.peek(), Some(Tok::Punct('('))) {
            // Derived table `(SELECT …) [AS] alias`.
            let inner = self.nested(self.offset(), |p| {
                p.pos += 1;
                let inner = p.query()?;
                p.expect_punct(')')?;
                Ok(inner)
            })?;
            let alias = if self.eat_kw("as") {
                Some(self.ident()?)
            } else if matches!(self.peek(), Some(Tok::Ident(s)) if !is_keyword(s)) {
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(match alias {
                Some(a) => RaExpr::Aliased {
                    input: Box::new(inner),
                    alias: a,
                },
                None => inner,
            });
        }
        let name = self.name()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if matches!(self.peek(), Some(Tok::Ident(s)) if !is_keyword(s)) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(RaExpr::Table { name, alias })
    }

    // Precedence climbing: or < and < not < cmp < add < mul < unary.
    fn expr(&mut self) -> Result<Scalar, SqlError> {
        if self.operands > 0 {
            return self.or_expr();
        }
        self.operands = 1;
        let e = self.or_expr();
        self.operands = 0;
        e
    }

    fn or_expr(&mut self) -> Result<Scalar, SqlError> {
        let mut lhs = self.and_expr()?;
        while self.at_kw("or") {
            self.operand()?;
            self.pos += 1;
            let rhs = self.and_expr()?;
            lhs = Scalar::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Scalar, SqlError> {
        let mut lhs = self.not_expr()?;
        while self.at_kw("and") {
            self.operand()?;
            self.pos += 1;
            let rhs = self.not_expr()?;
            lhs = Scalar::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Scalar, SqlError> {
        let at = self.offset();
        if self.eat_kw("not") {
            let e = self.nested(at, Self::not_expr)?;
            Ok(Scalar::Un(UnOp::Not, Box::new(e)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Scalar, SqlError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Punct('=')) => Some(BinOp::Eq),
            Some(Tok::Ne) => Some(BinOp::Ne),
            Some(Tok::Punct('<')) => Some(BinOp::Lt),
            Some(Tok::Punct('>')) => Some(BinOp::Gt),
            Some(Tok::Le) => Some(BinOp::Le),
            Some(Tok::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.operand()?;
            self.pos += 1;
            let rhs = self.add_expr()?;
            return Ok(Scalar::Bin(op, Box::new(lhs), Box::new(rhs)));
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            let op = if negated {
                UnOp::IsNotNull
            } else {
                UnOp::IsNull
            };
            return Ok(Scalar::Un(op, Box::new(lhs)));
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Scalar, SqlError> {
        let mut lhs = self.mul_expr()?;
        loop {
            if matches!(self.peek(), Some(Tok::PipePipe)) {
                self.operand()?;
                self.pos += 1;
                let rhs = self.mul_expr()?;
                // Flatten chained concatenation into one call.
                lhs = match lhs {
                    Scalar::Func(ScalarFunc::Concat, mut args) => {
                        args.push(rhs);
                        Scalar::Func(ScalarFunc::Concat, args)
                    }
                    other => Scalar::Func(ScalarFunc::Concat, vec![other, rhs]),
                };
                continue;
            }
            let op = match self.peek() {
                Some(Tok::Punct('+')) => BinOp::Add,
                Some(Tok::Punct('-')) => BinOp::Sub,
                _ => break,
            };
            self.operand()?;
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Scalar::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Scalar, SqlError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct('*')) => BinOp::Mul,
                Some(Tok::Punct('/')) => BinOp::Div,
                Some(Tok::Punct('%')) => BinOp::Mod,
                _ => break,
            };
            self.operand()?;
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = Scalar::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Scalar, SqlError> {
        if matches!(self.peek(), Some(Tok::Punct('-'))) {
            let e = self.nested(self.offset(), |p| {
                p.pos += 1;
                p.unary_expr()
            })?;
            return Ok(Scalar::Un(UnOp::Neg, Box::new(e)));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Scalar, SqlError> {
        let at = self.offset();
        match self.bump() {
            Some(Tok::Int(i)) => Ok(Scalar::Lit(Lit::Int(i))),
            Some(Tok::Float(v)) => Ok(Scalar::Lit(Lit::float(v))),
            Some(Tok::Str(s)) => Ok(Scalar::Lit(Lit::Str(s))),
            Some(Tok::Question) => {
                let idx = self.params;
                self.params += 1;
                Ok(Scalar::Param(idx))
            }
            Some(Tok::Punct('(')) => self.nested(at, |p| {
                if p.at_kw("select") || p.at_kw("from") {
                    let q = p.query()?;
                    p.expect_punct(')')?;
                    return Ok(Scalar::Subquery(Box::new(q)));
                }
                let e = p.expr()?;
                p.expect_punct(')')?;
                Ok(e)
            }),
            Some(Tok::Ident(name)) => {
                let keyword = ["null", "true", "false", "exists", "case"]
                    .into_iter()
                    .find(|k| name.eq_ignore_ascii_case(k));
                match keyword.unwrap_or_default() {
                    "null" => return Ok(Scalar::Lit(Lit::Null)),
                    "true" => return Ok(Scalar::Lit(Lit::Bool(true))),
                    "false" => return Ok(Scalar::Lit(Lit::Bool(false))),
                    "exists" => {
                        let q = self.nested(at, |p| {
                            p.expect_punct('(')?;
                            let q = p.query()?;
                            p.expect_punct(')')?;
                            Ok(q)
                        })?;
                        return Ok(Scalar::Exists(Box::new(q)));
                    }
                    "case" => return self.nested(at, Self::case_expr),
                    _ => {}
                }
                if matches!(self.peek(), Some(Tok::Punct('('))) {
                    // Scalar function call.
                    let args = self.nested(at, |p| {
                        p.pos += 1;
                        let mut args = Vec::new();
                        if !matches!(p.peek(), Some(Tok::Punct(')'))) {
                            loop {
                                args.push(p.expr()?);
                                if matches!(p.peek(), Some(Tok::Punct(','))) {
                                    p.pos += 1;
                                } else {
                                    break;
                                }
                            }
                        }
                        p.expect_punct(')')?;
                        Ok(args)
                    })?;
                    let f = scalar_func(&name.to_ascii_lowercase())
                        .ok_or_else(|| self.err(format!("unknown function {name}")))?;
                    return Ok(Scalar::Func(f, args));
                }
                if matches!(self.peek(), Some(Tok::Punct('.'))) {
                    self.pos += 1;
                    let col = self.ident()?;
                    return Ok(Scalar::Col(ColRef::qualified(name, col)));
                }
                Ok(Scalar::Col(ColRef::new(name)))
            }
            other => Err(SqlError {
                message: format!("unexpected token {other:?} in expression"),
                offset: self.offset(),
            }),
        }
    }
}

impl Parser<'_> {
    /// A lowercased table or column name.
    fn name(&mut self) -> Result<String, SqlError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s.to_ascii_lowercase()),
            _ => Err(self.err("expected identifier")),
        }
    }

    /// `item (',' item)*`.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, SqlError>,
    ) -> Result<Vec<T>, SqlError> {
        let mut out = vec![item(self)?];
        while matches!(self.peek(), Some(Tok::Punct(','))) {
            self.pos += 1;
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn statement(&mut self) -> Result<Stmt, SqlError> {
        if self.eat_kw("insert") {
            self.expect_kw("into")?;
            let table = self.name()?;
            let columns = if matches!(self.peek(), Some(Tok::Punct('('))) {
                self.pos += 1;
                let cols = self.list(Self::name)?;
                self.expect_punct(')')?;
                Some(cols)
            } else {
                None
            };
            let source = if self.eat_kw("values") {
                self.expect_punct('(')?;
                let vals = self.list(Self::expr)?;
                self.expect_punct(')')?;
                InsertSource::Values(vals)
            } else {
                InsertSource::Query(self.query()?)
            };
            Ok(Stmt::Insert {
                table,
                columns,
                source,
            })
        } else if self.eat_kw("update") {
            let table = self.name()?;
            self.expect_kw("set")?;
            let sets = self.list(|p| {
                let col = p.name()?;
                p.expect_punct('=')?;
                Ok((col, p.expr()?))
            })?;
            if self.eat_kw("from") {
                return self.update_from(table, sets);
            }
            let filter = if self.eat_kw("where") {
                Some(self.expr()?)
            } else {
                None
            };
            Ok(Stmt::Update {
                table,
                sets,
                filter,
            })
        } else if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.name()?;
            if !self.eat_kw("where") {
                return Ok(Stmt::Delete {
                    table,
                    filter: None,
                });
            }
            let in_subquery = matches!(
                self.tokens.get(self.pos + 1).map(|t| &t.tok),
                Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("in")
            );
            if !in_subquery {
                return Ok(Stmt::Delete {
                    table,
                    filter: Some(self.expr()?),
                });
            }
            let column = self.name()?;
            self.pos += 1;
            self.expect_punct('(')?;
            let query = self.query()?;
            self.expect_punct(')')?;
            Ok(Stmt::DeleteIn {
                table,
                column,
                query,
            })
        } else {
            Err(self.err("expected INSERT, UPDATE or DELETE"))
        }
    }

    /// The rest of `UPDATE table SET … FROM (query) AS s WHERE key = s.k`
    /// (`FROM` already consumed): every `SET` value and the key's right
    /// side must be columns of the derived table.
    fn update_from(
        &mut self,
        table: String,
        sets: Vec<(String, Scalar)>,
    ) -> Result<Stmt, SqlError> {
        let (source, alias) = match self.table_ref()? {
            RaExpr::Aliased { input, alias } => (*input, alias),
            _ => return Err(self.err("UPDATE … FROM needs a derived table `(SELECT …) AS s`")),
        };
        let of_source = |e: &Scalar| match e {
            Scalar::Col(ColRef {
                qualifier: Some(q),
                column,
            }) if q.eq_ignore_ascii_case(&alias) => Some(column.clone()),
            _ => None,
        };
        let mut source_sets = Vec::with_capacity(sets.len());
        for (col, val) in &sets {
            let src = of_source(val)
                .ok_or_else(|| self.err(format!("SET {col} must take a column of `{alias}`")))?;
            source_sets.push((col.clone(), src));
        }
        self.expect_kw("where")?;
        let join = self.expr()?;
        let (key, source_key) = match &join {
            Scalar::Bin(BinOp::Eq, l, r) => match (l.as_ref(), of_source(r)) {
                (Scalar::Col(k), Some(src))
                    if k.qualifier
                        .as_deref()
                        .is_none_or(|q| q.eq_ignore_ascii_case(&table)) =>
                {
                    (k.clone(), src)
                }
                _ => {
                    return Err(self.err(format!("UPDATE … FROM needs WHERE <col> = {alias}.<col>")))
                }
            },
            _ => return Err(self.err(format!("UPDATE … FROM needs WHERE <col> = {alias}.<col>"))),
        };
        Ok(Stmt::UpdateFrom {
            table,
            sets: source_sets,
            source,
            alias,
            key,
            source_key,
        })
    }

    /// `CASE WHEN c THEN v [WHEN …] ELSE e END` (the `case` keyword was
    /// already consumed).
    fn case_expr(&mut self) -> Result<Scalar, SqlError> {
        let mut arms = Vec::new();
        while self.eat_kw("when") {
            let c = self.expr()?;
            self.expect_kw("then")?;
            let v = self.expr()?;
            arms.push((c, v));
        }
        if arms.is_empty() {
            return Err(self.err("CASE requires at least one WHEN arm"));
        }
        self.expect_kw("else")?;
        let otherwise = self.expr()?;
        self.expect_kw("end")?;
        Ok(Scalar::Case {
            arms,
            otherwise: Box::new(otherwise),
        })
    }
}

fn is_keyword(s: &str) -> bool {
    [
        "select", "from", "where", "group", "order", "by", "join", "inner", "left", "outer", "on",
        "and", "or", "not", "as", "distinct", "asc", "desc", "is", "null", "limit", "lateral",
        "apply", "exists", "case", "when", "then", "else", "end", "union", "all",
    ]
    .iter()
    .any(|k| s.eq_ignore_ascii_case(k))
}

fn agg_func(name: &str) -> Option<AggFunc> {
    [
        ("sum", AggFunc::Sum),
        ("min", AggFunc::Min),
        ("max", AggFunc::Max),
        ("count", AggFunc::Count),
        ("avg", AggFunc::Avg),
    ]
    .into_iter()
    .find_map(|(n, f)| name.eq_ignore_ascii_case(n).then_some(f))
}

fn scalar_func(name: &str) -> Option<ScalarFunc> {
    Some(match name {
        "greatest" => ScalarFunc::Greatest,
        "least" => ScalarFunc::Least,
        "abs" => ScalarFunc::Abs,
        "concat" => ScalarFunc::Concat,
        "lower" => ScalarFunc::Lower,
        "upper" => ScalarFunc::Upper,
        "length" => ScalarFunc::Length,
        "coalesce" => ScalarFunc::Coalesce,
        _ => return None,
    })
}

fn default_alias(s: &Scalar, n: usize) -> String {
    match s {
        Scalar::Col(c) => c.column.clone(),
        _ => format!("col{n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::to_sql;
    use crate::Dialect;

    fn roundtrip(sql: &str) -> String {
        to_sql(&parse_sql(sql).unwrap(), Dialect::Postgres)
    }

    #[test]
    fn operands_are_capped_per_expression() {
        // A tree this deep is dropped recursively: give the test the stack
        // the CLI and the service give an unoptimised build.
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(operand_cap)
            .unwrap()
            .join()
            .unwrap();
    }

    fn operand_cap() {
        let head = "SELECT * FROM t WHERE ";
        let chain = |op: &str, terms: usize| format!("{head}{}", vec!["a"; terms].join(op));
        for op in [" + ", " * ", " || ", " AND ", " OR "] {
            parse_sql(&chain(op, MAX_OPERANDS)).unwrap_or_else(|e| panic!("{op}: {e}"));
            let err = parse_sql(&chain(op, MAX_OPERANDS + 1)).unwrap_err();
            assert!(err.message.contains("operands"), "{err}");
            // The error points at the operator that joins one too many.
            assert_eq!(
                err.offset,
                head.len() + (1 + op.len()) * MAX_OPERANDS - op.len() + 1,
                "{op}"
            );
        }
        // A comparison joins two operands, and a subquery's operands count
        // towards the expression it sits in ...
        let half = vec!["a"; MAX_OPERANDS / 2].join(" + ");
        let sub = format!("{head}{half} + a > (SELECT MAX({half}) FROM t)");
        assert!(
            matches!(parse_sql(&sub), Err(e) if e.message.contains("operands")),
            "a subquery's operands count"
        );
        // ... while each select item, and each statement, counts its own.
        parse_sql(&format!("SELECT {half}, {half} FROM t WHERE {half} > 0")).unwrap();
        let update = format!("UPDATE t SET a = {half}, b = {half} WHERE {half} = 0");
        parse_statement(&update).unwrap();
    }

    #[test]
    fn select_star_where() {
        let e = parse_sql("SELECT * FROM board WHERE rnd_id = 1").unwrap();
        assert_eq!(
            e,
            RaExpr::table("board").select(Scalar::cmp(
                BinOp::Eq,
                Scalar::col("rnd_id"),
                Scalar::int(1)
            ))
        );
    }

    #[test]
    fn hql_style_from_with_alias() {
        let e = parse_sql("from Board as b where b.rnd_id = 1").unwrap();
        assert_eq!(
            e,
            RaExpr::table_as("board", "b").select(Scalar::cmp(
                BinOp::Eq,
                Scalar::qcol("b", "rnd_id"),
                Scalar::int(1)
            ))
        );
    }

    #[test]
    fn projection_with_aliases() {
        let e = parse_sql("SELECT p1, p2 AS second FROM board").unwrap();
        assert_eq!(
            e,
            RaExpr::table("board").project(vec![
                ProjItem::col("p1"),
                ProjItem::new(Scalar::col("p2"), "second"),
            ])
        );
    }

    #[test]
    fn parameters_number_left_to_right() {
        let e = parse_sql("SELECT * FROM t WHERE a = ? AND b < ?").unwrap();
        assert_eq!(e.max_param(), Some(1));
    }

    #[test]
    fn join_on_predicate() {
        let s = roundtrip(
            "SELECT * FROM wilos_user u JOIN role r ON u.role_id = r.id WHERE r.name = 'admin'",
        );
        assert_eq!(
            s,
            "SELECT * FROM wilos_user AS u JOIN role AS r ON (u.role_id = r.id) \
             WHERE (r.name = 'admin')"
        );
    }

    #[test]
    fn aggregate_without_group() {
        let e = parse_sql("SELECT MAX(score) AS m FROM results").unwrap();
        match &e {
            RaExpr::Aggregate { group_by, aggs, .. } => {
                assert!(group_by.is_empty());
                assert_eq!(aggs.len(), 1);
                assert_eq!(aggs[0].alias, "m");
                assert_eq!(aggs[0].func, AggFunc::Max);
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn group_by_with_keys() {
        let e = parse_sql("SELECT dept, SUM(salary) total FROM emp GROUP BY dept").unwrap();
        match &e {
            RaExpr::Aggregate { group_by, aggs, .. } => {
                assert_eq!(group_by.len(), 1);
                assert_eq!(group_by[0].alias, "dept");
                assert_eq!(aggs[0].alias, "total");
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn count_star() {
        let e = parse_sql("SELECT COUNT(*) AS n FROM t").unwrap();
        match &e {
            RaExpr::Aggregate { aggs, .. } => assert_eq!(aggs[0].arg, Scalar::int(1)),
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn order_by_desc() {
        let s = roundtrip("SELECT * FROM t ORDER BY x DESC, y");
        assert_eq!(s, "SELECT * FROM t ORDER BY x DESC, y");
    }

    #[test]
    fn distinct_renders_dedup() {
        let e = parse_sql("SELECT DISTINCT name FROM t").unwrap();
        assert!(matches!(e, RaExpr::Dedup { .. }));
    }

    #[test]
    fn string_escape_roundtrip() {
        let e = parse_sql("SELECT * FROM t WHERE name = 'o''clock'").unwrap();
        let s = to_sql(&e, Dialect::Postgres);
        assert!(s.contains("'o''clock'"), "{s}");
    }

    #[test]
    fn non_ascii_string_literal_keeps_its_characters() {
        let e = parse_sql("SELECT * FROM t WHERE msg = 'café ''ü'''").unwrap();
        assert_eq!(
            e,
            RaExpr::table("t").select(Scalar::cmp(
                BinOp::Eq,
                Scalar::col("msg"),
                Scalar::str("café 'ü'")
            ))
        );
        let err = parse_sql("SELECT * FROM t WHERE msg = é").unwrap_err();
        assert!(err.message.contains("'é'"), "{}", err.message);
    }

    #[test]
    fn is_null_and_not() {
        let e = parse_sql("SELECT * FROM t WHERE a IS NULL AND NOT b IS NOT NULL").unwrap();
        let s = to_sql(&e, Dialect::Postgres);
        assert!(s.contains("IS NULL"), "{s}");
        assert!(s.contains("NOT"), "{s}");
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_sql("SELECT * FROM t WHERE a + b * 2 > 10").unwrap();
        let s = to_sql(&e, Dialect::Postgres);
        assert_eq!(s, "SELECT * FROM t WHERE ((a + (b * 2)) > 10)");
    }

    #[test]
    fn errors_are_reported_with_position() {
        let err = parse_sql("SELECT FROM").unwrap_err();
        assert!(err.offset <= "SELECT FROM".len());
        let err2 = parse_sql("SELECT * FROM t WHERE @").unwrap_err();
        assert!(err2.message.contains("unexpected character"));
        // Nesting past the cap points at the token that opens the level
        // one past it, in queries and statements alike; at the cap it
        // parses.
        for (head, open, leaf, close, tail) in [
            ("SELECT * FROM t WHERE ", "(", "a", ")", ""),
            ("SELECT * FROM t WHERE ", "NOT ", "a", "", ""),
            ("SELECT * FROM t WHERE a = ", "-", "1", "", ""),
            ("SELECT ", "ABS(", "a", ")", " FROM t"),
            (
                "SELECT * FROM t WHERE ",
                "EXISTS (SELECT * FROM t WHERE ",
                "a",
                ")",
                "",
            ),
            ("SELECT * FROM ", "(SELECT * FROM ", "t", ")", ""),
            (
                "DELETE FROM t WHERE a = ",
                "CASE WHEN a THEN ",
                "1",
                " ELSE 2 END",
                "",
            ),
        ] {
            let parse = |depth: usize| {
                let sql = format!(
                    "{head}{}{leaf}{}{tail}",
                    open.repeat(depth),
                    close.repeat(depth)
                );
                match head {
                    "DELETE FROM t WHERE a = " => parse_statement(&sql).map(|_| ()),
                    _ => parse_sql(&sql).map(|_| ()),
                }
            };
            assert_eq!(parse(MAX_DEPTH), Ok(()), "{open}");
            let err = parse(MAX_DEPTH + 1).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
            assert_eq!(err.offset, head.len() + open.len() * MAX_DEPTH, "{open}");
        }
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_sql("SELECT * FROM t garbage garbage").is_err());
    }

    #[test]
    fn statements_parse_and_render_back() {
        use crate::render::stmt_to_sql;
        for sql in [
            "INSERT INTO log VALUES (?, 'it''s', NULL)",
            "INSERT INTO payout (emp_id, amount) SELECT e.id AS emp_id, e.salary AS amount FROM emp AS e WHERE (e.salary >= ?)",
            "UPDATE emp SET salary = ?, dept = 'x' WHERE (id = ?)",
            "UPDATE emp SET id = (id + 10)",
            "UPDATE emp SET salary = s.v0 FROM (SELECT e.id AS k0, (e.salary + 1) AS v0 FROM emp AS e) AS s WHERE emp.id = s.k0",
            "DELETE FROM emp",
            "DELETE FROM log WHERE ((msg = 'a') OR (id = 2))",
            "DELETE FROM emp WHERE id IN (SELECT e.id AS k0 FROM emp AS e WHERE (e.salary < ?))",
        ] {
            let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!(stmt_to_sql(&stmt, Dialect::Postgres), sql);
        }
    }

    #[test]
    fn statement_params_number_over_the_whole_statement() {
        let s = parse_statement("update EMP set Salary = ? where id = ?;").unwrap();
        assert_eq!(
            s,
            Stmt::Update {
                table: "emp".into(),
                sets: vec![("salary".into(), Scalar::Param(0))],
                filter: Some(Scalar::cmp(BinOp::Eq, Scalar::col("id"), Scalar::Param(1))),
            }
        );
        assert_eq!(s.verb(), "UPDATE");
        assert_eq!(s.table(), "emp");
    }

    #[test]
    fn malformed_statements_are_errors() {
        for sql in [
            "MERGE INTO log USING x",
            "DELETE FROM t;;",
            "INSERT INTO t VALUES (1",
            "UPDATE t SET a = 1 FROM u WHERE t.id = u.id",
            "UPDATE t SET a = 1 FROM (SELECT id FROM u) AS s WHERE id = s.id",
            "UPDATE t SET a = s.a FROM (SELECT id, a FROM u) AS s WHERE id > s.id",
            "UPDATE t SET a = s.a FROM (SELECT id, a FROM u) AS s WHERE x.id = s.id",
        ] {
            assert!(parse_statement(sql).is_err(), "{sql}");
        }
    }

    #[test]
    fn left_join_parses() {
        let e = parse_sql("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y").unwrap();
        match e {
            RaExpr::Join { kind, .. } => assert_eq!(kind, crate::ra::JoinKind::LeftOuter),
            other => panic!("expected join, got {other:?}"),
        }
    }
}
