//! Dialect-aware SQL generation from relational algebra (paper Sec. 5.2).
//!
//! The renderer folds chains of σ/π/τ/δ/γ over a single source into one
//! `SELECT` block and falls back to derived tables (`(…) AS sqN`) whenever
//! the block already carries a conflicting clause. The output is meant to be
//! read by humans (it appears in the rewritten program), so blocks are kept
//! as flat as possible.

use std::fmt::Write as _;

use crate::dialect::Dialect;
use crate::dml::{InsertSource, Stmt};
use crate::ra::{JoinKind, RaExpr, SortOrder};
use crate::scalar::{Scalar, ScalarFunc, UnOp};

/// Render a relational algebra expression to a SQL `SELECT` statement.
pub fn to_sql(expr: &RaExpr, dialect: Dialect) -> String {
    Ctx::new(dialect, false).query(expr)
}

/// Render to SQL and report the *textual* order of parameters: the `i`-th
/// `?` of the returned string corresponds to `Param(order[i])` of the input.
///
/// Rewritten programs re-parse their SQL strings at run time, and the parser
/// numbers `?` placeholders left to right — this function lets the rewriter
/// pass `executeQuery` arguments in exactly that order.
pub fn to_sql_with_params(expr: &RaExpr, dialect: Dialect) -> (String, Vec<usize>) {
    untag_params(&Ctx::new(dialect, true).query(expr))
}

/// Render a DML statement to SQL: the inverse of
/// [`crate::parse::parse_statement`].
pub fn stmt_to_sql(stmt: &Stmt, dialect: Dialect) -> String {
    Ctx::new(dialect, false).statement(stmt)
}

/// [`stmt_to_sql`] plus the textual order of its parameters, as
/// [`to_sql_with_params`] reports it for a query.
pub fn stmt_to_sql_with_params(stmt: &Stmt, dialect: Dialect) -> (String, Vec<usize>) {
    untag_params(&Ctx::new(dialect, true).statement(stmt))
}

/// Strip `?/*i*/` tags, returning the clean SQL and the parameter order.
///
/// The scan is quote-aware: a `?/*` inside a `'…'` string literal (with
/// `''` as the quote escape) is user data, not a tag, and is copied
/// verbatim. Sequences that merely look like tags but carry no `*/`
/// terminator or a non-numeric index are likewise left untouched — this
/// function never panics on any rendered SQL.
fn untag_params(tagged: &str) -> (String, Vec<usize>) {
    let mut out = String::with_capacity(tagged.len());
    let mut order = Vec::new();
    let mut rest = tagged;
    // Next candidate tag and next string literal; literals win when they
    // start first, since tags inside them are inert text.
    while let Some(tag) = rest.find("?/*") {
        if let Some(q) = rest.find('\'').filter(|q| *q < tag) {
            // Copy the whole literal (respecting the '' escape) and rescan.
            let mut end = q + 1;
            let bytes = rest.as_bytes();
            while end < bytes.len() {
                if bytes[end] == b'\'' {
                    if bytes.get(end + 1) == Some(&b'\'') {
                        end += 2;
                        continue;
                    }
                    end += 1;
                    break;
                }
                end += 1;
            }
            out.push_str(&rest[..end]);
            rest = &rest[end..];
            continue;
        }
        let after = &rest[tag + 3..];
        let parsed = after
            .find("*/")
            .and_then(|e| after[..e].parse::<usize>().ok().map(|n| (e, n)));
        match parsed {
            Some((e, n)) => {
                out.push_str(&rest[..tag]);
                out.push('?');
                order.push(n);
                rest = &after[e + 2..];
            }
            None => {
                // Not a tag we emitted; keep the text and move past the `?`.
                out.push_str(&rest[..tag + 1]);
                rest = &rest[tag + 1..];
            }
        }
    }
    out.push_str(rest);
    (out, order)
}

/// Render a scalar expression to SQL.
pub fn scalar_to_sql(expr: &Scalar, dialect: Dialect) -> String {
    Ctx::new(dialect, false).scalar(expr)
}

struct Ctx {
    dialect: Dialect,
    next_alias: usize,
    tag_params: bool,
}

/// One `FROM` item: a base table or a derived table.
enum FromItem {
    Table { name: String, alias: Option<String> },
    Derived { sql: String, alias: String },
}

enum JoinStyle {
    On(JoinKind, String),
    Lateral,
}

/// A single `SELECT` block under construction.
struct Block {
    distinct: bool,
    /// `None` means `SELECT *`.
    select: Option<Vec<(String, String)>>,
    from: FromItem,
    joins: Vec<(JoinStyle, FromItem)>,
    where_: Option<String>,
    group_by: Option<Vec<String>>,
    order_by: Vec<String>,
    limit: Option<u64>,
}

impl Block {
    fn fresh(from: FromItem) -> Block {
        Block {
            distinct: false,
            select: None,
            from,
            joins: Vec::new(),
            where_: None,
            group_by: None,
            order_by: Vec::new(),
            limit: None,
        }
    }
}

impl Ctx {
    /// A fresh renderer; `tag_params` writes `?i` as `?/*i*/`.
    fn new(dialect: Dialect, tag_params: bool) -> Ctx {
        Ctx {
            dialect,
            next_alias: 0,
            tag_params,
        }
    }

    fn fresh_alias(&mut self) -> String {
        self.next_alias += 1;
        format!("sq{}", self.next_alias)
    }

    fn block(&mut self, expr: &RaExpr) -> Block {
        match expr {
            RaExpr::Table { name, alias } => Block::fresh(FromItem::Table {
                name: name.clone(),
                alias: alias.clone(),
            }),
            RaExpr::Values { columns, rows } => {
                let mut sql = String::from("SELECT ");
                // Render VALUES as a UNION ALL of selects for maximal dialect
                // portability of this internal construct.
                let mut parts = Vec::new();
                for row in rows {
                    let cols: Vec<String> = row
                        .iter()
                        .zip(columns)
                        .map(|(v, c)| format!("{v} AS {c}"))
                        .collect();
                    parts.push(cols.join(", "));
                }
                if parts.is_empty() {
                    // Empty VALUES: a select with an always-false predicate.
                    let cols: Vec<String> =
                        columns.iter().map(|c| format!("NULL AS {c}")).collect();
                    let _ = write!(sql, "{} WHERE 1 = 0", cols.join(", "));
                } else {
                    sql = parts
                        .into_iter()
                        .map(|p| format!("SELECT {p}"))
                        .collect::<Vec<_>>()
                        .join(" UNION ALL ");
                }
                let alias = self.fresh_alias();
                Block::fresh(FromItem::Derived { sql, alias })
            }
            RaExpr::Select { input, pred } => {
                let mut b = self.block(input);
                // σ over γ/δ/τ would change semantics if merged: wrap.
                if b.group_by.is_some() || b.distinct || !b.order_by.is_empty() || b.limit.is_some()
                {
                    b = self.wrap(b);
                }
                let p = self.scalar(pred);
                b.where_ = Some(match b.where_.take() {
                    Some(w) => format!("{w} AND {p}"),
                    None => p,
                });
                b
            }
            RaExpr::Project { input, items } => {
                let mut b = self.block(input);
                if b.select.is_some() || b.group_by.is_some() || b.distinct {
                    b = self.wrap(b);
                }
                b.select = Some(
                    items
                        .iter()
                        .map(|i| (self.scalar(&i.expr), i.alias.clone()))
                        .collect(),
                );
                b
            }
            RaExpr::Join {
                left,
                right,
                pred,
                kind,
            } => {
                let mut lb = self.block(left);
                if !is_plain(&lb) {
                    lb = self.wrap(lb);
                }
                let rf = self.as_from_item(right);
                let p = self.scalar(pred);
                lb.joins.push((JoinStyle::On(*kind, p), rf));
                lb
            }
            RaExpr::OuterApply { left, right } => {
                let mut lb = self.block(left);
                if !is_plain(&lb) {
                    lb = self.wrap(lb);
                }
                let rf = self.as_from_item(right);
                lb.joins.push((JoinStyle::Lateral, rf));
                lb
            }
            RaExpr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let mut b = self.block(input);
                if b.select.is_some() || b.group_by.is_some() || b.distinct || b.limit.is_some() {
                    b = self.wrap(b);
                }
                let mut select = Vec::new();
                let mut keys = Vec::new();
                for g in group_by {
                    let e = self.scalar(&g.expr);
                    keys.push(e.clone());
                    select.push((e, g.alias.clone()));
                }
                for a in aggs {
                    let arg = self.scalar(&a.arg);
                    select.push((format!("{}({arg})", a.func.sql()), a.alias.clone()));
                }
                b.select = Some(select);
                b.group_by = if keys.is_empty() {
                    Some(Vec::new())
                } else {
                    Some(keys)
                };
                b
            }
            RaExpr::Sort { input, keys } => {
                let mut b = self.block(input);
                if b.limit.is_some() {
                    b = self.wrap(b);
                }
                b.order_by = keys
                    .iter()
                    .map(|k| {
                        let e = self.scalar(&k.expr);
                        match k.order {
                            SortOrder::Asc => e,
                            SortOrder::Desc => format!("{e} DESC"),
                        }
                    })
                    .collect();
                b
            }
            RaExpr::Dedup { input } => {
                let mut b = self.block(input);
                if b.distinct || b.group_by.is_some() || b.limit.is_some() {
                    b = self.wrap(b);
                }
                b.distinct = true;
                b
            }
            RaExpr::Limit { input, count } => {
                let mut b = self.block(input);
                if b.limit.is_some() {
                    b = self.wrap(b);
                }
                b.limit = Some(*count);
                b
            }
            RaExpr::Aliased { input, alias } => Block::fresh(FromItem::Derived {
                sql: self.query(input),
                alias: alias.clone(),
            }),
        }
    }

    fn query(&mut self, q: &RaExpr) -> String {
        let b = self.block(q);
        self.render_block(&b)
    }

    fn statement(&mut self, stmt: &Stmt) -> String {
        let mut out;
        let filter = match stmt {
            Stmt::Insert {
                table,
                columns,
                source,
            } => {
                out = format!("INSERT INTO {table}");
                if let Some(cols) = columns {
                    let _ = write!(out, " ({})", cols.join(", "));
                }
                match source {
                    InsertSource::Values(vals) => {
                        let vals: Vec<String> = vals.iter().map(|v| self.scalar(v)).collect();
                        let _ = write!(out, " VALUES ({})", vals.join(", "));
                    }
                    InsertSource::Query(q) => {
                        let _ = write!(out, " {}", self.query(q));
                    }
                }
                None
            }
            Stmt::Update {
                table,
                sets,
                filter,
            } => {
                let sets: Vec<String> = sets
                    .iter()
                    .map(|(c, e)| format!("{c} = {}", self.scalar(e)))
                    .collect();
                out = format!("UPDATE {table} SET {}", sets.join(", "));
                filter.as_ref()
            }
            Stmt::UpdateFrom {
                table,
                sets,
                source,
                alias,
                key,
                source_key,
            } => {
                let sets: Vec<String> = sets
                    .iter()
                    .map(|(c, s)| format!("{c} = {alias}.{s}"))
                    .collect();
                out = format!(
                    "UPDATE {table} SET {} FROM ({}) AS {alias} WHERE {key} = {alias}.{source_key}",
                    sets.join(", "),
                    self.query(source)
                );
                None
            }
            Stmt::Delete { table, filter } => {
                out = format!("DELETE FROM {table}");
                filter.as_ref()
            }
            Stmt::DeleteIn {
                table,
                column,
                query,
            } => {
                out = format!(
                    "DELETE FROM {table} WHERE {column} IN ({})",
                    self.query(query)
                );
                None
            }
        };
        if let Some(p) = filter {
            let _ = write!(out, " WHERE {}", self.scalar(p));
        }
        out
    }

    fn as_from_item(&mut self, expr: &RaExpr) -> FromItem {
        match expr {
            RaExpr::Table { name, alias } => FromItem::Table {
                name: name.clone(),
                alias: alias.clone(),
            },
            RaExpr::Aliased { input, alias } => {
                // The alias is the binding other parts of the query use —
                // keep it rather than inventing a fresh one.
                FromItem::Derived {
                    sql: self.query(input),
                    alias: alias.clone(),
                }
            }
            other => FromItem::Derived {
                sql: self.query(other),
                alias: self.fresh_alias(),
            },
        }
    }

    fn wrap(&mut self, b: Block) -> Block {
        let sql = self.render_block(&b);
        Block::fresh(FromItem::Derived {
            sql,
            alias: self.fresh_alias(),
        })
    }

    fn render_from_item(&self, item: &FromItem) -> String {
        match item {
            FromItem::Table { name, alias } => match alias {
                Some(a) if a != name => format!("{name} AS {a}"),
                _ => name.clone(),
            },
            FromItem::Derived { sql, alias } => format!("({sql}) AS {alias}"),
        }
    }

    fn render_block(&self, b: &Block) -> String {
        let mut out = String::from("SELECT ");
        if b.distinct {
            out.push_str("DISTINCT ");
        }
        match &b.select {
            None => out.push('*'),
            Some(items) => {
                let parts: Vec<String> = items
                    .iter()
                    .map(|(e, a)| {
                        if e == a {
                            e.clone()
                        } else {
                            format!("{e} AS {a}")
                        }
                    })
                    .collect();
                out.push_str(&parts.join(", "));
            }
        }
        let _ = write!(out, " FROM {}", self.render_from_item(&b.from));
        for (style, item) in &b.joins {
            match style {
                JoinStyle::On(kind, pred) => {
                    let kw = match kind {
                        JoinKind::Inner => "JOIN",
                        JoinKind::LeftOuter => "LEFT JOIN",
                    };
                    let _ = write!(out, " {kw} {} ON {pred}", self.render_from_item(item));
                }
                JoinStyle::Lateral => {
                    if self.dialect.has_outer_apply() {
                        let _ = write!(out, " OUTER APPLY {}", self.render_from_item(item));
                    } else {
                        let _ = write!(
                            out,
                            " LEFT JOIN LATERAL {} ON TRUE",
                            self.render_from_item(item)
                        );
                    }
                }
            }
        }
        if let Some(w) = &b.where_ {
            let _ = write!(out, " WHERE {w}");
        }
        if let Some(g) = &b.group_by {
            if !g.is_empty() {
                let _ = write!(out, " GROUP BY {}", g.join(", "));
            }
        }
        if !b.order_by.is_empty() {
            let _ = write!(out, " ORDER BY {}", b.order_by.join(", "));
        }
        if let Some(n) = b.limit {
            let _ = write!(out, " LIMIT {n}");
        }
        out
    }

    fn scalar(&mut self, e: &Scalar) -> String {
        match e {
            Scalar::Lit(l) => l.to_string(),
            Scalar::Col(c) => c.to_string(),
            Scalar::Param(i) => {
                if self.tag_params {
                    format!("?/*{i}*/")
                } else {
                    "?".to_string()
                }
            }
            Scalar::Bin(op, l, r) => {
                format!("({} {} {})", self.scalar(l), op.sql(), self.scalar(r))
            }
            Scalar::Un(op, x) => match op {
                UnOp::Neg => format!("(-{})", self.scalar(x)),
                UnOp::Not => format!("(NOT {})", self.scalar(x)),
                UnOp::IsNull => format!("({} IS NULL)", self.scalar(x)),
                UnOp::IsNotNull => format!("({} IS NOT NULL)", self.scalar(x)),
            },
            Scalar::Func(f, args) => self.func(*f, args),
            Scalar::Case { arms, otherwise } => {
                let mut out = String::from("CASE");
                for (c, v) in arms {
                    let _ = write!(out, " WHEN {} THEN {}", self.scalar(c), self.scalar(v));
                }
                let _ = write!(out, " ELSE {} END", self.scalar(otherwise));
                out
            }
            // A nested query numbers its derived-table aliases afresh.
            Scalar::Exists(q) => {
                let sub = Ctx::new(self.dialect, self.tag_params).query(q);
                format!("EXISTS ({sub})")
            }
            Scalar::Subquery(q) => {
                format!("({})", Ctx::new(self.dialect, self.tag_params).query(q))
            }
        }
    }

    fn func(&mut self, f: ScalarFunc, args: &[Scalar]) -> String {
        let rendered: Vec<String> = args.iter().map(|a| self.scalar(a)).collect();
        match f {
            ScalarFunc::Greatest | ScalarFunc::Least if !self.dialect.has_greatest() => {
                // CASE WHEN chain, per paper footnote 2.
                let op = if f == ScalarFunc::Greatest {
                    ">="
                } else {
                    "<="
                };
                rendered
                    .iter()
                    .cloned()
                    .reduce(|a, b| format!("(CASE WHEN {a} {op} {b} THEN {a} ELSE {b} END)"))
                    .unwrap_or_else(|| "NULL".to_string())
            }
            ScalarFunc::Concat if self.dialect.concat_is_operator() => rendered
                .iter()
                .cloned()
                .reduce(|a, b| format!("({a} || {b})"))
                .unwrap_or_else(|| "''".to_string()),
            _ => format!("{}({})", f.name(), rendered.join(", ")),
        }
    }
}

fn is_plain(b: &Block) -> bool {
    b.select.is_none()
        && b.group_by.is_none()
        && !b.distinct
        && b.order_by.is_empty()
        && b.where_.is_none()
        && b.limit.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ra::{AggCall, AggFunc, ProjItem, SortKey};
    use crate::scalar::BinOp;

    fn q() -> RaExpr {
        RaExpr::table("board").select(Scalar::cmp(
            BinOp::Eq,
            Scalar::col("rnd_id"),
            Scalar::int(1),
        ))
    }

    #[test]
    fn select_renders_where() {
        assert_eq!(
            to_sql(&q(), Dialect::Postgres),
            "SELECT * FROM board WHERE (rnd_id = 1)"
        );
    }

    #[test]
    fn project_merges_into_block() {
        let e = q().project(vec![ProjItem::col("p1")]);
        assert_eq!(
            to_sql(&e, Dialect::Postgres),
            "SELECT p1 FROM board WHERE (rnd_id = 1)"
        );
    }

    #[test]
    fn aggregation_with_greatest() {
        // The paper's Figure 3(d):
        // SELECT max(GREATEST(p1,p2,p3,p4)) FROM board WHERE rnd_id = 1.
        let inner = q().project(vec![ProjItem::new(
            Scalar::Func(
                ScalarFunc::Greatest,
                vec![
                    Scalar::col("p1"),
                    Scalar::col("p2"),
                    Scalar::col("p3"),
                    Scalar::col("p4"),
                ],
            ),
            "score",
        )]);
        let e = inner.aggregate(vec![AggCall::new(AggFunc::Max, Scalar::col("score"), "m")]);
        let sql = to_sql(&e, Dialect::Postgres);
        assert_eq!(
            sql,
            "SELECT MAX(score) AS m FROM (SELECT GREATEST(p1, p2, p3, p4) AS score \
             FROM board WHERE (rnd_id = 1)) AS sq1"
        );
    }

    #[test]
    fn greatest_becomes_case_when_on_sqlserver() {
        let e = Scalar::Func(
            ScalarFunc::Greatest,
            vec![Scalar::col("a"), Scalar::col("b")],
        );
        let sql = scalar_to_sql(&e, Dialect::SqlServer);
        assert_eq!(sql, "(CASE WHEN a >= b THEN a ELSE b END)");
    }

    #[test]
    fn join_renders_on_clause() {
        let e = RaExpr::table_as("wilos_user", "u").join(
            RaExpr::table_as("role", "r"),
            Scalar::cmp(
                BinOp::Eq,
                Scalar::qcol("u", "role_id"),
                Scalar::qcol("r", "id"),
            ),
        );
        assert_eq!(
            to_sql(&e, Dialect::Postgres),
            "SELECT * FROM wilos_user AS u JOIN role AS r ON (u.role_id = r.id)"
        );
    }

    #[test]
    fn outer_apply_dialects() {
        let inner = RaExpr::table("person").select(Scalar::cmp(
            BinOp::Eq,
            Scalar::qcol("person", "id"),
            Scalar::qcol("apps", "applicant_id"),
        ));
        let e = RaExpr::table("apps").outer_apply(inner);
        let pg = to_sql(&e, Dialect::Postgres);
        assert!(pg.contains("LEFT JOIN LATERAL"), "{pg}");
        let ms = to_sql(&e, Dialect::SqlServer);
        assert!(ms.contains("OUTER APPLY"), "{ms}");
    }

    #[test]
    fn dedup_renders_distinct() {
        let e = RaExpr::table("t").project(vec![ProjItem::col("a")]).dedup();
        assert_eq!(to_sql(&e, Dialect::Postgres), "SELECT DISTINCT a FROM t");
    }

    #[test]
    fn group_by_renders_keys() {
        let e = RaExpr::table("t").group_by(
            vec![ProjItem::col("g")],
            vec![AggCall::new(AggFunc::Sum, Scalar::col("x"), "s")],
        );
        assert_eq!(
            to_sql(&e, Dialect::Postgres),
            "SELECT g, SUM(x) AS s FROM t GROUP BY g"
        );
    }

    #[test]
    fn sort_renders_order_by() {
        let e = RaExpr::table("t").sort(vec![SortKey::desc(Scalar::col("x"))]);
        assert_eq!(
            to_sql(&e, Dialect::Postgres),
            "SELECT * FROM t ORDER BY x DESC"
        );
    }

    #[test]
    fn selection_after_aggregate_wraps() {
        let e = RaExpr::table("t")
            .aggregate(vec![AggCall::new(AggFunc::Count, Scalar::int(1), "c")])
            .select(Scalar::cmp(BinOp::Gt, Scalar::col("c"), Scalar::int(0)));
        let sql = to_sql(&e, Dialect::Postgres);
        assert_eq!(
            sql,
            "SELECT * FROM (SELECT COUNT(1) AS c FROM t) AS sq1 WHERE (c > 0)"
        );
    }

    #[test]
    fn exists_subquery() {
        let sub =
            RaExpr::table("r").select(Scalar::cmp(BinOp::Eq, Scalar::col("x"), Scalar::Param(0)));
        let e = Scalar::Exists(Box::new(sub));
        assert_eq!(
            scalar_to_sql(&e, Dialect::Postgres),
            "EXISTS (SELECT * FROM r WHERE (x = ?))"
        );
    }

    #[test]
    fn params_render_as_placeholders() {
        let e =
            RaExpr::table("t").select(Scalar::cmp(BinOp::Eq, Scalar::col("a"), Scalar::Param(0)));
        assert_eq!(
            to_sql(&e, Dialect::Postgres),
            "SELECT * FROM t WHERE (a = ?)"
        );
    }

    #[test]
    fn concat_dialects() {
        let e = Scalar::Func(ScalarFunc::Concat, vec![Scalar::str("a"), Scalar::col("b")]);
        assert_eq!(scalar_to_sql(&e, Dialect::Postgres), "('a' || b)");
        assert_eq!(scalar_to_sql(&e, Dialect::Mysql), "CONCAT('a', b)");
    }
}
