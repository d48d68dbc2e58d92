//! The multiset extended relational algebra (paper Sec. 3.2.1).
//!
//! Operators: base table scan, σ (selection), π (projection **without**
//! duplicate elimination, order preserving), ⨝ (join), γ (grouping and
//! aggregation), τ (sort), δ (duplicate elimination), and `OUTER APPLY`
//! (Appendix B, Rule T7). A `Values` node represents a literal relation and
//! is used by the batching baseline's parameter tables.

use std::fmt;

use crate::scalar::{Lit, Scalar};
use crate::schema::Catalog;

/// Aggregate functions supported by γ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `SUM`.
    Sum,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
    /// `COUNT` (of non-null argument values, or `COUNT(*)` when the argument
    /// is a literal `1`).
    Count,
    /// `AVG`.
    Avg,
}

impl AggFunc {
    /// SQL name of the aggregate.
    pub fn sql(self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Count => "COUNT",
            AggFunc::Avg => "AVG",
        }
    }

    /// The identity element of the underlying binary operator, when one
    /// exists (paper Rule T5.1: `id` must be the identity for `op`).
    pub fn identity(self) -> Option<Lit> {
        match self {
            AggFunc::Sum | AggFunc::Count => Some(Lit::Int(0)),
            AggFunc::Max => Some(Lit::Int(i64::MIN)),
            AggFunc::Min => Some(Lit::Int(i64::MAX)),
            AggFunc::Avg => None,
        }
    }
}

/// One aggregate call in a γ node: `alias := func(arg)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression, evaluated per input row.
    pub arg: Scalar,
    /// Output column name.
    pub alias: String,
}

impl AggCall {
    /// Build an aggregate call.
    pub fn new(func: AggFunc, arg: Scalar, alias: impl Into<String>) -> Self {
        AggCall {
            func,
            arg,
            alias: alias.into(),
        }
    }
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join.
    LeftOuter,
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// One sort key of a τ node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SortKey {
    /// Key expression.
    pub expr: Scalar,
    /// Direction.
    pub order: SortOrder,
}

impl SortKey {
    /// Ascending sort on an expression.
    pub fn asc(expr: Scalar) -> Self {
        SortKey {
            expr,
            order: SortOrder::Asc,
        }
    }

    /// Descending sort on an expression.
    pub fn desc(expr: Scalar) -> Self {
        SortKey {
            expr,
            order: SortOrder::Desc,
        }
    }
}

/// A projection item: `alias := expr`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProjItem {
    /// Value expression.
    pub expr: Scalar,
    /// Output column name.
    pub alias: String,
}

impl ProjItem {
    /// Build a projection item.
    pub fn new(expr: Scalar, alias: impl Into<String>) -> Self {
        ProjItem {
            expr,
            alias: alias.into(),
        }
    }

    /// Project a plain column under its own name.
    pub fn col(name: &str) -> Self {
        ProjItem {
            expr: Scalar::col(name),
            alias: name.to_string(),
        }
    }
}

/// A relational-algebra expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RaExpr {
    /// Scan of a base table, with an optional alias binding its columns.
    Table {
        /// Base table name.
        name: String,
        /// Alias for qualified column references; defaults to the name.
        alias: Option<String>,
    },
    /// A literal relation (used for batching parameter tables).
    Values {
        /// Output column names.
        columns: Vec<String>,
        /// Row literals.
        rows: Vec<Vec<Lit>>,
    },
    /// σ — keep rows satisfying `pred`.
    Select {
        /// Input relation.
        input: Box<RaExpr>,
        /// Selection predicate.
        pred: Scalar,
    },
    /// π — order-preserving projection without duplicate elimination.
    Project {
        /// Input relation.
        input: Box<RaExpr>,
        /// Output items.
        items: Vec<ProjItem>,
    },
    /// ⨝ — join of two relations on a predicate.
    Join {
        /// Left input.
        left: Box<RaExpr>,
        /// Right input.
        right: Box<RaExpr>,
        /// Join predicate.
        pred: Scalar,
        /// Inner or left-outer.
        kind: JoinKind,
    },
    /// `OUTER APPLY` — for each left row, evaluate the (correlated) right
    /// side; when the right side is empty, pad with NULLs (Appendix B).
    OuterApply {
        /// Outer relation.
        left: Box<RaExpr>,
        /// Correlated inner relation; may reference `left` columns.
        right: Box<RaExpr>,
    },
    /// γ — group by `group_by` expressions and compute `aggs`.
    ///
    /// With an empty `group_by`, produces exactly one row (standard SQL
    /// semantics: aggregates over the whole input, NULL-aware).
    Aggregate {
        /// Input relation.
        input: Box<RaExpr>,
        /// Grouping expressions with output names.
        group_by: Vec<ProjItem>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
    },
    /// τ — stable sort on keys.
    Sort {
        /// Input relation.
        input: Box<RaExpr>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// δ — duplicate elimination (keeps first occurrence, preserving order).
    Dedup {
        /// Input relation.
        input: Box<RaExpr>,
    },
    /// `LIMIT n` — keep the first `n` rows. Used by the argmax/argmin
    /// dependent-aggregation extraction (Appendix B: "a combination of
    /// ORDER BY and LIMIT").
    Limit {
        /// Input relation.
        input: Box<RaExpr>,
        /// Maximum number of rows to keep.
        count: u64,
    },
    /// A derived table `(…) AS alias`: requalifies the inner relation's
    /// columns under `alias`. Produced when parsing rendered SQL back.
    Aliased {
        /// Inner relation.
        input: Box<RaExpr>,
        /// The new qualifier for all output columns.
        alias: String,
    },
}

impl RaExpr {
    /// Scan a base table under its own name.
    pub fn table(name: impl Into<String>) -> Self {
        RaExpr::Table {
            name: name.into(),
            alias: None,
        }
    }

    /// Scan a base table under an alias.
    pub fn table_as(name: impl Into<String>, alias: impl Into<String>) -> Self {
        RaExpr::Table {
            name: name.into(),
            alias: Some(alias.into()),
        }
    }

    /// σ over this relation (merging with `TRUE` handled by `Scalar::and`).
    pub fn select(self, pred: Scalar) -> Self {
        RaExpr::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// π over this relation.
    pub fn project(self, items: Vec<ProjItem>) -> Self {
        RaExpr::Project {
            input: Box::new(self),
            items,
        }
    }

    /// Inner join.
    pub fn join(self, right: RaExpr, pred: Scalar) -> Self {
        RaExpr::Join {
            left: Box::new(self),
            right: Box::new(right),
            pred,
            kind: JoinKind::Inner,
        }
    }

    /// Left outer join.
    pub fn left_join(self, right: RaExpr, pred: Scalar) -> Self {
        RaExpr::Join {
            left: Box::new(self),
            right: Box::new(right),
            pred,
            kind: JoinKind::LeftOuter,
        }
    }

    /// `OUTER APPLY` with a correlated right side.
    pub fn outer_apply(self, right: RaExpr) -> Self {
        RaExpr::OuterApply {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// γ with no grouping (single-row aggregate).
    pub fn aggregate(self, aggs: Vec<AggCall>) -> Self {
        RaExpr::Aggregate {
            input: Box::new(self.strip_order()),
            group_by: Vec::new(),
            aggs,
        }
    }

    /// γ with grouping.
    pub fn group_by(self, group_by: Vec<ProjItem>, aggs: Vec<AggCall>) -> Self {
        RaExpr::Aggregate {
            input: Box::new(self.strip_order()),
            group_by,
            aggs,
        }
    }

    /// Remove τ nodes whose ordering cannot affect the value of an
    /// enclosing aggregate.
    ///
    /// Every [`AggFunc`] is order-insensitive, so a `Sort` feeding a γ is
    /// dead weight — worse, rendering it inline produces `SELECT COUNT(…)
    /// FROM t ORDER BY c`, which real dialects (and `dbms::eval`) reject
    /// because `c` no longer exists in the aggregate's output. Strips along
    /// σ/δ spines (δ only discards *identical* rows, so which duplicate
    /// survives is unobservable); `Limit` is a hard barrier — which rows it
    /// keeps depends on order.
    fn strip_order(self) -> Self {
        match self {
            RaExpr::Sort { input, .. } => input.strip_order(),
            RaExpr::Select { input, pred } => RaExpr::Select {
                input: Box::new(input.strip_order()),
                pred,
            },
            RaExpr::Dedup { input } => RaExpr::Dedup {
                input: Box::new(input.strip_order()),
            },
            other => other,
        }
    }

    /// τ over this relation.
    pub fn sort(self, keys: Vec<SortKey>) -> Self {
        RaExpr::Sort {
            input: Box::new(self),
            keys,
        }
    }

    /// δ over this relation.
    pub fn dedup(self) -> Self {
        RaExpr::Dedup {
            input: Box::new(self),
        }
    }

    /// `LIMIT count` over this relation.
    pub fn limit(self, count: u64) -> Self {
        RaExpr::Limit {
            input: Box::new(self),
            count,
        }
    }

    /// Requalify this relation's columns under `alias`.
    pub fn aliased(self, alias: impl Into<String>) -> Self {
        RaExpr::Aliased {
            input: Box::new(self),
            alias: alias.into(),
        }
    }

    /// Output column names of this expression, resolved against `catalog`.
    ///
    /// Returns `None` when a referenced base table is unknown.
    pub fn output_columns(&self, catalog: &Catalog) -> Option<Vec<String>> {
        match self {
            RaExpr::Table { name, .. } => Some(catalog.get(name)?.column_names()),
            RaExpr::Values { columns, .. } => Some(columns.clone()),
            RaExpr::Select { input, .. }
            | RaExpr::Sort { input, .. }
            | RaExpr::Dedup { input }
            | RaExpr::Limit { input, .. }
            | RaExpr::Aliased { input, .. } => input.output_columns(catalog),
            RaExpr::Project { items, .. } => Some(items.iter().map(|i| i.alias.clone()).collect()),
            RaExpr::Join { left, right, .. } | RaExpr::OuterApply { left, right } => {
                let mut cols = left.output_columns(catalog)?;
                cols.extend(right.output_columns(catalog)?);
                Some(cols)
            }
            RaExpr::Aggregate { group_by, aggs, .. } => {
                let mut cols: Vec<String> = group_by.iter().map(|g| g.alias.clone()).collect();
                cols.extend(aggs.iter().map(|a| a.alias.clone()));
                Some(cols)
            }
        }
    }

    /// Base tables scanned anywhere in this expression (including inside
    /// `Exists`/`Subquery` scalars is *not* attempted here — callers that
    /// care recurse through predicates themselves).
    pub fn base_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let RaExpr::Table { name, .. } = e {
                out.push(name.as_str());
            }
        });
        out
    }

    /// Visit every node of this algebra tree (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a RaExpr)) {
        f(self);
        match self {
            RaExpr::Table { .. } | RaExpr::Values { .. } => {}
            RaExpr::Select { input, .. }
            | RaExpr::Project { input, .. }
            | RaExpr::Aggregate { input, .. }
            | RaExpr::Sort { input, .. }
            | RaExpr::Dedup { input }
            | RaExpr::Limit { input, .. }
            | RaExpr::Aliased { input, .. } => input.walk(f),
            RaExpr::Join { left, right, .. } | RaExpr::OuterApply { left, right } => {
                left.walk(f);
                right.walk(f);
            }
        }
    }

    /// Substitute parameters in every scalar expression of the tree.
    pub fn substitute_params(&self, subs: &[Scalar]) -> RaExpr {
        match self {
            RaExpr::Table { .. } | RaExpr::Values { .. } => self.clone(),
            RaExpr::Select { input, pred } => RaExpr::Select {
                input: Box::new(input.substitute_params(subs)),
                pred: pred.substitute_params(subs),
            },
            RaExpr::Project { input, items } => RaExpr::Project {
                input: Box::new(input.substitute_params(subs)),
                items: items
                    .iter()
                    .map(|i| ProjItem::new(i.expr.substitute_params(subs), i.alias.clone()))
                    .collect(),
            },
            RaExpr::Join {
                left,
                right,
                pred,
                kind,
            } => RaExpr::Join {
                left: Box::new(left.substitute_params(subs)),
                right: Box::new(right.substitute_params(subs)),
                pred: pred.substitute_params(subs),
                kind: *kind,
            },
            RaExpr::OuterApply { left, right } => RaExpr::OuterApply {
                left: Box::new(left.substitute_params(subs)),
                right: Box::new(right.substitute_params(subs)),
            },
            RaExpr::Aggregate {
                input,
                group_by,
                aggs,
            } => RaExpr::Aggregate {
                input: Box::new(input.substitute_params(subs)),
                group_by: group_by
                    .iter()
                    .map(|g| ProjItem::new(g.expr.substitute_params(subs), g.alias.clone()))
                    .collect(),
                aggs: aggs
                    .iter()
                    .map(|a| AggCall::new(a.func, a.arg.substitute_params(subs), a.alias.clone()))
                    .collect(),
            },
            RaExpr::Sort { input, keys } => RaExpr::Sort {
                input: Box::new(input.substitute_params(subs)),
                keys: keys
                    .iter()
                    .map(|k| SortKey {
                        expr: k.expr.substitute_params(subs),
                        order: k.order,
                    })
                    .collect(),
            },
            RaExpr::Dedup { input } => RaExpr::Dedup {
                input: Box::new(input.substitute_params(subs)),
            },
            RaExpr::Limit { input, count } => RaExpr::Limit {
                input: Box::new(input.substitute_params(subs)),
                count: *count,
            },
            RaExpr::Aliased { input, alias } => RaExpr::Aliased {
                input: Box::new(input.substitute_params(subs)),
                alias: alias.clone(),
            },
        }
    }

    /// The scalar expressions this node holds itself (not its inputs').
    pub fn scalars(&self) -> Vec<&Scalar> {
        match self {
            RaExpr::Select { pred, .. } | RaExpr::Join { pred, .. } => vec![pred],
            RaExpr::Project { items, .. } => items.iter().map(|i| &i.expr).collect(),
            RaExpr::Aggregate { group_by, aggs, .. } => group_by
                .iter()
                .map(|g| &g.expr)
                .chain(aggs.iter().map(|a| &a.arg))
                .collect(),
            RaExpr::Sort { keys, .. } => keys.iter().map(|k| &k.expr).collect(),
            _ => Vec::new(),
        }
    }

    /// Highest parameter index appearing anywhere in the tree's scalars.
    pub fn max_param(&self) -> Option<usize> {
        let mut max = None;
        self.walk(&mut |e| {
            for s in e.scalars() {
                s.walk(&mut |n| {
                    if let Scalar::Param(i) = n {
                        max = Some(max.map_or(*i, |m: usize| m.max(*i)));
                    }
                });
            }
        });
        max
    }

    /// Whether the named output column of this relation may hold SQL `NULL`.
    ///
    /// `qualifier` is the column's table qualifier, if the reference had one.
    /// Returns `None` when the column cannot be resolved (unknown table,
    /// unknown column, qualifier that doesn't bind here) — callers should
    /// treat that as "maybe NULL".
    pub fn column_maybe_null(
        &self,
        catalog: &Catalog,
        qualifier: Option<&str>,
        name: &str,
    ) -> Option<bool> {
        match self {
            RaExpr::Table { name: t, alias } => {
                let binding = alias.as_deref().unwrap_or(t);
                if qualifier.is_some_and(|q| q != binding) {
                    return None;
                }
                let schema = catalog.get(t)?;
                schema
                    .columns
                    .iter()
                    .find(|c| c.name == name)
                    .map(|c| c.nullable)
            }
            RaExpr::Values { columns, rows } => {
                if qualifier.is_some() {
                    return None;
                }
                let idx = columns.iter().position(|c| c == name)?;
                Some(rows.iter().any(|r| matches!(r.get(idx), Some(Lit::Null))))
            }
            RaExpr::Select { input, .. }
            | RaExpr::Sort { input, .. }
            | RaExpr::Dedup { input }
            | RaExpr::Limit { input, .. } => input.column_maybe_null(catalog, qualifier, name),
            RaExpr::Aliased { input, alias } => {
                if qualifier.is_some_and(|q| q != alias) {
                    return None;
                }
                input.column_maybe_null(catalog, None, name)
            }
            RaExpr::Project { input, items } => {
                if qualifier.is_some() {
                    return None;
                }
                let item = items.iter().find(|i| i.alias == name)?;
                Some(input.scalar_maybe_null(&item.expr, catalog))
            }
            RaExpr::Join {
                left, right, kind, ..
            } => {
                if let Some(n) = left.column_maybe_null(catalog, qualifier, name) {
                    return Some(n);
                }
                let n = right.column_maybe_null(catalog, qualifier, name)?;
                // Right side of a left-outer join is NULL-padded.
                Some(n || *kind == JoinKind::LeftOuter)
            }
            RaExpr::OuterApply { left, right } => {
                if let Some(n) = left.column_maybe_null(catalog, qualifier, name) {
                    return Some(n);
                }
                // OUTER APPLY pads the right side with NULLs when empty.
                right.column_maybe_null(catalog, qualifier, name)?;
                Some(true)
            }
            RaExpr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                if qualifier.is_some() {
                    return None;
                }
                if let Some(g) = group_by.iter().find(|g| g.alias == name) {
                    return Some(input.scalar_maybe_null(&g.expr, catalog));
                }
                let agg = aggs.iter().find(|a| a.alias == name)?;
                // COUNT is never NULL; SUM/MIN/MAX/AVG are NULL on empty
                // input (and on all-NULL / overflowing input).
                Some(agg.func != AggFunc::Count)
            }
        }
    }

    /// Conservative may-be-NULL analysis for a scalar evaluated against this
    /// relation's output rows. `true` means the expression can produce NULL
    /// for some row; `false` is a proof that it cannot.
    ///
    /// Matches the engine semantics documented in `dbms::eval`: `/` and `%`
    /// are NULL-on-error (division by zero), `CONCAT` skips NULL arguments
    /// and always yields a string, `GREATEST`/`LEAST`/`COALESCE` are NULL
    /// only when every argument is. Query parameters are program inputs
    /// supplied by the harness and assumed non-NULL.
    pub fn scalar_maybe_null(&self, s: &Scalar, catalog: &Catalog) -> bool {
        use crate::scalar::{BinOp, ScalarFunc};
        match s {
            Scalar::Lit(l) => matches!(l, Lit::Null),
            Scalar::Col(c) => self
                .column_maybe_null(catalog, c.qualifier.as_deref(), &c.column)
                .unwrap_or(true),
            Scalar::Param(_) => false,
            Scalar::Bin(BinOp::Div | BinOp::Mod, _, _) => true,
            Scalar::Bin(_, l, r) => {
                self.scalar_maybe_null(l, catalog) || self.scalar_maybe_null(r, catalog)
            }
            Scalar::Un(_, e) => self.scalar_maybe_null(e, catalog),
            Scalar::Func(ScalarFunc::Concat, _) => false,
            Scalar::Func(ScalarFunc::Greatest | ScalarFunc::Least | ScalarFunc::Coalesce, args) => {
                args.iter().all(|a| self.scalar_maybe_null(a, catalog))
            }
            Scalar::Func(_, args) => args.iter().any(|a| self.scalar_maybe_null(a, catalog)),
            Scalar::Case { arms, otherwise } => {
                arms.iter().any(|(_, v)| self.scalar_maybe_null(v, catalog))
                    || self.scalar_maybe_null(otherwise, catalog)
            }
            Scalar::Exists(_) => false,
            Scalar::Subquery(_) => true,
        }
    }

    /// True when the expression is (transitively) just scans, σ, π, τ, δ —
    /// i.e. it preserves a deterministic row order from its input.
    pub fn is_order_deterministic(&self) -> bool {
        match self {
            RaExpr::Table { .. } | RaExpr::Values { .. } => true,
            RaExpr::Select { input, .. }
            | RaExpr::Project { input, .. }
            | RaExpr::Sort { input, .. }
            | RaExpr::Dedup { input }
            | RaExpr::Limit { input, .. }
            | RaExpr::Aliased { input, .. } => input.is_order_deterministic(),
            RaExpr::Join { .. } | RaExpr::OuterApply { .. } | RaExpr::Aggregate { .. } => false,
        }
    }
}

impl fmt::Display for RaExpr {
    /// Algebra-style rendering, e.g. `π[p1](σ[rnd_id = 1](board))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaExpr::Table { name, alias } => match alias {
                Some(a) if a != name => write!(f, "{name} AS {a}"),
                _ => write!(f, "{name}"),
            },
            RaExpr::Values { columns, rows } => {
                write!(f, "VALUES[{}]({} rows)", columns.join(","), rows.len())
            }
            RaExpr::Select { input, pred } => write!(f, "σ[{pred:?}]({input})"),
            RaExpr::Project { input, items } => {
                let cols: Vec<String> = items.iter().map(|i| i.alias.clone()).collect();
                write!(f, "π[{}]({input})", cols.join(","))
            }
            RaExpr::Join {
                left, right, kind, ..
            } => {
                let op = match kind {
                    JoinKind::Inner => "⨝",
                    JoinKind::LeftOuter => "⟕",
                };
                write!(f, "({left} {op} {right})")
            }
            RaExpr::OuterApply { left, right } => write!(f, "({left} OApply {right})"),
            RaExpr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let g: Vec<String> = group_by.iter().map(|x| x.alias.clone()).collect();
                let a: Vec<String> = aggs
                    .iter()
                    .map(|x| format!("{}({:?})", x.func.sql(), x.arg))
                    .collect();
                write!(f, "γ[{}; {}]({input})", g.join(","), a.join(","))
            }
            RaExpr::Sort { input, .. } => write!(f, "τ({input})"),
            RaExpr::Dedup { input } => write!(f, "δ({input})"),
            RaExpr::Limit { input, count } => write!(f, "limit[{count}]({input})"),
            RaExpr::Aliased { input, alias } => write!(f, "({input}) AS {alias}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{SqlType, TableSchema};
    use crate::BinOp;

    fn catalog() -> Catalog {
        Catalog::new()
            .with(
                TableSchema::new("t", &[("a", SqlType::Int), ("b", SqlType::Int)]).with_key(&["a"]),
            )
            .with(TableSchema::new("u", &[("c", SqlType::Int)]))
    }

    #[test]
    fn output_columns_project() {
        let e = RaExpr::table("t").project(vec![ProjItem::col("b")]);
        assert_eq!(e.output_columns(&catalog()), Some(vec!["b".to_string()]));
    }

    #[test]
    fn output_columns_join_concatenates() {
        let e = RaExpr::table("t").join(
            RaExpr::table("u"),
            Scalar::cmp(BinOp::Eq, Scalar::qcol("t", "a"), Scalar::qcol("u", "c")),
        );
        assert_eq!(
            e.output_columns(&catalog()),
            Some(vec!["a".into(), "b".into(), "c".into()])
        );
    }

    #[test]
    fn output_columns_aggregate() {
        let e = RaExpr::table("t").group_by(
            vec![ProjItem::col("a")],
            vec![AggCall::new(AggFunc::Sum, Scalar::col("b"), "s")],
        );
        assert_eq!(
            e.output_columns(&catalog()),
            Some(vec!["a".into(), "s".into()])
        );
    }

    #[test]
    fn unknown_table_has_no_columns() {
        assert_eq!(RaExpr::table("nope").output_columns(&catalog()), None);
    }

    #[test]
    fn base_tables_walks_joins() {
        let e = RaExpr::table("t")
            .join(RaExpr::table("u"), Scalar::bool(true))
            .dedup();
        assert_eq!(e.base_tables(), vec!["t", "u"]);
    }

    #[test]
    fn order_determinism() {
        assert!(RaExpr::table("t")
            .select(Scalar::bool(true))
            .is_order_deterministic());
        assert!(!RaExpr::table("t")
            .join(RaExpr::table("u"), Scalar::bool(true))
            .is_order_deterministic());
        assert!(!RaExpr::table("t")
            .aggregate(vec![])
            .is_order_deterministic());
    }

    #[test]
    fn substitute_params_in_select() {
        let e =
            RaExpr::table("t").select(Scalar::cmp(BinOp::Eq, Scalar::col("a"), Scalar::Param(0)));
        let out = e.substitute_params(&[Scalar::int(5)]);
        match out {
            RaExpr::Select { pred, .. } => {
                assert_eq!(
                    pred,
                    Scalar::cmp(BinOp::Eq, Scalar::col("a"), Scalar::int(5))
                );
            }
            _ => panic!("expected select"),
        }
        assert_eq!(e.max_param(), Some(0));
    }

    #[test]
    fn display_is_readable() {
        let e = RaExpr::table("board").select(Scalar::cmp(
            BinOp::Eq,
            Scalar::col("rnd_id"),
            Scalar::int(1),
        ));
        let s = format!("{e}");
        assert!(s.starts_with("σ["), "{s}");
        assert!(s.contains("board"), "{s}");
    }
}
