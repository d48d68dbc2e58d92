//! Cost-based application of transformations (paper Sec. 5.3 / Appendix C).
//!
//! The paper applies every transformation and notes that, in general, "the
//! decision to replace should be taken in a cost based manner", sketching a
//! Volcano/Cascades-style search as future work. This module implements a
//! practical instance of that sketch:
//!
//! * [`DbStats`] — table cardinalities and average row widths (collected
//!   from a live [`dbms::Database`] or supplied synthetically);
//! * [`estimate_query`] — a textbook cardinality/cost estimator over the
//!   relational algebra (System-R-style default selectivities);
//! * [`estimate_loop_original`] / [`estimate_replacement`] — end-to-end
//!   costs of the original cursor loop vs the rewritten statements, in the
//!   same round-trip/transfer units the experiments measure;
//! * [`RewriteDecision`] — the comparison outcome.
//!
//! The extractor consults this module when
//! `ExtractorOptions::cost_based` carries statistics: a rewrite whose
//! estimated cost exceeds the original's is skipped (the Figure 7(a)
//! scenario, where "the cost of an additional query will outweigh the
//! benefit of pushing aggregation into the database").

use std::collections::BTreeMap;

use algebra::parse::parse_sql;
use algebra::ra::RaExpr;
use imp::ast::{Block, Expr, Function, StmtId, StmtKind};

/// Statistics for one table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableStats {
    /// Row count.
    pub rows: f64,
    /// Average row width in bytes.
    pub avg_row_bytes: f64,
}

/// Per-column statistics: number-of-distinct-values estimate and NULL
/// fraction. Paged tables deliver these from the `storage::stats` KMV
/// sketches maintained during page writes; in-memory tables compute them
/// exactly with one scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColStats {
    /// Estimated distinct non-NULL values.
    pub ndv: f64,
    /// Fraction of rows where the column is NULL.
    pub null_frac: f64,
}

/// Statistics for a database.
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    tables: BTreeMap<String, TableStats>,
    /// table name → column name → column statistics.
    columns: BTreeMap<String, BTreeMap<String, ColStats>>,
    /// Per-round-trip latency, microseconds (mirrors `dbms::CostModel`).
    pub latency_us: f64,
    /// Per-byte transfer cost, microseconds.
    pub per_byte_us: f64,
}

impl DbStats {
    /// Collect statistics from a live database.
    ///
    /// Row counts and average widths come from the table itself. Column
    /// NDV/NULL-fraction come from the storage engine's sketches when the
    /// table is paged ([`dbms::Table::statistics`]); for in-memory tables
    /// they are computed exactly by scanning (tables there are small).
    pub fn from_database(db: &dbms::Database) -> DbStats {
        let mut s = DbStats {
            latency_us: 500.0,
            per_byte_us: 0.01,
            ..Default::default()
        };
        for schema in db.catalog().tables() {
            if let Some(t) = db.table(&schema.name) {
                let nrows = t.len();
                let bytes: usize = t
                    .scan()
                    .take(64)
                    .map(|r| r.iter().map(dbms::Value::wire_size).sum::<usize>() + 8)
                    .sum();
                let avg = if nrows == 0 {
                    32.0
                } else {
                    bytes as f64 / nrows.min(64) as f64
                };
                s.tables.insert(
                    schema.name.clone(),
                    TableStats {
                        rows: nrows as f64,
                        avg_row_bytes: avg,
                    },
                );
                let cols = match t.statistics() {
                    Some(ts) if ts.columns.len() == schema.columns.len() => schema
                        .columns
                        .iter()
                        .zip(&ts.columns)
                        .map(|(c, cs)| {
                            (
                                c.name.clone(),
                                ColStats {
                                    ndv: cs.ndv,
                                    null_frac: cs.null_frac,
                                },
                            )
                        })
                        .collect(),
                    _ => exact_column_stats(t, schema),
                };
                s.columns
                    .insert(schema.name.clone(), cols.into_iter().collect());
            }
        }
        s
    }

    /// Set the cost-model constants.
    pub fn with_costs(mut self, latency_us: f64, per_byte_us: f64) -> DbStats {
        self.latency_us = latency_us;
        self.per_byte_us = per_byte_us;
        self
    }

    /// Add a synthetic table statistic.
    pub fn with_table(mut self, name: &str, rows: f64, avg_row_bytes: f64) -> DbStats {
        self.tables.insert(
            name.to_string(),
            TableStats {
                rows,
                avg_row_bytes,
            },
        );
        self
    }

    /// Canonical, deterministic encoding of the statistics.
    ///
    /// Feeds [`crate::ExtractorOptions::fingerprint`]: both maps are
    /// `BTreeMap`s, so iteration (and therefore the encoding) is stable,
    /// and the KMV sketches behind paged-table NDVs are themselves
    /// deterministic functions of the data.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("latency={};per_byte={}", self.latency_us, self.per_byte_us);
        for (name, t) in &self.tables {
            let _ = write!(out, ";{name}={},{}", t.rows, t.avg_row_bytes);
        }
        for (name, cols) in &self.columns {
            for (col, c) in cols {
                let _ = write!(out, ";{name}.{col}={},{}", c.ndv, c.null_frac);
            }
        }
        out
    }

    fn table(&self, name: &str) -> TableStats {
        self.tables.get(name).copied().unwrap_or(TableStats {
            rows: 1000.0,
            avg_row_bytes: 64.0,
        })
    }

    fn column(&self, table: &str, column: &str) -> Option<ColStats> {
        self.columns.get(table)?.get(column).copied()
    }
}

/// Exact per-column statistics for an in-memory table (one full scan).
fn exact_column_stats(
    t: &dbms::Table,
    schema: &algebra::schema::TableSchema,
) -> Vec<(String, ColStats)> {
    let ncols = schema.columns.len();
    let mut distinct: Vec<std::collections::HashSet<String>> = vec![Default::default(); ncols];
    let mut nulls = vec![0usize; ncols];
    let mut rows = 0usize;
    for row in t.scan() {
        rows += 1;
        for (i, v) in row.iter().enumerate().take(ncols) {
            if matches!(v, dbms::Value::Null) {
                nulls[i] += 1;
            } else {
                distinct[i].insert(v.group_key());
            }
        }
    }
    schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            (
                c.name.clone(),
                ColStats {
                    ndv: distinct[i].len() as f64,
                    null_frac: if rows == 0 {
                        0.0
                    } else {
                        nulls[i] as f64 / rows as f64
                    },
                },
            )
        })
        .collect()
}

/// Estimated evaluation of one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryEstimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated transferred bytes.
    pub bytes: f64,
}

/// Default selectivities (System-R heritage).
const SEL_EQ: f64 = 0.1;
const SEL_RANGE: f64 = 0.33;

/// Estimate output cardinality and transfer size of a query.
pub fn estimate_query(ra: &RaExpr, stats: &DbStats) -> QueryEstimate {
    match ra {
        RaExpr::Table { name, .. } => {
            let t = stats.table(name);
            QueryEstimate {
                rows: t.rows,
                bytes: t.rows * t.avg_row_bytes,
            }
        }
        RaExpr::Values { rows, columns } => QueryEstimate {
            rows: rows.len() as f64,
            bytes: (rows.len() * columns.len() * 8) as f64,
        },
        RaExpr::Select { input, pred } => {
            let e = estimate_query(input, stats);
            let sel = pred_selectivity_for(pred, base_table_name(input), stats);
            QueryEstimate {
                rows: e.rows * sel,
                bytes: e.bytes * sel,
            }
        }
        RaExpr::Project { input, items } => {
            let e = estimate_query(input, stats);
            // Projection narrows rows roughly proportionally to the column
            // count (we do not track per-column widths).
            let width = (items.len() as f64 * 10.0).min(e.bytes / e.rows.max(1.0));
            QueryEstimate {
                rows: e.rows,
                bytes: e.rows * width,
            }
        }
        RaExpr::Join {
            left, right, pred, ..
        } => {
            let l = estimate_query(left, stats);
            let r = estimate_query(right, stats);
            let sel = pred_selectivity(pred);
            let rows = (l.rows * r.rows * sel).max(l.rows.min(r.rows) * 0.1);
            let width = l.bytes / l.rows.max(1.0) + r.bytes / r.rows.max(1.0);
            QueryEstimate {
                rows,
                bytes: rows * width,
            }
        }
        RaExpr::OuterApply { left, right } => {
            let l = estimate_query(left, stats);
            let r = estimate_query(right, stats);
            // Correlated lookups typically return ≤1 row per outer row.
            let per = (r.rows / stats_rows_hint(right, stats)).clamp(0.1, 2.0);
            let rows = l.rows * per.max(1.0);
            let width = l.bytes / l.rows.max(1.0) + r.bytes / r.rows.max(1.0);
            QueryEstimate {
                rows,
                bytes: rows * width,
            }
        }
        RaExpr::Aggregate {
            input, group_by, ..
        } => {
            let e = estimate_query(input, stats);
            let groups = if group_by.is_empty() {
                1.0
            } else {
                e.rows.sqrt().max(1.0)
            };
            QueryEstimate {
                rows: groups,
                bytes: groups * 16.0,
            }
        }
        RaExpr::Sort { input, .. } => estimate_query(input, stats),
        RaExpr::Dedup { input } => {
            let e = estimate_query(input, stats);
            QueryEstimate {
                rows: e.rows * 0.5,
                bytes: e.bytes * 0.5,
            }
        }
        RaExpr::Limit { input, count } => {
            let e = estimate_query(input, stats);
            let rows = e.rows.min(*count as f64);
            let width = e.bytes / e.rows.max(1.0);
            QueryEstimate {
                rows,
                bytes: rows * width,
            }
        }
        RaExpr::Aliased { input, .. } => estimate_query(input, stats),
    }
}

fn stats_rows_hint(ra: &RaExpr, stats: &DbStats) -> f64 {
    estimate_query(ra, stats).rows.max(1.0)
}

fn pred_selectivity(p: &algebra::scalar::Scalar) -> f64 {
    pred_selectivity_for(p, None, &DbStats::default())
}

/// The base table a plan fragment ultimately scans, when it has exactly one.
fn base_table_name(ra: &RaExpr) -> Option<&str> {
    match ra {
        RaExpr::Table { name, .. } => Some(name),
        RaExpr::Select { input, .. }
        | RaExpr::Project { input, .. }
        | RaExpr::Sort { input, .. }
        | RaExpr::Dedup { input }
        | RaExpr::Limit { input, .. }
        | RaExpr::Aliased { input, .. }
        | RaExpr::Aggregate { input, .. } => base_table_name(input),
        _ => None,
    }
}

/// Selectivity of `p`, refined by column statistics when available.
///
/// For `col = <literal/param>` over a table with a known NDV the System-R
/// default `SEL_EQ` is replaced by `(1 - null_frac) / ndv` — equality never
/// matches NULLs, and distinct values are assumed uniform (ROADMAP item 2's
/// "cardinality estimation from table statistics").
fn pred_selectivity_for(p: &algebra::scalar::Scalar, table: Option<&str>, stats: &DbStats) -> f64 {
    use algebra::scalar::{BinOp, Scalar};
    match p {
        Scalar::Bin(BinOp::And, l, r) => {
            pred_selectivity_for(l, table, stats) * pred_selectivity_for(r, table, stats)
        }
        Scalar::Bin(BinOp::Or, l, r) => {
            (pred_selectivity_for(l, table, stats) + pred_selectivity_for(r, table, stats)).min(1.0)
        }
        Scalar::Bin(BinOp::Eq, l, r) => {
            let col = match (&**l, &**r) {
                (Scalar::Col(c), _) | (_, Scalar::Col(c)) => Some(&c.column),
                _ => None,
            };
            match (table, col) {
                (Some(t), Some(c)) => match stats.column(t, c) {
                    Some(cs) if cs.ndv >= 1.0 => ((1.0 - cs.null_frac) / cs.ndv).clamp(1e-6, 1.0),
                    _ => SEL_EQ,
                },
                _ => SEL_EQ,
            }
        }
        Scalar::Bin(op, ..) if op.is_comparison() => SEL_RANGE,
        Scalar::Lit(algebra::scalar::Lit::Bool(true)) => 1.0,
        _ => 0.5,
    }
}

/// Simulated execution time of one query round trip.
fn query_time_us(e: QueryEstimate, stats: &DbStats) -> f64 {
    stats.latency_us + e.bytes * stats.per_byte_us + e.rows
}

/// Estimated cost (µs) of executing the original cursor loop: its iterable
/// query plus, per estimated outer row, every query issued in the body.
pub fn estimate_loop_original(f: &Function, loop_stmt: StmtId, stats: &DbStats) -> Option<f64> {
    let Some(StmtKind::ForEach { iterable, body, .. }) = f.body.find(loop_stmt).map(|s| &s.kind)
    else {
        return None;
    };
    let outer_sqls = collect_sql(iterable);
    let outer_ra = outer_sqls.first().and_then(|s| parse_sql(s).ok());
    // The iterable may be a variable bound to an earlier query: search the
    // whole function for its defining SQL as a fallback.
    let outer_ra = outer_ra.or_else(|| {
        if let Expr::Var(v) = iterable {
            defining_sql(&f.body, v).and_then(|s| parse_sql(&s).ok())
        } else {
            None
        }
    })?;
    let outer_est = estimate_query(&outer_ra, stats);
    let mut cost = query_time_us(outer_est, stats);
    body.walk_exprs(&mut |e| {
        if let Some(inner) = query_sql(e).and_then(|sql| parse_sql(sql).ok()) {
            cost += outer_est.rows * query_time_us(estimate_query(&inner, stats), stats);
        }
    });
    Some(cost)
}

/// Estimated cost (µs) of executing the replacement expressions: one round
/// trip per embedded query.
pub fn estimate_replacement(assigns: &[(intern::Symbol, Expr)], stats: &DbStats) -> f64 {
    let mut cost = 0.0;
    for (_, e) in assigns {
        for sql in collect_sql(e) {
            if let Ok(ra) = parse_sql(&sql) {
                cost += query_time_us(estimate_query(&ra, stats), stats);
            }
        }
    }
    cost
}

/// The outcome of a cost comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewriteDecision {
    /// Estimated cost of the original loop, µs.
    pub original_us: f64,
    /// Estimated cost of the rewritten statements, µs.
    pub rewritten_us: f64,
    /// True when the rewrite is estimated beneficial.
    pub beneficial: bool,
}

/// Compare original vs rewritten cost for one planned loop replacement.
pub fn decide(
    f: &Function,
    loop_stmt: StmtId,
    assigns: &[(intern::Symbol, Expr)],
    stats: &DbStats,
) -> RewriteDecision {
    let original_us = estimate_loop_original(f, loop_stmt, stats).unwrap_or(f64::INFINITY);
    let rewritten_us = estimate_replacement(assigns, stats);
    RewriteDecision {
        original_us,
        rewritten_us,
        beneficial: rewritten_us <= original_us,
    }
}

/// The SQL assigned to `var` by its last defining `executeQuery` or
/// `executeScalar` in source order, anywhere in the function.
fn defining_sql(b: &Block, var: &str) -> Option<String> {
    let mut found = None;
    b.walk(&mut |s, _| {
        if let StmtKind::Assign { target, value } = &s.kind {
            if target == var {
                if let Some(sql) = collect_sql(value).into_iter().next() {
                    found = Some(sql);
                }
            }
        }
    });
    found
}

/// The literal SQL of `e` when it is itself an `executeQuery` or
/// `executeScalar` call over a string literal.
fn query_sql(e: &Expr) -> Option<&str> {
    match e {
        Expr::Call { name, args } if name == "executeQuery" || name == "executeScalar" => {
            match args.first() {
                Some(Expr::Lit(imp::ast::Literal::Str(s))) => Some(s),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Every literal SQL string queried anywhere in `e`, in pre-order.
pub(crate) fn collect_sql(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    e.walk(&mut |x| out.extend(query_sql(x).map(str::to_string)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    fn stats() -> DbStats {
        DbStats {
            latency_us: 500.0,
            per_byte_us: 0.01,
            ..Default::default()
        }
        .with_table("emp", 10_000.0, 50.0)
        .with_table("dept", 10.0, 30.0)
    }

    #[test]
    fn table_scan_estimate() {
        let q = parse_sql("SELECT * FROM emp").unwrap();
        let e = estimate_query(&q, &stats());
        assert_eq!(e.rows, 10_000.0);
        assert_eq!(e.bytes, 500_000.0);
    }

    #[test]
    fn selection_reduces_estimate() {
        let all = estimate_query(&parse_sql("SELECT * FROM emp").unwrap(), &stats());
        let eq = estimate_query(
            &parse_sql("SELECT * FROM emp WHERE id = 3").unwrap(),
            &stats(),
        );
        let rng = estimate_query(
            &parse_sql("SELECT * FROM emp WHERE id > 3").unwrap(),
            &stats(),
        );
        assert!(eq.rows < rng.rows && rng.rows < all.rows);
    }

    #[test]
    fn aggregate_is_one_row() {
        let q = parse_sql("SELECT SUM(salary) AS s FROM emp").unwrap();
        let e = estimate_query(&q, &stats());
        assert_eq!(e.rows, 1.0);
        assert!(e.bytes < 100.0);
    }

    #[test]
    fn per_row_inner_queries_dominate_original_cost() {
        let p = parse_program(
            r#"fn f() {
                rows = executeQuery("SELECT * FROM emp");
                out = list();
                for (r in rows) {
                    d = executeScalar("SELECT id FROM dept WHERE id = ?", r.id);
                    out.add(d);
                }
                return out;
            }"#,
        )
        .unwrap();
        let f = &p.functions[0];
        let loop_id = f.body.stmts[2].id;
        let c = estimate_loop_original(f, loop_id, &stats()).unwrap();
        // 10 000 inner round trips at 500µs dominate.
        assert!(c > 5_000_000.0, "{c}");
    }

    #[test]
    fn decide_prefers_single_query() {
        let p = parse_program(
            r#"fn f() {
                rows = executeQuery("SELECT * FROM emp");
                s = 0;
                for (r in rows) { s = s + r.salary; }
                return s;
            }"#,
        )
        .unwrap();
        let f = &p.functions[0];
        let loop_id = f.body.stmts[2].id;
        let assigns = vec![(
            intern::Symbol::intern("s"),
            Expr::call(
                "executeScalar",
                vec![Expr::str("SELECT SUM(salary) AS agg0 FROM emp")],
            ),
        )];
        let d = decide(f, loop_id, &assigns, &stats());
        assert!(d.beneficial, "{d:?}");
        assert!(d.rewritten_us < d.original_us);
    }

    #[test]
    fn decide_rejects_costlier_rewrite() {
        // A rewrite that still fetches the whole table per assigned variable
        // three times over is worse than the original single fetch.
        let p = parse_program(
            r#"fn f() {
                rows = executeQuery("SELECT * FROM emp");
                s = 0;
                for (r in rows) { s = s + r.salary; }
                return s;
            }"#,
        )
        .unwrap();
        let f = &p.functions[0];
        let loop_id = f.body.stmts[2].id;
        let fetch_all = Expr::call("executeQuery", vec![Expr::str("SELECT * FROM emp")]);
        let assigns = vec![
            (intern::Symbol::intern("a"), fetch_all.clone()),
            (intern::Symbol::intern("b"), fetch_all.clone()),
            (intern::Symbol::intern("c"), fetch_all),
        ];
        let d = decide(f, loop_id, &assigns, &stats());
        assert!(!d.beneficial, "{d:?}");
    }

    #[test]
    fn decide_finds_driving_query_assigned_in_a_block() {
        // The same costlier rewrite as above, with the driving query and
        // its loop nested in an `if`: the defining SQL must still be found.
        let p = parse_program(
            r#"fn f(flag) {
                s = 0;
                if (flag) {
                    rows = executeQuery("SELECT * FROM emp");
                    for (r in rows) { s = s + r.salary; }
                }
                return s;
            }"#,
        )
        .unwrap();
        let f = &p.functions[0];
        let StmtKind::If { then_branch, .. } = &f.body.stmts[1].kind else {
            panic!("expected the if statement");
        };
        let loop_id = then_branch.stmts[1].id;
        let fetch_all = Expr::call("executeQuery", vec![Expr::str("SELECT * FROM emp")]);
        let assigns = vec![
            (intern::Symbol::intern("a"), fetch_all.clone()),
            (intern::Symbol::intern("b"), fetch_all.clone()),
            (intern::Symbol::intern("c"), fetch_all),
        ];
        let d = decide(f, loop_id, &assigns, &stats());
        assert!(d.original_us.is_finite(), "{d:?}");
        assert!(!d.beneficial, "{d:?}");
    }

    #[test]
    fn stats_from_database() {
        let db = dbms::gen::gen_emp(100, 1);
        let s = DbStats::from_database(&db);
        let q = parse_sql("SELECT * FROM emp").unwrap();
        let e = estimate_query(&q, &s);
        assert_eq!(e.rows, 100.0);
        assert!(e.bytes > 1_000.0);
    }
}
