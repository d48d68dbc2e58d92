//! A volcano (iterator-model) executor for single-table pipelines.
//!
//! Each operator pulls one row at a time from its child:
//! `SeqScan → Filter → Project → Sort → Dedup → Limit → Aggregate`.
//! Over a paged table this keeps memory bounded by operator state — the
//! scan holds one B-tree leaf, filters and projections are stateless,
//! aggregation holds one accumulator set per group — instead of
//! materializing the whole table as the tree-walking evaluator
//! ([`crate::eval`]) does. Sort is the exception: τ is a blocking
//! operator and buffers its input, exactly as the paper treats it.
//!
//! The scan decodes only the columns the operators above it read (see
//! [`scan_columns`]); the others read as NULL, which nothing above can
//! observe. A γ with no GROUP BY feeds one accumulator set directly.
//!
//! The executor is semantically *identical* to the materializing
//! evaluator — same order preservation, duplicate handling,
//! first-occurrence grouping, NULL-first sorting, and NULL-on-error
//! arithmetic — because it reuses the same scalar evaluator, comparator,
//! and aggregate accumulators. `tests/volcano_diff.rs` holds the two
//! engines byte-identical across the query corpus on identical data.
//!
//! [`plans_paged`] decides dispatch: a query takes this path when its
//! operator spine is a supported single-table pipeline *and* the base
//! table is paged. Joins, `OUTER APPLY`, and `VALUES` fall back to the
//! materializing evaluator (whose base-table scans still stream out of
//! the store — they just materialize the scan result first).

use std::collections::HashMap;

use algebra::ra::{AggCall, RaExpr, SortOrder};
use algebra::scalar::Scalar;

use crate::eval::{empty_agg, eval_scalar, fields_of, Accumulator, EvalError, Scope};
use crate::table::{Database, Field, Relation, Row, TableScan};
use crate::value::Value;

/// Is `ra` a single-table pipeline this executor supports? (Predicates
/// and projections may still contain arbitrary subqueries — the scalar
/// evaluator handles those.)
pub fn plannable(ra: &RaExpr) -> bool {
    match ra {
        RaExpr::Table { .. } => true,
        RaExpr::Select { input, .. }
        | RaExpr::Project { input, .. }
        | RaExpr::Sort { input, .. }
        | RaExpr::Dedup { input }
        | RaExpr::Limit { input, .. }
        | RaExpr::Aliased { input, .. }
        | RaExpr::Aggregate { input, .. } => plannable(input),
        RaExpr::Values { .. } | RaExpr::Join { .. } | RaExpr::OuterApply { .. } => false,
    }
}

/// The single base table under a plannable spine.
fn base_table(ra: &RaExpr) -> Option<&str> {
    match ra {
        RaExpr::Table { name, .. } => Some(name),
        RaExpr::Select { input, .. }
        | RaExpr::Project { input, .. }
        | RaExpr::Sort { input, .. }
        | RaExpr::Dedup { input }
        | RaExpr::Limit { input, .. }
        | RaExpr::Aliased { input, .. }
        | RaExpr::Aggregate { input, .. } => base_table(input),
        RaExpr::Values { .. } | RaExpr::Join { .. } | RaExpr::OuterApply { .. } => None,
    }
}

/// Should [`crate::eval::eval_query`] dispatch `ra` here? True when the
/// spine is plannable and its base table is stored in pages.
pub fn plans_paged(ra: &RaExpr, db: &Database) -> bool {
    plannable(ra)
        && base_table(ra)
            .and_then(|name| db.table(name))
            .is_some_and(|t| t.is_paged())
}

/// Execute a plannable pipeline, draining the operator tree into a
/// [`Relation`].
pub fn execute(ra: &RaExpr, db: &Database, params: &[Value]) -> Result<Relation, EvalError> {
    let columns = scan_columns(ra);
    let mut op = build(ra, db, params, columns.as_deref())?;
    let fields = op.fields().to_vec();
    let mut rows = Vec::new();
    while let Some(row) = op.next()? {
        rows.push(row);
    }
    Ok(Relation { fields, rows })
}

/// The column names the operators above the base-table scan reference, or
/// `None` when the scan must decode every column. Pruning needs a π or γ
/// above the scan (otherwise the scan row itself is the result), no δ
/// between them (δ compares whole rows), and no `EXISTS` or scalar
/// subquery anywhere on the spine (a correlated subquery reads outer
/// columns this walk does not see). Names are collected without their
/// qualifiers, so the set may keep more columns than needed, never fewer.
fn scan_columns(mut ra: &RaExpr) -> Option<Vec<String>> {
    let mut names = Vec::new();
    let mut replaced = false;
    loop {
        let (input, exprs): (&RaExpr, Vec<&Scalar>) = match ra {
            RaExpr::Table { .. } => return replaced.then_some(names),
            RaExpr::Select { input, pred } => (input, vec![pred]),
            RaExpr::Sort { input, keys } => (input, keys.iter().map(|k| &k.expr).collect()),
            RaExpr::Project { input, items } => {
                replaced = true;
                (input, items.iter().map(|i| &i.expr).collect())
            }
            RaExpr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                replaced = true;
                let keys = group_by.iter().map(|g| &g.expr);
                (input, keys.chain(aggs.iter().map(|a| &a.arg)).collect())
            }
            RaExpr::Dedup { input } => {
                replaced = false;
                (input, Vec::new())
            }
            RaExpr::Limit { input, .. } | RaExpr::Aliased { input, .. } => (input, Vec::new()),
            RaExpr::Values { .. } | RaExpr::Join { .. } | RaExpr::OuterApply { .. } => return None,
        };
        for e in exprs {
            let mut subquery = false;
            e.walk(&mut |s| match s {
                Scalar::Col(c) => names.push(c.column.clone()),
                Scalar::Exists(_) | Scalar::Subquery(_) => subquery = true,
                _ => {}
            });
            if subquery {
                return None;
            }
        }
        ra = input;
    }
}

/// One operator in the pipeline: exposes its output schema and yields
/// rows one at a time.
trait Op {
    fn fields(&self) -> &[Field];
    fn next(&mut self) -> Result<Option<Row>, EvalError>;
}

/// Build the operator tree; `columns` is [`scan_columns`] of the whole
/// plan, handed down to the scan.
fn build<'a>(
    ra: &'a RaExpr,
    db: &'a Database,
    params: &'a [Value],
    columns: Option<&[String]>,
) -> Result<Box<dyn Op + 'a>, EvalError> {
    match ra {
        RaExpr::Table { name, .. } => {
            let t = db
                .table(name)
                .ok_or_else(|| EvalError::UnknownTable(name.clone()))?;
            let scan = match columns {
                Some(cols) => t.scan_columns(
                    t.schema
                        .columns
                        .iter()
                        .map(|c| cols.contains(&c.name))
                        .collect(),
                ),
                None => t.scan(),
            };
            Ok(Box::new(SeqScan {
                fields: fields_of(ra, db)?,
                scan,
            }))
        }
        RaExpr::Select { input, pred } => Ok(Box::new(Filter {
            input: build(input, db, params, columns)?,
            pred,
            db,
            params,
        })),
        RaExpr::Project { input, items } => Ok(Box::new(Project {
            input: build(input, db, params, columns)?,
            items,
            fields: items.iter().map(|i| Field::new(i.alias.clone())).collect(),
            db,
            params,
        })),
        RaExpr::Sort { input, keys } => Ok(Box::new(Sort {
            input: build(input, db, params, columns)?,
            keys,
            buf: None,
            db,
            params,
        })),
        RaExpr::Dedup { input } => Ok(Box::new(Dedup {
            input: build(input, db, params, columns)?,
            seen: HashMap::new(),
        })),
        RaExpr::Limit { input, count } => Ok(Box::new(Limit {
            input: build(input, db, params, columns)?,
            remaining: *count as usize,
        })),
        RaExpr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut fields: Vec<Field> = group_by
                .iter()
                .map(|g| Field::new(g.alias.clone()))
                .collect();
            fields.extend(aggs.iter().map(|a| Field::new(a.alias.clone())));
            Ok(Box::new(Aggregate {
                input: build(input, db, params, columns)?,
                group_by,
                aggs,
                fields,
                out: None,
                db,
                params,
            }))
        }
        RaExpr::Aliased { input, alias } => {
            let input = build(input, db, params, columns)?;
            let fields = input
                .fields()
                .iter()
                .map(|f| Field::qualified(alias.clone(), f.name.clone()))
                .collect();
            Ok(Box::new(Alias { input, fields }))
        }
        RaExpr::Values { .. } | RaExpr::Join { .. } | RaExpr::OuterApply { .. } => Err(
            EvalError::Type("volcano executor: unsupported operator in pipeline".into()),
        ),
    }
}

/// Base-table scan in insertion order (one leaf page resident at a time
/// for paged tables).
struct SeqScan<'a> {
    fields: Vec<Field>,
    scan: TableScan<'a>,
}

impl Op for SeqScan<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        Ok(self.scan.next())
    }
}

/// σ — keep rows whose predicate is TRUE (not FALSE, not NULL).
struct Filter<'a> {
    input: Box<dyn Op + 'a>,
    pred: &'a Scalar,
    db: &'a Database,
    params: &'a [Value],
}

impl Op for Filter<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        while let Some(row) = self.input.next()? {
            let scope = Scope {
                fields: self.input.fields(),
                row: &row,
                parent: None,
            };
            if eval_scalar(self.pred, self.db, self.params, Some(&scope))?.is_true() {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// π — order-preserving, duplicate-keeping projection.
struct Project<'a> {
    input: Box<dyn Op + 'a>,
    items: &'a [algebra::ra::ProjItem],
    fields: Vec<Field>,
    db: &'a Database,
    params: &'a [Value],
}

impl Op for Project<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        let Some(row) = self.input.next()? else {
            return Ok(None);
        };
        let scope = Scope {
            fields: self.input.fields(),
            row: &row,
            parent: None,
        };
        let mut out = Vec::with_capacity(self.items.len());
        for i in self.items {
            out.push(eval_scalar(&i.expr, self.db, self.params, Some(&scope))?);
        }
        Ok(Some(out))
    }
}

/// τ — blocking sort; decorate-sort-undecorate with the shared
/// NULLs-first comparator, stable like the materializing evaluator.
struct Sort<'a> {
    input: Box<dyn Op + 'a>,
    keys: &'a [algebra::ra::SortKey],
    buf: Option<std::vec::IntoIter<Row>>,
    db: &'a Database,
    params: &'a [Value],
}

impl Op for Sort<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        if self.buf.is_none() {
            let mut decorated: Vec<(Vec<Value>, Row)> = Vec::new();
            while let Some(row) = self.input.next()? {
                let scope = Scope {
                    fields: self.input.fields(),
                    row: &row,
                    parent: None,
                };
                let mut ks = Vec::with_capacity(self.keys.len());
                for k in self.keys {
                    ks.push(eval_scalar(&k.expr, self.db, self.params, Some(&scope))?);
                }
                decorated.push((ks, row));
            }
            let keys = self.keys;
            decorated.sort_by(|(a, _), (b, _)| {
                for (i, k) in keys.iter().enumerate() {
                    let ord = a[i].sort_cmp(&b[i]);
                    let ord = match k.order {
                        SortOrder::Asc => ord,
                        SortOrder::Desc => ord.reverse(),
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.buf = Some(
                decorated
                    .into_iter()
                    .map(|(_, r)| r)
                    .collect::<Vec<_>>()
                    .into_iter(),
            );
        }
        Ok(self.buf.as_mut().expect("sorted buffer").next())
    }
}

/// δ — streaming dedup keeping first occurrences; state is one group key
/// per distinct row seen.
struct Dedup<'a> {
    input: Box<dyn Op + 'a>,
    seen: HashMap<String, ()>,
}

impl Op for Dedup<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        while let Some(row) = self.input.next()? {
            let key: String = row
                .iter()
                .map(|v| v.group_key())
                .collect::<Vec<_>>()
                .join("\u{1}");
            if self.seen.insert(key, ()).is_none() {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// LIMIT — stops *pulling* from its child once satisfied, so a limited
/// scan over a large stored table touches only the leaves it needs.
struct Limit<'a> {
    input: Box<dyn Op + 'a>,
    remaining: usize,
}

impl Op for Limit<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            Some(row) => {
                self.remaining -= 1;
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }
}

/// γ — streaming aggregation: one pass over the input feeding per-group
/// accumulators; groups emit in first-occurrence order. Memory is
/// O(groups), not O(rows).
struct Aggregate<'a> {
    input: Box<dyn Op + 'a>,
    group_by: &'a [algebra::ra::ProjItem],
    aggs: &'a [AggCall],
    fields: Vec<Field>,
    out: Option<std::vec::IntoIter<Row>>,
    db: &'a Database,
    params: &'a [Value],
}

impl Op for Aggregate<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        if self.out.is_none() {
            let rows = if self.group_by.is_empty() {
                vec![self.global()?]
            } else {
                self.grouped()?
            };
            self.out = Some(rows.into_iter());
        }
        Ok(self.out.as_mut().expect("aggregate output").next())
    }
}

impl Aggregate<'_> {
    /// No GROUP BY: one accumulator set fed straight from the input, with
    /// no group key and no hash lookup. Empty input yields the
    /// all-NULL/zero row.
    fn global(&mut self) -> Result<Row, EvalError> {
        let mut accs: Vec<Accumulator> =
            self.aggs.iter().map(|a| Accumulator::new(a.func)).collect();
        let mut saw_rows = false;
        while let Some(row) = self.input.next()? {
            saw_rows = true;
            let scope = Scope {
                fields: self.input.fields(),
                row: &row,
                parent: None,
            };
            for (acc, a) in accs.iter_mut().zip(self.aggs) {
                acc.feed(&eval_scalar(&a.arg, self.db, self.params, Some(&scope))?)?;
            }
        }
        Ok(if saw_rows {
            accs.into_iter().map(Accumulator::finish).collect()
        } else {
            self.aggs.iter().map(|a| empty_agg(a.func)).collect()
        })
    }

    /// GROUP BY: per-group accumulators keyed by the group values, emitted
    /// in first-occurrence order.
    fn grouped(&mut self) -> Result<Vec<Row>, EvalError> {
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, (Vec<Value>, Vec<Accumulator>)> = HashMap::new();
        while let Some(row) = self.input.next()? {
            let scope = Scope {
                fields: self.input.fields(),
                row: &row,
                parent: None,
            };
            let mut keys = Vec::with_capacity(self.group_by.len());
            for g in self.group_by {
                keys.push(eval_scalar(&g.expr, self.db, self.params, Some(&scope))?);
            }
            let key: String = keys
                .iter()
                .map(|v| v.group_key())
                .collect::<Vec<_>>()
                .join("\u{1}");
            if !groups.contains_key(&key) {
                order.push(key.clone());
                let accs = self.aggs.iter().map(|a| Accumulator::new(a.func)).collect();
                groups.insert(key.clone(), (keys, accs));
            }
            let entry = groups.get_mut(&key).expect("group just ensured");
            for (acc, a) in entry.1.iter_mut().zip(self.aggs) {
                let v = eval_scalar(&a.arg, self.db, self.params, Some(&scope))?;
                acc.feed(&v)?;
            }
        }
        let mut rows = Vec::with_capacity(order.len());
        for key in &order {
            let (keys, accs) = groups.remove(key).expect("group present");
            let mut out = keys;
            for acc in accs {
                out.push(acc.finish());
            }
            rows.push(out);
        }
        Ok(rows)
    }
}

/// ρ — rename: requalify fields, pass rows through.
struct Alias<'a> {
    input: Box<dyn Op + 'a>,
    fields: Vec<Field>,
}

impl Op for Alias<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        self.input.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::parse::parse_sql;
    use algebra::schema::{SqlType, TableSchema};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            &[
                ("id", SqlType::Int),
                ("g", SqlType::Int),
                ("x", SqlType::Int),
            ],
        )
        .with_key(&["id"])
    }

    fn twin_dbs(n: i64) -> (Database, Database) {
        let mut mem = Database::new();
        let mut paged = Database::paged_in_memory(4);
        for db in [&mut mem, &mut paged] {
            db.create_table(schema());
            for i in 0..n {
                db.insert(
                    "t",
                    vec![Value::Int(i), Value::Int(i % 5), Value::Int((i * 7) % 13)],
                );
            }
        }
        (mem, paged)
    }

    #[test]
    fn dispatch_goes_through_volcano_for_paged_only() {
        let (mem, paged) = twin_dbs(10);
        let q = parse_sql("SELECT * FROM t WHERE g = 2").unwrap();
        assert!(!plans_paged(&q, &mem));
        assert!(plans_paged(&q, &paged));
        let j = parse_sql("SELECT * FROM t a JOIN t b ON a.id = b.id").unwrap();
        assert!(!plans_paged(&j, &paged), "joins are not plannable");
    }

    #[test]
    fn volcano_matches_materialized_on_pipelines() {
        let (mem, paged) = twin_dbs(200);
        for sql in [
            "SELECT * FROM t",
            "SELECT x FROM t WHERE g = 3",
            "SELECT g, COUNT(*) AS c, SUM(x) AS s FROM t GROUP BY g",
            "SELECT MAX(x) AS m FROM t WHERE id > 150",
            "SELECT DISTINCT g FROM t ORDER BY g DESC",
            "SELECT id FROM t ORDER BY x, id LIMIT 7",
            "SELECT COUNT(*) AS c FROM t WHERE id > 9999",
        ] {
            let q = parse_sql(sql).unwrap();
            let reference = crate::eval::eval_query_materialized(&q, &mem, &[]).unwrap();
            let via_volcano = execute(&q, &paged, &[]).unwrap();
            assert_eq!(reference, via_volcano, "{sql}");
            // And the public entry point dispatches identically.
            assert_eq!(
                reference,
                crate::eval::eval_query(&q, &paged, &[]).unwrap(),
                "{sql}"
            );
        }
    }

    #[test]
    fn limit_stops_pulling_early() {
        let (_, paged) = twin_dbs(2000);
        let before = paged.store().unwrap().pool_stats();
        let q = parse_sql("SELECT id FROM t LIMIT 3").unwrap();
        let r = execute(&q, &paged, &[]).unwrap();
        assert_eq!(r.len(), 3);
        let after = paged.store().unwrap().pool_stats();
        // Three rows live on the first leaf: at most a couple of page
        // fetches beyond the descent, not a full-table scan.
        assert!(
            after.hits + after.misses - (before.hits + before.misses) < 6,
            "LIMIT must not scan the whole table"
        );
    }
}
