//! The relational executor: a volcano (iterator-model) operator tree that
//! runs every plan the algebra can express, over in-memory and paged
//! tables alike.
//!
//! Each operator pulls one row at a time from its child. Scans, σ, π, ρ
//! and LIMIT stream; τ buffers its input (a blocking operator, as the
//! paper treats it); δ and γ hold one entry per distinct row or group. A
//! join materializes its right input once and streams its left; `OUTER
//! APPLY` evaluates its right side once per left row, with that row as
//! the outer scope; `VALUES` yields its literal rows. Over a paged table
//! the scan holds one B-tree leaf at a time, so memory is bounded by
//! operator state rather than by the table.
//!
//! Every operator evaluates its scalars under the outer scope the tree was
//! built in, so a correlated subquery — `EXISTS`, a scalar subquery, the
//! right side of an apply — is just a tree built under the current row.
//! `EXISTS` and scalar subqueries pull a single row and stop
//! (`first_row`).
//!
//! The scan decodes only the columns the operators above it read (see
//! `scan_columns`); the others read as NULL, which nothing above can
//! observe. A γ with no GROUP BY feeds one accumulator set directly.
//!
//! The observable rules — order preservation, duplicates, first-occurrence
//! grouping, NULL-first sorting, NULL-on-error arithmetic, early
//! termination — are specified in [`crate::eval`], whose scalar
//! evaluator, comparator and accumulators every operator shares.
//! `tests/volcano_diff.rs` holds the in-memory and paged backings
//! byte-identical to each other and to the frozen output of the
//! materializing evaluator this executor replaced.

use std::collections::{HashMap, HashSet};

use algebra::ra::{AggCall, JoinKind, ProjItem, RaExpr, SortKey, SortOrder};
use algebra::scalar::{Lit, Scalar};

use crate::eval::{empty_agg, eval_scalar, fields_of, Accumulator, EvalError, Scope};
use crate::table::{Database, Field, Relation, Row, TableScan};
use crate::value::Value;

/// Execute a plan, draining the operator tree into a [`Relation`]. Every
/// query runs here: [`crate::eval_query`] is this function.
pub fn execute(ra: &RaExpr, db: &Database, params: &[Value]) -> Result<Relation, EvalError> {
    let columns = scan_columns(ra);
    let cx = Ctx {
        db,
        params,
        outer: None,
    };
    let mut op = build(ra, cx, columns.as_deref())?;
    let fields = op.fields().to_vec();
    let rows = drain(op.as_mut())?;
    Ok(Relation { fields, rows })
}

/// Pull every remaining row out of `op`.
fn drain(op: &mut dyn Op) -> Result<Vec<Row>, EvalError> {
    let mut rows = Vec::new();
    while let Some(row) = op.next()? {
        rows.push(row);
    }
    Ok(rows)
}

/// The first row of `ra` evaluated under `outer`, pulling nothing past
/// it: all that `EXISTS` and a scalar subquery need.
pub(crate) fn first_row<'a>(
    ra: &'a RaExpr,
    db: &'a Database,
    params: &'a [Value],
    outer: Option<&'a Scope<'a>>,
) -> Result<Option<Row>, EvalError> {
    build(ra, Ctx { db, params, outer }, None)?.next()
}

/// The column names the operators above the base-table scan reference, or
/// `None` when the scan must decode every column. Pruning needs a π or γ
/// above the scan (otherwise the scan row itself is the result), no δ
/// between them (δ compares whole rows), and no `EXISTS` or scalar
/// subquery anywhere on the spine (a correlated subquery reads outer
/// columns this walk does not see). Joins, applies and `VALUES` decode
/// every column. Names are collected without their qualifiers, so the set
/// may keep more columns than needed, never fewer.
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

/// What every operator evaluates its scalars against: the database, the
/// query parameters, and the enclosing row when the tree runs correlated.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    db: &'a Database,
    params: &'a [Value],
    outer: Option<&'a Scope<'a>>,
}

impl Ctx<'_> {
    /// Evaluate `e` on `row` (laid out as `fields`), resolving columns the
    /// row lacks in the outer scope.
    fn eval(&self, e: &Scalar, fields: &[Field], row: &[Value]) -> Result<Value, EvalError> {
        let scope = Scope {
            fields,
            row,
            parent: self.outer,
        };
        eval_scalar(e, self.db, self.params, Some(&scope))
    }
}

/// One operator in the tree: exposes its output schema and yields rows
/// one at a time.
trait Op {
    fn fields(&self) -> &[Field];
    fn next(&mut self) -> Result<Option<Row>, EvalError>;
}

/// Build the operator tree; `columns` is [`scan_columns`] of the whole
/// plan, handed down to the scan. An operator with a schema of its own
/// takes it from [`fields_of`].
fn build<'a>(
    ra: &'a RaExpr,
    cx: Ctx<'a>,
    columns: Option<&[String]>,
) -> Result<Box<dyn Op + 'a>, EvalError> {
    Ok(match ra {
        RaExpr::Table { name, .. } => {
            let t = cx
                .db
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
            Box::new(SeqScan {
                fields: fields_of(ra, cx.db)?,
                scan,
            })
        }
        RaExpr::Values { rows, .. } => Box::new(Values {
            fields: fields_of(ra, cx.db)?,
            rows: rows.iter(),
        }),
        RaExpr::Select { input, pred } => Box::new(Filter {
            input: build(input, cx, columns)?,
            pred,
            cx,
        }),
        RaExpr::Project { input, items } => Box::new(Project {
            input: build(input, cx, columns)?,
            items,
            fields: fields_of(ra, cx.db)?,
            cx,
        }),
        RaExpr::Join {
            left,
            right,
            pred,
            kind,
        } => {
            let left = build(left, cx, None)?;
            let mut right = build(right, cx, None)?;
            Box::new(Join {
                left_width: left.fields().len(),
                left,
                right: drain(right.as_mut())?,
                pred,
                kind: *kind,
                fields: fields_of(ra, cx.db)?,
                buf: Vec::new(),
                pos: None,
                matched: false,
                cx,
            })
        }
        RaExpr::OuterApply { left, right } => Box::new(Apply {
            left: build(left, cx, None)?,
            right,
            fields: fields_of(ra, cx.db)?,
            pending: Vec::new().into_iter(),
            cx,
        }),
        RaExpr::Sort { input, keys } => Box::new(Sort {
            input: build(input, cx, columns)?,
            keys,
            buf: None,
            cx,
        }),
        RaExpr::Dedup { input } => Box::new(Dedup {
            input: build(input, cx, columns)?,
            seen: HashSet::new(),
        }),
        RaExpr::Limit { input, count } => Box::new(Limit {
            input: build(input, cx, columns)?,
            remaining: *count as usize,
        }),
        RaExpr::Aggregate {
            input,
            group_by,
            aggs,
        } => Box::new(Aggregate {
            input: build(input, cx, columns)?,
            group_by,
            aggs,
            fields: fields_of(ra, cx.db)?,
            out: None,
            cx,
        }),
        RaExpr::Aliased { input, .. } => Box::new(Alias {
            input: build(input, cx, columns)?,
            fields: fields_of(ra, cx.db)?,
        }),
    })
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

/// `VALUES` — literal rows in order.
struct Values<'a> {
    fields: Vec<Field>,
    rows: std::slice::Iter<'a, Vec<Lit>>,
}

impl Op for Values<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        Ok(self
            .rows
            .next()
            .map(|r| r.iter().map(Value::from_lit).collect()))
    }
}

/// σ — keep rows whose predicate is TRUE (not FALSE, not NULL).
struct Filter<'a> {
    input: Box<dyn Op + 'a>,
    pred: &'a Scalar,
    cx: Ctx<'a>,
}

impl Op for Filter<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        while let Some(row) = self.input.next()? {
            let keep = self.cx.eval(self.pred, self.input.fields(), &row)?;
            if keep.is_true() {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// π — order-preserving, duplicate-keeping projection.
struct Project<'a> {
    input: Box<dyn Op + 'a>,
    items: &'a [ProjItem],
    fields: Vec<Field>,
    cx: Ctx<'a>,
}

impl Op for Project<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        let Some(row) = self.input.next()? else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(self.items.len());
        for i in self.items {
            out.push(self.cx.eval(&i.expr, self.input.fields(), &row)?);
        }
        Ok(Some(out))
    }
}

/// ⨝ / ⟕ — nested-loop join. The right input is materialized when the
/// operator is built and the left streams. Each candidate pair is laid
/// out in one reused buffer and copied out only when the predicate holds;
/// under a left outer join a left row with no partner is padded with
/// NULLs.
struct Join<'a> {
    left: Box<dyn Op + 'a>,
    left_width: usize,
    right: Vec<Row>,
    pred: &'a Scalar,
    kind: JoinKind,
    fields: Vec<Field>,
    /// The current left row followed by the right row under test.
    buf: Row,
    /// The next right row to pair with the current left row; `None`
    /// between left rows.
    pos: Option<usize>,
    /// Has the current left row found a partner?
    matched: bool,
    cx: Ctx<'a>,
}

impl Op for Join<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        loop {
            let Some(pos) = self.pos else {
                let Some(left) = self.left.next()? else {
                    return Ok(None);
                };
                self.buf.clear();
                self.buf.extend(left);
                self.pos = Some(0);
                self.matched = false;
                continue;
            };
            if let Some(r) = self.right.get(pos) {
                self.pos = Some(pos + 1);
                self.buf.truncate(self.left_width);
                self.buf.extend_from_slice(r);
                if self.cx.eval(self.pred, &self.fields, &self.buf)?.is_true() {
                    self.matched = true;
                    return Ok(Some(self.buf.clone()));
                }
                continue;
            }
            self.pos = None;
            if !self.matched && self.kind == JoinKind::LeftOuter {
                self.buf.truncate(self.left_width);
                self.buf.resize(self.fields.len(), Value::Null);
                return Ok(Some(std::mem::take(&mut self.buf)));
            }
        }
    }
}

/// `OUTER APPLY` — for each left row, run the right plan with that row as
/// its outer scope and emit the left row joined to each result row, or
/// padded with NULLs when there is none.
struct Apply<'a> {
    left: Box<dyn Op + 'a>,
    right: &'a RaExpr,
    fields: Vec<Field>,
    /// Output rows of the current left row not yet returned.
    pending: std::vec::IntoIter<Row>,
    cx: Ctx<'a>,
}

impl Op for Apply<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        loop {
            if let Some(row) = self.pending.next() {
                return Ok(Some(row));
            }
            let Some(left) = self.left.next()? else {
                return Ok(None);
            };
            let inner = {
                let scope = Scope {
                    fields: self.left.fields(),
                    row: &left,
                    parent: self.cx.outer,
                };
                let cx = Ctx {
                    outer: Some(&scope),
                    ..self.cx
                };
                let mut op = build(self.right, cx, None)?;
                drain(op.as_mut())?
            };
            self.pending = if inner.is_empty() {
                let mut row = left;
                row.resize(self.fields.len(), Value::Null);
                vec![row]
            } else {
                let joined = |r: Row| left.iter().cloned().chain(r).collect();
                inner.into_iter().map(joined).collect::<Vec<_>>()
            }
            .into_iter();
        }
    }
}

/// τ — blocking sort; decorate-sort-undecorate with the shared
/// NULLs-first comparator, stable.
struct Sort<'a> {
    input: Box<dyn Op + 'a>,
    keys: &'a [SortKey],
    /// The input rows, each behind its sort key values, in sorted order.
    buf: Option<std::vec::IntoIter<(Vec<Value>, Row)>>,
    cx: Ctx<'a>,
}

impl Op for Sort<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        if self.buf.is_none() {
            let mut decorated: Vec<(Vec<Value>, Row)> = Vec::new();
            while let Some(row) = self.input.next()? {
                let mut ks = Vec::with_capacity(self.keys.len());
                for k in self.keys {
                    ks.push(self.cx.eval(&k.expr, self.input.fields(), &row)?);
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
            self.buf = Some(decorated.into_iter());
        }
        let buf = self.buf.as_mut().expect("sorted buffer");
        Ok(buf.next().map(|(_, row)| row))
    }
}

/// One value of a δ or γ key. Integers stay exact, an integral float
/// meets the equal integer (`Int(3)` and `Float(3.0)` group together, as
/// SQL equality says), and strings are kept whole, so two different rows
/// never share a key.
#[derive(PartialEq, Eq, Hash)]
enum GroupKey {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(String),
}

/// The key δ dedups a whole row by, and γ groups its GROUP BY values by.
fn group_key(values: &[Value]) -> Vec<GroupKey> {
    // ±2⁶³ are exact as `f64`; an integral float in [-2⁶³, 2⁶³) casts to
    // `i64` without loss.
    const I64_END: f64 = 9_223_372_036_854_775_808.0;
    values
        .iter()
        .map(|v| match v {
            Value::Null => GroupKey::Null,
            Value::Bool(b) => GroupKey::Bool(*b),
            Value::Int(i) => GroupKey::Int(*i),
            Value::Float(f) if f.fract() == 0.0 && (-I64_END..I64_END).contains(f) => {
                GroupKey::Int(*f as i64)
            }
            Value::Float(f) if f.is_nan() => GroupKey::Float(f64::NAN.to_bits()),
            Value::Float(f) => GroupKey::Float(f.to_bits()),
            Value::Str(s) => GroupKey::Str(s.clone()),
        })
        .collect()
}

/// δ — streaming dedup keeping first occurrences; state is one key per
/// distinct row seen.
struct Dedup<'a> {
    input: Box<dyn Op + 'a>,
    seen: HashSet<Vec<GroupKey>>,
}

impl Op for Dedup<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self) -> Result<Option<Row>, EvalError> {
        while let Some(row) = self.input.next()? {
            if self.seen.insert(group_key(&row)) {
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
    group_by: &'a [ProjItem],
    aggs: &'a [AggCall],
    fields: Vec<Field>,
    out: Option<std::vec::IntoIter<Row>>,
    cx: Ctx<'a>,
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
            for (acc, a) in accs.iter_mut().zip(self.aggs) {
                acc.feed(&self.cx.eval(&a.arg, self.input.fields(), &row)?)?;
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
        let mut slots: HashMap<Vec<GroupKey>, usize> = HashMap::new();
        let mut groups: Vec<(Row, Vec<Accumulator>)> = Vec::new();
        while let Some(row) = self.input.next()? {
            let fields = self.input.fields();
            let mut keys = Vec::with_capacity(self.group_by.len());
            for g in self.group_by {
                keys.push(self.cx.eval(&g.expr, fields, &row)?);
            }
            let slot = *slots.entry(group_key(&keys)).or_insert_with(|| {
                let accs = self.aggs.iter().map(|a| Accumulator::new(a.func)).collect();
                groups.push((keys, accs));
                groups.len() - 1
            });
            for (acc, a) in groups[slot].1.iter_mut().zip(self.aggs) {
                acc.feed(&self.cx.eval(&a.arg, fields, &row)?)?;
            }
        }
        Ok(groups
            .into_iter()
            .map(|(mut out, accs)| {
                out.extend(accs.into_iter().map(Accumulator::finish));
                out
            })
            .collect())
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

    /// "Materialized" is the in-memory backing: the same plans must come
    /// out identical from rows held in a `Vec` and rows decoded from pages.
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
            "SELECT a.id, b.id AS o FROM t a JOIN t b ON a.x = b.g AND b.id < 20",
        ] {
            let q = parse_sql(sql).unwrap();
            let in_memory = execute(&q, &mem, &[]).unwrap();
            assert_eq!(in_memory, execute(&q, &paged, &[]).unwrap(), "{sql}");
            // The public entry point is the same function.
            assert_eq!(
                in_memory,
                crate::eval_query(&q, &paged, &[]).unwrap(),
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

    #[test]
    fn exists_pulls_one_row_and_stops() {
        // Every row after the first fails the subquery's predicate with a
        // type error (an integer compared with a string). EXISTS stops at
        // the first row, so the error is never raised.
        let (mem, _) = twin_dbs(3);
        let q = parse_sql(
            "SELECT id FROM t o WHERE EXISTS (SELECT id FROM t i WHERE i.id = 0 OR i.x < 'z')",
        )
        .unwrap();
        assert_eq!(execute(&q, &mem, &[]).unwrap().len(), 3);
    }

    /// Edge values beyond the end-to-end cases in `tests/volcano_diff.rs`.
    #[test]
    fn group_keys_follow_sql_equality_at_the_edges() {
        let key = |v: Value| group_key(&[v]);
        assert!(key(Value::Int(0)) == key(Value::Float(-0.0)));
        assert!(key(Value::Float(f64::NAN)) == key(Value::Float(-f64::NAN)));
        assert!(key(Value::Float(1.5)) != key(Value::Float(2.5)));
        assert!(key(Value::Null) != key(Value::Int(0)));
        assert!(key(Value::Bool(true)) != key(Value::Int(1)));
    }
}
