//! The relational executor: a volcano (iterator-model) operator tree that
//! runs every plan the algebra can express, over in-memory and paged
//! tables alike.
//!
//! Each operator pulls one row at a time from its child, into a row buffer
//! the caller owns: `next` overwrites the buffer it is handed, so a row
//! that flows through σ, LIMIT, ρ or δ is the scan's own buffer, and a
//! pipeline allocates per row only for what it keeps (a result row, a
//! sorted row, a δ key) or computes (a string). Scans, σ, π, ρ and LIMIT
//! stream; τ buffers its input (a blocking operator, as the paper treats
//! it); δ and γ hold one entry per distinct row or group. A join
//! materializes its right input once and streams its left; `OUTER APPLY`
//! evaluates its right side once per left row, with that row as the outer
//! scope; `VALUES` yields its literal rows. Over a paged table the scan
//! holds one B-tree leaf at a time, so memory is bounded by operator state
//! rather than by the table.
//!
//! Each operator binds its scalars to its input's fields when the tree is
//! built ([`Bound`]): a column is a slot index from then on, and only a
//! column the input lacks is looked up by name, in the outer scope the
//! tree was built in. A correlated subquery — `EXISTS`, a scalar subquery,
//! the right side of an apply — is just a tree built under the current
//! row. `EXISTS` and scalar subqueries pull a single row and stop
//! (`first_row`).
//!
//! A [`Cursor`] is an opened tree: a caller pulls its rows one at a time
//! into a buffer it owns, as the interpreter's streaming cursor loops do.
//! [`execute`] opens one and drains it into a [`Relation`].
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

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use algebra::ra::{AggCall, JoinKind, RaExpr, SortKey, SortOrder};
use algebra::scalar::{Lit, Scalar};

use crate::eval::{empty_agg, fields_of, Accumulator, Bound, EvalError, Scope};
use crate::table::{Database, Field, Relation, Row, TableScan};
use crate::value::Value;

/// Execute a plan: open a [`Cursor`] on it and drain it into a
/// [`Relation`]. Every buffered query runs here: [`crate::eval_query`] is
/// this function.
pub fn execute(ra: &RaExpr, db: &Database, params: &[Value]) -> Result<Relation, EvalError> {
    let mut cursor = Cursor::open(ra, db, params)?;
    let fields = cursor.fields().to_vec();
    let rows = drain(cursor.op.as_mut())?;
    Ok(Relation { fields, rows })
}

/// An open query: the operator tree of a plan, yielding its result one row
/// at a time. It borrows the plan, the database and the parameters until
/// it is dropped, and holds only operator state, never the whole result
/// (unless an operator below must, as τ does). A caller that pulls rows
/// itself meters them with [`crate::connection::Transfer`].
pub struct Cursor<'a> {
    op: Box<dyn Op + 'a>,
}

impl<'a> Cursor<'a> {
    /// Build the operator tree for `ra` over `db`. An error found while
    /// building (an unknown table, a failing join input, which is
    /// materialized here) is returned now; one found on a row is returned
    /// by the [`Cursor::next`] that reaches it.
    pub fn open(
        ra: &'a RaExpr,
        db: &'a Database,
        params: &'a [Value],
    ) -> Result<Cursor<'a>, EvalError> {
        let columns = scan_columns(ra);
        let cx = Ctx {
            db,
            params,
            outer: None,
        };
        Ok(Cursor {
            op: build(ra, cx, columns.as_deref())?,
        })
    }

    /// The result's columns.
    pub fn fields(&self) -> &[Field] {
        self.op.fields()
    }

    /// Overwrite `row` with the next result row, reusing its allocations;
    /// `false` once the result is exhausted, leaving `row` unspecified.
    /// After an error the cursor must not be pulled again.
    pub fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        self.op.next(row)
    }
}

/// Pull every remaining row out of `op`.
fn drain(op: &mut dyn Op) -> Result<Vec<Row>, EvalError> {
    let mut rows = Vec::new();
    let mut row = Row::new();
    while op.next(&mut row)? {
        rows.push(std::mem::take(&mut row));
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
    let mut row = Row::new();
    let found = build(ra, Ctx { db, params, outer }, None)?.next(&mut row)?;
    Ok(found.then_some(row))
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
    /// Evaluate `e`, bound to `fields`, on `row`.
    fn eval<'r>(
        &'r self,
        e: &'r Bound<'_>,
        fields: &'r [Field],
        row: &'r [Value],
    ) -> Result<Cow<'r, Value>, EvalError> {
        let scope = Scope {
            fields,
            row,
            parent: self.outer,
        };
        e.eval(self.db, self.params, &scope)
    }
}

/// One operator in the tree: exposes its output schema and yields rows
/// one at a time.
trait Op {
    fn fields(&self) -> &[Field];

    /// Overwrite `row` with the next row, reusing its allocations; `false`
    /// once the operator is exhausted, leaving `row` unspecified.
    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError>;
}

/// Bind each of `exprs` to `fields`.
fn bind_all<'a>(exprs: impl IntoIterator<Item = &'a Scalar>, fields: &[Field]) -> Vec<Bound<'a>> {
    exprs.into_iter().map(|e| Bound::new(e, fields)).collect()
}

/// Build the operator tree; `columns` is [`scan_columns`] of the whole
/// plan, handed down to the scan. An operator with a schema of its own
/// takes it from [`fields_of`], and binds its scalars to its input's.
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
        RaExpr::Select { input, pred } => {
            let input = build(input, cx, columns)?;
            Box::new(Filter {
                pred: Bound::new(pred, input.fields()),
                input,
                cx,
            })
        }
        RaExpr::Project { input, items } => {
            let input = build(input, cx, columns)?;
            Box::new(Project {
                items: bind_all(items.iter().map(|i| &i.expr), input.fields()),
                input,
                buf: Row::new(),
                fields: fields_of(ra, cx.db)?,
                cx,
            })
        }
        RaExpr::Join {
            left,
            right,
            pred,
            kind,
        } => {
            let left = build(left, cx, None)?;
            let mut right = build(right, cx, None)?;
            let fields = fields_of(ra, cx.db)?;
            Box::new(Join {
                left_width: left.fields().len(),
                left,
                right: drain(right.as_mut())?,
                pred: Bound::new(pred, &fields),
                kind: *kind,
                fields,
                buf: Row::new(),
                pos: None,
                matched: false,
                cx,
            })
        }
        RaExpr::OuterApply { left, right } => Box::new(Apply {
            left: build(left, cx, None)?,
            right,
            fields: fields_of(ra, cx.db)?,
            left_row: Row::new(),
            pending: Vec::new().into_iter(),
            cx,
        }),
        RaExpr::Sort { input, keys } => {
            let input = build(input, cx, columns)?;
            Box::new(Sort {
                exprs: bind_all(keys.iter().map(|k| &k.expr), input.fields()),
                input,
                keys,
                buf: None,
                cx,
            })
        }
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
        } => {
            let input = build(input, cx, columns)?;
            Box::new(Aggregate {
                keys: bind_all(group_by.iter().map(|g| &g.expr), input.fields()),
                args: bind_all(aggs.iter().map(|a| &a.arg), input.fields()),
                input,
                aggs,
                buf: Row::new(),
                fields: fields_of(ra, cx.db)?,
                out: None,
                cx,
            })
        }
        RaExpr::Aliased { input, .. } => Box::new(Alias {
            input: build(input, cx, columns)?,
            fields: fields_of(ra, cx.db)?,
        }),
    })
}

/// Base-table scan in insertion order (one leaf page resident at a time
/// for paged tables), decoding or copying into the caller's buffer.
struct SeqScan<'a> {
    fields: Vec<Field>,
    scan: TableScan<'a>,
}

impl Op for SeqScan<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        Ok(self.scan.next_into(row))
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

    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        let Some(lits) = self.rows.next() else {
            return Ok(false);
        };
        row.clear();
        row.extend(lits.iter().map(Value::from_lit));
        Ok(true)
    }
}

/// σ — keep rows whose predicate is TRUE (not FALSE, not NULL).
struct Filter<'a> {
    input: Box<dyn Op + 'a>,
    pred: Bound<'a>,
    cx: Ctx<'a>,
}

impl Op for Filter<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        while self.input.next(row)? {
            if self
                .cx
                .eval(&self.pred, self.input.fields(), row)?
                .is_true()
            {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// π — order-preserving, duplicate-keeping projection.
struct Project<'a> {
    input: Box<dyn Op + 'a>,
    items: Vec<Bound<'a>>,
    /// The input row being projected.
    buf: Row,
    fields: Vec<Field>,
    cx: Ctx<'a>,
}

impl Op for Project<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        if !self.input.next(&mut self.buf)? {
            return Ok(false);
        }
        row.clear();
        for item in &self.items {
            row.push(
                self.cx
                    .eval(item, self.input.fields(), &self.buf)?
                    .into_owned(),
            );
        }
        Ok(true)
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
    pred: Bound<'a>,
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

    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        loop {
            let Some(pos) = self.pos else {
                if !self.left.next(&mut self.buf)? {
                    return Ok(false);
                }
                self.pos = Some(0);
                self.matched = false;
                continue;
            };
            if let Some(r) = self.right.get(pos) {
                self.pos = Some(pos + 1);
                self.buf.truncate(self.left_width);
                self.buf.extend_from_slice(r);
                if self.cx.eval(&self.pred, &self.fields, &self.buf)?.is_true() {
                    self.matched = true;
                    row.clone_from(&self.buf);
                    return Ok(true);
                }
                continue;
            }
            self.pos = None;
            if !self.matched && self.kind == JoinKind::LeftOuter {
                self.buf.truncate(self.left_width);
                self.buf.resize(self.fields.len(), Value::Null);
                row.clone_from(&self.buf);
                return Ok(true);
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
    /// The current left row.
    left_row: Row,
    /// Right rows for the current left row not yet returned.
    pending: std::vec::IntoIter<Row>,
    cx: Ctx<'a>,
}

impl Op for Apply<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        loop {
            if let Some(right) = self.pending.next() {
                row.clone_from(&self.left_row);
                row.extend(right);
                return Ok(true);
            }
            if !self.left.next(&mut self.left_row)? {
                return Ok(false);
            }
            let inner = {
                let scope = Scope {
                    fields: self.left.fields(),
                    row: &self.left_row,
                    parent: self.cx.outer,
                };
                let cx = Ctx {
                    outer: Some(&scope),
                    ..self.cx
                };
                let mut op = build(self.right, cx, None)?;
                drain(op.as_mut())?
            };
            if inner.is_empty() {
                row.clone_from(&self.left_row);
                row.resize(self.fields.len(), Value::Null);
                return Ok(true);
            }
            self.pending = inner.into_iter();
        }
    }
}

/// τ — blocking sort; decorate-sort-undecorate with the shared
/// NULLs-first comparator, stable.
struct Sort<'a> {
    input: Box<dyn Op + 'a>,
    keys: &'a [SortKey],
    /// `keys`' expressions, bound to the input.
    exprs: Vec<Bound<'a>>,
    /// The input rows, each behind its sort key values, in sorted order.
    buf: Option<std::vec::IntoIter<(Vec<Value>, Row)>>,
    cx: Ctx<'a>,
}

impl Op for Sort<'_> {
    fn fields(&self) -> &[Field] {
        self.input.fields()
    }

    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        if self.buf.is_none() {
            let mut decorated: Vec<(Vec<Value>, Row)> = Vec::new();
            while self.input.next(row)? {
                let mut ks = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    ks.push(self.cx.eval(e, self.input.fields(), row)?.into_owned());
                }
                decorated.push((ks, std::mem::take(row)));
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
        Ok(match buf.next() {
            Some((_, sorted)) => {
                *row = sorted;
                true
            }
            None => false,
        })
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

    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        while self.input.next(row)? {
            if self.seen.insert(group_key(row)) {
                return Ok(true);
            }
        }
        Ok(false)
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

    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        if self.remaining == 0 || !self.input.next(row)? {
            return Ok(false);
        }
        self.remaining -= 1;
        Ok(true)
    }
}

/// γ — streaming aggregation: one pass over the input feeding per-group
/// accumulators; groups emit in first-occurrence order. Memory is
/// O(groups), not O(rows).
struct Aggregate<'a> {
    input: Box<dyn Op + 'a>,
    aggs: &'a [AggCall],
    /// The GROUP BY expressions and each aggregate's argument, bound to
    /// the input.
    keys: Vec<Bound<'a>>,
    args: Vec<Bound<'a>>,
    /// The input row being aggregated.
    buf: Row,
    fields: Vec<Field>,
    out: Option<std::vec::IntoIter<Row>>,
    cx: Ctx<'a>,
}

impl Op for Aggregate<'_> {
    fn fields(&self) -> &[Field] {
        &self.fields
    }

    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        if self.out.is_none() {
            let rows = if self.keys.is_empty() {
                vec![self.global()?]
            } else {
                self.grouped()?
            };
            self.out = Some(rows.into_iter());
        }
        Ok(match self.out.as_mut().expect("aggregate output").next() {
            Some(out) => {
                *row = out;
                true
            }
            None => false,
        })
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
        while self.input.next(&mut self.buf)? {
            saw_rows = true;
            self.feed(&mut accs)?;
        }
        Ok(if saw_rows {
            accs.into_iter().map(Accumulator::finish).collect()
        } else {
            self.aggs.iter().map(|a| empty_agg(a.func)).collect()
        })
    }

    /// Feed each accumulator its argument on the buffered row. A bare
    /// column, the usual argument, is read straight from the row rather
    /// than through the evaluator's result: in the scan loop of a global
    /// aggregate that saves about a fifth of the time per row.
    fn feed(&self, accs: &mut [Accumulator]) -> Result<(), EvalError> {
        for (acc, arg) in accs.iter_mut().zip(&self.args) {
            match arg.column() {
                Some(i) => acc.feed(&self.buf[i])?,
                None => acc.feed(&*self.cx.eval(arg, self.input.fields(), &self.buf)?)?,
            }
        }
        Ok(())
    }

    /// GROUP BY: per-group accumulators keyed by the group values, emitted
    /// in first-occurrence order.
    fn grouped(&mut self) -> Result<Vec<Row>, EvalError> {
        let mut slots: HashMap<Vec<GroupKey>, usize> = HashMap::new();
        let mut groups: Vec<(Row, Vec<Accumulator>)> = Vec::new();
        while self.input.next(&mut self.buf)? {
            let fields = self.input.fields();
            let mut keys = Vec::with_capacity(self.keys.len());
            for k in &self.keys {
                keys.push(self.cx.eval(k, fields, &self.buf)?.into_owned());
            }
            let slot = *slots.entry(group_key(&keys)).or_insert_with(|| {
                let accs = self.aggs.iter().map(|a| Accumulator::new(a.func)).collect();
                groups.push((keys, accs));
                groups.len() - 1
            });
            self.feed(&mut groups[slot].1)?;
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

    fn next(&mut self, row: &mut Row) -> Result<bool, EvalError> {
        self.input.next(row)
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
        // Binding: a subquery's own column shadows the outer one of the
        // same name (consecutive rows never share `x`), and an unqualified
        // name two join inputs share binds to the leftmost.
        let ids =
            |r: Relation| -> Vec<Value> { r.rows.into_iter().map(|r| r[0].clone()).collect() };
        for (sql, want) in [
            (
                "SELECT id FROM t o WHERE EXISTS \
                 (SELECT id FROM t i WHERE i.id = o.id + 1 AND x = o.x)",
                vec![],
            ),
            (
                "SELECT id FROM t a JOIN t b ON b.id = a.id + 1 WHERE id < 3",
                vec![Value::Int(0), Value::Int(1), Value::Int(2)],
            ),
            (
                "SELECT b.id FROM t a JOIN t b ON id = 3 AND b.id < 2",
                vec![Value::Int(0), Value::Int(1)],
            ),
        ] {
            let q = parse_sql(sql).unwrap();
            assert_eq!(ids(execute(&q, &mem, &[]).unwrap()), want, "{sql}");
            assert_eq!(ids(execute(&q, &paged, &[]).unwrap()), want, "{sql}");
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
        // An unknown column is an error only on a row that evaluates it:
        // none under LIMIT 0, none over an empty table, and every row
        // otherwise.
        let (empty, empty_paged) = twin_dbs(0);
        let unknown = "SELECT nope FROM t WHERE zzz = 1";
        for (sql, db) in [
            (format!("{unknown} LIMIT 0"), &mem),
            (unknown.to_string(), &empty),
            (unknown.to_string(), &empty_paged),
        ] {
            let q = parse_sql(&sql).unwrap();
            assert_eq!(execute(&q, db, &[]).map(|r| r.len()), Ok(0), "{sql}");
        }
        let q = parse_sql(unknown).unwrap();
        assert_eq!(
            execute(&q, &mem, &[]),
            Err(EvalError::UnknownColumn("zzz".into()))
        );
    }

    /// The parser's nesting cap bounds every recursion over a query: one
    /// exactly at the cap parses, binds and runs on a 2 MiB stack, as a
    /// scalar nested that deep and as subqueries nested that deep, and one
    /// level more is a parse error.
    #[test]
    fn queries_at_the_nesting_cap_run_on_a_small_stack() {
        use algebra::parse::MAX_DEPTH;
        let scalar = |depth: usize| {
            format!(
                "SELECT id FROM t WHERE x <= {}x{}",
                "ABS(".repeat(depth),
                ")".repeat(depth)
            )
        };
        let subqueries = |depth: usize| {
            let mut q = "SELECT id FROM t".to_string();
            for _ in 0..depth {
                q = format!("SELECT id FROM t WHERE EXISTS ({q})");
            }
            q
        };
        for sql in [scalar(MAX_DEPTH), subqueries(MAX_DEPTH)] {
            let run = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || {
                    let (mem, paged) = twin_dbs(1);
                    let q = parse_sql(&sql).unwrap();
                    let rows = execute(&q, &mem, &[]).unwrap();
                    assert_eq!(rows, execute(&q, &paged, &[]).unwrap());
                    rows.len()
                })
                .unwrap();
            assert_eq!(run.join().unwrap(), 1);
        }
        for sql in [scalar(MAX_DEPTH + 1), subqueries(MAX_DEPTH + 1)] {
            let err = parse_sql(&sql).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
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
