//! The DML subset backing `executeUpdate`.
//!
//! Originally updates only needed to *exist* so the dependence analysis
//! could observe external writes (paper Sec. 7.1); foreach-dml extraction
//! (DESIGN.md §5i) additionally needs to *run* both sides of a write-loop
//! rewrite, so the executor covers the per-row statements loops issue and
//! the set-oriented statements the extractor emits. Statements parse with
//! [`algebra::parse::parse_statement`] (its header has the grammar) into
//! an [`algebra::dml::Stmt`], the same front end every query string uses.
//!
//! Semantics pin down the loop-equivalence argument:
//!
//! * Subqueries and predicates are evaluated **fully, against the
//!   pre-statement state**, before any mutation (Halloween protection —
//!   exactly the snapshot a materialized cursor loop sees). An evaluation
//!   error leaves the table untouched.
//! * `UPDATE … FROM` and `DELETE … IN` match target rows against their
//!   source rows through one hash build over the source keys per
//!   statement ([`dbms::key::KeyIndex`]), never a nested loop. Target rows
//!   match on their **pre-statement** keys, as in SQL: a key an earlier
//!   source row rewrites is not matched again by a later one. When several
//!   source rows match one target row, the last of them in source order
//!   wins, which is the per-row loop's behaviour; the affected count
//!   counts every (source, target) match pair.
//! * `WHERE col = <constant>` and key matches compare by column index
//!   with SQL equality ([`dbms::key::sql_eq`]): `NULL` matches nothing,
//!   even another `NULL`, and `3` matches `3.0`. Any other predicate is
//!   evaluated per row; `NULL` counts as not taken. A constant is any
//!   scalar that reads no row: a literal, a `?`, or an expression over
//!   them such as `-1` or `? + 1`, evaluated once per statement.
//! * A keyed point statement — `UPDATE`/`DELETE … WHERE k = <constant>`
//!   on an in-memory table whose declared single-column primary key is
//!   `k` — visits only its rows: the table's key index
//!   ([`dbms::Table::key_slots`], shared with the hash build above) finds
//!   them, computed `SET` values are evaluated for those rows alone, and
//!   [`dbms::Table::update_slot`] / [`dbms::Table::delete_slots`] write
//!   them in place. Scan order, and so every result, is the same as a
//!   scan's.
//! * Both backings run every form: paged tables rewrite through
//!   [`dbms::Table::mutate_rows`], keyed statements included, and end
//!   identical to in-memory ones.

use std::borrow::Cow;

use algebra::dml::{InsertSource, Stmt};
use algebra::parse::parse_statement;
use algebra::scalar::{BinOp, ColRef, Scalar};
use algebra::RaExpr;
use dbms::eval::{eval_query, eval_scalar, fields_of, Bound, Scope};
use dbms::key::{sql_eq, KeyIndex};
use dbms::table::Field;
use dbms::{Database, EvalError, Row, Table, Value};

/// A DML execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmlError(pub String);

impl std::fmt::Display for DmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DML error: {}", self.0)
    }
}

impl std::error::Error for DmlError {}

impl From<EvalError> for DmlError {
    fn from(e: EvalError) -> DmlError {
        DmlError(e.to_string())
    }
}

/// Parse and execute a DML statement; returns the number of affected
/// rows. `params` substitute `?` placeholders, numbered left to right over
/// the whole statement.
pub fn execute_update(db: &mut Database, sql: &str, params: &[Value]) -> Result<i64, DmlError> {
    let stmt = parse_statement(sql).map_err(|e| DmlError(e.to_string()))?;
    execute_stmt(db, &stmt, params)
}

/// Execute a parsed DML statement; returns the number of affected rows.
pub fn execute_stmt(db: &mut Database, stmt: &Stmt, params: &[Value]) -> Result<i64, DmlError> {
    match stmt {
        Stmt::Insert {
            table,
            columns,
            source,
        } => exec_insert(db, table, columns.as_deref(), source, params),
        Stmt::Update {
            table,
            sets,
            filter,
        } => exec_update(db, table, sets, filter.as_ref(), params),
        Stmt::UpdateFrom {
            table,
            sets,
            source,
            key,
            source_key,
            ..
        } => exec_update_from(db, table, sets, source, key, source_key, params),
        Stmt::Delete { table, filter } => exec_delete(db, table, filter.as_ref(), params),
        Stmt::DeleteIn {
            table,
            column,
            query,
        } => exec_delete_in(db, table, column, query, params),
    }
}

fn table<'a>(db: &'a Database, name: &str) -> Result<&'a Table, DmlError> {
    db.table(name)
        .ok_or_else(|| DmlError(format!("unknown table {name}")))
}

fn table_mut<'a>(db: &'a mut Database, name: &str) -> &'a mut Table {
    db.table_mut(name).expect("table looked up before mutation")
}

fn column(t: &Table, name: &str) -> Result<usize, DmlError> {
    t.schema
        .column_index(name)
        .ok_or_else(|| DmlError(format!("unknown column {name}")))
}

/// The value of a scalar that reads no row — a literal, a `?`, or
/// operators and functions over them, such as `-1` — evaluated once. A
/// missing `?` is an error; any other expression that fails to evaluate
/// is left to the per-row path, so it fails exactly where a scan would.
fn constant(e: &Scalar, db: &Database, params: &[Value]) -> Option<Result<Value, DmlError>> {
    match e {
        Scalar::Lit(l) => Some(Ok(Value::from_lit(l))),
        Scalar::Param(i) => Some(
            params
                .get(*i)
                .cloned()
                .ok_or_else(|| EvalError::MissingParam(*i).into()),
        ),
        _ => {
            let mut row_free = true;
            e.walk(&mut |s| {
                row_free &= !matches!(s, Scalar::Col(_) | Scalar::Exists(_) | Scalar::Subquery(_))
            });
            if !row_free {
                return None;
            }
            eval_scalar(e, db, params, None).ok().map(Ok)
        }
    }
}

/// The fields a statement's scalars bind to: `t`'s columns, qualified by
/// its name.
fn table_fields(db: &Database, t: &Table) -> Result<Vec<Field>, DmlError> {
    Ok(fields_of(&RaExpr::table(t.schema.name.clone()), db)?)
}

/// Evaluate `f` on every row of `t` (laid out as `fields`), in scan order,
/// against the pre-statement state. Rows are read into one reused buffer.
fn per_row<T>(
    t: &Table,
    fields: &[Field],
    mut f: impl FnMut(&Scope<'_>, &[Value]) -> Result<T, EvalError>,
) -> Result<Vec<T>, DmlError> {
    let mut out = Vec::with_capacity(t.len());
    let mut scan = t.scan();
    let mut row = Row::new();
    while scan.next_into(&mut row) {
        out.push(f(&Scope::new(fields, &row), &row)?);
    }
    Ok(out)
}

/// The rows a `WHERE` clause takes.
enum Filter<'a> {
    /// No `WHERE`.
    All,
    /// `col = <constant>`, compared by column index.
    Key(usize, Value),
    /// Any other predicate, evaluated per row.
    Pred(&'a Scalar),
}

impl<'a> Filter<'a> {
    fn of(
        db: &Database,
        t: &Table,
        filter: Option<&'a Scalar>,
        params: &[Value],
    ) -> Result<Filter<'a>, DmlError> {
        let Some(pred) = filter else {
            return Ok(Filter::All);
        };
        if let Scalar::Bin(BinOp::Eq, l, r) = pred {
            if let (Scalar::Col(c), Some(v)) = (l.as_ref(), constant(r, db, params)) {
                if c.qualifier.as_deref().is_none_or(|q| q == t.schema.name) {
                    return Ok(Filter::Key(column(t, &c.column)?, v?));
                }
            }
        }
        Ok(Filter::Pred(pred))
    }

    /// Whether an `All`/`Key` filter takes `row`; a `Pred` is bound and
    /// evaluated per row instead.
    fn takes_row(&self, row: &[Value]) -> bool {
        match self {
            Filter::All => true,
            Filter::Key(i, v) => sql_eq(&row[*i], v),
            Filter::Pred(_) => unreachable!("a predicate is evaluated in a scope"),
        }
    }
}

// --- INSERT ---------------------------------------------------------------

fn exec_insert(
    db: &mut Database,
    name: &str,
    columns: Option<&[String]>,
    source: &InsertSource,
    params: &[Value],
) -> Result<i64, DmlError> {
    let t = table(db, name)?;
    let width = t.schema.columns.len();
    // Schema positions of the named columns; unnamed ones stay NULL.
    let slots = match columns {
        None => None,
        Some(cols) => Some(
            cols.iter()
                .map(|c| column(t, c))
                .collect::<Result<Vec<_>, _>>()?,
        ),
    };
    let arity = slots.as_ref().map_or(width, Vec::len);
    // An incoming tuple, laid out in schema order.
    let place = |vals: Vec<Value>| {
        if vals.len() != arity {
            return Err(DmlError(format!(
                "INSERT arity mismatch: {} values for {arity} columns",
                vals.len()
            )));
        }
        let Some(slots) = &slots else {
            return Ok(vals);
        };
        let mut row = vec![Value::Null; width];
        for (i, v) in slots.iter().zip(vals) {
            row[*i] = v;
        }
        Ok(row)
    };
    let rows = match source {
        InsertSource::Values(vals) => vec![place(
            vals.iter()
                .map(|v| eval_scalar(v, db, params, None))
                .collect::<Result<_, _>>()?,
        )?],
        InsertSource::Query(q) => eval_query(q, db, params)
            .map_err(|e| DmlError(format!("source query failed: {e}")))?
            .rows
            .into_iter()
            .map(place)
            .collect::<Result<_, _>>()?,
    };
    let n = rows.len() as i64;
    for row in rows {
        db.insert(name, row);
    }
    Ok(n)
}

// --- UPDATE ---------------------------------------------------------------

fn assign(row: &mut [Value], cols: &[usize], vals: &[Value]) {
    for (i, v) in cols.iter().zip(vals) {
        row[*i] = v.clone();
    }
}

fn exec_update(
    db: &mut Database,
    name: &str,
    sets: &[(String, Scalar)],
    filter: Option<&Scalar>,
    params: &[Value],
) -> Result<i64, DmlError> {
    let t = table(db, name)?;
    let cols = sets
        .iter()
        .map(|(c, _)| column(t, c))
        .collect::<Result<Vec<_>, _>>()?;
    let filter = Filter::of(db, t, filter, params)?;
    let consts = sets
        .iter()
        .map(|(_, e)| constant(e, db, params))
        .collect::<Option<Result<Vec<_>, _>>>()
        .transpose()?;
    if let Filter::Key(col, v) = &filter {
        if let Some(slots) = table_mut(db, name).key_slots(*col, v) {
            return update_slots(db, name, &slots, sets, &cols, consts.as_deref(), params);
        }
    }
    if let (Some(vals), Filter::All | Filter::Key(..)) = (&consts, &filter) {
        // Constant values under a key filter: no pre-pass needed.
        return Ok(table_mut(db, name).mutate_rows(|rows| {
            let mut affected = 0;
            for row in rows.iter_mut().filter(|r| filter.takes_row(r)) {
                assign(row, &cols, vals);
                affected += 1;
            }
            affected
        }));
    }
    // Each taken row's new values, computed against the pre-statement state.
    let t = table(db, name)?;
    let fields = table_fields(db, t)?;
    let pred = match filter {
        Filter::Pred(p) => Some(Bound::new(p, &fields)),
        _ => None,
    };
    let values: Vec<Bound<'_>> = sets.iter().map(|(_, e)| Bound::new(e, &fields)).collect();
    let updates = per_row(t, &fields, |scope, row| {
        let taken = match &pred {
            Some(p) => p.eval(db, params, scope)?.is_true(),
            None => filter.takes_row(row),
        };
        if !taken {
            return Ok(None);
        }
        values
            .iter()
            .map(|v| v.eval(db, params, scope).map(Cow::into_owned))
            .collect::<Result<Vec<_>, _>>()
            .map(Some)
    })?;
    Ok(table_mut(db, name).mutate_rows(|rows| {
        let mut affected = 0;
        for (row, vals) in rows.iter_mut().zip(&updates) {
            if let Some(vals) = vals {
                assign(row, &cols, vals);
                affected += 1;
            }
        }
        affected
    }))
}

/// A keyed `UPDATE` on the rows in `slots`, found through the table's key
/// index: only those rows are visited. Computed values are evaluated for
/// each, in scan order, against the pre-statement state, then written.
fn update_slots(
    db: &mut Database,
    name: &str,
    slots: &[usize],
    sets: &[(String, Scalar)],
    cols: &[usize],
    consts: Option<&[Value]>,
    params: &[Value],
) -> Result<i64, DmlError> {
    let computed = match consts {
        Some(_) => Vec::new(),
        None => {
            let t = table(db, name)?;
            let fields = table_fields(db, t)?;
            let values: Vec<Bound<'_>> = sets.iter().map(|(_, e)| Bound::new(e, &fields)).collect();
            slots
                .iter()
                .map(|&s| {
                    let scope = Scope::new(&fields, t.slot(s));
                    values
                        .iter()
                        .map(|v| v.eval(db, params, &scope).map(Cow::into_owned))
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let t = table_mut(db, name);
    for (i, &s) in slots.iter().enumerate() {
        let vals = consts.unwrap_or_else(|| &computed[i]);
        t.update_slot(s, |row| assign(row, cols, vals));
    }
    Ok(slots.len() as i64)
}

fn exec_update_from(
    db: &mut Database,
    name: &str,
    sets: &[(String, String)],
    source: &RaExpr,
    key: &ColRef,
    source_key: &str,
    params: &[Value],
) -> Result<i64, DmlError> {
    let rel =
        eval_query(source, db, params).map_err(|e| DmlError(format!("subquery failed: {e}")))?;
    let t = table(db, name)?;
    let key_idx = column(t, &key.column)?;
    let key_src = rel.resolve(None, source_key).map_err(DmlError)?;
    let set_idxs = sets
        .iter()
        .map(|(c, s)| Ok((column(t, c)?, rel.resolve(None, s).map_err(DmlError)?)))
        .collect::<Result<Vec<_>, DmlError>>()?;
    let index = KeyIndex::build(&rel.rows, key_src);
    Ok(table_mut(db, name).mutate_rows(|rows| {
        let mut affected = 0;
        for row in rows.iter_mut() {
            // Match on the pre-statement key, before the row is written.
            let mut hits = index.matches(&rel.rows, &row[key_idx]);
            let Some(last) = hits.next() else { continue };
            affected += 1 + hits.count() as i64;
            let srow = &rel.rows[last];
            for (tc, sc) in &set_idxs {
                row[*tc] = srow[*sc].clone();
            }
        }
        affected
    }))
}

// --- DELETE ---------------------------------------------------------------

fn exec_delete(
    db: &mut Database,
    name: &str,
    filter: Option<&Scalar>,
    params: &[Value],
) -> Result<i64, DmlError> {
    let filter = Filter::of(db, table(db, name)?, filter, params)?;
    if let Filter::Key(col, v) = &filter {
        let t = table_mut(db, name);
        if let Some(slots) = t.key_slots(*col, v) {
            t.delete_slots(&slots);
            return Ok(slots.len() as i64);
        }
    }
    let t = table(db, name)?;
    let doomed = match filter {
        Filter::Pred(p) => {
            let fields = table_fields(db, t)?;
            let pred = Bound::new(p, &fields);
            Some(per_row(t, &fields, |scope, _| {
                Ok(pred.eval(db, params, scope)?.is_true())
            })?)
        }
        _ => None,
    };
    Ok(table_mut(db, name).mutate_rows(|rows| {
        let before = rows.len();
        match (doomed, &filter) {
            // `retain` visits every row once, in order.
            (Some(doomed), _) => {
                let mut gone = doomed.into_iter();
                rows.retain(|_| !gone.next().unwrap_or(false));
            }
            (None, Filter::Key(i, v)) => rows.retain(|r| !sql_eq(&r[*i], v)),
            (None, _) => rows.clear(),
        }
        (before - rows.len()) as i64
    }))
}

fn exec_delete_in(
    db: &mut Database,
    name: &str,
    column_name: &str,
    query: &RaExpr,
    params: &[Value],
) -> Result<i64, DmlError> {
    let rel =
        eval_query(query, db, params).map_err(|e| DmlError(format!("subquery failed: {e}")))?;
    if rel.fields.len() != 1 {
        return Err(DmlError(format!(
            "IN subquery must produce one column, got {}",
            rel.fields.len()
        )));
    }
    let index = KeyIndex::build(&rel.rows, 0);
    let idx = column(table(db, name)?, column_name)?;
    Ok(table_mut(db, name).mutate_rows(|rows| {
        let before = rows.len();
        rows.retain(|r| index.matches(&rel.rows, &r[idx]).next().is_none());
        (before - rows.len()) as i64
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::parse::parse_sql;
    use algebra::schema::{SqlType, TableSchema};

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(TableSchema::new(
            "log",
            &[("id", SqlType::Int), ("msg", SqlType::Text)],
        ));
        d.insert("log", vec![Value::Int(1), "a".into()]);
        d.insert("log", vec![Value::Int(2), "b".into()]);
        d
    }

    fn emp_db() -> Database {
        let mut d = Database::new();
        d.create_table(
            TableSchema::new("emp", &[("id", SqlType::Int), ("salary", SqlType::Int)])
                .with_key(&["id"]),
        );
        d.insert("emp", vec![Value::Int(1), Value::Int(10)]);
        d.insert("emp", vec![Value::Int(2), Value::Int(20)]);
        d.insert("emp", vec![Value::Int(3), Value::Null]);
        d
    }

    #[test]
    fn insert_values() {
        let mut d = db();
        let n = execute_update(&mut d, "INSERT INTO log VALUES (3, 'c')", &[]).unwrap();
        assert_eq!(n, 1);
        assert_eq!(d.table("log").unwrap().len(), 3);
    }

    #[test]
    fn insert_with_params() {
        let mut d = db();
        execute_update(
            &mut d,
            "INSERT INTO log VALUES (?, ?)",
            &[Value::Int(9), "z".into()],
        )
        .unwrap();
        assert_eq!(
            d.table("log").unwrap().scan().nth(2).unwrap(),
            vec![Value::Int(9), Value::Str("z".into())]
        );
    }

    #[test]
    fn insert_with_column_list_reorders() {
        let mut d = db();
        execute_update(
            &mut d,
            "INSERT INTO log (msg, id) VALUES (?, ?)",
            &["z".into(), Value::Int(9)],
        )
        .unwrap();
        assert_eq!(
            d.table("log").unwrap().scan().nth(2).unwrap(),
            vec![Value::Int(9), Value::Str("z".into())]
        );
    }

    #[test]
    fn insert_select_snapshots_the_source() {
        let mut d = db();
        // Self-insert must read the pre-statement state: 2 rows in, 2 added.
        let n = execute_update(&mut d, "INSERT INTO log SELECT id, msg FROM log", &[]).unwrap();
        assert_eq!(n, 2);
        assert_eq!(d.table("log").unwrap().len(), 4);
    }

    #[test]
    fn delete_with_filter() {
        let mut d = db();
        let n = execute_update(&mut d, "DELETE FROM log WHERE id = 1", &[]).unwrap();
        assert_eq!(n, 1);
        assert_eq!(d.table("log").unwrap().len(), 1);
    }

    #[test]
    fn delete_all() {
        let mut d = db();
        let n = execute_update(&mut d, "DELETE FROM log", &[]).unwrap();
        assert_eq!(n, 2);
        assert!(d.table("log").unwrap().is_empty());
    }

    #[test]
    fn delete_null_key_matches_nothing() {
        let mut d = emp_db();
        let n = execute_update(&mut d, "DELETE FROM emp WHERE salary = ?", &[Value::Null]).unwrap();
        assert_eq!(n, 0, "NULL key must match no rows, not the NULL row");
        assert_eq!(d.table("emp").unwrap().len(), 3);
    }

    #[test]
    fn delete_in_subquery() {
        let mut d = emp_db();
        let n = execute_update(
            &mut d,
            "DELETE FROM emp WHERE id IN (SELECT id FROM emp WHERE salary >= 20)",
            &[],
        )
        .unwrap();
        assert_eq!(n, 1);
        assert_eq!(d.table("emp").unwrap().len(), 2);
    }

    #[test]
    fn delete_general_predicate() {
        let mut d = emp_db();
        // NULL salary is neither < 15 nor >= 15: the row survives.
        let n = execute_update(&mut d, "DELETE FROM emp WHERE (salary < 15)", &[]).unwrap();
        assert_eq!(n, 1);
        assert_eq!(d.table("emp").unwrap().len(), 2);
    }

    #[test]
    fn simple_update_with_filter() {
        let mut d = emp_db();
        let n = execute_update(
            &mut d,
            "UPDATE emp SET salary = ? WHERE id = ?",
            &[Value::Int(99), Value::Int(2)],
        )
        .unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            d.table("emp").unwrap().scan().nth(1).unwrap(),
            vec![Value::Int(2), Value::Int(99)]
        );
    }

    #[test]
    fn update_from_subquery_applies_in_order() {
        let mut d = emp_db();
        let n = execute_update(
            &mut d,
            "UPDATE emp SET salary = s.v0 FROM (SELECT e.id AS k0, e.salary + 1 AS v0 \
             FROM emp AS e WHERE e.salary >= 10) AS s WHERE id = s.k0",
            &[],
        )
        .unwrap();
        assert_eq!(n, 2);
        let rows: Vec<_> = d.table("emp").unwrap().scan().collect();
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(11)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Int(21)]);
        assert_eq!(rows[2], vec![Value::Int(3), Value::Null]);
    }

    #[test]
    fn unknown_table_is_error() {
        let mut d = db();
        assert!(execute_update(&mut d, "DELETE FROM nope", &[]).is_err());
    }

    #[test]
    fn unsupported_statement_is_error() {
        let mut d = db();
        assert!(execute_update(&mut d, "MERGE INTO log USING x", &[]).is_err());
    }

    /// `db` with `tables` created and filled.
    fn load(mut db: Database, tables: &[(TableSchema, Vec<Row>)]) -> Database {
        for (schema, rows) in tables {
            db.create_table(schema.clone());
            for row in rows {
                db.insert(&schema.name, row.clone());
            }
        }
        db
    }

    /// Run `stmts` on an in-memory and a paged copy of `tables`. Each
    /// statement must give the expected affected count (`None`: an error)
    /// on both backings and leave them with identical contents.
    fn agree_on_both_backings(
        tables: Vec<(TableSchema, Vec<Row>)>,
        stmts: &[(&str, Option<i64>)],
    ) -> (Database, Database) {
        let mut mem = load(Database::new(), &tables);
        let mut paged = load(Database::paged_in_memory(4), &tables);
        let names: Vec<&str> = tables.iter().map(|(s, _)| s.name.as_str()).collect();
        for (sql, want) in stmts {
            let a = execute_update(&mut mem, sql, &[]).ok();
            let b = execute_update(&mut paged, sql, &[]).ok();
            assert_eq!(a, *want, "in-memory count on `{sql}`");
            assert_eq!(b, *want, "paged count on `{sql}`");
            for name in &names {
                assert_eq!(
                    mem.table(name).unwrap(),
                    paged.table(name).unwrap(),
                    "`{name}` diverges after `{sql}`"
                );
            }
        }
        (mem, paged)
    }

    /// `(k, v)` tables `t` (the target) and `src` (the source), keys
    /// untyped so a test can mix value kinds.
    fn kv_tables(t: Vec<Vec<Value>>, src: Vec<Vec<Value>>) -> Vec<(TableSchema, Vec<Vec<Value>>)> {
        let schema = |name| TableSchema::new(name, &[("k", SqlType::Int), ("v", SqlType::Int)]);
        vec![(schema("t"), t), (schema("src"), src)]
    }

    /// `[k, v]` rows.
    fn kv(rows: &[(Value, i64)]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|(k, v)| vec![k.clone(), Value::Int(*v)])
            .collect()
    }

    const UPDATE_T_FROM_SRC: &str =
        "UPDATE t SET v = s.v FROM (SELECT k, v FROM src) AS s WHERE t.k = s.k";
    const DELETE_T_IN_SRC: &str = "DELETE FROM t WHERE k IN (SELECT k FROM src)";

    fn column_of(db: &Database, table: &str, col: usize) -> Vec<Value> {
        db.table(table)
            .unwrap()
            .scan()
            .map(|r| r[col].clone())
            .collect()
    }

    #[test]
    fn update_from_matches_pre_statement_keys() {
        // Row 1 takes key 2 from the first source row; the second source
        // row (key 2) must still hit only the row whose key *was* 2.
        let schema = TableSchema::new("emp", &[("id", SqlType::Int), ("salary", SqlType::Int)]);
        let rows = (1..=3)
            .map(|i| vec![Value::Int(i), Value::Int(0)])
            .collect();
        let dbs = agree_on_both_backings(
            vec![(schema, rows)],
            &[(
                "UPDATE emp SET id = s.v FROM (SELECT id AS k, id + 1 AS v FROM emp) AS s \
                 WHERE id = s.k",
                Some(3),
            )],
        );
        for db in [dbs.0, dbs.1] {
            assert_eq!(column_of(&db, "emp", 0), [2, 3, 4].map(Value::Int));
        }
    }

    #[test]
    fn update_from_last_writer_wins_and_counts_pairs() {
        let t = kv(&[(Value::Int(1), 0), (Value::Int(2), 0), (Value::Int(3), 0)]);
        let src = kv(&[
            (Value::Int(1), 10),
            (Value::Int(2), 20),
            (Value::Int(1), 11),
            (Value::Int(1), 12),
        ]);
        // Key 1 matches three source rows, key 2 one: four pairs.
        let dbs = agree_on_both_backings(kv_tables(t, src), &[(UPDATE_T_FROM_SRC, Some(4))]);
        for db in [dbs.0, dbs.1] {
            assert_eq!(column_of(&db, "t", 1), [12, 20, 0].map(Value::Int));
        }
    }

    #[test]
    fn update_from_null_and_nan_keys_match_nothing() {
        let t = kv(&[(Value::Null, 0), (Value::Int(1), 0)]);
        let src = kv(&[(Value::Null, 1), (Value::Int(1), 2)]);
        let dbs = agree_on_both_backings(kv_tables(t, src), &[(UPDATE_T_FROM_SRC, Some(1))]);
        for db in [dbs.0, dbs.1] {
            assert_eq!(column_of(&db, "t", 1), [0, 2].map(Value::Int));
        }
        // NaN keys, on one backing: `NaN <> NaN` would fail the content
        // comparison of `agree_on_both_backings` itself.
        let nan = Value::Float(f64::NAN);
        let tables = kv_tables(kv(&[(nan.clone(), 0)]), kv(&[(nan, 1)]));
        let mut db = load(Database::new(), &tables);
        assert_eq!(execute_update(&mut db, UPDATE_T_FROM_SRC, &[]), Ok(0));
        assert_eq!(column_of(&db, "t", 1), [Value::Int(0)]);
        assert_eq!(execute_update(&mut db, DELETE_T_IN_SRC, &[]), Ok(0));
    }

    #[test]
    fn update_from_matches_as_sql_eq_does_across_kinds() {
        let t = kv(&[
            (Value::Int(3), 0),
            (Value::Int(1), 0),
            (Value::Int(1), 0),
            (Value::Float(-0.0), 0),
        ]);
        let src = kv(&[
            (Value::Float(3.0), 1),
            (Value::Bool(true), 2),
            ("1".into(), 3),
            (Value::Int(0), 4),
        ]);
        // `'1'` is not `1`; `Int(0)` is `-0.0`.
        let dbs = agree_on_both_backings(kv_tables(t, src), &[(UPDATE_T_FROM_SRC, Some(4))]);
        for db in [dbs.0, dbs.1] {
            assert_eq!(column_of(&db, "t", 1), [1, 2, 2, 4].map(Value::Int));
        }
        // Past 2⁵³ two `Int`s share an `f64` bucket but are not equal.
        let big = 1i64 << 53;
        let t = kv(&[(Value::Int(big), 0), (Value::Int(big + 1), 0)]);
        let src = kv(&[(Value::Int(big + 1), 1)]);
        let dbs = agree_on_both_backings(kv_tables(t, src), &[(UPDATE_T_FROM_SRC, Some(1))]);
        assert_eq!(column_of(&dbs.0, "t", 1), [0, 1].map(Value::Int));
    }

    #[test]
    fn delete_in_with_duplicate_and_null_keys() {
        let t = kv(&[
            (Value::Int(1), 0),
            (Value::Int(2), 0),
            (Value::Null, 0),
            (Value::Int(1), 0),
        ]);
        let src = kv(&[(Value::Int(1), 0), (Value::Null, 0), (Value::Int(1), 0)]);
        // Both key-1 rows go once each; the NULL row survives a NULL in
        // the list.
        let dbs = agree_on_both_backings(kv_tables(t, src), &[(DELETE_T_IN_SRC, Some(2))]);
        for db in [dbs.0, dbs.1] {
            assert_eq!(column_of(&db, "t", 0), [Value::Int(2), Value::Null]);
        }
    }

    /// `UPDATE t SET k = s.nk, v = s.v …` on `(k, nk, v)` source rows:
    /// rewritten keys collide with later source keys.
    const UPDATE_T_KEYS_FROM_SRC: &str =
        "UPDATE t SET k = s.nk, v = s.v FROM (SELECT k, nk, v FROM src) AS s WHERE t.k = s.k";

    /// The nested-loop matcher the executor's key index replaces, for
    /// [`UPDATE_T_KEYS_FROM_SRC`]: each target row takes its last matching
    /// source row, matched on pre-statement keys; returns the new rows
    /// and the pair count.
    fn reference_update_from(t: &[Row], src: &[Row]) -> (Vec<Row>, i64) {
        let mut out = t.to_vec();
        let mut pairs = 0;
        for (row, old) in out.iter_mut().zip(t) {
            for s in src {
                if sql_eq(&old[0], &s[0]) {
                    row[0] = s[1].clone();
                    row[1] = s[2].clone();
                    pairs += 1;
                }
            }
        }
        (out, pairs)
    }

    fn reference_delete_in(t: &[Row], src: &[Row]) -> (Vec<Row>, i64) {
        let out: Vec<Row> = t
            .iter()
            .filter(|r| !src.iter().any(|s| sql_eq(&r[0], &s[0])))
            .cloned()
            .collect();
        let gone = (t.len() - out.len()) as i64;
        (out, gone)
    }

    /// One statement of [`keyed_point_statements_agree_with_a_scan_and_the_paged_backing`].
    fn random_stmt(
        rng: &mut dbms::prng::StdRng,
        pool: &[Value],
        id: &mut i64,
    ) -> (String, Vec<Value>) {
        let mut key = || pool[rng.gen_range(0..pool.len())].clone();
        let (k1, k2) = (key(), key());
        let n = Value::Int(rng.gen_range(0..40i64));
        *id += 1;
        let (sql, params) = match rng.gen_range(0..17) {
            0..=2 => ("INSERT INTO t VALUES (?, ?)", vec![k1, Value::Int(*id)]),
            3 => ("UPDATE t SET v = ? WHERE k = ?", vec![n, k1]),
            4 => ("UPDATE t SET v = v + ? WHERE k = ?", vec![n, k1]),
            5 => ("UPDATE t SET k = ? WHERE k = ?", vec![k2, k1]),
            // A text key fails `k + ?`: no row may change on any copy.
            6 => ("UPDATE t SET k = k + ?, v = 0 WHERE k = ?", vec![n, k1]),
            7 | 8 => ("DELETE FROM t WHERE k = ?", vec![k1]),
            9 => ("UPDATE t SET v = v + 1 WHERE v > ?", vec![n]),
            10 => (
                "DELETE FROM t WHERE v < ?",
                vec![Value::Int(rng.gen_range(0..8i64))],
            ),
            11 => (UPDATE_T_KEYS_FROM_SRC, vec![]),
            12 => (DELETE_T_IN_SRC, vec![]),
            // Keys written as expressions: constants, found by the index.
            13 => ("DELETE FROM t WHERE k = -?", vec![k1]),
            14 => ("UPDATE t SET v = v + ? WHERE k = -1", vec![n]),
            15 => ("UPDATE t SET v = ? WHERE k = ? + 2", vec![n, k1]),
            _ => (
                "INSERT INTO t SELECT k, v + 100 FROM t WHERE v < ?",
                vec![n],
            ),
        };
        (sql.to_string(), params)
    }

    /// `t`'s rows, as text: Debug text compares NaN keys equal to
    /// themselves.
    fn rows_text(db: &Database) -> String {
        format!("{:?}", db.table("t").unwrap().rows_vec())
    }

    #[test]
    fn keyed_point_statements_agree_with_a_scan_and_the_paged_backing() {
        use dbms::prng::StdRng;
        let pool = [
            Value::Null,
            Value::Int(-1),
            Value::Int(1),
            Value::Int(3),
            Value::Float(3.0),
            Value::Bool(true),
            Value::Int(7),
            Value::Str("3".into()),
        ];
        let int = |c| (c, SqlType::Int);
        let keyed = TableSchema::new("t", &[int("k"), int("v")]).with_key(&["k"]);
        // The linear-scan reference: the same table with no declared key,
        // so every keyed statement scans.
        let unkeyed = TableSchema::new("t", &[int("k"), int("v")]);
        let src_schema = TableSchema::new("src", &[int("k"), int("nk"), int("v")]);
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..30 {
            let mut id = 0;
            let t: Vec<Row> = (0..12)
                .map(|_| {
                    id += 1;
                    vec![pool[rng.gen_range(0..pool.len())].clone(), Value::Int(id)]
                })
                .collect();
            let src: Vec<Row> = (0..4)
                .map(|i| {
                    let mut k = || pool[rng.gen_range(0..pool.len())].clone();
                    vec![k(), k(), Value::Int(50 + i)]
                })
                .collect();
            let tables = |t_schema: &TableSchema| {
                [
                    (t_schema.clone(), t.clone()),
                    (src_schema.clone(), src.clone()),
                ]
            };
            // [index, scan reference, paged]
            let mut dbs = [
                load(Database::new(), &tables(&keyed)),
                load(Database::new(), &tables(&unkeyed)),
                load(Database::paged_in_memory(4), &tables(&keyed)),
            ];
            let mut forked: Option<(Database, String)> = None;
            for step in 0..60 {
                let (sql, params) = if step == 59 {
                    // A set-oriented rewrite makes every key a distinct
                    // integer; the deletes below then empty the table key
                    // by key, so the holes outnumber the live rows and the
                    // indexed copy compacts.
                    ("UPDATE t SET k = v, v = k".to_string(), vec![])
                } else if rng.gen_range(0..20) == 0 {
                    // Fork every copy and go on with the forks; the
                    // originals must not see the next statement.
                    forked = Some((dbs[0].fork(), rows_text(&dbs[0])));
                    dbs = dbs.map(|db| db.fork());
                    continue;
                } else {
                    random_stmt(&mut rng, &pool, &mut id)
                };
                let before = dbs[0].table("t").unwrap().rows_vec();
                let got = dbs.each_mut().map(|db| execute_update(db, &sql, &params));
                let what = format!("case {case} step {step}: `{sql}` with {params:?}");
                assert_eq!(got[0], got[1], "index vs scan, {what}");
                assert_eq!(got[0], got[2], "index vs paged, {what}");
                let texts = dbs.each_ref().map(rows_text);
                assert_eq!(texts[0], texts[1], "index vs scan, {what}");
                assert_eq!(texts[0], texts[2], "index vs paged, {what}");
                let reference = match sql.as_str() {
                    UPDATE_T_KEYS_FROM_SRC => Some(reference_update_from(&before, &src)),
                    DELETE_T_IN_SRC => Some(reference_delete_in(&before, &src)),
                    _ => None,
                };
                if let Some((rows, n)) = reference {
                    assert_eq!(
                        (texts[0].clone(), got[0].clone()),
                        (format!("{rows:?}"), Ok(n)),
                        "{what}"
                    );
                }
                if let Some((orig, text)) = forked.take() {
                    assert_eq!(
                        rows_text(&orig),
                        text,
                        "a fork's statement reached its original, {what}"
                    );
                }
                // A scan through the executor sees the same rows.
                let q = parse_sql("SELECT v, k FROM t WHERE k = 3 OR v > 20").unwrap();
                let seen = dbs
                    .each_ref()
                    .map(|db| format!("{:?}", eval_query(&q, db, &[])));
                assert_eq!(seen[0], seen[1], "{what}");
                assert_eq!(seen[0], seen[2], "{what}");
            }
            let keys: Vec<Row> = dbs[0].table("t").unwrap().rows_vec();
            for row in keys {
                let got = dbs
                    .each_mut()
                    .map(|db| execute_update(db, "DELETE FROM t WHERE k = ?", &row[..1]));
                assert_eq!(got[0], got[1], "case {case}: drain {row:?}");
                assert_eq!(got[0], got[2], "case {case}: drain {row:?}");
            }
            for db in &dbs {
                assert!(db.table("t").unwrap().is_empty(), "case {case}: drained");
            }
        }
    }

    #[test]
    fn paged_backend_agrees_with_mem_on_every_statement_form() {
        // UPDATE/DELETE on a paged table materialize + rewrite; every
        // statement form must leave both backings with identical contents.
        let schema = TableSchema::new("emp", &[("id", SqlType::Int), ("salary", SqlType::Int)])
            .with_key(&["id"]);
        let rows = (0..20i64)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
            .collect();
        let (_, mut paged) = agree_on_both_backings(
            vec![(schema, rows)],
            &[
                ("INSERT INTO emp VALUES (999, 1)", Some(1)),
                ("UPDATE emp SET salary = 7 WHERE id = 3", Some(1)),
                ("UPDATE emp SET salary = s.s0 FROM (SELECT id AS k0, salary + 1 AS s0 FROM emp WHERE id < 5) AS s WHERE emp.id = s.k0", Some(5)),
                ("DELETE FROM emp WHERE id = 999", Some(1)),
                ("DELETE FROM emp WHERE id IN (SELECT id FROM emp WHERE salary > 150)", Some(4)),
                ("DELETE FROM emp WHERE salary < 20", Some(3)),
                ("UPDATE emp SET salary = 1 WHERE id <> 5", Some(12)),
                ("UPDATE emp SET salary = 2 WHERE id >= 12", Some(4)),
                ("UPDATE emp SET id = id + 10 WHERE salary = 2", Some(4)),
            ],
        );
        // Unfiltered DELETE clears the paged table too.
        let n = execute_update(&mut paged, "DELETE FROM emp", &[]).unwrap();
        assert_eq!(n, 13);
        assert!(paged.table("emp").unwrap().is_empty());

        // Predicates and literals read as SQL: `OR` binds outside the
        // string, `''` is a quote, and multi-byte characters survive.
        let log = TableSchema::new("log", &[("id", SqlType::Int), ("msg", SqlType::Text)]);
        let rows = [(1, "a"), (2, "b"), (3, "c"), (4, "d")]
            .into_iter()
            .map(|(i, m)| vec![Value::Int(i), m.into()])
            .collect();
        let dbs = agree_on_both_backings(
            vec![(log, rows)],
            &[
                ("DELETE FROM log WHERE msg = 'a' OR id = 2", Some(2)),
                ("INSERT INTO log VALUES (1, 'a')", Some(1)),
                ("INSERT INTO log VALUES (2, 'b');", Some(1)),
                (
                    "UPDATE log SET msg = 'z' WHERE msg = 'a' OR id = 2",
                    Some(2),
                ),
                ("INSERT INTO log VALUES (5, 'it''s')", Some(1)),
                ("INSERT INTO log VALUES (6, 'café')", Some(1)),
                // `NOT msg` fails on row 3 only; nothing may change.
                ("UPDATE log SET msg = 'q' WHERE id = 3 AND NOT msg", None),
                ("DELETE FROM log WHERE id = 3 AND NOT msg", None),
            ],
        );
        for db in [dbs.0, dbs.1] {
            assert_eq!(db.table("log").unwrap().len(), 6);
            for (msg, want) in [("'it''s'", 5), ("'café'", 6), ("'z'", 1)] {
                let q = parse_sql(&format!("SELECT id FROM log WHERE msg = {msg} ORDER BY id"))
                    .unwrap();
                let rel = eval_query(&q, &db, &[]).unwrap();
                assert_eq!(rel.rows.first(), Some(&vec![Value::Int(want)]), "{msg}");
            }
        }
    }
}
