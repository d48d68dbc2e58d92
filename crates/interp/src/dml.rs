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
//! * `UPDATE … FROM` applies subquery rows **in order**; when two source
//!   rows hit the same target row the last writer wins, which is the
//!   per-row loop's behaviour.
//! * `WHERE col = <literal or ?>` and key matches compare by column index
//!   with SQL equality: `NULL` matches nothing, even another `NULL`. Any
//!   other predicate is evaluated per row; `NULL` counts as not taken.
//! * Both backings run every form: paged tables rewrite through
//!   [`dbms::Table::mutate_rows`] and end identical to in-memory ones.

use algebra::dml::{InsertSource, Stmt};
use algebra::parse::parse_statement;
use algebra::scalar::{BinOp, ColRef, Scalar};
use algebra::RaExpr;
use dbms::eval::{eval_query, eval_scalar, fields_of, Scope};
use dbms::{Database, EvalError, Table, Value};

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

/// SQL equality: `NULL` compares equal to nothing (not even `NULL`).
fn sql_eq(a: &Value, b: &Value) -> bool {
    !a.is_null() && !b.is_null() && a.group_eq(b)
}

/// Execute a DML statement; returns the number of affected rows.
/// `params` substitute `?` placeholders, numbered left to right over the
/// whole statement.
pub fn execute_update(db: &mut Database, sql: &str, params: &[Value]) -> Result<i64, DmlError> {
    let stmt = parse_statement(sql).map_err(|e| DmlError(e.to_string()))?;
    match &stmt {
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

/// The value of a `?` or a literal, which needs no row.
fn constant(e: &Scalar, params: &[Value]) -> Option<Result<Value, DmlError>> {
    match e {
        Scalar::Lit(l) => Some(Ok(Value::from_lit(l))),
        Scalar::Param(i) => Some(
            params
                .get(*i)
                .cloned()
                .ok_or_else(|| EvalError::MissingParam(*i).into()),
        ),
        _ => None,
    }
}

/// Evaluate `f` on every row of `t`, in scan order, against the
/// pre-statement state.
fn per_row<T>(
    db: &Database,
    t: &Table,
    mut f: impl FnMut(&Scope<'_>, &[Value]) -> Result<T, EvalError>,
) -> Result<Vec<T>, DmlError> {
    let fields = fields_of(&RaExpr::table(t.schema.name.clone()), db)?;
    let out = t
        .scan()
        .map(|row| f(&Scope::new(&fields, &row), &row))
        .collect::<Result<_, _>>()?;
    Ok(out)
}

/// The rows a `WHERE` clause takes.
enum Filter<'a> {
    /// No `WHERE`.
    All,
    /// `col = <literal or ?>`, compared by column index.
    Key(usize, Value),
    /// Any other predicate, evaluated per row.
    Pred(&'a Scalar),
}

impl<'a> Filter<'a> {
    fn of(t: &Table, filter: Option<&'a Scalar>, params: &[Value]) -> Result<Filter<'a>, DmlError> {
        let Some(pred) = filter else {
            return Ok(Filter::All);
        };
        if let Scalar::Bin(BinOp::Eq, l, r) = pred {
            if let (Scalar::Col(c), Some(v)) = (l.as_ref(), constant(r, params)) {
                if c.qualifier.as_deref().is_none_or(|q| q == t.schema.name) {
                    return Ok(Filter::Key(column(t, &c.column)?, v?));
                }
            }
        }
        Ok(Filter::Pred(pred))
    }

    /// Whether an `All`/`Key` filter takes `row`; `Pred` needs [`Filter::takes`].
    fn takes_row(&self, row: &[Value]) -> bool {
        match self {
            Filter::All => true,
            Filter::Key(i, v) => sql_eq(&row[*i], v),
            Filter::Pred(_) => unreachable!("a predicate is evaluated in a scope"),
        }
    }

    /// Whether the filter takes `row`, whose columns `scope` binds.
    fn takes(
        &self,
        db: &Database,
        params: &[Value],
        scope: &Scope<'_>,
        row: &[Value],
    ) -> Result<bool, EvalError> {
        match self {
            Filter::Pred(p) => Ok(eval_scalar(p, db, params, Some(scope))?.is_true()),
            _ => Ok(self.takes_row(row)),
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
    let filter = Filter::of(t, filter, params)?;
    let consts = sets
        .iter()
        .map(|(_, e)| constant(e, params))
        .collect::<Option<Result<Vec<_>, _>>>()
        .transpose()?;
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
    let updates = per_row(db, t, |scope, row| {
        if !filter.takes(db, params, scope, row)? {
            return Ok(None);
        }
        sets.iter()
            .map(|(_, e)| eval_scalar(e, db, params, Some(scope)))
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
    Ok(table_mut(db, name).mutate_rows(|rows| {
        let mut affected = 0;
        // Source rows apply in order: last writer wins, matching the
        // per-row loop this statement replaces.
        for srow in &rel.rows {
            let key = &srow[key_src];
            for row in rows.iter_mut() {
                if sql_eq(&row[key_idx], key) {
                    for (tc, sc) in &set_idxs {
                        row[*tc] = srow[*sc].clone();
                    }
                    affected += 1;
                }
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
    let t = table(db, name)?;
    let filter = Filter::of(t, filter, params)?;
    let doomed = match filter {
        Filter::Pred(_) => Some(per_row(db, t, |scope, row| {
            filter.takes(db, params, scope, row)
        })?),
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
    let keys: Vec<Value> = rel.rows.into_iter().map(|mut r| r.remove(0)).collect();
    let idx = column(table(db, name)?, column_name)?;
    Ok(table_mut(db, name).mutate_rows(|rows| {
        let before = rows.len();
        rows.retain(|r| !keys.iter().any(|k| sql_eq(&r[idx], k)));
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

    /// Run `stmts` on an in-memory and a paged copy of one table. Each
    /// statement must give the expected affected count (`None`: an error)
    /// on both backings and leave them with identical contents.
    fn agree_on_both_backings(
        schema: TableSchema,
        rows: Vec<Vec<Value>>,
        stmts: &[(&str, Option<i64>)],
    ) -> (Database, Database) {
        let name = schema.name.clone();
        let mut mem = Database::new().with_table(schema.clone());
        let mut paged = Database::paged_in_memory(4).with_table(schema);
        for row in rows {
            mem.insert(&name, row.clone());
            paged.insert(&name, row);
        }
        for (sql, want) in stmts {
            let a = execute_update(&mut mem, sql, &[]).ok();
            let b = execute_update(&mut paged, sql, &[]).ok();
            assert_eq!(a, *want, "in-memory count on `{sql}`");
            assert_eq!(b, *want, "paged count on `{sql}`");
            assert_eq!(
                mem.table(&name).unwrap(),
                paged.table(&name).unwrap(),
                "contents diverge after `{sql}`"
            );
        }
        (mem, paged)
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
            schema,
            rows,
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
            log,
            rows,
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
