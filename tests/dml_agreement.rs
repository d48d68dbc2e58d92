//! Final-state agreement for write loops: the imperative loop and the
//! extracted set-oriented DML statement must leave identical table
//! contents behind.
//!
//! Two oracles cross-check the foreach-dml pipeline end to end:
//!
//! * **Loop vs. extracted program.** Each program runs twice through the
//!   reference interpreter — original source, then the extractor's
//!   rewritten program — starting from the same seeded database (NULLs
//!   included), and the final state of every table is compared as a
//!   sorted multiset.
//! * **Row-at-a-time vs. batched statement.** The per-iteration
//!   parameterized DML calls are replayed directly through the DML
//!   executor (`interp::dml`), then the single extracted SQL statement is
//!   executed against a fresh copy — the two databases must agree. This
//!   pins the `UPDATE … FROM (SELECT …)` / `INSERT … SELECT` /
//!   predicate-folded `DELETE` lowering against the executor itself,
//!   independent of the interpreter loop.
//!
//! The NULL cases are the sharp edges: an `if`/`else` guard over a
//! NULL-valued comparison must batch as `g` / `NOT(COALESCE(g, FALSE))`
//! (imp's "NULL is not taken" rule), and a driving `WHERE` over a NULL
//! column must exclude the same rows from UPDATE and DELETE alike.

use std::collections::BTreeMap;

use algebra::schema::{Catalog, SqlType, TableSchema};
use dbms::{Connection, Database, Value};
use eqsql_core::{Extractor, ExtractorOptions};
use interp::{Interp, RtValue};

fn catalog() -> Catalog {
    Catalog::new()
        .with(
            TableSchema::new(
                "emp",
                &[
                    ("id", SqlType::Int),
                    ("salary", SqlType::Int),
                    ("dept", SqlType::Text),
                ],
            )
            .with_key(&["id"])
            .with_nullable(&["salary"]),
        )
        .with(TableSchema::new(
            "payout",
            &[("emp_id", SqlType::Int), ("amount", SqlType::Int)],
        ))
}

/// Seeded employee rows; salary NULL in two of them so every comparison
/// in a guard or driving WHERE exercises three-valued logic.
fn seed_db() -> Database {
    let cat = catalog();
    let mut db = Database::new();
    for schema in cat.tables() {
        db.create_table(schema.clone());
    }
    let rows = [
        (1, Some(50), "eng"),
        (2, None, "eng"),
        (3, Some(120), "sales"),
        (4, Some(-10), "eng"),
        (5, None, "sales"),
        (6, Some(0), "ops"),
    ];
    for (id, salary, dept) in rows {
        db.insert(
            "emp",
            vec![
                Value::Int(id),
                salary.map_or(Value::Null, Value::Int),
                Value::Str(dept.to_string()),
            ],
        );
    }
    db
}

/// Run `fname(args)` of `src` against a copy of `db`; return the final
/// database (the run must not error).
fn run(
    src: &str,
    program: Option<&imp::ast::Program>,
    fname: &str,
    args: &[i64],
    db: &Database,
) -> Database {
    let parsed;
    let program = match program {
        Some(p) => p,
        None => {
            parsed = imp::parse_program(src).expect("test program parses");
            &parsed
        }
    };
    let args: Vec<RtValue> = args.iter().map(|i| RtValue::int(*i)).collect();
    let mut it = Interp::new(program, Connection::new(db.clone()));
    it.call(fname, args)
        .unwrap_or_else(|e| panic!("interpretation failed: {e}\n{src}"));
    it.conn.db
}

/// Order-insensitive snapshot of every table.
fn state(db: &Database) -> BTreeMap<String, Vec<Vec<Value>>> {
    let mut out = BTreeMap::new();
    for name in ["emp", "payout"] {
        let mut rows: Vec<Vec<Value>> = db.table(name).map(|t| t.rows_vec()).unwrap_or_default();
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.sort_cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out.insert(name.to_string(), rows);
    }
    out
}

/// Extract `fname` from `src`; the rewrite must fire and carry a dml row.
fn extract(src: &str, fname: &str) -> (eqsql_core::ExtractionReport, String) {
    let program = imp::parse_program(src).expect("test program parses");
    let report = Extractor::with_options(catalog(), ExtractorOptions::default())
        .extract_function(&program, fname);
    assert!(report.changed(), "extraction must fire\n{src}");
    let sql = report
        .vars
        .iter()
        .find(|v| v.var.starts_with("dml:"))
        .unwrap_or_else(|| panic!("no dml extraction row\n{src}"))
        .sql[0]
        .clone();
    (report, sql)
}

/// Loop vs. extracted program on one source: identical final states.
fn assert_loop_agrees(src: &str, fname: &str, args: &[i64]) -> String {
    let db = seed_db();
    let (report, sql) = extract(src, fname);
    let orig = run(src, None, fname, args, &db);
    let batch = run(src, Some(&report.program), fname, args, &db);
    assert_eq!(
        state(&orig),
        state(&batch),
        "final table contents diverge\n{src}\nextracted: {sql}"
    );
    sql
}

#[test]
fn keyed_update_loop_agrees_on_null_salaries() {
    let sql = assert_loop_agrees(
        "fn raise(amount) {\n\
         \x20   for (e in executeQuery(\"SELECT * FROM emp WHERE dept = 'eng'\")) {\n\
         \x20       executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", e.salary + amount, e.id);\n\
         \x20   }\n\
         \x20   return 0;\n}\n",
        "raise",
        &[10],
    );
    assert!(sql.starts_with("UPDATE emp SET"), "{sql}");
    assert!(sql.contains("FROM (SELECT"), "{sql}");
}

#[test]
fn then_guarded_update_drops_null_condition_rows() {
    // `NULL > 100` is not taken: rows 2 and 5 must stay untouched on both
    // sides.
    assert_loop_agrees(
        "fn cap() {\n\
         \x20   for (e in executeQuery(\"SELECT * FROM emp\")) {\n\
         \x20       if (e.salary > 100) {\n\
         \x20           executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", 100, e.id);\n\
         \x20       }\n\
         \x20   }\n\
         \x20   return 0;\n}\n",
        "cap",
        &[],
    );
}

#[test]
fn else_guarded_update_takes_null_condition_rows() {
    // The else branch *does* run for a NULL condition, so the extracted
    // guard must be NOT(COALESCE(salary > 100, FALSE)) — plain 3VL NOT
    // would silently skip the NULL-salary rows.
    assert_loop_agrees(
        "fn floor_pay() {\n\
         \x20   for (e in executeQuery(\"SELECT * FROM emp\")) {\n\
         \x20       if (e.salary > 100) {\n\
         \x20           x = 0;\n\
         \x20       } else {\n\
         \x20           executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", 100, e.id);\n\
         \x20       }\n\
         \x20   }\n\
         \x20   return 0;\n}\n",
        "floor_pay",
        &[],
    );
}

#[test]
fn insert_loop_agrees_and_keeps_null_amounts() {
    let sql = assert_loop_agrees(
        "fn log_pay() {\n\
         \x20   for (e in executeQuery(\"SELECT * FROM emp\")) {\n\
         \x20       executeUpdate(\"INSERT INTO payout (emp_id, amount) VALUES (?, ?)\", e.id, e.salary);\n\
         \x20   }\n\
         \x20   return 0;\n}\n",
        "log_pay",
        &[],
    );
    assert!(sql.starts_with("INSERT INTO payout"), "{sql}");
    assert!(sql.contains("SELECT"), "{sql}");
}

#[test]
fn delete_loop_agrees_and_null_rows_survive_the_filter() {
    // `salary < 60` is NULL for rows 2 and 5: the driving query skips
    // them, so the folded DELETE predicate must skip them too.
    let sql = assert_loop_agrees(
        "fn purge(floor) {\n\
         \x20   for (e in executeQuery(\"SELECT * FROM emp WHERE salary < ?\", floor)) {\n\
         \x20       executeUpdate(\"DELETE FROM emp WHERE id = ?\", e.id);\n\
         \x20   }\n\
         \x20   return 0;\n}\n",
        "purge",
        &[60],
    );
    assert!(sql.starts_with("DELETE FROM emp"), "{sql}");
    assert!(
        !sql.contains("IN ("),
        "predicate should fold, not enumerate: {sql}"
    );
}

// --- Row-at-a-time vs. batched statement, directly on the executor ------

/// Replay the cursor loop by hand through `interp::dml::execute_update`
/// (one parameterized call per driving row), then run the single batched
/// statement on a fresh copy; both databases must agree.
fn assert_executor_agrees(
    driving_rows: &[(i64, Option<i64>)],
    per_row: impl Fn(&mut Database, i64, Option<i64>),
    batched: &str,
    params: &[Value],
) {
    let mut row_db = seed_db();
    for (id, salary) in driving_rows {
        per_row(&mut row_db, *id, *salary);
    }
    let mut batch_db = seed_db();
    interp::dml::execute_update(&mut batch_db, batched, params)
        .unwrap_or_else(|e| panic!("batched statement failed: {e}\n{batched}"));
    assert_eq!(
        state(&row_db),
        state(&batch_db),
        "executor states diverge\n{batched}"
    );
}

#[test]
fn executor_update_from_select_matches_row_at_a_time() {
    // The extracted form of `raise(10)` over dept = 'eng' (rows 1, 2, 4).
    let (_, sql) = extract(
        "fn raise(amount) {\n\
         \x20   for (e in executeQuery(\"SELECT * FROM emp WHERE dept = 'eng'\")) {\n\
         \x20       executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", e.salary + amount, e.id);\n\
         \x20   }\n\
         \x20   return 0;\n}\n",
        "raise",
    );
    assert_executor_agrees(
        &[(1, Some(50)), (2, None), (4, Some(-10))],
        |db, id, salary| {
            let v = salary.map_or(Value::Null, |s| Value::Int(s + 10));
            interp::dml::execute_update(
                db,
                "UPDATE emp SET salary = ? WHERE id = ?",
                &[v, Value::Int(id)],
            )
            .expect("row update");
        },
        &sql,
        &[Value::Int(10)],
    );
}

#[test]
fn executor_insert_select_matches_row_at_a_time() {
    let (_, sql) = extract(
        "fn log_pay() {\n\
         \x20   for (e in executeQuery(\"SELECT * FROM emp\")) {\n\
         \x20       executeUpdate(\"INSERT INTO payout (emp_id, amount) VALUES (?, ?)\", e.id, e.salary);\n\
         \x20   }\n\
         \x20   return 0;\n}\n",
        "log_pay",
    );
    let all = [
        (1, Some(50)),
        (2, None),
        (3, Some(120)),
        (4, Some(-10)),
        (5, None),
        (6, Some(0)),
    ];
    assert_executor_agrees(
        &all,
        |db, id, salary| {
            interp::dml::execute_update(
                db,
                "INSERT INTO payout (emp_id, amount) VALUES (?, ?)",
                &[Value::Int(id), salary.map_or(Value::Null, Value::Int)],
            )
            .expect("row insert");
        },
        &sql,
        &[],
    );
}

#[test]
fn executor_folded_delete_matches_row_at_a_time() {
    let (_, sql) = extract(
        "fn purge(floor) {\n\
         \x20   for (e in executeQuery(\"SELECT * FROM emp WHERE salary < ?\", floor)) {\n\
         \x20       executeUpdate(\"DELETE FROM emp WHERE id = ?\", e.id);\n\
         \x20   }\n\
         \x20   return 0;\n}\n",
        "purge",
    );
    // salary < 60 holds for rows 1, 4, 6 only (NULLs excluded).
    assert_executor_agrees(
        &[(1, Some(50)), (4, Some(-10)), (6, Some(0))],
        |db, id, _| {
            interp::dml::execute_update(db, "DELETE FROM emp WHERE id = ?", &[Value::Int(id)])
                .expect("row delete");
        },
        &sql,
        &[Value::Int(60)],
    );
}

#[test]
fn key_rewriting_update_loop_is_kept_and_runs_the_same() {
    // Each iteration's new id is the next iteration's key: the loop
    // gives [4, 4, 4], while one batched statement matching pre-statement
    // keys would give [2, 3, 4]. The loop must stay, blamed with E010.
    let src = "fn shiftIds(d) {\n\
         \x20   for (e in executeQuery(\"SELECT * FROM emp WHERE dept = 'eng'\")) {\n\
         \x20       executeUpdate(\"UPDATE emp SET id = ? WHERE id = ?\", e.id + d, e.id);\n\
         \x20   }\n\
         \x20   return 0;\n}\n";
    let program = imp::parse_program(src).expect("test program parses");
    let report = Extractor::with_options(catalog(), ExtractorOptions::default())
        .extract_function(&program, "shiftIds");
    assert!(!report.changed(), "the loop must be kept\n{src}");
    let blame: Vec<_> =
        eqsql_core::lint_program(&program, &catalog(), &ExtractorOptions::default())
            .into_iter()
            .filter(|d| d.code.as_str() == "E010")
            .collect();
    assert_eq!(blame.len(), 1, "{blame:#?}");
    assert!(blame[0].message.contains("rewrites `id`"), "{blame:#?}");

    let mut db = Database::new();
    for schema in catalog().tables() {
        db.create_table(schema.clone());
    }
    for (id, dept) in [(1, "eng"), (2, "eng"), (3, "eng"), (10, "sales")] {
        db.insert(
            "emp",
            vec![Value::Int(id), Value::Int(0), Value::Str(dept.to_string())],
        );
    }
    for program in [None, Some(&report.program)] {
        let ids: Vec<Value> = run(src, program, "shiftIds", &[1], &db)
            .table("emp")
            .unwrap()
            .scan()
            .map(|r| r[0].clone())
            .collect();
        assert_eq!(ids, [4, 4, 4, 10].map(Value::Int));
    }
}
