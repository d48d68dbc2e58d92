//! Value semantics the interpreter's by-reference reads must keep: `for`
//! iterates a snapshot, a method's receiver is read before its arguments,
//! field lookup binds leftmost, error texts, and the exact step counts of
//! a cursor loop and of each construct (the QBS verifier runs under
//! `with_budget`, so one step more or less changes which candidates pass).

use dbms::gen::gen_emp;
use dbms::Connection;
use imp::parser::parse_program;
use interp::{Interp, RtError, RtValue};

fn run(src: &str, db: dbms::Database) -> Result<RtValue, RtError> {
    let p = parse_program(src).unwrap();
    Interp::new(&p, Connection::new(db)).call("f", vec![])
}

fn run_budget(src: &str, db: &dbms::Database, budget: u64) -> Result<RtValue, RtError> {
    let p = parse_program(src).unwrap();
    Interp::new(&p, Connection::new(db.clone()))
        .with_budget(budget)
        .call("f", vec![])
}

fn ints(xs: &[i64]) -> RtValue {
    RtValue::List(xs.iter().map(|&x| RtValue::int(x)).collect())
}

#[test]
fn for_over_a_variable_iterates_a_snapshot() {
    // The body adds to `xs` and then reassigns it; the loop still visits
    // exactly the two elements `xs` held when the loop began.
    let src = r#"
        fn f() {
            xs = list(); xs.add(1); xs.add(2);
            seen = list();
            for (x in xs) {
                xs.add(x * 10);
                seen.add(x);
                xs = list();
                xs.add(99);
            }
            return pair(seen, xs);
        }
    "#;
    let v = run(src, dbms::Database::new()).unwrap();
    assert_eq!(
        v,
        RtValue::Pair(Box::new(ints(&[1, 2])), Box::new(ints(&[99])))
    );
}

#[test]
fn for_over_a_cursor_variable_iterates_a_snapshot() {
    let src = r#"
        fn f() {
            rows = executeQuery("SELECT * FROM emp");
            n = 0;
            for (r in rows) {
                rows.add(r);
                n = n + 1;
            }
            return pair(n, rows.size());
        }
    "#;
    let v = run(src, gen_emp(5, 3)).unwrap();
    assert_eq!(
        v,
        RtValue::Pair(Box::new(RtValue::int(5)), Box::new(RtValue::int(10)))
    );
}

#[test]
fn a_method_receiver_is_read_before_its_arguments() {
    // `xs.add(xs.add(2))` pushes 2 and then the unit value; `contains`
    // looks for that unit value in `xs` as it was before its argument ran.
    let src = r#"
        fn f() {
            xs = list(); xs.add(1);
            return xs.contains(xs.add(xs.add(2)));
        }
    "#;
    assert_eq!(run(src, dbms::Database::new()), Ok(RtValue::bool(false)));
    let src = r#"
        fn f() {
            xs = list(); xs.add(1);
            b = xs.contains(xs.add(xs.add(2)));
            return xs.contains(xs.add(3));
        }
    "#;
    assert_eq!(run(src, dbms::Database::new()), Ok(RtValue::bool(true)));
}

#[test]
fn unqualified_field_binds_leftmost() {
    // A self-join repeats every column name; `r.name` is the left side's.
    let src = r#"
        fn f() {
            out = list();
            for (r in executeQuery("SELECT * FROM emp a JOIN emp b ON b.id = a.id + 1 WHERE a.id = 1")) {
                out.add(r.id);
                out.add(r.name);
            }
            return out;
        }
    "#;
    let db = gen_emp(4, 9);
    let name1 = run(
        r#"fn f() { return executeScalar("SELECT name FROM emp WHERE id = 1"); }"#,
        db.clone(),
    )
    .unwrap();
    let v = run(src, db).unwrap();
    assert_eq!(v, RtValue::List(vec![RtValue::int(1), name1]));
}

#[test]
fn missing_field_error_text() {
    let src = r#"
        fn f() {
            for (r in executeQuery("SELECT id, dept FROM emp WHERE id = 1")) {
                x = r.zzz;
            }
            return 0;
        }
    "#;
    let err = run(src, gen_emp(3, 1)).unwrap_err();
    assert_eq!(err.to_string(), "type error: no field zzz on (1, sales)");
    let err = run("fn f() { x = 5; return x.y; }", dbms::Database::new()).unwrap_err();
    assert_eq!(err.to_string(), "type error: no field y on 5");
    let err = run("fn f() { return ghost.y; }", dbms::Database::new()).unwrap_err();
    assert_eq!(err.to_string(), "undefined name `variable ghost`");
}

#[test]
fn non_iterable_for_error_text() {
    let err = run(
        "fn f() { for (x in 5) { } return 0; }",
        dbms::Database::new(),
    )
    .unwrap_err();
    assert_eq!(err.to_string(), "type error: cannot iterate over 5");
    let err = run(
        "fn f() { p = pair(1, 2); for (x in p) { } return 0; }",
        dbms::Database::new(),
    )
    .unwrap_err();
    assert_eq!(err.to_string(), "type error: cannot iterate over (1, 2)");
}

#[test]
fn method_error_texts() {
    let err = run("fn f() { x = 5; return x.size(); }", dbms::Database::new()).unwrap_err();
    assert_eq!(err.to_string(), "type error: unknown method size on 5");
    let err = run("fn f() { return ghost.size(); }", dbms::Database::new()).unwrap_err();
    assert_eq!(err.to_string(), "undefined name `variable ghost`");
    let err = run(
        "fn f() { s = set(); s.add(1); return s.get(0); }",
        dbms::Database::new(),
    )
    .unwrap_err();
    assert_eq!(err.to_string(), "type error: unknown method get on {1}");
}

/// A cursor loop over `e.f`, then an index loop over `rows.size()` and
/// `rows.get(i)`, plus `isEmpty`/`contains`/`first` on the cursor.
const CURSOR_STEPS: &str = r#"
    fn f() {
        rows = executeQuery("SELECT * FROM emp");
        s = 0;
        for (e in rows) { s = s + e.salary; }
        i = 0;
        while (i < rows.size()) {
            s = s + rows.get(i).salary;
            i = i + 1;
        }
        if (!rows.isEmpty() && rows.contains(rows.first())) { s = s + 1; }
        return s;
    }
"#;

/// The smallest budget under which [`CURSOR_STEPS`] finishes over
/// `gen_emp(20, 7)`.
const CURSOR_STEPS_BUDGET: u64 = 450;

#[test]
fn cursor_loop_step_count_is_pinned() {
    let db = gen_emp(20, 7);
    let want = run(CURSOR_STEPS, db.clone()).unwrap();
    assert_eq!(run_budget(CURSOR_STEPS, &db, CURSOR_STEPS_BUDGET), Ok(want));
    assert_eq!(
        run_budget(CURSOR_STEPS, &db, CURSOR_STEPS_BUDGET - 1),
        Err(RtError::BudgetExhausted)
    );
}

/// `emp` over 12 rows, in memory and paged behind 4 buffer-pool frames.
fn emp_backings() -> [dbms::Database; 2] {
    let mem = gen_emp(12, 5);
    let emp = mem.table("emp").unwrap();
    let mut paged = dbms::Database::paged_in_memory(4);
    paged.create_table(emp.schema.clone());
    for row in emp.scan() {
        paged.insert("emp", row);
    }
    [mem, paged]
}

/// Everything a run leaves to observe: the value or error of `f`, the
/// printed lines and the connection's meter.
fn observe(src: &str, db: &dbms::Database) -> (Result<RtValue, RtError>, Vec<String>, dbms::Stats) {
    let p = parse_program(src).unwrap();
    let mut it = Interp::new(&p, Connection::new(db.clone()));
    let v = it.call("f", vec![]);
    (v, it.output, it.conn.stats)
}

/// `src` with `LOOP` written as a cursor loop over `executeQuery(query)`
/// and, for the reference, as the same loop over a variable holding the
/// result, which buffers it: the two must agree on the value or error of
/// `f`, the printed lines and the meter, in memory and paged.
fn streams_like_buffered(src: &str, query: &str) {
    let streamed = src.replace("LOOP", &format!("for (e in executeQuery({query}))"));
    let buffered = src.replace(
        "LOOP",
        &format!("rows = executeQuery({query}); for (e in rows)"),
    );
    for db in emp_backings() {
        let want = observe(&buffered, &db);
        assert_eq!(observe(&streamed, &db), want, "{streamed}");
    }
}

const ALL: &str = r#""SELECT * FROM emp""#;

#[test]
fn a_streamed_loop_breaks_and_returns_like_a_buffered_one() {
    streams_like_buffered(
        "fn f() { s = 0; n = 0; LOOP { n = n + 1; s = s + e.salary; if (n >= 3) break; } return pair(n, s); }",
        ALL,
    );
    streams_like_buffered(
        "fn f() { LOOP { if (e.salary > 100000) return e.name; } return \"none\"; }",
        ALL,
    );
    streams_like_buffered(
        "fn f() { s = 0; LOOP { if (e.dept == \"eng\") continue; s = s + e.salary; } return s; }",
        r#""SELECT * FROM emp WHERE salary > ?", 60000"#,
    );
}

#[test]
fn a_streamed_loop_prints_like_a_buffered_one() {
    streams_like_buffered(
        "fn f() { print(\"start\"); LOOP { print(e.name, \":\", e.salary); } print(\"end\"); return 0; }",
        ALL,
    );
}

#[test]
fn a_body_that_queries_through_a_function_stays_buffered() {
    // `g` queries directly and `h` through `g`; a loop calling either must
    // not stream (the interpreter's debug assertion fails if it does), and
    // the inner loop of the last program, whose body makes no call, may.
    let src = r#"
        fn g(id) { return executeScalar("SELECT salary FROM emp WHERE id = ?", id); }
        fn h(id) { return g(id); }
        fn f() { s = 0; LOOP { s = s + h(e.id) - g(e.id) + e.salary; } return s; }
    "#;
    streams_like_buffered(src, ALL);
    streams_like_buffered(
        r#"fn f() {
            s = 0;
            LOOP {
                for (d in executeQuery("SELECT * FROM emp WHERE id <= ?", e.id)) { s = s + d.salary; }
            }
            return s;
        }"#,
        ALL,
    );
}

#[test]
fn a_query_failing_mid_result_wins_over_the_body() {
    // Rows with id < 3 pass on the left of the OR; the first row past them
    // compares an integer with a string, a type error.
    let query = r#""SELECT * FROM emp WHERE id < 3 OR salary < 'z'""#;
    let prefix = format!("fn f() {{ return executeQuery({query} + \" LIMIT 3\").size(); }}");
    for db in emp_backings() {
        assert_eq!(observe(&prefix, &db).0, Ok(RtValue::int(3)));
    }
    for body in [
        "print(e.id);",
        "print(e.id); if (e.id == 1) break;",
        "print(e.id); return e.id;",
        "print(e.id); x = e.nope;",
    ] {
        let src =
            format!("fn f() {{ print(\"start\"); LOOP {{ {body} }} print(\"end\"); return 0; }}");
        streams_like_buffered(&src, query);
        let (v, out, _) = observe(
            &src.replace("LOOP", &format!("for (e in executeQuery({query}))")),
            &gen_emp(12, 5),
        );
        assert!(matches!(v, Err(RtError::Sql(_))), "{body}: {v:?}");
        assert_eq!(out, ["start"], "{body}");
    }
}

#[test]
fn the_loop_variable_holds_the_last_row_after_a_streamed_loop() {
    for src in [
        "fn f() { LOOP { } return e; }",
        "fn f() { LOOP { if (e.id == 4) break; } return e; }",
        "fn f() { LOOP { x = e; } return pair(e, x); }",
        "fn f() { LOOP { e = e.id; } return e; }",
        "fn f() { e = 5; LOOP { } return e; }",
    ] {
        streams_like_buffered(src, ALL);
        streams_like_buffered(src, r#""SELECT * FROM emp WHERE id < 0""#);
    }
}

/// Assert the step count of `f` in `src` over `db`: it finishes (with a
/// value or an error) under a budget of `budget` and runs out at one less.
fn assert_steps(src: &str, db: &dbms::Database, budget: u64) {
    let want = run(src, db.clone());
    assert_ne!(want, Err(RtError::BudgetExhausted), "{src}");
    assert_eq!(run_budget(src, db, budget), want, "{src}");
    assert_eq!(
        run_budget(src, db, budget - 1),
        Err(RtError::BudgetExhausted),
        "{src}"
    );
}

#[test]
fn logic_ternary_and_while_step_counts_are_pinned() {
    let db = dbms::Database::new();
    let src = r#"
        fn f() {
            n = null;
            a = n && true; b = false && n; c = n || false; d = true || n;
            e = n && false; g = n || true;
            return pair(pair(a, b), pair(pair(c, d), pair(e, g)));
        }
    "#;
    assert_eq!(
        run(src, db.clone()),
        Ok(RtValue::Pair(
            Box::new(RtValue::Pair(
                Box::new(RtValue::null()),
                Box::new(RtValue::bool(false))
            )),
            Box::new(RtValue::Pair(
                Box::new(RtValue::Pair(
                    Box::new(RtValue::null()),
                    Box::new(RtValue::bool(true))
                )),
                Box::new(RtValue::Pair(
                    Box::new(RtValue::bool(false)),
                    Box::new(RtValue::bool(true))
                )),
            )),
        ))
    );
    assert_steps(src, &db, 36);
    assert_steps(
        "fn f() { x = 3; y = x > 2 ? x * 2 : x - 1; z = x < 2 ? 1 : 0; return y + z; }",
        &db,
        20,
    );
    assert_steps(
        "fn f() { i = 0; s = 0; while (i < 5) { i = i + 1; if (i == 2) continue; if (i == 4) break; s = s + i; } return s; }",
        &db,
        77,
    );
}

#[test]
fn method_call_step_counts_are_pinned() {
    let db = dbms::Database::new();
    // The argument mutates the receiver, so the receiver is copied first.
    assert_steps(
        "fn f() { xs = list(); xs.add(1); xs.add(2); return xs.contains(xs.add(3)); }",
        &db,
        13,
    );
    // The argument does not: the receiver is read in place.
    assert_steps(
        "fn f() { xs = list(); xs.add(1); xs.add(2); i = 1; return xs.get(i - 1) + xs.size(); }",
        &db,
        19,
    );
}

#[test]
fn user_function_call_step_count_is_pinned() {
    assert_steps(
        "fn g(a, b) { c = a * b; return c + 1; } fn f() { x = g(2, 3); return g(x, x); }",
        &dbms::Database::new(),
        24,
    );
}

#[test]
fn sql_call_step_counts_are_pinned() {
    let db = gen_emp(6, 4);
    // Each SQL call with a literal and with a computed string, and the
    // budget of `[executeScalar, executeBatch, executeUpdate]` with it.
    for (query, update, budgets) in [
        (
            r#""SELECT salary FROM emp WHERE id = ?""#,
            r#""UPDATE emp SET salary = ? WHERE id = ?""#,
            [8, 15, 5],
        ),
        (
            r#""SELECT salary FROM " + "emp WHERE id = ?""#,
            r#""UPDATE " + "emp SET salary = ? WHERE id = ?""#,
            [10, 17, 7],
        ),
    ] {
        let scalar = format!("fn f() {{ x = 2; return executeScalar({query}, x + 1); }}");
        assert_steps(&scalar, &db, budgets[0]);
        let batch = format!(
            "fn f() {{ ids = list(); ids.add(1); ids.add(3); ids.add(99); return executeBatch({query}, ids); }}"
        );
        assert_steps(&batch, &db, budgets[1]);
        let update = format!("fn f() {{ return executeUpdate({update}, 7, 2); }}");
        assert_eq!(run(&update, db.clone()), Ok(RtValue::int(1)), "{update}");
        assert_steps(&update, &db, budgets[2]);
    }
}

#[test]
fn an_unparsable_literal_fails_when_called_and_every_time() {
    let src = r#"
        fn g(k) {
            print("before", k);
            return executeQuery("SELEC salary FROM emp");
        }
        fn f() {
            if (false) { return executeScalar("SELEC 1"); }
            return g(1);
        }
    "#;
    let db = gen_emp(3, 1);
    let p = parse_program(src).unwrap();
    let mut it = Interp::new(&p, Connection::new(db.clone()));
    let first = it.call("f", vec![]);
    assert!(matches!(first, Err(RtError::Sql(_))), "{first:?}");
    assert_eq!(it.call("f", vec![]), first);
    assert_eq!(it.output, ["before1", "before1"]);
    assert_eq!(it.conn.stats, dbms::Stats::default());
    assert_steps(src, &db, 11);
}

#[test]
fn an_undefined_function_in_a_branch_never_taken_is_no_error() {
    let src = "fn f() { x = 1; if (x > 2) { x = nowhere(x); } return x; }";
    assert_eq!(run(src, dbms::Database::new()), Ok(RtValue::int(1)));
    assert_steps(src, &dbms::Database::new(), 8);
    let err = run(
        "fn f() { x = 3; if (x > 2) { x = nowhere(x); } return x; }",
        dbms::Database::new(),
    )
    .unwrap_err();
    assert_eq!(err.to_string(), "undefined name `function nowhere`");
}

#[test]
fn a_repeated_parameter_binds_its_last_argument() {
    let src = "fn g(a, a) { b = a; return b; } fn f() { return g(1, 2); }";
    assert_eq!(run(src, dbms::Database::new()), Ok(RtValue::int(2)));
    let p = parse_program(src).unwrap();
    let mut it = Interp::new(&p, Connection::new(dbms::Database::new()));
    assert_eq!(
        it.call("g", vec![RtValue::int(3), RtValue::int(4)]),
        Ok(RtValue::int(4))
    );
}

#[test]
fn builtin_error_texts() {
    for (src, want) in [
        ("fn f() { return max(1, list()); }", "max needs scalars"),
        ("fn f() { return min(list()); }", "min needs scalars"),
        ("fn f() { return lower(1); }", "lower of Some(Int(1))"),
        (
            "fn f() { return upper(true); }",
            "upper of Some(Bool(true))",
        ),
        ("fn f() { return length(2); }", "length of Some(Int(2))"),
        ("fn f() { return abs(\"x\"); }", "abs of Some(Str(\"x\"))"),
    ] {
        let err = run(src, dbms::Database::new()).unwrap_err();
        assert_eq!(err.to_string(), format!("type error: {want}"), "{src}");
    }
}
