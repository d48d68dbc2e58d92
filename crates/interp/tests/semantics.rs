//! Value semantics the interpreter's by-reference reads must keep: `for`
//! iterates a snapshot, a method's receiver is read before its arguments,
//! field lookup binds leftmost, error texts, and the exact step count of
//! a cursor loop (the QBS verifier runs under `with_budget`, so one step
//! more or less changes which candidates pass).

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
