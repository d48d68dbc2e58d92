//! Growth gate for keyed point statements. 1,000 statements of the form
//! `UPDATE emp … WHERE id = ?` and `DELETE FROM emp WHERE id = ?` run
//! against `gen_emp` at 4,000 and at 64,000 rows. Through the table's
//! primary-key index each one visits only its own row, so sixteen times
//! the rows may cost at most four times the time; a statement that scans
//! the table costs about sixteen times. Scanning allocates nothing per
//! row, so unlike `interp_allocs.rs` this gate times the statements: the
//! best of three runs, each on a fresh copy of the table.

use std::time::{Duration, Instant};

use dbms::gen::gen_emp;
use dbms::{Database, Value};
use interp::dml::execute_update;

const SIZES: [usize; 2] = [4_000, 64_000];
const STATEMENTS: usize = 1_000;

/// The statements: half raise a salary, half delete the row, each on an
/// `id` spread over the whole table.
fn statements(n: usize) -> Vec<(&'static str, Vec<Value>)> {
    (0..STATEMENTS)
        .map(|i| {
            let id = Value::Int((i * 7_919 % n) as i64);
            if i % 2 == 0 {
                (
                    "UPDATE emp SET salary = salary + ? WHERE id = ?",
                    vec![Value::Int(1), id],
                )
            } else {
                ("DELETE FROM emp WHERE id = ?", vec![id])
            }
        })
        .collect()
}

/// The fastest of three runs of the statements over `gen_emp(n, 42)`.
/// Each run first touches the index with one statement outside the clock,
/// so what is timed is the statements and not the one-time build.
fn best_time(n: usize) -> Duration {
    let base = gen_emp(n, 42);
    let stmts = statements(n);
    (0..3)
        .map(|_| {
            let mut db: Database = base.fork();
            let warm = "UPDATE emp SET salary = 0 WHERE id = ?";
            execute_update(&mut db, warm, &[Value::Int(-1)]).unwrap();
            let t0 = Instant::now();
            for (sql, params) in &stmts {
                assert_eq!(execute_update(&mut db, sql, params), Ok(1));
            }
            t0.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn keyed_statements_do_not_grow_with_the_table() {
    let [small, large] = SIZES.map(best_time);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= 4.0,
        "{STATEMENTS} keyed statements took {small:?} at {} rows and {large:?} at {} rows \
         ({ratio:.1}x for {}x the rows)",
        SIZES[0],
        SIZES[1],
        SIZES[1] / SIZES[0],
    );
}
