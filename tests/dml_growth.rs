//! Growth gate for keyed point statements. 1,000 statements of the form
//! `UPDATE emp … WHERE id = ?` and `DELETE FROM emp WHERE id = ?` run
//! against `gen_emp` at 4,000 and at 64,000 rows. Through the table's
//! primary-key index each one visits only its own row, so sixteen times
//! the rows may cost at most four times the time; a statement that scans
//! the table costs about sixteen times. A second round negates every id
//! and names each row by `id = -?`: a key written as an expression must
//! find the index too. Scanning allocates nothing per row, so unlike
//! `interp_allocs.rs` this gate times the statements: the best of three
//! runs, each on a fresh copy of the table.

use std::time::{Duration, Instant};

use dbms::gen::gen_emp;
use dbms::{Database, Value};
use interp::dml::execute_update;

const SIZES: [usize; 2] = [4_000, 64_000];
const STATEMENTS: usize = 1_000;

/// The statements: half raise a salary, half delete the row, each on an
/// `id` spread over the whole table, by `id = ?` or, on the negated
/// table, by `id = -?`.
fn statements(n: usize, negated: bool) -> Vec<(&'static str, Vec<Value>)> {
    (0..STATEMENTS)
        .map(|i| {
            let id = Value::Int((i * 7_919 % n) as i64);
            match (i % 2 == 0, negated) {
                (true, false) => (
                    "UPDATE emp SET salary = salary + ? WHERE id = ?",
                    vec![Value::Int(1), id],
                ),
                (true, true) => (
                    "UPDATE emp SET salary = salary + ? WHERE id = -?",
                    vec![Value::Int(1), id],
                ),
                (false, false) => ("DELETE FROM emp WHERE id = ?", vec![id]),
                (false, true) => ("DELETE FROM emp WHERE id = -?", vec![id]),
            }
        })
        .collect()
}

/// The fastest of three runs of the statements over `gen_emp(n, 42)`,
/// its ids negated when asked. Each run first touches the index with one
/// statement outside the clock, on a key no row has, so what is timed is
/// the statements and not the one-time build.
fn best_time(n: usize, negated: bool) -> Duration {
    let mut base = gen_emp(n, 42);
    if negated {
        execute_update(&mut base, "UPDATE emp SET id = -id", &[]).unwrap();
    }
    let stmts = statements(n, negated);
    (0..3)
        .map(|_| {
            let mut db: Database = base.fork();
            let warm = "UPDATE emp SET salary = 0 WHERE id = -1 - ?";
            execute_update(&mut db, warm, &[Value::Int(n as i64)]).unwrap();
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
    for negated in [false, true] {
        let [small, large] = SIZES.map(|n| best_time(n, negated));
        let ratio = large.as_secs_f64() / small.as_secs_f64();
        assert!(
            ratio <= 4.0,
            "{STATEMENTS} keyed statements (ids negated: {negated}) took {small:?} at {} rows \
             and {large:?} at {} rows ({ratio:.1}x for {}x the rows)",
            SIZES[0],
            SIZES[1],
            SIZES[1] / SIZES[0],
        );
    }
}
