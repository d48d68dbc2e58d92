//! Everything the interpreter lets a caller observe, over the 158-program
//! sweep, against a golden file. Each program is extracted under the
//! default options; every function of the original and of the extracted
//! program runs on a fresh `gen_catalog(&unit.catalog, 16, 42)`, its
//! parameters bound to the ints 1, 2, 3, …. One line per run records the
//! value (or the error text), the printed lines, the connection's `Stats`
//! and the step count: the smallest budget under which the call finishes,
//! found by bisecting `Interp::with_budget`. A change to how the
//! interpreter evaluates must leave this file byte-identical. Run with
//! `BLESS=1` to regenerate.

use std::fmt::Write;

use dbms::{Connection, Database};
use eqsql_core::{Extractor, ExtractorOptions};
use imp::ast::Program;
use interp::{Interp, RtError, RtValue};

/// `Interp::new`'s default budget: a run that exhausts it is not bisected.
const DEFAULT_BUDGET: u64 = 50_000_000;

fn args(n: usize) -> Vec<RtValue> {
    (1..=n as i64).map(RtValue::int).collect()
}

/// One call of `name` on a fresh copy of `db`, under `budget` if given.
fn run(
    program: &Program,
    db: &Database,
    name: &str,
    budget: Option<u64>,
) -> (Result<RtValue, RtError>, Vec<String>, dbms::Stats) {
    let arity = program.function(name).unwrap().params.len();
    let mut it = Interp::new(program, Connection::new(db.clone()));
    if let Some(b) = budget {
        it = it.with_budget(b);
    }
    let v = it.call(name, args(arity));
    (v, it.output, it.conn.stats)
}

/// The smallest budget under which `name` finishes (with a value or an
/// error other than `BudgetExhausted`).
fn steps(program: &Program, db: &Database, name: &str) -> u64 {
    let (mut lo, mut hi) = (0, DEFAULT_BUDGET);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match run(program, db, name, Some(mid)).0 {
            Err(RtError::BudgetExhausted) => lo = mid + 1,
            _ => hi = mid,
        }
    }
    lo
}

fn record(out: &mut String, label: &str, program: &Program, db: &Database) {
    for f in &program.functions {
        let name = f.name.as_str();
        let (v, lines, stats) = run(program, db, name, None);
        let value = match &v {
            Ok(v) => format!("ok {v:?}"),
            Err(e) => format!("err {e}"),
        };
        let steps = match v {
            Err(RtError::BudgetExhausted) => "over".to_string(),
            _ => steps(program, db, name).to_string(),
        };
        writeln!(
            out,
            "  {label} {name}: {value} | print {lines:?} | {stats:?} | steps {steps}"
        )
        .unwrap();
    }
}

#[test]
fn interp_sweep_matches_golden() {
    let mut got = String::new();
    for unit in workloads::sweep::units() {
        let program = imp::parse_and_normalize(&unit.source)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", unit.name));
        let extracted = Extractor::with_options(unit.catalog.clone(), ExtractorOptions::default())
            .extract_program(&program)
            .program;
        let db = dbms::gen::gen_catalog(&unit.catalog, 16, 42);
        writeln!(got, "{}", unit.name).unwrap();
        record(&mut got, "original", &program, &db);
        record(&mut got, "extracted", &extracted, &db);
    }

    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/interp_sweep.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden {} (run with BLESS=1): {e}",
            golden.display()
        )
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "interpreter observations differ from the golden at line {}: got {:?}, want {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
