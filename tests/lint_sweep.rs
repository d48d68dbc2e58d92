//! Every diagnostic `lint_program` reports over the 158-program sweep,
//! against a golden file, under two option sets: the default, and
//! `rewrite_prints`, under which the planner lints a copy whose prints are
//! rewritten while the advisory passes read the program as written. One
//! line per (program, option set) lists each diagnostic as
//! `code@start..end:pass` in report order. Run with `BLESS=1` to
//! regenerate.
//!
//! A second test gates lint's allocations against extraction's over the
//! same sweep: lint builds each function's dataflow index and liveness
//! once and lends them to its passes and to the extraction planner, so it
//! may allocate at most a quarter more than extraction. Allocation counts
//! repeat exactly on every machine.

use std::fmt::Write;

use eqsql_core::{lint_program, Extractor, ExtractorOptions};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count;

#[test]
fn lint_sweep_matches_golden() {
    let option_sets = [
        ("default", ExtractorOptions::default()),
        (
            "rewrite_prints",
            ExtractorOptions {
                rewrite_prints: true,
                ..ExtractorOptions::default()
            },
        ),
    ];
    let mut got = String::new();
    for unit in workloads::sweep::units() {
        let program = imp::parse_and_normalize(&unit.source)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", unit.name));
        for (label, opts) in &option_sets {
            write!(got, "{} {label}:", unit.name).unwrap();
            for d in lint_program(&program, &unit.catalog, opts) {
                let span = d.primary.span;
                write!(got, " {}@{}..{}:{}", d.code, span.start, span.end, d.pass).unwrap();
            }
            got.push('\n');
        }
    }

    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/lint_sweep.txt");
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
            "lint diagnostics differ from the golden at line {}: got {:?}, want {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

#[test]
fn lint_allocates_at_most_a_quarter_more_than_extraction() {
    let opts = ExtractorOptions::default();
    let (mut lint, mut extract) = (0, 0);
    for unit in workloads::sweep::units() {
        let program = imp::parse_and_normalize(&unit.source)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", unit.name));
        let extractor = Extractor::with_options(unit.catalog.clone(), opts.clone());
        extract += count(|| extractor.extract_program(&program)).1;
        lint += count(|| lint_program(&program, &unit.catalog, &opts)).1;
    }
    eprintln!("allocations over the sweep: lint {lint}, extract {extract}");
    assert!(
        4 * lint <= 5 * extract,
        "lint_program made {lint} allocations over the sweep, more than 1.25x \
         extract_program's {extract}"
    );
}
