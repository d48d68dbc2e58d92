//! Text round trip of the extracted DML: every statement foreach-dml
//! extraction emits, over the example corpus and the write-loop fuzz
//! generator, must parse with `algebra::parse::parse_statement` and
//! render back to the same bytes with `algebra::render::stmt_to_sql`.

use algebra::parse::parse_statement;
use algebra::render::stmt_to_sql;
use algebra::Dialect;
use eqsql_core::{ExtractionReport, Extractor, ExtractorOptions};

/// The batched statements of a report's rewritten write loops.
fn dml_statements(report: &ExtractionReport) -> Vec<String> {
    report
        .vars
        .iter()
        .filter(|v| v.var.starts_with("dml:"))
        .flat_map(|v| v.sql.iter().cloned())
        .collect()
}

#[test]
fn extracted_dml_round_trips_through_the_statement_parser() {
    let mut stmts = Vec::new();
    for u in workloads::sweep::corpus() {
        let program = imp::parse_and_normalize(&u.source).unwrap();
        let report = Extractor::with_options(u.catalog, ExtractorOptions::default())
            .extract_program(&program);
        stmts.extend(dml_statements(&report));
    }
    let corpus = stmts.len();
    assert!(corpus >= 3, "the corpus batches its three write loops");

    for seed in 0..200 {
        let case = fuzz::genprog::gen_dml_case(seed);
        let catalog = algebra::ddl::parse_ddl(&case.ddl).unwrap();
        let program = imp::parse_program(&case.program).unwrap();
        let report = Extractor::with_options(catalog, ExtractorOptions::default())
            .extract_function(&program, &case.function);
        stmts.extend(dml_statements(&report));
    }
    assert!(
        stmts.len() > corpus + 50,
        "the generator batches many loops"
    );

    for sql in &stmts {
        let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        assert_eq!(&stmt_to_sql(&stmt, Dialect::Postgres), sql);
    }
}
