//! Translation-validation sweep (DESIGN.md §5e): with certification on,
//! every rule application and fold introduction across the corpus must
//! produce a proof obligation and discharge it — by algebraic
//! normalization or by differential evaluation over generated
//! micro-databases. Zero counterexamples, zero inconclusive obligations.
//!
//! Also golden-file tests for the certification diagnostic codes (`E007`
//! counterexample, `W006` inconclusive); run with `BLESS=1` to regenerate.

use eqsql::prelude::*;
use eqsql_core::eedag::{EeDag, OpKind};
use eqsql_core::{CertSummary, Certifier, ExtractionReport, Obligation};
use workloads::{servlets, wilos};

fn certified(base: ExtractorOptions) -> ExtractorOptions {
    ExtractorOptions {
        certify: true,
        ..base
    }
}

/// Every rule application (one `rule_trace` entry each) and every fold that
/// reached the rule engine (one fold-intro each) must have produced an
/// obligation, and none may be refuted or left unproven.
fn assert_fully_certified(label: &str, report: &ExtractionReport) -> CertSummary {
    let c = report.certification.expect("certification requested");
    assert_eq!(
        c.counterexamples, 0,
        "{label}: counterexample — a rewrite changed semantics:\n{:#?}",
        report.diagnostics
    );
    assert_eq!(
        c.inconclusive, 0,
        "{label}: undischarged obligation(s):\n{:#?}",
        report.diagnostics
    );
    // foreach-dml rows (`dml:<table>`) are certified by ONE differential
    // state-comparison obligation covering the whole lowering chain, so
    // they count once, not per rule-trace entry.
    let scalar = |v: &&eqsql_core::VarExtraction| !v.var.starts_with("dml:");
    let rule_apps: usize = report
        .vars
        .iter()
        .filter(scalar)
        .map(|v| v.rule_trace.len())
        .sum();
    let folds = report
        .vars
        .iter()
        .filter(scalar)
        .filter(|v| v.fir.is_some())
        .count();
    let dml = report.vars.iter().filter(|v| !scalar(v)).count();
    assert!(
        c.total >= rule_apps + folds + dml,
        "{label}: {} rule application(s) + {folds} fold(s) + {dml} dml loop(s) but only {} obligation(s)",
        rule_apps,
        c.total
    );
    assert_eq!(
        c.total,
        c.discharged_normalize + c.discharged_differential,
        "{label}: counts must partition: {c:?}"
    );
    c
}

#[test]
fn wilos_corpus_fully_certifies() {
    let catalog = wilos::catalog();
    let mut total = CertSummary::default();
    for s in wilos::samples() {
        let program = imp::parse_and_normalize(s.source).unwrap();
        let report = Extractor::with_options(catalog.clone(), certified(Default::default()))
            .extract_function(&program, "sample");
        let c = assert_fully_certified(&format!("#{} {}", s.id, s.label), &report);
        total.merge(&c);
    }
    // The 17 extracting samples apply rules; the sweep as a whole must
    // actually have checked a substantial obligation load.
    assert!(total.total >= 17, "sweep too small: {total:?}");
    assert!(total.discharged_differential > 0, "{total:?}");
    assert!(total.discharged_normalize > 0, "{total:?}");
}

#[test]
fn servlet_corpora_fully_certify() {
    let base = ExtractorOptions {
        rewrite_prints: true,
        ordered: false,
        ..Default::default()
    };
    for (app, list, catalog) in [
        ("rubis", servlets::rubis(), servlets::rubis_catalog()),
        ("rubbos", servlets::rubbos(), servlets::rubbos_catalog()),
        (
            "acadportal",
            servlets::acadportal(),
            servlets::acadportal_catalog(),
        ),
    ] {
        for s in list {
            let program = imp::parse_and_normalize(&s.source).unwrap();
            let report = Extractor::with_options(catalog.clone(), certified(base.clone()))
                .extract_function(&program, "servlet");
            assert_fully_certified(&format!("{app}:{}", s.name), &report);
        }
    }
}

#[test]
fn example_corpus_fully_certifies() {
    let mut programs = 0;
    for u in workloads::sweep::corpus() {
        let program = imp::parse_and_normalize(&u.source).unwrap();
        let report = Extractor::with_options(u.catalog, certified(Default::default()))
            .extract_program(&program);
        assert_fully_certified(&u.name, &report);
        programs += 1;
    }
    assert!(programs >= 5, "corpus shrank to {programs} programs");
}

#[test]
fn helper_call_now_extracts_under_effect_analysis() {
    // The P3-widening acceptance case: a loop calling a helper whose only
    // effect is a database read. The old purity analysis treated any
    // helper call as a potential external write and rejected the fold;
    // effect summaries prove `salaryFloor` write-free, the invariant
    // scalar lifts to a parameter, and the count extracts — certified.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/corpus/above_floor.imp");
    let src = std::fs::read_to_string(&path).unwrap();
    let program = imp::parse_and_normalize(&src).unwrap();
    let ddl = std::fs::read_to_string(path.with_file_name("schema.sql")).unwrap();
    let catalog = algebra::ddl::parse_ddl(&ddl).unwrap();
    let report = Extractor::with_options(catalog, certified(Default::default()))
        .extract_function(&program, "aboveFloor");
    assert_eq!(report.loops_rewritten, 1, "{:#?}", report.vars);
    let v = &report.vars[0];
    assert_eq!(v.outcome, ExtractionOutcome::Extracted);
    assert!(v.sql.join(" ").contains("COUNT"), "{:?}", v.sql);
    assert_fully_certified("above_floor", &report);

    // And the effect summary names the reason it is admissible.
    let summaries = analysis::effect_summaries(&program);
    let s = summaries[&intern::Symbol::intern("salaryFloor")];
    assert!(!s.writes_external(), "{s:?}");
    assert!(
        s.effects.contains(analysis::EffectSet::DB_READ),
        "helper reads the database: {s:?}"
    );
}

fn golden(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} (run with BLESS=1): {e}", path.display()));
    assert_eq!(
        got.trim(),
        want.trim(),
        "golden mismatch for {name}; re-run with BLESS=1 if the change is intended"
    );
}

#[test]
fn e007_counterexample_golden() {
    // `x` vs `x + 1` is not an identity; differential evaluation must find
    // a distinguishing input and report it as a stable E007 document.
    let mut dag = EeDag::new();
    let x = dag.input("x");
    let one = dag.int(1);
    let wrong = dag.op(OpKind::Add, vec![x, one]);
    let catalog = Catalog::new();
    let certifier = Certifier::new(&catalog);
    let rep = certifier.check_all(&mut dag, &[Obligation::rewrite("T-bogus", x, wrong)]);
    assert_eq!(rep.counterexamples(), 1);
    let diags = rep.diagnostics(&dag, &|_| None);
    assert_eq!(diags[0].code, Code::CertCounterexample);
    assert_eq!(diags[0].code.as_str(), "E007");
    golden("certify_e007.json", &render_json(&diags, ""));
}

#[test]
fn w006_inconclusive_golden() {
    // Two distinct opaque nodes cannot be normalized or evaluated; the
    // obligation stays open and is reported as a W006 advisory.
    let mut dag = EeDag::new();
    let a = dag.opaque("method stream()", vec![]);
    let b = dag.opaque("method parallel()", vec![]);
    let catalog = Catalog::new();
    let certifier = Certifier::new(&catalog);
    let rep = certifier.check_all(&mut dag, &[Obligation::rewrite("T-opaque", a, b)]);
    assert_eq!(rep.inconclusive(), 1);
    assert!(!rep.all_discharged());
    let diags = rep.diagnostics(&dag, &|_| None);
    assert_eq!(diags[0].code, Code::CertInconclusive);
    assert_eq!(diags[0].code.as_str(), "W006");
    golden("certify_w006.json", &render_json(&diags, ""));
}
