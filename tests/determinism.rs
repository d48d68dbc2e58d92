//! Determinism and memoization-soundness tests for the D-IR hot path.
//!
//! Two properties guard the perf work on the extraction pipeline:
//!
//! 1. **Consing determinism** — building the D-IR for the same program
//!    twice yields *identical* NodeId graphs (same arena length, same node
//!    at every id) and extraction yields byte-identical report JSON. This
//!    pins down that the hash-then-probe consing scheme assigns ids purely
//!    by traversal order, never by hash-map iteration order.
//! 2. **Cache transparency** — the rule-engine fixpoint memo
//!    (`ExtractorOptions::rule_cache`) is an optimization only: cached and
//!    uncached sweeps over the full workload corpus must agree
//!    byte-for-byte, diagnostics and rule traces included.

use analysis::defuse::DefUseCtx;
use eqsql_core::dir::DirBuilder;
use eqsql_core::{Extractor, ExtractorOptions};
use proptest::prelude::*;

/// Statement templates covering the accumulation idioms whose D-IR shapes
/// exercise every `Node` variant: scalar folds, guarded folds, min/max,
/// collection appends, flags, and field projections.
fn arb_stmt() -> impl Strategy<Value = (String, &'static str, &'static str)> {
    (0i64..250_000).prop_flat_map(|c| {
        prop_oneof![
            Just(("s = s + e.salary;".to_string(), "s", "0")),
            Just((
                format!("if (e.salary > {c}) {{ s = s + e.salary; }}"),
                "s",
                "0"
            )),
            Just((format!("if (e.salary <= {c}) {{ n = n + 1; }}"), "n", "0")),
            Just(("if (e.salary > hi) hi = e.salary;".to_string(), "hi", "0")),
            Just(("names.add(e.name);".to_string(), "names", "list()")),
            Just(("depts.add(e.dept);".to_string(), "depts", "set()")),
            Just((
                format!("if (e.id != {c}) {{ found = true; }}"),
                "found",
                "false"
            )),
        ]
    })
}

/// A whole single-loop program from 1–4 random body statements.
fn arb_program() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_stmt(), 1..4).prop_map(|stmts| {
        let mut inits: Vec<(&str, &str)> = Vec::new();
        for (_, v, init) in &stmts {
            if !inits.iter().any(|(name, _)| name == v) {
                inits.push((v, init));
            }
        }
        let init_src: String = inits
            .iter()
            .map(|(v, e)| format!("    {v} = {e};\n"))
            .collect();
        let body: String = stmts
            .iter()
            .map(|(code, _, _)| format!("        {code}\n"))
            .collect();
        let ret: String = inits
            .iter()
            .map(|(v, _)| format!("    result.add({v});\n"))
            .collect();
        format!(
            "fn f() {{\n    rows = executeQuery(\"SELECT * FROM emp\");\n{init_src}    \
             for (e in rows) {{\n{body}    }}\n    result = list();\n{ret}    return result;\n}}"
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same program in, same ee-DAG out — node for node, id for id — and
    /// byte-identical extraction reports.
    #[test]
    fn extraction_is_deterministic(src in arb_program()) {
        let program = imp::parse_and_normalize(&src)
            .unwrap_or_else(|e| panic!("generated source invalid: {e}\n{src}"));
        let catalog = dbms::gen::gen_emp(0, 0).catalog();

        let f = program.function("f").expect("generated program has `f`");
        let dir = || DirBuilder::new(&program, &catalog, &DefUseCtx::of_program(&program)).build(f);
        let (d1, d2) = (dir(), dir());
        prop_assert_eq!(d1.dag.len(), d2.dag.len(), "arena sizes differ\n{}", &src);
        for i in 0..d1.dag.len() {
            let id = eqsql_core::eedag::NodeId(i as u32);
            prop_assert_eq!(
                format!("{:?}", d1.dag.node(id)),
                format!("{:?}", d2.dag.node(id)),
                "node {} differs between runs\n{}", i, &src
            );
        }
        prop_assert_eq!(&d1.ve, &d2.ve, "ve-Maps differ\n{}", &src);

        let r1 = Extractor::new(catalog.clone()).extract_function(&program, "f");
        let r2 = Extractor::new(catalog).extract_function(&program, "f");
        prop_assert_eq!(
            r1.render_json(&src),
            r2.render_json(&src),
            "reports differ between runs\n{}", &src
        );
    }

    /// The rule-engine memo cache never changes the report for randomly
    /// generated programs.
    #[test]
    fn rule_cache_is_transparent_on_random_programs(src in arb_program()) {
        let program = imp::parse_and_normalize(&src).unwrap();
        let catalog = dbms::gen::gen_emp(0, 0).catalog();
        let cached = Extractor::new(catalog.clone()).extract_function(&program, "f");
        let uncached = Extractor::with_options(
            catalog,
            ExtractorOptions { rule_cache: false, ..Default::default() },
        )
        .extract_function(&program, "f");
        prop_assert_eq!(
            cached.render_json(&src),
            uncached.render_json(&src),
            "memo cache changed the report\n{}", &src
        );
    }
}

/// The options an application of the 158-program sweep is extracted
/// under: the servlets rewrite prints and ignore order, as keyword search
/// does; the rest use the defaults.
fn options(app: &str) -> ExtractorOptions {
    match app {
        "rubis" | "rubbos" | "acadportal" => ExtractorOptions {
            rewrite_prints: true,
            ordered: false,
            ..Default::default()
        },
        _ => ExtractorOptions::default(),
    }
}

/// Regression: cached rule rewrites equal uncached ones on the full corpus.
#[test]
fn rule_cache_is_transparent_on_full_corpus() {
    let mut mismatches = Vec::new();
    for u in workloads::sweep::units() {
        let opts = options(u.app);
        let program = imp::parse_and_normalize(&u.source)
            .unwrap_or_else(|e| panic!("{}: corpus source fails to parse: {e}", u.name));
        let Some(fname) = program.functions.first().map(|f| f.name.to_string()) else {
            continue;
        };
        let cached = Extractor::with_options(
            u.catalog.clone(),
            ExtractorOptions {
                rule_cache: true,
                ..opts.clone()
            },
        )
        .extract_function(&program, &fname);
        let uncached = Extractor::with_options(
            u.catalog,
            ExtractorOptions {
                rule_cache: false,
                ..opts
            },
        )
        .extract_function(&program, &fname);
        // The cache must actually engage somewhere: hits are counted only
        // when enabled, and are asserted in aggregate below.
        assert_eq!(
            uncached.stage.rule_cache_hits, 0,
            "{}: disabled cache reported hits",
            u.name
        );
        if cached.render_json(&u.source) != uncached.render_json(&u.source) {
            mismatches.push(u.name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "rule cache changed extraction output for: {}",
        mismatches.join(", ")
    );
}

/// The memo cache must engage on the corpus (otherwise the transparency
/// test above is vacuous).
#[test]
fn rule_cache_engages_on_corpus() {
    let mut total_hits = 0u64;
    for u in workloads::sweep::units() {
        let opts = options(u.app);
        let program = imp::parse_and_normalize(&u.source)
            .unwrap_or_else(|e| panic!("{}: corpus source fails to parse: {e}", u.name));
        let Some(fname) = program.functions.first().map(|f| f.name.to_string()) else {
            continue;
        };
        let report = Extractor::with_options(u.catalog, opts).extract_function(&program, &fname);
        total_hits += report.stage.rule_cache_hits;
    }
    assert!(
        total_hits > 0,
        "rule-engine memo cache never hit across the whole corpus"
    );
}
