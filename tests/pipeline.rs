//! End-to-end pipeline scenarios spanning crates: inlining + extraction,
//! dialect control, partial extraction around updates, loop-region/CFG
//! cross-validation on larger programs.

use std::collections::BTreeSet;

use algebra::Dialect;
use analysis::cfg::{BlockId, Cfg, Terminator};
use analysis::defuse::DefUseCtx;
use dbms::gen::{gen_emp, gen_wilos};
use dbms::Connection;
use eqsql_core::dir::DirBuilder;
use eqsql_core::{ExtractionOutcome, Extractor, ExtractorOptions};
use interp::{Interp, RtValue};

#[test]
fn user_function_inlining_enables_extraction() {
    // The score combination lives in a helper — D-IR inlines it
    // (paper Sec. 3.3 / Appendix D.6).
    let src = r#"
        fn clampPositive(x) { return max(x, 0); }
        fn total() {
            rows = executeQuery("SELECT * FROM emp");
            s = 0;
            for (e in rows) {
                s = s + clampPositive(e.salary - 100000);
            }
            return s;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(100, 3);
    let report = Extractor::new(db.catalog()).extract_function(&program, "total");
    assert_eq!(report.loops_rewritten, 1, "{:#?}", report.vars);
    assert!(
        report.vars[0].sql[0].contains("GREATEST"),
        "{:?}",
        report.vars[0].sql
    );

    let mut orig = Interp::new(&program, Connection::new(db.clone()));
    let v1 = orig.call("total", vec![]).unwrap();
    let mut new = Interp::new(&report.program, Connection::new(db));
    let v2 = new.call("total", vec![]).unwrap();
    assert_eq!(v1, v2);
}

#[test]
fn dialect_changes_rendered_sql() {
    let src = r#"
        fn best() {
            rows = executeQuery("SELECT * FROM emp");
            hi = 0;
            for (e in rows) {
                if (max(e.salary, e.id) > hi) { hi = max(e.salary, e.id); }
            }
            return hi;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(10, 1);
    let pg = Extractor::with_options(
        db.catalog(),
        ExtractorOptions {
            dialect: Dialect::Postgres,
            ..Default::default()
        },
    )
    .extract_function(&program, "best");
    let ms = Extractor::with_options(
        db.catalog(),
        ExtractorOptions {
            dialect: Dialect::SqlServer,
            ..Default::default()
        },
    )
    .extract_function(&program, "best");
    let pg_sql = pg.vars[0].sql.join(" ");
    let ms_sql = ms.vars[0].sql.join(" ");
    assert!(pg_sql.contains("GREATEST"), "{pg_sql}");
    assert!(ms_sql.contains("CASE WHEN"), "{ms_sql}");
    assert!(!ms_sql.contains("GREATEST"), "{ms_sql}");
}

#[test]
fn multiple_loops_multiple_extractions() {
    let src = r#"
        fn stats() {
            rows = executeQuery("SELECT * FROM emp");
            total = 0;
            for (e in rows) { total = total + e.salary; }
            rows2 = executeQuery("SELECT * FROM emp WHERE dept = 'eng'");
            n = 0;
            for (e in rows2) { n = n + 1; }
            return pair(total, n);
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(80, 21);
    let report = Extractor::new(db.catalog()).extract_function(&program, "stats");
    assert_eq!(report.loops_rewritten, 2, "{:#?}", report.vars);

    let mut orig = Interp::new(&program, Connection::new(db.clone()));
    let v1 = orig.call("stats", vec![]).unwrap();
    let mut new = Interp::new(&report.program, Connection::new(db));
    let v2 = new.call("stats", vec![]).unwrap();
    assert!(interp::value::loose_eq(&v1, &v2));
    assert_eq!(new.conn.stats.rows, 2, "two scalar results only");
}

#[test]
fn extract_program_handles_all_functions() {
    let src = r#"
        fn a() {
            q = executeQuery("SELECT * FROM emp");
            s = 0;
            for (e in q) { s = s + e.salary; }
            return s;
        }
        fn b() {
            q = executeQuery("SELECT * FROM emp");
            c = 0;
            for (e in q) { c = c + 1; }
            return c;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(30, 2);
    let report = Extractor::new(db.catalog()).extract_program(&program);
    assert_eq!(report.loops_rewritten, 2);
}

/// A function's extraction must not depend on which functions come before
/// it: `extract_program` reports, for every function, exactly what
/// `extract_function` reports for it alone, with statement ids in the
/// input's numbering and callees analysed as written.
#[test]
fn extraction_does_not_depend_on_function_order() {
    let three = r#"
        fn a() {
            q = executeQuery("SELECT * FROM emp");
            s = 0;
            for (e in q) { s = s + e.salary; }
            return s;
        }
        fn b() {
            q = executeQuery("SELECT * FROM emp");
            n = 0;
            for (e in q) { n = n + 1; }
            return n;
        }
        fn c() {
            base = a();
            q = executeQuery("SELECT * FROM emp");
            s = 0;
            for (e in q) { s = s + e.salary; }
            return s + base;
        }
    "#;
    let corpus = workloads::sweep::corpus();
    let catalog = corpus[0].catalog.clone();
    let mut sources = vec![("three".to_string(), three.to_string())];
    sources.extend(corpus.into_iter().map(|u| (u.name, u.source)));
    let row = |v: &eqsql_core::VarExtraction| {
        (
            v.function.clone(),
            v.var.clone(),
            v.loop_stmt,
            v.sql.clone(),
            v.outcome.clone(),
        )
    };
    let extractor = Extractor::new(catalog);
    for (name, src) in &sources {
        let program = imp::parse_and_normalize(src).unwrap();
        let whole = extractor.extract_program(&program);
        let mut vars = Vec::new();
        let mut diagnostics = Vec::new();
        for f in &program.functions {
            let one = extractor.extract_function(&program, f.name.as_str());
            vars.extend(one.vars.iter().map(row));
            diagnostics.extend(one.diagnostics);
        }
        analysis::diag::dedup_sort(&mut diagnostics);
        assert_eq!(
            whole.vars.iter().map(row).collect::<Vec<_>>(),
            vars,
            "{name}"
        );
        assert_eq!(whole.diagnostics, diagnostics, "{name}");
        if name == "three" {
            assert_eq!(whole.loops_rewritten, 3);
        }
    }
}

#[test]
fn update_loop_partial_extraction_reports_sql_but_keeps_loop() {
    // Sec. 7.1: "our tool partially optimizes such code fragments by
    // keeping update statements intact, and extracting equivalent SQL for
    // other variables".
    let src = r#"
        fn sweep() {
            rows = executeQuery("SELECT * FROM emp");
            n = 0;
            for (e in rows) {
                executeUpdate("DELETE FROM emp WHERE id = -1");
                n = n + 1;
            }
            return n;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(10, 4);
    let report = Extractor::new(db.catalog()).extract_function(&program, "sweep");
    assert_eq!(report.loops_rewritten, 0);
    let v = &report.vars[0];
    assert!(
        matches!(v.outcome, ExtractionOutcome::ExtractedNotRewritten(_)),
        "{:?}",
        v.outcome
    );
    assert!(!v.sql.is_empty(), "SQL still reported for n");
    let printed = imp::pretty_print(&report.program);
    assert!(printed.contains("executeUpdate"), "{printed}");
}

#[test]
fn custom_comparator_fails_gracefully() {
    // Sec. 5.4: custom comparators / unknown methods cannot be represented
    // in F-IR; extraction fails for that variable only.
    let src = r#"
        fn weird() {
            rows = executeQuery("SELECT * FROM emp");
            out = list();
            for (e in rows) {
                out.add(e.name.customCompare(e.dept));
            }
            return out;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(10, 5);
    let report = Extractor::new(db.catalog()).extract_function(&program, "weird");
    assert_eq!(report.loops_rewritten, 0);
    assert!(matches!(
        report.vars[0].outcome,
        ExtractionOutcome::FoldFailed(_)
    ));
}

#[test]
fn regions_validate_against_cfg_on_realistic_code() {
    // The loop regions the D-IR walk records must be the CFG's loop headers,
    // and each header must dominate its body.
    let src = r#"
        fn report(minBudget) {
            projects = executeQuery("SELECT * FROM project");
            names = list();
            total = 0;
            for (p in projects) {
                if (p.budget > minBudget) {
                    names.add(p.name);
                    total = total + p.budget;
                } else {
                    if (p.isfinished == true) {
                        total = total + 1;
                    }
                }
            }
            for (n in names) {
                print(n);
            }
            return total;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let catalog = gen_wilos(10, 5, 50, 1).catalog();
    // Blocks reachable from `from` without passing through `avoid`.
    let reach_avoiding = |cfg: &Cfg, from: BlockId, avoid: BlockId| {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(b) = stack.pop() {
            if b != avoid && seen.insert(b) {
                stack.extend(cfg.successors(b));
            }
        }
        seen
    };
    let du_ctx = DefUseCtx::of_program(&program);
    for f in &program.functions {
        let cfg = Cfg::build(f);
        let dir = DirBuilder::new(&program, &catalog, &du_ctx).build(f);
        assert_eq!(dir.loops.len(), 2);
        for l in &dir.loops {
            let (h, body) = cfg
                .blocks
                .iter()
                .enumerate()
                .find_map(|(h, b)| match &b.terminator {
                    Some(Terminator::ForDispatch { body, .. }) if b.stmts.contains(&l.stmt) => {
                        Some((BlockId(h), *body))
                    }
                    _ => None,
                })
                .expect("every recorded loop is a CFG loop header");
            let outside = reach_avoiding(&cfg, cfg.start, h);
            let inside = reach_avoiding(&cfg, body, h);
            assert!(
                inside.is_disjoint(&outside),
                "loop header {h:?} must dominate its body"
            );
            assert!(reach_avoiding(&cfg, cfg.start, body).contains(&h));
        }
    }
}

#[test]
fn unordered_mode_enables_unkeyed_join() {
    // T4.1 requires a key on the outer query; in unordered (keyword-search)
    // mode T4.3 applies without one.
    let src = r#"
        fn pairs() {
            lhs = executeQuery("SELECT dept FROM emp");
            out = list();
            for (l in lhs) {
                rhs = executeQuery("SELECT name FROM emp WHERE dept = ?", l.dept);
                for (r in rhs) { out.add(r.name); }
            }
            return out;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(40, 6);
    // Ordered mode: projection drops the key → T4.1 refuses.
    let ordered = Extractor::new(db.catalog()).extract_function(&program, "pairs");
    assert_eq!(ordered.loops_rewritten, 0, "{:#?}", ordered.vars);
    // Unordered mode extracts a multiset join.
    let unordered = Extractor::with_options(
        db.catalog(),
        ExtractorOptions {
            ordered: false,
            ..Default::default()
        },
    )
    .extract_function(&program, "pairs");
    assert_eq!(unordered.loops_rewritten, 1, "{:#?}", unordered.vars);
    assert!(unordered
        .vars
        .iter()
        .any(|v| v.sql.iter().any(|s| s.contains("JOIN"))));
}

#[test]
fn rewritten_program_round_trips_through_parser() {
    // The pretty-printed rewritten program must be valid imp source.
    let src = r#"
        fn unfinished() {
            all = executeQuery("SELECT * FROM project");
            out = list();
            for (p in all) {
                if (p.isfinished == false) { out.add(p.name); }
            }
            return out;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_wilos(20, 10, 20, 8);
    let report = Extractor::new(db.catalog()).extract_function(&program, "unfinished");
    let printed = imp::pretty_print(&report.program);
    let reparsed = imp::parse_and_normalize(&printed)
        .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
    let mut i1 = Interp::new(&report.program, Connection::new(db.clone()));
    let v1 = i1.call("unfinished", vec![]).unwrap();
    let mut i2 = Interp::new(&reparsed, Connection::new(db));
    let v2 = i2.call("unfinished", vec![]).unwrap();
    assert!(interp::value::loose_eq(&v1, &v2));
}

#[test]
fn report_records_timing_and_flags() {
    let src = r#"
        fn f() {
            q = executeQuery("SELECT * FROM emp");
            s = 0;
            for (e in q) { s = s + e.salary; }
            return s;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(5, 1);
    let report = Extractor::new(db.catalog()).extract_function(&program, "f");
    assert!(report.changed());
    assert!(report.any_sql());
    assert!(report.elapsed.as_micros() > 0);
    let _ = RtValue::int(1);
}

#[test]
fn figure2_verbatim_with_getters() {
    // The paper's Figure 2 as printed — getter calls and all. The getter
    // normalization (imp::desugar::normalize_getters) models the paper's
    // "getter and setter functions for object attributes" operators.
    let src = r#"
        fn findMaxScore() {
            boards = executeQuery("from Board as b where b.rnd_id = 1");
            scoreMax = 0;
            for (t in boards) {
                p1 = t.getP1();
                p2 = t.getP2();
                p3 = t.getP3();
                p4 = t.getP4();
                score = max(p1, p2);
                score = max(score, p3);
                score = max(score, p4);
                if (score > scoreMax)
                    scoreMax = score;
            }
            return scoreMax;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = dbms::gen::gen_board(300, 4, 21);
    let report = Extractor::new(db.catalog()).extract_function(&program, "findMaxScore");
    assert_eq!(report.loops_rewritten, 1, "{:#?}", report.vars);
    let sql = &report.vars[0].sql[0];
    // Figure 3(d): SELECT max(GREATEST(p1,p2,p3,p4)) FROM board WHERE rnd_id=1
    assert!(sql.contains("MAX(GREATEST("), "{sql}");
    let mut orig = Interp::new(&program, Connection::new(db.clone()));
    let v1 = orig.call("findMaxScore", vec![]).unwrap();
    let mut new = Interp::new(&report.program, Connection::new(db));
    let v2 = new.call("findMaxScore", vec![]).unwrap();
    assert_eq!(format!("{v1}"), format!("{v2}"));
}

#[test]
fn all_dialects_round_trip_at_runtime() {
    // Every dialect's rendered SQL must re-parse and run in our engine —
    // including SQL Server's CASE WHEN spelling of GREATEST and its
    // OUTER APPLY syntax.
    let src = r#"
        fn report() {
            rows = executeQuery("SELECT * FROM emp");
            out = list();
            for (e in rows) {
                top = executeScalar("SELECT salary FROM emp WHERE id = ?", e.id);
                out.add(pair(e.name, max(top, 0)));
            }
            return out;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(25, 8);
    let mut results = Vec::new();
    for dialect in [
        Dialect::Postgres,
        Dialect::Mysql,
        Dialect::SqlServer,
        Dialect::Ansi,
    ] {
        let report = Extractor::with_options(
            db.catalog(),
            ExtractorOptions {
                dialect,
                ..Default::default()
            },
        )
        .extract_function(&program, "report");
        assert_eq!(report.loops_rewritten, 1, "{dialect:?}: {:#?}", report.vars);
        let mut i = Interp::new(&report.program, Connection::new(db.clone()));
        let v = i.call("report", vec![]).unwrap_or_else(|e| {
            panic!(
                "{dialect:?} runtime failure: {e}\n{}",
                imp::pretty_print(&report.program)
            )
        });
        results.push(format!("{v}"));
    }
    // All four dialects compute the same thing.
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:#?}");
}

#[test]
fn cost_based_extraction_with_live_stats() {
    let src = r#"
        fn total() {
            rows = executeQuery("SELECT * FROM emp");
            s = 0;
            for (e in rows) { s = s + e.salary; }
            return s;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(5_000, 12);
    let stats = eqsql_core::DbStats::from_database(&db);
    let opts = ExtractorOptions {
        cost_based: Some(stats),
        ..Default::default()
    };
    let report = Extractor::with_options(db.catalog(), opts).extract_function(&program, "total");
    assert_eq!(report.loops_rewritten, 1, "{:#?}", report.vars);
}

#[test]
fn report_carries_fir_and_rule_trace() {
    let src = r#"
        fn names(cut) {
            rows = executeQuery("SELECT * FROM emp");
            out = list();
            for (e in rows) {
                if (e.salary > cut) { out.add(e.name); }
            }
            return out;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(5, 1);
    let report = Extractor::new(db.catalog()).extract_function(&program, "names");
    let v = &report.vars[0];
    let fir = v.fir.clone().expect("F-IR recorded");
    assert!(fir.starts_with("fold["), "{fir}");
    assert!(fir.contains("⟨out⟩"), "{fir}");
    assert!(
        v.rule_trace.contains(&"T2".to_string()),
        "{:?}",
        v.rule_trace
    );
    assert!(
        v.rule_trace.iter().any(|r| r.starts_with("T1")),
        "{:?}",
        v.rule_trace
    );
}

#[test]
fn prints_across_nesting_levels_fail_gracefully() {
    // Appendix B: combining sub-queries that return multiple rows per outer
    // row "can result in cross products … Implementation of these
    // techniques is part of future work" — the paper's prototype (and ours)
    // declines; the program must be left intact, not corrupted.
    let src = r#"
        fn multiLevel() {
            os = executeQuery("SELECT * FROM emp");
            for (o in os) {
                print(o.name);
                inner = executeQuery("SELECT * FROM emp WHERE dept = ?", o.dept);
                for (i in inner) {
                    print(i.id);
                }
            }
            return 0;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(12, 2);
    let opts = ExtractorOptions {
        rewrite_prints: true,
        ordered: true,
        ..Default::default()
    };
    let report =
        Extractor::with_options(db.catalog(), opts).extract_function(&program, "multiLevel");
    assert_eq!(report.loops_rewritten, 0, "{:#?}", report.vars);
    // Original behaviour intact.
    let mut orig = Interp::new(&program, Connection::new(db.clone()));
    orig.call("multiLevel", vec![]).unwrap();
    let mut kept = Interp::new(&report.program, Connection::new(db));
    kept.call("multiLevel", vec![]).unwrap();
    assert_eq!(orig.output, kept.output);
}

#[test]
fn nested_function_exit_blocks_rewrite() {
    // Regression (found in review): a `return` inside an *inner* loop exits
    // the whole function; the outer loop must never be replaced.
    let src = r#"
        fn f() {
            rows = executeQuery("SELECT * FROM emp");
            s = 0;
            for (o in rows) {
                s = s + o.salary;
                inner = executeQuery("SELECT * FROM emp WHERE id = ?", o.id);
                for (i in inner) {
                    if (i.salary > 150000) { return -1; }
                }
            }
            return s;
        }
    "#;
    let program = imp::parse_and_normalize(src).unwrap();
    let db = gen_emp(50, 3);
    let report = Extractor::new(db.catalog()).extract_function(&program, "f");
    assert_eq!(report.loops_rewritten, 0, "{:#?}", report.vars);
    let mut orig = Interp::new(&program, Connection::new(db.clone()));
    let v1 = orig.call("f", vec![]).unwrap();
    let mut kept = Interp::new(&report.program, Connection::new(db));
    let v2 = kept.call("f", vec![]).unwrap();
    assert_eq!(v1, v2);
}

#[test]
fn print_flush_survives_early_return() {
    // Regression (found in review): the print-to-append preprocessing must
    // flush before *every* return, or early exits lose output.
    let src = r#"
        fn f(x) {
            print("start");
            if (x > 0) { return 1; }
            print("end");
            return 2;
        }
    "#;
    let mut program = imp::parse_and_normalize(src).unwrap();
    let f = program.function_mut("f").unwrap();
    assert!(imp::desugar::rewrite_prints(f));
    program.renumber();
    let mut i = Interp::new(&program, Connection::new(dbms::Database::new()));
    let v = i.call("f", vec![RtValue::int(5)]).unwrap();
    assert_eq!(v, RtValue::int(1));
    assert_eq!(
        i.output,
        vec!["start"],
        "early-return path must still flush"
    );
    let mut j = Interp::new(&program, Connection::new(dbms::Database::new()));
    j.call("f", vec![RtValue::int(-1)]).unwrap();
    assert_eq!(j.output, vec!["start", "end"]);
}

#[test]
fn deeply_nested_query_string_is_a_diagnostic() {
    // 50,000 nested parentheses in a query string once overflowed the SQL
    // parser's stack and aborted the process. Past `MAX_DEPTH` the string
    // is unparsable SQL like any other: the loop stays, with the same
    // diagnostics as a query string with a syntax error.
    let program = |condition: &str| {
        let src = format!(
            r#"
            fn total() {{
                s = 0;
                for (e in executeQuery("SELECT * FROM emp WHERE {condition}")) {{
                    s = s + e.salary;
                }}
                return s;
            }}
        "#
        );
        imp::parse_and_normalize(&src).unwrap()
    };
    let diagnostics = |condition: &str| {
        let db = gen_emp(10, 5);
        let report = Extractor::new(db.catalog()).extract_program(&program(condition));
        assert_eq!(report.loops_rewritten, 0);
        let codes: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.message.clone()))
            .collect();
        codes
    };
    let depth = 50_000;
    let nested = format!("{}salary > 0{}", "(".repeat(depth), ")".repeat(depth));
    let found = diagnostics(&nested);
    assert!(!found.is_empty());
    assert_eq!(found, diagnostics("(salary > 0"));
}

#[test]
fn programs_at_the_imp_nesting_cap_extract_and_lint_on_a_2_mib_stack() {
    // The function's own block is one level, so `n` more reach the cap.
    let n = imp::parser::MAX_DEPTH - 1;
    let expr = |open: &str, close: &str| {
        format!(
            "fn g(v) {{ return v + 1; }} fn f(x) {{ y = {}x{}; return y; }}",
            open.repeat(n),
            close.repeat(n)
        )
    };
    let stmts = |open: &str, body: &str, close: &str, levels: usize| {
        format!(
            r#"fn f(x) {{
                rows = executeQuery("SELECT * FROM emp");
                s = 0;
                {}{body}{}
                return s;
            }}"#,
            open.repeat(n / levels),
            close.repeat(n / levels)
        )
    };
    let programs = [
        expr("(", ")"),
        expr("-", ""),
        expr("!", ""),
        expr("abs(", ")"),
        expr("g(", ")"),
        expr("x ? ", " : x"),
        stmts("if (x > 0) {", "s = s + x;", "}", 1),
        stmts("while (x > 0) ", "s = s + x;", "", 1),
        stmts("for (e in rows) ", "s = s + e.salary;", "", 1),
        stmts(
            "if (x > 0) { for (e in rows) {",
            "s = s + e.salary;",
            "} }",
            2,
        ),
    ];
    let catalog = gen_emp(10, 5).catalog();
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            for src in &programs {
                let program = imp::parse_and_normalize(src).expect("a program at the cap parses");
                let report = Extractor::new(catalog.clone()).extract_program(&program);
                assert!(!report.program.functions.is_empty());
                eqsql_core::lint_program(&program, &catalog, &ExtractorOptions::default());
            }
        })
        .unwrap()
        .join()
        .expect("no stack overflow at the nesting cap");
}
