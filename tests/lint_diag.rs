//! Golden-file tests for the machine-readable diagnostics (`render_json`).
//!
//! One program per hard-failure code E001–E006. Each case runs the full
//! lint pipeline (advisory passes + dry-run extraction) and compares the
//! JSON rendering byte-for-byte against `tests/golden/lint_*.json`. The
//! JSON layout is a stability promise (DESIGN.md, "Diagnostics"); run with
//! `BLESS=1` to regenerate the goldens after an intentional change.

use eqsql::prelude::*;

fn catalog() -> Catalog {
    Catalog::new().with(
        TableSchema::new(
            "emp",
            &[
                ("id", SqlType::Int),
                ("name", SqlType::Text),
                ("salary", SqlType::Int),
            ],
        )
        .with_key(&["id"]),
    )
}

fn check(name: &str, code: Code, src: &str) {
    check_codes(name, &[code], &[], src);
}

/// Like `check`, but asserts several codes at once and — for the lint pairs
/// that have a designed-silent variant (parameterized query vs. E009, hoisted
/// query vs. W008) — asserts that the silent codes stay absent.
fn check_codes(name: &str, present: &[Code], absent: &[Code], src: &str) {
    let program = imp::parse_and_normalize(src).unwrap();
    let diags = lint_program(&program, &catalog(), &ExtractorOptions::default());
    for code in present {
        let hit = diags
            .iter()
            .find(|d| d.code == *code)
            .unwrap_or_else(|| panic!("expected {code:?} in {name}: {diags:#?}"));
        assert!(
            hit.primary.span.end > hit.primary.span.start,
            "{code:?} in {name} must carry a source span: {hit:?}"
        );
    }
    for code in absent {
        assert!(
            !diags.iter().any(|d| d.code == *code),
            "{code:?} must NOT fire in {name}: {diags:#?}"
        );
    }
    let json = render_json(&diags, src);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("lint_{name}.json"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} (run with BLESS=1): {e}", path.display()));
    assert_eq!(
        json.trim(),
        want.trim(),
        "golden mismatch for {name}; re-run with BLESS=1 if the change is intended"
    );
}

#[test]
fn e001_no_accumulation() {
    // P1: `v` is overwritten each iteration — no dependence cycle.
    check(
        "e001_no_accumulation",
        Code::NoAccumulation,
        r#"fn lastSalary() {
    rows = executeQuery("SELECT * FROM emp");
    v = 0;
    for (t in rows) {
        v = t.salary;
    }
    return v;
}"#,
    );
}

#[test]
fn e002_extra_loop_dependence() {
    // P2: `prev` carries a value between iterations into `trend`'s update.
    check(
        "e002_extra_loop_dependence",
        Code::ExtraLoopDependence,
        r#"fn trend() {
    rows = executeQuery("SELECT * FROM emp");
    trend = 0;
    prev = 0;
    for (t in rows) {
        trend = trend + (t.salary - prev);
        prev = t.salary;
    }
    return trend + prev;
}"#,
    );
}

#[test]
fn e003_external_write_in_slice() {
    // P3: the update's result feeds the accumulator, so the external write
    // sits inside `s`'s slice.
    check(
        "e003_external_write_in_slice",
        Code::ExternalWriteInSlice,
        r#"fn purgeAndCount() {
    rows = executeQuery("SELECT * FROM emp");
    s = 0;
    for (t in rows) {
        n = executeUpdate("DELETE FROM emp WHERE id = ?", t.id);
        s = s + n;
    }
    return s;
}"#,
    );
}

#[test]
fn e004_abrupt_loop_exit() {
    check(
        "e004_abrupt_loop_exit",
        Code::AbruptLoopExit,
        r#"fn firstBig() {
    rows = executeQuery("SELECT * FROM emp");
    v = 0;
    for (t in rows) {
        v = v + t.salary;
        if (v > 100) break;
    }
    return v;
}"#,
    );
}

#[test]
fn e005_non_algebraic() {
    // The cursor query names a table missing from the catalog, so the query
    // node is opaque and poisons the body expression.
    check(
        "e005_non_algebraic",
        Code::NonAlgebraic,
        r#"fn ghost() {
    rows = executeQuery("SELECT * FROM phantom");
    s = 0;
    for (t in rows) {
        s = s + t.salary;
    }
    return s;
}"#,
    );
}

#[test]
fn e009_sql_injection_taint() {
    // The query string is built by concatenating the function parameter, so
    // the taint analysis flags the `executeQuery` argument.
    check(
        "e009_sql_injection_taint",
        Code::SqlInjectionTaint,
        r#"fn byName(name) {
    q = "SELECT * FROM emp WHERE name = '" + name + "'";
    rows = executeQuery(q);
    s = 0;
    for (t in rows) {
        s = s + t.salary;
    }
    return s;
}"#,
    );
}

#[test]
fn e009_parameterized_is_clean() {
    // The safe rewrite of the case above: a constant query with a `?`
    // placeholder. The parameter flows through `executeQuery`'s argument
    // list, never into the query text, so E009 stays silent and the loop
    // extracts cleanly (no W007 either).
    check_codes(
        "e009_parameterized_clean",
        &[],
        &[Code::SqlInjectionTaint, Code::LoopNotExtracted],
        r#"fn byName(name) {
    rows = executeQuery("SELECT * FROM emp WHERE name = ?", name);
    s = 0;
    for (t in rows) {
        s = s + t.salary;
    }
    return s;
}"#,
    );
}

#[test]
fn w008_hoistable_query() {
    // The MIN(salary) probe mentions no loop-varying variable, so it returns
    // the same row every iteration — hoistable above the loop.
    check(
        "w008_hoistable_query",
        Code::HoistableQuery,
        r#"fn aboveFloor() {
    rows = executeQuery("SELECT * FROM emp");
    n = 0;
    for (t in rows) {
        floor = executeScalar("SELECT MIN(salary) FROM emp");
        if (t.salary > floor) {
            n = n + 1;
        }
    }
    return n;
}"#,
    );
}

#[test]
fn w009_n_plus_one_query() {
    // The inner query is keyed only by the cursor row — the classic N+1
    // shape a join would fetch in one round trip.
    check(
        "w009_n_plus_one_query",
        Code::NPlusOneQuery,
        r#"fn nameList() {
    rows = executeQuery("SELECT * FROM emp");
    s = 0;
    for (t in rows) {
        twin = executeScalar("SELECT COUNT(1) FROM emp WHERE salary = ?", t.salary);
        s = s + twin;
    }
    return s;
}"#,
    );
}

#[test]
fn w008_w009_silent_when_query_hoisted() {
    // Same probe as `w008_hoistable_query` but already hoisted above the
    // loop: no query executes per iteration, so neither loop-query lint
    // fires.
    check_codes(
        "w008_hoisted_clean",
        &[],
        &[Code::HoistableQuery, Code::NPlusOneQuery],
        r#"fn aboveFloor() {
    floor = executeScalar("SELECT MIN(salary) FROM emp");
    rows = executeQuery("SELECT * FROM emp");
    n = 0;
    for (t in rows) {
        if (t.salary > floor) {
            n = n + 1;
        }
    }
    return n;
}"#,
    );
}

#[test]
fn e006_no_rule_applies() {
    // A product accumulator folds fine but no transformation rule matches
    // (SQL has no product aggregate).
    check(
        "e006_no_rule_applies",
        Code::NoRuleApplies,
        r#"fn product() {
    rows = executeQuery("SELECT * FROM emp");
    p = 1;
    for (t in rows) {
        p = p * t.salary;
    }
    return p;
}"#,
    );
}

/// The lint's diagnostics for `src`, without a golden file.
fn lint(src: &str) -> Vec<Diagnostic> {
    let program = imp::parse_and_normalize(src).unwrap();
    lint_program(&program, &catalog(), &ExtractorOptions::default())
}

#[test]
fn w004_silent_for_a_db_reading_helper() {
    // The helper only reads the database, so by its effect summary the
    // loop writes nothing external: the ddg pass agrees with the extractor,
    // which keeps no effect and extracts the count.
    let diags = lint(
        r#"fn minSalary() {
    return executeScalar("SELECT MIN(salary) FROM emp");
}

fn aboveMin() {
    rows = executeQuery("SELECT * FROM emp");
    n = 0;
    for (e in rows) {
        if (e.salary > minSalary()) {
            n = n + 1;
        }
    }
    return n;
}"#,
    );
    assert!(
        diags.iter().any(|d| d.code == Code::ImpureHelper),
        "the db read still shows as W003: {diags:#?}"
    );
    assert!(
        !diags.iter().any(|d| d.code == Code::LoopSideEffects),
        "a db-reading helper is not an external write: {diags:#?}"
    );
}

#[test]
fn w002_reports_a_dead_accumulator_of_a_loop_under_if() {
    // The loop sits under an `if`, not at the top level of the body; it is
    // still an extraction candidate, so its dead accumulator is reported.
    let diags = lint(
        r#"fn total(c) {
    rows = executeQuery("SELECT * FROM emp");
    s = 0;
    if (c > 0) {
        for (e in rows) {
            s = s + e.salary;
        }
    }
    return 0;
}"#,
    );
    let hit = diags
        .iter()
        .find(|d| d.code == Code::DeadStatement && d.pass == "liveness")
        .unwrap_or_else(|| panic!("expected W002 from the liveness pass: {diags:#?}"));
    assert_eq!(hit.var.as_deref(), Some("s"));
}
