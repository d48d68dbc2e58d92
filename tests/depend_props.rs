//! Property tests for the loop-carried dependence analysis
//! (`analysis::depend`) that certifies batchable write loops.
//!
//! The verdicts rest on one forward walk over the body whose facts are
//! joined after each `if`. Five properties pin the walk down:
//!
//! 1. **Prefix monotonicity.** Every blocking feature — early exits,
//!    opaque effects, carried scalars, write conflicts — is monotone in
//!    the statement multiset: appending statements to a body can only add
//!    dependences, never remove them. So along any prefix chain of a
//!    body, once a prefix is `Blocked` the full body is `Blocked`, and a
//!    `Batchable` body has no `Blocked` prefix.
//! 2. **Key-knowledge monotonicity.** Learning the driving table's unique
//!    key (`key: None → Some(k)`) only enables more batching, never less.
//! 3. **Branch-order independence.** The join after an `if` is commutative, so
//!    swapping an `if`'s branches while negating its condition leaves the
//!    blocking dependence *kind* unchanged (spans and scan order differ,
//!    the abstract summary does not).
//! 4. **Schedule independence.** The verdict is a function of the AST
//!    alone: re-analyzing, re-parsing, and renumbering statement ids all
//!    yield identical results.
//! 5. **Key rewrites block.** A keyed `UPDATE` that also writes its
//!    `WHERE` column moves rows under a later iteration's key; adding one
//!    anywhere in a body never leaves the loop `Batchable`.

use analysis::depend::{analyze_body, DependenceKind, DrivingInfo, LoopDependence, Verdict};
use imp::ast::StmtKind;
use intern::Symbol;
use proptest::prelude::*;

// --- Random write-loop bodies --------------------------------------------

/// A body statement, rendered to concrete syntax below. The shapes cover
/// every verdict class: batchable keyed writes, carried scalars, table
/// read/write overlaps, unkeyed and mis-keyed writes, prints, early
/// exits, and guarded combinations of all of the above.
#[derive(Clone, Debug)]
enum WStmt {
    /// `dN = <expr>;` — a fresh (or re-used) scalar assignment.
    Assign(u8, u8),
    /// `cN = cN + e.salary;` — a loop-carried accumulator.
    Acc(u8),
    /// `executeUpdate("UPDATE emp SET salary = ? WHERE id = ?", <expr>, e.id);`
    KeyedUpdate(u8),
    /// `executeUpdate("UPDATE emp SET id = ? WHERE id = ?", e.id + 1, e.id);`
    /// — rewrites its own key column (with `salary` too when `true`).
    KeyRewrite(bool),
    /// `executeUpdate("UPDATE emp SET salary = ? WHERE dept = ?", …)` —
    /// keyed by a non-unique cursor field.
    DeptUpdate,
    /// `executeUpdate("INSERT INTO payout (emp_id, amount) VALUES (?, ?)", …)`
    InsertPayout(u8),
    /// `executeUpdate("INSERT INTO emp (id, salary) VALUES (?, ?)", …)` —
    /// insert into the driving table.
    InsertDriving,
    /// `executeUpdate("DELETE FROM bonus WHERE emp_id = ?", e.id);`
    DeleteBonus,
    /// `mN = executeScalar("SELECT MAX(salary) AS m FROM <t>");`
    ReadQuery(u8, bool),
    /// `print(e.id);`
    Print,
    /// `break;`
    Break,
    /// `if (<cond>) { … } else { … }`
    If(u8, Vec<WStmt>, Vec<WStmt>),
}

/// Value expressions over the cursor `e` and the scalar pool.
fn expr(e: u8) -> String {
    match e % 5 {
        0 => "e.salary + 1".to_string(),
        1 => "e.salary * 2".to_string(),
        2 => format!("d{}", e % 3),
        3 => format!("c{}", e % 3),
        _ => "7".to_string(),
    }
}

fn cond(c: u8) -> &'static str {
    match c % 3 {
        0 => "e.salary < 100",
        1 => "e.dept == \"eng\"",
        _ => "e.salary > 0",
    }
}

fn render(stmts: &[WStmt], out: &mut String, indent: usize) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            WStmt::Assign(v, e) => out.push_str(&format!("{pad}d{} = {};\n", v % 3, expr(*e))),
            WStmt::Acc(v) => {
                let v = v % 3;
                out.push_str(&format!("{pad}c{v} = c{v} + e.salary;\n"));
            }
            WStmt::KeyedUpdate(e) => out.push_str(&format!(
                "{pad}executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", {}, e.id);\n",
                expr(*e)
            )),
            WStmt::KeyRewrite(false) => out.push_str(&format!(
                "{pad}executeUpdate(\"UPDATE emp SET id = ? WHERE id = ?\", e.id + 1, e.id);\n"
            )),
            WStmt::KeyRewrite(true) => out.push_str(&format!(
                "{pad}executeUpdate(\"UPDATE emp SET salary = ?, id = ? WHERE id = ?\", \
                 e.salary, e.id + 1, e.id);\n"
            )),
            WStmt::DeptUpdate => out.push_str(&format!(
                "{pad}executeUpdate(\"UPDATE emp SET salary = ? WHERE dept = ?\", \
                 e.salary, e.dept);\n"
            )),
            WStmt::InsertPayout(e) => out.push_str(&format!(
                "{pad}executeUpdate(\"INSERT INTO payout (emp_id, amount) VALUES (?, ?)\", \
                 e.id, {});\n",
                expr(*e)
            )),
            WStmt::InsertDriving => out.push_str(&format!(
                "{pad}executeUpdate(\"INSERT INTO emp (id, salary) VALUES (?, ?)\", \
                 e.id + 1000, e.salary);\n"
            )),
            WStmt::DeleteBonus => out.push_str(&format!(
                "{pad}executeUpdate(\"DELETE FROM bonus WHERE emp_id = ?\", e.id);\n"
            )),
            WStmt::ReadQuery(v, driving) => {
                let t = if *driving { "emp" } else { "bonus" };
                out.push_str(&format!(
                    "{pad}m{} = executeScalar(\"SELECT MAX(salary) AS m FROM {t}\");\n",
                    v % 2
                ));
            }
            WStmt::Print => out.push_str(&format!("{pad}print(e.id);\n")),
            WStmt::Break => out.push_str(&format!("{pad}break;\n")),
            WStmt::If(c, t, e) => {
                out.push_str(&format!("{pad}if ({}) {{\n", cond(*c)));
                render(t, out, indent + 1);
                out.push_str(&format!("{pad}}} else {{\n"));
                render(e, out, indent + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

fn arb_body() -> impl Strategy<Value = Vec<WStmt>> {
    let leaf = prop_oneof![
        (0u8..3, 0u8..5).prop_map(|(v, e)| WStmt::Assign(v, e)),
        (0u8..3).prop_map(WStmt::Acc),
        (0u8..5).prop_map(WStmt::KeyedUpdate),
        (0u8..5).prop_map(WStmt::KeyedUpdate),
        any::<bool>().prop_map(WStmt::KeyRewrite),
        Just(WStmt::DeptUpdate),
        (0u8..5).prop_map(WStmt::InsertPayout),
        Just(WStmt::InsertDriving),
        Just(WStmt::DeleteBonus),
        (0u8..2, any::<bool>()).prop_map(|(v, d)| WStmt::ReadQuery(v, d)),
        Just(WStmt::Print),
        Just(WStmt::Break),
    ];
    let stmt = leaf.prop_recursive(2, 16, 3, |inner| {
        let block = proptest::collection::vec(inner, 1..3);
        (0u8..3, block.clone(), block).prop_map(|(c, t, e)| WStmt::If(c, t, e))
    });
    proptest::collection::vec(stmt, 1..6)
}

// --- Harness -------------------------------------------------------------

/// Wrap a rendered body in the canonical driving loop and source prologue.
fn program_src(body: &[WStmt]) -> String {
    let mut b = String::new();
    render(body, &mut b, 2);
    format!(
        "fn main() {{\n    q = executeQuery(\"SELECT * FROM emp\");\n    \
         for (e in q) {{\n{b}    }}\n    return 0;\n}}\n"
    )
}

/// Analyze the single loop of `src`, driving over `emp` keyed by `key`.
fn analyze_src(src: &str, key: Option<&str>) -> LoopDependence {
    let p = imp::parser::parse_program(src)
        .unwrap_or_else(|e| panic!("generated source invalid: {e}\n{src}"));
    analyze_in(&p, key)
}

fn analyze_in(p: &imp::ast::Program, key: Option<&str>) -> LoopDependence {
    let f = &p.functions[0];
    for s in &f.body.stmts {
        if let StmtKind::ForEach { var, body, .. } = &s.kind {
            return analyze_body(
                body,
                &DrivingInfo {
                    cursor: *var,
                    table: "emp",
                    key,
                    loop_span: s.span,
                },
            );
        }
    }
    panic!("no loop in generated program");
}

fn blocked_kind(d: &LoopDependence) -> Option<DependenceKind> {
    match &d.verdict {
        Verdict::Blocked(b) => Some(b.kind),
        _ => None,
    }
}

// --- The properties ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Appending statements only adds dependences: along the prefix chain
    /// of any body, `Blocked` is absorbing and `Batchable` bodies have no
    /// `Blocked` prefix.
    #[test]
    fn verdicts_are_monotone_along_prefixes(body in arb_body()) {
        let full = analyze_src(&program_src(&body), Some("id"));
        let mut seen_blocked = false;
        for n in 1..=body.len() {
            let d = analyze_src(&program_src(&body[..n]), Some("id"));
            let blocked = matches!(d.verdict, Verdict::Blocked(_));
            if seen_blocked {
                prop_assert!(
                    blocked,
                    "prefix {} of {} lost a blocking dependence\n{}",
                    n, body.len(), program_src(&body)
                );
            }
            seen_blocked = seen_blocked || blocked;
            if matches!(full.verdict, Verdict::Batchable) {
                prop_assert!(
                    !blocked,
                    "full body is batchable but prefix {} is blocked\n{}",
                    n, program_src(&body)
                );
            }
        }
        if seen_blocked {
            prop_assert!(
                matches!(full.verdict, Verdict::Blocked(_)),
                "a prefix was blocked but the full body is not\n{}",
                program_src(&body)
            );
        }
    }

    /// Learning the driving table's unique key never turns a batchable
    /// loop into a blocked one.
    #[test]
    fn key_knowledge_is_monotone(body in arb_body()) {
        let src = program_src(&body);
        let without = analyze_src(&src, None);
        let with = analyze_src(&src, Some("id"));
        if matches!(without.verdict, Verdict::Batchable) {
            prop_assert!(
                matches!(with.verdict, Verdict::Batchable),
                "adding key knowledge blocked a batchable loop\n{src}"
            );
        }
        // And the converse never unlocks a *data* dependence: a loop
        // blocked on flow/anti/control/effect stays blocked whatever the
        // key (only `Output` verdicts are key-sensitive).
        if let Some(k) = blocked_kind(&with) {
            if k != DependenceKind::Output {
                prop_assert_eq!(
                    blocked_kind(&without), Some(k),
                    "non-key dependence changed with key knowledge\n{src}"
                );
            }
        }
    }

    /// Swapping an `if`'s branches while negating its condition is a CFG
    /// re-schedule: the joined summary — and hence the blocking
    /// dependence kind — must not change.
    #[test]
    fn branch_order_does_not_change_the_verdict_kind(
        c in 0u8..3,
        t in proptest::collection::vec(arb_body().prop_map(|mut v| v.remove(0)), 1..3),
        e in proptest::collection::vec(arb_body().prop_map(|mut v| v.remove(0)), 1..3),
        tail in arb_body(),
    ) {
        let mut a = vec![WStmt::If(c, t.clone(), e.clone())];
        a.extend(tail.clone());
        let src_a = program_src(&a);

        // Render the mirrored program by hand: `!(cond)` with the
        // branches exchanged.
        let mut body_b = String::new();
        body_b.push_str(&format!("        if (!({})) {{\n", cond(c)));
        render(&e, &mut body_b, 3);
        body_b.push_str("        } else {\n");
        render(&t, &mut body_b, 3);
        body_b.push_str("        }\n");
        render(&tail, &mut body_b, 2);
        let src_b = format!(
            "fn main() {{\n    q = executeQuery(\"SELECT * FROM emp\");\n    \
             for (e in q) {{\n{body_b}    }}\n    return 0;\n}}\n"
        );

        let da = analyze_src(&src_a, Some("id"));
        let db = analyze_src(&src_b, Some("id"));
        prop_assert_eq!(
            matches!(da.verdict, Verdict::Batchable),
            matches!(db.verdict, Verdict::Batchable),
            "batchability changed under branch swap\n{}\nvs\n{}", src_a, src_b
        );
        prop_assert_eq!(
            blocked_kind(&da), blocked_kind(&db),
            "blocking kind changed under branch swap\n{}\nvs\n{}", src_a, src_b
        );
        prop_assert_eq!(da.reads, db.reads, "read summary changed under branch swap");
        prop_assert_eq!(da.writes, db.writes, "write summary changed under branch swap");
    }

    /// Adding a keyed `UPDATE` whose `SET` list holds its `WHERE` column,
    /// at any position and under any guard, never yields `Batchable`,
    /// whatever the driving key.
    #[test]
    fn a_key_rewriting_update_is_never_batchable(
        mut body in arb_body(),
        at in 0usize..8,
        guard in 0u8..4,
        with_salary in any::<bool>(),
    ) {
        let update = WStmt::KeyRewrite(with_salary);
        // `guard` 3 leaves the update unguarded.
        let stmt = match guard {
            3 => update,
            c => WStmt::If(c, vec![update], vec![WStmt::Assign(0, 4)]),
        };
        body.insert(at % (body.len() + 1), stmt);
        let src = program_src(&body);
        for key in [Some("id"), None] {
            prop_assert!(
                !matches!(analyze_src(&src, key).verdict, Verdict::Batchable),
                "a key-rewriting UPDATE was batched (key {:?})\n{}", key, src
            );
        }
    }

    /// The verdict is a pure function of the AST: repeated analysis,
    /// re-parsing, and statement renumbering all agree exactly.
    #[test]
    fn verdicts_are_schedule_independent(body in arb_body()) {
        let src = program_src(&body);
        let once = analyze_src(&src, Some("id"));
        let twice = analyze_src(&src, Some("id"));
        prop_assert_eq!(&once.verdict, &twice.verdict, "re-analysis differs\n{}", &src);
        prop_assert_eq!(&once.reads, &twice.reads);
        prop_assert_eq!(&once.writes, &twice.writes);

        // Renumber every statement id — the raw material of any worklist
        // priority — and the verdict must survive byte for byte (only
        // site/stmt ids may shift).
        let mut p = imp::parser::parse_program(&src).unwrap();
        p.renumber();
        let renum = analyze_in(&p, Some("id"));
        prop_assert_eq!(&once.verdict, &renum.verdict, "renumbering changed verdict\n{}", &src);
        prop_assert_eq!(&once.reads, &renum.reads);
        prop_assert_eq!(&once.writes, &renum.writes);
        prop_assert_eq!(once.sites_found, renum.sites_found);
    }
}

/// The cursor symbol's interning order must not matter either: analyzing
/// an alpha-renamed body (cursor `e` → `zz`) yields the same verdict.
#[test]
fn verdict_survives_cursor_renaming() {
    let src_e = "fn main() {\n    q = executeQuery(\"SELECT * FROM emp\");\n    \
                 for (e in q) {\n        if (e.salary < 100) {\n            \
                 executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", e.salary * 2, e.id);\n        \
                 }\n    }\n    return 0;\n}\n";
    let src_z = src_e.replace("e in q", "zz in q").replace("e.", "zz.");
    let de = analyze_src(src_e, Some("id"));
    let dz = analyze_src(&src_z, Some("id"));
    assert_eq!(de.verdict, dz.verdict);
    assert_eq!(de.writes, dz.writes);
    let _ = Symbol::intern("zz");
}
