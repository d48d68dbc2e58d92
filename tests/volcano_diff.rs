//! Differential sweep: the volcano executor over the paged storage backend
//! must return *byte-identical* results to the in-memory reference
//! evaluator on the full query corpus.
//!
//! `dbms::eval_query` dispatches to the volcano executor whenever the plan
//! bottoms out in a paged table; `dbms::eval::eval_query_materialized` is
//! the same algebra forced through the materializing reference path. Twin
//! databases built from one generator seed carry identical data, so the
//! two engines must agree row-for-row — ordering, duplicates, NULLs,
//! Int/Float distinctions and all.

use algebra::ra::{AggCall, AggFunc, ProjItem, RaExpr, SortKey};
use algebra::scalar::{BinOp, Scalar};
use dbms::eval::eval_query_materialized;
use dbms::gen::{gen_emp, gen_emp_paged};
use dbms::{eval_query, Database};
use proptest::prelude::*;

/// Small frame budget so multi-page tables overflow the pool and scans
/// actually evict.
const FRAMES: usize = 8;

/// Identical data, two backends.
fn twin_dbs(n: usize, seed: u64) -> (Database, Database) {
    let mem = gen_emp(n, seed);
    let paged = gen_emp_paged(n, seed, storage::Store::in_memory(FRAMES));
    (mem, paged)
}

fn assert_backends_agree(q: &RaExpr, mem: &Database, paged: &Database) {
    let reference = eval_query_materialized(q, mem, &[]).expect("reference evaluation");
    let volcano = eval_query(q, paged, &[]).expect("volcano evaluation");
    assert_eq!(
        reference.rows, volcano.rows,
        "backends disagree on rows for plan {q}"
    );
    assert_eq!(
        reference.fields.len(),
        volcano.fields.len(),
        "backends disagree on arity for plan {q}"
    );
}

/// A random predicate over the `emp` schema (mirrors `sql_roundtrip`).
fn arb_pred() -> impl Strategy<Value = Scalar> {
    let leaf = prop_oneof![
        (0i64..250_000).prop_map(|c| Scalar::cmp(BinOp::Gt, Scalar::col("salary"), Scalar::int(c))),
        (0i64..250_000).prop_map(|c| Scalar::cmp(BinOp::Le, Scalar::col("salary"), Scalar::int(c))),
        prop_oneof![Just("eng"), Just("sales"), Just("hr"), Just("none")]
            .prop_map(|d| Scalar::cmp(BinOp::Eq, Scalar::col("dept"), Scalar::str(d))),
        (0i64..100).prop_map(|c| Scalar::cmp(BinOp::Ne, Scalar::col("id"), Scalar::int(c))),
    ];
    leaf.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.or(b)),
        ]
    })
}

/// A random single-table query: scan → σ? → (π | γ)? → (τ | δ | LIMIT)? —
/// exactly the pipeline shapes the volcano executor plans.
fn arb_query() -> impl Strategy<Value = RaExpr> {
    (arb_pred(), any::<bool>(), 0u8..4, 0u8..4, 1u64..10).prop_map(
        |(pred, with_sel, shape, tail, limit)| {
            let mut q = RaExpr::table("emp");
            if with_sel {
                q = q.select(pred);
            }
            q = match shape {
                0 => q,
                1 => q.project(vec![ProjItem::col("name"), ProjItem::col("salary")]),
                2 => q.project(vec![ProjItem::new(
                    Scalar::Bin(
                        BinOp::Add,
                        Box::new(Scalar::col("salary")),
                        Box::new(Scalar::int(1)),
                    ),
                    "bumped",
                )]),
                _ => q.group_by(
                    vec![ProjItem::col("dept")],
                    vec![
                        AggCall::new(AggFunc::Sum, Scalar::col("salary"), "total"),
                        AggCall::new(AggFunc::Count, Scalar::int(1), "n"),
                    ],
                ),
            };
            match tail {
                0 => q,
                1 => {
                    let key = match &q {
                        RaExpr::Aggregate { .. } => Scalar::col("total"),
                        RaExpr::Project { items, .. } => Scalar::col(&items[0].alias),
                        _ => Scalar::col("id"),
                    };
                    q.sort(vec![SortKey::desc(key)])
                }
                2 => q.dedup(),
                _ => q.limit(limit),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The corpus sweep at sizes from empty through several pages.
    #[test]
    fn volcano_agrees_on_query_corpus(q in arb_query(), n in 0usize..400, seed in any::<u64>()) {
        let (mem, paged) = twin_dbs(n, seed);
        assert_backends_agree(&q, &mem, &paged);
    }
}

/// Multi-page stress: 20 000 rows is ~260 pages against an 8-frame pool,
/// so every full scan cycles the pool dozens of times while the reference
/// side holds everything in one `Vec`.
#[test]
fn volcano_agrees_on_multipage_table() {
    let (mem, paged) = twin_dbs(20_000, 9);
    let queries = [
        "SELECT * FROM emp",
        "SELECT name, salary FROM emp WHERE salary > 150000",
        "SELECT dept, SUM(salary) AS total, COUNT(*) AS n FROM emp GROUP BY dept",
        "SELECT MAX(salary) AS hi FROM emp WHERE dept = 'eng'",
        "SELECT DISTINCT dept FROM emp ORDER BY dept DESC",
        "SELECT id FROM emp ORDER BY salary DESC LIMIT 7",
        "SELECT COUNT(*) AS n FROM emp WHERE dept = 'none'",
    ];
    for sql in queries {
        let q = algebra::parse::parse_sql(sql).unwrap();
        assert_backends_agree(&q, &mem, &paged);
    }
    let pool = paged.store().unwrap().pool_stats();
    assert!(
        pool.evictions > 0,
        "an 8-frame pool must evict on 260 pages"
    );
}

/// Projection pushdown: one case per rule deciding whether the scan may
/// skip columns, on a table of several leaves. A wrongly pruned column
/// reads as NULL, which every case below would expose.
#[test]
fn pruned_scans_agree_on_every_rule() {
    let (mem, paged) = twin_dbs(600, 13);
    let queries = [
        // The scan row reaches the root: every column is decoded.
        "SELECT * FROM emp WHERE salary > 150000",
        // δ over π compares the projected rows only.
        "SELECT DISTINCT dept FROM emp",
        // A correlated subquery reads outer columns the projection drops.
        "SELECT id FROM emp e WHERE EXISTS \
         (SELECT id FROM emp d WHERE d.id = e.id + 1 AND d.dept = e.dept)",
        // τ below π sorts on a column the projection drops.
        "SELECT name FROM emp ORDER BY salary DESC, id",
        // GROUP BY, and a global aggregate over several leaves.
        "SELECT dept, MAX(name) AS hi, COUNT(*) AS n FROM emp GROUP BY dept",
        "SELECT SUM(salary) AS total, MIN(name) AS lo, AVG(id) AS mean FROM emp",
        // A global aggregate over empty input still yields one row.
        "SELECT SUM(salary) AS total, COUNT(*) AS n FROM emp WHERE salary < 0",
    ];
    for sql in queries {
        let q = algebra::parse::parse_sql(sql).unwrap();
        assert_backends_agree(&q, &mem, &paged);
    }
    // δ *under* π dedups whole scan rows, so nothing may be pruned below it.
    let dedup_below = RaExpr::table("emp")
        .dedup()
        .project(vec![ProjItem::col("dept")]);
    assert_backends_agree(&dedup_below, &mem, &paged);
}

/// Flush/reopen persistence: rows written through the paged generator
/// survive a process-boundary round trip (flush, drop, open) and still
/// evaluate identically under the volcano executor.
#[test]
fn paged_table_survives_flush_and_reopen() {
    let dir = std::env::temp_dir().join(format!("eqsql-volcano-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("emp.eqs");
    let q = algebra::parse::parse_sql("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept").unwrap();

    let store = storage::Store::create(&path, FRAMES).unwrap();
    let db = gen_emp_paged(3_000, 5, store);
    let before = eval_query(&q, &db, &[]).unwrap();
    db.flush().unwrap();
    drop(db);

    let store = storage::Store::open(&path, FRAMES).unwrap();
    let mut db = Database::new_paged(store);
    db.create_table(
        gen_emp(0, 0)
            .catalog()
            .tables()
            .next()
            .expect("emp schema")
            .clone(),
    );
    let after = eval_query(&q, &db, &[]).unwrap();
    assert_eq!(
        before.rows, after.rows,
        "reopened table must evaluate identically"
    );
    assert_eq!(db.table("emp").unwrap().len(), 3_000);
    let _ = std::fs::remove_dir_all(&dir);
}
