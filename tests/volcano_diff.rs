//! Differential sweep for the one relational executor: every plan runs on
//! `dbms::volcano`, whether its tables live in memory or in pages, and the
//! two backings must return *byte-identical* results — ordering,
//! duplicates, NULLs, Int/Float distinctions and all.
//!
//! Twin databases built from one generator seed carry identical data, so
//! any disagreement is a backing-specific bug (a pruned column, a scan
//! that reorders, a page that decodes wrong). Agreement alone cannot catch
//! a bug both backings share, so every case is also held to
//! `tests/golden/volcano_corpus.txt`: the output of the materializing
//! evaluator this executor replaced, frozen before that evaluator was
//! deleted. Each golden line is a case key (section, table size, seed and
//! the plan's `Debug` form), a tab, then the row count and
//! `storage::fnv64` of the `Debug`-printed rows. The interpreter-vs-SQL
//! fuzz oracle stays the independent semantic judge.

use std::collections::HashMap;
use std::sync::OnceLock;

use algebra::ra::{AggCall, AggFunc, ProjItem, RaExpr, SortKey};
use algebra::scalar::{BinOp, Lit, Scalar};
use dbms::gen::{gen_emp, gen_emp_paged};
use dbms::{eval_query, Database, Relation};
use proptest::prelude::*;

/// Small frame budget so multi-page tables overflow the pool and scans
/// actually evict.
const FRAMES: usize = 8;

/// Identical data, two backings.
fn twin_dbs(n: usize, seed: u64) -> (Database, Database) {
    let mem = gen_emp(n, seed);
    let paged = gen_emp_paged(n, seed, storage::Store::in_memory(FRAMES));
    (mem, paged)
}

/// The frozen outputs, keyed by case.
fn golden() -> &'static HashMap<&'static str, &'static str> {
    static GOLDEN: OnceLock<HashMap<&'static str, &'static str>> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        include_str!("golden/volcano_corpus.txt")
            .lines()
            .map(|l| l.split_once('\t').expect("golden line is key<TAB>digest"))
            .collect()
    })
}

/// Row count and a hash of the rows, as the golden records them.
fn digest(rel: &Relation) -> String {
    let rows = format!("{:?}", rel.rows);
    format!(
        "rows={} fnv={:016x}",
        rel.rows.len(),
        storage::fnv64(rows.as_bytes())
    )
}

/// Run `q` on both backings; they must agree with each other and with the
/// golden line for `section`/`n`/`seed`.
fn assert_backends_agree(
    section: &str,
    n: usize,
    seed: u64,
    q: &RaExpr,
    mem: &Database,
    paged: &Database,
) {
    let on_mem = eval_query(q, mem, &[]).expect("in-memory evaluation");
    let on_paged = eval_query(q, paged, &[]).expect("paged evaluation");
    assert_eq!(
        on_mem.rows, on_paged.rows,
        "backings disagree on rows for plan {q}"
    );
    assert_eq!(
        on_mem.fields, on_paged.fields,
        "backings disagree on fields for plan {q}"
    );
    let key = format!("{section} n={n} seed={seed} {q:?}");
    let want = golden()
        .get(key.as_str())
        .unwrap_or_else(|| panic!("no golden line for {key}"));
    assert_eq!(
        digest(&on_mem),
        *want,
        "executor departs from the frozen reference on {key}"
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

/// A random single-table query: scan → σ? → (π | γ)? → (τ | δ | LIMIT)?.
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
        assert_backends_agree("corpus", n, seed, &q, &mem, &paged);
    }
}

/// Multi-page stress: 20 000 rows is ~260 pages against an 8-frame pool,
/// so every full scan cycles the pool dozens of times.
#[test]
fn volcano_agrees_on_multipage_table() {
    let (n, seed) = (20_000, 9);
    let (mem, paged) = twin_dbs(n, seed);
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
        assert_backends_agree("multipage", n, seed, &q, &mem, &paged);
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
    let (n, seed) = (600, 13);
    let (mem, paged) = twin_dbs(n, seed);
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
        assert_backends_agree("pruning", n, seed, &q, &mem, &paged);
    }
    // δ *under* π dedups whole scan rows, so nothing may be pruned below it.
    let dedup_below = RaExpr::table("emp")
        .dedup()
        .project(vec![ProjItem::col("dept")]);
    assert_backends_agree("pruning", n, seed, &dedup_below, &mem, &paged);
}

/// A `VALUES` relation of department bonuses, with a NULL, a float and a
/// department no employee has.
fn bonuses() -> RaExpr {
    RaExpr::Values {
        columns: vec!["dept".into(), "bonus".into()],
        rows: vec![
            vec![Lit::Str("eng".into()), Lit::Int(10)],
            vec![Lit::Str("hr".into()), Lit::Null],
            vec![Lit::Str("sales".into()), Lit::float(2.5)],
            vec![Lit::Str("none".into()), Lit::Int(7)],
        ],
    }
}

/// The operators beyond single-table pipelines — inner and left joins,
/// correlated `OUTER APPLY`, `VALUES`, correlated `EXISTS` and scalar
/// subqueries — on an empty table, a one-leaf table and a multi-page one.
#[test]
fn joins_applies_values_and_subqueries_agree() {
    let sqls = [
        // Inner join on a non-equality, and one feeding γ and τ/LIMIT.
        "SELECT e.id, d.id AS other FROM emp e JOIN emp d \
         ON e.dept = d.dept AND e.salary < d.salary AND d.id < e.id + 3",
        "SELECT e.dept, COUNT(*) AS pairs FROM emp e JOIN emp d \
         ON e.dept = d.dept AND d.id < e.id GROUP BY e.dept",
        "SELECT e.id, d.salary FROM emp e INNER JOIN emp d ON d.id = e.id + 1 \
         ORDER BY d.salary DESC, e.id LIMIT 5",
        // LEFT JOIN: most rows find no partner and are padded with NULL.
        "SELECT e.id, e.dept, d.name FROM emp e LEFT JOIN emp d ON d.id = e.id + 50",
        "SELECT e.dept, COUNT(d.id) AS matched, COUNT(*) AS n FROM emp e \
         LEFT OUTER JOIN emp d ON d.id = e.id * 2 AND d.dept = e.dept GROUP BY e.dept",
        // Correlated EXISTS / NOT EXISTS.
        "SELECT id FROM emp e WHERE NOT EXISTS \
         (SELECT id FROM emp d WHERE d.dept = e.dept AND d.salary > e.salary)",
        "SELECT id, name FROM emp e WHERE EXISTS \
         (SELECT id FROM emp d WHERE d.id = e.id - 1 AND d.salary > e.salary)",
        // Scalar subqueries: correlated in the projection and the filter,
        // and uncorrelated.
        "SELECT e.id, (SELECT MAX(d.salary) FROM emp d WHERE d.dept = e.dept) AS top \
         FROM emp e",
        "SELECT id FROM emp e WHERE e.salary = \
         (SELECT MAX(d.salary) FROM emp d WHERE d.dept = e.dept)",
        "SELECT id, (SELECT COUNT(*) FROM emp) AS total FROM emp WHERE id < 4",
        // A scalar subquery with no row reads NULL.
        "SELECT id, (SELECT d.name FROM emp d WHERE d.id = e.id + 100000) AS ghost \
         FROM emp e WHERE id < 3",
    ];
    let mut plans: Vec<RaExpr> = sqls
        .iter()
        .map(|s| algebra::parse::parse_sql(s).unwrap())
        .collect();
    // Correlated OUTER APPLY: each employee's two nearest better-paid
    // colleagues, padded with NULL for the best paid of each department.
    let better = RaExpr::table_as("emp", "d")
        .select(
            Scalar::cmp(
                BinOp::Eq,
                Scalar::qcol("d", "dept"),
                Scalar::qcol("e", "dept"),
            )
            .and(Scalar::cmp(
                BinOp::Gt,
                Scalar::qcol("d", "salary"),
                Scalar::qcol("e", "salary"),
            )),
        )
        .sort(vec![SortKey::asc(Scalar::qcol("d", "salary"))])
        .limit(2)
        .project(vec![ProjItem::new(Scalar::qcol("d", "id"), "better_id")]);
    plans.push(RaExpr::table_as("emp", "e").outer_apply(better.clone()));
    plans.push(RaExpr::table_as("emp", "e").outer_apply(better).group_by(
        vec![ProjItem::new(Scalar::qcol("e", "dept"), "dept")],
        vec![AggCall::new(AggFunc::Count, Scalar::col("better_id"), "n")],
    ));
    // An OUTER APPLY whose right side is a correlated global aggregate.
    plans.push(
        RaExpr::table_as("emp", "e").outer_apply(
            RaExpr::table_as("emp", "d")
                .select(Scalar::cmp(
                    BinOp::Lt,
                    Scalar::qcol("d", "id"),
                    Scalar::qcol("e", "id"),
                ))
                .aggregate(vec![AggCall::new(
                    AggFunc::Sum,
                    Scalar::qcol("d", "salary"),
                    "before",
                )]),
        ),
    );
    // VALUES alone, joined to a table, and left-joined from.
    plans.push(bonuses());
    plans.push(
        RaExpr::table_as("emp", "e")
            .join(
                bonuses().aliased("b"),
                Scalar::cmp(
                    BinOp::Eq,
                    Scalar::qcol("b", "dept"),
                    Scalar::qcol("e", "dept"),
                ),
            )
            .project(vec![
                ProjItem::new(Scalar::qcol("e", "id"), "id"),
                ProjItem::new(
                    Scalar::Bin(
                        BinOp::Add,
                        Box::new(Scalar::qcol("e", "salary")),
                        Box::new(Scalar::qcol("b", "bonus")),
                    ),
                    "paid",
                ),
            ]),
    );
    plans.push(bonuses().aliased("b").left_join(
        RaExpr::table_as("emp", "e"),
        Scalar::cmp(
            BinOp::Eq,
            Scalar::qcol("e", "dept"),
            Scalar::qcol("b", "dept"),
        ),
    ));
    let seed = 21;
    for n in [0, 7, 300] {
        let (mem, paged) = twin_dbs(n, seed);
        for q in &plans {
            assert_backends_agree("plans", n, seed, q, &mem, &paged);
        }
    }
}

/// δ and γ keys: integers past 2⁵³ stay distinct, strings holding the
/// old key separator stay distinct, and an integer still meets the equal
/// float — on both backings.
#[test]
fn grouping_keys_neither_collide_nor_split() {
    use algebra::schema::{SqlType, TableSchema};
    use dbms::Value;

    let big = 1i64 << 53;
    let schema = TableSchema::new(
        "k",
        &[
            ("x", SqlType::Int),
            ("s", SqlType::Text),
            ("t", SqlType::Text),
            ("v", SqlType::Double),
        ],
    );
    let rows = [
        (big, "a\u{1}Sb", "c", Value::Int(3)),
        (big + 1, "a", "b\u{1}Sc", Value::Float(3.0)),
    ];
    let mut mem = Database::new().with_table(schema.clone());
    let mut paged = Database::paged_in_memory(FRAMES).with_table(schema);
    for db in [&mut mem, &mut paged] {
        for (x, s, t, v) in &rows {
            db.insert(
                "k",
                vec![Value::Int(*x), (*s).into(), (*t).into(), v.clone()],
            );
        }
    }
    let cases = [
        ("SELECT DISTINCT x FROM k", 2),
        ("SELECT x, COUNT(*) AS n FROM k GROUP BY x", 2),
        ("SELECT DISTINCT s, t FROM k", 2),
        ("SELECT s, t, COUNT(*) AS n FROM k GROUP BY s, t", 2),
        ("SELECT DISTINCT v FROM k", 1),
        ("SELECT v, COUNT(*) AS n FROM k GROUP BY v", 1),
    ];
    for (sql, want) in cases {
        let q = algebra::parse::parse_sql(sql).unwrap();
        for db in [&mem, &paged] {
            let rel = eval_query(&q, db, &[]).unwrap();
            assert_eq!(rel.rows.len(), want, "{sql} on {:?}", rel.rows);
            if let Some(n) = rel.fields.iter().position(|f| f.name == "n") {
                let total: usize = rows.len();
                let counted: i64 = rel
                    .rows
                    .iter()
                    .map(|r| match r[n] {
                        Value::Int(c) => c,
                        ref other => panic!("COUNT(*) gave {other:?}"),
                    })
                    .sum();
                assert_eq!(counted as usize, total, "{sql}");
            }
        }
    }
}

/// Flush/reopen persistence: rows written through the paged generator
/// survive a process-boundary round trip (flush, drop, open) and still
/// evaluate identically.
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
