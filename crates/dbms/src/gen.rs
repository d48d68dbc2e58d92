//! Deterministic data generators for the paper's experiment workloads.
//!
//! Each generator takes a seed so experiments are reproducible. Schemas
//! mirror the applications of Sec. 7: Matoso's `board`, Wilos's
//! `project`/`wilos_user`/`role`, and JobPortal's star schema (Fig. 12).

use algebra::schema::{Catalog, ColumnDef, SqlType, TableSchema};

use crate::prng::StdRng;

use crate::table::{Database, Row};
use crate::value::Value;

/// Sampling profile for [`RowGen`].
#[derive(Debug, Clone, Copy)]
pub struct GenProfile {
    /// When set, non-key nullable cells become NULL with this percent
    /// probability (one extra RNG draw per such cell).
    pub null_pct: Option<u32>,
    /// Signed domains (`-9..=9` ints) instead of the tiny unsigned ones.
    pub signed: bool,
    /// Offset added to the row index for key values, so rows generated in
    /// several batches (the fuzzer's store-mode amplification) keep key
    /// columns unique.
    pub key_base: usize,
}

impl GenProfile {
    /// The [`gen_catalog`] profile: no NULLs, tiny unsigned domains.
    pub fn plain() -> GenProfile {
        GenProfile {
            null_pct: None,
            signed: false,
            key_base: 0,
        }
    }

    /// The [`gen_catalog_nulls`] profile: NULLs at `pct`%, signed domains.
    pub fn nulls(pct: u32) -> GenProfile {
        GenProfile {
            null_pct: Some(pct),
            signed: true,
            key_base: 0,
        }
    }

    /// Start key values at `base` instead of 0.
    pub fn with_key_base(mut self, base: usize) -> GenProfile {
        self.key_base = base;
        self
    }
}

/// A streaming row generator: yields one [`Row`] at a time, so callers
/// pipe rows straight into whichever backing the table uses — paged rows
/// go to the store without a whole-table `Vec<Row>` ever existing.
///
/// Key columns receive *unique* values (`key_base..key_base+rows` /
/// `"k0".."kN"`) so rewrites whose soundness rests on a unique key (T4.1,
/// T5.2) are tested under their actual precondition. Non-key columns draw
/// from deliberately tiny domains so joins and equality predicates hit on
/// small databases. The per-cell RNG draw order is part of this
/// generator's contract: certification and the fuzzer replay data by
/// seed, so the sequence below must not be reordered.
pub struct RowGen<'a> {
    schema: &'a TableSchema,
    rng: &'a mut StdRng,
    profile: GenProfile,
    next: usize,
    rows: usize,
}

impl<'a> RowGen<'a> {
    /// Generate `rows` rows of `schema`, drawing from `rng`.
    pub fn new(
        schema: &'a TableSchema,
        rows: usize,
        rng: &'a mut StdRng,
        profile: GenProfile,
    ) -> RowGen<'a> {
        RowGen {
            schema,
            rng,
            profile,
            next: 0,
            rows,
        }
    }
}

fn gen_cell(c: &ColumnDef, is_key: bool, r: usize, rng: &mut StdRng, p: GenProfile) -> Value {
    if let Some(pct) = p.null_pct {
        if !is_key && c.nullable && rng.gen_range(0..100u32) < pct {
            return Value::Null;
        }
    }
    match c.ty {
        SqlType::Int => Value::Int(if is_key {
            r as i64
        } else if p.signed {
            rng.gen_range(-9..10i64)
        } else {
            rng.gen_range(0..4i64)
        }),
        SqlType::Double => Value::Float(if is_key {
            r as f64
        } else if p.signed {
            rng.gen_range(-8..8i64) as f64 / 2.0
        } else {
            rng.gen_range(0..8i64) as f64 / 2.0
        }),
        SqlType::Bool => Value::Bool(rng.gen_bool(0.5)),
        SqlType::Text => Value::Str(if is_key {
            format!("k{r}")
        } else {
            format!("s{}", rng.gen_range(0..3u32))
        }),
    }
}

impl Iterator for RowGen<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        if self.next >= self.rows {
            return None;
        }
        let r = self.profile.key_base + self.next;
        self.next += 1;
        Some(
            self.schema
                .columns
                .iter()
                .map(|c| {
                    let is_key = self.schema.key.iter().any(|k| k == &c.name);
                    gen_cell(c, is_key, r, self.rng, self.profile)
                })
                .collect(),
        )
    }
}

/// Stream `rows` generated rows per catalog table into `db` (which may be
/// in-memory or paged — the one generation path serves both backends).
pub fn fill_catalog(
    db: &mut Database,
    catalog: &Catalog,
    rows: usize,
    rng: &mut StdRng,
    profile: GenProfile,
) {
    for schema in catalog.tables() {
        db.create_table(schema.clone());
        for row in RowGen::new(schema, rows, rng, profile) {
            db.insert(&schema.name, row);
        }
    }
}

/// Append `rows` more generated rows to every existing catalog table in
/// `db`, with keys starting at `key_base` (the fuzzer's store-mode
/// amplification: DDL-loaded rows keep their small keys, generated bulk
/// rows live far above them, and key columns stay unique).
pub fn extend_catalog(
    db: &mut Database,
    catalog: &Catalog,
    rows: usize,
    rng: &mut StdRng,
    profile: GenProfile,
) {
    for schema in catalog.tables() {
        for row in RowGen::new(schema, rows, rng, profile) {
            db.insert(&schema.name, row);
        }
    }
}

/// Populate a database for an arbitrary catalog: `rows` rows per table,
/// deterministic under `seed`. See [`RowGen`] for the value domains.
pub fn gen_catalog(catalog: &Catalog, rows: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    fill_catalog(&mut db, catalog, rows, &mut rng, GenProfile::plain());
    db
}

/// Populate a database for a catalog with NULL-bearing data: like
/// [`gen_catalog`], but non-key columns declared nullable in the catalog
/// receive SQL `NULL` with probability `null_pct`% per cell.
///
/// Non-key integers additionally draw from a signed domain (`-9..=9`) so
/// sign-sensitive rewrites (ABS, comparisons against zero, division) are
/// exercised. Used by the differential fuzzer (`crates/fuzz`), whose
/// divergence classes — NULL-poisoned sums, NULL flags under 3-valued
/// logic, division by zero — need both NULLs and zeros in the data.
pub fn gen_catalog_nulls(catalog: &Catalog, rows: usize, seed: u64, null_pct: u32) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    fill_catalog(
        &mut db,
        catalog,
        rows,
        &mut rng,
        GenProfile::nulls(null_pct),
    );
    db
}

/// Matoso `board` table: `n` boards spread over `rounds` rounds, four player
/// scores each (paper Fig. 2 / Experiment 7).
pub fn gen_board(n: usize, rounds: i64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "board",
            &[
                ("id", SqlType::Int),
                ("rnd_id", SqlType::Int),
                ("p1", SqlType::Int),
                ("p2", SqlType::Int),
                ("p3", SqlType::Int),
                ("p4", SqlType::Int),
            ],
        )
        .with_key(&["id"]),
    );
    for i in 0..n {
        let rnd = 1 + (i as i64 % rounds.max(1));
        db.insert(
            "board",
            vec![
                Value::Int(i as i64),
                Value::Int(rnd),
                Value::Int(rng.gen_range(0..10_000)),
                Value::Int(rng.gen_range(0..10_000)),
                Value::Int(rng.gen_range(0..10_000)),
                Value::Int(rng.gen_range(0..10_000)),
            ],
        );
    }
    db
}

/// Wilos-style schema: `project` (with ~`finished_pct`% finished rows, for
/// Experiment 5's 20% selectivity), `wilos_user` and `role` with a 40:1 size
/// ratio option (Experiment 6), plus `activity` and `participant` tables
/// used by other samples.
pub fn gen_wilos(n_projects: usize, n_users: usize, finished_pct: u32, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "project",
            &[
                ("id", SqlType::Int),
                ("name", SqlType::Text),
                ("isfinished", SqlType::Bool),
                ("budget", SqlType::Int),
            ],
        )
        .with_key(&["id"]),
    );
    for i in 0..n_projects {
        db.insert(
            "project",
            vec![
                Value::Int(i as i64),
                Value::Str(format!("project-{i}")),
                Value::Bool(rng.gen_range(0u32..100) < finished_pct),
                Value::Int(rng.gen_range(1_000..100_000)),
            ],
        );
    }
    let n_roles = (n_users / 40).max(1);
    db.create_table(
        TableSchema::new("role", &[("id", SqlType::Int), ("name", SqlType::Text)])
            .with_key(&["id"]),
    );
    for r in 0..n_roles {
        db.insert(
            "role",
            vec![Value::Int(r as i64), Value::Str(format!("role-{r}"))],
        );
    }
    db.create_table(
        TableSchema::new(
            "wilos_user",
            &[
                ("id", SqlType::Int),
                ("name", SqlType::Text),
                ("role_id", SqlType::Int),
                ("login", SqlType::Text),
            ],
        )
        .with_key(&["id"]),
    );
    for u in 0..n_users {
        let role = rng.gen_range(0..n_roles) as i64;
        db.insert(
            "wilos_user",
            vec![
                Value::Int(u as i64),
                Value::Str(format!("user-{u}")),
                Value::Int(role),
                Value::Str(format!("login{u}")),
            ],
        );
    }
    db.create_table(
        TableSchema::new(
            "activity",
            &[
                ("id", SqlType::Int),
                ("project_id", SqlType::Int),
                ("state", SqlType::Text),
                ("effort", SqlType::Int),
            ],
        )
        .with_key(&["id"]),
    );
    let states = ["created", "started", "finished", "suspended"];
    for a in 0..(n_projects * 3) {
        db.insert(
            "activity",
            vec![
                Value::Int(a as i64),
                Value::Int(rng.gen_range(0..n_projects.max(1)) as i64),
                Value::Str(states[rng.gen_range(0..states.len())].to_string()),
                Value::Int(rng.gen_range(1..100)),
            ],
        );
    }
    db.create_table(
        TableSchema::new(
            "participant",
            &[
                ("id", SqlType::Int),
                ("user_id", SqlType::Int),
                ("project_id", SqlType::Int),
            ],
        )
        .with_key(&["id"]),
    );
    for p in 0..n_users {
        db.insert(
            "participant",
            vec![
                Value::Int(p as i64),
                Value::Int(p as i64),
                Value::Int(rng.gen_range(0..n_projects.max(1)) as i64),
            ],
        );
    }
    db
}

/// JobPortal star schema of Fig. 12: an `applicants` fact table plus four
/// per-applicant detail tables, each holding exactly one row per applicant
/// (scalar lookups in the loop).
pub fn gen_jobportal(n_applicants: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "applicants",
            &[
                ("applicant_id", SqlType::Int),
                ("appln_mode", SqlType::Text),
                ("job_id", SqlType::Int),
                ("name", SqlType::Text),
            ],
        )
        .with_key(&["applicant_id"]),
    );
    db.create_table(
        TableSchema::new(
            "personal_details",
            &[
                ("applicant_id", SqlType::Int),
                ("address", SqlType::Text),
                ("phone", SqlType::Text),
            ],
        )
        .with_key(&["applicant_id"]),
    );
    db.create_table(
        TableSchema::new(
            "committee1_feedback",
            &[
                ("applicant_id", SqlType::Int),
                ("score", SqlType::Int),
                ("remark", SqlType::Text),
            ],
        )
        .with_key(&["applicant_id"]),
    );
    db.create_table(
        TableSchema::new(
            "committee2_feedback",
            &[
                ("applicant_id", SqlType::Int),
                ("score", SqlType::Int),
                ("remark", SqlType::Text),
            ],
        )
        .with_key(&["applicant_id"]),
    );
    db.create_table(
        TableSchema::new(
            "edu_qualifs",
            &[
                ("applicant_id", SqlType::Int),
                ("degree", SqlType::Text),
                ("year", SqlType::Int),
            ],
        )
        .with_key(&["applicant_id"]),
    );
    for i in 0..n_applicants {
        let online = rng.gen_bool(0.6);
        db.insert(
            "applicants",
            vec![
                Value::Int(i as i64),
                Value::Str(if online { "online" } else { "paper" }.to_string()),
                Value::Int(rng.gen_range(1..5)),
                Value::Str(format!("applicant-{i}")),
            ],
        );
        db.insert(
            "personal_details",
            vec![
                Value::Int(i as i64),
                Value::Str(format!("{i} Main St")),
                Value::Str(format!("555-{i:04}")),
            ],
        );
        db.insert(
            "committee1_feedback",
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..100)),
                Value::Str("ok".into()),
            ],
        );
        db.insert(
            "committee2_feedback",
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..100)),
                Value::Str("ok".into()),
            ],
        );
        if online {
            db.insert(
                "edu_qualifs",
                vec![
                    Value::Int(i as i64),
                    Value::Str("BSc".into()),
                    Value::Int(rng.gen_range(1990..2016)),
                ],
            );
        }
    }
    db
}

/// A generic employees table for tests and small examples.
pub fn gen_emp(n: usize, seed: u64) -> Database {
    let mut db = Database::new();
    gen_emp_into(&mut db, n, seed);
    db
}

/// [`gen_emp`] into a paged database: the scale experiment's table, with
/// rows streamed straight into B-tree pages (identical data to [`gen_emp`]
/// under the same seed — they share `gen_emp_into`).
pub fn gen_emp_paged(n: usize, seed: u64, store: storage::Store) -> Database {
    let mut db = Database::new_paged(store);
    gen_emp_into(&mut db, n, seed);
    db
}

/// The one streaming generation path behind [`gen_emp`] / [`gen_emp_paged`]:
/// rows go to `db.insert` one at a time, so a paged backing writes pages
/// directly and no whole-table `Vec<Row>` is ever materialized.
fn gen_emp_into(db: &mut Database, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    db.create_table(
        TableSchema::new(
            "emp",
            &[
                ("id", SqlType::Int),
                ("name", SqlType::Text),
                ("dept", SqlType::Text),
                ("salary", SqlType::Int),
            ],
        )
        .with_key(&["id"]),
    );
    let depts = ["eng", "sales", "hr"];
    for i in 0..n {
        db.insert(
            "emp",
            vec![
                Value::Int(i as i64),
                Value::Str(format!("emp-{i}")),
                Value::Str(depts[rng.gen_range(0..depts.len())].to_string()),
                Value::Int(rng.gen_range(30_000..200_000)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::parse::parse_sql;

    #[test]
    fn board_generation_is_deterministic() {
        let a = gen_board(100, 4, 7);
        let b = gen_board(100, 4, 7);
        assert_eq!(a, b);
        assert_eq!(a.table("board").unwrap().len(), 100);
    }

    #[test]
    fn wilos_user_role_ratio() {
        let db = gen_wilos(10, 400, 20, 1);
        assert_eq!(db.table("wilos_user").unwrap().len(), 400);
        assert_eq!(db.table("role").unwrap().len(), 10);
    }

    #[test]
    fn selectivity_is_roughly_respected() {
        let db = gen_wilos(10_000, 10, 20, 42);
        let q = parse_sql("SELECT COUNT(*) AS c FROM project WHERE isfinished = false").unwrap();
        let r = crate::eval::eval_query(&q, &db, &[]).unwrap();
        let unfinished = match r.rows[0][0] {
            Value::Int(c) => c,
            _ => panic!(),
        };
        // ~80% unfinished when finished_pct = 20.
        assert!((7_500..8_500).contains(&unfinished), "{unfinished}");
    }

    #[test]
    fn jobportal_online_applicants_have_qualifs() {
        let db = gen_jobportal(200, 3);
        let online =
            parse_sql("SELECT COUNT(*) AS c FROM applicants WHERE appln_mode = 'online'").unwrap();
        let quals = parse_sql("SELECT COUNT(*) AS c FROM edu_qualifs").unwrap();
        let a = crate::eval::eval_query(&online, &db, &[]).unwrap().rows[0][0].clone();
        let b = crate::eval::eval_query(&quals, &db, &[]).unwrap().rows[0][0].clone();
        assert_eq!(a, b);
    }

    #[test]
    fn catalog_generation_gives_unique_keys() {
        use algebra::schema::Catalog;
        let cat = Catalog::new()
            .with(
                TableSchema::new(
                    "t",
                    &[
                        ("id", SqlType::Int),
                        ("grp", SqlType::Int),
                        ("s", SqlType::Text),
                    ],
                )
                .with_key(&["id"]),
            )
            .with(TableSchema::new("u", &[("x", SqlType::Double)]));
        let db = gen_catalog(&cat, 5, 11);
        let t = db.table("t").unwrap();
        assert_eq!(t.len(), 5);
        let mut ids: Vec<i64> = t
            .scan()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5, "key column must be unique");
        assert_eq!(db.table("u").unwrap().len(), 5);
        assert_eq!(gen_catalog(&cat, 5, 11), db, "must be deterministic");
    }

    #[test]
    fn nulls_only_in_nullable_columns() {
        use algebra::schema::Catalog;
        let cat = Catalog::new().with(
            TableSchema::new(
                "t",
                &[
                    ("id", SqlType::Int),
                    ("a", SqlType::Int),
                    ("b", SqlType::Int),
                ],
            )
            .with_key(&["id"])
            .with_nullable(&["b"]),
        );
        let db = gen_catalog_nulls(&cat, 40, 5, 50);
        let t = db.table("t").unwrap();
        assert!(
            t.scan().all(|r| r[0] != Value::Null && r[1] != Value::Null),
            "key and NOT NULL columns must never be NULL"
        );
        assert!(
            t.scan().any(|r| r[2] == Value::Null),
            "nullable column should receive NULLs at 50%"
        );
        assert_eq!(gen_catalog_nulls(&cat, 40, 5, 50), db, "deterministic");
    }

    #[test]
    fn emp_has_requested_rows() {
        let db = gen_emp(50, 9);
        assert_eq!(db.table("emp").unwrap().len(), 50);
    }
}
