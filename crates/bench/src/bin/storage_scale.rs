//! `storage_scale` — the tracked larger-than-memory scale experiment.
//!
//! The paper's headline claim is that replacing an imperative cursor loop
//! with one extracted SQL statement wins *more* as data grows: the loop
//! transfers every row over the client/server boundary while the extracted
//! aggregate transfers one. This binary measures exactly that over the
//! paged storage engine: an `emp` table of 10⁴ / 10⁵ / 10⁶ rows is
//! streamed into B-tree pages behind a buffer pool whose frame budget is
//! far below the table size, the imperative sum loop and its extracted
//! SQL both execute through the volcano executor, and the measured
//! wall-clock ratio is reported first, then the simulated round-trip/
//! transfer costs (a model, not a measurement) and buffer-pool hit rates.
//! Writes `BENCH_storage.json` at the repo root.
//!
//! Modes:
//!
//! * default — all three sizes, asserts the speedup grows monotonically
//!   with the row count, JSON written to `--out`
//!   (default `BENCH_storage.json`).
//! * `--check` — the 10⁴-row size only; the emitted JSON is validated,
//!   compared structurally against the tracked `BENCH_storage.json`
//!   (same bench identity and per-size fields — never absolute timings),
//!   and printed. Used by `ci.sh`; exit 0 on success.

use std::path::PathBuf;
use std::time::Instant;

use analysis::json::Json;
use dbms::Connection;
use eqsql_core::{Extractor, ExtractorOptions};
use interp::Interp;

/// Buffer-pool frame budget: 64 frames × 4 KiB = 256 KiB resident, below
/// the smallest measured table (10⁴ rows ≈ 130 pages) and ~3 orders of
/// magnitude below the largest — every size is a larger-than-memory run.
const FRAMES: usize = 64;

/// Row counts measured in the full sweep.
const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];

/// The imperative program under test: the canonical cursor-loop sum the
/// extractor rewrites to `SELECT SUM(...)` via rule T5.
const PROGRAM: &str = r#"
fn total() {
    s = 0;
    for (e in executeQuery("SELECT * FROM emp")) {
        s = s + e.salary;
    }
    return s;
}
"#;

/// One side's measurement: simulated connection costs plus wall clock.
struct Run {
    queries: u64,
    rows: u64,
    bytes: u64,
    sim_us: f64,
    wall_ms: f64,
    result: interp::RtValue,
}

/// Run `total` once on a fresh connection; the clock brackets
/// `Interp::call` alone, not the database clone or interpreter set-up.
fn run_side(program: &imp::ast::Program, db: &dbms::Database) -> Run {
    let mut it = Interp::new(program, Connection::new(db.clone()));
    let started = Instant::now();
    let result = it.call("total", vec![]).expect("benchmark program runs");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    Run {
        queries: it.conn.stats.queries,
        rows: it.conn.stats.rows,
        bytes: it.conn.stats.bytes,
        sim_us: it.conn.stats.sim_us,
        wall_ms,
        result,
    }
}

fn run_json(r: &Run) -> Json {
    Json::Obj(vec![
        ("queries".into(), Json::int(r.queries as i64)),
        ("rows_transferred".into(), Json::int(r.rows as i64)),
        ("bytes_transferred".into(), Json::int(r.bytes as i64)),
        ("wall_ms".into(), Json::Num(r.wall_ms)),
        ("sim_us".into(), Json::Num(r.sim_us)),
    ])
}

/// Measure one table size end to end. Returns the per-size JSON record and
/// the simulated speedup.
fn measure(rows: usize) -> (Json, f64) {
    let store = storage::Store::temp(FRAMES).expect("create temp store");
    let db = dbms::gen::gen_emp_paged(rows, 42, store);
    let st = db.store().expect("paged database has a store");
    let pages = st.page_count();
    assert!(
        (FRAMES as u32) < pages,
        "frame budget ({FRAMES} frames) must stay below the table \
         ({pages} pages) for a larger-than-memory run"
    );

    let program = imp::parse_and_normalize(PROGRAM).expect("benchmark program parses");
    let report = Extractor::with_options(db.catalog(), ExtractorOptions::default())
        .extract_function(&program, "total");
    assert_eq!(report.loops_rewritten, 1, "sum loop must extract");

    let imperative = run_side(&program, &db);
    let extracted = run_side(&report.program, &db);
    assert!(
        interp::value::loose_eq(&imperative.result, &extracted.result),
        "imperative and extracted results must agree: {} vs {}",
        imperative.result,
        extracted.result
    );

    let pool = st.pool_stats();
    let speedup_wall = imperative.wall_ms / extracted.wall_ms;
    let speedup = imperative.sim_us / extracted.sim_us;
    let record = Json::Obj(vec![
        ("rows".into(), Json::int(rows as i64)),
        ("pages".into(), Json::int(pages as i64)),
        ("frames".into(), Json::int(FRAMES as i64)),
        ("imperative".into(), run_json(&imperative)),
        ("extracted".into(), run_json(&extracted)),
        ("speedup_wall".into(), Json::Num(speedup_wall)),
        ("speedup_sim".into(), Json::Num(speedup)),
        (
            "bufpool".into(),
            Json::Obj(vec![
                ("hits".into(), Json::int(pool.hits as i64)),
                ("misses".into(), Json::int(pool.misses as i64)),
                ("evictions".into(), Json::int(pool.evictions as i64)),
                ("hit_rate".into(), Json::Num(pool.hit_rate())),
            ]),
        ),
    ]);
    eprintln!(
        "rows {rows}: {pages} pages, wall-clock speedup {speedup_wall:.2}x \
         (model {speedup:.1}x), bufpool hit rate {:.3} ({} evictions)",
        pool.hit_rate(),
        pool.evictions
    );
    (record, speedup)
}

/// Structural comparison of a freshly generated document against the
/// tracked one: identity fields must match and every size record must
/// carry the same field set. Timings are never compared.
fn check_against_tracked(doc: &Json, tracked_path: &std::path::Path) {
    let text = std::fs::read_to_string(tracked_path)
        .unwrap_or_else(|e| panic!("tracked {} unreadable: {e}", tracked_path.display()));
    let tracked = analysis::json::parse(&text).expect("tracked BENCH_storage.json is valid JSON");
    for key in ["schema_version", "bench", "page_size", "frames"] {
        let a = doc.get(key).map(Json::render);
        let b = tracked.get(key).map(Json::render);
        assert_eq!(a, b, "tracked file diverges on `{key}`");
    }
    let sizes = tracked
        .get("sizes")
        .and_then(Json::as_array)
        .expect("tracked file has a sizes array");
    assert!(!sizes.is_empty(), "tracked file has no size records");
    let fresh = doc.get("sizes").and_then(Json::as_array).unwrap();
    for rec in sizes.iter().chain(fresh) {
        for key in [
            "rows",
            "pages",
            "frames",
            "imperative",
            "extracted",
            "speedup_wall",
            "speedup_sim",
            "bufpool",
        ] {
            assert!(
                rec.get(key).is_some(),
                "size record missing `{key}`: {}",
                rec.render()
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut out_path = "BENCH_storage.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check = true,
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }

    let sizes: &[usize] = if check { &SIZES[..1] } else { &SIZES };
    let mut records = Vec::new();
    let mut speedups = Vec::new();
    for &n in sizes {
        let (rec, speedup) = measure(n);
        records.push(rec);
        speedups.push(speedup);
    }
    if !check {
        for w in speedups.windows(2) {
            assert!(
                w[1] > w[0],
                "extraction speedup must grow with data size: {speedups:?}"
            );
        }
    }

    let doc = Json::Obj(vec![
        ("schema_version".into(), Json::int(1)),
        ("bench".into(), Json::str("storage_scale")),
        (
            "page_size".into(),
            Json::int(storage::page::PAGE_SIZE as i64),
        ),
        ("frames".into(), Json::int(FRAMES as i64)),
        ("sizes".into(), Json::Arr(records)),
    ]);
    let rendered = doc.render();
    analysis::json::parse(&rendered).expect("storage_scale emits valid JSON");

    // The binary lives in target/…; the repo root is CARGO_MANIFEST_DIR/../..
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if check {
        check_against_tracked(&doc, &root.join("BENCH_storage.json"));
        println!("{rendered}");
        eprintln!("storage_scale --check: ok");
    } else {
        std::fs::write(root.join(&out_path), format!("{rendered}\n"))
            .or_else(|_| std::fs::write(&out_path, format!("{rendered}\n")))
            .expect("write bench output");
        eprintln!("wrote {out_path}");
    }
}
