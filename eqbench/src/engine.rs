//! The two executor workloads: `scan-large` reads a paged table many
//! times larger than the buffer pool (Fig. 10's read path); `dml-batch`
//! writes to an in-memory table that fits (the foreach-dml write path).
//! Each times the extracted program (the op) against the original cursor
//! loop (the alt), both through `Interp::call`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use algebra::ra::RaExpr;
use dbms::{Connection, Database, Value};
use eqsql_core::{Extractor, ExtractorOptions};
use interp::{Interp, RtValue};

use crate::stats::{median_of, Rng, Samples, Series, Speed};
use crate::trace::{SpanId, Tracer};
use crate::{alloc, out_dir, repo_root, set_up, Config, Report};

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The first SQL statement the extractor produced.
fn extracted_sql(report: &eqsql_core::ExtractionReport) -> Option<String> {
    report.vars.iter().find_map(|v| v.sql.first().cloned())
}

/// Call `rep` until the window ends: for a traced run, through an
/// untraced half and then a traced one. Returns the untraced half's op
/// timings when a traced half followed.
fn repeat(
    cfg: &Config,
    speed: &mut Speed,
    tr: &mut Tracer,
    mut rep: impl FnMut(&mut Speed, &mut Tracer, SpanId, u64),
) -> Option<Samples> {
    let (untraced, traced) = cfg.halves();
    let mut base = None;
    for (window, on) in [(untraced, false), (traced, true)] {
        if window.is_zero() {
            continue;
        }
        if on {
            base = Some(speed.take().0);
        }
        tr.set_on(on);
        let deadline = Instant::now() + window;
        let mut i = 0u64;
        while Instant::now() < deadline {
            let parent = tr.begin("bench.rep", SpanId::NONE, i);
            rep(speed, tr, parent, i);
            tr.end(parent);
            speed.settle();
            i += 1;
        }
    }
    tr.set_on(false);
    base
}

// ---------------------------------------------------------------------------
// scan-large
// ---------------------------------------------------------------------------

/// The canonical cursor-loop sum, rewritten to one `SELECT SUM(...)`.
const SUM_PROGRAM: &str = r#"
fn total() {
    s = 0;
    for (e in executeQuery("SELECT * FROM emp")) {
        s = s + e.salary;
    }
    return s;
}
"#;

/// Buffer-pool frames: 64 × 4 KiB, a tenth of the table's ~650 pages.
const FRAMES: usize = 64;
/// Rows in the paged `emp`: large enough that every scan evicts, small
/// enough that a 15 s window holds over 200 calls of each program.
const ROWS: usize = 50_000;

/// The page file, removed when the set-up it belongs to is dropped.
struct PageFile(PathBuf);

impl Drop for PageFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

struct Scan {
    db: Database,
    original: imp::ast::Program,
    extracted: imp::ast::Program,
    query: RaExpr,
    expected: i64,
    _file: PageFile,
}

fn scan_setup(cfg: &Config) -> Result<Scan, String> {
    let (rows, frames) = if cfg.tiny { (3_000, 8) } else { (ROWS, FRAMES) };
    let file = PageFile(out_dir().join(format!("scan-large-{}.pages", std::process::id())));
    let store = storage::Store::create(&file.0, frames).map_err(|e| format!("store: {e}"))?;
    let db = dbms::gen::gen_emp_paged(rows, cfg.seed, store);
    db.flush().map_err(|e| format!("flush: {e}"))?;
    let pages = db.store().map_or(0, |s| s.page_count()) as usize;
    if pages <= frames {
        return Err(format!("{pages} pages fit in {frames} frames"));
    }
    let original = imp::parse_and_normalize(SUM_PROGRAM).map_err(|e| format!("{e:?}"))?;
    let report = Extractor::with_options(db.catalog(), ExtractorOptions::default())
        .extract_function(&original, "total");
    let sql = extracted_sql(&report).ok_or("sum loop did not extract")?;
    let query = algebra::parse::parse_sql(&sql).map_err(|e| format!("{sql}: {e}"))?;
    // The reference sum comes straight off the table, not from either
    // program under test.
    let expected = db
        .table("emp")
        .ok_or("no emp table")?
        .scan()
        .map(|row| match row[3] {
            Value::Int(v) => v,
            _ => 0,
        })
        .sum();
    Ok(Scan {
        db,
        original,
        extracted: report.program,
        query,
        expected,
        _file: file,
    })
}

/// Run `program` once on a fresh connection; time only `Interp::call`.
fn call(
    program: &imp::ast::Program,
    db: &Database,
    fname: &str,
    args: Vec<RtValue>,
) -> (Result<RtValue, interp::RtError>, Duration, dbms::Stats) {
    let mut it = Interp::new(program, Connection::new(db.clone()));
    let t0 = Instant::now();
    let v = it.call(fname, args);
    (v, t0.elapsed(), it.conn.stats)
}

pub fn scan_large(cfg: &Config, tr: &mut Tracer) -> Report {
    let mut r = Report::default();
    let mut speed = Speed::sort();
    let st = match set_up(cfg, &mut speed, || scan_setup(cfg)) {
        Ok(st) => st,
        Err(e) => {
            r.fail(format!("set-up: {e}"));
            return r;
        }
    };
    let store = st.db.store().expect("paged database").clone();
    let want = RtValue::int(st.expected);
    let mut pool = Vec::new();
    let mut stats = (dbms::Stats::default(), dbms::Stats::default());
    let base = repeat(cfg, &mut speed, tr, |speed, tr, parent, rep| {
        let before = store.pool_stats();
        let t = tr.begin("interp.call.query", parent, rep);
        let (v, d, q) = call(&st.extracted, &st.db, "total", vec![]);
        tr.end(t);
        let after = store.pool_stats();
        pool.push((
            after.hits - before.hits,
            after.misses - before.misses,
            after.evictions - before.evictions,
        ));
        speed.record(Series::Op, micros(d));
        let t = tr.begin("interp.call.loop", parent, rep);
        let (w, d, l) = call(&st.original, &st.db, "total", vec![]);
        tr.end(t);
        speed.record(Series::Alt, micros(d));
        stats = (q, l);
        for (side, v) in [("extracted", v), ("loop", w)] {
            match v {
                Ok(v) if interp::value::loose_eq(&v, &want) => {}
                other => r.fail(format!("{side} sum {other:?}, want {}", st.expected)),
            }
        }
        r.attempted += 2;
        if tr.on() {
            scan_layers(&st, &store, tr, parent, rep);
        }
    });
    let mut it = Interp::new(&st.extracted, Connection::new(st.db.clone()));
    let (v, allocs) = alloc::count(|| it.call("total", vec![]));
    r.attempted += 1;
    match v {
        Ok(v) if interp::value::loose_eq(&v, &want) => {}
        other => r.fail(format!("counted sum {other:?}, want {}", st.expected)),
    }
    r.allocs_per_op = allocs as f64;
    if let Some(mut base) = base {
        r.tracing_overhead(&mut base, &mut speed.op);
        let ns = |name| median_of(tr.durations(name));
        let (query_ns, connection_ns) = (ns("interp.call.query"), ns("dbms.connection"));
        let (table_scan_ns, volcano_ns) = (ns("dbms.table_scan"), ns("dbms.volcano"));
        r.layer("storage.scan_ns", ns("storage.scan"));
        r.layer("storage.pages", store.page_count() as f64);
        let (h, m, e) = (
            median_of(pool.iter().map(|p| p.0 as f64)),
            median_of(pool.iter().map(|p| p.1 as f64)),
            median_of(pool.iter().map(|p| p.2 as f64)),
        );
        r.layer("storage.bufpool.hits", h);
        r.layer("storage.bufpool.misses", m);
        r.layer("storage.bufpool.evictions", e);
        r.layer("storage.bufpool.hit_ratio", h / (h + m).max(1.0));
        r.layer("dbms.decode_ns", ns("dbms.decode"));
        r.layer("dbms.table_scan_ns", table_scan_ns);
        r.layer("dbms.volcano_ns", volcano_ns);
        r.layer("dbms.operator_ns", volcano_ns - table_scan_ns);
        r.layer("dbms.connection_ns", connection_ns);
        r.layer("interp.query_overhead_ns", query_ns - connection_ns);
        r.layer("interp.loop_ns", ns("interp.call.loop"));
        r.layer("dbms.loop_transfer.rows", stats.1.rows as f64);
        r.layer("dbms.loop_transfer.bytes", stats.1.bytes as f64);
        r.layer("dbms.sim_us.query", stats.0.sim_us);
        r.layer("dbms.sim_us.loop", stats.1.sim_us);
    }
    r.scaled(speed);
    r
}

/// Time each layer of the extracted query's read path on its own.
fn scan_layers(st: &Scan, store: &storage::Store, tr: &mut Tracer, parent: SpanId, rep: u64) {
    let records: Vec<Vec<u8>> = tr.time("storage.scan", parent, rep, || {
        store
            .scan("emp")
            .expect("emp is stored")
            .map(|rec| rec.expect("stored record").1)
            .collect()
    });
    tr.time("dbms.decode", parent, rep, || {
        for record in &records {
            std::hint::black_box(dbms::paged::decode_row(record));
        }
    });
    drop(records);
    tr.time("dbms.table_scan", parent, rep, || {
        std::hint::black_box(st.db.table("emp").expect("emp").scan().count())
    });
    let _ = tr.time("dbms.volcano", parent, rep, || {
        std::hint::black_box(dbms::volcano::execute(&st.query, &st.db, &[]).map(|rel| rel.len()))
    });
    let mut conn = Connection::new(st.db.clone());
    let _ = tr.time("dbms.connection", parent, rep, || {
        std::hint::black_box(conn.execute(&st.query, &[]).map(|rel| rel.len()))
    });
}

// ---------------------------------------------------------------------------
// dml-batch
// ---------------------------------------------------------------------------

/// The three write loops of `examples/corpus`, each with its cursor query
/// (for timing the cursor on its own) and the row-at-a-time statement it
/// issues.
const DML: [(&str, &str, &str); 3] = [
    (
        "give_raise.imp",
        "giveRaise",
        "SELECT * FROM emp WHERE dept = 'eng'",
    ),
    (
        "log_payouts.imp",
        "logPayouts",
        "SELECT * FROM emp WHERE salary >= ?",
    ),
    (
        "purge_low.imp",
        "purgeLow",
        "SELECT * FROM emp WHERE salary < ?",
    ),
];

const ROW_STMT: &str = "UPDATE emp SET salary = ? WHERE id = ?";

/// Rows in `emp`: one row-at-a-time sequence takes about 50 ms.
const DML_ROWS: usize = 3_000;

struct Dml {
    db: Database,
    /// Per loop: original program, batched program, batched statement.
    programs: Vec<(imp::ast::Program, imp::ast::Program, String)>,
    /// Per loop: its cursor query and whether it takes the argument.
    cursors: Vec<(RaExpr, bool)>,
    args: [i64; 3],
}

fn dml_setup(cfg: &Config) -> Result<Dml, String> {
    let dir = repo_root().join("examples/corpus");
    let schema = std::fs::read_to_string(dir.join("schema.sql")).map_err(|e| e.to_string())?;
    let catalog = algebra::ddl::parse_ddl(&schema).map_err(|e| e.to_string())?;
    let rows = if cfg.tiny { 200 } else { DML_ROWS };
    let mut db = dbms::gen::gen_emp(rows, cfg.seed);
    db.create_table(catalog.get("payout").ok_or("no payout table")?.clone());
    let mut programs = Vec::new();
    let mut cursors = Vec::new();
    for (file, fname, cursor) in DML {
        let source = std::fs::read_to_string(dir.join(file)).map_err(|e| e.to_string())?;
        let original = imp::parse_and_normalize(&source).map_err(|e| format!("{e:?}"))?;
        let report = Extractor::with_options(catalog.clone(), ExtractorOptions::default())
            .extract_function(&original, fname);
        if report.loops_rewritten != 1 {
            return Err(format!("{fname} was not batched"));
        }
        let sql = extracted_sql(&report).ok_or(format!("{fname}: no statement"))?;
        programs.push((original, report.program, sql));
        let query = algebra::parse::parse_sql(cursor).map_err(|e| e.to_string())?;
        cursors.push((query, cursor.contains('?')));
    }
    // Salaries are uniform in [30000, 200000): each loop touches about a
    // third of the table.
    let jitter = (cfg.seed % 1000) as i64;
    Ok(Dml {
        db,
        programs,
        cursors,
        args: [100 + jitter, 143_333 + jitter, 86_667 - jitter],
    })
}

/// Run the three loops in order on `db`; returns the final database, the
/// elapsed time of the three `Interp::call`s, and the statements issued.
fn sequence(
    st: &Dml,
    db: Database,
    batched: bool,
    tr: &mut Tracer,
    parent: SpanId,
    rep: u64,
) -> Result<(Database, Duration, u64), String> {
    let mut conn = Connection::new(db);
    let mut elapsed = Duration::ZERO;
    let span = if batched {
        "interp.call.batched"
    } else {
        "interp.call.rows"
    };
    for ((original, rewritten, _), ((_, fname, _), arg)) in
        st.programs.iter().zip(DML.iter().zip(st.args))
    {
        let program = if batched { rewritten } else { original };
        let mut it = Interp::new(program, conn);
        let t = tr.begin(span, parent, rep);
        let t0 = Instant::now();
        let v = it.call(fname, vec![RtValue::int(arg)]);
        elapsed += t0.elapsed();
        tr.end(t);
        v.map_err(|e| format!("{fname}: {e:?}"))?;
        conn = it.conn;
    }
    Ok((conn.db, elapsed, conn.stats.queries))
}

/// A table's rows as a sorted multiset.
fn multiset(db: &Database, table: &str) -> Vec<String> {
    let mut rows: Vec<String> = db
        .table(table)
        .map(|t| t.scan().map(|r| format!("{r:?}")).collect())
        .unwrap_or_default();
    rows.sort();
    rows
}

/// What one repetition measured: the batched and the row-at-a-time
/// sequence times, and the statements the row-at-a-time side issued.
struct Rep {
    batched: Duration,
    rows: Duration,
    statements: u64,
}

/// Run the batched sequence and the row-at-a-time sequence, each on its
/// own fork (forking is untimed), and require equal final tables.
fn dml_rep(st: &Dml, tr: &mut Tracer, parent: SpanId, rep: u64) -> Result<Rep, String> {
    let a = tr.time("dbms.fork", parent, rep, || st.db.fork());
    let (a, batched, _) = sequence(st, a, true, tr, parent, rep)?;
    let b = tr.time("dbms.fork", parent, rep, || st.db.fork());
    let (b, rows, statements) = sequence(st, b, false, tr, parent, rep)?;
    for table in ["emp", "payout"] {
        if multiset(&a, table) != multiset(&b, table) {
            return Err(format!("{table} differs after batched and row-at-a-time"));
        }
    }
    Ok(Rep {
        batched,
        rows,
        statements,
    })
}

pub fn dml_batch(cfg: &Config, tr: &mut Tracer) -> Report {
    let mut r = Report::default();
    let mut speed = Speed::sort();
    // One repetition in each set-up warms up and checks it.
    let setup = || {
        dml_setup(cfg)
            .and_then(|s| dml_rep(&s, &mut Tracer::new(false), SpanId::NONE, 0).map(|_| s))
    };
    let st = match set_up(cfg, &mut speed, setup) {
        Ok(st) => st,
        Err(e) => {
            r.fail(format!("set-up: {e}"));
            return r;
        }
    };
    let mut rng = Rng::new(cfg.seed);
    let mut row_stmts = 0;
    let base = repeat(cfg, &mut speed, tr, |speed, tr, parent, rep| {
        r.attempted += 2;
        match dml_rep(&st, tr, parent, rep) {
            Ok(m) => {
                speed.record(Series::Op, micros(m.batched));
                speed.record(Series::Alt, micros(m.rows));
                row_stmts = m.statements - DML.len() as u64;
            }
            Err(e) => r.fail(e),
        }
        if tr.on() {
            dml_layers(&st, tr, parent, rep, &mut rng);
        }
    });
    let db = st.db.fork();
    let (done, allocs) =
        alloc::count(|| sequence(&st, db, true, &mut Tracer::new(false), SpanId::NONE, 0));
    r.attempted += 1;
    if let Err(e) = done {
        r.fail(format!("counted sequence: {e}"));
    }
    r.allocs_per_op = allocs as f64;
    if let Some(mut base) = base {
        r.tracing_overhead(&mut base, &mut speed.op);
        let ns = |name| median_of(tr.durations(name));
        r.layer("dbms.fork_ns", ns("dbms.fork"));
        r.layer("interp.dml.batched_stmt_ns", ns("interp.dml.batched"));
        r.layer("dbms.cursor_select_ns", ns("dbms.cursor_select"));
        r.layer("interp.dml.row_stmt_ns", ns("interp.dml.row_stmt"));
        r.layer("interp.dml.row_stmts", row_stmts as f64);
    }
    r.scaled(speed);
    r
}

/// Time the statements of each path on their own: the three batched
/// statements, the three cursor queries, and single row updates.
fn dml_layers(st: &Dml, tr: &mut Tracer, parent: SpanId, rep: u64, rng: &mut Rng) {
    let mut db = st.db.fork();
    tr.time("interp.dml.batched", parent, rep, || {
        for ((_, _, sql), arg) in st.programs.iter().zip(st.args) {
            let _ = interp::dml::execute_update(&mut db, sql, &[Value::Int(arg)]);
        }
    });
    let mut conn = Connection::new(st.db.clone());
    tr.time("dbms.cursor_select", parent, rep, || {
        for ((q, takes_arg), arg) in st.cursors.iter().zip(st.args) {
            let params = if *takes_arg {
                vec![Value::Int(arg)]
            } else {
                vec![]
            };
            let _ = std::hint::black_box(conn.execute(q, &params));
        }
    });
    let mut db = st.db.fork();
    let n = db.table("emp").map_or(1, |t| t.len()).max(1);
    for _ in 0..8 {
        let id = rng.below(n) as i64;
        tr.time("interp.dml.row_stmt", parent, rep, || {
            let _ =
                interp::dml::execute_update(&mut db, ROW_STMT, &[Value::Int(1), Value::Int(id)]);
        });
    }
}
