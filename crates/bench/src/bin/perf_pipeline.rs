//! `perf_pipeline` — the tracked end-to-end performance baseline.
//!
//! Sweeps `examples/corpus/*.imp` plus the whole `workloads` crate (wilos,
//! RuBiS, RuBBoS, AcadPortal, matoso, jobportal) through the full pipeline
//! (parse → D-IR → F-IR → rules → SQL → rewrite) and reports
//! per-stage wall time, allocation counts, and peak ee-DAG size. Writes
//! `BENCH_extract.json` at the repo root (see DESIGN.md "Benchmark
//! baseline" for the format and its stability promise).
//!
//! Modes:
//!
//! * default — N runs (`--runs`, default 3) over the full sweep, fastest
//!   run reported, JSON written to `--out` (default `BENCH_extract.json`).
//! * `--check` — one run over the full sweep, JSON printed to stdout and
//!   re-parsed to prove well-formedness. The work it did must equal the
//!   tracked `BENCH_extract.json`'s exactly: `units`, `nodes.peak_dag`
//!   and `rule_cache`. Used by `ci.sh`; never gates on timings or
//!   allocation counts; exit 0 on success.
//! * `--baseline FILE` — embed a previously recorded run (e.g. the
//!   pre-optimization numbers) under `"baseline"` and report the
//!   end-to-end speedup against it.
//!
//! Every mode also times `lint_program` over the same programs, parsed
//! beforehand, and reports the fastest of `--runs` lint sweeps under
//! `"lint"`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use analysis::json::Json;
use eqsql_core::{lint_program, Extractor, ExtractorOptions, StageTimes};
use workloads::sweep::Unit;

#[path = "../../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Counters for one full sweep.
#[derive(Default, Clone, Copy)]
struct Sweep {
    parse_ns: u64,
    stage: StageTimes,
    total_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
    functions: u64,
    loops_rewritten: u64,
}

/// Run every unit once, accumulating per-stage counters.
fn sweep(units: &[Unit]) -> Sweep {
    let mut out = Sweep::default();
    let started = Instant::now();
    let ((), allocs, alloc_bytes) = counting_alloc::measure(|| {
        for u in units {
            let parse_started = Instant::now();
            let program = imp::parse_and_normalize(&u.source)
                .unwrap_or_else(|e| panic!("{} fails to parse: {e}", u.name));
            out.parse_ns += parse_started.elapsed().as_nanos() as u64;
            out.functions += program.functions.len() as u64;
            let report = Extractor::with_options(u.catalog.clone(), ExtractorOptions::default())
                .extract_program(&program);
            out.stage.absorb(&report.stage);
            out.loops_rewritten += report.loops_rewritten as u64;
        }
    });
    out.total_ns = started.elapsed().as_nanos() as u64;
    out.allocs = allocs;
    out.alloc_bytes = alloc_bytes;
    out
}

/// Lint every unit once; `(ns, allocations)` of the `lint_program` calls,
/// parsing excluded.
fn lint_sweep(units: &[Unit]) -> (u64, u64) {
    let programs: Vec<imp::ast::Program> = units
        .iter()
        .map(|u| {
            imp::parse_and_normalize(&u.source)
                .unwrap_or_else(|e| panic!("{} fails to parse: {e}", u.name))
        })
        .collect();
    let opts = ExtractorOptions::default();
    let started = Instant::now();
    let ((), allocs) = counting_alloc::count(|| {
        for (u, program) in units.iter().zip(&programs) {
            std::hint::black_box(lint_program(program, &u.catalog, &opts));
        }
    });
    (started.elapsed().as_nanos() as u64, allocs)
}

fn sweep_json(s: &Sweep, n_units: usize, runs: usize) -> Json {
    Json::Obj(vec![
        ("runs".into(), Json::int(runs as i64)),
        (
            "units".into(),
            Json::Obj(vec![
                ("programs".into(), Json::int(n_units as i64)),
                ("functions".into(), Json::int(s.functions as i64)),
                (
                    "loops_rewritten".into(),
                    Json::int(s.loops_rewritten as i64),
                ),
            ]),
        ),
        (
            "stages_ns".into(),
            Json::Obj(
                std::iter::once(("parse", s.parse_ns))
                    .chain(s.stage.stages())
                    .chain(std::iter::once(("total", s.total_ns)))
                    .map(|(name, ns)| (name.into(), Json::int(ns as i64)))
                    .collect(),
            ),
        ),
        (
            "allocs".into(),
            Json::Obj(vec![
                ("count".into(), Json::int(s.allocs as i64)),
                ("bytes".into(), Json::int(s.alloc_bytes as i64)),
            ]),
        ),
        (
            "nodes".into(),
            Json::Obj(vec![(
                "peak_dag".into(),
                Json::int(s.stage.peak_dag_nodes as i64),
            )]),
        ),
        (
            "rule_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::int(s.stage.rule_cache_hits as i64)),
                ("misses".into(), Json::int(s.stage.rule_cache_misses as i64)),
            ]),
        ),
    ])
}

/// The counters of a sweep that repeat exactly from run to run: the work
/// done, never the time it took.
const WORK: [(&str, &[&str]); 3] = [
    ("units", &["programs", "functions", "loops_rewritten"]),
    ("nodes", &["peak_dag"]),
    ("rule_cache", &["hits", "misses"]),
];

/// Fail, naming the counter, unless each [`WORK`] counter of `doc` equals
/// the tracked file's.
fn check_against_tracked(doc: &Json, tracked_path: &Path) {
    let text = std::fs::read_to_string(tracked_path)
        .unwrap_or_else(|e| panic!("tracked {} unreadable: {e}", tracked_path.display()));
    let tracked = analysis::json::parse(&text).expect("tracked BENCH_extract.json is valid JSON");
    for (group, keys) in WORK {
        for key in keys {
            let value = |d: &Json| d.get(group).and_then(|g| g.get(key)).map(Json::render);
            assert_eq!(
                value(doc),
                value(&tracked),
                "`{group}.{key}` differs from the tracked file"
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut runs = 3usize;
    let mut out_path = "BENCH_extract.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check = true,
            "--runs" => {
                i += 1;
                runs = args[i].parse().expect("--runs N");
            }
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            "--baseline" => {
                i += 1;
                baseline_path = Some(args[i].clone());
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }

    // The binary lives in target/…; the repo root is CARGO_MANIFEST_DIR/../..
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if check {
        runs = 1;
    }
    let units = workloads::sweep::units();

    let mut best: Option<Sweep> = None;
    for r in 0..runs {
        let s = sweep(&units);
        eprintln!(
            "run {}/{}: total {:.1} ms over {} programs",
            r + 1,
            runs,
            s.total_ns as f64 / 1e6,
            units.len()
        );
        if best.is_none() || s.total_ns < best.unwrap().total_ns {
            best = Some(s);
        }
    }
    let best = best.unwrap();
    let lint = (0..runs)
        .map(|_| lint_sweep(&units))
        .min_by_key(|(ns, _)| *ns)
        .expect("at least one run");

    let mut fields = vec![
        ("schema_version".into(), Json::int(1)),
        ("bench".into(), Json::str("perf_pipeline")),
    ];
    let Json::Obj(body) = sweep_json(&best, units.len(), runs) else {
        unreachable!()
    };
    fields.extend(body);
    fields.push((
        "lint".into(),
        Json::Obj(vec![
            ("ns".into(), Json::int(lint.0 as i64)),
            ("allocs".into(), Json::int(lint.1 as i64)),
        ]),
    ));
    if let Some(p) = &baseline_path {
        let text = std::fs::read_to_string(p).expect("baseline file readable");
        let doc = analysis::json::parse(&text).expect("baseline is valid JSON");
        if let Some(base_total) = doc
            .get("stages_ns")
            .and_then(|s| s.get("total"))
            .and_then(|t| t.as_i64())
        {
            let speedup = base_total as f64 / best.total_ns as f64;
            fields.push(("speedup_vs_baseline".into(), Json::Num(speedup)));
        }
        fields.push(("baseline".into(), Json::Raw(doc.render())));
    }
    let doc = Json::Obj(fields).render();

    if check {
        // Prove the emitted document parses back, with its lint line and
        // the tracked work; print it for inspection.
        let parsed = analysis::json::parse(&doc).expect("perf_pipeline emits valid JSON");
        check_against_tracked(&parsed, &root.join("BENCH_extract.json"));
        for key in ["ns", "allocs"] {
            let value = parsed
                .get("lint")
                .and_then(|l| l.get(key))
                .and_then(|v| v.as_i64());
            assert!(
                value.is_some_and(|v| v > 0),
                "perf_pipeline: lint.{key} missing or not a positive integer"
            );
        }
        println!("{doc}");
        eprintln!("perf_pipeline --check: ok");
    } else {
        std::fs::write(root.join(&out_path), format!("{doc}\n"))
            .or_else(|_| std::fs::write(&out_path, format!("{doc}\n")))
            .expect("write bench output");
        eprintln!("wrote {out_path}");
    }
}
