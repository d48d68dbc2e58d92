//! `eqbench` — one seeded command that measures extraction, the paged
//! engine and the service, end to end and layer by layer.
//!
//! ```text
//! eqbench --workload NAME --seed N --seconds S --trace 0|1
//! eqbench --seed N                # every workload, one child process each
//! eqbench --check                 # a tiny run of every workload, traced and not
//! ```
//!
//! A run prints one `workload metric value unit` line per metric and, as
//! its last line, `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! Untraced runs report the end-to-end metrics; traced runs report the
//! per-layer metrics and write their spans to
//! `target/eqbench/trace-<workload>.jsonl`. See README.md.

mod alloc;
mod corpus;
mod engine;
mod extract;
mod http;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use stats::Samples;
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, in the order a full run takes them.
const WORKLOADS: [&str; 5] = [
    "extract-corpus",
    "scan-large",
    "dml-batch",
    "service-cold",
    "service-warm",
];

/// Every per-layer metric and its unit. A traced run prints all of them;
/// a layer the workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("bench.sweep_ns", "ns"),
    ("imp.parse_ns", "ns"),
    ("core.extract_ns", "ns"),
    ("core.lint_ns", "ns"),
    ("core.stage.desugar_ns", "ns"),
    ("core.stage.dir_ns", "ns"),
    ("core.stage.depend_ns", "ns"),
    ("core.stage.rules_ns", "ns"),
    ("core.stage.sqlgen_ns", "ns"),
    ("core.stage.rewrite_ns", "ns"),
    ("core.unattributed_ns", "ns"),
    ("core.rule_cache_hit_ratio", "ratio"),
    ("core.dag_peak_nodes", "count"),
    ("core.loops_rewritten", "count"),
    ("imp.parse_allocs", "count"),
    ("core.extract_allocs", "count"),
    ("storage.scan_ns", "ns"),
    ("storage.pages", "count"),
    ("storage.bufpool.hits", "count"),
    ("storage.bufpool.misses", "count"),
    ("storage.bufpool.evictions", "count"),
    ("storage.bufpool.hit_ratio", "ratio"),
    ("dbms.decode_ns", "ns"),
    ("dbms.table_scan_ns", "ns"),
    ("dbms.volcano_ns", "ns"),
    ("dbms.operator_ns", "ns"),
    ("dbms.connection_ns", "ns"),
    ("interp.query_overhead_ns", "ns"),
    ("interp.loop_ns", "ns"),
    ("dbms.loop_transfer.rows", "count"),
    ("dbms.loop_transfer.bytes", "bytes"),
    ("dbms.sim_us.query", "us_model"),
    ("dbms.sim_us.loop", "us_model"),
    ("dbms.fork_ns", "ns"),
    ("interp.dml.batched_stmt_ns", "ns"),
    ("dbms.cursor_select_ns", "ns"),
    ("interp.dml.row_stmt_ns", "ns"),
    ("interp.dml.row_stmts", "count"),
    ("service.request_parse_ns", "ns"),
    ("service.hit_ns", "ns"),
    ("service.http_overhead_us", "us"),
    ("service.job_ns", "ns"),
    ("service.compute.ddl_ns", "ns"),
    ("service.compute.parse_ns", "ns"),
    ("service.compute.extract_ns", "ns"),
    ("service.compute.lint_ns", "ns"),
    ("service.compute.render_ns", "ns"),
    ("service.scheduler_overhead_ns", "ns"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.op_p99_us", "us"),
    ("loadgen.capacity_rps", "1/s"),
    ("service.cache.hits", "count"),
    ("service.cache.misses", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.jobs.submitted", "count"),
    ("service.jobs.rejected", "count"),
    ("service.admission.shed", "count"),
    ("service.stage_ns.desugar", "ns"),
    ("service.stage_ns.dir", "ns"),
    ("service.stage_ns.rules", "ns"),
    ("service.stage_ns.sqlgen", "ns"),
    ("service.stage_ns.rewrite", "ns"),
    ("tracing_overhead_frac", "frac"),
];

/// How one run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// The measured window.
    pub window: Duration,
    pub trace: bool,
    /// Tiny inputs, one set-up: the `--check` smoke run.
    pub tiny: bool,
}

impl Config {
    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.tiny {
            1
        } else {
            9
        }
    }

    /// The window split for a traced run: an untraced half, then a traced
    /// half, so the two can be compared.
    pub fn halves(&self) -> (Duration, Duration) {
        if self.trace {
            (self.window / 2, self.window / 2)
        } else {
            (self.window, Duration::ZERO)
        }
    }
}

/// What one workload measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the window (both kinds).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Seconds per set-up.
    pub setup: Samples,
    /// Latency of the workload's primary operation, µs.
    pub op: Samples,
    /// Latency of its companion operation, µs.
    pub alt: Samples,
    /// For timings scaled to the reference speed: the slowdowns applied.
    pub slowdown: Option<Samples>,
    /// Allocations per op, counted in an untimed pass after the window.
    pub allocs_per_op: f64,
    /// Per-layer values of a traced run, by name.
    pub layers: Vec<(&'static str, f64)>,
}

impl Report {
    /// Count a failed operation or check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Take the set-up, op and alt timings from `speed`, already scaled.
    pub fn scaled(&mut self, speed: stats::Speed) {
        self.setup = speed.setup;
        self.op = speed.op;
        self.alt = speed.alt;
        self.slowdown = Some(speed.slowdown);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.layers.push((name, value));
    }

    /// `tracing_overhead_frac`: the traced half's op median against the
    /// untraced half's.
    pub fn tracing_overhead(&mut self, untraced: &mut Samples, traced: &mut Samples) {
        let base = untraced.median();
        if base > 0.0 {
            self.layer("tracing_overhead_frac", traced.median() / base - 1.0);
        }
    }
}

/// Set up `cfg.setups()` times, timing each into `speed`; keep the last.
pub fn set_up<T>(
    cfg: &Config,
    speed: &mut stats::Speed,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut state = None;
    for _ in 0..cfg.setups() {
        drop(state.take());
        let t0 = std::time::Instant::now();
        state = Some(setup()?);
        speed.record(stats::Series::Setup, t0.elapsed().as_secs_f64());
        speed.settle();
    }
    state.ok_or_else(|| "no set-up".to_string())
}

/// The repository root: the benchmark reads the example corpus from it
/// and writes under its `target/eqbench`.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

pub fn out_dir() -> PathBuf {
    let dir = repo_root().join("target/eqbench");
    std::fs::create_dir_all(&dir).expect("create target/eqbench");
    dir
}

fn run_workload(name: &str, cfg: &Config) -> Report {
    let mut tracer = Tracer::new(false);
    let mut report = match name {
        "extract-corpus" => extract::run(cfg, &mut tracer),
        "scan-large" => engine::scan_large(cfg, &mut tracer),
        "dml-batch" => engine::dml_batch(cfg, &mut tracer),
        "service-cold" => serve::run(cfg, &mut tracer, serve::Mix::Cold),
        "service-warm" => serve::run(cfg, &mut tracer, serve::Mix::Warm),
        other => unreachable!("unknown workload {other}"),
    };
    if cfg.trace && !cfg.tiny {
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            report.fail(format!("write {}: {e}", path.display()));
        }
    }
    report
}

/// Print the metric lines and the result object; returns whether every
/// check passed.
fn emit(name: &str, cfg: &Config, mut r: Report) -> bool {
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if cfg.trace {
        for (metric, unit) in PER_LAYER {
            let v = r
                .layers
                .iter()
                .rev()
                .find(|(n, _)| n == metric)
                .map_or(0.0, |(_, v)| *v);
            metrics.push((metric.to_string(), v, unit.to_string()));
        }
    } else {
        metrics.push(("setup_s".into(), r.setup.median(), "s".into()));
        metrics.push(("op_p50_us".into(), r.op.median(), "us".into()));
        metrics.push(("alt_p50_us".into(), r.alt.median(), "us".into()));
        metrics.push(("peak_rss_mb".into(), stats::peak_rss_mb(), "MB".into()));
        metrics.push(("allocs_per_op".into(), r.allocs_per_op, "count".into()));
        if let Some(s) = &mut r.slowdown {
            eprintln!(
                "{name} timings scaled to reference speed: median slowdown {} of {} applied",
                s.median(),
                s.len()
            );
        }
    }
    for f in &r.failures {
        eprintln!("{name}: FAILED {f}");
    }
    for (metric, v, unit) in &metrics {
        println!("{name} {metric} {v} {unit}");
    }
    if !cfg.trace {
        for (label, s) in [("op", &mut r.op), ("alt", &mut r.alt)] {
            let tail = s
                .tail()
                .map_or("none".to_string(), |(p, v)| format!("p{p}={v}us"));
            eprintln!("{name} {label}: {} samples, tail {tail}", s.len());
        }
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = r.failed == 0 && r.attempted > 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{m}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
        })
        .collect();
    // The result object needs at least one attempt; a run that attempted
    // nothing is already not correct.
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted.max(1),
        r.failed,
        body.join(",")
    );
    correct
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--check" => a.check = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

/// Run every workload in its own child process, so each has its own peak
/// RSS, and gather their result objects into `target/eqbench/results.json`.
fn run_all(a: &Args) -> bool {
    let exe = std::env::current_exe().expect("current_exe");
    let mut ok = true;
    let mut results = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run workload child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("null").to_string();
        ok &= out.status.success();
        results.push(format!("\"{w}\":{last}"));
    }
    let doc = format!(
        "{{\"seed\":{},\"seconds\":{},\"trace\":{},\"workloads\":{{{}}}}}\n",
        a.seed,
        a.seconds,
        a.trace,
        results.join(",")
    );
    let path = out_dir().join("results.json");
    std::fs::write(&path, doc).expect("write results.json");
    eprintln!("wrote {}", path.display());
    ok
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eqbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if a.check {
        let mut ok = true;
        for w in WORKLOADS {
            for trace in [false, true] {
                let cfg = Config {
                    seed: a.seed,
                    window: Duration::from_millis(300),
                    trace,
                    tiny: true,
                };
                ok &= emit(w, &cfg, run_workload(w, &cfg));
            }
        }
        ok
    } else if let Some(w) = &a.workload {
        let cfg = Config {
            seed: a.seed,
            window: Duration::from_secs_f64(a.seconds),
            trace: a.trace,
            tiny: false,
        };
        emit(w, &cfg, run_workload(w, &cfg))
    } else {
        run_all(&a)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
