//! `extract-corpus`: Table 1's cost as a library caller sees it.
//!
//! One thread sweeps the whole program set in a seeded order, timing
//! `imp::parse_and_normalize` + `Extractor::extract_program` per program
//! (the op) and, in alternate sweeps, parse + `lint_program` (the alt).
//! Stresses `imp`, `core` and `analysis`; bypasses storage, dbms and the
//! service.

use std::time::{Duration, Instant};

use eqsql_core::{lint_program, Extractor, ExtractorOptions, StageTimes};

use crate::corpus::{all_units, Unit};
use crate::stats::{median_of, Rng, Series, Speed};
use crate::trace::{SpanId, Tracer};
use crate::{alloc, repo_root, set_up, Config, Report};

/// What each program must render to, fixed at set-up.
struct Reference {
    extract_doc: String,
    loops_rewritten: usize,
    lint_doc: String,
}

struct State {
    units: Vec<Unit>,
    refs: Vec<Reference>,
}

fn setup(tiny: bool) -> State {
    let mut units = all_units(&repo_root());
    if tiny {
        units.truncate(12);
    }
    let opts = ExtractorOptions::default();
    let refs = units
        .iter()
        .map(|u| {
            let program = imp::parse_and_normalize(&u.source)
                .unwrap_or_else(|e| panic!("{} fails to parse: {e:?}", u.name));
            let report =
                Extractor::with_options(u.catalog.clone(), opts.clone()).extract_program(&program);
            let diags = lint_program(&program, &u.catalog, &opts);
            Reference {
                extract_doc: report.render_json(&u.source),
                loops_rewritten: report.loops_rewritten,
                lint_doc: analysis::diag::render_json(&diags, &u.source),
            }
        })
        .collect();
    State { units, refs }
}

/// Sweep until `window` ends, recording each program's time into
/// `speed`. Returns, per traced extract sweep, the summed stage counters
/// and the loops rewritten.
fn measure(
    st: &State,
    window: Duration,
    rng: &mut Rng,
    speed: &mut Speed,
    tr: &mut Tracer,
    r: &mut Report,
) -> Vec<(StageTimes, usize)> {
    let opts = ExtractorOptions::default();
    let mut sweeps = Vec::new();
    let mut order: Vec<usize> = (0..st.units.len()).collect();
    let deadline = Instant::now() + window;
    let mut round = 0usize;
    while Instant::now() < deadline {
        rng.shuffle(&mut order);
        // One program per sweep, rotating, has its rendered document
        // compared with the set-up reference.
        let checked = order[round % order.len()];

        let sweep = tr.begin("bench.sweep", SpanId::NONE, round as u64);
        let mut stage = StageTimes::default();
        let mut loops = 0;
        for &i in &order {
            let u = &st.units[i];
            let t0 = Instant::now();
            let program = tr.time("imp.parse", sweep, i as u64, || {
                imp::parse_and_normalize(&u.source).expect("parsed at set-up")
            });
            let report = tr.time("core.extract", sweep, i as u64, || {
                Extractor::with_options(u.catalog.clone(), opts.clone()).extract_program(&program)
            });
            speed.record(Series::Op, t0.elapsed().as_secs_f64() * 1e6);
            stage.absorb(&report.stage);
            loops += report.loops_rewritten;
            if report.loops_rewritten != st.refs[i].loops_rewritten
                || (i == checked && report.render_json(&u.source) != st.refs[i].extract_doc)
            {
                r.fail(format!("{}: extraction differs from set-up", u.name));
            }
        }
        tr.end(sweep);
        if tr.on() {
            sweeps.push((stage, loops));
        }

        let sweep = tr.begin("bench.lint_sweep", SpanId::NONE, round as u64);
        for &i in &order {
            let u = &st.units[i];
            let t0 = Instant::now();
            let program = tr.time("imp.parse", sweep, i as u64, || {
                imp::parse_and_normalize(&u.source).expect("parsed at set-up")
            });
            let diags = tr.time("core.lint", sweep, i as u64, || {
                lint_program(&program, &u.catalog, &opts)
            });
            speed.record(Series::Alt, t0.elapsed().as_secs_f64() * 1e6);
            if i == checked && analysis::diag::render_json(&diags, &u.source) != st.refs[i].lint_doc
            {
                r.fail(format!("{}: lint differs from set-up", u.name));
            }
        }
        tr.end(sweep);
        r.attempted += 2 * order.len() as u64;
        speed.settle();
        round += 1;
    }
    sweeps
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Report {
    let mut r = Report::default();
    let mut speed = Speed::sort();
    let st = match set_up(cfg, &mut speed, || Ok(setup(cfg.tiny))) {
        Ok(st) => st,
        Err(e) => {
            r.fail(format!("set-up: {e}"));
            return r;
        }
    };
    let mut rng = Rng::new(cfg.seed);
    let (untraced, traced) = cfg.halves();
    measure(&st, untraced, &mut rng, &mut speed, tr, &mut r);
    let (parse_allocs, extract_allocs) = count_allocs(&st);
    r.allocs_per_op = (parse_allocs + extract_allocs) as f64 / st.units.len() as f64;
    if cfg.trace {
        let (mut base, _) = speed.take();
        tr.set_on(true);
        let sweeps = measure(&st, traced, &mut rng, &mut speed, tr, &mut r);
        tr.set_on(false);
        r.tracing_overhead(&mut base, &mut speed.op);
        layers(&sweeps, tr, &mut r);
        r.layer("imp.parse_allocs", parse_allocs as f64);
        r.layer("core.extract_allocs", extract_allocs as f64);
    }
    r.scaled(speed);
    r
}

/// One more extract sweep, untimed, under the counting allocator: the
/// allocations of parsing and of extraction over the whole program set.
fn count_allocs(st: &State) -> (u64, u64) {
    let (mut parse_allocs, mut extract_allocs) = (0, 0);
    for u in &st.units {
        let (program, n) = alloc::count(|| imp::parse_and_normalize(&u.source));
        parse_allocs += n;
        let program = program.expect("parsed at set-up");
        let (_, n) = alloc::count(|| {
            Extractor::with_options(u.catalog.clone(), ExtractorOptions::default())
                .extract_program(&program)
        });
        extract_allocs += n;
    }
    (parse_allocs, extract_allocs)
}

fn layers(sweeps: &[(StageTimes, usize)], tr: &Tracer, r: &mut Report) {
    let extract = tr.child_sums("bench.sweep", "core.extract");
    r.layer("bench.sweep_ns", median_of(tr.durations("bench.sweep")));
    r.layer(
        "imp.parse_ns",
        median_of(tr.child_sums("bench.sweep", "imp.parse")),
    );
    r.layer("core.extract_ns", median_of(extract.iter().copied()));
    r.layer(
        "core.lint_ns",
        median_of(tr.child_sums("bench.lint_sweep", "core.lint")),
    );
    let stage = |f: fn(&StageTimes) -> u64| median_of(sweeps.iter().map(|(s, _)| f(s) as f64));
    r.layer("core.stage.desugar_ns", stage(|s| s.desugar_ns));
    r.layer("core.stage.dir_ns", stage(|s| s.dir_ns));
    r.layer("core.stage.depend_ns", stage(|s| s.depend_ns));
    r.layer("core.stage.rules_ns", stage(|s| s.rules_ns));
    r.layer("core.stage.sqlgen_ns", stage(|s| s.sqlgen_ns));
    r.layer("core.stage.rewrite_ns", stage(|s| s.rewrite_ns));
    r.layer(
        "core.unattributed_ns",
        median_of(
            extract
                .iter()
                .zip(sweeps)
                .map(|(e, (s, _))| e - s.total_ns() as f64),
        ),
    );
    if let Some((s, loops)) = sweeps.last() {
        let lookups = (s.rule_cache_hits + s.rule_cache_misses).max(1);
        r.layer(
            "core.rule_cache_hit_ratio",
            s.rule_cache_hits as f64 / lookups as f64,
        );
        r.layer("core.dag_peak_nodes", s.peak_dag_nodes as f64);
        r.layer("core.loops_rewritten", *loops as f64);
    }
}
