//! Prometheus text-format metrics for the extraction service.
//!
//! [`render`] snapshots the scheduler, cache, and HTTP counters into the
//! [text exposition format] (`text/plain; version=0.0.4`). The metric
//! inventory is a stability promise documented in DESIGN.md: names are
//! append-only, and the rendering order is fixed so `/metrics` output is
//! deterministic for a given counter state — which the golden-file tests
//! rely on.
//!
//! [text exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::CacheStats;
use crate::scheduler::SchedulerStats;

/// Per-endpoint HTTP request counters.
#[derive(Debug, Default)]
pub struct HttpCounters {
    /// `POST /extract` requests.
    pub extract: AtomicU64,
    /// `POST /lint` requests.
    pub lint: AtomicU64,
    /// `GET /healthz` requests.
    pub healthz: AtomicU64,
    /// `GET /metrics` requests.
    pub metrics: AtomicU64,
    /// `POST /fuzz` requests.
    pub fuzz: AtomicU64,
    /// Requests to any other route (404s).
    pub other: AtomicU64,
    /// Responses with a 4xx/5xx status.
    pub errors: AtomicU64,
}

impl HttpCounters {
    fn get(&self, c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

/// Per-stage extraction counters, accumulated only when an extraction
/// actually runs (cache hits replay a stored document and add nothing —
/// the timings describe work done, not requests served).
#[derive(Debug, Default)]
pub struct StageCounters {
    /// Wall time per stage, in the order of
    /// [`eqsql_core::StageTimes::stages`].
    pub stage_ns: [AtomicU64; eqsql_core::STAGE_COUNT],
    /// Largest ee-DAG (in nodes) built by any job so far.
    pub peak_dag_nodes: AtomicU64,
    /// Rule-engine memo hits across all jobs.
    pub rule_cache_hits: AtomicU64,
    /// Rule-engine rewrites actually performed across all jobs.
    pub rule_cache_misses: AtomicU64,
    /// Proof obligations checked by the certifier across all jobs.
    pub obligations_checked: AtomicU64,
}

impl StageCounters {
    /// Fold one job's stage breakdown into the running totals.
    pub fn absorb(&self, t: &eqsql_core::StageTimes) {
        for (c, (_, ns)) in self.stage_ns.iter().zip(t.stages()) {
            c.fetch_add(ns, Ordering::Relaxed);
        }
        self.peak_dag_nodes
            .fetch_max(t.peak_dag_nodes, Ordering::Relaxed);
        self.rule_cache_hits
            .fetch_add(t.rule_cache_hits, Ordering::Relaxed);
        self.rule_cache_misses
            .fetch_add(t.rule_cache_misses, Ordering::Relaxed);
        self.obligations_checked
            .fetch_add(t.obligations_checked, Ordering::Relaxed);
    }
}

/// Differential-fuzzing counters, accumulated across `POST /fuzz` runs.
///
/// Divergences and panics found by the in-service fuzzer are the headline
/// health signal for the extraction rules: both gauges staying at zero
/// across a long-running service is the operational form of the
/// "`eqsql fuzz` completes with zero divergences" guarantee.
#[derive(Debug, Default)]
pub struct FuzzCounters {
    /// Differential test cases executed.
    pub iterations: AtomicU64,
    /// Cases where interpreter and extracted SQL disagreed.
    pub divergences: AtomicU64,
    /// Cases where either side panicked (subset of `divergences`).
    pub panics: AtomicU64,
}

impl FuzzCounters {
    /// Fold one fuzz run's report into the running totals.
    pub fn absorb(&self, iterations: u64, divergences: u64, panics: u64) {
        self.iterations.fetch_add(iterations, Ordering::Relaxed);
        self.divergences.fetch_add(divergences, Ordering::Relaxed);
        self.panics.fetch_add(panics, Ordering::Relaxed);
    }
}

/// Diagnostics per code, positionally aligned with
/// [`analysis::diag::Code::ALL`].
pub type LintTally = [u64; analysis::diag::Code::ALL.len()];

/// Lifetime per-code diagnostic counters (`eqsql_lint_total`), accumulated
/// from every computed extract/lint job. Like [`StageCounters`], cache hits
/// replay a stored document and add nothing — the counters describe
/// analysis work done, not requests served. They are *not* zeroed by
/// `deterministic_metrics`: a fixed request sequence produces fixed counts.
#[derive(Debug)]
pub struct LintCounters {
    counts: [AtomicU64; analysis::diag::Code::ALL.len()],
}

impl Default for LintCounters {
    fn default() -> Self {
        LintCounters {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LintCounters {
    /// Count one diagnostic list into a tally (by `Code::ALL` position).
    pub fn tally(diags: &[analysis::diag::Diagnostic]) -> LintTally {
        let mut t = [0u64; analysis::diag::Code::ALL.len()];
        for d in diags {
            if let Some(i) = analysis::diag::Code::ALL.iter().position(|c| *c == d.code) {
                t[i] += 1;
            }
        }
        t
    }

    /// Fold one job's tally into the running totals.
    pub fn absorb(&self, t: &LintTally) {
        for (c, v) in self.counts.iter().zip(t) {
            c.fetch_add(*v, Ordering::Relaxed);
        }
    }
}

/// The Prometheus content type, exact version string included.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Render every metric. Deterministic for a given snapshot.
///
/// `deterministic` zeroes the wall-clock stage timings and the
/// process-global buffer-pool counters (and only those) so golden-file
/// tests can compare the full document byte-for-byte; the node-count and
/// rule-cache counters are deterministic for a fixed request sequence and
/// render their real values either way.
///
/// `admission` is the per-tenant `(tenant, admitted, shed)` snapshot from
/// [`crate::admission::Admission::snapshot`] (already sorted by tenant);
/// `shard_hits` is the per-shard cache hit counter vector, indexed by
/// shard; `catalogs` counts the parsed-schema cache.
#[allow(clippy::too_many_arguments)]
pub fn render(
    http: &HttpCounters,
    sched: &SchedulerStats,
    cache: &CacheStats,
    shard_hits: &[u64],
    catalogs: &CacheStats,
    admission: &[(String, u64, u64)],
    stages: &StageCounters,
    fuzz: &FuzzCounters,
    lints: &LintCounters,
    deterministic: bool,
) -> String {
    let mut out = String::new();

    let _ = writeln!(
        out,
        "# HELP eqsql_http_requests_total HTTP requests received, by route."
    );
    let _ = writeln!(out, "# TYPE eqsql_http_requests_total counter");
    for (path, c) in [
        ("/extract", &http.extract),
        ("/lint", &http.lint),
        ("/healthz", &http.healthz),
        ("/metrics", &http.metrics),
        ("/fuzz", &http.fuzz),
        ("other", &http.other),
    ] {
        let _ = writeln!(
            out,
            "eqsql_http_requests_total{{path=\"{path}\"}} {}",
            http.get(c)
        );
    }
    counter(
        &mut out,
        "eqsql_http_errors_total",
        "HTTP responses with a 4xx or 5xx status.",
        http.get(&http.errors),
    );

    let _ = writeln!(
        out,
        "# HELP eqsql_admission_admitted_total Requests admitted past the \
         per-tenant quota, by tenant."
    );
    let _ = writeln!(out, "# TYPE eqsql_admission_admitted_total counter");
    for (tenant, admitted, _) in admission {
        let _ = writeln!(
            out,
            "eqsql_admission_admitted_total{{tenant=\"{tenant}\"}} {admitted}"
        );
    }
    let _ = writeln!(
        out,
        "# HELP eqsql_admission_shed_total Requests shed with 429 by the \
         per-tenant quota, by tenant."
    );
    let _ = writeln!(out, "# TYPE eqsql_admission_shed_total counter");
    for (tenant, _, shed) in admission {
        let _ = writeln!(
            out,
            "eqsql_admission_shed_total{{tenant=\"{tenant}\"}} {shed}"
        );
    }

    counter(
        &mut out,
        "eqsql_jobs_submitted_total",
        "Jobs accepted into the scheduler queue.",
        sched.submitted,
    );
    counter(
        &mut out,
        "eqsql_jobs_completed_total",
        "Jobs that ran to completion.",
        sched.completed,
    );
    counter(
        &mut out,
        "eqsql_jobs_timed_out_total",
        "Jobs that hit their deadline before completing.",
        sched.timed_out,
    );
    counter(
        &mut out,
        "eqsql_jobs_panicked_total",
        "Jobs whose closure panicked.",
        sched.panicked,
    );
    counter(
        &mut out,
        "eqsql_jobs_rejected_total",
        "Submissions refused (queue full or shutting down).",
        sched.rejected,
    );
    gauge(
        &mut out,
        "eqsql_scheduler_workers",
        "Worker threads in the pool.",
        sched.workers,
    );
    gauge(
        &mut out,
        "eqsql_scheduler_queue_depth",
        "Jobs queued and not yet running.",
        sched.queue_depth,
    );

    counter(
        &mut out,
        "eqsql_cache_hits_total",
        "Result-cache lookups that found an entry.",
        cache.hits,
    );
    counter(
        &mut out,
        "eqsql_cache_misses_total",
        "Result-cache lookups that found nothing.",
        cache.misses,
    );
    counter(
        &mut out,
        "eqsql_cache_evictions_total",
        "Result-cache entries displaced by LRU eviction.",
        cache.evictions,
    );
    gauge(
        &mut out,
        "eqsql_cache_entries",
        "Result-cache resident entries.",
        cache.entries,
    );
    gauge(
        &mut out,
        "eqsql_cache_capacity",
        "Result-cache maximum entries.",
        cache.capacity,
    );
    let _ = writeln!(
        out,
        "# HELP eqsql_cache_shard_hits_total Result-cache hits, by shard."
    );
    let _ = writeln!(out, "# TYPE eqsql_cache_shard_hits_total counter");
    for (i, hits) in shard_hits.iter().enumerate() {
        let _ = writeln!(out, "eqsql_cache_shard_hits_total{{shard=\"{i}\"}} {hits}");
    }
    counter(
        &mut out,
        "eqsql_catalog_cache_hits_total",
        "Parsed-schema cache lookups that found an entry.",
        catalogs.hits,
    );
    counter(
        &mut out,
        "eqsql_catalog_cache_misses_total",
        "Parsed-schema cache lookups that found nothing.",
        catalogs.misses,
    );

    let _ = writeln!(
        out,
        "# HELP eqsql_stage_ns_total Wall time spent per extraction stage, \
         in nanoseconds (cache hits add nothing)."
    );
    let _ = writeln!(out, "# TYPE eqsql_stage_ns_total counter");
    let names = eqsql_core::StageTimes::default()
        .stages()
        .map(|(name, _)| name);
    for (name, c) in names.into_iter().zip(&stages.stage_ns) {
        let v = if deterministic {
            0
        } else {
            c.load(Ordering::Relaxed)
        };
        let _ = writeln!(out, "eqsql_stage_ns_total{{stage=\"{name}\"}} {v}");
    }
    gauge(
        &mut out,
        "eqsql_dag_peak_nodes",
        "Largest ee-DAG (in nodes) built by any extraction job.",
        stages.peak_dag_nodes.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "eqsql_rule_cache_hits_total",
        "Rule-engine memo hits (subdags skipped as already rewritten).",
        stages.rule_cache_hits.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "eqsql_rule_cache_misses_total",
        "Rule-engine subdag rewrites actually performed.",
        stages.rule_cache_misses.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "eqsql_obligations_checked_total",
        "Proof obligations checked by the rewrite certifier.",
        stages.obligations_checked.load(Ordering::Relaxed),
    );

    counter(
        &mut out,
        "eqsql_fuzz_iterations_total",
        "Differential fuzz cases executed via POST /fuzz.",
        fuzz.iterations.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "eqsql_fuzz_divergences_total",
        "Fuzz cases where the interpreter and the extracted SQL disagreed.",
        fuzz.divergences.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "eqsql_fuzz_panics_total",
        "Fuzz cases where extraction or evaluation panicked.",
        fuzz.panics.load(Ordering::Relaxed),
    );

    // Buffer-pool counters are process-global (every paged store in the
    // process shares them), so like the stage timings they are zeroed in
    // deterministic mode: their values depend on what else ran first.
    let (bp_hits, bp_misses, bp_evictions) = if deterministic {
        (0, 0, 0)
    } else {
        storage::global_counters()
    };
    counter(
        &mut out,
        "eqsql_bufpool_hits_total",
        "Buffer-pool page requests served from a resident frame.",
        bp_hits,
    );
    counter(
        &mut out,
        "eqsql_bufpool_misses_total",
        "Buffer-pool page requests that went to the pager.",
        bp_misses,
    );
    counter(
        &mut out,
        "eqsql_bufpool_evictions_total",
        "Buffer-pool frames evicted to make room for a fetched page.",
        bp_evictions,
    );

    let _ = writeln!(
        out,
        "# HELP eqsql_lint_total Diagnostics emitted by computed extract/lint \
         jobs, by code (cache hits add nothing)."
    );
    let _ = writeln!(out, "# TYPE eqsql_lint_total counter");
    for (code, c) in analysis::diag::Code::ALL.iter().zip(&lints.counts) {
        let _ = writeln!(
            out,
            "eqsql_lint_total{{code=\"{code}\"}} {}",
            c.load(Ordering::Relaxed)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_deterministic_and_well_formed() {
        let http = HttpCounters::default();
        http.extract.store(2, Ordering::Relaxed);
        http.metrics.store(1, Ordering::Relaxed);
        let sched = SchedulerStats {
            submitted: 1,
            completed: 1,
            workers: 4,
            ..Default::default()
        };
        let cache = CacheStats {
            hits: 1,
            misses: 1,
            entries: 1,
            capacity: 256,
            ..Default::default()
        };
        let stages = StageCounters::default();
        stages.stage_ns[1].store(12345, Ordering::Relaxed);
        stages.peak_dag_nodes.store(40, Ordering::Relaxed);
        stages.rule_cache_hits.store(7, Ordering::Relaxed);
        stages.obligations_checked.store(5, Ordering::Relaxed);
        let fuzz = FuzzCounters::default();
        fuzz.absorb(200, 1, 0);
        let lints = LintCounters::default();
        let d = analysis::diag::Diagnostic::new(
            analysis::diag::Code::LoopNotExtracted,
            imp::token::Span::new(0, 1),
            "x",
        );
        lints.absorb(&LintCounters::tally(&[d.clone(), d]));
        let shard_hits = vec![1, 0, 3, 0];
        let catalogs = CacheStats {
            hits: 4,
            misses: 2,
            ..Default::default()
        };
        let admission = vec![("acme".to_string(), 5, 2), ("default".to_string(), 9, 0)];
        let a = render(
            &http,
            &sched,
            &cache,
            &shard_hits,
            &catalogs,
            &admission,
            &stages,
            &fuzz,
            &lints,
            false,
        );
        let b = render(
            &http,
            &sched,
            &cache,
            &shard_hits,
            &catalogs,
            &admission,
            &stages,
            &fuzz,
            &lints,
            false,
        );
        assert_eq!(a, b);
        assert!(a.contains("eqsql_http_requests_total{path=\"/extract\"} 2"));
        assert!(a.contains("eqsql_cache_hits_total 1"));
        assert!(a.contains("eqsql_cache_shard_hits_total{shard=\"2\"} 3"));
        assert!(a.contains("eqsql_catalog_cache_hits_total 4"));
        assert!(a.contains("eqsql_catalog_cache_misses_total 2"));
        assert!(a.contains("eqsql_admission_admitted_total{tenant=\"acme\"} 5"));
        assert!(a.contains("eqsql_admission_shed_total{tenant=\"acme\"} 2"));
        assert!(a.contains("eqsql_admission_admitted_total{tenant=\"default\"} 9"));
        assert!(a.contains("eqsql_admission_shed_total{tenant=\"default\"} 0"));
        assert!(a.contains("eqsql_scheduler_workers 4"));
        assert!(a.contains("eqsql_stage_ns_total{stage=\"dir\"} 12345"));
        assert!(a.contains("eqsql_dag_peak_nodes 40"));
        assert!(a.contains("eqsql_rule_cache_hits_total 7"));
        assert!(a.contains("eqsql_obligations_checked_total 5"));
        assert!(a.contains("eqsql_stage_ns_total{stage=\"certify\"} 0"));
        assert!(a.contains("eqsql_fuzz_iterations_total 200"));
        assert!(a.contains("eqsql_fuzz_divergences_total 1"));
        assert!(a.contains("eqsql_fuzz_panics_total 0"));
        assert!(a.contains("eqsql_bufpool_hits_total"));
        assert!(a.contains("eqsql_bufpool_misses_total"));
        assert!(a.contains("eqsql_bufpool_evictions_total"));
        assert!(a.contains("eqsql_lint_total{code=\"W007\"} 2"));
        assert!(a.contains("eqsql_lint_total{code=\"E001\"} 0"));
        // One line per code, in Code::ALL (wire-string) order.
        assert_eq!(
            a.matches("eqsql_lint_total{code=").count(),
            analysis::diag::Code::ALL.len()
        );
        // Deterministic mode zeroes the timings but keeps the counts.
        let det = render(
            &http,
            &sched,
            &cache,
            &shard_hits,
            &catalogs,
            &admission,
            &stages,
            &fuzz,
            &lints,
            true,
        );
        assert!(det.contains("eqsql_stage_ns_total{stage=\"dir\"} 0"));
        assert!(det.contains("eqsql_bufpool_hits_total 0"));
        assert!(det.contains("eqsql_bufpool_misses_total 0"));
        assert!(det.contains("eqsql_bufpool_evictions_total 0"));
        assert!(det.contains("eqsql_dag_peak_nodes 40"));
        assert!(det.contains("eqsql_rule_cache_hits_total 7"));
        assert!(det.contains("eqsql_lint_total{code=\"W007\"} 2"));
        // Every non-comment line is `name[{labels}] value`.
        for line in a.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "bad value in {line:?}");
        }
    }
}
