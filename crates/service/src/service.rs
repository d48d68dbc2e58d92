//! The extraction service: scheduler + result cache behind one façade.
//!
//! [`ExtractionService`] is the shared engine of both `eqsql serve` (each
//! HTTP request becomes one scheduler job) and `eqsql batch` (each corpus
//! file becomes one job). A request is looked up in the content-addressed
//! cache first; on a miss the computation becomes one scheduler job that
//! renders its deterministic JSON document, and the document is cached
//! for replay. Cache status is reported to the caller so transports can
//! expose it (the HTTP layer sets an `X-Eqsql-Cache: hit|miss` header —
//! the body is byte-identical either way, which is the whole point).
//!
//! There is one job path. The event loop's `extract_async`/`lint_async`
//! pass a callback that receives every outcome; the blocking
//! `extract`/`lint` are the same call plus a channel to wait on.
//!
//! Each parsed schema is kept too: a second, bounded cache maps the DDL
//! text to its `Catalog`, so the requests of one application, which share
//! a schema, parse it once between them. A schema that fails to parse is
//! never cached.

use std::borrow::Cow;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use algebra::ddl::parse_ddl;
use algebra::schema::Catalog;
use analysis::json::{Json, JsonError};
use eqsql_core::{lint_program, Extractor, ExtractorOptions};

use crate::admission::Quota;
use crate::cache::{CacheKey, CacheStats, ResultCache, ShardedCache};
use crate::scheduler::{JobResult, Scheduler, SchedulerConfig, SchedulerStats};

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Extraction worker threads.
    pub workers: usize,
    /// Bounded job-queue capacity (backpressure depth).
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Result-cache shard count (clamped to ≥ 1). Sharding bounds lock
    /// contention between the event-loop thread and the workers; the key →
    /// shard mapping is deterministic for a given count.
    pub cache_shards: usize,
    /// Per-job deadline; `None` = unbounded. A job still queued when it
    /// passes never runs and the request is answered with a timeout (504
    /// over HTTP); a job that has started runs to the end.
    pub job_timeout: Option<Duration>,
    /// Per-tenant admission quota (token bucket); rate 0 never sheds.
    pub quota: Quota,
    /// Serve HTTP/1.1 keep-alive (persistent connections + pipelining).
    /// When false every response carries `Connection: close`.
    pub keep_alive: bool,
    /// Close a connection idle (no read/write progress) this long.
    pub idle_timeout: Duration,
    /// Close a connection whose peer stalls reading our response bytes
    /// this long.
    pub write_timeout: Duration,
    /// Render `/metrics` with wall-clock stage timings zeroed, so a fixed
    /// request sequence produces a byte-stable document (golden tests).
    pub deterministic_metrics: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: SchedulerConfig::default().workers,
            queue_capacity: 64,
            cache_entries: 256,
            cache_shards: 8,
            job_timeout: Some(Duration::from_secs(30)),
            quota: Quota::unlimited(),
            keep_alive: true,
            idle_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            deterministic_metrics: false,
        }
    }
}

/// What the caller did wrong (or what gave out), mapped by the HTTP layer
/// onto status codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Malformed request: bad JSON, unparsable program or DDL, unknown
    /// function/dialect. → 400.
    BadRequest(String),
    /// The job hit its deadline. → 504.
    Timeout,
    /// The scheduler refused the job (queue full / shutting down). → 503.
    Overloaded(String),
    /// The extraction pipeline panicked. → 500.
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::Timeout => f.write_str("extraction timed out"),
            ServiceError::Overloaded(m) => write!(f, "overloaded: {m}"),
            ServiceError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

/// Whether a response came from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the result cache.
    Hit,
    /// Computed by a scheduler job (and now cached).
    Miss,
}

impl CacheStatus {
    /// Wire form for the `X-Eqsql-Cache` header.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }
}

/// One extraction/lint request: everything that determines the output.
#[derive(Debug, Clone)]
pub struct ExtractRequest {
    /// The `imp` program text.
    pub source: String,
    /// `CREATE TABLE` DDL for the schema catalog (may be empty).
    pub schema: String,
    /// Restrict to one function; `None` covers every function.
    pub function: Option<String>,
    /// Extractor options.
    pub options: ExtractorOptions,
}

impl ExtractRequest {
    /// Parse the JSON request body accepted by `POST /extract` and
    /// `POST /lint`:
    ///
    /// ```json
    /// {"source": "fn f() { … }",
    ///  "schema": "CREATE TABLE …;",
    ///  "function": "f",
    ///  "options": {"dialect": "postgres", "ordered": true,
    ///              "require_all_vars": true, "rewrite_prints": false,
    ///              "dependent_agg": false, "prefer_lateral": false,
    ///              "certify": false}}
    /// ```
    ///
    /// Only `source` is required; everything else defaults.
    pub fn from_json(body: &str) -> Result<ExtractRequest, ServiceError> {
        let mut doc = analysis::json::parse(body)
            .map_err(|e: JsonError| ServiceError::BadRequest(format!("invalid JSON: {e}")))?;
        // The strings are moved out of the parsed document, not copied.
        let bad = |m: &str| ServiceError::BadRequest(m.into());
        let source = match doc.take("source") {
            Some(Json::Str(s)) => s,
            _ => return Err(bad("missing string field `source`")),
        };
        let schema = match doc.take("schema") {
            None | Some(Json::Null) => String::new(),
            Some(Json::Str(s)) => s,
            Some(_) => return Err(bad("`schema` must be a string")),
        };
        let function = match doc.take("function") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s),
            Some(_) => return Err(bad("`function` must be a string")),
        };
        let mut options = ExtractorOptions::default();
        if let Some(o) = doc.get("options") {
            let flag = |name: &str, dflt: bool| -> Result<bool, ServiceError> {
                match o.get(name) {
                    None | Some(Json::Null) => Ok(dflt),
                    Some(v) => v.as_bool().ok_or_else(|| {
                        ServiceError::BadRequest(format!("options.{name} must be a boolean"))
                    }),
                }
            };
            options.ordered = flag("ordered", options.ordered)?;
            options.require_all_vars = flag("require_all_vars", options.require_all_vars)?;
            options.rewrite_prints = flag("rewrite_prints", options.rewrite_prints)?;
            options.dependent_agg = flag("dependent_agg", options.dependent_agg)?;
            options.prefer_lateral = flag("prefer_lateral", options.prefer_lateral)?;
            options.certify = flag("certify", options.certify)?;
            if let Some(d) = o.get("dialect") {
                let name = d.as_str().ok_or_else(|| {
                    ServiceError::BadRequest("options.dialect must be a string".into())
                })?;
                options.dialect = crate::parse_dialect(name)
                    .ok_or_else(|| ServiceError::BadRequest(format!("unknown dialect {name}")))?;
            }
        }
        Ok(ExtractRequest {
            source,
            schema,
            function,
            options,
        })
    }

    /// The cache-key parts shared by both endpoints (an endpoint tag is
    /// prepended by the caller so `/extract` and `/lint` never collide).
    fn key(&self, endpoint: &str) -> CacheKey {
        CacheKey::derive(&[
            endpoint,
            &self.source,
            &self.schema,
            self.function.as_deref().unwrap_or(""),
            &self.options.fingerprint(),
        ])
    }
}

/// Parsed schemas kept by [`ExtractionService`]. A fixed bound: an
/// application has a handful of schemas, and a catalog is small.
const CATALOG_ENTRIES: usize = 64;

/// The parsed-schema cache the scheduler jobs share.
type Catalogs = ResultCache<Catalog>;

/// A request's computation, run inside a scheduler job.
type Compute = fn(&ExtractRequest, &Catalogs) -> Result<ComputeOutput, ServiceError>;

/// Scheduler + caches. See the module docs.
pub struct ExtractionService {
    scheduler: Scheduler,
    cache: Arc<ShardedCache<String>>,
    catalogs: Arc<Catalogs>,
    config: ServiceConfig,
    stages: Arc<crate::metrics::StageCounters>,
    lints: Arc<crate::metrics::LintCounters>,
}

impl ExtractionService {
    /// Spawn the worker pool and allocate the cache.
    pub fn new(config: ServiceConfig) -> ExtractionService {
        ExtractionService {
            scheduler: Scheduler::new(SchedulerConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
            }),
            cache: Arc::new(ShardedCache::new(config.cache_entries, config.cache_shards)),
            catalogs: Arc::new(ResultCache::new(CATALOG_ENTRIES)),
            config,
            stages: Arc::new(crate::metrics::StageCounters::default()),
            lints: Arc::new(crate::metrics::LintCounters::default()),
        }
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The underlying scheduler, for transports that dispatch their own
    /// jobs (the HTTP event loop runs `/fuzz` through it).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Scheduler counters (for `/metrics`).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Cache counters aggregated across shards (for `/metrics`).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Parsed-schema cache counters (for `/metrics`).
    pub fn catalog_cache_stats(&self) -> CacheStats {
        self.catalogs.stats()
    }

    /// Per-shard cache hit counters (for `/metrics`).
    pub fn cache_shard_hits(&self) -> Vec<u64> {
        self.cache.shard_hits()
    }

    /// Per-stage extraction counters (for `/metrics`). Only jobs that
    /// actually ran contribute; cache hits add nothing.
    pub fn stage_counters(&self) -> &crate::metrics::StageCounters {
        &self.stages
    }

    /// Lifetime per-code diagnostic counters (for `/metrics`). Only jobs
    /// that actually ran contribute; cache hits add nothing.
    pub fn lint_counters(&self) -> &crate::metrics::LintCounters {
        &self.lints
    }

    /// Serve an extraction: cache lookup, then a scheduler job on a miss,
    /// waited for. The returned document is `ExtractionReport::render_json`
    /// output. A full queue is [`ServiceError::Overloaded`], not a wait.
    pub fn extract(
        &self,
        req: &ExtractRequest,
    ) -> Result<(Arc<String>, CacheStatus), ServiceError> {
        self.wait_for(req, "extract", compute_extract)
    }

    /// Serve a lint run: cache lookup, then a scheduler job on a miss,
    /// waited for.
    pub fn lint(&self, req: &ExtractRequest) -> Result<(Arc<String>, CacheStatus), ServiceError> {
        self.wait_for(req, "lint", compute_lint)
    }

    /// [`ExtractionService::cached_async`] plus a channel.
    fn wait_for(&self, req: &ExtractRequest, endpoint: &str, compute: Compute) -> Served {
        let (tx, rx) = mpsc::sync_channel(1);
        self.cached_async(Cow::Borrowed(req), endpoint, compute, move |r| {
            let _ = tx.send(r);
        });
        rx.recv().expect("cached_async delivers every outcome")
    }

    /// Serve an extraction without blocking the caller: the outcome is
    /// delivered to `done` — synchronously, from the calling thread, on a
    /// cache hit or a refused submission; from a worker thread otherwise.
    ///
    /// This is the event loop's path: the loop dispatches the request and
    /// returns to polling; `done` typically queues the response bytes and
    /// nudges the wakeup pipe.
    pub fn extract_async(
        &self,
        req: ExtractRequest,
        done: impl FnOnce(Result<(Arc<String>, CacheStatus), ServiceError>) + Send + 'static,
    ) {
        self.cached_async(Cow::Owned(req), "extract", compute_extract, done);
    }

    /// Serve a lint run without blocking the caller; see
    /// [`ExtractionService::extract_async`].
    pub fn lint_async(
        &self,
        req: ExtractRequest,
        done: impl FnOnce(Result<(Arc<String>, CacheStatus), ServiceError>) + Send + 'static,
    ) {
        self.cached_async(Cow::Owned(req), "lint", compute_lint, done);
    }

    /// The one job path: a cache hit answers at once; a miss becomes a
    /// scheduler job whose every outcome, a refusal included, reaches
    /// `done` exactly once. A borrowed request is copied only on a miss.
    fn cached_async(
        &self,
        req: Cow<'_, ExtractRequest>,
        endpoint: &str,
        compute: Compute,
        done: impl FnOnce(Served) + Send + 'static,
    ) {
        let key = req.key(endpoint);
        if let Some(doc) = self.cache.get(&key) {
            return done(Ok((doc, CacheStatus::Hit)));
        }
        let req = req.into_owned();
        let catalogs = Arc::clone(&self.catalogs);
        let cache = Arc::clone(&self.cache);
        let stages = Arc::clone(&self.stages);
        let lints = Arc::clone(&self.lints);
        self.scheduler.submit(
            move || compute(&req, &catalogs),
            self.config.job_timeout,
            move |outcome| {
                done(match outcome {
                    JobResult::Completed(Ok(out)) => {
                        if let Some(times) = &out.stage {
                            stages.absorb(times);
                        }
                        lints.absorb(&out.lints);
                        Ok((cache.put(key, out.doc), CacheStatus::Miss))
                    }
                    JobResult::Completed(Err(e)) => Err(e),
                    JobResult::TimedOut => Err(ServiceError::Timeout),
                    JobResult::Panicked(m) => Err(ServiceError::Internal(m)),
                    JobResult::Rejected(e) => Err(ServiceError::Overloaded(e.to_string())),
                })
            },
        );
    }

    /// Drain in-flight jobs and join the workers.
    pub fn shutdown(self) {
        self.scheduler.shutdown();
    }
}

/// What a request resolves to: the rendered document and its cache
/// status, or the service error.
type Served = Result<(Arc<String>, CacheStatus), ServiceError>;

/// A computed document plus the stage breakdown that produced it (absent
/// for computations that don't run the extraction pipeline) and a per-code
/// tally of the diagnostics it reported (for `eqsql_lint_total`).
struct ComputeOutput {
    doc: String,
    stage: Option<eqsql_core::StageTimes>,
    lints: crate::metrics::LintTally,
}

/// Parse + extract + render; runs inside a scheduler job.
fn compute_extract(
    req: &ExtractRequest,
    catalogs: &Catalogs,
) -> Result<ComputeOutput, ServiceError> {
    let (program, catalog) = parse_inputs(req, catalogs)?;
    let extractor = Extractor::with_options(catalog, req.options.clone());
    let report = match &req.function {
        Some(f) => {
            require_function(&program, f)?;
            extractor.extract_function(&program, f)
        }
        None => extractor.extract_program(&program),
    };
    Ok(ComputeOutput {
        doc: report.render_json(&req.source),
        stage: Some(report.stage),
        lints: crate::metrics::LintCounters::tally(&report.diagnostics),
    })
}

/// Parse + lint + render; runs inside a scheduler job. Document shape:
/// `{"diagnostics":[…],"errors":N,"warnings":N}` with the diagnostics array
/// in `analysis::diag::render_json`'s published layout.
fn compute_lint(req: &ExtractRequest, catalogs: &Catalogs) -> Result<ComputeOutput, ServiceError> {
    use analysis::diag::Severity;
    let (program, catalog) = parse_inputs(req, catalogs)?;
    let mut diags = lint_program(&program, &catalog, &req.options);
    if let Some(f) = &req.function {
        require_function(&program, f)?;
        diags.retain(|d| d.function.as_deref() == Some(f.as_str()));
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    let doc = Json::Obj(vec![
        (
            "diagnostics".into(),
            Json::Raw(analysis::diag::render_json(&diags, &req.source)),
        ),
        ("errors".into(), Json::int(errors as i64)),
        ("warnings".into(), Json::int((diags.len() - errors) as i64)),
    ]);
    Ok(ComputeOutput {
        doc: doc.render(),
        stage: None,
        lints: crate::metrics::LintCounters::tally(&diags),
    })
}

fn parse_inputs(
    req: &ExtractRequest,
    catalogs: &Catalogs,
) -> Result<(imp::ast::Program, Catalog), ServiceError> {
    let program = imp::parse_and_normalize(&req.source).map_err(|e| {
        let (line, col) = imp::token::line_col(&req.source, e.offset);
        ServiceError::BadRequest(format!("source:{line}:{col}: {}", e.message))
    })?;
    let catalog = if req.schema.trim().is_empty() {
        Catalog::new()
    } else {
        catalog_for(&req.schema, catalogs)?
    };
    Ok((program, catalog))
}

/// The catalog of `schema`, parsed once per distinct text while it stays
/// in `catalogs`. The key hashes the whole text, under the result cache's
/// trust model ([`CacheKey`]). Cloning a `Catalog` bumps a reference
/// count.
fn catalog_for(schema: &str, catalogs: &Catalogs) -> Result<Catalog, ServiceError> {
    let key = CacheKey::derive(&["schema", schema]);
    if let Some(catalog) = catalogs.get(&key) {
        return Ok(Catalog::clone(&catalog));
    }
    let catalog =
        parse_ddl(schema).map_err(|e| ServiceError::BadRequest(format!("schema: {e}")))?;
    Ok(Catalog::clone(&catalogs.put(key, catalog)))
}

fn require_function(program: &imp::ast::Program, name: &str) -> Result<(), ServiceError> {
    if program.function(name).is_none() {
        let available: Vec<&str> = program.functions.iter().map(|f| f.name.as_str()).collect();
        return Err(ServiceError::BadRequest(format!(
            "function `{name}` not found; available: {}",
            available.join(", ")
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"fn total() {
        rows = executeQuery("SELECT * FROM emp");
        s = 0;
        for (e in rows) { s = s + e.salary; }
        return s;
    }"#;
    const DDL: &str = "CREATE TABLE emp (id INT PRIMARY KEY, salary INT);";

    fn request() -> ExtractRequest {
        ExtractRequest {
            source: SRC.into(),
            schema: DDL.into(),
            function: None,
            options: ExtractorOptions::default(),
        }
    }

    fn service() -> ExtractionService {
        ExtractionService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            cache_entries: 16,
            job_timeout: Some(Duration::from_secs(10)),
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn extract_misses_then_hits_byte_identically() {
        let svc = service();
        let (a, st_a) = svc.extract(&request()).unwrap();
        let (b, st_b) = svc.extract(&request()).unwrap();
        assert_eq!(st_a, CacheStatus::Miss);
        assert_eq!(st_b, CacheStatus::Hit);
        assert_eq!(*a, *b, "cached replay must be byte-identical");
        assert!(a.contains("\"loops_rewritten\":1"), "{a}");
        let cs = svc.cache_stats();
        assert_eq!((cs.hits, cs.misses), (1, 1));
        // Only the miss scheduled a job.
        assert_eq!(svc.scheduler_stats().submitted, 1);
        svc.shutdown();
    }

    #[test]
    fn option_change_is_a_cache_miss() {
        let svc = service();
        let (_, st1) = svc.extract(&request()).unwrap();
        let mut req2 = request();
        req2.options.dialect = algebra::Dialect::Mysql;
        let (_, st2) = svc.extract(&req2).unwrap();
        assert_eq!((st1, st2), (CacheStatus::Miss, CacheStatus::Miss));
        svc.shutdown();
    }

    #[test]
    fn extract_and_lint_never_share_cache_entries() {
        let svc = service();
        let (_, _) = svc.extract(&request()).unwrap();
        let (doc, st) = svc.lint(&request()).unwrap();
        assert_eq!(st, CacheStatus::Miss, "different endpoint, different key");
        assert!(doc.contains("\"errors\":"), "{doc}");
        svc.shutdown();
    }

    #[test]
    fn bad_inputs_are_rejected_not_cached() {
        let svc = service();
        let mut req = request();
        req.source = "fn broken( {".into();
        let err = svc.extract(&req).unwrap_err();
        assert!(matches!(err, ServiceError::BadRequest(_)), "{err:?}");
        let mut req2 = request();
        req2.function = Some("missing".into());
        let err2 = svc.extract(&req2).unwrap_err();
        assert!(matches!(err2, ServiceError::BadRequest(_)), "{err2:?}");
        assert_eq!(svc.cache_stats().entries, 0);
        svc.shutdown();
    }

    #[test]
    fn one_schema_text_is_parsed_once_and_documents_match_the_uncached_path() {
        let svc = service();
        let first = request();
        let mut second = request();
        second.source = SRC.replace("total", "payroll");
        let (doc_a, _) = svc.extract(&first).unwrap();
        let (doc_b, _) = svc.extract(&second).unwrap();
        let cs = svc.catalog_cache_stats();
        assert_eq!((cs.misses, cs.hits, cs.entries), (1, 1, 1));
        for (req, doc) in [(&first, doc_a), (&second, doc_b)] {
            let program = imp::parse_and_normalize(&req.source).unwrap();
            let uncached = Extractor::with_options(parse_ddl(DDL).unwrap(), req.options.clone())
                .extract_program(&program)
                .render_json(&req.source);
            assert_eq!(*doc, uncached);
        }
        svc.shutdown();
    }

    #[test]
    fn a_bad_schema_is_a_400_every_time_and_never_cached() {
        let svc = service();
        let mut req = request();
        req.schema = "CREATE TABLE emp (id INT PRIMARY KEY,".into();
        for _ in 0..2 {
            let err = svc.extract(&req).unwrap_err();
            assert!(matches!(&err, ServiceError::BadRequest(m) if m.starts_with("schema:")));
        }
        let cs = svc.catalog_cache_stats();
        assert_eq!((cs.misses, cs.hits, cs.entries), (2, 0, 0));
        svc.shutdown();
    }

    #[test]
    fn extract_async_delivers_miss_then_synchronous_hit() {
        use std::sync::mpsc;
        let svc = service();
        let (tx, rx) = mpsc::channel();
        svc.extract_async(request(), move |r| tx.send(r).unwrap());
        let (doc_a, st_a) = rx.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
        assert_eq!(st_a, CacheStatus::Miss);
        // The hit path invokes the callback synchronously on this thread,
        // so the result is available without waiting.
        let (tx2, rx2) = mpsc::channel();
        svc.extract_async(request(), move |r| {
            tx2.send(r).unwrap();
        });
        let (doc_b, st_b) = rx2.try_recv().expect("hit delivers synchronously").unwrap();
        assert_eq!(st_b, CacheStatus::Hit);
        assert_eq!(*doc_a, *doc_b);
        svc.shutdown();
    }

    #[test]
    fn a_full_queue_is_overloaded_on_both_paths() {
        use crate::scheduler::SubmitError;
        use std::sync::mpsc;
        let svc = ExtractionService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        // Hold the one worker, then fill the one queue slot.
        let (started_tx, started) = mpsc::channel();
        let (release_tx, release) = mpsc::channel::<()>();
        let hold = move || {
            started_tx.send(()).unwrap();
            release.recv().unwrap();
        };
        svc.scheduler().submit(hold, None, |_| {});
        started.recv().unwrap();
        svc.scheduler().submit(|| (), None, |_| {});

        let want = ServiceError::Overloaded(SubmitError::QueueFull.to_string());
        assert_eq!(svc.extract(&request()), Err(want.clone()));
        let (tx, rx) = mpsc::channel();
        svc.extract_async(request(), move |r| tx.send(r).unwrap());
        // Delivered before `extract_async` returned, and only once: the
        // callback, and with it the sender, is gone.
        assert_eq!(rx.try_recv(), Ok(Err(want)));
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
        assert_eq!(svc.scheduler_stats().rejected, 2);
        release_tx.send(()).unwrap();
        svc.shutdown();
    }

    #[test]
    fn request_json_parses_fields_and_rejects_bad_types() {
        let body = r#"{"source":"fn f() { return 1; }","schema":null,
                       "function":"f",
                       "options":{"dialect":"mysql","ordered":false}}"#;
        let req = ExtractRequest::from_json(body).unwrap();
        assert_eq!(req.function.as_deref(), Some("f"));
        assert_eq!(req.options.dialect, algebra::Dialect::Mysql);
        assert!(!req.options.ordered);
        assert!(ExtractRequest::from_json("{}").is_err(), "source required");
        assert!(ExtractRequest::from_json(r#"{"source":1}"#).is_err());
        assert!(
            ExtractRequest::from_json(r#"{"source":"x","options":{"dialect":"oracle"}}"#).is_err()
        );
    }
}
