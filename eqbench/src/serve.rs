//! `service-cold` and `service-warm`: an in-process `service::Server`
//! driven over HTTP by one generator thread on two keep-alive
//! connections.
//!
//! A run sets up the server, scrapes `/metrics`, offers a fixed rate in an
//! open loop (latency timed from each request's due time), scrapes again
//! and counts the allocations of one op per program, sent one at a time.
//! A traced run then repeats the open loop traced, finds capacity in a
//! closed loop (two connections, pipeline depth 8) and times the
//! service's layers in process. The op is `/extract`, the alt `/lint`,
//! 3:1.
//!
//! * cold — the 158-program sweep, each request made unique by a leading
//!   `// n` comment so every one is a cache miss: extraction jobs and
//!   scheduler queueing.
//! * warm — `loadgen`'s 8 + 4 program pool, fetched once at set-up so
//!   every request in the window is a hit: HTTP, event loop and cache.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use analysis::json::Json;
use eqsql_core::{lint_program, Extractor, ExtractorOptions};
use service::{ExtractRequest, ExtractionService, Server, ServiceConfig};

use crate::corpus::{all_units, render_ddl};
use crate::http::{self, Conn, Response};
use crate::stats::{median_of, Rng, Samples, Series, Speed};
use crate::trace::{SpanId, Tracer};
use crate::{alloc, repo_root, sys, Config, Report};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    Cold,
    Warm,
}

/// Offered rates of the open loop, req/s: about a third of the capacity
/// each mix reached at seed 42 on a 2-vCPU guest (cold: two workers on
/// both cores; warm: the server on one core), so a host slowdown of half
/// still leaves the server short of saturation. Fixed, so that a slower
/// service shows as higher latency rather than as a lower offered load.
const COLD_RATE: f64 = 1_500.0;
const WARM_RATE: f64 = 10_000.0;

/// Requests of the mix each set-up keeps in flight to warm the server up.
const WARMUP: usize = 1000;

/// Requests kept in flight per connection in the capacity phase.
const DEPTH: usize = 8;

/// One request in every this many has its body compared with the
/// in-process result.
const SAMPLE_EVERY: u64 = 32;

/// A scaled open loop runs in segments this long, reading the speed
/// reference between two.
const SEGMENT: Duration = Duration::from_secs(1);

/// loadgen's schema and program pool.
const WARM_SCHEMA: &str =
    "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT);";

fn warm_extract(k: usize) -> String {
    format!(
        "fn total{k}() {{ rows = executeQuery(\"SELECT * FROM emp\"); \
         s = 0; for (e in rows) {{ s = s + e.salary; }} return s; }}"
    )
}

fn warm_lint(k: usize) -> String {
    format!(
        "fn first{k}(t) {{ rows = executeQuery(\"SELECT * FROM emp\"); \
         f = 0; for (e in rows) {{ if (e.salary > t) {{ f = e.id; break; }} }} return f; }}"
    )
}

/// A JSON string literal's contents, without the quotes.
fn escaped(s: &str) -> String {
    let quoted = Json::str(s).render();
    quoted[1..quoted.len() - 1].to_string()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Extract,
    Lint,
}

impl Kind {
    fn path(self) -> &'static str {
        match self {
            Kind::Extract => "/extract",
            Kind::Lint => "/lint",
        }
    }

    fn series(self) -> Series {
        match self {
            Kind::Extract => Series::Op,
            Kind::Lint => Series::Alt,
        }
    }
}

/// Generates the request sequence from the seed.
struct Requests {
    mix: Mix,
    /// Per program: escaped source and escaped schema DDL.
    programs: Vec<(String, String)>,
    rng: Rng,
    /// Distinct `// n` comment for the next cold request.
    serial: u64,
}

impl Requests {
    fn new(mix: Mix, seed: u64, tiny: bool) -> Requests {
        let programs = match mix {
            Mix::Cold => {
                let mut units = all_units(&repo_root());
                if tiny {
                    units.truncate(12);
                }
                units
                    .iter()
                    .map(|u| (escaped(&u.source), escaped(&render_ddl(&u.catalog))))
                    .collect()
            }
            Mix::Warm => (0..8)
                .map(warm_extract)
                .chain((0..4).map(warm_lint))
                .map(|s| (escaped(&s), escaped(WARM_SCHEMA)))
                .collect(),
        };
        Requests {
            mix,
            programs,
            rng: Rng::new(seed),
            serial: 0,
        }
    }

    fn next(&mut self) -> (Kind, String) {
        let kind = if self.rng.below(4) == 0 {
            Kind::Lint
        } else {
            Kind::Extract
        };
        let (source, schema) = match (self.mix, kind) {
            (Mix::Cold, _) => {
                self.serial += 1;
                let (s, d) = &self.programs[self.rng.below(self.programs.len())];
                (format!("// {}\\n{s}", self.serial), d)
            }
            (Mix::Warm, Kind::Extract) => {
                let (s, d) = &self.programs[self.rng.below(8)];
                (s.clone(), d)
            }
            (Mix::Warm, Kind::Lint) => {
                let (s, d) = &self.programs[8 + self.rng.below(4)];
                (s.clone(), d)
            }
        };
        (
            kind,
            format!("{{\"source\":\"{source}\",\"schema\":\"{schema}\"}}"),
        )
    }

    /// One `/extract` body per program the mix extracts, the same set
    /// whatever the seed; cold ones carry fresh `// n` comments.
    fn each_extract(&mut self) -> Vec<String> {
        let n = match self.mix {
            Mix::Cold => self.programs.len(),
            Mix::Warm => 8,
        };
        let mut bodies = Vec::with_capacity(n);
        for (s, d) in &self.programs[..n] {
            let source = match self.mix {
                Mix::Cold => {
                    self.serial += 1;
                    format!("// {}\\n{s}", self.serial)
                }
                Mix::Warm => s.clone(),
            };
            bodies.push(format!("{{\"source\":\"{source}\",\"schema\":\"{d}\"}}"));
        }
        bodies
    }

    /// Every distinct warm request, for pre-warming the cache.
    fn warm_pool(&self) -> Vec<(Kind, String)> {
        self.programs
            .iter()
            .enumerate()
            .map(|(i, (s, d))| {
                let kind = if i < 8 { Kind::Extract } else { Kind::Lint };
                (kind, format!("{{\"source\":\"{s}\",\"schema\":\"{d}\"}}"))
            })
            .collect()
    }
}

/// Where the two sides run.
///
/// A warm request is two thread wake-ups and a few syscalls, so its
/// latency depends on whether the generator and the event loop share a
/// core; the warm mix therefore puts the generator on the first CPU and
/// the server on the rest, the same in every run. A cold request is
/// compute on the workers, which get every CPU, as the generator is idle
/// most of the time.
struct Layout {
    client: Vec<usize>,
    server: Vec<usize>,
}

impl Layout {
    fn new(mix: Mix) -> Layout {
        let mut server = sys::allowed_cpus();
        let client = if mix == Mix::Warm && server.len() > 1 {
            vec![server.remove(0)]
        } else {
            server.clone()
        };
        Layout { client, server }
    }

    /// Run `f` on the server's CPUs; threads it spawns stay there.
    fn on_server<R>(&self, f: impl FnOnce() -> R) -> R {
        // Pinning is best effort: without it the run is only noisier.
        let _ = sys::pin(&self.server);
        let out = f();
        let _ = sys::pin(&self.client);
        out
    }
}

fn config(layout: &Layout) -> ServiceConfig {
    ServiceConfig {
        workers: layout.server.len().max(1),
        queue_capacity: 1024,
        cache_entries: 4096,
        cache_shards: 8,
        job_timeout: Some(Duration::from_secs(30)),
        ..ServiceConfig::default()
    }
}

struct Setup {
    server: Server,
    conns: Vec<Conn>,
    requests: Requests,
    /// An in-process service with the server's configuration: the
    /// reference for sampled bodies and the subject of layer timings.
    local: ExtractionService,
}

fn setup(mix: Mix, cfg: &Config, layout: &Layout) -> Result<Setup, String> {
    let (server, local) = layout.on_server(|| {
        let server = Server::start("127.0.0.1:0", config(layout));
        (server, ExtractionService::new(config(layout)))
    });
    let server = server.map_err(|e| format!("start: {e}"))?;
    let conns = (0..2)
        .map(|_| Conn::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut s = Setup {
        server,
        conns,
        requests: Requests::new(mix, cfg.seed, cfg.tiny),
        local,
    };
    // Warm-up: every warm body once, one at a time (filling the cache),
    // then a short run of the mix kept in flight like the window's load
    // (waking workers and allocator pools).
    if mix == Mix::Warm {
        for (kind, body) in s.requests.warm_pool() {
            let resp = s.conns[0]
                .roundtrip("POST", kind.path(), &body)
                .map_err(|e| format!("warm-up: {e}"))?;
            if resp.status != 200 {
                return Err(format!("warm-up answered {}", resp.status));
            }
            local_call(&s.local, kind, &body).map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    let mix_run: Vec<(Kind, String)> = (0..if cfg.tiny { 8 } else { WARMUP })
        .map(|_| s.requests.next())
        .collect();
    pipelined(&mut s.conns, &mix_run).map_err(|e| format!("warm-up: {e}"))?;
    Ok(s)
}

/// Send `requests` over the connections, [`DEPTH`] in flight on each;
/// every answer must be a 200.
fn pipelined(conns: &mut [Conn], requests: &[(Kind, String)]) -> Result<(), String> {
    let mut next = requests.iter();
    let mut inflight = vec![0usize; conns.len()];
    let mut got = Vec::new();
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        for (c, conn) in conns.iter_mut().enumerate() {
            while inflight[c] < DEPTH {
                let Some((kind, body)) = next.next() else {
                    break;
                };
                conn.queue("POST", kind.path(), body);
                inflight[c] += 1;
            }
            conn.flush().map_err(|e| format!("send: {e}"))?;
        }
        if inflight.iter().all(|&n| n == 0) {
            return Ok(());
        }
        if Instant::now() > give_up {
            return Err("no answer within 60 s".into());
        }
        http::wait(conns, Duration::from_millis(100)).map_err(|e| format!("poll: {e}"))?;
        for (c, conn) in conns.iter_mut().enumerate() {
            conn.read_responses(&mut got)
                .map_err(|e| format!("receive: {e}"))?;
            for resp in got.drain(..) {
                inflight[c] = inflight[c].saturating_sub(1);
                if resp.status != 200 {
                    return Err(format!("answered {}", resp.status));
                }
            }
        }
    }
}

fn local_call(svc: &ExtractionService, kind: Kind, body: &str) -> Result<String, String> {
    let req = ExtractRequest::from_json(body).map_err(|e| e.to_string())?;
    let (doc, _) = match kind {
        Kind::Extract => svc.extract(&req),
        Kind::Lint => svc.lint(&req),
    }
    .map_err(|e| e.to_string())?;
    Ok(doc.to_string())
}

/// What the library itself renders for a request: `render_json` of the
/// extraction for `/extract`, the in-process service's document for
/// `/lint`.
fn expected_body(local: &ExtractionService, kind: Kind, body: &str) -> Result<String, String> {
    if kind == Kind::Lint {
        return local_call(local, kind, body);
    }
    let req = ExtractRequest::from_json(body).map_err(|e| e.to_string())?;
    let catalog = algebra::ddl::parse_ddl(&req.schema).map_err(|e| e.to_string())?;
    let program = imp::parse_and_normalize(&req.source).map_err(|e| format!("{e:?}"))?;
    Ok(Extractor::with_options(catalog, req.options)
        .extract_program(&program)
        .render_json(&req.source))
}

/// A request on the wire.
struct Sent {
    due: Instant,
    kind: Kind,
    /// Kept for sampled requests, to check the response body.
    body: Option<String>,
}

/// Width of the bins the capacity phase counts completions in.
const BIN: Duration = Duration::from_millis(100);

/// What a load phase measured.
#[derive(Default)]
struct Phase {
    /// Closed loop: completions per [`BIN`] since the phase started.
    bins: Vec<u64>,
    /// Open loop: each request's kind and latency in µs, reserved up front
    /// so the generator neither stalls on a reallocation nor inflates
    /// peak RSS.
    latencies: Vec<(Kind, f32)>,
    /// How late the generator sent each open-loop request, µs.
    late: Samples,
    completed: u64,
    /// Sampled `(kind, request body, response body)` triples.
    sampled: Vec<(Kind, String, Vec<u8>)>,
}

impl Phase {
    /// The op and alt latencies as measured.
    fn samples(&self) -> (Samples, Samples) {
        let (mut op, mut alt) = (Samples::default(), Samples::default());
        for &(kind, us) in &self.latencies {
            match kind {
                Kind::Extract => op.push(us as f64),
                Kind::Lint => alt.push(us as f64),
            }
        }
        (op, alt)
    }
}

/// Offer `rate` in an open loop for `window`. With `speed`, in
/// [`SEGMENT`]s, each one's latencies scaled by the reference read after
/// it, with every request answered and the server idle.
fn open_loop(
    s: &mut Setup,
    mix: Mix,
    rate: f64,
    window: Duration,
    mut speed: Option<&mut Speed>,
    tr: &mut Tracer,
    r: &mut Report,
) -> Phase {
    let total = (rate * window.as_secs_f64()) as usize;
    let mut p = Phase {
        latencies: Vec::with_capacity(total),
        late: Samples::with_capacity(total),
        ..Phase::default()
    };
    let mut left = window;
    while !left.is_zero() {
        let segment = match speed {
            Some(_) => left.min(SEGMENT),
            None => left,
        };
        left -= segment;
        let seen = p.latencies.len();
        drive(s, mix, Some(rate), segment, &mut p, tr, r);
        if let Some(speed) = speed.as_deref_mut() {
            for &(kind, us) in &p.latencies[seen..] {
                speed.record(kind.series(), us as f64);
            }
            speed.settle();
        }
    }
    p
}

/// Drive the two connections, adding to `p`. With `rate`, send on an
/// open-loop schedule for `window`; without, keep [`DEPTH`] requests in
/// flight per connection until `window` ends. Either way, wait for every
/// answer.
fn drive(
    s: &mut Setup,
    mix: Mix,
    rate: Option<f64>,
    window: Duration,
    p: &mut Phase,
    tr: &mut Tracer,
    r: &mut Report,
) {
    let start = Instant::now();
    let total = rate.map(|rate| (rate * window.as_secs_f64()) as u64);
    let end = start + window;
    let due = |i: u64| match rate {
        Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
        None => Instant::now(),
    };
    let mut inflight: Vec<VecDeque<Sent>> = vec![VecDeque::new(), VecDeque::new()];
    let mut sent = 0u64;
    let give_up = end + Duration::from_secs(20);
    let mut got = Vec::new();
    loop {
        let now = Instant::now();
        // Send what is due (open loop) or top up the pipelines (closed).
        loop {
            let c = match total {
                Some(_) => (sent % 2) as usize,
                None => usize::from(inflight[1].len() < inflight[0].len()),
            };
            let more = match total {
                Some(total) => sent < total && due(sent) <= now,
                None => now < end && inflight[c].len() < DEPTH,
            };
            if !more {
                break;
            }
            let at = due(sent);
            let (kind, body) = s.requests.next();
            s.conns[c].queue("POST", kind.path(), &body);
            let keep = sent.is_multiple_of(SAMPLE_EVERY);
            inflight[c].push_back(Sent {
                due: at,
                kind,
                body: keep.then_some(body),
            });
            if rate.is_some() {
                p.late
                    .push(now.saturating_duration_since(at).as_secs_f64() * 1e6);
            }
            sent += 1;
        }
        for conn in &mut s.conns {
            if let Err(e) = conn.flush() {
                r.fail(format!("send: {e}"));
                return;
            }
        }
        let pending: usize = inflight.iter().map(VecDeque::len).sum();
        let sending = match total {
            Some(total) => sent < total,
            None => now < end,
        };
        if !sending && pending == 0 {
            break;
        }
        if now > give_up {
            r.attempted += pending as u64;
            r.fail(format!("{pending} requests unanswered"));
            break;
        }
        let timeout = match total {
            Some(total) if sent < total => due(sent).saturating_duration_since(now),
            _ if sending => end.saturating_duration_since(now),
            _ => Duration::from_millis(50),
        };
        if let Err(e) = http::wait(&s.conns, timeout) {
            r.fail(format!("poll: {e}"));
            return;
        }
        for (c, conn) in s.conns.iter_mut().enumerate() {
            if let Err(e) = conn.read_responses(&mut got) {
                r.fail(format!("receive: {e}"));
                return;
            }
            let done = Instant::now();
            for resp in got.drain(..) {
                let Some(req) = inflight[c].pop_front() else {
                    r.fail("response without a request".into());
                    continue;
                };
                let kind = req.kind;
                let due = req.due;
                if !accept(p, mix, req, resp, r) {
                    continue;
                }
                if rate.is_none() {
                    let bin = (done.saturating_duration_since(start).as_nanos() / BIN.as_nanos())
                        as usize;
                    if p.bins.len() <= bin {
                        p.bins.resize(bin + 1, 0);
                    }
                    p.bins[bin] += 1;
                    continue;
                }
                let us = done.saturating_duration_since(due).as_secs_f64() * 1e6;
                p.latencies.push((kind, us as f32));
                let name = match kind {
                    Kind::Extract => "loadgen.extract",
                    Kind::Lint => "loadgen.lint",
                };
                tr.record(name, due, done, p.completed);
            }
        }
    }
}

/// Count an answer; keep its body if the request was sampled. Returns
/// whether it was a 200 with the cache outcome the mix expects.
fn accept(p: &mut Phase, mix: Mix, req: Sent, resp: Response, r: &mut Report) -> bool {
    r.attempted += 1;
    let want_cache = if mix == Mix::Cold { "miss" } else { "hit" };
    if resp.status != 200 || resp.cache.as_deref() != Some(want_cache) {
        r.fail(format!(
            "{} answered {} with cache {:?}",
            req.kind.path(),
            resp.status,
            resp.cache
        ));
        return false;
    }
    p.completed += 1;
    if let Some(body) = req.body {
        p.sampled.push((req.kind, body, resp.body));
    }
    true
}

/// Sum of every sample of a Prometheus metric (all label sets).
fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

const SCRAPED: [(&str, &str); 10] = [
    ("service.cache.hits", "eqsql_cache_hits_total"),
    ("service.cache.misses", "eqsql_cache_misses_total"),
    ("service.jobs.submitted", "eqsql_jobs_submitted_total"),
    ("service.jobs.rejected", "eqsql_jobs_rejected_total"),
    ("service.admission.shed", "eqsql_admission_shed_total"),
    (
        "service.stage_ns.desugar",
        "eqsql_stage_ns_total{stage=\"desugar\"}",
    ),
    (
        "service.stage_ns.dir",
        "eqsql_stage_ns_total{stage=\"dir\"}",
    ),
    (
        "service.stage_ns.rules",
        "eqsql_stage_ns_total{stage=\"rules\"}",
    ),
    (
        "service.stage_ns.sqlgen",
        "eqsql_stage_ns_total{stage=\"sqlgen\"}",
    ),
    (
        "service.stage_ns.rewrite",
        "eqsql_stage_ns_total{stage=\"rewrite\"}",
    ),
];

fn metrics(conns: &mut [Conn]) -> Result<Vec<f64>, String> {
    let resp = conns[0]
        .roundtrip("GET", "/metrics", "")
        .map_err(|e| format!("/metrics: {e}"))?;
    let text = String::from_utf8_lossy(&resp.body);
    Ok(SCRAPED.iter().map(|(_, m)| scrape(&text, m)).collect())
}

pub fn run(cfg: &Config, tr: &mut Tracer, mix: Mix) -> Report {
    let mut r = Report::default();
    let layout = Layout::new(mix);
    let _ = sys::pin(&layout.client);
    sys::precise_timers();
    // A warm request is mostly two thread wake-ups, so warm timings are
    // scaled by a loopback round trip between the generator's CPU and the
    // server's, read while the server is idle. Cold timings stay as
    // measured: neither reference followed them (see README.md).
    let mut speed = match mix {
        Mix::Warm => match Speed::wake_ups(&layout.server) {
            Ok(speed) => Some(speed),
            Err(e) => {
                r.fail(format!("speed reference: {e}"));
                return r;
            }
        },
        Mix::Cold => None,
    };
    let mut state: Option<Setup> = None;
    for _ in 0..cfg.setups() {
        if let Some(old) = state.take() {
            old.server.shutdown();
            old.local.shutdown();
        }
        let t0 = Instant::now();
        match setup(mix, cfg, &layout) {
            Ok(s) => state = Some(s),
            Err(e) => {
                r.fail(format!("set-up: {e}"));
                return r;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        match speed.as_mut() {
            Some(speed) => {
                speed.record(Series::Setup, secs);
                speed.settle();
            }
            None => r.setup.push(secs),
        }
    }
    let mut s = state.expect("at least one set-up");
    let rate = match mix {
        Mix::Cold => COLD_RATE,
        Mix::Warm => WARM_RATE,
    } / if cfg.tiny { 10.0 } else { 1.0 };

    // Open loop at the fixed rate, between two scrapes of /metrics. A
    // traced run splits the window: untraced, traced, then capacity.
    let open = if cfg.trace {
        cfg.window * 2 / 5
    } else {
        cfg.window
    };
    let before = metrics(&mut s.conns);
    let mut p = open_loop(&mut s, mix, rate, open, speed.as_mut(), tr, &mut r);
    let after = metrics(&mut s.conns);
    r.allocs_per_op = allocs_per_op(&mut s, mix, cfg, &mut r);
    let mut sampled = std::mem::take(&mut p.sampled);

    if cfg.trace {
        tr.set_on(true);
        let mut t = open_loop(&mut s, mix, rate, open, None, tr, &mut r);
        tr.set_on(false);
        r.tracing_overhead(&mut p.samples().0, &mut t.samples().0);
        sampled.append(&mut t.sampled);

        // Capacity: closed loop, as the median rate over whole bins so a
        // burst of host contention in part of the phase does not move it.
        let rest = cfg.window / 5;
        let mut c = Phase::default();
        drive(&mut s, mix, None, rest, &mut c, tr, &mut r);
        sampled.append(&mut c.sampled);
        let whole = (rest.as_nanos() / BIN.as_nanos()) as usize;
        let mut rates = Samples::default();
        for &n in c.bins.iter().take(whole) {
            rates.push(n as f64 / BIN.as_secs_f64());
        }
        r.layer("loadgen.capacity_rps", rates.median());
        r.layer("loadgen.op_p99_us", p.samples().0.quantile(0.99));

        layers(&s, mix, cfg, &mut p, tr, &mut r);
        match (&before, &after) {
            (Ok(b), Ok(a)) => {
                for ((name, _), (x, y)) in SCRAPED.iter().zip(b.iter().zip(a)) {
                    r.layer(name, y - x);
                }
                let (hits, misses) = (a[0] - b[0], a[1] - b[1]);
                r.layer("service.cache.hit_ratio", hits / (hits + misses).max(1.0));
            }
            (Err(e), _) | (_, Err(e)) => r.fail(e.clone()),
        }
    }

    for (kind, body, got) in sampled {
        match expected_body(&s.local, kind, &body) {
            Ok(want) if want.as_bytes() == got.as_slice() => {}
            Ok(_) => r.fail(format!("{} body differs from the library's", kind.path())),
            Err(e) => r.fail(format!("reference for {}: {e}", kind.path())),
        }
    }
    match speed {
        Some(speed) => r.scaled(speed),
        None => (r.op, r.alt) = p.samples(),
    }
    s.server.shutdown();
    s.local.shutdown();
    r
}

/// Allocations per op by every thread of the process, client included:
/// one `/extract` per program of the mix, sent one at a time, each a miss
/// (cold) or a hit (warm) like the window's.
fn allocs_per_op(s: &mut Setup, mix: Mix, cfg: &Config, r: &mut Report) -> f64 {
    let mut requests = Requests::new(mix, cfg.seed, cfg.tiny);
    // Cold bodies here must not collide with any the server saw.
    requests.serial = 1 << 41;
    let bodies = requests.each_extract();
    let want_cache = if mix == Mix::Cold { "miss" } else { "hit" };
    let mut total = 0;
    for body in &bodies {
        let (resp, allocs) = alloc::count(|| s.conns[0].roundtrip("POST", "/extract", body));
        r.attempted += 1;
        match resp {
            Ok(resp) if resp.status == 200 && resp.cache.as_deref() == Some(want_cache) => {}
            Ok(resp) => r.fail(format!(
                "counted /extract answered {} with cache {:?}",
                resp.status, resp.cache
            )),
            Err(e) => r.fail(format!("counted /extract: {e}")),
        }
        total += allocs;
    }
    total as f64 / bodies.len() as f64
}

/// Time the service's layers in process, on the same request mix: request
/// parsing, a cache hit (warm) or a whole job and its compute parts
/// (cold).
fn layers(s: &Setup, mix: Mix, cfg: &Config, p: &mut Phase, tr: &mut Tracer, r: &mut Report) {
    r.layer("loadgen.late_p99_us", p.late.quantile(0.99));
    let mut requests = Requests::new(mix, cfg.seed ^ 0xa5a5, cfg.tiny);
    // Cold bodies here must not collide with any the server saw.
    requests.serial = 1 << 40;
    let opts = ExtractorOptions::default();
    let n = if cfg.tiny { 16 } else { 400 };
    let (mut parse, mut inproc, mut overhead) =
        (Samples::default(), Samples::default(), Samples::default());
    tr.set_on(true);
    for i in 0..n {
        let (kind, body) = requests.next();
        let t0 = Instant::now();
        let req = match ExtractRequest::from_json(&body) {
            Ok(req) => req,
            Err(e) => {
                r.fail(format!("request parse: {e}"));
                continue;
            }
        };
        parse.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        let served = match kind {
            Kind::Extract => s.local.extract(&req),
            Kind::Lint => s.local.lint(&req),
        };
        let took = t0.elapsed();
        if let Err(e) = served {
            r.fail(format!("in-process {}: {e}", kind.path()));
            continue;
        }
        let span = if mix == Mix::Warm {
            "service.hit"
        } else {
            "service.job"
        };
        tr.record(span, t0, t0 + took, i);
        if kind == Kind::Extract {
            inproc.push(took.as_nanos() as f64);
        }
        if mix == Mix::Cold {
            // The job's compute, call by call, outside the scheduler.
            let c0 = Instant::now();
            let catalog = tr.time("service.compute.ddl", SpanId::NONE, i, || {
                algebra::ddl::parse_ddl(&req.schema)
            });
            let program = tr.time("service.compute.parse", SpanId::NONE, i, || {
                imp::parse_and_normalize(&req.source)
            });
            let (Ok(catalog), Ok(program)) = (catalog, program) else {
                r.fail("compute inputs do not parse".into());
                continue;
            };
            match kind {
                Kind::Extract => {
                    let report = tr.time("service.compute.extract", SpanId::NONE, i, || {
                        Extractor::with_options(catalog, opts.clone()).extract_program(&program)
                    });
                    tr.time("service.compute.render", SpanId::NONE, i, || {
                        report.render_json(&req.source)
                    });
                }
                Kind::Lint => {
                    let diags = tr.time("service.compute.lint", SpanId::NONE, i, || {
                        lint_program(&program, &catalog, &opts)
                    });
                    tr.time("service.compute.render", SpanId::NONE, i, || {
                        analysis::diag::render_json(&diags, &req.source)
                    });
                }
            }
            overhead.push(took.as_nanos() as f64 - c0.elapsed().as_nanos() as f64);
        }
    }
    tr.set_on(false);
    let ns = |name| median_of(tr.durations(name));
    r.layer("service.request_parse_ns", parse.median());
    if mix == Mix::Warm {
        r.layer("service.hit_ns", ns("service.hit"));
    } else {
        r.layer("service.job_ns", ns("service.job"));
        for (metric, span) in [
            ("service.compute.ddl_ns", "service.compute.ddl"),
            ("service.compute.parse_ns", "service.compute.parse"),
            ("service.compute.extract_ns", "service.compute.extract"),
            ("service.compute.lint_ns", "service.compute.lint"),
            ("service.compute.render_ns", "service.compute.render"),
        ] {
            r.layer(metric, ns(span));
        }
        r.layer("service.scheduler_overhead_ns", overhead.median());
    }
    r.layer(
        "service.http_overhead_us",
        p.samples().0.median() - inproc.median() / 1e3,
    );
}
