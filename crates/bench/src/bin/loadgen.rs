//! `loadgen` — the tracked keep-alive service load experiment.
//!
//! Drives N concurrent HTTP/1.1 clients against the extraction service and
//! reports throughput plus an HDR-style latency histogram (p50/p99/p999).
//! Each client holds one persistent connection and issues a deterministic
//! request mix — `/extract` over a small program pool (so replays hit the
//! sharded result cache), fresh `/extract` misses, and `/lint` — seeded
//! per client so two runs issue the same requests in the same order.
//! Writes `BENCH_service.json` at the repo root.
//!
//! Modes:
//!
//! * default — starts an in-process keep-alive server and measures it with
//!   `--clients` (64) × `--requests` (200); JSON written to `--out`
//!   (default `BENCH_service.json`). 12,800 requests leave about 13
//!   samples above p999, so the tail percentiles rest on more than a
//!   handful of requests.
//! * `--addr HOST:PORT` — measure an already-running server instead. The
//!   client reconnects whenever the server closes the connection, so the
//!   same binary can A/B a `Connection: close` thread-per-connection
//!   baseline against the event-loop server.
//! * `--check` — a short fixed-seed run (8 clients × 16 requests) against
//!   an in-process server; the emitted JSON is validated, compared
//!   structurally against the tracked `BENCH_service.json` (identity and
//!   field inventory — never absolute timings), and printed. Used by
//!   `ci.sh`; exit 0 on success.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use analysis::json::Json;

const SCHEMA: &str = "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT);";

/// Distinct extract programs: replays within the pool are cache hits.
const EXTRACT_POOL: usize = 8;
/// Distinct lint programs.
const LINT_POOL: usize = 4;

fn extract_source(k: usize) -> String {
    format!(
        "fn total{k}() {{ rows = executeQuery(\"SELECT * FROM emp\"); \
         s = 0; for (e in rows) {{ s = s + e.salary; }} return s; }}"
    )
}

fn lint_source(k: usize) -> String {
    format!(
        "fn first{k}(t) {{ rows = executeQuery(\"SELECT * FROM emp\"); \
         f = 0; for (e in rows) {{ if (e.salary > t) {{ f = e.id; break; }} }} return f; }}"
    )
}

fn body_for(source: &str) -> String {
    Json::Obj(vec![
        ("source".into(), Json::str(source)),
        ("schema".into(), Json::str(SCHEMA)),
    ])
    .render()
}

// ---------------------------------------------------------------------------
// HDR-style histogram: power-of-two octaves with 64 linear sub-buckets each,
// so every recorded latency lands within ~1.6% of its bucket's nominal
// value regardless of magnitude. Values are microseconds.
// ---------------------------------------------------------------------------

const SUB_BITS: u32 = 6;
const SUB_MASK: u64 = (1 << SUB_BITS) - 1;
const BUCKETS: usize = 64 << SUB_BITS;

struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    fn record(&mut self, us: u64) {
        let v = us.max(1);
        let msb = 63 - v.leading_zeros();
        let idx = if msb < SUB_BITS {
            v as usize
        } else {
            let shift = msb - SUB_BITS;
            ((((msb - SUB_BITS + 1) as u64) << SUB_BITS) + ((v >> shift) & SUB_MASK)) as usize
        };
        self.counts[idx.min(BUCKETS - 1)] += 1;
        self.total += 1;
        self.max = self.max.max(us);
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Lower bound of the value range bucket `idx` covers.
    fn bucket_value(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < (1 << SUB_BITS) {
            idx
        } else {
            let octave = idx >> SUB_BITS;
            let sub = idx & SUB_MASK;
            ((1 << SUB_BITS) + sub) << (octave - 1)
        }
    }

    /// Value at quantile `q` in [0, 1].
    fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(idx).min(self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Reconnecting keep-alive client.
// ---------------------------------------------------------------------------

struct Client {
    addr: String,
    stream: Option<TcpStream>,
    carry: Vec<u8>,
    /// Connections established beyond the first — nonzero when the server
    /// closes after responses (the thread-per-connection baseline) or drops
    /// the connection mid-exchange.
    reconnects: u64,
    connected_once: bool,
}

impl Client {
    fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
            carry: Vec::new(),
            reconnects: 0,
            connected_once: false,
        }
    }

    fn ensure_connected(&mut self) -> Result<(), String> {
        if self.stream.is_some() {
            return Ok(());
        }
        if self.connected_once {
            self.reconnects += 1;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match TcpStream::connect(&self.addr) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("connect {}: {e}", self.addr));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        self.carry.clear();
        self.stream = Some(stream);
        self.connected_once = true;
        Ok(())
    }

    /// One request/response exchange. Returns `(status, cache_hit)`.
    /// Transparently reconnects (and retries once) when the server closed
    /// the connection — the thread-per-connection baseline closes after
    /// every response.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, bool), String> {
        for attempt in 0..2 {
            self.ensure_connected()?;
            match self.try_request(method, path, body) {
                Ok(r) => return Ok(r),
                Err(e) => {
                    self.stream = None;
                    if attempt == 1 {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!()
    }

    fn try_request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, bool), String> {
        let stream = self.stream.as_mut().expect("connected");
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        stream
            .write_all(req.as_bytes())
            .map_err(|e| format!("{path}: write: {e}"))?;

        let header_end = loop {
            if let Some(i) = find(&self.carry, b"\r\n\r\n") {
                break i;
            }
            let mut chunk = [0u8; 8192];
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("{path}: read: {e}"))?;
            if n == 0 {
                return Err(format!("{path}: connection closed mid-response"));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.carry[..header_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{path}: bad response head: {head:?}"))?;
        let mut content_length = 0usize;
        let mut close = false;
        let mut cache_hit = false;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-eqsql-cache") {
                cache_hit = value == "hit";
            }
        }
        let body_start = header_end + 4;
        while self.carry.len() < body_start + content_length {
            let mut chunk = [0u8; 8192];
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("{path}: read body: {e}"))?;
            if n == 0 {
                return Err(format!("{path}: connection closed mid-body"));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        }
        self.carry.drain(..body_start + content_length);
        if close {
            self.stream = None;
            self.carry.clear();
        }
        Ok((status, cache_hit))
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

// ---------------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------------

struct WorkerResult {
    hist: Histogram,
    ok: u64,
    shed: u64,
    errors: u64,
    cache_hits: u64,
    lints: u64,
    extracts: u64,
    reconnects: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn run_worker(addr: &str, id: usize, requests: usize, seed: u64) -> WorkerResult {
    let mut client = Client::new(addr);
    let mut hist = Histogram::new();
    let mut r = WorkerResult {
        hist: Histogram::new(),
        ok: 0,
        shed: 0,
        errors: 0,
        cache_hits: 0,
        lints: 0,
        extracts: 0,
        reconnects: 0,
    };
    let mut rng = seed ^ ((id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for _ in 0..requests {
        let roll = xorshift(&mut rng);
        let (path, body) = if roll.is_multiple_of(4) {
            r.lints += 1;
            (
                "/lint",
                body_for(&lint_source((roll / 4) as usize % LINT_POOL)),
            )
        } else {
            r.extracts += 1;
            (
                "/extract",
                body_for(&extract_source((roll / 4) as usize % EXTRACT_POOL)),
            )
        };
        let started = Instant::now();
        match client.request("POST", path, &body) {
            Ok((200, hit)) => {
                r.ok += 1;
                if hit {
                    r.cache_hits += 1;
                }
            }
            Ok((429, _)) => r.shed += 1,
            Ok(_) | Err(_) => r.errors += 1,
        }
        hist.record(started.elapsed().as_micros().max(1) as u64);
    }
    r.hist = hist;
    r.reconnects = client.reconnects;
    r
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

struct Opts {
    clients: usize,
    requests: usize,
    seed: u64,
    addr: Option<String>,
    out: String,
    check: bool,
}

fn main() {
    let mut opts = Opts {
        clients: 64,
        requests: 200,
        seed: 42,
        addr: None,
        out: "BENCH_service.json".to_string(),
        check: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => opts.check = true,
            "--clients" => {
                i += 1;
                opts.clients = args[i].parse().expect("--clients N");
            }
            "--requests" => {
                i += 1;
                opts.requests = args[i].parse().expect("--requests N");
            }
            "--seed" => {
                i += 1;
                opts.seed = args[i].parse().expect("--seed N");
            }
            "--addr" => {
                i += 1;
                opts.addr = Some(args[i].clone());
            }
            "--out" => {
                i += 1;
                opts.out = args[i].clone();
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    if opts.check {
        opts.clients = 8;
        opts.requests = 16;
    }

    // Either measure an external server (`--addr`) or boot the in-process
    // keep-alive event-loop server.
    let (addr, server) = match &opts.addr {
        Some(a) => (a.clone(), None),
        None => {
            let config = service::ServiceConfig {
                workers: std::thread::available_parallelism()
                    .map(|n| n.get().min(8))
                    .unwrap_or(4),
                queue_capacity: 1024,
                cache_entries: 4096,
                cache_shards: 8,
                job_timeout: Some(Duration::from_secs(30)),
                ..service::ServiceConfig::default()
            };
            let server = service::Server::start("127.0.0.1:0", config).expect("start server");
            (server.addr().to_string(), Some(server))
        }
    };

    let started = Instant::now();
    let handles: Vec<_> = (0..opts.clients)
        .map(|id| {
            let addr = addr.clone();
            let requests = opts.requests;
            let seed = opts.seed;
            std::thread::spawn(move || run_worker(&addr, id, requests, seed))
        })
        .collect();
    let mut hist = Histogram::new();
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    let mut cache_hits = 0u64;
    let mut lints = 0u64;
    let mut extracts = 0u64;
    let mut reconnects = 0u64;
    for h in handles {
        let r = h.join().expect("worker thread");
        hist.merge(&r.hist);
        ok += r.ok;
        shed += r.shed;
        errors += r.errors;
        cache_hits += r.cache_hits;
        lints += r.lints;
        extracts += r.extracts;
        reconnects += r.reconnects;
    }
    let elapsed = started.elapsed();
    if let Some(server) = server {
        server.shutdown();
    }

    let total = (opts.clients * opts.requests) as u64;
    assert_eq!(hist.total, total, "every request must be recorded");
    assert_eq!(errors, 0, "load run saw {errors} request errors");
    let throughput = total as f64 / elapsed.as_secs_f64();
    let doc = Json::Obj(vec![
        ("schema_version".into(), Json::int(1)),
        ("bench".into(), Json::str("service_loadgen")),
        ("clients".into(), Json::int(opts.clients as i64)),
        (
            "requests_per_client".into(),
            Json::int(opts.requests as i64),
        ),
        ("requests_total".into(), Json::int(total as i64)),
        ("seed".into(), Json::int(opts.seed as i64)),
        (
            "mix".into(),
            Json::Obj(vec![
                ("extract".into(), Json::int(extracts as i64)),
                ("lint".into(), Json::int(lints as i64)),
            ]),
        ),
        (
            "status".into(),
            Json::Obj(vec![
                ("ok".into(), Json::int(ok as i64)),
                ("shed".into(), Json::int(shed as i64)),
                ("errors".into(), Json::int(errors as i64)),
            ]),
        ),
        ("cache_hits_observed".into(), Json::int(cache_hits as i64)),
        ("reconnects".into(), Json::int(reconnects as i64)),
        ("elapsed_ms".into(), Json::Num(elapsed.as_secs_f64() * 1e3)),
        ("throughput_rps".into(), Json::Num(throughput)),
        (
            "latency_us".into(),
            Json::Obj(vec![
                ("p50".into(), Json::int(hist.percentile(0.50) as i64)),
                ("p90".into(), Json::int(hist.percentile(0.90) as i64)),
                ("p99".into(), Json::int(hist.percentile(0.99) as i64)),
                ("p999".into(), Json::int(hist.percentile(0.999) as i64)),
                ("max".into(), Json::int(hist.max as i64)),
            ]),
        ),
    ]);
    let rendered = doc.render();
    analysis::json::parse(&rendered).expect("loadgen emits valid JSON");
    eprintln!(
        "loadgen: {} clients x {} requests in {:.1}ms — {:.0} req/s, \
         p50 {}us p99 {}us p999 {}us, {} cache hits, {} shed, {} reconnects",
        opts.clients,
        opts.requests,
        elapsed.as_secs_f64() * 1e3,
        throughput,
        hist.percentile(0.50),
        hist.percentile(0.99),
        hist.percentile(0.999),
        cache_hits,
        shed,
        reconnects
    );

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if opts.check {
        check_against_tracked(&doc, &root.join("BENCH_service.json"));
        println!("{rendered}");
        eprintln!("loadgen --check: ok");
    } else {
        std::fs::write(root.join(&opts.out), format!("{rendered}\n"))
            .or_else(|_| std::fs::write(&opts.out, format!("{rendered}\n")))
            .expect("write bench output");
        eprintln!("wrote {}", opts.out);
    }
}

/// Structural comparison against the tracked document: identity fields
/// must match and both documents must carry the full field inventory.
/// Timings and throughput are never compared — only their presence.
fn check_against_tracked(doc: &Json, tracked_path: &std::path::Path) {
    let text = std::fs::read_to_string(tracked_path)
        .unwrap_or_else(|e| panic!("tracked {} unreadable: {e}", tracked_path.display()));
    let tracked = analysis::json::parse(&text).expect("tracked BENCH_service.json is valid JSON");
    for key in ["schema_version", "bench"] {
        let a = doc.get(key).map(Json::render);
        let b = tracked.get(key).map(Json::render);
        assert_eq!(a, b, "tracked file diverges on `{key}`");
    }
    for d in [doc, &tracked] {
        for key in [
            "clients",
            "requests_total",
            "mix",
            "status",
            "cache_hits_observed",
            "throughput_rps",
            "latency_us",
        ] {
            assert!(d.get(key).is_some(), "document missing `{key}`");
        }
        let lat = d.get("latency_us").expect("latency_us");
        for key in ["p50", "p99", "p999", "max"] {
            assert!(lat.get(key).is_some(), "latency_us missing `{key}`");
        }
        let status = d.get("status").expect("status");
        assert_eq!(
            status.get("errors").and_then(Json::as_i64),
            Some(0),
            "load run must be error-free: {}",
            d.render()
        );
    }
    let tracked_clients = tracked.get("clients").and_then(Json::as_i64).unwrap_or(0);
    assert!(
        tracked_clients >= 64,
        "tracked run must cover >= 64 concurrent clients, has {tracked_clients}"
    );
}
