//! Integration tests for the extraction service: every HTTP endpoint is
//! checked byte-for-byte against a golden file (the response JSON layout is
//! a stability promise, DESIGN.md "The extraction service"), the cache-hit
//! acceptance path is exercised end-to-end over a real socket, and `batch`
//! output is proven identical across worker counts.
//!
//! Run with `BLESS=1` to regenerate the goldens after an intentional change.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

use analysis::json::Json;
use service::{run_batch, BatchOptions, Server, ServiceConfig};

/// A fixed configuration so gauge metrics (workers, capacities) are stable.
/// Stage timings are zeroed in `/metrics` (`deterministic_metrics`) so the
/// golden comparison stays byte-exact; the node/rule-cache counters are
/// deterministic for the fixed request sequence and stay real.
fn test_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        cache_entries: 8,
        cache_shards: 4,
        job_timeout: Some(Duration::from_secs(10)),
        deterministic_metrics: true,
        ..ServiceConfig::default()
    }
}

const SCHEMA: &str = "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT);";

/// A SUM loop that extracts and rewrites cleanly.
const PAYROLL: &str = r#"fn payroll(dept) {
    rows = executeQuery("SELECT * FROM emp");
    total = 0;
    for (e in rows) {
        if (e.dept == dept) {
            total = total + e.salary;
        }
    }
    return total;
}"#;

/// A break loop that declines with E004 — exercises the diagnostics path.
const FIRST_MATCH: &str = r#"fn firstBig(threshold) {
    rows = executeQuery("SELECT * FROM emp");
    found = 0;
    for (e in rows) {
        if (e.salary > threshold) {
            found = e.id;
            break;
        }
    }
    return found;
}"#;

fn body_for(source: &str, function: &str) -> String {
    Json::Obj(vec![
        ("source".into(), Json::str(source)),
        ("schema".into(), Json::str(SCHEMA)),
        ("function".into(), Json::str(function)),
    ])
    .render()
}

/// One HTTP/1.1 request over a fresh connection. The client asks for
/// `Connection: close`, which the keep-alive server honors per request —
/// the persistent-connection paths are covered in `tests/service_conn.rs`.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, payload) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {raw:?}"));
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, payload.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == &name.to_ascii_lowercase())
        .map(|(_, v)| v.as_str())
}

fn golden(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} (run with BLESS=1): {e}", path.display()));
    assert_eq!(
        got.trim(),
        want.trim(),
        "golden mismatch for {name}; re-run with BLESS=1 if the change is intended"
    );
}

#[test]
fn healthz_reports_ok_and_matches_golden() {
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let (status, headers, body) = request(server.addr(), "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let doc = analysis::json::parse(&body).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    // The version tracks the workspace; normalise it so the golden does not
    // churn on release bumps.
    let version = doc
        .get("version")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    golden(
        "service_healthz.json",
        &body.replace(&format!("\"{version}\""), "\"{VERSION}\""),
    );
    server.shutdown();
}

#[test]
fn extract_endpoint_matches_golden_and_replays_from_cache() {
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let body = body_for(PAYROLL, "payroll");

    let (status, headers, first) = request(server.addr(), "POST", "/extract", Some(&body));
    assert_eq!(status, 200, "{first}");
    assert_eq!(header(&headers, "x-eqsql-cache"), Some("miss"));
    golden("service_extract.json", &first);
    let doc = analysis::json::parse(&first).unwrap();
    assert_eq!(doc.get("loops_rewritten").and_then(Json::as_i64), Some(1));

    // Acceptance: the repeated request is served from the cache and the
    // replayed document is byte-identical.
    let (status, headers, second) = request(server.addr(), "POST", "/extract", Some(&body));
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-eqsql-cache"), Some("hit"));
    assert_eq!(first, second, "cached replay must be byte-identical");

    // …and the hit is visible in /metrics.
    let (status, _, metrics) = request(server.addr(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(metrics.contains("eqsql_cache_hits_total 1"), "{metrics}");
    assert!(metrics.contains("eqsql_cache_misses_total 1"), "{metrics}");
    server.shutdown();
}

#[test]
fn lint_endpoint_matches_golden() {
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let body = body_for(FIRST_MATCH, "firstBig");
    let (status, headers, payload) = request(server.addr(), "POST", "/lint", Some(&body));
    assert_eq!(status, 200, "{payload}");
    assert_eq!(header(&headers, "x-eqsql-cache"), Some("miss"));
    let doc = analysis::json::parse(&payload).unwrap();
    assert_eq!(doc.get("errors").and_then(Json::as_i64), Some(1));
    golden("service_lint.json", &payload);
    server.shutdown();
}

#[test]
fn metrics_endpoint_matches_golden_after_fixed_sequence() {
    // A fresh server driven through a fixed request sequence has fully
    // deterministic counters: 2 extracts (miss + hit), 1 lint, 1 healthz,
    // and the /metrics request itself (counted before rendering).
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let extract = body_for(PAYROLL, "payroll");
    let lint = body_for(FIRST_MATCH, "firstBig");
    request(server.addr(), "POST", "/extract", Some(&extract));
    request(server.addr(), "POST", "/extract", Some(&extract));
    request(server.addr(), "POST", "/lint", Some(&lint));
    request(server.addr(), "GET", "/healthz", None);
    let (status, headers, body) = request(server.addr(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );
    golden("service_metrics.txt", &body);
    server.shutdown();
}

#[test]
fn malformed_requests_get_4xx_not_5xx() {
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let (status, _, body) = request(server.addr(), "POST", "/extract", Some("{not json"));
    assert_eq!(status, 400, "{body}");
    let (status, _, _) = request(
        server.addr(),
        "POST",
        "/extract",
        Some("{\"schema\": \"\"}"),
    );
    assert_eq!(status, 400, "missing `source` is a client error");
    let (status, _, _) = request(server.addr(), "GET", "/nope", None);
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn batch_output_is_identical_across_worker_counts() {
    // Acceptance: `eqsql batch … --jobs 4` must be byte-identical to
    // `--jobs 1`. `run_batch` is exactly what the CLI subcommand calls.
    let corpus = workloads::sweep::corpus_dir();
    let run = |jobs: usize| {
        run_batch(
            &corpus,
            &BatchOptions {
                jobs,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one, four, "batch output must not depend on --jobs");
    assert!(one.contains("== summary:"), "{one}");
    // Paths are reported from the repository root, so the golden does not
    // depend on where the checkout lives.
    let root = format!(
        "{}/",
        corpus.parent().and_then(Path::parent).unwrap().display()
    );
    golden("service_batch.txt", &one.replace(&root, ""));
}
