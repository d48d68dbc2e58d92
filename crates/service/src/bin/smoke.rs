//! `eqsql-smoke` — a tiny std-only HTTP client for the CI smoke test.
//!
//! ```text
//! eqsql-smoke <addr | @addr-file>
//! ```
//!
//! Connects to a running `eqsql serve` instance and drives the whole
//! sequence over **one persistent keep-alive connection** — `GET /healthz`,
//! `POST /extract`, a small `POST /fuzz` sweep, a 10,000-term `POST
//! /extract` (deep recursion on the worker's stack), a 30,000-term one
//! (past the parser's operand cap: a 400, not a crash), `GET /metrics`
//! (checking the fuzz counters it just incremented), then `POST /shutdown`
//! so the server exits cleanly. Responses are framed by `Content-Length`
//! rather than connection close, and the client verifies the server
//! actually honored keep-alive by completing every request on the same
//! socket. Exit code 0 on success, 1 with a message on any failure — see
//! `ci.sh`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let Some(target) = std::env::args().nth(1) else {
        eprintln!("usage: eqsql-smoke <addr | @addr-file>");
        return ExitCode::FAILURE;
    };
    match run(&target) {
        Ok(()) => {
            println!("smoke: ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("smoke: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(target: &str) -> Result<(), String> {
    let addr = resolve_addr(target)?;
    let mut conn = Client::connect(&addr)?;

    let (status, body) = conn.request("GET", "/healthz", None)?;
    expect_json_200("/healthz", status, &body)?;
    let health = analysis::json::parse(&body).map_err(|e| format!("/healthz JSON: {e}"))?;
    if health.get("status").and_then(|v| v.as_str()) != Some("ok") {
        return Err(format!("/healthz status is not ok: {body}"));
    }

    let extract_body = concat!(
        "{\"source\":\"fn total() { rows = executeQuery(\\\"SELECT * FROM emp\\\"); ",
        "s = 0; for (e in rows) { s = s + e.salary; } return s; }\",",
        "\"schema\":\"CREATE TABLE emp (id INT PRIMARY KEY, salary INT);\"}"
    );
    let (status, body) = conn.request("POST", "/extract", Some(extract_body))?;
    expect_json_200("/extract", status, &body)?;
    let report = analysis::json::parse(&body).map_err(|e| format!("/extract JSON: {e}"))?;
    if report.get("loops_rewritten").and_then(|v| v.as_i64()) != Some(1) {
        return Err(format!("/extract did not rewrite the loop: {body}"));
    }

    // A replay of the same request must be a cache hit served over the
    // same socket.
    let (status, body2) = conn.request("POST", "/extract", Some(extract_body))?;
    expect_json_200("/extract (replay)", status, &body2)?;
    if body != body2 {
        return Err("cached /extract replay differs from original".into());
    }

    let (status, body) = conn.request("POST", "/fuzz", Some("{\"seed\":1,\"iters\":25}"))?;
    expect_json_200("/fuzz", status, &body)?;
    let fz = analysis::json::parse(&body).map_err(|e| format!("/fuzz JSON: {e}"))?;
    if fz.get("clean").and_then(|v| v.as_bool()) != Some(true) {
        return Err(format!("/fuzz found divergences: {body}"));
    }
    if fz.get("iterations").and_then(|v| v.as_i64()) != Some(25) {
        return Err(format!("/fuzz iteration count wrong: {body}"));
    }

    // `y = x + x + … + x` lowers into a left-deep tree that later passes
    // recurse over: the worker's stack must hold it.
    let chain = vec!["x"; 10_000].join(" + ");
    let chain_body = format!("{{\"source\":\"fn f(x) {{ y = {chain}; return y; }}\"}}");
    let (status, body) = conn.request("POST", "/extract", Some(&chain_body))?;
    expect_json_200("/extract (10,000-term chain)", status, &body)?;

    // Past `imp::parser::MAX_OPERANDS` a chain is a parse error: the
    // server answers 400 and keeps the connection.
    let chain = vec!["x"; 30_000].join(" + ");
    let chain_body = format!("{{\"source\":\"fn f(x) {{ y = {chain}; return y; }}\"}}");
    let (status, body) = conn.request("POST", "/extract", Some(&chain_body))?;
    if status != 400 || !body.contains("operands") {
        return Err(format!(
            "/extract (30,000-term chain) returned {status}, not a 400 naming the cap: {body}"
        ));
    }

    let (status, body) = conn.request("GET", "/metrics", None)?;
    if status != 200 {
        return Err(format!("/metrics returned {status}"));
    }
    if !body.contains("eqsql_fuzz_iterations_total 25")
        || !body.contains("eqsql_fuzz_divergences_total 0")
    {
        return Err(format!("/metrics missing fuzz counters:\n{body}"));
    }
    if !body.contains("eqsql_admission_admitted_total{tenant=\"default\"}") {
        return Err(format!("/metrics missing admission counters:\n{body}"));
    }

    if conn.requests_served() != 7 {
        return Err(format!(
            "expected 7 requests on one connection before shutdown, served {}",
            conn.requests_served()
        ));
    }

    let (status, _body) = conn.request("POST", "/shutdown", None)?;
    if status != 200 {
        return Err(format!("/shutdown returned {status}"));
    }
    Ok(())
}

/// `@path` means "read the address from this file" (written by
/// `eqsql serve --port-file`); retry briefly while the server boots.
fn resolve_addr(target: &str) -> Result<String, String> {
    let Some(path) = target.strip_prefix('@') else {
        return Ok(target.to_string());
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match std::fs::read_to_string(path) {
            Ok(s) if !s.trim().is_empty() => return Ok(s.trim().to_string()),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Ok(_) => return Err(format!("{path}: empty address file")),
            Err(e) => return Err(format!("{path}: {e}")),
        }
    }
}

fn expect_json_200(path: &str, status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("{path} returned {status}: {body}"));
    }
    Ok(())
}

/// One keep-alive connection issuing framed HTTP/1.1 requests in series.
struct Client {
    addr: String,
    stream: TcpStream,
    /// Buffered bytes read past the previous response.
    carry: Vec<u8>,
    served: u64,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        // Retry connects briefly: the server may still be binding.
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("connect {addr}: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            addr: addr.to_string(),
            stream,
            carry: Vec::new(),
            served: 0,
        })
    }

    fn requests_served(&self) -> u64 {
        self.served
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        let body = body.unwrap_or("");
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        self.stream
            .write_all(req.as_bytes())
            .map_err(|e| format!("{path}: write: {e}"))?;

        // Read until the header block is complete.
        let header_end = loop {
            if let Some(i) = find(&self.carry, b"\r\n\r\n") {
                break i;
            }
            let mut chunk = [0u8; 8192];
            let n = self
                .stream
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
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| format!("{path}: response has no Content-Length:\n{head}"))?;

        // Read exactly the advertised body; keep any pipelined surplus.
        let body_start = header_end + 4;
        while self.carry.len() < body_start + content_length {
            let mut chunk = [0u8; 8192];
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("{path}: read body: {e}"))?;
            if n == 0 {
                return Err(format!("{path}: connection closed mid-body"));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        }
        let payload = String::from_utf8_lossy(&self.carry[body_start..body_start + content_length])
            .to_string();
        self.carry.drain(..body_start + content_length);
        self.served += 1;
        Ok((status, payload))
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
