//! Connection-level integration tests for the keep-alive event-loop
//! server: pipelining, partial reads, oversized-body handling, quota
//! shedding, deterministic cache sharding, and the per-state deadlines
//! (DESIGN.md §5j). These are the regression tests for the three
//! connection bugfixes of the event-loop rewrite — each exercises
//! behavior the old thread-per-connection server got wrong (hung in a
//! blocking write, answered oversized bodies 400 without draining, or
//! dropped `Connection: close` on every response).

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use analysis::json::Json;
use service::{Quota, Server, ServiceConfig};

fn test_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        cache_entries: 64,
        cache_shards: 4,
        job_timeout: Some(Duration::from_secs(10)),
        deterministic_metrics: true,
        ..ServiceConfig::default()
    }
}

const SCHEMA: &str = "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT);";

fn extract_source(k: usize) -> String {
    format!(
        "fn total{k}() {{ rows = executeQuery(\"SELECT * FROM emp\"); \
         s = 0; for (e in rows) {{ s = s + e.salary; }} return s; }}"
    )
}

fn extract_body(k: usize) -> String {
    Json::Obj(vec![
        ("source".into(), Json::str(extract_source(k))),
        ("schema".into(), Json::str(SCHEMA)),
    ])
    .render()
}

fn raw_request(method: &str, path: &str, body: &str, extra_headers: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         {extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Read exactly one `Content-Length`-framed response off `stream`,
/// consuming from (and leaving any pipelined surplus in) `carry`.
fn read_response(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> (u16, Vec<(String, String)>, String) {
    let header_end = loop {
        if let Some(i) = find(carry, b"\r\n\r\n") {
            break i;
        }
        let mut chunk = [0u8; 8192];
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before a full response head");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&carry[..header_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let headers: Vec<(String, String)> = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .expect("response has Content-Length");
    let body_start = header_end + 4;
    while carry.len() < body_start + content_length {
        let mut chunk = [0u8; 8192];
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&carry[body_start..body_start + content_length]).to_string();
    carry.drain(..body_start + content_length);
    (status, headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == &name.to_ascii_lowercase())
        .map(|(_, v)| v.as_str())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// Wait until reads on `stream` observe EOF (orderly close) or a reset,
/// failing the test if the server keeps the connection past `patience`.
fn assert_closed_within(stream: &mut TcpStream, patience: Duration) {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let deadline = Instant::now() + patience;
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {} // residual response bytes still draining
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                assert!(
                    Instant::now() < deadline,
                    "server kept the connection open past {patience:?}"
                );
            }
            Err(e) => panic!("unexpected read error while awaiting close: {e}"),
        }
    }
}

#[test]
fn pipelined_requests_answer_in_order_on_one_socket() {
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let mut stream = connect(server.addr());

    // Three requests in one write: the server parses them eagerly but must
    // answer strictly in order — healthz, an extract (worker round-trip),
    // then healthz again, all on the same socket.
    let batch = format!(
        "{}{}{}",
        raw_request("GET", "/healthz", "", ""),
        raw_request("POST", "/extract", &extract_body(0), ""),
        raw_request("GET", "/healthz", "", "")
    );
    stream.write_all(batch.as_bytes()).unwrap();

    let mut carry = Vec::new();
    let (status, _, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    let (status, headers, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200, "{body}");
    assert_eq!(header(&headers, "x-eqsql-cache"), Some("miss"));
    assert!(body.contains("\"loops_rewritten\":1"), "{body}");
    let (status, _, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // The connection is still usable afterwards.
    stream
        .write_all(raw_request("GET", "/healthz", "", "").as_bytes())
        .unwrap();
    let (status, _, _) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn request_split_across_tcp_segments_still_parses() {
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let mut stream = connect(server.addr());

    // Dribble one request byte-range at a time with pauses, splitting both
    // inside the header block and inside the body.
    let req = raw_request("POST", "/extract", &extract_body(1), "");
    let bytes = req.as_bytes();
    let cuts = [
        7,
        bytes.len() / 3,
        bytes.len() / 2,
        bytes.len() - 5,
        bytes.len(),
    ];
    let mut at = 0;
    for &cut in &cuts {
        stream.write_all(&bytes[at..cut]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        at = cut;
    }

    let mut carry = Vec::new();
    let (status, _, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"loops_rewritten\":1"), "{body}");
    server.shutdown();
}

#[test]
fn oversized_body_gets_413_and_a_clean_close() {
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let mut stream = connect(server.addr());

    // Advertise 4 MiB + 1 — one byte past MAX_BODY — and actually send it.
    // The old server answered 400 and left the body on the wire; the
    // rewrite must answer 413 up front, discard the advertised remainder
    // without buffering it, and close in an orderly fashion.
    let oversized = 4 * 1024 * 1024 + 1;
    let head = format!("POST /extract HTTP/1.1\r\nHost: t\r\nContent-Length: {oversized}\r\n\r\n");
    stream.write_all(head.as_bytes()).unwrap();

    let mut carry = Vec::new();
    let (status, headers, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 413, "{body}");
    assert_eq!(header(&headers, "connection"), Some("close"));
    assert!(body.contains("exceeds"), "{body}");

    // The server must drain the body we still owe it rather than stalling
    // or resetting mid-write.
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    while sent < oversized {
        let n = (oversized - sent).min(chunk.len());
        match stream.write_all(&chunk[..n]) {
            Ok(()) => sent += n,
            // Once the advertised count is consumed the server closes; a
            // late reset on our remaining writes is acceptable only after
            // most of the body went through.
            Err(_) if sent + 128 * 1024 >= oversized => break,
            Err(e) => panic!("server stopped draining after {sent} bytes: {e}"),
        }
    }
    assert_closed_within(&mut stream, Duration::from_secs(5));
    server.shutdown();
}

#[test]
fn zero_and_absent_content_length_are_handled() {
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let mut stream = connect(server.addr());
    let mut carry = Vec::new();

    // Explicit zero-length body: a well-formed request whose payload fails
    // JSON validation — a 400, and the connection survives it.
    stream
        .write_all(raw_request("POST", "/extract", "", "").as_bytes())
        .unwrap();
    let (status, _, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 400, "{body}");

    // No Content-Length at all: HTTP/1.1 without a body — same contract.
    stream
        .write_all(b"POST /extract HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 400, "{body}");

    // A GET without Content-Length is simply fine.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200, "{body}");

    // An unparsable Content-Length is a protocol error: 400 + close.
    stream
        .write_all(b"POST /extract HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\n")
        .unwrap();
    let (status, headers, _) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 400);
    assert_eq!(header(&headers, "connection"), Some("close"));
    assert_closed_within(&mut stream, Duration::from_secs(5));
    server.shutdown();
}

#[test]
fn quota_exhaustion_sheds_with_429_and_retry_after() {
    let config = ServiceConfig {
        quota: Quota { rate: 1, burst: 2 },
        ..test_config()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut stream = connect(server.addr());
    let mut carry = Vec::new();

    // Burst 2 admits the first two; the rest of the salvo is shed before
    // any work is queued. Shedding must not close the connection.
    let mut admitted = 0;
    let mut shed = 0;
    for k in 0..5 {
        stream
            .write_all(raw_request("POST", "/extract", &extract_body(k), "").as_bytes())
            .unwrap();
        let (status, headers, body) = read_response(&mut stream, &mut carry);
        match status {
            200 => admitted += 1,
            429 => {
                shed += 1;
                let retry: u64 = header(&headers, "retry-after")
                    .expect("429 carries Retry-After")
                    .parse()
                    .expect("Retry-After is integral seconds");
                assert!(retry >= 1, "Retry-After must be at least a second");
                assert!(body.contains("quota"), "{body}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(admitted, 2, "burst capacity admits exactly two");
    assert_eq!(shed, 3, "the remainder of the salvo is shed");

    // Tenants are isolated: a different bucket still has its burst.
    stream
        .write_all(
            raw_request("POST", "/extract", &extract_body(7), "X-Tenant: acme\r\n").as_bytes(),
        )
        .unwrap();
    let (status, _, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200, "fresh tenant must be admitted: {body}");

    // /metrics is not admission-gated and reports both buckets.
    stream
        .write_all(raw_request("GET", "/metrics", "", "").as_bytes())
        .unwrap();
    let (status, _, metrics) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200);
    assert!(
        metrics.contains("eqsql_admission_shed_total{tenant=\"default\"} 3"),
        "{metrics}"
    );
    assert!(
        metrics.contains("eqsql_admission_admitted_total{tenant=\"acme\"} 1"),
        "{metrics}"
    );
    server.shutdown();
}

/// Drive `sequence` against a fresh server; returns the per-request
/// cache-status headers and the per-shard hit counters from `/metrics`.
fn replay_run(sequence: &[usize]) -> (Vec<String>, Vec<(String, String)>) {
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let mut stream = connect(server.addr());
    let mut carry = Vec::new();
    let mut statuses = Vec::new();
    for &k in sequence {
        stream
            .write_all(raw_request("POST", "/extract", &extract_body(k), "").as_bytes())
            .unwrap();
        let (status, headers, body) = read_response(&mut stream, &mut carry);
        assert_eq!(status, 200, "{body}");
        statuses.push(header(&headers, "x-eqsql-cache").unwrap().to_string());
    }
    stream
        .write_all(raw_request("GET", "/metrics", "", "").as_bytes())
        .unwrap();
    let (_, _, metrics) = read_response(&mut stream, &mut carry);
    let shard_hits: Vec<(String, String)> = metrics
        .lines()
        .filter(|l| l.starts_with("eqsql_cache_shard_hits_total{"))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.to_string()))
        })
        .collect();
    server.shutdown();
    (statuses, shard_hits)
}

#[test]
fn sharded_cache_replay_is_deterministic_across_servers() {
    // Eight distinct programs, each requested twice: first contact is a
    // miss, the replay a hit, and the key → shard routing must be
    // identical across two independently started servers.
    let sequence: Vec<usize> = (0..8).chain(0..8).collect();
    let (statuses_a, shards_a) = replay_run(&sequence);
    let (statuses_b, shards_b) = replay_run(&sequence);

    let want: Vec<String> = std::iter::repeat_n("miss".to_string(), 8)
        .chain(std::iter::repeat_n("hit".to_string(), 8))
        .collect();
    assert_eq!(statuses_a, want, "first server hit/miss pattern");
    assert_eq!(statuses_a, statuses_b, "hit/miss pattern must be identical");
    assert_eq!(shards_a, shards_b, "shard routing must be deterministic");
    assert_eq!(shards_a.len(), 4, "one hit counter per configured shard");
    let total: u64 = shards_a
        .iter()
        .map(|(_, v)| v.parse::<u64>().unwrap())
        .sum();
    assert_eq!(total, 8, "every replay hit lands in some shard");
    let populated = shards_a
        .iter()
        .filter(|(_, v)| v.parse::<u64>().unwrap() > 0)
        .count();
    assert!(
        populated >= 2,
        "8 distinct keys should spread across shards: {shards_a:?}"
    );
}

#[test]
fn stalled_reader_hits_write_deadline_and_shutdown_still_completes() {
    // Regression for the missing write deadline: the old server issued a
    // blocking `write_all` with only a *read* timeout configured, so a
    // peer that never drained its receive buffer parked the handler thread
    // forever. The rewrite must abandon the connection after
    // `write_timeout` and still shut down promptly afterwards.
    let config = ServiceConfig {
        write_timeout: Duration::from_millis(300),
        ..test_config()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut stream = connect(server.addr());

    // Queue far more response bytes than the kernel will buffer for us and
    // never read one: 24 bursts of 64 pipelined `/metrics` requests
    // (~5.7 KiB per response ≈ 8.7 MiB total) overwhelm the server-side
    // socket send buffer (~4 MiB on a default Linux) plus our receive
    // window, so the server's nonblocking write stalls with output
    // pending. The bursts are spaced out because each read of request
    // bytes legitimately refreshes the connection's progress clock — the
    // deadline may only fire once we go silent.
    let burst: String = (0..64)
        .map(|_| raw_request("GET", "/metrics", "", ""))
        .collect();
    for _ in 0..24 {
        stream.write_all(burst.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }

    // Go silent without reading: the write deadline (300ms) plus the loop
    // tick must kill the connection. Only then may we touch the socket —
    // reading earlier would drain the backlog and rescue the write.
    std::thread::sleep(Duration::from_millis(1500));
    assert_closed_within(&mut stream, Duration::from_secs(5));

    // ...and the event loop is healthy: new connections still served, and
    // shutdown completes promptly instead of joining a parked writer.
    let mut fresh = connect(server.addr());
    let mut carry = Vec::new();
    fresh
        .write_all(raw_request("GET", "/healthz", "", "").as_bytes())
        .unwrap();
    let (status, _, _) = read_response(&mut fresh, &mut carry);
    assert_eq!(status, 200);

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown must complete despite the stalled connection");
}

#[test]
fn pipelined_protocol_error_waits_for_the_in_flight_response() {
    // A valid `/extract` and a request with a bad Content-Length in one
    // write: the extract goes to a worker, and the refusal must follow its
    // 200 rather than overtake it and close the connection under it.
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let mut stream = connect(server.addr());
    let batch = format!(
        "{}POST /extract HTTP/1.1\r\nHost: t\r\nContent-Length: nope\r\n\r\n",
        raw_request("POST", "/extract", &extract_body(0), "")
    );
    stream.write_all(batch.as_bytes()).unwrap();

    let mut carry = Vec::new();
    let (status, headers, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200, "{body}");
    assert_eq!(header(&headers, "x-eqsql-cache"), Some("miss"));
    assert!(body.contains("\"loops_rewritten\":1"), "{body}");
    let (status, headers, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 400, "{body}");
    assert_eq!(header(&headers, "connection"), Some("close"));
    assert_closed_within(&mut stream, Duration::from_secs(5));
    server.shutdown();
}

#[test]
fn a_one_mebibyte_body_does_not_stall_other_connections() {
    // Request bodies are decoded on the event-loop thread, so decoding
    // must be linear: a 1 MiB `/extract` on connection A may not hold up
    // `/healthz` on connection B. A quadratic decoder kept the loop busy
    // for about half a minute on this body in a release build.
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let source = format!("{}\n// {}\n", extract_source(0), "x".repeat(1 << 20));
    let body = Json::Obj(vec![
        ("source".into(), Json::str(source)),
        ("schema".into(), Json::str(SCHEMA)),
    ])
    .render();
    let mut a = connect(server.addr());
    a.write_all(raw_request("POST", "/extract", &body, "").as_bytes())
        .unwrap();

    let mut b = connect(server.addr());
    b.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let started = Instant::now();
    b.write_all(raw_request("GET", "/healthz", "", "").as_bytes())
        .unwrap();
    let mut carry = Vec::new();
    let (status, _, _) = read_response(&mut b, &mut carry);
    assert_eq!(status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "/healthz took {:?}",
        started.elapsed()
    );

    let mut carry = Vec::new();
    let (status, _, body) = read_response(&mut a, &mut carry);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"loops_rewritten\":1"), "{body}");
    server.shutdown();
}

#[test]
fn a_ten_thousand_term_chain_is_answered_and_the_server_lives_on() {
    // `y = x + x + … + x` is parsed in a loop but becomes a left-deep tree
    // that later passes recurse over. On a spawned thread's default 2 MiB
    // stack the worker overflowed and took the whole process down.
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let source = format!(
        "fn f(x) {{ y = {}; return y; }}",
        vec!["x"; 10_000].join(" + ")
    );
    let body = Json::Obj(vec![("source".into(), Json::str(source))]).render();
    let mut stream = connect(server.addr());
    let mut carry = Vec::new();
    stream
        .write_all(raw_request("POST", "/extract", &body, "").as_bytes())
        .unwrap();
    let (status, _, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200, "{body}");
    stream
        .write_all(raw_request("GET", "/healthz", "", "").as_bytes())
        .unwrap();
    let (status, _, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn a_chain_past_the_operand_cap_is_a_400_and_the_server_lives_on() {
    // 30,000 terms overflowed an 8 MiB worker stack and aborted the
    // process; past `imp::parser::MAX_OPERANDS` the parser refuses them.
    let server = Server::start("127.0.0.1:0", test_config()).unwrap();
    let source = format!(
        "fn f(x) {{ y = {}; return y; }}",
        vec!["x"; 30_000].join(" + ")
    );
    let body = Json::Obj(vec![("source".into(), Json::str(source))]).render();
    let mut stream = connect(server.addr());
    let mut carry = Vec::new();
    stream
        .write_all(raw_request("POST", "/extract", &body, "").as_bytes())
        .unwrap();
    let (status, _, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("more than 20000 operands"), "{body}");
    stream
        .write_all(raw_request("GET", "/healthz", "", "").as_bytes())
        .unwrap();
    let (status, _, body) = read_response(&mut stream, &mut carry);
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}
