//! A keep-alive HTTP/1.1 server driven by a readiness event loop.
//!
//! Routes:
//!
//! | route | body | response |
//! |---|---|---|
//! | `POST /extract` | [`ExtractRequest`] JSON | `ExtractionReport` JSON, `X-Eqsql-Cache: hit\|miss` |
//! | `POST /lint` | same | `{"diagnostics":[…],"errors":N,"warnings":N}` |
//! | `GET /healthz` | — | `{"status":"ok",…}` |
//! | `GET /metrics` | — | Prometheus text format |
//! | `POST /fuzz` | `{"seed":N,"iters":N,"store":bool,"store_rows":N,"dml":bool}` (optional) | differential-fuzz summary JSON |
//! | `POST /shutdown` | — | acknowledges, then stops the server |
//!
//! ## Architecture
//!
//! One loop thread owns every connection and a [`crate::poll::Poller`]
//! (epoll on Linux, level-triggered). Connections are nonblocking and move
//! through a per-connection state machine: bytes are accumulated until a
//! full request parses, the request is dispatched, and the response bytes
//! drain back out through the same readiness discipline. Connections are
//! persistent (HTTP/1.1 keep-alive) and pipelined requests are parsed
//! eagerly but processed strictly in order, so responses always come back
//! in request order. That holds for a protocol error too: its 400 or 413
//! waits behind the responses of the requests before it, and a connection
//! with a job in flight is never closed for being finished.
//!
//! Each response is written once, head and body, straight into the
//! connection's output buffer; a cached document is shared, not copied.
//!
//! Cheap routes (`/healthz`, `/metrics`, parse errors, shed requests) are
//! answered inline on the loop thread. Extraction, lint, and fuzz work is
//! dispatched to the service's bounded worker pool via a completion
//! callback; workers push `(connection, response)` onto a completion queue
//! and nudge a [`crate::poll::Wakeup`] pipe registered in the poller, so
//! the loop never blocks on a job and a slow extraction never stalls other
//! connections.
//!
//! ## Admission control
//!
//! Work-carrying routes (`/extract`, `/lint`, `/fuzz`) pass through a
//! per-tenant token bucket ([`crate::admission`]) *before* the body is
//! parsed or any job is queued. Tenancy comes from the `X-Tenant` header
//! (default bucket otherwise); shed requests get `429 Too Many Requests`
//! with a `Retry-After` hint and the connection stays open.
//!
//! ## Deadlines
//!
//! Every connection state is covered by a deadline: idle keep-alive
//! connections and half-read requests by `idle_timeout`, peers that stall
//! reading our response bytes by `write_timeout`, and in-flight jobs by
//! the job timeout plus slack. Oversized bodies are refused with `413`
//! (the advertised remainder is drained without buffering, then the
//! connection closes cleanly).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use analysis::json::Json;

use crate::admission::{Admission, Decision, DEFAULT_TENANT};
use crate::metrics::{self, FuzzCounters, HttpCounters};
use crate::poll::{Poller, Wakeup};
use crate::scheduler::JobResult;
use crate::service::{CacheStatus, ExtractRequest, ExtractionService, ServiceConfig, ServiceError};

/// Largest accepted request body; bigger requests get a 413.
const MAX_BODY: usize = 4 * 1024 * 1024;
/// Largest accepted header block.
const MAX_HEADER: usize = 64 * 1024;
/// Most parsed-but-unprocessed pipelined requests buffered per connection;
/// beyond this the parser simply waits for the queue to drain.
const MAX_PIPELINE: usize = 64;
/// Poll tick while idle: bounds how stale a deadline sweep can be.
const LOOP_TICK: Duration = Duration::from_millis(100);
/// After `/shutdown` (or [`Server::shutdown`]): how long to keep draining
/// response bytes before closing remaining connections.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);
/// Slack added to the job timeout for the busy-connection deadline.
const BUSY_SLACK: Duration = Duration::from_secs(10);
/// Busy-connection deadline when jobs have no timeout (e.g. `/fuzz`).
const BUSY_UNBOUNDED: Duration = Duration::from_secs(600);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKEUP: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

struct ServerState {
    service: ExtractionService,
    http: HttpCounters,
    fuzz: FuzzCounters,
    admission: Admission,
    shutdown: AtomicBool,
}

/// A running server. Obtain with [`Server::start`]; stop with
/// [`Server::shutdown`] (or `POST /shutdown` + [`Server::wait`]).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    wake: Arc<Wakeup>,
    event_loop: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the event loop.
    pub fn start(addr: &str, config: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let quota = config.quota;
        let state = Arc::new(ServerState {
            service: ExtractionService::new(config),
            http: HttpCounters::default(),
            fuzz: FuzzCounters::default(),
            admission: Admission::new(quota),
            shutdown: AtomicBool::new(false),
        });
        let wake = Arc::new(Wakeup::new()?);
        let loop_state = Arc::clone(&state);
        let loop_wake = Arc::clone(&wake);
        let event_loop = std::thread::Builder::new()
            .name("eqsql-loop".into())
            .spawn(move || event_loop(listener, loop_state, loop_wake))
            .expect("spawn event loop thread");
        Ok(Server {
            addr: local,
            state,
            wake,
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the server stops (e.g. via `POST /shutdown`), then
    /// drain the worker pool.
    pub fn wait(mut self) {
        if let Some(t) = self.event_loop.take() {
            let _ = t.join();
        }
    }

    /// Stop accepting, flush in-progress responses, drain the worker pool.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        self.wake.notify();
        if let Some(t) = self.event_loop.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        self.wake.notify();
        if let Some(t) = self.event_loop.take() {
            let _ = t.join();
        }
    }
}

/// One parsed request.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
    /// Sanitized `X-Tenant` header (or [`DEFAULT_TENANT`]).
    tenant: String,
    /// What the client's HTTP version + `Connection` header ask for.
    keep_alive: bool,
}

/// A connection's next piece of work, in request order.
enum Pending {
    /// A parsed request awaiting processing.
    Request(Request),
    /// The answer to the protocol error that ended parsing: queued after
    /// every response before it, and the connection's last.
    Refusal(Response),
}

/// What the incremental parser produced from the front of a read buffer.
enum Parsed {
    /// Not enough bytes yet.
    NeedMore,
    /// One complete request, consumed from the buffer.
    Request(Box<Request>),
    /// A protocol error; respond and close. For 413, `drain` carries the
    /// advertised body length still on the wire, to be discarded unread.
    Error {
        status: u16,
        message: String,
        drain: usize,
    },
}

/// Find `needle` in `haystack` (first occurrence).
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Keep tenant labels safe for Prometheus label values and bounded.
fn sanitize_tenant(raw: &str) -> String {
    let cleaned: String = raw
        .trim()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-' || *c == '.')
        .take(64)
        .collect();
    if cleaned.is_empty() {
        DEFAULT_TENANT.to_string()
    } else {
        cleaned
    }
}

/// Try to parse one request off the front of `buf`, consuming its bytes on
/// success.
fn try_parse(buf: &mut Vec<u8>) -> Parsed {
    let search_end = buf.len().min(MAX_HEADER);
    let Some(head_len) = find(&buf[..search_end], b"\r\n\r\n") else {
        if buf.len() >= MAX_HEADER {
            return Parsed::Error {
                status: 400,
                message: "header block too large".into(),
                drain: 0,
            };
        }
        return Parsed::NeedMore;
    };
    let head = match std::str::from_utf8(&buf[..head_len]) {
        Ok(h) => h,
        Err(_) => {
            return Parsed::Error {
                status: 400,
                message: "malformed request: headers are not UTF-8".into(),
                drain: 0,
            }
        }
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Parsed::Error {
            status: 400,
            message: "malformed request: bad request line".into(),
            drain: 0,
        };
    };
    let version = parts.next().unwrap_or("HTTP/1.1");

    let mut content_length = 0usize;
    let mut tenant = DEFAULT_TENANT.to_string();
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => {
                    return Parsed::Error {
                        status: 400,
                        message: "malformed request: bad Content-Length".into(),
                        drain: 0,
                    }
                }
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("x-tenant") {
            tenant = sanitize_tenant(value);
        }
    }

    let body_start = head_len + 4;
    if content_length > MAX_BODY {
        // Refuse before buffering: whatever part of the body is already in
        // `buf` plus everything still on the wire gets discarded unread.
        let already = buf.len() - body_start;
        buf.clear();
        return Parsed::Error {
            status: 413,
            message: format!("body of {content_length} bytes exceeds {MAX_BODY}"),
            drain: content_length.saturating_sub(already),
        };
    }
    let total = body_start + content_length;
    if buf.len() < total {
        return Parsed::NeedMore;
    }
    let body = buf[body_start..total].to_vec();
    let (method, path) = (method.to_string(), path.to_string());
    buf.drain(..total);
    Parsed::Request(Box::new(Request {
        method,
        path,
        body,
        tenant,
        keep_alive,
    }))
}

struct Response {
    status: u16,
    content_type: &'static str,
    /// `X-Eqsql-Cache`, on an `/extract` or `/lint` document.
    cache: Option<CacheStatus>,
    /// `Retry-After` seconds, on a 429.
    retry_after: Option<u32>,
    body: Body,
}

/// A response body: rendered for this response, or a cached document
/// shared with the result cache.
enum Body {
    Owned(String),
    Shared(Arc<String>),
}

impl Body {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Owned(s) => s.as_bytes(),
            Body::Shared(s) => s.as_bytes(),
        }
    }
}

fn json_response(status: u16, body: String) -> Response {
    Response {
        status,
        content_type: "application/json",
        cache: None,
        retry_after: None,
        body: Body::Owned(body),
    }
}

fn error_response(status: u16, message: &str) -> Response {
    json_response(
        status,
        Json::Obj(vec![("error".into(), Json::str(message))]).render(),
    )
}

fn service_error_response(e: &ServiceError) -> Response {
    let status = match e {
        ServiceError::BadRequest(_) => 400,
        ServiceError::Timeout => 504,
        ServiceError::Overloaded(_) => 503,
        ServiceError::Internal(_) => 500,
    };
    error_response(status, &e.to_string())
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Append `r`, head then body, to `out`.
fn write_response(out: &mut Vec<u8>, r: &Response, keep_alive: bool) {
    let body = r.body.as_bytes();
    // Writes into a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        r.status,
        status_text(r.status),
        r.content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(cache) = r.cache {
        let _ = write!(out, "X-Eqsql-Cache: {}\r\n", cache.as_str());
    }
    if let Some(secs) = r.retry_after {
        let _ = write!(out, "Retry-After: {secs}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Per-connection state machine driven by the event loop.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Unparsed input bytes.
    buf: Vec<u8>,
    /// Rendered response bytes not yet written; `out_at` is the write
    /// cursor (compacted opportunistically).
    out: Vec<u8>,
    out_at: usize,
    /// Parsed requests awaiting processing (pipelining), possibly ending
    /// in a refusal.
    pending: VecDeque<Pending>,
    /// A dispatched job is in flight for this connection's head request.
    busy: bool,
    busy_since: Option<Instant>,
    /// Whether the in-flight request's response keeps the connection open.
    inflight_keep_alive: bool,
    /// Remaining body bytes of a refused (413) request to discard unread.
    discard: usize,
    /// The peer half-closed its sending side (read returned 0).
    peer_closed: bool,
    /// Close once `out` drains (protocol error, `Connection: close`, 413).
    close_after_write: bool,
    /// Fatal socket error: close immediately.
    broken: bool,
    /// Whether the poller registration currently includes write interest.
    want_write: bool,
    /// Last moment read or write bytes moved on this socket.
    last_progress: Instant,
}

impl Conn {
    fn out_done(&self) -> bool {
        self.out_at >= self.out.len()
    }

    /// Whether input past what was parsed is unwanted: the last response
    /// is queued, or a protocol error ended parsing.
    fn refusing(&self) -> bool {
        self.close_after_write || matches!(self.pending.back(), Some(Pending::Refusal(_)))
    }

    /// The instant after which this connection should be closed, given its
    /// current state.
    fn deadline(&self, cfg: &ServiceConfig) -> Instant {
        if let Some(since) = self.busy_since {
            return since + cfg.job_timeout.unwrap_or(BUSY_UNBOUNDED) + BUSY_SLACK;
        }
        if !self.out_done() {
            return self.last_progress + cfg.write_timeout;
        }
        self.last_progress + cfg.idle_timeout
    }

    /// Pull every available byte off the socket (level-triggered, so
    /// stopping at `WouldBlock` is exact).
    fn fill(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.last_progress = Instant::now();
                    let mut bytes = &chunk[..n];
                    if self.discard > 0 {
                        let skip = self.discard.min(bytes.len());
                        self.discard -= skip;
                        bytes = &bytes[skip..];
                    }
                    if !bytes.is_empty() {
                        if self.refusing() {
                            // Refused connection: swallow trailing bytes.
                            continue;
                        }
                        self.buf.extend_from_slice(bytes);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
    }

    /// Write as much pending output as the socket accepts.
    fn flush(&mut self) {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(n) => {
                    self.out_at += n;
                    self.last_progress = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        if self.out_done() {
            self.out.clear();
            self.out_at = 0;
        } else if self.out_at > 64 * 1024 {
            self.out.drain(..self.out_at);
            self.out_at = 0;
        }
    }

    /// Queue a response (in request order) and count errors.
    fn queue_response(&mut self, resp: &Response, keep_alive: bool, state: &ServerState) {
        if resp.status >= 400 {
            state.http.errors.fetch_add(1, Ordering::Relaxed);
        }
        let keep = keep_alive && !self.close_after_write;
        write_response(&mut self.out, resp, keep);
        if !keep {
            self.close_after_write = true;
        }
    }
}

/// The completion queue: worker callbacks push `(token, response)` pairs
/// here and nudge the wakeup pipe; the loop drains it each iteration.
type Completions = Arc<Mutex<Vec<(u64, Response)>>>;

fn event_loop(listener: TcpListener, state: Arc<ServerState>, wake: Arc<Wakeup>) {
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return,
    };
    if poller
        .register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)
        .is_err()
    {
        return;
    }
    let _ = poller.register(wake.read_fd(), TOKEN_WAKEUP, true, false);

    let completions: Completions = Arc::new(Mutex::new(Vec::new()));
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut shutdown_at: Option<Instant> = None;

    loop {
        events.clear();
        touched.clear();
        let _ = poller.wait(&mut events, Some(LOOP_TICK));
        let shutting_down = state.shutdown.load(Ordering::Acquire);

        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    if shutting_down {
                        continue;
                    }
                    // Accept everything ready; each new socket joins the
                    // poller with read interest.
                    loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                let _ = stream.set_nodelay(true);
                                let token = next_token;
                                next_token += 1;
                                if poller
                                    .register(stream.as_raw_fd(), token, true, false)
                                    .is_ok()
                                {
                                    conns.insert(
                                        token,
                                        Conn {
                                            stream,
                                            token,
                                            buf: Vec::new(),
                                            out: Vec::new(),
                                            out_at: 0,
                                            pending: VecDeque::new(),
                                            busy: false,
                                            busy_since: None,
                                            inflight_keep_alive: true,
                                            discard: 0,
                                            peer_closed: false,
                                            close_after_write: false,
                                            broken: false,
                                            want_write: false,
                                            last_progress: Instant::now(),
                                        },
                                    );
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(_) => break,
                        }
                    }
                }
                TOKEN_WAKEUP => wake.drain(),
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.error {
                            conn.broken = true;
                        }
                        if ev.readable && !conn.broken {
                            conn.fill();
                        }
                        if ev.writable && !conn.broken {
                            conn.flush();
                        }
                        touched.push(token);
                    }
                }
            }
        }

        // Job completions: queue the response, free the connection's
        // dispatch slot, let it continue with pipelined requests.
        {
            let mut done = completions.lock().unwrap();
            for (token, resp) in done.drain(..) {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.busy = false;
                    conn.busy_since = None;
                    let keep = conn.inflight_keep_alive;
                    conn.queue_response(&resp, keep, &state);
                    conn.last_progress = Instant::now();
                    touched.push(token);
                }
            }
        }

        // Parse + process the connections that saw activity.
        for &token in &touched {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            step_conn(conn, &state, &completions, &wake);
        }

        // Opportunistic flush + interest maintenance + closes.
        let now = Instant::now();
        let cfg_keep = state.service.config();
        let mut dead: Vec<u64> = Vec::new();
        for conn in conns.values_mut() {
            if !conn.broken && !conn.out_done() {
                conn.flush();
            }
            let want = !conn.out_done();
            if want != conn.want_write
                && poller
                    .modify(conn.stream.as_raw_fd(), conn.token, true, want)
                    .is_ok()
            {
                conn.want_write = want;
            }
            let expired = now >= conn.deadline(cfg_keep);
            // A refused request (413) is still owed a drain of its
            // advertised body: closing early would reset the peer mid-send.
            // The peer going away (or the deadline) overrides the drain.
            // A connection with a job in flight still owes its response.
            let drained = conn.discard == 0 || conn.peer_closed;
            let finished = conn.out_done()
                && !conn.busy
                && ((conn.close_after_write && drained)
                    || (conn.peer_closed && conn.pending.is_empty()));
            if conn.broken || expired || finished {
                dead.push(conn.token);
            }
        }
        for token in dead {
            if let Some(conn) = conns.remove(&token) {
                let _ = poller.deregister(conn.stream.as_raw_fd());
            }
        }

        if shutting_down {
            let shutdown_since = *shutdown_at.get_or_insert(now);
            let drained = conns.values().all(|c| c.out_done() && !c.busy);
            if drained || now >= shutdown_since + SHUTDOWN_GRACE {
                break;
            }
        }
    }
}

/// Advance one connection: parse pipelined requests off its buffer, then
/// process them in order until a job goes in flight (or the queue empties).
fn step_conn(
    conn: &mut Conn,
    state: &Arc<ServerState>,
    completions: &Completions,
    wake: &Arc<Wakeup>,
) {
    // Parse as many complete requests as are buffered.
    while conn.pending.len() < MAX_PIPELINE && !conn.refusing() {
        match try_parse(&mut conn.buf) {
            Parsed::NeedMore => break,
            Parsed::Request(req) => conn.pending.push_back(Pending::Request(*req)),
            Parsed::Error {
                status,
                message,
                drain,
            } => {
                // Protocol errors always end the connection: framing is
                // no longer trustworthy past this point. The refusal is
                // answered in turn, after any request still in flight.
                conn.discard = drain;
                conn.buf.clear();
                conn.pending
                    .push_back(Pending::Refusal(error_response(status, &message)));
            }
        }
    }
    // Serial processing preserves response order under pipelining. A
    // request asking for close makes its response the connection's last:
    // queue_response flips close_after_write, which both ends this loop
    // and drops any pipelined stragglers.
    while !conn.busy && !conn.close_after_write {
        let req = match conn.pending.pop_front() {
            None => break,
            Some(Pending::Refusal(resp)) => {
                conn.queue_response(&resp, false, state);
                break;
            }
            Some(Pending::Request(req)) => req,
        };
        let keep_alive = req.keep_alive;
        match dispatch(req, conn.token, state, completions, wake) {
            Dispatched::Inline(resp) => {
                conn.queue_response(&resp, keep_alive, state);
            }
            Dispatched::InFlight => {
                conn.busy = true;
                conn.busy_since = Some(Instant::now());
                conn.inflight_keep_alive = keep_alive;
                break;
            }
        }
    }
}

/// How a request left the dispatcher.
enum Dispatched {
    /// Answered on the loop thread; queue this response now.
    Inline(Response),
    /// Handed to the worker pool; the response arrives via the completion
    /// queue.
    InFlight,
}

fn dispatch(
    req: Request,
    token: u64,
    state: &Arc<ServerState>,
    completions: &Completions,
    wake: &Arc<Wakeup>,
) -> Dispatched {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/extract") | ("POST", "/lint") => {
            let is_extract = req.path == "/extract";
            if is_extract {
                state.http.extract.fetch_add(1, Ordering::Relaxed);
            } else {
                state.http.lint.fetch_add(1, Ordering::Relaxed);
            }
            if let Decision::Shed { retry_after_secs } = state.admission.check(&req.tenant) {
                return Dispatched::Inline(shed_response(retry_after_secs));
            }
            let body = match std::str::from_utf8(&req.body) {
                Ok(b) => b,
                Err(_) => return Dispatched::Inline(error_response(400, "body is not UTF-8")),
            };
            let parsed = match ExtractRequest::from_json(body) {
                Ok(p) => p,
                Err(e) => return Dispatched::Inline(service_error_response(&e)),
            };
            let completions = Arc::clone(completions);
            let wake = Arc::clone(wake);
            let done = move |result: Result<(Arc<String>, CacheStatus), ServiceError>| {
                let resp = match result {
                    Ok((doc, cache)) => Response {
                        cache: Some(cache),
                        body: Body::Shared(doc),
                        ..json_response(200, String::new())
                    },
                    Err(e) => service_error_response(&e),
                };
                completions.lock().unwrap().push((token, resp));
                wake.notify();
            };
            if is_extract {
                state.service.extract_async(parsed, done);
            } else {
                state.service.lint_async(parsed, done);
            }
            Dispatched::InFlight
        }
        ("GET", "/healthz") => {
            state.http.healthz.fetch_add(1, Ordering::Relaxed);
            let cfg = state.service.config();
            Dispatched::Inline(json_response(
                200,
                Json::Obj(vec![
                    ("status".into(), Json::str("ok")),
                    ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
                    ("workers".into(), Json::int(cfg.workers as i64)),
                    (
                        "queue_capacity".into(),
                        Json::int(cfg.queue_capacity as i64),
                    ),
                    ("cache_entries".into(), Json::int(cfg.cache_entries as i64)),
                    ("cache_shards".into(), Json::int(cfg.cache_shards as i64)),
                ])
                .render(),
            ))
        }
        ("GET", "/metrics") => {
            state.http.metrics.fetch_add(1, Ordering::Relaxed);
            Dispatched::Inline(Response {
                content_type: metrics::CONTENT_TYPE,
                ..json_response(
                    200,
                    metrics::render(
                        &state.http,
                        &state.service.scheduler_stats(),
                        &state.service.cache_stats(),
                        &state.service.cache_shard_hits(),
                        &state.service.catalog_cache_stats(),
                        &state.admission.snapshot(),
                        state.service.stage_counters(),
                        &state.fuzz,
                        state.service.lint_counters(),
                        state.service.config().deterministic_metrics,
                    ),
                )
            })
        }
        ("POST", "/fuzz") => {
            state.http.fuzz.fetch_add(1, Ordering::Relaxed);
            if let Decision::Shed { retry_after_secs } = state.admission.check(&req.tenant) {
                return Dispatched::Inline(shed_response(retry_after_secs));
            }
            let body = req.body;
            let job_state = Arc::clone(state);
            let completions = Arc::clone(completions);
            let wake = Arc::clone(wake);
            // Fuzz sweeps are bounded by MAX_FUZZ_ITERS, not by the
            // extract/lint job timeout: a 10k-iteration run legitimately
            // outlives a 30s deadline on slow builds.
            state.service.scheduler().submit(
                move || run_fuzz(&body, &job_state),
                None,
                move |outcome| {
                    let resp = match outcome {
                        JobResult::Completed(r) => r,
                        JobResult::Panicked(m) => {
                            error_response(500, &format!("fuzz job panicked: {m}"))
                        }
                        JobResult::Rejected(e) => error_response(503, &format!("overloaded: {e}")),
                        JobResult::TimedOut => error_response(503, "fuzz job did not complete"),
                    };
                    completions.lock().unwrap().push((token, resp));
                    wake.notify();
                },
            );
            Dispatched::InFlight
        }
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::Release);
            Dispatched::Inline(json_response(
                200,
                Json::Obj(vec![("status".into(), Json::str("shutting down"))]).render(),
            ))
        }
        _ => {
            state.http.other.fetch_add(1, Ordering::Relaxed);
            Dispatched::Inline(error_response(
                404,
                &format!("no route {} {}", req.method, req.path),
            ))
        }
    }
}

fn shed_response(retry_after_secs: u32) -> Response {
    Response {
        retry_after: Some(retry_after_secs),
        ..error_response(429, "quota exceeded; retry later")
    }
}

/// Hard ceiling on `POST /fuzz` iterations: one request must stay bounded
/// even though it runs on a worker, so a single call cannot monopolize the
/// pool for minutes.
const MAX_FUZZ_ITERS: u64 = 10_000;

/// `POST /fuzz` — run a bounded differential fuzz sweep on a worker.
///
/// Body: `{"seed": N, "iters": N, "store": bool, "store_rows": N,
/// "dml": bool}` (all optional; iters defaults to 200 and is capped at
/// [`MAX_FUZZ_ITERS`]). `store: true` runs the oracle against the paged
/// storage backend with `store_rows` amplification rows per table (default
/// 256). `dml: true` fuzzes write loops and compares final table contents;
/// combined with `store` each side runs against a deep-forked page image.
/// Responds with a summary and the first few divergences; accumulates the
/// service-lifetime counters that `/metrics` exposes as `eqsql_fuzz_*`.
fn run_fuzz(body: &[u8], state: &ServerState) -> Response {
    let body = match std::str::from_utf8(body) {
        Ok(b) => b.trim(),
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    let parsed = if body.is_empty() {
        Json::Obj(Vec::new())
    } else {
        match analysis::json::parse(body) {
            Ok(j) => j,
            Err(e) => return error_response(400, &format!("bad JSON body: {e}")),
        }
    };
    let seed = parsed
        .get("seed")
        .and_then(Json::as_i64)
        .unwrap_or(0)
        .unsigned_abs();
    let iters = parsed
        .get("iters")
        .and_then(Json::as_i64)
        .unwrap_or(200)
        .clamp(1, MAX_FUZZ_ITERS as i64) as u64;
    let store = parsed.get("store").and_then(Json::as_bool).unwrap_or(false);
    let store_rows = parsed
        .get("store_rows")
        .and_then(Json::as_i64)
        .unwrap_or(256)
        .clamp(0, 4096) as usize;
    let dml = parsed.get("dml").and_then(Json::as_bool).unwrap_or(false);

    let cfg = fuzz::FuzzConfig {
        seed,
        iters,
        shrink: false,
        repro_dir: None,
        max_divergences: 16,
        store,
        store_rows,
        dml,
    };
    let report = fuzz::run_fuzz(&cfg);
    state.fuzz.absorb(
        report.iterations,
        report.divergences.len() as u64,
        report.panics,
    );

    let divergences: Vec<Json> = report
        .divergences
        .iter()
        .take(8)
        .map(|d| {
            Json::Obj(vec![
                ("seed".into(), Json::str(d.seed.to_string())),
                ("kind".into(), Json::str(d.divergence.kind.to_string())),
                ("detail".into(), Json::str(&d.divergence.detail)),
                ("program".into(), Json::str(&d.case.program)),
            ])
        })
        .collect();
    json_response(
        200,
        Json::Obj(vec![
            ("seed".into(), Json::str(seed.to_string())),
            ("iterations".into(), Json::int(report.iterations as i64)),
            ("extracted".into(), Json::int(report.extracted as i64)),
            ("skipped".into(), Json::int(report.skipped as i64)),
            (
                "divergences".into(),
                Json::int(report.divergences.len() as i64),
            ),
            ("panics".into(), Json::int(report.panics as i64)),
            ("clean".into(), Json::Bool(report.clean())),
            ("examples".into(), Json::Arr(divergences)),
        ])
        .render(),
    )
}
