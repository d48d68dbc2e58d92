//! A minimal HTTP/1.1 keep-alive client on nonblocking sockets. One
//! thread keeps several connections busy by waiting on them together with
//! `ppoll`, whose nanosecond timeout lets an open-loop generator send each
//! request on time.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use crate::sys;

/// One parsed response.
pub struct Response {
    pub status: u16,
    /// The `X-Eqsql-Cache` header, when present.
    pub cache: Option<String>,
    pub body: Vec<u8>,
}

pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    out: Vec<u8>,
    out_at: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbuf: Vec::new(),
            out: Vec::new(),
            out_at: 0,
        })
    }

    /// Append a request to the send buffer; [`Conn::flush`] sends it.
    pub fn queue(&mut self, method: &str, path: &str, body: &str) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: eqbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.out.extend_from_slice(head.as_bytes());
        self.out.extend_from_slice(body.as_bytes());
    }

    /// Write as much of the send buffer as the socket takes.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        }
        Ok(())
    }

    /// Read everything available and append each complete response.
    pub fn read_responses(&mut self, out: &mut Vec<Response>) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut at = 0;
        while let Some((resp, used)) = parse(&self.inbuf[at..])? {
            out.push(resp);
            at += used;
        }
        self.inbuf.drain(..at);
        Ok(())
    }

    /// Send one request and wait for its response (set-up and scrapes).
    pub fn roundtrip(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.queue(method, path, body);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut got = Vec::new();
        loop {
            self.flush()?;
            self.read_responses(&mut got)?;
            if let Some(r) = got.pop() {
                return Ok(r);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            wait(std::slice::from_ref(self), left)?;
        }
    }
}

/// Parse one response off the front of `buf`: `(response, bytes used)`,
/// or `None` until it is complete.
fn parse(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| bad("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let (mut length, mut cache) = (0usize, None);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            length = value
                .trim()
                .parse()
                .map_err(|_| bad("bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("x-eqsql-cache") {
            cache = Some(value.trim().to_string());
        }
    }
    let end = head_len + 4 + length;
    if buf.len() < end {
        return Ok(None);
    }
    let body = buf[head_len + 4..end].to_vec();
    Ok(Some((
        Response {
            status,
            cache,
            body,
        },
        end,
    )))
}

/// Wait until a connection has bytes to read (or room for pending
/// output) or `timeout` passes.
pub fn wait(conns: &[Conn], timeout: Duration) -> io::Result<()> {
    let mut fds: Vec<sys::PollFd> = conns
        .iter()
        .map(|c| sys::PollFd::new(c.stream.as_raw_fd(), !c.out.is_empty()))
        .collect();
    sys::poll(&mut fds, timeout)
}
