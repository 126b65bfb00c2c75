//! A minimal blocking HTTP/1.1 client for the service's own API:
//! enough for the `ptb-load` generator, the CI smoke stage, and the
//! integration tests.
//!
//! Two shapes: the one-shot helpers ([`request`], [`request_full`])
//! open a fresh connection per request and ask the server to close it
//! (`Connection: close`), and [`Connection`] keeps one connection
//! alive across requests — with separate [`Connection::write_request`]
//! and [`Connection::read_response`] halves so a caller can pipeline.
//! Either shape can send either codec: pass
//! `Content-Type: application/x-ptbw` ([`crate::wire::CONTENT_TYPE`])
//! to speak binary. See `docs/PROTOCOL.md`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a request may take end to end before the client errors.
/// Full-fidelity sweeps on one core can take minutes; be generous.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(600);

/// A parsed response: status, the server's `Retry-After` backpressure
/// hint (seconds) when present, and the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Seconds the server asked us to wait before retrying (`503`s).
    pub retry_after: Option<u64>,
    /// The `Location` header, when present — a demoted cluster
    /// coordinator answers `307` with the active's address here (see
    /// `docs/PROTOCOL.md` §7), and redirect-aware callers follow it.
    pub location: Option<String>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

/// Sends one request and returns `(status, body)`.
///
/// The body is sent verbatim with a `Content-Length`; the response is
/// read to EOF (the server closes after each response) and its head is
/// parsed just enough to split status from body.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    request_full(addr, method, path, body).map(|r| (r.status, r.body))
}

/// [`request`], keeping the `Retry-After` header for backoff decisions.
pub fn request_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    request_typed(addr, method, path, None, body)
}

/// One-shot request with an explicit `Content-Type` — the way to send
/// a binary `PTBW1` frame ([`crate::wire::CONTENT_TYPE`]) without
/// keeping the connection. Sends `Connection: close` so the
/// (keep-alive by default) server ends the connection after one
/// response and reading to EOF terminates promptly.
pub fn request_typed(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    request_typed_timeout(addr, method, path, content_type, body, CLIENT_TIMEOUT)
}

/// [`request_typed`] with an explicit end-to-end timeout on connect,
/// reads, and writes. The cluster coordinator's health probes use a
/// short timeout here — a probe that waits [`CLIENT_TIMEOUT`] on a dead
/// worker would stall failure detection by minutes.
pub fn request_typed_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write_request_head(&mut stream, addr, method, path, content_type, body, true)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Writes one full request (head + body) to `stream` as a *single*
/// write: two small writes on a connection with unacknowledged data
/// would let Nagle's algorithm hold the second segment until the
/// server's delayed ACK — tens of milliseconds per kept-alive request.
fn write_request_head(
    stream: &mut impl Write,
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let ctype = content_type
        .map(|t| format!("Content-Type: {t}\r\n"))
        .unwrap_or_default();
    let conn = if close { "Connection: close\r\n" } else { "" };
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n{ctype}{conn}Content-Length: {}\r\n\r\n",
        body.len()
    );
    let mut wire = Vec::with_capacity(head.len() + body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(body);
    stream.write_all(&wire)
}

/// A persistent (kept-alive) connection to the daemon.
///
/// Requests reuse one TCP connection; responses are framed by their
/// `Content-Length` instead of EOF. The write and read halves are
/// separate methods so a caller can *pipeline* — write several requests
/// back to back, then collect the responses in order:
///
/// ```no_run
/// use ptb_serve::client::Connection;
///
/// let addr = "127.0.0.1:7878".parse().unwrap();
/// let mut conn = Connection::open(addr)?;
/// // Two requests on the wire before the first response is read.
/// conn.write_request("GET", "/healthz", None, b"")?;
/// conn.write_request("GET", "/healthz", None, b"")?;
/// let first = conn.read_response()?;
/// let second = conn.read_response()?;
/// assert_eq!((first.status, second.status), (200, 200));
/// # std::io::Result::Ok(())
/// ```
///
/// The server may close after any response (error statuses, shutdown,
/// or its starvation guard — see `docs/PROTOCOL.md`); check
/// [`Connection::server_closed`] and reconnect.
pub struct Connection {
    stream: TcpStream,
    addr: SocketAddr,
    buf: Vec<u8>,
    out: Vec<u8>,
    server_closed: bool,
}

impl Connection {
    /// Connects, with [`CLIENT_TIMEOUT`] on reads and writes.
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        Connection::open_with_timeout(addr, CLIENT_TIMEOUT)
    }

    /// [`Connection::open`] with an explicit connect/read/write timeout
    /// — the coordinator's per-worker dispatch connections bound every
    /// shard round trip this way so a hung worker surfaces as an error
    /// (and a reclaim) instead of a stalled sweep.
    pub fn open_with_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Connection> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        // Request/response traffic on a persistent connection is
        // latency-bound: never trade a round trip for batching.
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            addr,
            buf: Vec::new(),
            out: Vec::new(),
            server_closed: false,
        })
    }

    /// Whether the last response announced `Connection: close` — the
    /// next request needs a fresh [`Connection`].
    pub fn server_closed(&self) -> bool {
        self.server_closed
    }

    /// Writes one request without reading its response (the pipelining
    /// half; pair each call with one [`Connection::read_response`]).
    pub fn write_request(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> std::io::Result<()> {
        self.queue_request(method, path, content_type, body);
        self.flush_queued()
    }

    /// Encodes a request into the out-buffer without sending anything.
    /// Queue several, then [`Connection::flush_queued`] sends the whole
    /// burst in *one* write — so it arrives (on loopback, any small
    /// burst) as one segment and the server sees the later requests
    /// already buffered when it finishes the first: deterministic
    /// pipelining, counted by the server's `pipelined` metric.
    pub fn queue_request(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) {
        write_request_head(
            &mut self.out,
            self.addr,
            method,
            path,
            content_type,
            body,
            false,
        )
        .expect("writing to a Vec cannot fail");
    }

    /// Sends every queued request in one write.
    pub fn flush_queued(&mut self) -> std::io::Result<()> {
        let out = std::mem::take(&mut self.out);
        self.stream.write_all(&out)?;
        self.stream.flush()
    }

    /// Reads one response, framed by its `Content-Length`. Bytes past
    /// it stay buffered for the next call.
    pub fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let mut chunk = [0u8; 1024];
            match self.stream.read(&mut chunk)? {
                0 => return Err(bad("connection closed before response head ended")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("head is not UTF-8"))?
            .to_string();
        let content_length = head
            .lines()
            .skip(1)
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())
                    .flatten()
            })
            .ok_or_else(|| bad("response has no Content-Length"))?;
        self.server_closed = head.lines().skip(1).any(|line| {
            line.split_once(':').is_some_and(|(name, value)| {
                name.eq_ignore_ascii_case("connection")
                    && value.trim().eq_ignore_ascii_case("close")
            })
        });
        let total = head_end + 4 + content_length;
        while self.buf.len() < total {
            let mut chunk = [0u8; 1024];
            match self.stream.read(&mut chunk)? {
                0 => return Err(bad("connection closed mid response body")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        let mut framed = self.buf[..total].to_vec();
        self.buf.drain(..total);
        // Reuse the one-shot parser for status/Retry-After, but bound
        // the body by Content-Length rather than EOF.
        framed.truncate(head_end + 4 + content_length);
        parse_response(&framed)
    }

    /// One request-response round trip on the kept-alive connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        self.write_request(method, path, content_type, body)?;
        self.read_response()
    }
}

/// Splits a raw HTTP response into status, `Retry-After`, and body.
fn parse_response(raw: &[u8]) -> std::io::Result<ClientResponse> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response head never ended"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
    let status_line = head.lines().next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let retry_after = head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after")
            .then(|| value.trim().parse::<u64>().ok())
            .flatten()
    });
    let location = head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("location")
            .then(|| value.trim().to_string())
            .filter(|v| !v.is_empty())
    });
    Ok(ClientResponse {
        status,
        retry_after,
        location,
        body: raw[head_end + 4..].to_vec(),
    })
}

/// Retry schedule: exponential backoff with *decorrelated jitter*
/// (`sleep = uniform(base, prev * 3)`, capped), the schedule that avoids
/// both thundering herds and lockstep retry storms. A server-provided
/// `Retry-After` floors the computed sleep — the client never comes
/// back sooner than it was asked to.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts beyond the first; 0 disables retrying.
    pub max_retries: u32,
    /// Smallest sleep between attempts.
    pub base: Duration,
    /// Largest sleep between attempts.
    pub cap: Duration,
    /// Jitter RNG seed (runs are reproducible per client).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(5),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The next sleep given the previous one (decorrelated jitter).
    /// Delegates to the one shared schedule in [`ptb_bench::backoff`]
    /// so the cluster coordinator's health prober and dispatcher, the
    /// standby's tail loop, and these client retries all draw from the
    /// same generator instead of subtly different copies.
    pub fn next_sleep(&self, prev: Duration, rng: &mut u64) -> Duration {
        ptb_bench::backoff::next_sleep(self.base, self.cap, prev, rng)
    }
}

/// [`request_full`] wrapped in the retry loop: connection errors and
/// `503` responses are retried per `policy` (honoring `Retry-After`);
/// any other response returns immediately. Exhausting the budget
/// returns the last outcome, whatever it was.
pub fn request_with_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    policy: &RetryPolicy,
) -> std::io::Result<ClientResponse> {
    request_with_retry_typed(addr, method, path, None, body, policy)
}

/// [`request_with_retry`] with an explicit `Content-Type`, for retrying
/// binary-codec requests.
pub fn request_with_retry_typed(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
    policy: &RetryPolicy,
) -> std::io::Result<ClientResponse> {
    let mut rng = policy.seed;
    let mut sleep = policy.base;
    let mut last: std::io::Result<ClientResponse> =
        request_typed(addr, method, path, content_type, body);
    for _ in 0..policy.max_retries {
        let retry_after = match &last {
            Ok(resp) if resp.status == 503 => resp.retry_after,
            Ok(_) => return last,
            Err(_) => None,
        };
        sleep = policy.next_sleep(sleep, &mut rng);
        if let Some(secs) = retry_after {
            sleep = sleep.max(Duration::from_secs(secs)).min(policy.cap);
        }
        std::thread::sleep(sleep);
        last = request_typed(addr, method, path, content_type, body);
    }
    last
}

/// `request` with a JSON string body, returning the body as a string.
pub fn request_json(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let (status, bytes) = request(addr, method, path, body.as_bytes())?;
    String::from_utf8(bytes).map(|s| (status, s)).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response body is not UTF-8",
        )
    })
}

/// Polls `GET /jobs/{id}` until the job is done or failed and returns
/// that final poll body. Any answer but `200`, a transport error, or
/// passing `deadline` with the job still running is an `Err`.
pub fn poll_job(addr: SocketAddr, id: u64, deadline: Instant) -> Result<String, String> {
    let path = format!("/jobs/{id}");
    loop {
        let (status, body) =
            request_json(addr, "GET", &path, "").map_err(|e| format!("poll {path}: {e}"))?;
        if status != 200 {
            return Err(format!("poll {path} answered {status}: {body}"));
        }
        let poll: serde::Value =
            serde_json::from_str(&body).map_err(|e| format!("bad poll body: {e}: {body}"))?;
        let flag = |key| poll.get(key).and_then(serde::Value::as_bool) == Some(true);
        if flag("done") || flag("failed") {
            return Ok(body);
        }
        if Instant::now() >= deadline {
            return Err(format!("job {id} still running at the deadline: {body}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_responses() {
        let r = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(
            (r.status, r.body.as_slice(), r.retry_after),
            (200, &b"{}"[..], None)
        );
        assert!(parse_response(b"junk with no head end").is_err());
        assert!(parse_response(b"HTTP/1.1 banana\r\n\r\n").is_err());
    }

    #[test]
    fn parses_retry_after() {
        let r = parse_response(
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 3\r\nContent-Length: 0\r\n\r\n",
        )
        .unwrap();
        assert_eq!((r.status, r.retry_after), (503, Some(3)));
        // Non-numeric (HTTP-date form) is ignored rather than an error.
        let r =
            parse_response(b"HTTP/1.1 503 X\r\nRetry-After: Tue, 01 Jan 2030 00:00:00 GMT\r\n\r\n")
                .unwrap();
        assert_eq!(r.retry_after, None);
    }

    #[test]
    fn decorrelated_jitter_stays_within_bounds_and_grows() {
        let policy = RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 7,
        };
        let mut rng = policy.seed;
        let mut sleep = policy.base;
        for _ in 0..100 {
            sleep = policy.next_sleep(sleep, &mut rng);
            assert!(sleep >= policy.base, "below base: {sleep:?}");
            assert!(sleep <= policy.cap, "above cap: {sleep:?}");
        }
    }
}
