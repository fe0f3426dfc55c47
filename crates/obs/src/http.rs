//! A minimal std-only HTTP/1.1 front for the metrics registry, so a
//! stock Prometheus (or plain `GET`) scrapes a live process without
//! speaking the fleet's frame protocol.
//!
//! [`MetricsServer`] serves exactly two paths:
//!
//! * `GET /metrics` — the Prometheus text exposition of one
//!   [`Registry::snapshot`]. Handling a scrape performs **no mutation**
//!   of the served registry (the server's own traffic counters are
//!   standalone, deliberately unregistered), so in a quiescent process
//!   an HTTP scrape and a wire scrape of the same registry return
//!   byte-identical text — the equality the fleet's integration tests
//!   pin.
//! * `GET /healthz` — a small JSON liveness body. This is the one
//!   handler that touches the registry: it refreshes the
//!   `twm_obs_http_uptime_seconds` gauge registered at bind time next
//!   to the `twm_build_info{package,version}` constant gauge.
//!
//! Anything else is answered with a typed error: `405` (with `Allow:
//! GET`) for a wrong method on a known path, `404` for an unknown
//! path, `400` for an oversized, non-UTF-8 or malformed request head.
//! Connections are HTTP/1.1 `Connection: close` — one request each —
//! served through the [`crate::listen`] core the fleet's TCP front
//! shares, so a failed accept never ends the endpoint.
//!
//! This module retires wholesale once the workspace can depend on a
//! real HTTP stack again (see `vendor/README.md`).

use std::io::{self, Read, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::listen::Listener;
use crate::metrics::{Counter, Gauge, Registry};

/// Upper bound on the request head (request line + headers) in bytes;
/// more is answered with `400`.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// The most bytes one read adds to the request head.
const HEAD_CHUNK: usize = 512;

/// How long a connection may dribble its request head before the
/// server gives up on it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The exposition content type Prometheus expects.
const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Point-in-time counts of one server's HTTP traffic, from
/// [`MetricsServer::stats`]. These live outside the served registry so
/// scrapes never observe themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Successful `GET /metrics` responses.
    pub scrapes: u64,
    /// Successful `GET /healthz` responses.
    pub health_checks: u64,
    /// `404` responses.
    pub not_found: u64,
    /// `405` responses.
    pub method_not_allowed: u64,
    /// `400` responses.
    pub bad_requests: u64,
    /// Failed `accept` calls, each retried after a pause.
    pub accept_errors: u64,
}

/// A blocking HTTP/1.1 listener exposing a [`Registry`] on `/metrics`
/// and liveness on `/healthz`. See the [module docs](self) for the
/// exact contract.
#[derive(Debug)]
pub struct MetricsServer {
    listener: Listener,
    /// The registry rendered on `/metrics`: a caller-owned one, or
    /// `None` for the process-wide [`crate::metrics::global`].
    owned: Option<Arc<Registry>>,
    started: Instant,
    uptime: Gauge,
    connections: Counter,
    scrapes: Counter,
    health_checks: Counter,
    not_found: Counter,
    method_not_allowed: Counter,
    bad_requests: Counter,
    accept_errors: Counter,
}

impl MetricsServer {
    /// Binds a server over the process-wide registry. Use port `0` to
    /// let the OS pick (read it back with [`MetricsServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::bind_served(addr, None)
    }

    /// Binds a server over a caller-owned registry — isolated tests,
    /// or serving a snapshot domain other than the process's.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_registry(addr: impl ToSocketAddrs, registry: Arc<Registry>) -> io::Result<Self> {
        Self::bind_served(addr, Some(registry))
    }

    fn bind_served(addr: impl ToSocketAddrs, owned: Option<Arc<Registry>>) -> io::Result<Self> {
        let accept_errors = Counter::new();
        let listener = Listener::bind(addr, accept_errors.clone())?;
        // The two gauges the endpoint owns, registered once at bind:
        // build info is constant, uptime refreshes on each /healthz
        // (never on /metrics — scrapes stay pure).
        let registry = owned.as_deref().unwrap_or_else(|| crate::metrics::global());
        let uptime = registry.gauge("twm_obs_http_uptime_seconds", &[]);
        registry
            .gauge(
                "twm_build_info",
                &[
                    ("package", env!("CARGO_PKG_NAME")),
                    ("version", env!("CARGO_PKG_VERSION")),
                ],
            )
            .set(1);
        Ok(Self {
            listener,
            owned,
            started: Instant::now(),
            uptime,
            connections: Counter::new(),
            scrapes: Counter::new(),
            health_checks: Counter::new(),
            not_found: Counter::new(),
            method_not_allowed: Counter::new(),
            bad_requests: Counter::new(),
            accept_errors,
        })
    }

    /// The bound address (resolves port `0` binds).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// This server's own traffic counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.get(),
            scrapes: self.scrapes.get(),
            health_checks: self.health_checks.get(),
            not_found: self.not_found.get(),
            method_not_allowed: self.method_not_allowed.get(),
            bad_requests: self.bad_requests.get(),
            accept_errors: self.accept_errors.get(),
        }
    }

    /// Accepts and serves exactly one connection (tests, manual loops).
    ///
    /// # Errors
    ///
    /// None: failed accepts are counted and retried, and errors on an
    /// accepted connection are absorbed (the client is gone — there is
    /// nobody to tell).
    pub fn accept_one(&self) -> io::Result<()> {
        self.listener
            .accept_one(|stream| self.serve_connection(stream));
        Ok(())
    }

    /// Serves connections forever, one scoped thread per connection.
    /// A failed accept is counted in [`ServerStats::accept_errors`] and
    /// retried after a short pause; it never ends the loop.
    ///
    /// # Errors
    ///
    /// None: the loop does not return.
    pub fn run_concurrent(&self) -> io::Result<()> {
        self.listener
            .serve_forever(|stream| self.serve_connection(stream))
    }

    /// Serves one already-accepted connection: reads a single request,
    /// writes a single `Connection: close` response. I/O failures are
    /// absorbed — the peer has hung up, and a metrics endpoint never
    /// takes the process down with it.
    fn serve_connection(&self, stream: TcpStream) {
        self.connections.incr();
        let _ = self.try_serve(stream);
    }

    fn try_serve(&self, mut stream: TcpStream) -> io::Result<()> {
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let head = read_head(&mut stream);
        let too_large = matches!(head, Err(HeadError::TooLarge));
        let reply = match head {
            Ok(head) => self.route(&head),
            Err(HeadError::Io(error)) => return Err(error),
            Err(HeadError::TooLarge) => self.bad_request("request head too large\n"),
            Err(HeadError::NotUtf8) => self.bad_request("request head is not valid UTF-8\n"),
        };
        let result = reply.write_to(&mut stream);
        if too_large {
            // Unread request bytes at close would turn the FIN into an
            // RST and could destroy the 400 in the peer's receive
            // buffer; briefly drain what the client already sent so the
            // refusal actually arrives.
            drain(&mut stream);
        }
        result
    }

    /// The reply to one UTF-8 request head, counted by outcome.
    fn route(&self, head: &str) -> Reply {
        let Some((method, target)) = parse_request_line(head) else {
            return self.bad_request("malformed request line\n");
        };
        let path = target.split('?').next().unwrap_or("");
        match (path, method) {
            ("/metrics", "GET") => {
                self.scrapes.incr();
                let registry = self
                    .owned
                    .as_deref()
                    .unwrap_or_else(|| crate::metrics::global());
                let body = registry.snapshot().expose();
                Reply::new("200 OK", EXPOSITION_CONTENT_TYPE, body)
            }
            ("/healthz", "GET") => {
                self.health_checks.incr();
                let uptime_seconds = self.started.elapsed().as_secs();
                self.uptime
                    .set(i64::try_from(uptime_seconds).unwrap_or(i64::MAX));
                let body = format!(
                    "{{\"status\":\"ok\",\"package\":\"{}\",\"version\":\"{}\",\"uptime_seconds\":{uptime_seconds}}}\n",
                    env!("CARGO_PKG_NAME"),
                    env!("CARGO_PKG_VERSION"),
                );
                Reply::new("200 OK", "application/json", body)
            }
            ("/metrics" | "/healthz", _) => {
                self.method_not_allowed.incr();
                Reply {
                    extra_headers: "Allow: GET\r\n",
                    ..Reply::text("405 Method Not Allowed", "only GET is supported\n")
                }
            }
            _ => {
                self.not_found.incr();
                Reply::text("404 Not Found", "unknown path; try /metrics or /healthz\n")
            }
        }
    }

    fn bad_request(&self, why: &str) -> Reply {
        self.bad_requests.incr();
        Reply::text("400 Bad Request", why)
    }
}

/// One `Connection: close` response, decided before anything is written.
struct Reply {
    /// Status code and reason phrase, e.g. `"404 Not Found"`.
    status: &'static str,
    content_type: &'static str,
    body: String,
    /// Header lines beyond the fixed ones, each ending in `\r\n`.
    extra_headers: &'static str,
}

impl Reply {
    fn new(status: &'static str, content_type: &'static str, body: String) -> Self {
        Self {
            status,
            content_type,
            body,
            extra_headers: "",
        }
    }

    fn text(status: &'static str, body: &str) -> Self {
        Self::new(status, "text/plain; charset=utf-8", body.to_owned())
    }

    fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let head = format!(
            "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n{}\r\n",
            self.status,
            self.content_type,
            self.body.len(),
            self.extra_headers,
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

enum HeadError {
    Io(io::Error),
    TooLarge,
    NotUtf8,
}

/// Discards whatever the peer is still sending, bounded in both bytes
/// and time, so closing the socket sends a clean FIN instead of an RST.
fn drain(stream: &mut TcpStream) {
    const DRAIN_CAP_BYTES: usize = 1 << 20;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut discarded = 0usize;
    let mut chunk = [0u8; 4096];
    while discarded < DRAIN_CAP_BYTES {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(read) => discarded += read,
        }
    }
}

/// Reads the request head (through the blank line). Stops early if the
/// client closes; the cap keeps a hostile peer from ballooning memory.
fn read_head(mut stream: impl Read) -> Result<String, HeadError> {
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; HEAD_CHUNK];
    while !head.windows(4).any(|window| window == b"\r\n\r\n") {
        if head.len() > MAX_HEAD_BYTES {
            return Err(HeadError::TooLarge);
        }
        let read = stream.read(&mut chunk).map_err(HeadError::Io)?;
        if read == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..read]);
    }
    String::from_utf8(head).map_err(|_| HeadError::NotUtf8)
}

/// `"GET /metrics HTTP/1.1" -> ("GET", "/metrics")`, or `None` for
/// anything that is not a three-token HTTP/1.x request line with an
/// origin-form target.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    let well_formed = parts.next().is_none()
        && version.starts_with("HTTP/1.")
        && !method.is_empty()
        && target.starts_with('/');
    well_formed.then_some((method, target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_lines_parse_strictly() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(
            parse_request_line("POST /healthz?probe=1 HTTP/1.0\r\n\r\n"),
            Some(("POST", "/healthz?probe=1"))
        );
        for bad in [
            "",
            "GARBAGE",
            "GET /metrics",
            "GET /metrics HTTP/2",
            "GET metrics HTTP/1.1",
            "GET /metrics HTTP/1.1 extra",
            " /metrics HTTP/1.1",
        ] {
            assert_eq!(parse_request_line(bad), None, "accepted: {bad:?}");
        }
    }

    /// The bug a single failed accept used to be: it ended
    /// `run_concurrent`, and with it `/metrics` and `/healthz` for the
    /// life of the process. On the listener core it is counted and the
    /// next connection is served.
    #[test]
    fn a_failed_accept_is_counted_and_scrapes_keep_answering() {
        let registry = Arc::new(Registry::new());
        registry.counter("after_accept_error_total", &[]).incr();
        let server = MetricsServer::bind_registry("127.0.0.1:0", registry.clone()).unwrap();
        let addr = server.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        });
        server
            .listener
            .accept_one_after([io::Error::other("injected")], |stream| {
                server.serve_connection(stream);
            });
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(
            response.ends_with(&registry.snapshot().expose()),
            "{response}"
        );
        let stats = server.stats();
        assert_eq!(stats.accept_errors, 1);
        assert_eq!(stats.scrapes, 1);
    }

    /// Serves `bytes` in reads of at most `step` bytes.
    struct ShortReads<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for ShortReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let count = buf.len().min(self.step).min(self.bytes.len());
            buf[..count].copy_from_slice(&self.bytes[..count]);
            self.bytes = &self.bytes[count..];
            Ok(count)
        }
    }

    /// One server for every fuzz case, over a registry of its own.
    fn fuzz_server() -> &'static MetricsServer {
        static SERVER: std::sync::OnceLock<MetricsServer> = std::sync::OnceLock::new();
        SERVER.get_or_init(|| {
            MetricsServer::bind_registry("127.0.0.1:0", Arc::new(Registry::new())).unwrap()
        })
    }

    /// Hostile request heads: arbitrary bytes, ASCII junk, a
    /// well-formed request line followed by ASCII junk, and floods past
    /// the head cap.
    fn request_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            collection::vec(any::<u8>(), 0..600),
            collection::vec(0u8..128, 0..600),
            collection::vec(0u8..128, 0..64).prop_map(|tail| {
                let mut bytes = b"GET /metrics HTTP/1.1\r\n".to_vec();
                bytes.extend(tail);
                bytes
            }),
            (any::<u8>(), 0usize..3 * MAX_HEAD_BYTES).prop_map(|(byte, len)| vec![byte; len]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The head reader, request-line parser and router never panic,
        /// bound the head at the cap plus one read, and answer anything
        /// that is not a well-formed request line with a 400 (heads
        /// that fail to read are answered with one by `try_serve`).
        #[test]
        fn hostile_heads_get_typed_outcomes(bytes in request_bytes(), step in 1usize..1024) {
            let outcome = read_head(ShortReads { bytes: &bytes, step });
            match outcome {
                Ok(head) => {
                    prop_assert!(head.len() <= MAX_HEAD_BYTES + HEAD_CHUNK);
                    prop_assert!(bytes.starts_with(head.as_bytes()));
                    let status = fuzz_server().route(&head).status;
                    match parse_request_line(&head) {
                        None => prop_assert_eq!(status, "400 Bad Request"),
                        Some((method, target)) => {
                            prop_assert!(!method.is_empty() && !method.contains(' '));
                            prop_assert!(target.starts_with('/') && !target.contains(' '));
                            prop_assert!(["200", "404", "405"].contains(&&status[..3]), "{status}");
                        }
                    }
                }
                Err(HeadError::TooLarge) => prop_assert!(bytes.len() > MAX_HEAD_BYTES),
                Err(HeadError::NotUtf8) => prop_assert!(!bytes.is_ascii()),
                Err(HeadError::Io(error)) => panic!("in-memory reads cannot fail: {error}"),
            }
        }
    }
}
