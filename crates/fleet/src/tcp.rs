//! A length-prefixed blocking TCP transport for the fleet service.
//!
//! The service core is transport-agnostic ([`FleetService::handle`] takes
//! decoded [`Request`] values); this module is the thinnest wire that
//! makes it remote: every frame is a `u32` little-endian byte length
//! followed by that many bytes of [`crate::wire`] payload. A connection
//! carries any number of request frames, each answered by exactly one
//! response frame, in order; the peer closing between frames ends the
//! conversation cleanly.
//!
//! **Invariant: every frame leaves in one write on a `TCP_NODELAY`
//! socket.** [`write_frame`] hands the prefix and the payload to one
//! vectored write, and both ends of a connection disable Nagle's
//! algorithm. A request/response protocol is write-write-read: with the
//! prefix and payload as two writes on a Nagle socket, the second write
//! waits for the ACK of the first, and the peer delays that ACK (about
//! 40 ms on Linux) because it has nothing to send yet — so every round
//! trip would stall on the delayed-ACK clock instead of the handler.
//!
//! Deliberately std-only and blocking: a protocol handler over the
//! [`twm_obs::listen`] core. [`TcpFront::run_concurrent`] gives each
//! live connection its own thread, which handles its frames itself once
//! the [`crate::Dispatcher`] admission gate lets it in — at most
//! `workers` requests at a time — and a failed accept is counted and
//! retried rather than ending the front. The framing guards both sides with [`MAX_FRAME`], and
//! [`read_frame`] grows its buffer only as payload bytes arrive, so a
//! corrupt or hostile length prefix cannot drive an unbounded
//! allocation.
//!
//! The front is instrumented as an access log: a connection gauge
//! (`twm_fleet_connections`) plus frame/byte/error and accept-error
//! counters in the [`twm_obs::global`] registry, and — with the trace
//! gate on — per-connection spans carrying per-frame events with byte
//! counts and error outcomes.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, OnceLock};

use twm_obs::listen::Listener;
use twm_obs::{Counter, Gauge};

use crate::dispatch::Dispatcher;
use crate::service::{FleetService, Request, Response};
use crate::{wire, FleetError};

/// Process-wide access-log counters for the TCP front.
struct FrontObs {
    /// Connections currently being served.
    connections: Gauge,
    /// Connections accepted since process start.
    connections_total: Counter,
    /// Request frames decoded and answered.
    frames: Counter,
    /// Payload bytes read off accepted streams.
    bytes_in: Counter,
    /// Payload bytes written back.
    bytes_out: Counter,
    /// Frames whose payload failed to decode as a [`Request`].
    frame_errors: Counter,
    /// Failed `accept` calls, each retried by the listener core.
    accept_errors: Counter,
}

fn front_obs() -> &'static FrontObs {
    static OBS: OnceLock<FrontObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = twm_obs::global();
        FrontObs {
            connections: registry.gauge("twm_fleet_connections", &[]),
            connections_total: registry.counter("twm_fleet_connections_total", &[]),
            frames: registry.counter("twm_fleet_frames_total", &[]),
            bytes_in: registry.counter("twm_fleet_frame_bytes_in_total", &[]),
            bytes_out: registry.counter("twm_fleet_frame_bytes_out_total", &[]),
            frame_errors: registry.counter("twm_fleet_frame_errors_total", &[]),
            accept_errors: registry.counter("twm_fleet_accept_errors_total", &[]),
        }
    })
}

/// Upper bound on a frame's payload bytes (1 GiB). Dictionaries export
/// whole in one frame, so the bound is generous; a length prefix beyond
/// it is treated as a malformed stream, not an allocation request.
pub const MAX_FRAME: usize = 1 << 30;

/// How far [`read_frame`] lets its buffer run ahead of the payload bytes
/// actually received: one chunk (64 KiB), so a length prefix alone can
/// never reserve more than that.
const READ_CHUNK: usize = 64 * 1024;

/// Writes one length-prefixed frame as a single vectored write (looping
/// only on short writes), so the prefix and the payload leave together
/// without copying the payload into a prefixed buffer.
///
/// # Errors
///
/// [`FleetError::Io`] when the writer fails, [`FleetError::Wire`] when
/// the payload exceeds [`MAX_FRAME`].
pub fn write_frame<W: Write + ?Sized>(writer: &mut W, payload: &[u8]) -> Result<(), FleetError> {
    if payload.len() > MAX_FRAME {
        return Err(FleetError::Wire(format!(
            "frame of {} bytes exceeds the {MAX_FRAME}-byte bound",
            payload.len()
        )));
    }
    let len = u32::try_from(payload.len())
        .expect("MAX_FRAME fits u32")
        .to_le_bytes();
    let mut slices = [IoSlice::new(&len), IoSlice::new(payload)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match writer.write_vectored(unsent) {
            Ok(0) => return Err(FleetError::Io(io::ErrorKind::WriteZero.into())),
            Ok(count) => IoSlice::advance_slices(&mut unsent, count),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FleetError::Io(e)),
        }
    }
    writer.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame; `Ok(None)` on a clean end-of-stream
/// (the peer closed between frames).
///
/// The payload buffer grows one 64 KiB chunk at a time as bytes arrive,
/// so its capacity never exceeds the bytes received plus one chunk, nor
/// the declared length: a prefix that lies costs at most one chunk, and
/// a large legitimate frame carries no doubling slack.
///
/// # Errors
///
/// [`FleetError::Wire`] when the stream ends inside a frame or the
/// length prefix exceeds [`MAX_FRAME`]; [`FleetError::Io`] for other
/// read failures.
pub fn read_frame<R: Read + ?Sized>(reader: &mut R) -> Result<Option<Vec<u8>>, FleetError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FleetError::Wire(
                    "stream ended inside a frame's length prefix".into(),
                ))
            }
            Ok(count) => filled += count,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FleetError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(FleetError::Wire(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte bound"
        )));
    }
    let mut payload = Vec::new();
    while payload.len() < len {
        let received = payload.len();
        let chunk = (len - received).min(READ_CHUNK);
        payload.reserve_exact(chunk);
        payload.resize(received + chunk, 0);
        match reader.read(&mut payload[received..]) {
            Ok(0) => {
                return Err(FleetError::Wire(
                    "stream ended inside a frame's payload".into(),
                ))
            }
            Ok(count) => payload.truncate(received + count),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => payload.truncate(received),
            Err(e) => return Err(FleetError::Io(e)),
        }
    }
    Ok(Some(payload))
}

/// A blocking TCP front over a shared [`FleetService`].
#[derive(Debug)]
pub struct TcpFront {
    listener: Listener,
    service: Arc<FleetService>,
}

impl TcpFront {
    /// Binds a listener (use port 0 for an ephemeral test port).
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the bind fails.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<FleetService>) -> Result<Self, FleetError> {
        Ok(Self {
            listener: Listener::bind(addr, front_obs().accept_errors.clone())?,
            service,
        })
    }

    /// The bound address (where clients connect).
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the socket cannot report it.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, FleetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Accepts one connection (retrying failed accepts) and serves it
    /// to completion in-process.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] / [`FleetError::Wire`] from the conversation.
    /// Malformed *requests inside* a healthy stream do not error here —
    /// they are answered with [`Response::Error`] frames.
    pub fn accept_one(&self) -> Result<(), FleetError> {
        self.listener
            .accept_one(|stream| self.serve_stream(stream, None))
    }

    /// The shared conversation loop: decode, handle (directly or through
    /// a dispatcher's admission gate), respond — logging every frame. Every
    /// accepted stream passes through here, which turns Nagle off on it.
    fn serve_stream(
        &self,
        mut stream: TcpStream,
        dispatcher: Option<&Dispatcher>,
    ) -> Result<(), FleetError> {
        stream.set_nodelay(true)?;
        let obs = front_obs();
        obs.connections.incr();
        obs.connections_total.incr();
        let mut span = twm_obs::span("fleet.connection");
        if let Ok(peer) = stream.peer_addr() {
            span.field("peer", peer);
        }
        let mut frames = 0u64;
        let result = (|| {
            while let Some(payload) = read_frame(&mut stream)? {
                obs.frames.incr();
                obs.bytes_in.add(payload.len() as u64);
                let (response, outcome) = match wire::from_bytes::<Request>(&payload) {
                    Ok(request) => {
                        let response = match dispatcher {
                            Some(dispatcher) => dispatcher.handle(request),
                            None => self.service.handle(request),
                        };
                        (response, "ok")
                    }
                    Err(error) => {
                        obs.frame_errors.incr();
                        (
                            Response::Error {
                                message: error.to_string(),
                            },
                            "bad_request",
                        )
                    }
                };
                let encoded = wire::to_bytes(&response);
                obs.bytes_out.add(encoded.len() as u64);
                // Tracing off costs one load: the field strings are built
                // only for a live trace.
                if twm_obs::trace::enabled() {
                    twm_obs::event(
                        "fleet.frame",
                        &[
                            ("bytes_in", &payload.len().to_string()),
                            ("bytes_out", &encoded.len().to_string()),
                            ("outcome", outcome),
                        ],
                    );
                }
                frames += 1;
                write_frame(&mut stream, &encoded)?;
            }
            Ok(())
        })();
        span.field("frames", frames);
        span.field(
            "outcome",
            match &result {
                Ok(()) => "closed",
                Err(_) => "error",
            },
        );
        obs.connections.decr();
        result
    }

    /// Accepts and serves connections forever, **concurrently**: one
    /// thread per live connection owns its stream's framing and handles
    /// its requests, at most `workers` at a time across connections (a
    /// [`Dispatcher`] gate), so slow or held-open peers never block each
    /// other.
    ///
    /// A failed accept is counted in `twm_fleet_accept_errors_total`
    /// and retried after a short pause; it never ends the loop.
    ///
    /// # Errors
    ///
    /// None: the loop does not return. Per-connection conversation
    /// failures end only that connection.
    pub fn run_concurrent(&self, workers: usize) -> Result<(), FleetError> {
        let dispatcher = Dispatcher::new(Arc::clone(&self.service), workers);
        self.listener.serve_forever(|stream| {
            // A peer hanging up mid-frame is that peer's problem.
            let _ = self.serve_stream(stream, Some(&dispatcher));
        })
    }

    /// Accepts exactly `connections` connections and serves them
    /// concurrently through `dispatcher`, returning when all have
    /// closed — [`TcpFront::run_concurrent`] with a deterministic
    /// endpoint, for tests and drains.
    ///
    /// # Errors
    ///
    /// The first conversation failure among the accepted connections
    /// (all are joined first); failed accepts are counted and retried.
    pub fn accept_pooled(
        &self,
        dispatcher: &Dispatcher,
        connections: usize,
    ) -> Result<(), FleetError> {
        self.listener
            .accept_n(connections, |stream| {
                self.serve_stream(stream, Some(dispatcher))
            })
            .into_iter()
            .collect()
    }
}

/// A blocking client for a [`TcpFront`].
#[derive(Debug)]
pub struct FleetClient {
    stream: TcpStream,
}

impl FleetClient {
    /// Connects to a front, with Nagle's algorithm off (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the connect fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, FleetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] / [`FleetError::Wire`] on transport failures —
    /// including the server closing before responding.
    pub fn request(&mut self, request: &Request) -> Result<Response, FleetError> {
        write_frame(&mut self.stream, &wire::to_bytes(request))?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| FleetError::Wire("server closed before responding".into()))?;
        wire::from_bytes(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frames_round_trip() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"hello").unwrap();
        write_frame(&mut stream, b"").unwrap();
        let mut reader = stream.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn truncated_frames_and_giant_prefixes_are_typed() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"hello").unwrap();
        let mut reader = &stream[..3]; // inside the prefix
        assert!(matches!(read_frame(&mut reader), Err(FleetError::Wire(_))));
        let mut reader = &stream[..6]; // inside the payload
        assert!(matches!(read_frame(&mut reader), Err(FleetError::Wire(_))));
        let giant = (u32::try_from(MAX_FRAME).unwrap() + 1).to_le_bytes();
        let mut reader = &giant[..];
        assert!(matches!(read_frame(&mut reader), Err(FleetError::Wire(_))));
    }

    /// Counts every write call, vectored or not, and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            bufs.iter()
                .for_each(|buf| self.bytes.extend_from_slice(buf));
            Ok(bufs.iter().map(|buf| buf.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_one_write_call() {
        let mut writer = CountingWriter::default();
        write_frame(&mut writer, b"hello").unwrap();
        assert_eq!(writer.calls, 1);
        write_frame(&mut writer, b"").unwrap();
        assert_eq!(writer.calls, 2);
        let mut reader = writer.bytes.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    /// Accepts at most three bytes per call, splitting prefix and payload.
    struct TrickleWriter(Vec<u8>);

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let count = buf.len().min(3);
            self.0.extend_from_slice(&buf[..count]);
            Ok(count)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_resume_where_they_stopped() {
        let mut writer = TrickleWriter(Vec::new());
        write_frame(&mut writer, b"hello, fleet").unwrap();
        let mut reader = writer.0.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"hello, fleet");
    }

    /// Serves `bytes` in reads of at most `step`, asserting that
    /// `read_frame` never offers a buffer longer than one chunk.
    struct ChunkCheckingReader<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for ChunkCheckingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(buf.len() <= READ_CHUNK, "offered {} bytes", buf.len());
            let count = buf.len().min(self.step).min(self.bytes.len());
            buf[..count].copy_from_slice(&self.bytes[..count]);
            self.bytes = &self.bytes[count..];
            Ok(count)
        }
    }

    #[test]
    fn read_buffers_grow_with_the_bytes_received() {
        let payload: Vec<u8> = (0..3 * READ_CHUNK + 17).map(|i| i as u8).collect();
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        for step in [1000, READ_CHUNK, usize::MAX] {
            let mut reader = ChunkCheckingReader {
                bytes: &stream,
                step,
            };
            let read = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(read, payload);
            assert_eq!(read.capacity(), payload.len(), "no slack past the frame");
        }

        // A prefix claiming 512 MiB, then EOF: a typed error, not a
        // 512 MiB allocation.
        let liar = u32::try_from(512usize << 20).unwrap().to_le_bytes();
        let mut reader = ChunkCheckingReader {
            bytes: &liar,
            step: usize::MAX,
        };
        assert!(matches!(read_frame(&mut reader), Err(FleetError::Wire(_))));
    }

    /// A request whose encoding nests records, sequences and variants.
    fn nested_request() -> Request {
        Request::BuildDictionary {
            scheme: twm_core::scheme::SchemeId::TwmTa,
            source: twm_march::algorithms::march_c_minus(),
            config: twm_mem::MemoryConfig::new(16, 8).unwrap(),
            content: twm_coverage::ContentPolicy::Random { seed: 5 },
            universe: crate::UniverseSpec::default(),
        }
    }

    /// A two-device batch, the request the serve path decodes most.
    fn diagnose_request() -> Request {
        let shard = crate::ShardKey::new(
            twm_mem::MemoryConfig::new(16, 8).unwrap(),
            twm_core::scheme::SchemeId::TwmTa,
            &twm_march::algorithms::march_c_minus(),
        );
        let word = |bits| twm_mem::Word::from_bits(bits, 8).unwrap();
        let report = |device: &str, trail: Vec<twm_mem::Word>| crate::DeviceReport {
            device: device.to_string(),
            shard,
            trail: crate::SignatureTrail::new(trail),
            spares: 2,
        };
        Request::DiagnoseBatch {
            reports: vec![
                report("dev-0", vec![word(0x5A), word(0xC3)]),
                report("dev-1", vec![word(0xFF), word(0x00), word(0x81)]),
            ],
        }
    }

    /// A valid frame of `request` that may carry a flipped byte and be
    /// truncated.
    fn mutated_frame(request: fn() -> Request) -> impl Strategy<Value = Vec<u8>> {
        (any::<usize>(), any::<u8>(), any::<bool>(), any::<usize>()).prop_map(
            move |(at, flip, truncate, cut)| {
                let mut bytes = Vec::new();
                write_frame(&mut bytes, &wire::to_bytes(&request())).unwrap();
                let at = at % bytes.len();
                bytes[at] ^= flip;
                if truncate {
                    bytes.truncate(cut % bytes.len());
                }
                bytes
            },
        )
    }

    /// Hostile frame streams: arbitrary bytes (random, usually huge,
    /// length prefixes), an honest prefix over a payload that may be
    /// cut short or run on, and valid request frames (a nested build
    /// and a device batch) that may be truncated or carry a flipped byte.
    fn frame_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            collection::vec(any::<u8>(), 0..64),
            (0u32..512, collection::vec(any::<u8>(), 0..512)).prop_map(|(len, payload)| {
                let mut bytes = len.to_le_bytes().to_vec();
                bytes.extend(payload);
                bytes
            }),
            mutated_frame(nested_request),
            mutated_frame(diagnose_request),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Frame reading and request decoding never panic, end in a
        /// typed outcome, and never buffer more than one chunk past the
        /// bytes actually received (the reader asserts every offered
        /// buffer is at most one chunk). A bad frame's error message, the
        /// one `Response::Error` carries back, stays short: it never
        /// echoes a string from the wire.
        #[test]
        fn hostile_frame_streams_get_typed_outcomes(
            bytes in frame_bytes(),
            step in 1usize..2 * READ_CHUNK,
        ) {
            let mut reader = ChunkCheckingReader { bytes: &bytes, step };
            match read_frame(&mut reader) {
                Ok(None) => prop_assert!(bytes.is_empty()),
                Ok(Some(payload)) => {
                    let received = bytes.len() - reader.bytes.len();
                    prop_assert!(payload.capacity() <= received + READ_CHUNK);
                    prop_assert_eq!(&payload[..], &bytes[4..received]);
                    match wire::from_bytes::<Request>(&payload) {
                        Ok(_) => {}
                        Err(error @ FleetError::Wire(_)) => {
                            prop_assert!(error.to_string().len() <= 256, "{error}");
                        }
                        Err(other) => panic!("untyped decode failure: {other}"),
                    }
                }
                Err(FleetError::Wire(_)) => {}
                Err(other) => panic!("untyped frame failure: {other}"),
            }
        }
    }

    fn loopback_front() -> (TcpFront, Arc<FleetService>) {
        let service = Arc::new(FleetService::with_defaults().unwrap());
        let front = TcpFront::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
        (front, service)
    }

    #[test]
    fn client_streams_have_nagle_off() {
        let (front, _) = loopback_front();
        let client = FleetClient::connect(front.local_addr().unwrap()).unwrap();
        assert!(client.stream.nodelay().unwrap());
    }

    #[test]
    fn accept_errors_are_counted_and_the_loop_keeps_serving() {
        let (front, service) = loopback_front();
        let addr = front.local_addr().unwrap();
        let dispatcher = Dispatcher::new(service, 1);
        let errors = front_obs().accept_errors.get();
        let client = std::thread::spawn(move || {
            let mut client = FleetClient::connect(addr).unwrap();
            client.request(&Request::ListShards).unwrap()
        });
        front
            .listener
            .accept_one_after([io::Error::other("injected")], |stream| {
                front.serve_stream(stream, Some(&dispatcher))
            })
            .unwrap();
        assert_eq!(client.join().unwrap(), Response::Shards(Vec::new()));
        assert_eq!(front_obs().accept_errors.get(), errors + 1);
    }
}
