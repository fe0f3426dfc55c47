//! The one listener core: the fleet's frame front (`twm_fleet::TcpFront`)
//! and the HTTP [`crate::MetricsServer`] are protocol handlers — a
//! `Fn(TcpStream)` per connection — over a [`Listener`], which owns the
//! socket, a thread per live connection and the single accept-error
//! policy: a failed `accept` (say, out of file descriptors) is counted,
//! followed by a 10 ms pause so a persistent error cannot spin, and
//! retried. No method returns an accept error, so one bad accept never
//! ends a front.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::metrics::Counter;

/// The pause after a failed `accept`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A bound TCP listener that hands accepted connections to a protocol
/// handler.
#[derive(Debug)]
pub struct Listener {
    listener: TcpListener,
    accept_errors: Counter,
}

impl Listener {
    /// Binds a listener (use port `0` for an ephemeral port); failed
    /// accepts are counted into `accept_errors`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, accept_errors: Counter) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
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

    /// Accepts one connection and serves it on the calling thread,
    /// returning what `serve` returns.
    pub fn accept_one<T>(&self, serve: impl FnOnce(TcpStream) -> T) -> T {
        self.accept_one_after([], serve)
    }

    /// [`Listener::accept_one`] with `injected` errors standing in for
    /// the socket's first accepts: each is counted and backed off
    /// exactly as a real accept failure is, before the socket is asked.
    /// The fault-injection seam for the accept-error policy.
    pub fn accept_one_after<T>(
        &self,
        injected: impl IntoIterator<Item = io::Error>,
        serve: impl FnOnce(TcpStream) -> T,
    ) -> T {
        serve(self.next_stream(injected.into_iter()))
    }

    /// Accepts exactly `connections` connections, serving each on its
    /// own scoped thread, and returns their outcomes in accept order
    /// once all have closed — [`Listener::serve_forever`] with a
    /// deterministic endpoint, for tests and drains.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `serve`.
    pub fn accept_n<T: Send>(
        &self,
        connections: usize,
        serve: impl Fn(TcpStream) -> T + Sync,
    ) -> Vec<T> {
        let serve = &serve;
        std::thread::scope(|scope| {
            let served: Vec<_> = (0..connections)
                .map(|_| {
                    let stream = self.next_stream(std::iter::empty());
                    scope.spawn(move || serve(stream))
                })
                .collect();
            served
                .into_iter()
                .map(|connection| connection.join().expect("connection thread panicked"))
                .collect()
        })
    }

    /// Accepts and serves connections forever, each on its own scoped
    /// thread, so slow or held-open peers never block each other.
    pub fn serve_forever(&self, serve: impl Fn(TcpStream) + Sync) -> ! {
        let serve = &serve;
        std::thread::scope(|scope| loop {
            let stream = self.next_stream(std::iter::empty());
            scope.spawn(move || serve(stream));
        })
    }

    /// The next accepted stream under the accept-error policy, taking
    /// `injected` errors first. The workspace's one `accept` call.
    fn next_stream(&self, mut injected: impl Iterator<Item = io::Error>) -> TcpStream {
        loop {
            match injected.next().map_or_else(|| self.listener.accept(), Err) {
                Ok((stream, _)) => return stream,
                Err(_) => {
                    self.accept_errors.incr();
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn loopback() -> (Listener, Counter) {
        let errors = Counter::new();
        let listener = Listener::bind("127.0.0.1:0", errors.clone()).unwrap();
        (listener, errors)
    }

    /// Connects, sends `byte`, and returns what the server echoes.
    fn echo_client(addr: SocketAddr, byte: u8) -> std::thread::JoinHandle<u8> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&[byte]).unwrap();
            let mut echoed = [0u8];
            stream.read_exact(&mut echoed).unwrap();
            echoed[0]
        })
    }

    fn echo(mut stream: TcpStream) -> u8 {
        let mut byte = [0u8];
        stream.read_exact(&mut byte).unwrap();
        stream.write_all(&byte).unwrap();
        byte[0]
    }

    #[test]
    fn accept_errors_are_counted_and_the_next_connection_is_served() {
        let (listener, errors) = loopback();
        let client = echo_client(listener.local_addr().unwrap(), 7);
        let injected = [io::Error::other("first"), io::Error::other("second")];
        assert_eq!(listener.accept_one_after(injected, echo), 7);
        assert_eq!(client.join().unwrap(), 7);
        assert_eq!(errors.get(), 2);
    }

    #[test]
    fn accept_n_serves_its_connections_concurrently() {
        let (listener, errors) = loopback();
        let addr = listener.local_addr().unwrap();
        // Each handler waits for the other, so serving the two
        // connections one after the other would deadlock.
        let barrier = std::sync::Barrier::new(2);
        let clients: Vec<_> = (1..=2).map(|byte| echo_client(addr, byte)).collect();
        let mut served = listener.accept_n(2, |stream| {
            barrier.wait();
            echo(stream)
        });
        served.sort_unstable();
        assert_eq!(served, [1, 2]);
        for (client, byte) in clients.into_iter().zip(1..) {
            assert_eq!(client.join().unwrap(), byte);
        }
        assert_eq!(errors.get(), 0);
    }
}
