//! An admission gate in front of [`FleetService::handle`].
//!
//! A [`Dispatcher`] bounds how many requests one service handles at once.
//! It owns no threads: each caller — in [`crate::TcpFront`], the thread
//! that owns a connection — waits for one of the gate's permits, handles
//! its request on its own thread and gives the permit back. The permit is
//! returned also when the handler panics, and the panic is answered with
//! [`Response::Error`], so one bad request neither leaks a permit nor
//! takes a thread down. The compute fan-out inside a batch runs on the
//! service's own worker pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use crate::service::{FleetService, Request, Response};

/// Admits at most `workers` concurrent requests to one [`FleetService`].
#[derive(Debug)]
pub struct Dispatcher {
    service: Arc<FleetService>,
    /// The number of permits.
    limit: usize,
    /// Permits currently held.
    in_use: Mutex<usize>,
    /// Signalled whenever a permit is returned.
    freed: Condvar,
}

impl Dispatcher {
    /// A gate of `workers` permits (at least one) over the service.
    #[must_use]
    pub fn new(service: Arc<FleetService>, workers: usize) -> Self {
        Self {
            service,
            limit: workers.max(1),
            in_use: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Handles one request on the calling thread once a permit is free.
    /// A panicking handler is answered with [`Response::Error`].
    #[must_use]
    pub fn handle(&self, request: Request) -> Response {
        self.admit(|| self.service.handle(request))
    }

    /// The service behind the gate.
    #[must_use]
    pub fn service(&self) -> &Arc<FleetService> {
        &self.service
    }

    /// Runs `job` on the calling thread under one permit, waiting for a
    /// free permit first. The job's panic is caught, so the permit is
    /// returned however the job ends.
    fn admit(&self, job: impl FnOnce() -> Response) -> Response {
        {
            let mut in_use = self.in_use.lock().expect("gate lock");
            while *in_use == self.limit {
                in_use = self.freed.wait(in_use).expect("gate lock");
            }
            *in_use += 1;
        }
        let response = catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|_| Response::Error {
            message: "the request handler panicked".to_string(),
        });
        *self.in_use.lock().expect("gate lock") -= 1;
        self.freed.notify_one();
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::FleetConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use twm_coverage::Strategy;

    fn dispatcher(workers: usize) -> Dispatcher {
        let service = FleetService::new(FleetConfig {
            strategy: Strategy::Serial,
            ..FleetConfig::default()
        })
        .unwrap();
        Dispatcher::new(Arc::new(service), workers)
    }

    #[test]
    fn dispatches_through_the_service() {
        let dispatcher = dispatcher(2);
        for _ in 0..8 {
            assert_eq!(
                dispatcher.handle(Request::ListShards),
                Response::Shards(Vec::new())
            );
        }
    }

    #[test]
    fn a_panicking_job_is_an_error_and_frees_its_permit() {
        let dispatcher = dispatcher(1);
        let response = dispatcher.admit(|| panic!("handler bug"));
        assert!(matches!(response, Response::Error { .. }), "{response:?}");
        assert_eq!(*dispatcher.in_use.lock().unwrap(), 0);
        // The single permit is free again: the next request is served.
        assert_eq!(
            dispatcher.handle(Request::ListShards),
            Response::Shards(Vec::new())
        );
    }

    #[test]
    fn concurrent_callers_never_exceed_the_limit() {
        const LIMIT: usize = 2;
        const CALLERS: usize = 16;
        let gate = Arc::new(dispatcher(LIMIT));
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        // Each caller's one job waits until LIMIT jobs are inside
        // together, so every round of admissions reaches the limit. The
        // callers are distinct threads and a multiple of LIMIT, so every
        // round fills.
        let inside = Arc::new(Barrier::new(LIMIT));
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                let (gate, active, peak, inside) =
                    (gate.clone(), active.clone(), peak.clone(), inside.clone());
                std::thread::spawn(move || {
                    gate.admit(|| {
                        let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        inside.wait();
                        active.fetch_sub(1, Ordering::SeqCst);
                        Response::Shards(Vec::new())
                    })
                })
            })
            .collect();
        for caller in callers {
            assert_eq!(caller.join().unwrap(), Response::Shards(Vec::new()));
        }
        assert_eq!(peak.load(Ordering::SeqCst), LIMIT);
        assert_eq!(*gate.in_use.lock().unwrap(), 0);
    }
}
