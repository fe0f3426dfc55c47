//! # twm-obs — workspace-wide observability
//!
//! A std-only, zero-external-dependency observability layer for the
//! twm workspace: the fleet north star (heavy traffic from millions of
//! devices) is unreachable without per-request latency, cache and
//! fan-out visibility at runtime, and operating the TCP front needs an
//! access log and saturation metrics.
//!
//! The pieces, deliberately small:
//!
//! * [`metrics`] — a process-wide [`Registry`] of atomic [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s. The hot path is
//!   lock-free (one relaxed `fetch_add` per count, a bucket scan plus
//!   three `fetch_add`s per histogram observation) and cheap enough to
//!   leave on in production. [`Registry::snapshot`] freezes everything
//!   into a serde-serialisable [`MetricsReport`], and
//!   [`MetricsReport::expose`] renders the Prometheus text format —
//!   both orderings are deterministic, so a snapshot shipped over the
//!   wire re-renders to the identical exposition.
//! * [`trace`] — hierarchical [`Span`]s and point [`event`]s behind a
//!   **static gate**: when tracing is disabled (the default) a span
//!   costs exactly one relaxed atomic load. Completed spans and events
//!   are pushed to a pluggable process-wide [`Sink`] — [`JsonLinesSink`]
//!   for log shipping, [`RingSink`] (bounded, drop-oldest) for tests,
//!   [`NoopSink`] by default — and a one-in-N sampling knob bounds the
//!   volume under load. Lossy sinks count their losses
//!   (`twm_obs_sink_write_errors_total`, `twm_obs_ring_dropped_records`)
//!   so dropped records are visible on any scrape.
//! * [`listen`] — the one std-only [`listen::Listener`] core every
//!   socket front is a protocol handler over: a thread per connection
//!   and one accept-error policy (count, back off, keep serving).
//! * [`http`] — a minimal std-only HTTP/1.1 [`MetricsServer`] on that
//!   core, serving `GET /metrics` (the exposition of one snapshot, with
//!   **zero** registry mutation per scrape) and `GET /healthz` (uptime
//!   and build-info gauges), with typed 400/404/405 handling — a stock
//!   Prometheus scrapes a live process without the fleet's frame
//!   protocol.
//! * [`profile`] — a [`ProfilerSink`] folding the span stream into
//!   per-span-name **self-time** (elapsed minus direct children),
//!   call counts and min/max/total wall time, snapshotting to a serde
//!   [`ProfileReport`] — "where does the time go", with no record
//!   shipping.
//! * Quantiles — [`HistogramSnapshot::quantile`] interpolates within
//!   buckets (exact at bucket edges), and
//!   [`HistogramSnapshot::summary`] rolls p50/p90/p99 into a
//!   [`QuantileSummary`] for reports and fleet statistics.
//! * The **non-interference invariant**: instrumentation only observes.
//!   Enabling or disabling any of it never changes a computed result —
//!   coverage reports, batch diagnoses and dictionary lookups are
//!   bit-identical with observability on or off (property-tested in the
//!   facade crate).
//!
//! ## Counting and scraping
//!
//! ```
//! use twm_obs::{global, latency_bounds};
//!
//! let requests = global().counter("doc_requests_total", &[("kind", "demo")]);
//! let latency = global().histogram("doc_latency_ns", &[], &latency_bounds());
//! requests.incr();
//! latency.observe(1_500);
//!
//! let report = global().snapshot();
//! let text = report.expose();
//! assert!(text.contains("doc_requests_total{kind=\"demo\"} 1"));
//! ```
//!
//! ## Tracing into a ring buffer
//!
//! ```
//! use std::sync::Arc;
//! use twm_obs::{trace, RingSink};
//!
//! let ring = Arc::new(RingSink::new(16));
//! trace::set_sink(ring.clone());
//! trace::set_enabled(true);
//! {
//!     let mut span = trace::span("doc.work");
//!     span.field("items", 3);
//!     trace::event("doc.step", &[("at", "half")]);
//! } // span records on drop
//! trace::set_enabled(false);
//! let records = ring.take();
//! assert_eq!(records.len(), 2);
//! ```
//!
//! ## Scraping over HTTP and summarising latency
//!
//! ```no_run
//! use twm_obs::{global, latency_bounds, MetricsServer};
//!
//! let latency = global().histogram("doc_http_latency_ns", &[], &latency_bounds());
//! latency.observe(2_000);
//! let p99 = latency.snapshot().quantile(0.99).unwrap();
//! assert!(p99 >= 1_000.0);
//!
//! // `GET http://127.0.0.1:9090/metrics` now returns the exposition;
//! // the loop serves a thread per connection and never returns.
//! let server = MetricsServer::bind("127.0.0.1:9090").unwrap();
//! let _ = server.run_concurrent();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod http;
pub mod listen;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use http::{MetricsServer, ServerStats};
pub use metrics::{
    exponential_bounds, global, latency_bounds, Counter, Gauge, Histogram, HistogramSnapshot,
    Label, MetricSample, MetricValue, MetricsReport, QuantileSummary, Registry,
};
pub use profile::{ProfileReport, ProfilerSink, SpanProfile};
pub use trace::{event, span, JsonLinesSink, NoopSink, Record, RingSink, Sink, Span};
