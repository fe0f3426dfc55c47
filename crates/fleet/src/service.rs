//! The transport-agnostic service core: a request/response enum pair and
//! the synchronous [`FleetService::handle`] entry point.
//!
//! The service is deliberately transport-free — callers hand it a
//! [`Request`] value (decoded from the [`crate::wire`] format or built
//! in-process) and get a [`Response`] value back. A socket server, a CI
//! harness and the [`crate::Dispatcher`] admission gate all wrap the same
//! `handle`.
//!
//! ## Determinism
//!
//! Batched diagnosis fans devices across the service's [`WorkerPool`],
//! but every per-device verdict is a pure function of the shard runtime
//! and the report, results are merged back into submission order, and batch
//! statistics are folded serially from that order — so a batch response
//! is **bit-identical to the serial path** for any thread count, and
//! cumulative statistics (all counters additive) do not depend on how
//! concurrent batches interleave. Cache hit/miss counters *do* depend on
//! arrival order; they live in [`CacheMetrics`], apart from the
//! deterministic [`FleetStatistics`].

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use twm_core::scheme::SchemeId;
use twm_coverage::{ContentPolicy, Strategy, UniverseBuilder, WorkerPool};
use twm_march::MarchTest;
use twm_mem::{FaultyMemory, MemoryConfig, RepairableMemory};
use twm_obs::{
    latency_bounds, Counter, Histogram, HistogramSnapshot, MetricsReport, MetricsServer,
};
use twm_repair::{
    verify_repair, AmbiguityClass, DictionaryOptions, LocatedDefect, RepairAllocator, RepairError,
    RepairPlan, SignatureDictionary, SignatureTrail, TrailDiagnosis, TrailLookup,
};

use crate::cache::{cache_obs, RuntimeCache, ShardRuntime};
use crate::shard::ShardKey;
use crate::stats::{CacheMetrics, FleetStatistics};
use crate::store::{DictionaryStore, SpillConfig};
use crate::FleetError;

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker-thread strategy for batch fan-out, engine simulations and
    /// server-side dictionary builds. A batch fans across a pool of
    /// `workers - 1` threads owned by the service, the handling thread
    /// being the last worker.
    pub strategy: Strategy,
    /// LRU bound on cached shard runtimes.
    pub cache_capacity: usize,
    /// Whether diagnosed devices get their repair plan verified by
    /// simulation (apply the plan to the ambiguity class's representative
    /// injection and re-run the scheme session through the remap table).
    /// The verdict depends only on the shard and the matched class, so
    /// once the cache has handed a shard's runtime out again, the first
    /// device of a class pays for the session and the runtime answers
    /// the rest of the class from its memo.
    pub verify_repairs: bool,
    /// When set, shards whose runtimes fall out of the LRU cache are
    /// demoted to paged spill files under this configuration — lookups
    /// keep working from disk and fleet memory stays bounded by the
    /// page-cache budget.
    pub spill: Option<SpillConfig>,
    /// When set, the service binds a [`twm_obs::MetricsServer`] on this
    /// address at construction and serves `GET /metrics` (the
    /// process-wide registry in the Prometheus text format) and
    /// `GET /healthz` from a background thread for the life of the
    /// process. Bind to port 0 and read the resolved address back with
    /// [`FleetService::metrics_addr`].
    pub metrics_http: Option<SocketAddr>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::Auto,
            cache_capacity: 8,
            verify_repairs: true,
            spill: None,
            metrics_http: None,
        }
    }
}

/// Which fault classes a server-side dictionary build indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UniverseSpec {
    /// Index single stuck-at faults.
    pub stuck_at: bool,
    /// Index single transition faults.
    pub transition: bool,
    /// Index idempotent coupling faults.
    pub coupling_idempotent: bool,
    /// Two-fault injections to sample on top of the single-fault
    /// universe.
    pub multi_fault_samples: usize,
    /// Seed of the deterministic pair sampler.
    pub sample_seed: u64,
}

impl Default for UniverseSpec {
    fn default() -> Self {
        Self {
            stuck_at: true,
            transition: true,
            coupling_idempotent: false,
            multi_fault_samples: 0,
            sample_seed: 0xD1C7,
        }
    }
}

/// One device's periodic-test report: where it runs and what its MISR
/// produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Caller-chosen device identifier, echoed in the outcome.
    pub device: String,
    /// The deployment triple the device runs.
    pub shard: ShardKey,
    /// The observed per-stage MISR signature trail.
    pub trail: SignatureTrail,
    /// Spare words the device's memory has available for repair.
    pub spares: usize,
}

/// The service request set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Request {
    /// Register a client-built dictionary for the shard derived from its
    /// config, scheme and `source`.
    RegisterDictionary {
        /// The source march test of the deployment.
        source: MarchTest,
        /// The dictionary (built with [`SignatureDictionary::build`]).
        dictionary: SignatureDictionary,
    },
    /// Build a dictionary server-side (through the cached engine for the
    /// config/content pair) and register it.
    BuildDictionary {
        /// The transparent scheme of the deployment.
        scheme: SchemeId,
        /// The source march test.
        source: MarchTest,
        /// The memory shape.
        config: MemoryConfig,
        /// The reference content policy devices run the periodic test
        /// against.
        content: ContentPolicy,
        /// The fault universe to index.
        universe: UniverseSpec,
    },
    /// Drop a shard's dictionary (and its cached runtime).
    EvictDictionary {
        /// The shard to evict.
        shard: ShardKey,
    },
    /// List the registered shards.
    ListShards,
    /// Diagnose a batch of device reports.
    DiagnoseBatch {
        /// The reports; outcomes come back in this order.
        reports: Vec<DeviceReport>,
    },
    /// Export a shard's source test and dictionary in the wire format.
    ExportShard {
        /// The shard to export.
        shard: ShardKey,
    },
    /// Register a shard from an [`Response::Exported`] payload.
    ImportShard {
        /// The wire-format bytes.
        bytes: Vec<u8>,
    },
    /// Cumulative diagnosis statistics since service start.
    Statistics,
    /// Runtime-cache health counters.
    CacheMetrics,
    /// A scrape of the process-wide [`twm_obs`] metrics registry —
    /// the remote equivalent of calling [`twm_obs::Registry::snapshot`]
    /// in-process.
    Metrics,
}

/// A registered shard, as listed by [`Request::ListShards`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardInfo {
    /// The shard key.
    pub shard: ShardKey,
    /// Name of the source march test.
    pub test_name: String,
    /// Ambiguity classes in the dictionary.
    pub classes: usize,
    /// Injections the dictionary indexes.
    pub indexed: usize,
}

/// The verdict for one device of a batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DeviceVerdict {
    /// The trail matches the fault-free reference.
    Clean,
    /// No dictionary is registered for the report's shard.
    UnknownShard,
    /// The trail fails but matches no indexed injection (content drift or
    /// an un-modelled defect) — candidate for escalation to on-device
    /// adaptive localisation.
    UnknownTrail,
    /// The trail matched an ambiguity class.
    Diagnosed(Diagnosis),
    /// Diagnosis failed with an internal error.
    Failed {
        /// The error rendered as text.
        message: String,
    },
}

/// A successful trail diagnosis with its repair plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Ranked defect hypotheses.
    pub defects: Vec<LocatedDefect>,
    /// Size of the matched ambiguity class.
    pub ambiguity: usize,
    /// Spare assignment over the device's budget.
    pub plan: RepairPlan,
    /// Whether the plan re-verified clean on the class's representative
    /// injection (always `false` when verification is disabled or the
    /// plan leaves defects unrepaired).
    pub predicted_clean: bool,
}

/// One device's slot of a batch response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceOutcome {
    /// The report's device identifier.
    pub device: String,
    /// The verdict.
    pub verdict: DeviceVerdict,
}

/// A whole batch's outcomes plus its (batch-local) statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Per-device outcomes, in submission order.
    pub outcomes: Vec<DeviceOutcome>,
    /// Statistics folded over this batch only.
    pub statistics: FleetStatistics,
}

/// The service response set; every [`Request`] variant maps to one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Response {
    /// A dictionary was registered.
    Registered {
        /// The shard it serves.
        shard: ShardKey,
        /// Ambiguity classes in the dictionary.
        classes: usize,
        /// Injections indexed.
        indexed: usize,
    },
    /// An eviction was processed.
    Evicted {
        /// The shard.
        shard: ShardKey,
        /// Whether a dictionary was registered.
        existed: bool,
    },
    /// The registered shards.
    Shards(Vec<ShardInfo>),
    /// A batch was diagnosed.
    Batch(BatchReport),
    /// A shard's wire-format export.
    Exported {
        /// The shard.
        shard: ShardKey,
        /// Source test + dictionary, wire-encoded.
        bytes: Vec<u8>,
    },
    /// Cumulative statistics.
    Statistics(FleetStatistics),
    /// Cache health counters.
    CacheMetrics(CacheMetrics),
    /// A metrics-registry scrape. `text` and `report` are rendered
    /// from **one** snapshot, so `report.expose() == text` holds even
    /// while counters keep ticking — the invariant the remote-scrape
    /// equality test asserts.
    Metrics {
        /// The snapshot in the Prometheus text exposition format.
        text: String,
        /// The same snapshot, structured.
        report: MetricsReport,
    },
    /// The request failed.
    Error {
        /// The error rendered as text.
        message: String,
    },
}

/// The wire-stable name of a request variant, used as the `request`
/// label on the fleet's per-variant counters and latency histograms.
fn request_name(request: &Request) -> &'static str {
    match request {
        Request::RegisterDictionary { .. } => "RegisterDictionary",
        Request::BuildDictionary { .. } => "BuildDictionary",
        Request::EvictDictionary { .. } => "EvictDictionary",
        Request::ListShards => "ListShards",
        Request::DiagnoseBatch { .. } => "DiagnoseBatch",
        Request::ExportShard { .. } => "ExportShard",
        Request::ImportShard { .. } => "ImportShard",
        Request::Statistics => "Statistics",
        Request::CacheMetrics => "CacheMetrics",
        Request::Metrics => "Metrics",
    }
}

struct RequestObs {
    requests: Counter,
    latency: Histogram,
}

/// Pre-registered per-variant handles, so the request hot path never
/// takes the registry lock: one table lookup, one counter add and one
/// histogram observation per request.
fn request_table() -> &'static BTreeMap<&'static str, RequestObs> {
    static TABLE: OnceLock<BTreeMap<&'static str, RequestObs>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let registry = twm_obs::global();
        [
            "RegisterDictionary",
            "BuildDictionary",
            "EvictDictionary",
            "ListShards",
            "DiagnoseBatch",
            "ExportShard",
            "ImportShard",
            "Statistics",
            "CacheMetrics",
            "Metrics",
        ]
        .into_iter()
        .map(|name| {
            (
                name,
                RequestObs {
                    requests: registry.counter("twm_fleet_requests_total", &[("request", name)]),
                    latency: registry.histogram(
                        "twm_fleet_request_latency_ns",
                        &[("request", name)],
                        &latency_bounds(),
                    ),
                },
            )
        })
        .collect()
    })
}

fn request_obs(variant: &'static str) -> &'static RequestObs {
    request_table()
        .get(variant)
        .expect("request_name only returns table keys")
}

/// Snapshots the per-variant latency histograms, skipping variants that
/// have never been observed. Wall-clock derived — feeds the
/// reporting-only `latency` field of [`FleetStatistics`].
fn request_latency_snapshots() -> BTreeMap<String, HistogramSnapshot> {
    request_table()
        .iter()
        .filter_map(|(&name, obs)| {
            let snapshot = obs.latency.snapshot();
            (snapshot.count > 0).then(|| (name.to_string(), snapshot))
        })
        .collect()
}

fn batch_devices_obs() -> &'static Counter {
    static DEVICES: OnceLock<Counter> = OnceLock::new();
    DEVICES.get_or_init(|| twm_obs::global().counter("twm_fleet_batch_devices_total", &[]))
}

/// Repair-plan verification counters: scheme sessions run, and verdicts
/// answered from a runtime's memo instead.
struct VerifyObs {
    sessions: Counter,
    memo_hits: Counter,
}

fn verify_obs() -> &'static VerifyObs {
    static OBS: OnceLock<VerifyObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = twm_obs::global();
        VerifyObs {
            sessions: registry.counter("twm_fleet_verify_sessions_total", &[]),
            memo_hits: registry.counter("twm_fleet_verify_memo_hits_total", &[]),
        }
    })
}

/// Locks one of the service's mutexes, recovering the guard when an
/// earlier holder panicked. Every guarded structure is left consistent by
/// a panic at any point of its sections, so a poisoned lock carries no
/// broken state and one panicking request must not fail every later one:
///
/// * the **store** changes by single map inserts and removes, and a spill
///   swaps the entry's handle only after its file is written and
///   reopened;
/// * the **cache** builds a runtime before touching its map, and evicts
///   and inserts with nothing fallible between them; evicted keys whose
///   spill never ran only stay resident, which costs memory, not results;
/// * the **statistics** are merged into a copy that replaces them whole;
/// * a runtime's **verdict memo** changes by single inserts of verdicts
///   computed outside the lock.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The in-process fleet diagnosis service.
///
/// `handle` takes `&self` — the store, cache and statistics sit behind
/// their own locks — so one service instance can be shared across
/// transport threads (see [`crate::Dispatcher`]).
#[derive(Debug)]
pub struct FleetService {
    verify_repairs: bool,
    workers: usize,
    /// Batch fan-out threads, shared by concurrent batches.
    pool: WorkerPool,
    store: Mutex<DictionaryStore>,
    cache: Mutex<RuntimeCache>,
    stats: Mutex<FleetStatistics>,
    metrics_addr: Option<SocketAddr>,
}

impl FleetService {
    /// Creates a service with the given configuration.
    ///
    /// When [`FleetConfig::metrics_http`] is set, a
    /// [`twm_obs::MetricsServer`] over the process-wide registry is bound
    /// here and served from a detached background thread for the life of
    /// the process.
    ///
    /// # Errors
    ///
    /// [`FleetError::ZeroCapacity`] for a zero cache capacity,
    /// [`FleetError::Coverage`] when the strategy cannot resolve a worker
    /// count (`Parallel { threads: 0 }`), [`FleetError::Io`] when the
    /// metrics endpoint cannot bind its address.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        let workers = config.strategy.worker_threads()?;
        let store = match config.spill {
            Some(spill) => DictionaryStore::with_spill(spill),
            None => DictionaryStore::new(),
        };
        let metrics_addr = match config.metrics_http {
            Some(addr) => Some(Self::spawn_metrics_server(addr)?),
            None => None,
        };
        Ok(Self {
            verify_repairs: config.verify_repairs,
            workers,
            pool: WorkerPool::new(workers - 1),
            store: Mutex::new(store),
            cache: Mutex::new(RuntimeCache::new(config.cache_capacity, config.strategy)?),
            stats: Mutex::new(FleetStatistics::default()),
            metrics_addr,
        })
    }

    /// Binds the scrape endpoint and hands it to a detached serving
    /// thread. Failing to *bind* is a construction error; once bound,
    /// the endpoint serves for the life of the process (failed accepts
    /// are counted and retried, never fatal).
    fn spawn_metrics_server(addr: SocketAddr) -> Result<SocketAddr, FleetError> {
        let server = MetricsServer::bind(addr)?;
        let bound = server.local_addr()?;
        std::thread::Builder::new()
            .name("twm-metrics-http".into())
            .spawn(move || {
                let _ = server.run_concurrent();
            })?;
        Ok(bound)
    }

    /// Creates a service with the default configuration.
    ///
    /// # Errors
    ///
    /// See [`FleetService::new`].
    pub fn with_defaults() -> Result<Self, FleetError> {
        Self::new(FleetConfig::default())
    }

    /// The resolved batch fan-out width.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The resolved address of the HTTP metrics endpoint, when
    /// [`FleetConfig::metrics_http`] requested one (useful with port 0).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Handles one request synchronously. Never panics on bad input —
    /// failures come back as [`Response::Error`].
    ///
    /// Every call counts into `twm_fleet_requests_total{request=...}`
    /// and observes its wall time into
    /// `twm_fleet_request_latency_ns{request=...}`; with the trace gate
    /// on it also runs under a `fleet.request` span. None of that
    /// influences the response.
    pub fn handle(&self, request: Request) -> Response {
        let variant = request_name(&request);
        let mut span = twm_obs::span("fleet.request");
        span.field("request", variant);
        let start = Instant::now();
        let response = match self.dispatch(request) {
            Ok(response) => response,
            Err(error) => Response::Error {
                message: error.to_string(),
            },
        };
        let obs = request_obs(variant);
        obs.requests.incr();
        obs.latency
            .observe(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        response
    }

    fn dispatch(&self, request: Request) -> Result<Response, FleetError> {
        match request {
            Request::RegisterDictionary { source, dictionary } => {
                self.register(source, Arc::new(dictionary))
            }
            Request::BuildDictionary {
                scheme,
                source,
                config,
                content,
                universe,
            } => self.build_dictionary(scheme, source, config, content, &universe),
            Request::EvictDictionary { shard } => {
                // Invalidate under the store lock, taken store → cache as
                // a batch takes them: a registration or import under the
                // same key must not slip in while the evicted shard's
                // runtime is still cached and meet it in the next batch.
                let mut store = lock(&self.store);
                let existed = store.evict(shard);
                lock(&self.cache).invalidate(shard);
                Ok(Response::Evicted { shard, existed })
            }
            Request::ListShards => {
                let store = lock(&self.store);
                let shards = store
                    .keys()
                    .map(|shard| {
                        let entry = store.get(shard).expect("listed key is present");
                        let stats = entry.dictionary.stats();
                        ShardInfo {
                            shard,
                            test_name: entry.source.name().to_string(),
                            classes: stats.classes,
                            indexed: stats.indexed,
                        }
                    })
                    .collect();
                Ok(Response::Shards(shards))
            }
            Request::DiagnoseBatch { reports } => self.diagnose_batch(&reports),
            Request::ExportShard { shard } => {
                // Clone the `Arc`-backed entry under the lock, encode
                // after releasing it: a spilled shard's export reads its
                // whole file back, and batches must not wait on that.
                let entry = lock(&self.store)
                    .get(shard)
                    .cloned()
                    .ok_or(FleetError::UnknownShard(shard))?;
                let mut bytes = Vec::new();
                entry.export_to(&mut bytes)?;
                Ok(Response::Exported { shard, bytes })
            }
            Request::ImportShard { bytes } => {
                let shard = lock(&self.store).import(&bytes)?;
                self.registered(shard)
            }
            Request::Statistics => {
                let mut statistics = lock(&self.stats).clone();
                // Only the cumulative view carries latency: batch-level
                // statistics stay wall-clock-free so they remain
                // bit-identical serial vs. concurrent.
                statistics.latency = request_latency_snapshots();
                Ok(Response::Statistics(statistics))
            }
            Request::CacheMetrics => Ok(Response::CacheMetrics(lock(&self.cache).metrics())),
            Request::Metrics => {
                // One snapshot feeds both renderings: the text a human
                // scrapes and the structured report a client re-renders
                // must describe the same instant.
                let report = twm_obs::global().snapshot();
                let text = report.expose();
                Ok(Response::Metrics { text, report })
            }
        }
    }

    fn register(
        &self,
        source: MarchTest,
        dictionary: Arc<SignatureDictionary>,
    ) -> Result<Response, FleetError> {
        let shard = lock(&self.store).register(source, dictionary)?;
        self.registered(shard)
    }

    fn registered(&self, shard: ShardKey) -> Result<Response, FleetError> {
        let store = lock(&self.store);
        let entry = store.get(shard).ok_or(FleetError::UnknownShard(shard))?;
        let stats = entry.dictionary.stats();
        Ok(Response::Registered {
            shard,
            classes: stats.classes,
            indexed: stats.indexed,
        })
    }

    fn build_dictionary(
        &self,
        scheme: SchemeId,
        source: MarchTest,
        config: MemoryConfig,
        content: ContentPolicy,
        universe: &UniverseSpec,
    ) -> Result<Response, FleetError> {
        let registry = twm_core::scheme::SchemeRegistry::all(config.width())?;
        let scheme_impl = registry
            .get(scheme)
            .ok_or_else(|| FleetError::Wire(format!("scheme {scheme:?} is not registered")))?;
        let mut builder = UniverseBuilder::new(config);
        if universe.stuck_at {
            builder = builder.stuck_at();
        }
        if universe.transition {
            builder = builder.transition();
        }
        if universe.coupling_idempotent {
            builder = builder.coupling_idempotent();
        }
        let faults = builder.build();
        let engine = {
            let mut cache = lock(&self.cache);
            cache
                .base_engine(config, content, &source)?
                .with_scheme(scheme_impl, &source)?
        };
        let options = DictionaryOptions {
            multi_fault_samples: universe.multi_fault_samples,
            sample_seed: universe.sample_seed,
            ..DictionaryOptions::default()
        };
        let dictionary = SignatureDictionary::build(&engine, &faults, &options)?;
        self.register(source, Arc::new(dictionary))
    }

    fn diagnose_batch(&self, reports: &[DeviceReport]) -> Result<Response, FleetError> {
        // Resolve every distinct shard once, under the locks, before the
        // fan-out: a missing store entry is a per-device verdict, not an
        // error; a failed cold build poisons only its shard's devices.
        let shards: BTreeSet<ShardKey> = reports.iter().map(|report| report.shard).collect();
        batch_devices_obs().add(reports.len() as u64);
        let mut span = twm_obs::span("fleet.batch");
        span.field("devices", reports.len());
        span.field("shards", shards.len());
        span.field("workers", self.workers);
        let mut runtimes: BTreeMap<ShardKey, Result<Arc<ShardRuntime>, String>> = BTreeMap::new();
        {
            let mut store = lock(&self.store);
            let mut cache = lock(&self.cache);
            for &shard in &shards {
                let Some(entry) = store.get(shard) else {
                    continue;
                };
                let runtime = cache
                    .runtime(shard, entry)
                    .map_err(|error| error.to_string());
                runtimes.insert(shard, runtime);
            }
            // Cold shards fell out of the runtime LRU: demote their
            // dictionaries to spill files (no-op without a spill config).
            // The spilled shard keeps serving — its next lookups stream
            // from disk through the bounded page cache. Every runtime is
            // already resolved, so a failed spill only costs memory: the
            // shard stays resident, the failure is counted, and the other
            // evicted shards still get their attempt.
            for evicted in cache.take_evicted() {
                match store.spill(evicted) {
                    Ok(true) => cache_obs().spills.incr(),
                    Ok(false) => {}
                    Err(error) => {
                        cache_obs().spill_errors.incr();
                        twm_obs::event("fleet.spill_error", &[("error", &error.to_string())]);
                    }
                }
            }
        }

        let verify = self.verify_repairs;
        let handle_one = |report: &DeviceReport| -> DeviceOutcome {
            let verdict = match runtimes.get(&report.shard) {
                None => DeviceVerdict::UnknownShard,
                Some(Err(message)) => DeviceVerdict::Failed {
                    message: message.clone(),
                },
                Some(Ok(runtime)) => diagnose_device(runtime, report, verify),
            };
            DeviceOutcome {
                device: report.device.clone(),
                verdict,
            }
        };

        // Contiguous chunks in submission order: each verdict is a pure
        // function of (runtime, report), so the result is bit-identical to
        // the serial loop.
        let outcomes = self.pool.map_chunks(reports, self.workers, handle_one);

        // Fold statistics serially, in submission order.
        let mut statistics = FleetStatistics::default();
        for outcome in &outcomes {
            record(&mut statistics, &outcome.verdict);
        }
        let mut cumulative = lock(&self.stats);
        let mut merged = cumulative.clone();
        merged.merge(&statistics);
        *cumulative = merged;
        Ok(Response::Batch(BatchReport {
            outcomes,
            statistics,
        }))
    }
}

/// Diagnoses one device from its trail: one dictionary lookup, spare
/// allocation and (optionally) simulated repair verification against the
/// class that lookup matched.
fn diagnose_device(runtime: &ShardRuntime, report: &DeviceReport, verify: bool) -> DeviceVerdict {
    let dictionary = &runtime.dictionary;
    if report.trail == *dictionary.reference_trail() {
        return DeviceVerdict::Clean;
    }
    let class = match dictionary.find(&report.trail) {
        Ok(Some(class)) => class,
        Ok(None) => return DeviceVerdict::UnknownTrail,
        Err(error) => {
            return DeviceVerdict::Failed {
                message: error.to_string(),
            }
        }
    };
    let diagnosis = TrailDiagnosis::from_class(&class);
    let plan = RepairAllocator::default().allocate(&diagnosis.defects, report.spares);
    let predicted_clean = if verify && plan.fully_repairs() && report.spares > 0 {
        match verify_plan(runtime, &class, &plan) {
            Ok(clean) => clean,
            Err(error) => {
                return DeviceVerdict::Failed {
                    message: error.to_string(),
                }
            }
        }
    } else {
        false
    };
    DeviceVerdict::Diagnosed(Diagnosis {
        defects: diagnosis.defects,
        ambiguity: diagnosis.ambiguity,
        plan,
        predicted_clean,
    })
}

/// Whether `plan` repairs the matched class, by simulation: the verdict
/// of [`verify_session`], memoised on the runtime by class. On a runtime
/// the cache has reused, the first device of a class pays for the
/// session; every later device of the class gets the stored verdict,
/// until the runtime leaves the cache.
fn verify_plan(
    runtime: &ShardRuntime,
    class: &AmbiguityClass,
    plan: &RepairPlan,
) -> Result<bool, FleetError> {
    if let Some(clean) = runtime.memoised_verdict(&class.trail, plan) {
        verify_obs().memo_hits.incr();
        return Ok(clean);
    }
    let clean = verify_session(runtime, class, plan)?;
    runtime.memoise_verdict(&class.trail, plan, clean);
    Ok(clean)
}

/// Re-verifies a repair plan by simulation: inject the matched class's
/// representative injection into a fresh memory with one spare per plan
/// assignment, program the plan's remap table and re-run the scheme
/// session.
fn verify_session(
    runtime: &ShardRuntime,
    class: &AmbiguityClass,
    plan: &RepairPlan,
) -> Result<bool, FleetError> {
    let representative = class.injections.first().ok_or_else(|| {
        RepairError::InvalidDictionary("the matched ambiguity class holds no injections".into())
    })?;
    let mut memory =
        FaultyMemory::with_faults(runtime.dictionary.config(), representative.clone())?;
    match runtime.dictionary.content() {
        ContentPolicy::Zeros => {}
        ContentPolicy::Random { seed } => memory.fill_random(seed),
    }
    // The allocator numbers its slots 0.., so a bank of one spare per
    // assignment takes the plan without translation. Sizing it from the
    // device-supplied budget instead would let one wire value allocate
    // an arbitrarily large bank.
    let mut repairable = RepairableMemory::new(memory, plan.assignments.len())?;
    plan.apply(&mut repairable)?;
    verify_obs().sessions.incr();
    let verification = verify_repair(&runtime.probe, &mut repairable, runtime.misr.clone())?;
    Ok(verification.clean())
}

/// Folds one verdict into a statistics block.
fn record(stats: &mut FleetStatistics, verdict: &DeviceVerdict) {
    stats.devices += 1;
    match verdict {
        DeviceVerdict::Clean => stats.clean += 1,
        DeviceVerdict::UnknownShard => stats.unknown_shard += 1,
        DeviceVerdict::UnknownTrail => stats.unknown_trail += 1,
        DeviceVerdict::Failed { .. } => {}
        DeviceVerdict::Diagnosed(diagnosis) => {
            stats.diagnosed += 1;
            if diagnosis.plan.fully_repairs() {
                stats.fully_repaired += 1;
            }
            if diagnosis.predicted_clean {
                stats.verified_clean += 1;
            }
            for defect in &diagnosis.defects {
                if let Some(class) = defect.hypothesis {
                    *stats.fault_classes.entry(class).or_default() += 1;
                }
            }
            *stats
                .ambiguity
                .entry(diagnosis.ambiguity as u64)
                .or_default() += 1;
            let words: BTreeSet<usize> = diagnosis
                .defects
                .iter()
                .map(|defect| defect.cell.word)
                .collect();
            *stats.spares_needed.entry(words.len() as u64).or_default() += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_core::scheme::SchemeRegistry;
    use twm_coverage::CoverageEngine;
    use twm_march::algorithms::march_c_minus;
    use twm_store::{PagedDictionary, StoreOptions};

    use crate::store::{DictionaryHandle, ShardEntry};

    fn dictionary() -> SignatureDictionary {
        let config = MemoryConfig::new(6, 4).unwrap();
        let registry = SchemeRegistry::all(4).unwrap();
        let engine = CoverageEngine::for_scheme(
            registry.get(SchemeId::TwmTa).unwrap(),
            &march_c_minus(),
            config,
        )
        .unwrap()
        .content(ContentPolicy::Random { seed: 5 })
        .build()
        .unwrap();
        let universe = UniverseBuilder::new(config).stuck_at().transition().build();
        SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap()
    }

    fn shard() -> ShardKey {
        ShardKey::new(
            MemoryConfig::new(6, 4).unwrap(),
            SchemeId::TwmTa,
            &march_c_minus(),
        )
    }

    /// The shard's runtime, handed out twice, so it memoises verdicts.
    fn runtime_of(dictionary: DictionaryHandle) -> Arc<ShardRuntime> {
        let entry = ShardEntry {
            source: march_c_minus(),
            dictionary,
        };
        let mut cache = RuntimeCache::new(1, Strategy::Serial).unwrap();
        cache.runtime(shard(), &entry).unwrap();
        cache.runtime(shard(), &entry).unwrap()
    }

    /// A spilled 6×4 shard whose pager caches nothing, so page misses
    /// count every disk read.
    fn paged_runtime(tag: &str) -> (SignatureDictionary, Arc<PagedDictionary>, Arc<ShardRuntime>) {
        let dictionary = dictionary();
        let path = std::env::temp_dir().join(format!(
            "twm-fleet-service-{}-{tag}.twmstore",
            std::process::id()
        ));
        let options = StoreOptions {
            page_size: 256,
            cache_budget: 0,
        };
        PagedDictionary::write(&dictionary, &path, &options).unwrap();
        let paged = Arc::new(PagedDictionary::open(&path, &options).unwrap());
        std::fs::remove_file(&path).unwrap();
        let runtime = runtime_of(DictionaryHandle::Paged(Arc::clone(&paged)));
        (dictionary, paged, runtime)
    }

    /// One report per class of `dictionary`, plus a clean device and an
    /// off-dictionary trail.
    fn reports(dictionary: &SignatureDictionary) -> Vec<DeviceReport> {
        let report = |device: String, trail: SignatureTrail| DeviceReport {
            device,
            shard: shard(),
            trail,
            spares: 2,
        };
        let mut drifted = dictionary.reference_trail().signatures().to_vec();
        drifted[0] = drifted[0].complement();
        let mut reports: Vec<DeviceReport> = dictionary
            .classes()
            .iter()
            .enumerate()
            .map(|(index, class)| report(format!("class-{index}"), class.trail.clone()))
            .collect();
        reports.push(report("clean".into(), dictionary.reference_trail().clone()));
        reports.push(report("drifted".into(), SignatureTrail::new(drifted)));
        reports
    }

    /// A service serving `dictionary()` that has answered two batches of
    /// its `reports`, so its cache holds the shard's runtime and that
    /// runtime's memo holds verdicts.
    fn warm_service() -> Arc<FleetService> {
        let service = FleetService::new(FleetConfig {
            strategy: Strategy::Serial,
            ..FleetConfig::default()
        })
        .unwrap();
        let dictionary = dictionary();
        let reports = reports(&dictionary);
        assert!(matches!(
            service.register(march_c_minus(), Arc::new(dictionary)),
            Ok(Response::Registered { .. })
        ));
        for _ in 0..2 {
            assert!(matches!(
                service.handle(Request::DiagnoseBatch {
                    reports: reports.clone()
                }),
                Response::Batch(_)
            ));
        }
        Arc::new(service)
    }

    /// Panics on a thread of its own while holding the lock `pick`
    /// selects from `owner`, leaving that lock poisoned.
    fn poison<S: Send + Sync + 'static, T: 'static>(owner: &Arc<S>, pick: fn(&S) -> &Mutex<T>) {
        let held = Arc::clone(owner);
        let panicked = std::thread::spawn(move || {
            let _guard = pick(&held).lock();
            panic!("panicking while holding the lock, on purpose");
        })
        .join();
        assert!(panicked.is_err());
        assert!(pick(owner).is_poisoned());
    }

    #[test]
    fn a_diagnosed_device_looks_its_trail_up_once() {
        let (dictionary, paged, runtime) = paged_runtime("one-lookup");
        let mut verified = 0;
        for class in dictionary.classes() {
            let report = DeviceReport {
                device: "d".into(),
                shard: shard(),
                trail: class.trail.clone(),
                spares: 8,
            };
            let before = paged.cache_metrics().misses;
            paged.lookup(&class.trail).unwrap();
            let one_lookup = paged.cache_metrics().misses - before;

            let before = paged.cache_metrics().misses;
            let DeviceVerdict::Diagnosed(diagnosis) = diagnose_device(&runtime, &report, true)
            else {
                panic!("an indexed trail is diagnosed");
            };
            assert_eq!(paged.cache_metrics().misses - before, one_lookup);
            verified += usize::from(diagnosis.predicted_clean);
        }
        assert!(verified > 0, "repair verification must have run");
    }

    #[test]
    fn an_empty_matched_class_is_an_error_not_a_panic() {
        let (dictionary, _, runtime) = paged_runtime("empty-class");
        let class = AmbiguityClass {
            trail: dictionary.classes()[0].trail.clone(),
            injections: Vec::new(),
        };
        let plan = RepairAllocator::default().allocate(&[], 1);
        assert!(matches!(
            verify_plan(&runtime, &class, &plan),
            Err(FleetError::Repair(RepairError::InvalidDictionary(_)))
        ));
    }

    #[test]
    fn memoised_verdicts_equal_fresh_sessions_on_miss_and_hit() {
        let (dictionary, _, paged) = paged_runtime("memo");
        let resident = runtime_of(DictionaryHandle::Resident(Arc::new(dictionary.clone())));
        for runtime in [resident, paged] {
            let mut verified = 0;
            for class in dictionary.classes() {
                let defects = TrailDiagnosis::from_class(class).defects;
                let plan = RepairAllocator::default().allocate(&defects, 8);
                assert!(plan.fully_repairs());
                let fresh = verify_session(&runtime, class, &plan).unwrap();

                assert_eq!(runtime.memoised_verdict(&class.trail, &plan), None);
                assert_eq!(verify_plan(&runtime, class, &plan).unwrap(), fresh, "miss");
                // From here on `verify_plan` answers from the memo.
                assert_eq!(runtime.memoised_verdict(&class.trail, &plan), Some(fresh));
                assert_eq!(verify_plan(&runtime, class, &plan).unwrap(), fresh, "hit");
                verified += 1;
                assert_eq!(lock(runtime.verdict_memo()).len(), verified);
            }
            assert!(verified > 0);

            // A hit runs no session: a stored verdict, even a wrong one,
            // is what comes back.
            let class = &dictionary.classes()[0];
            let plan =
                RepairAllocator::default().allocate(&TrailDiagnosis::from_class(class).defects, 8);
            let stored = {
                let mut memo = lock(runtime.verdict_memo());
                let entry = memo.get_mut(&class.trail).unwrap();
                entry.1 = !entry.1;
                entry.1
            };
            assert_eq!(verify_plan(&runtime, class, &plan).unwrap(), stored);
        }
    }

    #[test]
    fn poisoned_locks_leave_the_service_answering_like_a_fresh_one() {
        let fresh = warm_service();
        let poisoned = warm_service();
        let runtime = {
            let store = lock(&poisoned.store);
            let entry = store.get(shard()).unwrap();
            lock(&poisoned.cache).runtime(shard(), entry).unwrap()
        };
        assert!(!lock(runtime.verdict_memo()).is_empty());
        poison(&poisoned, |service| &service.store);
        poison(&poisoned, |service| &service.cache);
        poison(&poisoned, |service| &service.stats);
        poison(&runtime, |runtime| runtime.verdict_memo());

        let reports = reports(&dictionary());
        for request in [
            Request::ListShards,
            Request::DiagnoseBatch { reports },
            Request::Statistics,
        ] {
            let (mut got, mut want) = (poisoned.handle(request.clone()), fresh.handle(request));
            // Cumulative latency is wall-clock, outside the determinism
            // contract.
            for response in [&mut got, &mut want] {
                if let Response::Statistics(statistics) = response {
                    statistics.latency.clear();
                }
            }
            assert!(!matches!(got, Response::Error { .. }), "{got:?}");
            assert_eq!(got, want);
        }
    }

    /// An eviction must drop the shard's runtime before anyone can see
    /// the store without the shard. With the cache held here, the
    /// evicting thread parks at its invalidation: every time the store is
    /// free it must still hold the shard. Only the evicting thread ever
    /// holds the store, so once the store stays busy it holds the store
    /// while parked, and the polling can stop.
    #[test]
    fn an_eviction_holds_the_store_until_the_runtime_is_dropped() {
        use std::sync::TryLockError;
        use std::time::Duration;

        let service = warm_service();
        let cache = lock(&service.cache);
        let evicting = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.handle(Request::EvictDictionary { shard: shard() }))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut blocked_since = None;
        loop {
            match service.store.try_lock() {
                Ok(store) => {
                    assert!(
                        store.get(shard()).is_some(),
                        "the store dropped the shard while its runtime was still cached"
                    );
                    blocked_since = None;
                }
                Err(TryLockError::WouldBlock) => {
                    let since = *blocked_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > Duration::from_millis(100) {
                        break;
                    }
                }
                Err(TryLockError::Poisoned(_)) => unreachable!("nothing panics here"),
            }
            assert!(
                Instant::now() < deadline,
                "the eviction never took the store"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(cache);
        assert!(matches!(
            evicting.join().unwrap(),
            Response::Evicted { existed: true, .. }
        ));
        assert!(lock(&service.store).get(shard()).is_none());
        assert!(lock(&service.cache).is_empty());
    }
}
