//! The serve path: device trail frame → decode → shard cache →
//! `localise_trail` → repair plan + verification → encoded reply.
//!
//! A closed loop: [`CLIENTS`] `FleetClient` connections to an in-process
//! loopback `TcpFront`, served through a [`DISPATCH_WORKERS`]-worker
//! `Dispatcher`. Each client sends its next request as soon as the
//! previous reply arrives.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use twm_bist::run_scheme_session_staged;
use twm_coverage::{ContentPolicy, Strategy};
use twm_fleet::{
    wire, BatchReport, CacheMetrics, DeviceOutcome, DeviceReport, DeviceVerdict, Diagnosis,
    DictionaryHandle, Dispatcher, FleetClient, FleetConfig, FleetError, FleetService,
    PagedDictionary, Request, Response, RuntimeCache, ShardEntry, ShardKey, ShardRuntime,
    SignatureDictionary, SpillConfig, StoreOptions, TcpFront,
};
use twm_mem::{FaultyMemory, RepairableMemory};
use twm_repair::{localise_trail, verify_repair, RepairAllocator, RepairPlan, TrailLookup};

use crate::inputs::{serve_inputs, DeviceKind, ServeInputs, ShardSpec, Workload};
use crate::metrics::{counter, profile_table, ratio, Recorder, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, Samples};
use crate::{deploy, err, Error, Outcome};

pub const CLIENTS: usize = 2;
pub const DISPATCH_WORKERS: usize = 2;
/// Distinct batches the clients cycle through.
const BATCH_POOL: usize = 16;
/// On `serve_churn` the second connection sends every 8th request as an
/// `ExportShard` of a spilled shard.
const EXPORT_EVERY: usize = 8;
const SETUPS: usize = 5;
/// Runtime-cache bound on `serve_churn`: a third of its 12 shards.
const CHURN_CACHE: usize = 4;
/// `serve_churn` page-cache budget per spill file: two pages, far less
/// than one shard's file.
const CHURN_PAGE_BUDGET: usize = 2 * 4096;
/// Batches the loop runs past its deadline for, if it must, so that p90
/// has ten samples beyond it.
const MIN_BATCHES: usize = 110;
/// Length of one tracing-on or tracing-off slice of the traced loop.
const TRACE_SLICE: Duration = Duration::from_millis(500);

fn churn(workload: Workload) -> bool {
    workload == Workload::ServeChurn
}

fn spill_config(dir: &Path) -> SpillConfig {
    SpillConfig {
        dir: dir.to_path_buf(),
        options: StoreOptions {
            page_size: 4096,
            cache_budget: CHURN_PAGE_BUDGET,
        },
    }
}

/// What a correct service answers, from a serial, in-process, no-spill
/// reference service holding the same dictionaries.
struct Expected {
    batches: Vec<BatchReport>,
    exports: BTreeMap<ShardKey, Vec<u8>>,
}

fn reference(inputs: &ServeInputs, workload: Workload) -> Result<(Expected, u64), Error> {
    let service = FleetService::new(FleetConfig {
        strategy: Strategy::Serial,
        cache_capacity: inputs.shards.len(),
        ..FleetConfig::default()
    })
    .map_err(|e| err("reference service", e))?;
    let dictionaries = inputs
        .dictionaries
        .iter()
        .map(|dictionary| dictionary.as_ref().clone());
    register(&service, &inputs.shards, dictionaries)?;
    let mut wrong = 0u64;
    let mut batches = Vec::with_capacity(inputs.batches.len());
    for (batch, kinds) in inputs.kinds.iter().enumerate() {
        let Response::Batch(report) = service.handle(inputs.request(batch)) else {
            return Err(format!("reference service failed batch {batch}"));
        };
        // The reference must also give each generated device the verdict
        // its kind calls for.
        for (outcome, kind) in report.outcomes.iter().zip(kinds) {
            let right = matches!(
                (kind, &outcome.verdict),
                (DeviceKind::Clean, DeviceVerdict::Clean)
                    | (DeviceKind::Single, DeviceVerdict::Diagnosed(_))
                    | (DeviceKind::Double, DeviceVerdict::UnknownTrail)
            );
            wrong += u64::from(!right);
        }
        batches.push(report);
    }
    let mut exports = BTreeMap::new();
    if churn(workload) {
        for spec in &inputs.shards {
            let shard = spec.key();
            let Response::Exported { bytes, .. } = service.handle(Request::ExportShard { shard })
            else {
                return Err(format!("reference service failed to export {shard}"));
            };
            exports.insert(shard, bytes);
        }
    }
    Ok((Expected { batches, exports }, wrong))
}

fn register(
    service: &FleetService,
    shards: &[ShardSpec],
    dictionaries: impl IntoIterator<Item = SignatureDictionary>,
) -> Result<(), Error> {
    for (spec, dictionary) in shards.iter().zip(dictionaries) {
        let response = service.handle(Request::RegisterDictionary {
            source: spec.source.clone(),
            dictionary,
        });
        if !matches!(response, Response::Registered { .. }) {
            return Err(format!("registering {} failed: {response:?}", spec.key()));
        }
    }
    Ok(())
}

/// Outcomes of a batch response that differ from the reference (the
/// whole batch when the response is not a batch).
fn wrong_outcomes(response: &Result<Response, FleetError>, expected: &BatchReport) -> u64 {
    match response {
        Ok(Response::Batch(report)) if report == expected => 0,
        Ok(Response::Batch(report)) if report.outcomes.len() == expected.outcomes.len() => {
            let differing = report
                .outcomes
                .iter()
                .zip(&expected.outcomes)
                .filter(|(got, want)| got != want)
                .count() as u64;
            differing.max(1)
        }
        _ => expected.outcomes.len() as u64,
    }
}

/// A served fleet: the service, the front's accept thread and the
/// connected clients.
struct Fleet {
    service: Arc<FleetService>,
    server: JoinHandle<Result<(), FleetError>>,
    clients: Vec<FleetClient>,
    spill: Option<SpillConfig>,
    /// Warm-up devices answered differently from the reference.
    warm_up_wrong: u64,
}

/// Brings a fleet from nothing to serving: every shard's dictionary
/// built and registered, the front and dispatcher up, the clients
/// connected and one warm-up round of batches answered.
fn bring_up(
    inputs: &ServeInputs,
    expected: &Expected,
    workload: Workload,
    spill_dir: &Path,
) -> Result<Fleet, Error> {
    let dictionaries: Vec<_> = inputs
        .shards
        .iter()
        .map(|spec| spec.dictionary())
        .collect::<Result<_, _>>()?;
    let spill = churn(workload).then(|| spill_config(spill_dir));
    let service = Arc::new(
        FleetService::new(FleetConfig {
            strategy: Strategy::Auto,
            cache_capacity: if churn(workload) { CHURN_CACHE } else { 8 },
            verify_repairs: true,
            spill: spill.clone(),
            metrics_http: None,
        })
        .map_err(|e| err("service", e))?,
    );
    register(&service, &inputs.shards, dictionaries)?;
    let front = TcpFront::bind("127.0.0.1:0", Arc::clone(&service)).map_err(|e| err("bind", e))?;
    let addr = front.local_addr().map_err(|e| err("local_addr", e))?;
    let served = Arc::clone(&service);
    let server = std::thread::spawn(move || {
        let dispatcher = Dispatcher::new(served, DISPATCH_WORKERS);
        front.accept_pooled(&dispatcher, CLIENTS)
    });
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(FleetClient::connect(addr).map_err(|e| err("connect", e))?);
    }
    let mut fleet = Fleet {
        service,
        server,
        clients,
        spill,
        warm_up_wrong: 0,
    };
    // Two batches per client: on serve_churn that cycles every shard
    // through the runtime cache twice, so every shard is spilled before
    // measurement starts.
    for round in 0..2 {
        for c in 0..CLIENTS {
            let batch = round * CLIENTS + c;
            let response = fleet.clients[c].request(&inputs.request(batch));
            fleet.warm_up_wrong += wrong_outcomes(&response, &expected.batches[batch]);
        }
    }
    Ok(fleet)
}

impl Fleet {
    /// Closes the connections and joins the front (which joins the
    /// dispatcher workers); the service itself stays usable. Spill files
    /// stay until the run's scratch directory is removed.
    fn close(self) -> Result<Arc<FleetService>, Error> {
        drop(self.clients);
        self.server
            .join()
            .map_err(|_| "front thread panicked".to_string())?
            .map_err(|e| err("front", e))?;
        Ok(self.service)
    }
}

#[derive(Default)]
struct ClientLog {
    /// Batch round trips in seconds, with the trace gate state the
    /// request ran under (`None` when it flipped mid-request).
    batches: Vec<(f64, Option<bool>)>,
    exports: Vec<(f64, Option<bool>)>,
    devices: u64,
    attempted: u64,
    failed: u64,
}

fn run_client(
    c: usize,
    client: &mut FleetClient,
    inputs: &ServeInputs,
    expected: &Expected,
    workload: Workload,
    deadline: Instant,
    answered: &AtomicUsize,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut sent = 0usize;
    let mut batches_sent = 0usize;
    while Instant::now() < deadline || answered.load(Ordering::Relaxed) < MIN_BATCHES {
        sent += 1;
        let export = churn(workload) && c == 1 && sent.is_multiple_of(EXPORT_EVERY);
        let (request, batch) = if export {
            let spec = &inputs.shards[(sent / EXPORT_EVERY) % inputs.shards.len()];
            (Request::ExportShard { shard: spec.key() }, None)
        } else {
            let batch = (c + CLIENTS * batches_sent) % inputs.batches.len();
            batches_sent += 1;
            (inputs.request(batch), Some(batch))
        };
        let gate = twm_obs::trace::enabled();
        let _span = twm_obs::span("fleet.client.request");
        let start = Instant::now();
        let response = client.request(&request);
        let elapsed = start.elapsed().as_secs_f64();
        let gate = (gate == twm_obs::trace::enabled()).then_some(gate);
        match batch {
            Some(batch) => {
                let want = &expected.batches[batch];
                log.attempted += want.outcomes.len() as u64;
                log.failed += wrong_outcomes(&response, want);
                log.devices += want.outcomes.len() as u64;
                log.batches.push((elapsed, gate));
                answered.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                let Request::ExportShard { shard } = request else {
                    unreachable!("exports are built above")
                };
                log.attempted += 1;
                let right = matches!(&response, Ok(Response::Exported { bytes, .. })
                    if Some(bytes) == expected.exports.get(&shard));
                log.failed += u64::from(!right);
                log.exports.push((elapsed, gate));
            }
        }
    }
    log
}

/// Runs the closed loop for `seconds`; with `toggle` the trace gate
/// flips every [`TRACE_SLICE`] so traced and untraced requests
/// interleave. Returns the client logs and the loop's wall time.
fn closed_loop(
    fleet: &mut Fleet,
    inputs: &ServeInputs,
    expected: &Expected,
    workload: Workload,
    seconds: f64,
    toggle: bool,
) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let answered = AtomicUsize::new(0);
    let answered = &answered;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    run_client(c, client, inputs, expected, workload, deadline, answered)
                })
            })
            .collect();
        if toggle {
            let mut on = false;
            while Instant::now() < deadline {
                std::thread::sleep(
                    TRACE_SLICE.min(deadline.saturating_duration_since(Instant::now())),
                );
                on = !on;
                twm_obs::trace::set_enabled(on);
            }
            twm_obs::trace::set_enabled(false);
        }
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, start.elapsed().as_secs_f64())
}

fn batch_samples(logs: &[ClientLog], gate: Option<bool>) -> Samples {
    Samples::new(
        logs.iter()
            .flat_map(|log| &log.batches)
            .filter(|(_, state)| gate.is_none() || *state == gate)
            .map(|(seconds, _)| seconds * 1e3)
            .collect(),
    )
}

fn export_samples(logs: &[ClientLog], gate: Option<bool>) -> Samples {
    Samples::new(
        logs.iter()
            .flat_map(|log| &log.exports)
            .filter(|(_, state)| gate.is_none() || *state == gate)
            .map(|(seconds, _)| seconds * 1e3)
            .collect(),
    )
}

fn tally(logs: &[ClientLog]) -> (u64, u64, u64) {
    logs.iter()
        .fold((0, 0, 0), |(attempted, failed, devices), log| {
            (
                attempted + log.attempted,
                failed + log.failed,
                devices + log.devices,
            )
        })
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<Outcome, Error> {
    let inputs = serve_inputs(workload, seed, BATCH_POOL)?;
    let (expected, reference_wrong) = reference(&inputs, workload)?;
    let mut lines = vec![format!(
        "serve: {} shards, {} batches of {} devices, {CLIENTS} clients, {DISPATCH_WORKERS} dispatcher workers",
        inputs.shards.len(),
        inputs.batches.len(),
        inputs.batches[0].len()
    )];
    if trace {
        return traced(
            workload,
            &inputs,
            &expected,
            reference_wrong,
            seconds,
            scratch,
            lines,
        );
    }

    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm_up_wrong = 0;
    let mut fleet: Option<Fleet> = None;
    for attempt in 0..SETUPS {
        if let Some(previous) = fleet.take() {
            previous.close()?;
        }
        let dir = scratch.join(format!("spill-{attempt}"));
        let start = Instant::now();
        let fresh = bring_up(&inputs, &expected, workload, &dir)?;
        setups.push(start.elapsed().as_secs_f64());
        warm_up_wrong += fresh.warm_up_wrong;
        fleet = Some(fresh);
    }
    let mut fleet = fleet.expect("SETUPS > 0");
    let (logs, wall) = closed_loop(&mut fleet, &inputs, &expected, workload, seconds, false);
    fleet.close()?;

    let (attempted, failed, devices) = tally(&logs);
    let batches = batch_samples(&logs, None);
    let p90 = batches.tail(0.9)?;
    let mut values = Values::new(END_TO_END);
    values.set("latency_p50_ms", batches.median().unwrap_or(0.0));
    values.set("latency_p90_ms", p90);
    values.set("throughput_per_s", devices as f64 / wall);
    values.set("setup_s", median(&setups));
    values.set("peak_rss_mb", crate::peak_rss_mb());
    lines.push(format!(
        "batch samples {} (devices_per_s = throughput_per_s, batch_p50_ms = latency_p50_ms, batch_p90_ms = latency_p90_ms)",
        batches.len()
    ));
    let exports = export_samples(&logs, None);
    if exports.len() > 0 {
        lines.push(format!(
            "export_p50_ms {:.3} over {} exports",
            exports.median().unwrap_or(0.0),
            exports.len()
        ));
    }
    Ok(Outcome {
        attempted,
        failed: failed + reference_wrong + warm_up_wrong,
        values,
        lines,
    })
}

/// Counter deltas of the served fleet over the measured loop.
struct Counters {
    values: BTreeMap<&'static str, u64>,
}

const COUNTERS: [&str; 5] = [
    "twm_fleet_cache_spills_total",
    "twm_fleet_frames_total",
    "twm_fleet_frame_errors_total",
    "twm_store_page_reads_total",
    "twm_store_page_hits_total",
];

impl Counters {
    fn read() -> Self {
        Self {
            values: COUNTERS.iter().map(|&name| (name, counter(name))).collect(),
        }
    }

    fn since(&self, earlier: &Counters, name: &str) -> f64 {
        (self.values[name] - earlier.values[name]) as f64
    }
}

fn cache_metrics(service: &FleetService) -> CacheMetrics {
    match service.handle(Request::CacheMetrics) {
        Response::CacheMetrics(metrics) => metrics,
        _ => CacheMetrics::default(),
    }
}

#[allow(clippy::too_many_arguments)]
fn traced(
    workload: Workload,
    inputs: &ServeInputs,
    expected: &Expected,
    reference_wrong: u64,
    seconds: f64,
    scratch: &Path,
    mut lines: Vec<String>,
) -> Result<Outcome, Error> {
    let profiler = Arc::new(twm_obs::ProfilerSink::new());
    twm_obs::trace::set_sink(profiler.clone());

    // The deploy side of this workload's shards: each taken once from
    // source test to first verdict, so deploy-only layers have numbers.
    twm_obs::trace::set_enabled(true);
    let probe_start = Instant::now();
    let probe = deploy::probe(&inputs.shards, &scratch.join("probe"));
    let probe_wall = probe_start.elapsed().as_secs_f64();
    twm_obs::trace::set_enabled(false);
    let probe = probe?;
    let probe_profile = profiler.snapshot();
    profiler.reset();

    let started = Counters::read();
    let mut fleet = bring_up(inputs, expected, workload, &scratch.join("spill"))?;
    let spill = fleet.spill.clone();
    let warm_up_wrong = fleet.warm_up_wrong;
    let before = Counters::read();
    let cache_before = cache_metrics(&fleet.service);
    let (logs, wall) = closed_loop(&mut fleet, inputs, expected, workload, seconds, true);
    let cache_after = cache_metrics(&fleet.service);
    let after = Counters::read();
    let service = fleet.close()?;
    let loop_profile = profiler.snapshot();
    let (mut attempted, mut failed, _) = tally(&logs);

    let untraced = batch_samples(&logs, Some(false));
    let traced_batches = batch_samples(&logs, Some(true));
    let round_trip = untraced.median().unwrap_or(0.0);
    let served_batches = batch_samples(&logs, None).len().max(1) as f64;

    // Replay the same batches in-process, layer by layer, with tracing on.
    profiler.reset();
    let mut rec = Recorder::default();
    let mut replay = ReplayTally::default();
    twm_obs::trace::set_enabled(true);
    let replay_start = Instant::now();
    let replayed = replay_batches(
        &service,
        inputs,
        expected,
        spill.as_ref(),
        &mut rec,
        &mut replay,
    );
    let replay_wall = replay_start.elapsed().as_secs_f64();
    twm_obs::trace::set_enabled(false);
    let replay_profile = profiler.snapshot();
    twm_obs::trace::set_sink(Arc::new(twm_obs::NoopSink));
    replayed?;
    attempted += replay.devices + probe.shards();
    failed += replay.wrong + probe.failed();

    let handle_ms = rec.median("fleet.handle") * 1e3;
    let batches = inputs.batches.len() as f64;
    let mut values = Values::new(PER_LAYER);
    probe.set_layers(&mut values, false);
    values.set("fleet.transport_ms", round_trip - handle_ms);
    values.set("fleet.handle_ms", handle_ms);
    values.set(
        "fleet.wire.encode_us",
        rec.samples("fleet.wire.encode").sum() / batches * 1e6,
    );
    values.set(
        "fleet.wire.decode_us",
        rec.samples("fleet.wire.decode").sum() / batches * 1e6,
    );
    values.set(
        "fleet.wire.request_bytes_per_device",
        ratio(replay.request_bytes as f64, replay.devices as f64),
    );
    values.set(
        "fleet.wire.response_bytes_per_device",
        ratio(replay.response_bytes as f64, replay.devices as f64),
    );
    let hits = (cache_after.hits - cache_before.hits) as f64;
    let misses = (cache_after.misses - cache_before.misses) as f64;
    values.set("fleet.cache.hit_rate", ratio(hits, hits + misses));
    values.set("fleet.cache.misses", misses / served_batches);
    values.set(
        "fleet.cache.spills",
        after.since(&started, "twm_fleet_cache_spills_total"),
    );
    values.set(
        "fleet.cache.runtime_build_us",
        Samples::new(replay.runtime_builds.clone())
            .median()
            .unwrap_or(0.0)
            * 1e6,
    );
    values.set("fleet.export_ms", rec.median("fleet.export") * 1e3);
    values.set(
        "fleet.export_bytes",
        ratio(replay.export_bytes as f64, replay.exports as f64),
    );
    values.set(
        "fleet.export_p50_ms",
        export_samples(&logs, Some(false)).median().unwrap_or(0.0),
    );
    values.set(
        "fleet.frames",
        after.since(&before, "twm_fleet_frames_total"),
    );
    values.set(
        "fleet.frame_errors",
        after.since(&before, "twm_fleet_frame_errors_total"),
    );
    values.set(
        "repair.localise_trail_us",
        rec.median("repair.localise_trail") * 1e6,
    );
    values.set("repair.allocate_us", rec.median("repair.allocate") * 1e6);
    values.set("repair.verify_us", rec.median("repair.verify") * 1e6);
    values.set(
        "repair.hit_rate",
        ratio(replay.hits as f64, replay.faulty as f64),
    );
    values.set("bist.session_us", rec.median("bist.session") * 1e6);
    values.set("core.transform_us", rec.median("core.transform") * 1e6);
    let reads = after.since(&before, "twm_store_page_reads_total");
    values.set("store.page_reads", reads / served_batches);
    values.set(
        "store.page_hit_rate",
        ratio(after.since(&before, "twm_store_page_hits_total"), reads),
    );
    values.set("store.open_us", rec.median("store.open") * 1e6);
    values.set(
        "store.bytes_per_entry",
        ratio(replay.store_bytes as f64, replay.store_entries as f64),
    );
    let overhead = ratio(
        traced_batches.median().unwrap_or(0.0),
        untraced.median().unwrap_or(0.0),
    );
    values.set("obs.trace_overhead_pct", (overhead - 1.0) * 100.0);
    values.set("obs.leaf_span_share", ratio(rec.total(), replay_wall));

    lines.push(format!(
        "closed loop: {:.2} s, {} untraced and {} traced batch samples",
        wall,
        untraced.len(),
        traced_batches.len()
    ));
    lines.push("spans of the closed loop (client threads and server threads):".into());
    lines.extend(profile_table(&loop_profile, wall * CLIENTS as f64));
    lines.push(format!(
        "spans of the in-process replay ({} batches, {:.3} s; leaf spans cover {:.1}%):",
        inputs.batches.len(),
        replay_wall,
        ratio(rec.total(), replay_wall) * 100.0
    ));
    lines.extend(profile_table(&replay_profile, replay_wall));
    lines.push(format!(
        "spans of the deploy probe ({} shards, {:.3} s):",
        probe.shards(),
        probe_wall
    ));
    lines.extend(profile_table(&probe_profile, probe_wall));
    Ok(Outcome {
        attempted,
        failed: failed + reference_wrong + warm_up_wrong,
        values,
        lines,
    })
}

#[derive(Default)]
struct ReplayTally {
    devices: u64,
    wrong: u64,
    faulty: u64,
    hits: u64,
    request_bytes: u64,
    response_bytes: u64,
    runtime_builds: Vec<f64>,
    exports: u64,
    export_bytes: u64,
    store_bytes: u64,
    store_entries: u64,
}

/// The served batches again, in-process and serially: the codec and
/// `handle` on the service that just served them, then every device
/// through the repair layer on the benchmark's own runtime cache. The
/// layer-by-layer verdicts must equal the served ones.
fn replay_batches(
    service: &FleetService,
    inputs: &ServeInputs,
    expected: &Expected,
    spill: Option<&SpillConfig>,
    rec: &mut Recorder,
    tally: &mut ReplayTally,
) -> Result<(), Error> {
    let capacity = if spill.is_some() {
        CHURN_CACHE
    } else {
        inputs.shards.len()
    };
    let mut cache = RuntimeCache::new(capacity, Strategy::Serial).map_err(|e| err("cache", e))?;
    let mut entries = BTreeMap::new();
    for (spec, dictionary) in inputs.shards.iter().zip(&inputs.dictionaries) {
        let handle = match spill {
            // The served fleet spilled every shard during warm-up; read
            // the same files through pagers of the same budget.
            Some(spill) => {
                let path: PathBuf = spill.path_for(spec.key());
                let paged = rec
                    .time("store.open", || {
                        PagedDictionary::open(&path, &spill.options)
                    })
                    .map_err(|e| err("open spill file", e))?;
                tally.store_bytes += paged.file_bytes();
                tally.store_entries += paged.classes() as u64;
                DictionaryHandle::Paged(Arc::new(paged))
            }
            None => DictionaryHandle::Resident(Arc::clone(dictionary)),
        };
        let entry = ShardEntry {
            source: spec.source.clone(),
            dictionary: handle,
        };
        entries.insert(spec.key(), entry);
    }

    for (batch, reports) in inputs.batches.iter().enumerate() {
        let request = inputs.request(batch);
        let bytes = rec.time("fleet.wire.encode", || wire::to_bytes(&request));
        let decoded: Request = rec
            .time("fleet.wire.decode", || wire::from_bytes(&bytes))
            .map_err(|e| err("decode request", e))?;
        let response = rec.time("fleet.handle", || service.handle(decoded));
        let reply = rec.time("fleet.wire.encode", || wire::to_bytes(&response));
        let back: Result<Response, FleetError> =
            rec.time("fleet.wire.decode", || wire::from_bytes(&reply));
        tally.request_bytes += bytes.len() as u64;
        tally.response_bytes += reply.len() as u64;
        let want = &expected.batches[batch];
        tally.wrong += wrong_outcomes(&back, want);

        let shards: BTreeSet<ShardKey> = reports.iter().map(|report| report.shard).collect();
        let mut runtimes = BTreeMap::new();
        for shard in shards {
            let misses = cache.metrics().misses;
            let start = Instant::now();
            let runtime = rec
                .time("fleet.cache.runtime", || {
                    cache.runtime(shard, &entries[&shard])
                })
                .map_err(|e| err("runtime", e))?;
            if cache.metrics().misses > misses {
                tally.runtime_builds.push(start.elapsed().as_secs_f64());
            }
            rec.time("core.transform", || {
                runtime.registry.transform_all(&runtime.source)
            })
            .map_err(|e| err("transform_all", e))?;
            probe_session(&runtime, rec)?;
            runtimes.insert(shard, runtime);
        }
        for (report, want) in reports.iter().zip(&want.outcomes) {
            let verdict = layer_verdict(&runtimes[&report.shard], report, rec, tally)?;
            let got = DeviceOutcome {
                device: report.device.clone(),
                verdict,
            };
            tally.devices += 1;
            tally.wrong += u64::from(&got != want);
        }
    }

    for (shard, bytes) in &expected.exports {
        let response = rec.time("fleet.export", || {
            service.handle(Request::ExportShard { shard: *shard })
        });
        tally.exports += 1;
        match response {
            Response::Exported { bytes: got, .. } if &got == bytes => {
                tally.export_bytes += got.len() as u64;
            }
            _ => tally.wrong += 1,
        }
    }
    Ok(())
}

/// One fault-free periodic session on the shard's probe transform.
fn probe_session(runtime: &ShardRuntime, rec: &mut Recorder) -> Result<(), Error> {
    let config = runtime.dictionary.config();
    let mut memory = FaultyMemory::fault_free(config);
    if let ContentPolicy::Random { seed } = runtime.dictionary.content() {
        memory.fill_random(seed);
    }
    rec.time("bist.session", || {
        run_scheme_session_staged(&runtime.probe, &mut memory, runtime.misr.clone())
    })
    .map_err(|e| err("probe session", e))?;
    Ok(())
}

/// The verdict `FleetService` gives one device, rebuilt from the public
/// repair calls so each layer runs under its own span.
fn layer_verdict(
    runtime: &ShardRuntime,
    report: &DeviceReport,
    rec: &mut Recorder,
    tally: &mut ReplayTally,
) -> Result<DeviceVerdict, Error> {
    let diagnosis = rec
        .time("repair.localise_trail", || {
            localise_trail(&runtime.dictionary, &report.trail)
        })
        .map_err(|e| err("localise_trail", e))?;
    if diagnosis.clean {
        return Ok(DeviceVerdict::Clean);
    }
    tally.faulty += 1;
    if !diagnosis.dictionary_hit {
        return Ok(DeviceVerdict::UnknownTrail);
    }
    tally.hits += 1;
    let plan = rec.time("repair.allocate", || {
        RepairAllocator::default().allocate(&diagnosis.defects, report.spares)
    });
    let predicted_clean = if plan.fully_repairs() && report.spares > 0 {
        rec.time("repair.verify", || verify_plan(runtime, report, &plan))?
    } else {
        false
    };
    Ok(DeviceVerdict::Diagnosed(Diagnosis {
        defects: diagnosis.defects,
        ambiguity: diagnosis.ambiguity,
        plan,
        predicted_clean,
    }))
}

/// Applies the plan to the matched class's representative injection and
/// re-runs the shard's scheme session through the remap table.
fn verify_plan(
    runtime: &ShardRuntime,
    report: &DeviceReport,
    plan: &RepairPlan,
) -> Result<bool, Error> {
    let class = runtime
        .dictionary
        .find(&report.trail)
        .map_err(|e| err("find", e))?
        .ok_or("a dictionary hit has a class")?;
    let mut memory =
        FaultyMemory::with_faults(runtime.dictionary.config(), class.injections[0].clone())
            .map_err(|e| err("inject", e))?;
    if let ContentPolicy::Random { seed } = runtime.dictionary.content() {
        memory.fill_random(seed);
    }
    let mut repairable =
        RepairableMemory::new(memory, report.spares).map_err(|e| err("spares", e))?;
    plan.apply(&mut repairable)
        .map_err(|e| err("apply plan", e))?;
    let verification = verify_repair(&runtime.probe, &mut repairable, runtime.misr.clone())
        .map_err(|e| err("verify_repair", e))?;
    Ok(verification.clean())
}
