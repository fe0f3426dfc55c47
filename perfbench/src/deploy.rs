//! The deploy path: source march test → scheme transform → coverage
//! engine and report → dictionary streamed to a `.twmstore` file → file
//! opened → first verdict on one faulty device's trail.
//!
//! Shards run one after another, each through the whole pipeline, as a
//! deployment rolling out new test configurations would. A run measures
//! whole cycles of the shard stream (see `inputs::deploy_cycle`).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use twm_core::scheme::SchemeRegistry;
use twm_repair::{localise_trail, DictionaryOptions, SignatureDictionary, TrailDiagnosis};
use twm_store::{PagedDictionary, StoreOptions};

use crate::inputs::{deploy_cycle, deploy_fault, device_trail, ShardSpec, Workload};
use crate::metrics::{counter, profile_table, ratio, Recorder, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, Samples};
use crate::{err, Error, Outcome};

const SETUPS: usize = 5;
/// Candidate faults tried per shard before the first undetected-looking
/// draws count as a failure.
const MAX_DRAWS: u64 = 64;
/// Shards a run deploys past its deadline for, if it must, so that p90
/// has ten samples beyond it.
const MIN_SHARDS: usize = 110;

/// The spans of the first-verdict path, in pipeline order.
const PATH: [&str; 6] = [
    "core.transform",
    "coverage.engine_build",
    "coverage.faults",
    "store.build_to_disk",
    "store.open",
    "repair.localise_trail",
];

struct Deployer {
    registries: BTreeMap<usize, SchemeRegistry>,
    store: StoreOptions,
}

/// One shard's run through the pipeline.
struct ShardRun {
    /// Seconds from source test to first verdict (device simulation
    /// excluded: it stands in for the field device).
    latency: f64,
    injections: usize,
    hit: bool,
    correct: bool,
    file_bytes: u64,
    classes: u64,
}

impl Deployer {
    /// Set-up: the scheme registries of every width in `specs`.
    fn new(specs: &[ShardSpec]) -> Result<Self, Error> {
        let mut registries = BTreeMap::new();
        for spec in specs {
            let width = spec.config.width();
            if let std::collections::btree_map::Entry::Vacant(slot) = registries.entry(width) {
                slot.insert(SchemeRegistry::all(width).map_err(|e| err("registry", e))?);
            }
        }
        Ok(Self {
            registries,
            store: StoreOptions::default(),
        })
    }

    fn deploy(
        &self,
        spec: &ShardSpec,
        dir: &Path,
        rec: &mut Recorder,
        traced: bool,
    ) -> Result<ShardRun, Error> {
        let registry = &self.registries[&spec.config.width()];
        let path = dir.join("shard.twmstore");
        let start = Instant::now();
        let transform = rec
            .time("core.transform", || {
                registry.transform(spec.scheme, &spec.source)
            })
            .map_err(|e| err("transform", e))?;
        let engine = rec.time("coverage.engine_build", || spec.engine(registry))?;
        let universe = spec.universe();
        let coverage = rec
            .time("coverage.faults", || engine.report(&universe))
            .map_err(|e| err("coverage report", e))?;
        let options = DictionaryOptions::default();
        rec.time("store.build_to_disk", || {
            PagedDictionary::build_to_disk(&engine, &universe, &options, &path, &self.store)
        })
        .map_err(|e| err("build_to_disk", e))?;
        let paged = rec
            .time("store.open", || PagedDictionary::open(&path, &self.store))
            .map_err(|e| err("open", e))?;
        let mut latency = start.elapsed().as_secs_f64();

        // The field device: the first candidate fault whose trail differs
        // from the fault-free one. Its simulation is not deploy time.
        let fault_free = rec.time("bist.session", || device_trail(spec, &transform, &[]))?;
        let mut device = None;
        for attempt in 0..MAX_DRAWS {
            let fault = deploy_fault(spec, &universe, attempt);
            let trail = rec.time("bist.session", || device_trail(spec, &transform, &[fault]))?;
            if trail != fault_free {
                device = Some((fault, trail));
                break;
            }
        }
        let (fault, trail) = device.ok_or("no detected fault in the shard universe")?;
        let start = Instant::now();
        let verdict = rec
            .time("repair.localise_trail", || localise_trail(&paged, &trail))
            .map_err(|e| err("localise_trail", e))?;
        latency += start.elapsed().as_secs_f64();

        let class = paged.lookup(&trail).map_err(|e| err("lookup", e))?;
        let mut correct = coverage.total_faults() == universe.len()
            && verdict.dictionary_hit
            && class.is_some_and(|class| class.injections.contains(&vec![fault]));
        if traced {
            correct &=
                self.disk_matches_ram(&engine, &universe, &paged, &trail, &verdict, dir, rec)?;
        }
        let (file_bytes, classes) = (paged.file_bytes(), paged.classes() as u64);
        drop(paged);
        let _ = std::fs::remove_file(&path);
        Ok(ShardRun {
            latency,
            injections: universe.len(),
            hit: verdict.dictionary_hit,
            correct,
            file_bytes,
            classes,
        })
    }

    /// Traced cycles only: the same dictionary built in RAM and persisted
    /// with `PagedDictionary::write`, then a cold first lookup on that
    /// copy. The verdict over the in-RAM dictionary must equal the paged
    /// one.
    #[allow(clippy::too_many_arguments)]
    fn disk_matches_ram(
        &self,
        engine: &twm_coverage::CoverageEngine,
        universe: &[twm_mem::Fault],
        paged: &PagedDictionary,
        trail: &twm_repair::SignatureTrail,
        verdict: &TrailDiagnosis,
        dir: &Path,
        rec: &mut Recorder,
    ) -> Result<bool, Error> {
        let dictionary = rec
            .time("repair.dictionary_build", || {
                SignatureDictionary::build(engine, universe, &DictionaryOptions::default())
            })
            .map_err(|e| err("dictionary build", e))?;
        let copy_path = dir.join("shard-ram.twmstore");
        rec.time("store.write", || {
            PagedDictionary::write(&dictionary, &copy_path, &self.store)
        })
        .map_err(|e| err("write", e))?;
        let copy = PagedDictionary::open(&copy_path, &self.store).map_err(|e| err("open", e))?;
        rec.time("store.first_lookup", || copy.lookup(trail))
            .map_err(|e| err("first lookup", e))?;
        let in_ram = localise_trail(&dictionary, trail).map_err(|e| err("localise_trail", e))?;
        let _ = std::fs::remove_file(&copy_path);
        Ok(&in_ram == verdict
            && paged.classes() == dictionary.classes().len()
            && copy.file_bytes() == paged.file_bytes())
    }
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<Outcome, Error> {
    std::fs::create_dir_all(scratch).map_err(|e| err("scratch dir", e))?;
    // Set-up: registries plus one warm-up shard (cycle 0 is reserved for
    // it), so lazy initialisation is not charged to the first shard.
    let stream = deploy_cycle(workload, seed, 0);
    let warm_up = &stream[0];
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm_up_wrong = 0;
    let mut deployer = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let fresh = Deployer::new(&stream)?;
        let warm = fresh.deploy(warm_up, scratch, &mut Recorder::default(), false)?;
        setups.push(start.elapsed().as_secs_f64());
        warm_up_wrong += u64::from(!warm.correct);
        deployer = Some(fresh);
    }
    let deployer = deployer.expect("SETUPS > 0");
    let mut lines = vec![format!(
        "deploy: {} shards per cycle, {}",
        deploy_cycle(workload, seed, 1).len(),
        if workload == Workload::DeployCf {
            "SAF+TF+CFid universes"
        } else {
            "SAF+TF universes"
        }
    )];
    if trace {
        let mut outcome = traced(workload, seed, seconds, scratch, &deployer, lines)?;
        outcome.failed += warm_up_wrong;
        return Ok(outcome);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut runs = Vec::new();
    let mut cycle = 1;
    while Instant::now() < deadline || runs.len() < MIN_SHARDS {
        for spec in deploy_cycle(workload, seed, cycle) {
            runs.push(deployer.deploy(&spec, scratch, &mut Recorder::default(), false)?);
        }
        cycle += 1;
    }
    let latencies = Samples::new(runs.iter().map(|run| run.latency * 1e3).collect());
    let injections: usize = runs.iter().map(|run| run.injections).sum();
    let failed = runs.iter().filter(|run| !run.correct).count() as u64 + warm_up_wrong;
    let mut values = Values::new(END_TO_END);
    values.set("latency_p50_ms", latencies.median().unwrap_or(0.0));
    values.set("latency_p90_ms", latencies.tail(0.9)?);
    values.set(
        "throughput_per_s",
        injections as f64 / (latencies.sum() / 1e3),
    );
    values.set("setup_s", median(&setups));
    values.set("peak_rss_mb", crate::peak_rss_mb());
    lines.push(format!(
        "{} shards over {} cycles (first_verdict_p50_ms = latency_p50_ms, first_verdict_p90_ms = latency_p90_ms, injections_per_s = throughput_per_s)",
        runs.len(),
        cycle - 1
    ));
    Ok(Outcome {
        attempted: runs.len() as u64,
        failed,
        values,
        lines,
    })
}

/// Layer tallies over shards deployed with tracing on, each also built
/// in RAM and cross-checked (see [`Deployer::disk_matches_ram`]).
#[derive(Default)]
pub struct Probe {
    rec: Recorder,
    shards: u64,
    hits: u64,
    failed: u64,
    injections: usize,
    file_bytes: u64,
    classes: u64,
    /// Deltas of [`PROBE_COUNTERS`].
    counters: [u64; 4],
    /// Summed first-verdict seconds.
    latency: f64,
}

const PROBE_COUNTERS: [&str; 4] = [
    "twm_coverage_packed_faults_total",
    "twm_coverage_scalar_faults_total",
    "twm_store_page_reads_total",
    "twm_store_page_hits_total",
];

impl Probe {
    fn run(
        &mut self,
        deployer: &Deployer,
        specs: &[ShardSpec],
        scratch: &Path,
    ) -> Result<(), Error> {
        let before = PROBE_COUNTERS.map(counter);
        for spec in specs {
            let run = deployer.deploy(spec, scratch, &mut self.rec, true)?;
            self.shards += 1;
            self.hits += u64::from(run.hit);
            self.failed += u64::from(!run.correct);
            self.injections += run.injections;
            self.file_bytes += run.file_bytes;
            self.classes += run.classes;
            self.latency += run.latency;
        }
        let after = PROBE_COUNTERS.map(counter);
        for (delta, (a, b)) in self.counters.iter_mut().zip(after.iter().zip(before)) {
            *delta += a - b;
        }
        Ok(())
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn shards(&self) -> u64 {
        self.shards
    }

    /// Sets the layer metrics only the deploy path exercises; with
    /// `shared` also those the serve path measures its own way
    /// (localise, transform, session, store open and paging).
    pub fn set_layers(&self, values: &mut Values, shared: bool) {
        let rec = &self.rec;
        let per_shard = self.shards.max(1) as f64;
        let [packed, scalar, reads, page_hits] = self.counters.map(|delta| delta as f64);
        values.set(
            "repair.dictionary_build_ms",
            rec.median("repair.dictionary_build") * 1e3,
        );
        values.set(
            "coverage.engine_build_us",
            rec.median("coverage.engine_build") * 1e6,
        );
        values.set(
            "coverage.faults_per_s",
            ratio(self.injections as f64, rec.samples("coverage.faults").sum()),
        );
        values.set("coverage.packed_faults", packed / per_shard);
        values.set("coverage.scalar_faults", scalar / per_shard);
        values.set("coverage.scalar_share", ratio(scalar, packed + scalar));
        values.set("store.write_ms", rec.median("store.write") * 1e3);
        values.set(
            "store.build_to_disk_ms",
            rec.median("store.build_to_disk") * 1e3,
        );
        values.set(
            "store.first_lookup_us",
            rec.median("store.first_lookup") * 1e6,
        );
        if shared {
            values.set(
                "repair.localise_trail_us",
                rec.median("repair.localise_trail") * 1e6,
            );
            values.set("repair.hit_rate", ratio(self.hits as f64, per_shard));
            values.set("bist.session_us", rec.median("bist.session") * 1e6);
            values.set("core.transform_us", rec.median("core.transform") * 1e6);
            values.set("store.open_us", rec.median("store.open") * 1e6);
            values.set("store.page_reads", reads / per_shard);
            values.set("store.page_hit_rate", ratio(page_hits, reads));
            values.set(
                "store.bytes_per_entry",
                ratio(self.file_bytes as f64, self.classes as f64),
            );
        }
    }
}

/// Deploys each of `specs` once with tracing on: the deploy-side layers
/// of a serve workload's own shards.
pub fn probe(specs: &[ShardSpec], scratch: &Path) -> Result<Probe, Error> {
    std::fs::create_dir_all(scratch).map_err(|e| err("scratch dir", e))?;
    let deployer = Deployer::new(specs)?;
    let mut probe = Probe::default();
    probe.run(&deployer, specs, scratch)?;
    Ok(probe)
}

/// Alternates untraced and traced cycles until `seconds` have passed
/// and both arms have run equally often. Layer metrics come from the
/// traced cycles only.
fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    deployer: &Deployer,
    mut lines: Vec<String>,
) -> Result<Outcome, Error> {
    let profiler = Arc::new(twm_obs::ProfilerSink::new());
    twm_obs::trace::set_sink(profiler.clone());
    let mut probe = Probe::default();
    let (mut off_s, mut off_shards, mut off_failed, mut on_wall) = (0.0, 0u64, 0u64, 0.0);
    let start = Instant::now();
    let mut cycle = 1u64;
    while start.elapsed().as_secs_f64() < seconds || cycle.is_multiple_of(2) {
        let specs = deploy_cycle(workload, seed, cycle);
        if cycle.is_multiple_of(2) {
            twm_obs::trace::set_enabled(true);
            let cycle_start = Instant::now();
            probe.run(deployer, &specs, scratch)?;
            on_wall += cycle_start.elapsed().as_secs_f64();
            twm_obs::trace::set_enabled(false);
        } else {
            for spec in &specs {
                let run = deployer.deploy(spec, scratch, &mut Recorder::default(), false)?;
                off_s += run.latency;
                off_shards += 1;
                off_failed += u64::from(!run.correct);
            }
        }
        cycle += 1;
    }
    twm_obs::trace::set_sink(Arc::new(twm_obs::NoopSink));
    let profile = profiler.snapshot();

    let mut values = Values::new(PER_LAYER);
    probe.set_layers(&mut values, true);
    values.set(
        "obs.trace_overhead_pct",
        (ratio(probe.latency, off_s) - 1.0) * 100.0,
    );
    values.set("obs.leaf_span_share", ratio(probe.rec.total(), on_wall));

    let path_s: f64 = PATH.iter().map(|span| probe.rec.samples(span).sum()).sum();
    lines.push(format!(
        "{} traced and {} untraced shards; first-verdict path is {:.1}% of traced wall time, leaf spans cover {:.1}%",
        probe.shards,
        off_shards,
        ratio(path_s, on_wall) * 100.0,
        ratio(probe.rec.total(), on_wall) * 100.0
    ));
    lines.extend(profile_table(&profile, on_wall));
    Ok(Outcome {
        attempted: probe.shards + off_shards,
        failed: probe.failed + off_failed,
        values,
        lines,
    })
}
