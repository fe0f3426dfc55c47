//! Metric names and units, the layer-call recorder and the profile table.
//!
//! The two lists below are the benchmark's contract with its readers:
//! `BENCHMARK.json` names exactly these metrics, later changes claim
//! gains against them, and a test keeps the two in step.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::Samples;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of each path sees, measured with tracing off. Serve
/// workloads time one `FleetClient::request` of a 64-device batch and
/// count devices; deploy workloads time one shard from source test to
/// first verdict and count indexed injections.
pub const END_TO_END: &[Metric] = &[
    metric("latency_p50_ms", "ms"),
    metric("latency_p90_ms", "ms"),
    metric("throughput_per_s", "1/s"),
    metric("peak_rss_mb", "MB"),
    metric("setup_s", "s"),
];

/// Layer metrics from the traced run. A layer the workload does not
/// use reports 0 (see README.md for which layer each workload idles).
pub const PER_LAYER: &[Metric] = &[
    metric("fleet.transport_ms", "ms"),
    metric("fleet.handle_ms", "ms"),
    metric("fleet.wire.encode_us", "us"),
    metric("fleet.wire.decode_us", "us"),
    metric("fleet.wire.request_bytes_per_device", "B"),
    metric("fleet.wire.response_bytes_per_device", "B"),
    metric("fleet.cache.hit_rate", "ratio"),
    metric("fleet.cache.misses", "count"),
    metric("fleet.cache.spills", "count"),
    metric("fleet.cache.runtime_build_us", "us"),
    metric("fleet.export_ms", "ms"),
    metric("fleet.export_bytes", "B"),
    metric("fleet.export_p50_ms", "ms"),
    metric("fleet.frames", "count"),
    metric("fleet.frame_errors", "count"),
    metric("repair.localise_trail_us", "us"),
    metric("repair.allocate_us", "us"),
    metric("repair.verify_us", "us"),
    metric("repair.hit_rate", "ratio"),
    metric("repair.dictionary_build_ms", "ms"),
    metric("bist.session_us", "us"),
    metric("core.transform_us", "us"),
    metric("coverage.engine_build_us", "us"),
    metric("coverage.faults_per_s", "1/s"),
    metric("coverage.packed_faults", "count"),
    metric("coverage.scalar_faults", "count"),
    metric("coverage.scalar_share", "ratio"),
    metric("store.write_ms", "ms"),
    metric("store.build_to_disk_ms", "ms"),
    metric("store.open_us", "us"),
    metric("store.first_lookup_us", "us"),
    metric("store.page_reads", "count"),
    metric("store.page_hit_rate", "ratio"),
    metric("store.bytes_per_entry", "B"),
    metric("obs.trace_overhead_pct", "%"),
    metric("obs.leaf_span_share", "ratio"),
];

/// Values for one of the lists above; names outside the list are a bug
/// in the benchmark, not a measurement.
pub struct Values {
    list: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    pub fn new(list: &'static [Metric]) -> Self {
        Self {
            list,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.list.iter().any(|metric| metric.name == name),
            "metric {name} is not declared"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Every declared metric in declaration order; unset ones read 0.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.list.iter().map(|metric| {
            (
                metric.name,
                metric.unit,
                self.values.get(metric.name).copied().unwrap_or(0.0),
            )
        })
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .rows()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Per-call wall times of the layer calls the benchmark makes, keyed by
/// span name. Each call also runs under a `twm_obs` span of that name,
/// so a profiler sink sees the same boundaries.
#[derive(Default)]
pub struct Recorder {
    calls: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    pub fn time<T>(&mut self, span: &'static str, call: impl FnOnce() -> T) -> T {
        let _span = twm_obs::span(span);
        let start = Instant::now();
        let out = call();
        self.calls
            .entry(span)
            .or_default()
            .push(start.elapsed().as_secs_f64());
        out
    }

    /// Seconds of every call recorded under `span`.
    pub fn samples(&self, span: &str) -> Samples {
        Samples::new(self.calls.get(span).cloned().unwrap_or_default())
    }

    /// Median seconds of one call under `span` (0 when never called).
    pub fn median(&self, span: &str) -> f64 {
        self.samples(span).median().unwrap_or(0.0)
    }

    pub fn total(&self) -> f64 {
        self.calls.values().flatten().sum()
    }
}

/// A counter of the process-wide `twm_obs` registry (summed over label
/// sets; 0 when the owning layer never registered it).
pub fn counter(name: &str) -> u64 {
    twm_obs::global()
        .snapshot()
        .metrics
        .iter()
        .filter(|sample| sample.name == name)
        .map(|sample| match sample.value {
            twm_obs::MetricValue::Counter(value) => value,
            _ => 0,
        })
        .sum()
}

/// Ratio with an idle denominator reading 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The span table of a traced run: per span name its calls, total and
/// self time, and the share of the phase's wall time its self time
/// covers.
pub fn profile_table(profile: &twm_obs::ProfileReport, wall_s: f64) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<32} {:>8} {:>12} {:>12} {:>8}",
        "span", "calls", "total_ms", "self_ms", "self_%"
    )];
    for span in &profile.spans {
        lines.push(format!(
            "{:<32} {:>8} {:>12.3} {:>12.3} {:>7.2}%",
            span.name,
            span.calls,
            span.total_ns as f64 / 1e6,
            span.self_ns as f64 / 1e6,
            ratio(span.self_ns as f64 / 1e9, wall_s) * 100.0
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_plain_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|metric| metric.name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name} is not [A-Za-z0-9_.-]+");
            assert!(name.len() <= 64, "{name} is too long");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "duplicate metric names");
    }

    #[test]
    fn benchmark_manifest_declares_exactly_these_metrics() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        let declared = manifest.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\"",
                metric.name, metric.unit
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn undeclared_metrics_are_rejected() {
        let mut values = Values::new(END_TO_END);
        values.set("setup_s", 1.5);
        assert!(values
            .to_json()
            .contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let result = std::panic::catch_unwind(move || values.set("no_such_metric", 1.0));
        assert!(result.is_err());
    }
}
