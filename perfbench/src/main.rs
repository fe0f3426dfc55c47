//! End-to-end benchmark of the deploy and serve paths, with per-layer
//! attribution from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --compare old.txt new.txt
//! ```
//!
//! A run prints its report as `perfbench ...` lines and, last, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero when any output check fails.
//! `--compare` reads two saved reports and prints per-metric deltas; it
//! refuses reports from different hosts. See README.md for the
//! workloads.

mod deploy;
mod host;
mod inputs;
mod metrics;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use host::{json_string, Host};
use inputs::Workload;
use metrics::Values;

/// A run failure, rendered for the operator.
pub type Error = String;

pub fn err(context: &str, error: impl std::fmt::Display) -> Error {
    format!("{context}: {error}")
}

/// What a workload run hands back for reporting.
pub struct Outcome {
    /// Devices (serve) or shards (deploy) whose output was checked.
    pub attempted: u64,
    /// Of those, the ones with a transport error, an error response, a
    /// failed or a wrong verdict.
    pub failed: u64,
    pub values: Values,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// `VmHWM` of this process in MB: its peak resident set.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    if let Some(unknown) = flags
        .keys()
        .find(|flag| !["--workload", "--seed", "--seconds", "--trace"].contains(flag))
    {
        return Err(format!("unknown flag {unknown}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, old, new] => compare(old, new),
            _ => {
                eprintln!("usage: --compare OLD_REPORT NEW_REPORT");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: --workload <serve_warm|serve_churn|deploy|deploy_cf> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };

    // Scratch files (spill and store files) live in the working tree, in
    // a per-process directory removed at exit.
    let scratch = PathBuf::from(".perfbench-scratch").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let host = Host::detect();
    let result = match args.workload {
        Workload::ServeWarm | Workload::ServeChurn => {
            serve::run(args.workload, args.seed, args.seconds, args.trace, &scratch)
        }
        Workload::Deploy | Workload::DeployCf => {
            deploy::run(args.workload, args.seed, args.seconds, args.trace, &scratch)
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench-scratch");
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {} failed: {message}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };

    println!("perfbench host cpu={}", host.cpu);
    println!("perfbench host nproc={}", host.nproc);
    println!("perfbench host rustc={}", host.rustc);
    println!("perfbench host commit={}", host.commit);
    println!(
        "perfbench run workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &outcome.lines {
        println!("perfbench | {line}");
    }
    let correct = outcome.failed == 0;
    println!(
        "perfbench check attempted={} failed={} failed_share={}",
        outcome.attempted,
        outcome.failed,
        metrics::ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    for (name, unit, value) in outcome.values.rows() {
        println!("perfbench metric {name} {value} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.values.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A saved report: its host and run lines and its metric values.
struct Report {
    host: Host,
    run: String,
    metrics: BTreeMap<String, (f64, String)>,
}

fn read_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut host: BTreeMap<&str, &str> = BTreeMap::new();
    let mut run = None;
    let mut metrics = BTreeMap::new();
    for line in text.lines() {
        if let Some(field) = line.strip_prefix("perfbench host ") {
            if let Some((key, value)) = field.split_once('=') {
                host.insert(key, value);
            }
        } else if let Some(fields) = line.strip_prefix("perfbench run ") {
            // The seed may differ between the two sides; the rest may not.
            let kept: Vec<&str> = fields
                .split_whitespace()
                .filter(|field| !field.starts_with("seed="))
                .collect();
            run = Some(kept.join(" "));
        } else if let Some(fields) = line.strip_prefix("perfbench metric ") {
            let parts: Vec<&str> = fields.split_whitespace().collect();
            if let [name, value, unit] = parts.as_slice() {
                let value = value.parse().map_err(|e| format!("{path}: {name}: {e}"))?;
                metrics.insert(name.to_string(), (value, unit.to_string()));
            }
        }
    }
    let field = |key: &str| {
        host.get(key)
            .map(|value| value.to_string())
            .ok_or(format!("{path}: no host {key}"))
    };
    Ok(Report {
        host: Host {
            cpu: field("cpu")?,
            nproc: field("nproc")?
                .parse()
                .map_err(|e| format!("{path}: nproc: {e}"))?,
            rustc: field("rustc")?,
            commit: field("commit")?,
        },
        run: run.ok_or(format!("{path}: no run line"))?,
        metrics,
    })
}

fn compare(old: &str, new: &str) -> ExitCode {
    let (old, new) = match (read_report(old), read_report(new)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if !old.host.same_machine(&new.host) {
        eprintln!(
            "perfbench: refusing to compare results from different hosts: {} vs {}",
            old.host.to_json(),
            new.host.to_json()
        );
        return ExitCode::from(2);
    }
    if old.run != new.run {
        eprintln!(
            "perfbench: refusing to compare different runs: {} vs {}",
            old.run, new.run
        );
        return ExitCode::from(2);
    }
    println!("host {}", new.host.to_json());
    println!(
        "commits {} -> {}",
        json_string(&old.host.commit),
        json_string(&new.host.commit)
    );
    for (name, (before, unit)) in &old.metrics {
        let Some((after, _)) = new.metrics.get(name) else {
            continue;
        };
        let delta = if *before != 0.0 {
            format!("{:+.2}%", (after / before - 1.0) * 100.0)
        } else {
            "n/a".to_string()
        };
        println!("{name:<40} {before:>14.4} -> {after:>14.4} {unit:<6} {delta}");
    }
    ExitCode::SUCCESS
}
