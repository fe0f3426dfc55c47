//! The host fingerprint stamped on every result. Absolute timings only
//! compare between runs on the same CPU model, core count and compiler.

use std::path::Path;
use std::process::Command;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub cpu: String,
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        // A source checkout without git metadata has no commit to report;
        // git must not find a repository above the working directory.
        let mut git = Command::new("git");
        git.args(["rev-parse", "--short=12", "HEAD"]);
        if let Some(parent) = std::env::current_dir()
            .ok()
            .as_deref()
            .and_then(Path::parent)
        {
            git.env("GIT_CEILING_DIRECTORIES", parent);
        }
        let commit = git
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|text| text.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            cpu,
            nproc,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            commit,
        }
    }

    /// The JSON object written into each result record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\": {}, \"nproc\": {}, \"rustc\": {}, \"commit\": {}}}",
            json_string(&self.cpu),
            self.nproc,
            json_string(&self.rustc),
            json_string(&self.commit)
        )
    }

    /// Whether timings from `other` may be compared with ours. The commit
    /// is what a comparison varies, so it is not part of the host.
    pub fn same_machine(&self, other: &Host) -> bool {
        self.cpu == other.cpu && self.nproc == other.nproc && self.rustc == other.rustc
    }
}

pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
