//! The machine stamp: what a number needs beside it before it can be
//! compared with another (ROADMAP aim 1).

use crate::spec::HARNESS_VERSION;
use std::path::Path;
use std::process::Command;

#[derive(Debug, Clone)]
pub struct MachineStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    /// `unknown` when the checkout is not a git repository.
    pub git_sha: String,
    pub git_dirty: bool,
    pub harness_version: &'static str,
}

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

impl MachineStamp {
    pub fn collect() -> MachineStamp {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        // Only ask git when the checkout is one: git would otherwise
        // walk up and describe some directory above the benchmark.
        let in_git = repo.join(".git").exists();
        let git = |args: &[&str]| {
            in_git
                .then(|| stdout_of(Command::new("git").arg("-C").arg(&repo).args(args)))
                .flatten()
        };
        MachineStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: stdout_of(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
            git_sha: git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            git_dirty: git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()),
            harness_version: HARNESS_VERSION,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_sha\":{},\"git_dirty\":{},\
             \"harness_version\":{}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.git_sha),
            self.git_dirty,
            json_str(self.harness_version),
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::Value::String(s.to_owned()).to_json_string()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_is_valid_json_with_every_field() {
        let stamp = MachineStamp::collect();
        let v: serde_json::Value = serde_json::from_str(&stamp.to_json()).unwrap();
        for key in [
            "nproc",
            "cpu_model",
            "rustc",
            "git_sha",
            "git_dirty",
            "harness_version",
        ] {
            assert!(!v[key].is_null(), "missing {key}");
        }
        assert!(v["nproc"].as_u64().unwrap() >= 1);
        assert!(peak_rss_mb() > 0.0);
    }
}
