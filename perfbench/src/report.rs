//! Result collection, the machine fingerprint and the output formats.

use crate::stats;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("  {name:<42} {value:>14.6} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A named output check; a failed one makes the run incorrect.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        println!("  check {}: {what}", if ok { "ok  " } else { "FAIL" });
        self.checks.push((what, ok));
    }

    /// Context printed with the result and kept in the results file
    /// (ratio bases, sample counts, chosen plans).
    pub fn note(&mut self, line: impl Into<String>) {
        let line = line.into();
        println!("  note: {line}");
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1) && self.metrics.iter().all(|m| m.1.is_finite())
    }

    fn metrics_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(s, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        s.push('}');
        s
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// Everything, fingerprint included, for the results file.
    pub fn full_json(&self, fingerprint: &[(&str, String)]) -> String {
        let fp: Vec<String> = fingerprint
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", quote(v)))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(w, ok)| format!("{{\"check\":{},\"ok\":{ok}}}", quote(w)))
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| quote(n)).collect();
        format!(
            "{{\"fingerprint\":{{{}}},\"result\":{},\"checks\":[{}],\"notes\":[{}]}}\n",
            fp.join(","),
            self.result_line(),
            checks.join(","),
            notes.join(",")
        )
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The git revision when the checkout is a repository, else `none`.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a over the crates' sources and manifests, in path order: names
/// the code under test when the checkout carries no git metadata.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let hash = files.iter().fold(stats::FNV_OFFSET, |h, p| {
        let h = stats::fnv1a(h, p.to_string_lossy().as_bytes());
        stats::fnv1a(h, &std::fs::read(p).unwrap_or_default())
    });
    format!("{hash:016x} ({} files)", files.len())
}

pub fn fingerprint(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", (trace as u8).to_string()),
        ("git_revision", git_revision()),
        ("source_hash", source_hash(Path::new("."))),
        ("nproc", nproc.to_string()),
        ("dispatch", apa_gemm::dispatch_report()),
        ("blocks", apa_gemm::block_report::<f32>()),
        ("topology", apa_gemm::topology_report()),
        (
            "plan_dir",
            std::env::var("APA_PLAN_DIR").unwrap_or_else(|_| "unset".into()),
        ),
    ]
}
