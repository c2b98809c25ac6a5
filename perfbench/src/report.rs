//! The run record: every metric with its unit and sample count, the
//! correctness verdict, and the stamps (host cores, engine workers,
//! commit, source digest, seed) that make a number comparable.

use std::fmt::Write as _;
use std::path::Path;

use crate::checks::Checks;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json` for the reported metrics.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind the value.
    pub samples: usize,
    /// Free-form provenance (e.g. which percentile a tail is).
    pub detail: Option<String>,
}

impl Metric {
    /// A metric without detail.
    pub fn new(name: &str, value: f64, unit: &str, samples: usize) -> Self {
        Metric { name: name.into(), value, unit: unit.into(), samples, detail: None }
    }

    /// The same metric with a provenance note.
    pub fn with_detail(mut self, detail: String) -> Self {
        self.detail = Some(detail);
        self
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Requests (bond points or jobs) attempted.
    pub attempted: usize,
    /// Requests that failed or were refused.
    pub failed: usize,
    /// Correctness checks made during the run.
    pub checks: Checks,
    /// Human-readable notes for the record.
    pub notes: Vec<String>,
}

/// The run's stamps.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// `std::thread::available_parallelism`.
    pub host_cores: usize,
    /// Engine worker threads.
    pub engine_workers: usize,
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
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

/// A JSON number with every digit Rust's shortest round-trip form has
/// (non-finite values become `null`).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

/// The whole record as one JSON line.
pub fn render(stamp: &Stamp, report: &Report) -> String {
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.checks.all_passed() && finite;
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {}, \
         \"engine_workers\": {}, \"commit\": {}, \"source_digest\": {}, ",
        json_str(&stamp.workload),
        stamp.seed,
        json_num(stamp.seconds),
        u8::from(stamp.trace),
        stamp.host_cores,
        stamp.engine_workers,
        json_str(&commit(Path::new("."))),
        json_str(&format!("{:016x}", source_digest(Path::new(".")))),
    );
    let _ = write!(
        out,
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"checks_passed\": {{",
        report.attempted, report.failed
    );
    let passed: Vec<String> = report
        .checks
        .passed()
        .iter()
        .map(|(name, count)| format!("{}: {count}", json_str(name)))
        .collect();
    out.push_str(&passed.join(", "));
    out.push_str("}, \"check_failures\": [");
    let failures: Vec<String> = report.checks.failures().iter().map(|f| json_str(f)).collect();
    out.push_str(&failures.join(", "));
    out.push_str("], \"notes\": [");
    let notes: Vec<String> = report.notes.iter().map(|n| json_str(n)).collect();
    out.push_str(&notes.join(", "));
    out.push_str("], \"metrics\": {");
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let mut entry = format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit),
                m.samples
            );
            if let Some(detail) = &m.detail {
                let _ = write!(entry, ", \"detail\": {}", json_str(detail));
            }
            entry.push('}');
            entry
        })
        .collect();
    out.push_str(&metrics.join(", "));
    out.push_str("}}");
    out
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and contents of the sources the benchmark
/// builds (`Cargo.*`, `src/`, `crates/`, `perfbench/`), in sorted path
/// order: identifies the code measured when there is no commit.
pub fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else if name.ends_with(".rs") || name.ends_with(".toml") || name.ends_with(".lock") {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["src", "crates", "perfbench"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            feed(file.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.0), "1.0");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn non_finite_metrics_make_the_run_incorrect() {
        let stamp = Stamp {
            workload: "w".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            host_cores: 2,
            engine_workers: 2,
        };
        let mut report = Report { attempted: 1, ..Default::default() };
        report.metrics.push(Metric::new("x", 1.5, "s", 3));
        assert!(render(&stamp, &report).contains("\"correct\": true"));
        report.metrics.push(Metric::new("y", f64::INFINITY, "s", 1));
        assert!(render(&stamp, &report).contains("\"correct\": false"));
    }
}
