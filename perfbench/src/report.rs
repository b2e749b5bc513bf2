//! The benchmark's result record: named metrics with units, the check
//! tally, and the host metadata every record carries.

use std::collections::BTreeMap;

use serde::Serialize;

#[derive(Serialize)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Units checked (worlds, queries or population worlds).
    pub attempted: u64,
    /// Units whose output check failed.
    pub failed: u64,
    /// First few failure reasons, printed to stderr.
    pub failures: Vec<String>,
    /// Checks outside the workload's own units that failed (they fail the
    /// run without counting in `attempted`/`failed`).
    pub side_failures: u64,
    pub metrics: BTreeMap<String, Metric>,
    /// Workload-specific names of the end-to-end figures, printed as
    /// comment lines before the result.
    pub aliases: Vec<(String, String)>,
}

impl Report {
    /// Record a metric. JSON has no NaN or infinity; a non-finite reading
    /// is reported as 0 (every denominator the benchmark divides by is
    /// checked non-zero, so this only guards against a broken clock).
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.into(), Metric { value, unit });
    }

    /// Record one checked unit; `failure` is `Some(reason)` when its
    /// output check failed.
    pub fn check(&mut self, failure: Option<String>) {
        let failed = u64::from(failure.is_some());
        self.tally(1, failed, failure);
    }

    /// Record `attempted` checked units of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, reason: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.note(reason);
    }

    /// Record a failed check on work that is not one of the workload's
    /// units: the run fails, its tally is unchanged.
    pub fn side_failure(&mut self, reason: String) {
        self.side_failures += 1;
        self.note(Some(reason));
    }

    fn note(&mut self, reason: Option<String>) {
        if let Some(reason) = reason {
            if self.failures.len() < 8 {
                self.failures.push(reason);
            }
        }
    }

    /// Name a workload-specific reading of an end-to-end metric.
    pub fn alias(&mut self, name: &str, meaning: String) {
        self.aliases.push((name.to_string(), meaning));
    }

    pub fn fail_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Did every check pass?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.side_failures == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let line = serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        });
        serde_json::to_string(&line).expect("result line serializes")
    }
}

/// The host record: `nproc`, compiler, commit, seed, thread count and
/// run length. The compiler and commit come from the launcher's
/// environment (`PERFBENCH_RUSTC`, `PERFBENCH_COMMIT`,
/// `PERFBENCH_SOURCE`), since the binary cannot know them itself.
#[derive(Serialize)]
pub struct Host {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub source_sha256: String,
    pub seed: u64,
    pub threads: usize,
    pub run_seconds: f64,
    pub workload: String,
    pub trace: bool,
    pub smoke: bool,
}

impl Host {
    pub fn new(args: &crate::Args) -> Host {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        Host {
            nproc: args.threads,
            rustc: env("PERFBENCH_RUSTC"),
            commit: env("PERFBENCH_COMMIT"),
            source_sha256: env("PERFBENCH_SOURCE"),
            seed: args.seed,
            threads: args.threads,
            run_seconds: args.seconds,
            workload: args.workload.clone(),
            trace: args.trace,
            smoke: args.smoke,
        }
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("host record serializes")
    }
}
