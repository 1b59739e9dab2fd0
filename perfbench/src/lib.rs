//! The repository benchmark: three workloads that together drive every
//! workspace crate, measured on the host clock (how long our code takes) and
//! on the model clock (the simulated GFLOP/s the paper reports).
//!
//! * [`suite_spmv`] — prebuilt kernels over a stratified subset of the
//!   30-matrix suite; the timed phase is only `PreparedSpmv::run`.
//! * [`prepare`] — the offline side of the paper's break-even argument:
//!   encode, `.bro` round trip, RCM/AMD/BAR and the Fig. 9 re-encode + SpMV.
//! * [`cluster_cg`] — CG to a fixed tolerance on a 2-D Laplacian spread over
//!   four simulated K20s.
//!
//! A run is either untraced (end-to-end metrics) or traced (per-layer
//! metrics, from spans recorded around every call into a layer). See
//! `README.md` next to this crate for the metric → layer → workload map.

pub mod checks;
pub mod cluster_cg;
pub mod layers;
pub mod metrics;
pub mod offline;
pub mod prepare;
pub mod stats;
pub mod suite_spmv;

use std::path::PathBuf;
use std::time::Instant;

pub use checks::Checks;
pub use layers::Recorder;

/// Worker threads the benchmark pins the rayon pool to: the size of the
/// machines the baselines were taken on (2 vCPU), independent of the host.
pub const WORKERS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Prebuilt-kernel SpMV over suite matrices.
    SuiteSpmv,
    /// Encode, serialize, reorder and re-encode (Fig. 9).
    Prepare,
    /// Distributed CG to tolerance.
    ClusterCg,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::SuiteSpmv, Workload::Prepare, Workload::ClusterCg];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteSpmv => "suite-spmv",
            Workload::Prepare => "prepare",
            Workload::ClusterCg => "cluster-cg",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the command line runs, `Tiny` keeps the
/// benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's real inputs.
    Full,
    /// Small matrices for smoke tests.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Mixed into every generated input.
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Rayon worker threads ([`WORKERS`] on the command line).
    pub workers: usize,
    /// Where a traced run writes its Chrome trace (`None`: validate only).
    pub trace_dir: Option<PathBuf>,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s` or `Mnnz/s`.
    pub unit: &'static str,
}

/// What a run produced: its correctness checks and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every verified operation.
    pub checks: Checks,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// A non-finite value is written as 0 and counted as a failed check.
    pub fn to_json(&mut self) -> String {
        let mut body = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            let finite = m.value.is_finite();
            self.checks.check(finite, || format!("metric {} is {}", m.name, m.value));
            let value = if finite { m.value } else { 0.0 };
            body.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            body.join(", ")
        )
    }
}

/// Runs one workload with the rayon pool pinned to `cfg.workers`.
pub fn run(cfg: &Config) -> Outcome {
    pin_workers(cfg.workers);
    match cfg.workload {
        Workload::SuiteSpmv => suite_spmv::run(cfg),
        Workload::Prepare => prepare::run(cfg),
        Workload::ClusterCg => cluster_cg::run(cfg),
    }
}

/// Sets the process-wide rayon worker count.
pub fn pin_workers(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("the rayon shim accepts any worker count");
}

/// Mixes the run seed into a per-input seed (splitmix64 finalizer), so each
/// input gets an independent stream and seed 0 still perturbs everything.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
