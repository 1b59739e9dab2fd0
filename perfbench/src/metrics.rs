//! The metric catalogue. Every workload reports the same names, so runs of
//! different workloads compare column by column; `BENCHMARK.json` lists the
//! same names (a test keeps the two in step).

use std::collections::BTreeMap;

use bro_matrix::{CooMatrix, EllMatrix};

use crate::layers::{LayerTimes, LAYERS};
use crate::stats::{beyond, SpmvSamples, Summary};
use crate::Outcome;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("spmv_mnnz_per_s", "Mnnz/s"),
    ("spmv_ns_per_nnz_p50", "ns/nnz"),
    ("spmv_ns_per_nnz_p90", "ns/nnz"),
    ("model_gflops_geomean", "GFLOP/s"),
    ("index_savings_mean", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Kernel formats that appear in per-format metric names.
pub const FORMATS: [&str; 8] =
    ["ell", "ellr", "bro-ell", "bro-ellr", "coo", "hyb", "bro-coo", "bro-hyb"];

/// Per-layer metrics: name and unit. A workload that does not exercise a
/// metric's layer reports it as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    add("matrix.generate_ns_per_nnz", "ns/nnz");
    add("matrix.convert_ns_per_nnz", "ns/nnz");
    add("matrix.ell_fill_ratio", "fraction");
    for f in ["bro-ell", "bro-coo", "bro-hyb"] {
        add(&format!("core.encode_ns_per_nnz.{f}"), "ns/nnz");
    }
    add("core.write_ns_per_nnz", "ns/nnz");
    add("core.read_ns_per_nnz", "ns/nnz");
    add("core.decompress_ns_per_nnz", "ns/nnz");
    add("core.index_bits_per_nnz", "bits/nnz");
    add("reorder.bar_ns_per_nnz", "ns/nnz");
    add("reorder.rcm_ns_per_nnz", "ns/nnz");
    add("reorder.amd_ns_per_nnz", "ns/nnz");
    add("reorder.bar_speedup_2t", "x");
    add("reorder.bar_cost", "count");
    for f in FORMATS {
        add(&format!("kernels.build_ns_per_nnz.{f}"), "ns/nnz");
    }
    for f in FORMATS {
        add(&format!("kernels.run_ns_per_nnz.{f}"), "ns/nnz");
    }
    add("gpu-sim.host_ns_per_warp", "ns");
    add("gpu-sim.host_us_per_launch", "us");
    add("gpu-sim.speedup_2t", "x");
    add("gpu-sim.launches", "count");
    add("gpu-sim.warps", "count");
    add("gpu-sim.read_txns", "count");
    add("gpu-sim.int_ops_per_nnz", "count");
    add("gpu-sim.tex_hit_rate", "fraction");
    for f in FORMATS {
        add(&format!("model.dram_bytes_per_nnz.{f}"), "B/nnz");
    }
    add("model.bw_utilization", "fraction");
    add("model.occupancy", "fraction");
    add("gpu-cluster.build_s", "s");
    add("gpu-cluster.spmv_us", "us");
    add("gpu-cluster.exchange_bytes_per_spmv", "B");
    add("gpu-cluster.overlap_efficiency", "fraction");
    add("solvers.iterations", "count");
    add("solvers.self_ms", "ms");
    for layer in LAYERS {
        add(&format!("{layer}.self_share"), "fraction");
    }
    add("harness.layer_coverage", "fraction");
    add("harness.spmv_samples", "count");
    add("trace_overhead", "x");
    v
}

/// Non-zeros over padded ELL slots of `matrices`: the useful share of the
/// work an ELL kernel does.
pub fn ell_fill_ratio<'a>(matrices: impl IntoIterator<Item = &'a CooMatrix<f64>>) -> f64 {
    let (mut nnz, mut slots) = (0usize, 0usize);
    for a in matrices {
        let ell = EllMatrix::from_coo(a);
        nnz += a.nnz();
        slots += ell.rows() * ell.width();
    }
    nnz as f64 / slots.max(1) as f64
}

/// The end-to-end figures of one untraced run.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// Median seconds of one set-up.
    pub setup_s: f64,
    /// Busy seconds of every timed pass.
    pub pass_s: Vec<f64>,
    /// How the passes and SpMV windows are summed up into `wall_s` and the
    /// `spmv_*` figures.
    pub summary: Summary,
    /// Every timed SpMV call.
    pub spmv: SpmvSamples,
    /// Geometric mean of the simulated GFLOP/s (deterministic per seed).
    pub model_gflops_geomean: f64,
    /// Mean BRO index space savings η (deterministic per seed).
    pub index_savings_mean: f64,
}

impl EndToEnd {
    /// Appends every [`END_TO_END`] metric, in catalogue order.
    pub fn emit(&self, out: &mut Outcome) {
        let values = [
            self.setup_s,
            self.summary.times(&self.pass_s),
            self.spmv.rate.mnnz_per_s(self.summary),
            self.spmv.windowed_quantile(0.5, self.summary),
            self.spmv.windowed_quantile(0.9, self.summary),
            self.model_gflops_geomean,
            self.index_savings_mean,
            crate::peak_rss_mib(),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            out.push(*name, value, unit);
        }
        let windows = self.spmv.windows();
        let thinnest = windows.iter().map(|w| beyond(w, 0.9)).min().unwrap_or(0);
        out.checks.check(thinnest >= 10, || {
            format!("a percentile window has only {thinnest} SpMV samples beyond its p90")
        });
        eprintln!(
            "spmv samples: {} calls in {} windows (at least {thinnest} beyond p90 in each)",
            self.spmv.ns_per_nnz.len(),
            windows.len()
        );
    }
}

/// Per-layer values of one traced run, keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct PerLayer {
    values: BTreeMap<String, f64>,
}

impl PerLayer {
    /// Sets a metric; the name must be in [`per_layer`].
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records layer self-time shares and their coverage.
    pub fn set_layer_times(&mut self, times: &LayerTimes) {
        for layer in LAYERS {
            self.set(format!("{layer}.self_share"), times.share(layer));
        }
        self.set("harness.layer_coverage", times.coverage());
    }

    /// Names set that are not in the catalogue (a test keeps this empty).
    pub fn unknown(&self) -> Vec<String> {
        let known = per_layer();
        self.values.keys().filter(|k| !known.iter().any(|(n, _)| n == *k)).cloned().collect()
    }

    /// Appends every [`per_layer`] metric, 0 where unset.
    pub fn emit(&self, out: &mut Outcome) {
        let unknown = self.unknown();
        out.checks.check(unknown.is_empty(), || format!("uncatalogued metrics {unknown:?}"));
        for (name, unit) in per_layer() {
            let value = self.values.get(&name).copied().unwrap_or(0.0);
            out.push(name, value, unit);
        }
    }
}
