//! `prepare`: the offline side of the paper's break-even argument (Fig. 9,
//! Table 5) on Test Set 1 matrices.
//!
//! Each pass encodes every matrix into BRO-ELL, BRO-COO and BRO-HYB, writes
//! and reads the `.bro` containers in memory and decompresses them, computes
//! the RCM, AMD and BAR orderings, and re-encodes and runs BRO-ELL once per
//! ordering (none, BAR, RCM, AMD) for the Fig. 9 model numbers. The codec
//! write path and `core::reorder` do most of the work; `gpu-sim` does little.
//! `mc2depi` is BAR's worst case (and where extra workers slow it down);
//! `cant` and `qcd5_4` are regular matrices on which BAR is cheap.

use std::time::Instant;

use bro_core::reorder::{amd_order, bar_order, rcm_order, BarConfig};
use bro_core::{BroEll, BroEllConfig, BroHyb, BroHybConfig};
use bro_gpu_sim::{DeviceProfile, DeviceSim, KernelReport, LaunchStats};
use bro_kernels::bro_ell_spmv;
use bro_matrix::{suite, CooMatrix, CsrMatrix};

use crate::checks::{Checks, Reference};
use crate::layers::{finish_trace, setup_every, timed_phase, Recorder};
use crate::metrics::{ell_fill_ratio, EndToEnd, PerLayer};
use crate::offline::{round_trip, Store};
use crate::stats::{geomean, mean, median, SpmvSamples, Summary};
use crate::{mix, pin_workers, secs, Config, Outcome, Size};

const MATRICES: [&str; 3] = ["mc2depi", "cant", "qcd5_4"];
/// Fig. 9's orderings, in its column order.
const ORDERS: [&str; 4] = ["none", "bar", "rcm", "amd"];
/// SpMVs per re-encoded matrix, as an iterative solver reuses it; this also
/// gives the per-call percentiles enough samples per window of passes.
const FIG9_RUNS: usize = 3;

/// Set-ups per run, in batches spread over the timed phase; `setup_s` is
/// their median. Set-up is short here, so it repeats often.
const SETUP_REPEATS: usize = 15;
const SETUP_BATCH: usize = 3;
/// BAR runs per matrix at each worker count for `reorder.bar_speedup_2t`.
const SPEEDUP_REPEATS: usize = 3;

fn scale(size: Size) -> f64 {
    match size {
        Size::Full => 0.04,
        Size::Tiny => 0.005,
    }
}

/// One Test Set 1 matrix with its input vector and expected output.
struct Case {
    name: &'static str,
    a: CooMatrix<f64>,
    x: Vec<f64>,
    reference: Reference,
}

/// Model-clock results of one pass, fixed for a seed.
#[derive(Debug, Default, PartialEq)]
struct PassModel {
    /// Simulated time of every (matrix, ordering) SpMV, as bits.
    time_bits: Vec<u64>,
    /// BRO-ELL GFLOP/s after BAR, per matrix.
    bar_gflops: Vec<f64>,
    /// BRO-ELL space savings after BAR, per matrix.
    bar_eta: Vec<f64>,
    /// Summed Eqn. (1) cost BAR reached.
    bar_cost: u64,
    /// Summed counters of every SpMV, and its launches.
    stats: LaunchStats,
    launches: usize,
    bytes_per_nnz: f64,
    bw_utilization: Vec<f64>,
    occupancy: Vec<f64>,
}

fn setup(cfg: &Config, rec: &Recorder) -> Vec<Case> {
    MATRICES
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let entry = suite::by_name(name).expect("suite matrix names are fixed");
            let mut spec = entry.spec(scale(cfg.size));
            spec.seed = mix(cfg.seed, spec.seed);
            let (a, _) = rec.time_by("matrix/generate", || spec.generate::<f64>(), CooMatrix::nnz);
            let (csr, _) = rec.time("matrix/convert", a.nnz(), || CsrMatrix::from_coo(&a));
            let x = bro_verify::input_vector(a.cols(), mix(cfg.seed, i as u64 + 1));
            let reference = Reference::new(&a, &csr, &x);
            Case { name, a, x, reference }
        })
        .collect()
}

/// One pass over every matrix; returns its busy seconds (checks excluded)
/// and model results.
fn pass(
    rec: &Recorder,
    checks: &mut Checks,
    cases: &[Case],
    samples: &mut SpmvSamples,
) -> (f64, PassModel) {
    let mut busy = 0.0;
    let mut model = PassModel::default();
    let mut spmv_nnz = 0usize;
    for case in cases {
        let (a, nnz) = (&case.a, case.a.nnz());
        busy += round_trip(rec, checks, case.name, a, Store::Ell);
        busy += round_trip(rec, checks, case.name, a, Store::Coo);
        let (_, t) = rec.time("core/encode/bro-hyb", nnz, || {
            BroHyb::<f64>::from_coo(a, &BroHybConfig::default())
        });
        busy += t;

        let (rcm, t_rcm) = rec.time("reorder/rcm", nnz, || rcm_order(a));
        let (amd, t_amd) = rec.time("reorder/amd", nnz, || amd_order(a));
        let ((bar, cost), t_bar) =
            rec.time("reorder/bar", nnz, || bar_order(a, &BarConfig::default()));
        busy += t_rcm + t_amd + t_bar;
        model.bar_cost += cost;

        for (order, perm) in ORDERS.into_iter().zip([None, Some(&bar), Some(&rcm), Some(&amd)]) {
            let what = format!("{} {order}", case.name);
            let permuted = perm.map(|p| {
                checks.bijection(&what, p, a.rows());
                let (m, t) = rec.time("matrix/convert", nnz, || p.apply_rows(a));
                busy += t;
                m
            });
            let m = permuted.as_ref().unwrap_or(a);
            let (bro, t) = rec.time("core/encode/bro-ell", nnz, || {
                BroEll::<f64>::from_coo(m, &BroEllConfig::default())
            });
            busy += t;
            let want = perm.map(|p| case.reference.permuted(p));
            let mut runs = Vec::with_capacity(FIG9_RUNS);
            for _ in 0..FIG9_RUNS {
                let mut sim =
                    DeviceSim::builder(DeviceProfile::tesla_k20()).tracer(rec.tracer()).build();
                let (y, t) =
                    rec.time("kernels/run/bro-ell", nnz, || bro_ell_spmv(&mut sim, &bro, &case.x));
                samples.add(nnz, t);
                busy += t;
                let (report, t) = rec.time("model/report", nnz, || {
                    KernelReport::from_device(&sim, 2 * nnz as u64, 8)
                });
                busy += t;
                checks.spmv(&what, &y, want.as_ref().unwrap_or(&case.reference));
                model.time_bits.push(report.time_s.to_bits());
                runs.push((report, sim.launches()));
            }
            let (report, launches) = runs.swap_remove(0);
            model.stats.merge(&report.stats);
            model.launches += launches;
            model.bytes_per_nnz += report.dram_bytes as f64;
            model.bw_utilization.push(report.bw_utilization);
            model.occupancy.push(report.occupancy);
            spmv_nnz += nnz;
            if order == "bar" {
                model.bar_gflops.push(report.gflops);
                model.bar_eta.push(bro.space_savings().eta());
            }
        }
    }
    model.bytes_per_nnz /= spmv_nnz.max(1) as f64;
    samples.end_pass();
    (busy, model)
}

/// Times BAR on every matrix at `workers` threads: the median over
/// [`SPEEDUP_REPEATS`] of the summed time.
fn bar_seconds(cases: &[Case], workers: usize) -> f64 {
    pin_workers(workers);
    let runs: Vec<f64> = (0..SPEEDUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            for c in cases {
                std::hint::black_box(bar_order(&c.a, &BarConfig::default()));
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&runs)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let rec = Recorder::new(cfg.trace);
    let checks = &mut out.checks;

    let mut setup_s = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let cases = setup(cfg, &rec);
        setup_s.push(secs(start));
        cases
    };
    let mut cases = timed_setup(&mut setup_s);

    // Untimed warm-up pass: fixes the model results every later pass must repeat.
    rec.set_tracing(false);
    let start = Instant::now();
    let (_, first) = pass(&rec, checks, &cases, &mut SpmvSamples::default());
    let every = setup_every(cfg.seconds, secs(start), SETUP_REPEATS / SETUP_BATCH);
    let min_passes = if cfg.size == Size::Tiny { 7 } else { 1 };

    let mut samples = SpmvSamples::default();
    let phase = timed_phase(cfg, &rec, min_passes, every, |setup_due| {
        let mut result = None;
        rec.pass(|| result = Some(pass(&rec, checks, &cases, &mut samples)));
        let (busy, model) = result.expect("the pass ran");
        checks.check(model == first, || "model results changed between passes".to_string());
        if setup_due && setup_s.len() < SETUP_REPEATS {
            for _ in 0..SETUP_BATCH {
                cases = Vec::new();
                cases = timed_setup(&mut setup_s);
            }
        }
        busy
    });

    if !cfg.trace {
        EndToEnd {
            setup_s: median(&setup_s),
            pass_s: phase.untraced,
            summary: Summary::Median,
            spmv: samples,
            model_gflops_geomean: geomean(&first.bar_gflops),
            index_savings_mean: mean(&first.bar_eta),
        }
        .emit(&mut out);
        return out;
    }

    let bar_speedup = bar_seconds(&cases, 1) / bar_seconds(&cases, cfg.workers);
    let mut layer = PerLayer::default();
    finish_trace(&rec, cfg, checks, &mut layer, &phase);
    layer.set("harness.spmv_samples", samples.ns_per_nnz.len() as f64);
    layer.set("reorder.bar_speedup_2t", bar_speedup);
    layer.set("reorder.bar_cost", first.bar_cost as f64);
    layer.set("matrix.ell_fill_ratio", ell_fill_ratio(cases.iter().map(|c| &c.a)));
    let nnz: usize = cases.iter().map(|c| c.a.nnz()).sum();
    let bro_bits: usize = cases
        .iter()
        .map(|c| {
            BroEll::<f64>::from_coo(&c.a, &BroEllConfig::default()).space_savings().compressed_bytes
                * 8
        })
        .sum();
    layer.set("core.index_bits_per_nnz", bro_bits as f64 / nnz as f64);
    layer.set("gpu-sim.launches", first.launches as f64);
    layer.set("gpu-sim.warps", first.stats.warps_launched as f64);
    layer.set("gpu-sim.read_txns", first.stats.global_read_txns as f64);
    layer.set("gpu-sim.int_ops_per_nnz", first.stats.int_ops as f64 / (ORDERS.len() * nnz) as f64);
    layer.set("gpu-sim.tex_hit_rate", first.stats.tex_hit_rate());
    layer.set("model.dram_bytes_per_nnz.bro-ell", first.bytes_per_nnz);
    layer.set("model.bw_utilization", mean(&first.bw_utilization));
    layer.set("model.occupancy", mean(&first.occupancy));
    layer.emit(&mut out);
    out
}
