//! `cluster-cg`: CG to a relative residual of 1e-8 on a 2-D Laplacian spread
//! across four simulated Tesla K20s with BRO-HYB partitions.
//!
//! This is HPC time to solution, and the only workload that drives
//! `gpu-cluster` and `solvers`. It uses `gpu-sim` differently from
//! `suite-spmv`: hundreds of small launches on one operator, so the fixed
//! per-launch cost dominates where per-warp cost dominates `suite-spmv`.
//! The timed solve is `bro_solvers::cg` over `ClusterSpmv::spmv_traced` —
//! the operator `cluster_cg` applies — so each SpMV can be timed; the
//! warm-up solve goes through `cluster_cg` itself and must match it exactly.

use std::time::Instant;

use bro_core::{BroHyb, BroHybConfig, SpaceSavings};
use bro_gpu_cluster::{cluster_cg, ClusterSpmv};
use bro_gpu_sim::{DeviceProfile, LaunchStats};
use bro_matrix::generate::laplacian_2d;
use bro_matrix::{CooMatrix, CsrMatrix};
use bro_solvers::{cg, CgOptions, SolveStats};

use crate::checks::{Checks, Reference};
use crate::layers::{finish_trace, setup_every, timed_phase, Recorder};
use crate::metrics::{ell_fill_ratio, EndToEnd, PerLayer};
use crate::stats::{median, SpmvSamples, Summary};
use crate::{mix, secs, Config, Outcome, Size};

const DEVICES: usize = 4;
const TOL: f64 = 1e-8;
/// Set-ups per run, in batches spread over the timed phase; `setup_s` is
/// their median. Set-up takes a few milliseconds here, so it repeats often.
const SETUP_REPEATS: usize = 25;
const SETUP_BATCH: usize = 5;

/// Side of the Laplacian grid.
fn grid(size: Size) -> usize {
    match size {
        Size::Full => 96,
        Size::Tiny => 12,
    }
}

fn options() -> CgOptions {
    CgOptions { max_iters: 10_000, tol: TOL }
}

/// The operator, distributed, and the right-hand side.
struct Problem {
    a: CooMatrix<f64>,
    csr: CsrMatrix<f64>,
    cluster: ClusterSpmv<f64>,
    b: Vec<f64>,
}

/// Model-clock totals of one solve, fixed for a seed.
#[derive(Debug, Default, PartialEq)]
struct SolveModel {
    iterations: usize,
    spmv_calls: usize,
    /// Summed simulated SpMV seconds, as bits.
    spmv_time_bits: u64,
    exchange_bytes: u64,
    overlap_sum: f64,
    stats: LaunchStats,
    launches: usize,
}

fn setup(cfg: &Config, rec: &Recorder) -> (Problem, f64) {
    let n = grid(cfg.size);
    let (a, _) = rec.time_by("matrix/generate", || laplacian_2d::<f64>(n), CooMatrix::nnz);
    let (csr, _) = rec.time("matrix/convert", a.nnz(), || CsrMatrix::from_coo(&a));
    let (cluster, build_s) = rec.time("gpu-cluster/build", a.nnz(), || {
        ClusterSpmv::homogeneous(&csr, &DeviceProfile::tesla_k20(), DEVICES)
    });
    let b = bro_verify::input_vector(a.rows(), mix(cfg.seed, 1));
    (Problem { a, csr, cluster, b }, build_s)
}

/// Checks a solution: converged, with true relative residual within tolerance.
fn check_solution(checks: &mut Checks, p: &Problem, x: &[f64], stats: &SolveStats) {
    let ax = p.csr.spmv(x).expect("x has the operator's length");
    let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|e| e * e).sum::<f64>().sqrt();
    let r = norm(&mut ax.iter().zip(&p.b).map(|(l, r)| l - r)) / norm(&mut p.b.iter().copied());
    checks.check(stats.converged && r <= TOL, || {
        format!(
            "cg: converged {} after {} iterations, true residual {r:e}",
            stats.converged, stats.iterations
        )
    });
}

/// One timed solve; returns busy seconds (checks excluded), the solution
/// and the model totals.
fn solve(
    rec: &Recorder,
    checks: &mut Checks,
    p: &Problem,
    samples: &mut SpmvSamples,
) -> (f64, Vec<f64>, SolveModel) {
    let nnz = p.a.nnz();
    let terms = p.a.row_lengths();
    let mut model = SolveModel::default();
    let mut check_s = 0.0;
    let mut spmv_time_s = 0.0;
    let ((x, stats), secs) = rec.time("solvers/cg", nnz, || {
        cg(
            |v| {
                let tracer = rec.tracer();
                let ((y, report), t) =
                    rec.time("gpu-cluster/spmv", nnz, || p.cluster.spmv_traced(v, &tracer));
                samples.add(nnz, t);
                let ((), t) = rec.time("harness/check", 0, || {
                    let want =
                        Reference { y: p.csr.spmv(v).expect("v conforms"), terms: terms.clone() };
                    checks.spmv("cluster spmv", &y, &want);
                });
                check_s += t;
                model.spmv_calls += 1;
                spmv_time_s += report.time_s;
                model.exchange_bytes += report.exchange_bytes;
                model.overlap_sum += report.overlap_efficiency;
                for d in &report.devices {
                    model.stats.merge(&d.snapshot.stats);
                    model.launches += d.snapshot.launches;
                }
                y
            },
            &p.b,
            &options(),
        )
    });
    model.iterations = stats.iterations;
    model.spmv_time_bits = spmv_time_s.to_bits();
    check_solution(checks, p, &x, &stats);
    samples.end_pass();
    (secs - check_s, x, model)
}

/// BRO index space savings over every partition phase, as the cluster
/// encodes them.
fn savings(p: &Problem) -> SpaceSavings {
    let zero = SpaceSavings { original_bytes: 0, compressed_bytes: 0 };
    p.cluster.partitions().fold(zero, |acc, part| {
        [&part.local, &part.remote]
            .into_iter()
            .filter(|m| m.nnz() > 0)
            .map(|m| BroHyb::<f64>::from_coo(m, &BroHybConfig::default()).space_savings())
            .fold(acc, |a, s| a.combine(&s))
    })
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let rec = Recorder::new(cfg.trace);
    let checks = &mut out.checks;

    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>, build_s: &mut Vec<f64>| {
        let start = Instant::now();
        let (p, build) = setup(cfg, &rec);
        setup_s.push(secs(start));
        build_s.push(build);
        p
    };
    let mut p = timed_setup(&mut setup_s, &mut build_s);

    // Warm-up: the library's own distributed solve, then one untimed solve
    // whose model totals every later solve must repeat.
    rec.set_tracing(false);
    let (x_lib, stats_lib, lib) = cluster_cg(&p.cluster, &p.b, &options());
    check_solution(checks, &p, &x_lib, &stats_lib);
    let start = Instant::now();
    let (_, x_first, first) = solve(&rec, checks, &p, &mut SpmvSamples::default());
    checks.check(x_first == x_lib && first.iterations == stats_lib.iterations, || {
        "timed solve differs from cluster_cg".to_string()
    });
    let every = setup_every(cfg.seconds, secs(start), SETUP_REPEATS / SETUP_BATCH);
    let min_passes = if cfg.size == Size::Tiny { 3 } else { 1 };

    let mut samples = SpmvSamples::default();
    let phase = timed_phase(cfg, &rec, min_passes, every, |setup_due| {
        let mut result = None;
        rec.pass(|| result = Some(solve(&rec, checks, &p, &mut samples)));
        let (busy, x, model) = result.expect("the solve ran");
        checks.check(x == x_first && model == first, || "solve changed between runs".to_string());
        if setup_due && setup_s.len() < SETUP_REPEATS {
            for _ in 0..SETUP_BATCH {
                p = timed_setup(&mut setup_s, &mut build_s);
            }
        }
        busy
    });

    if !cfg.trace {
        let flops = 2.0 * p.a.nnz() as f64 * lib.spmv_count as f64;
        EndToEnd {
            setup_s: median(&setup_s),
            pass_s: phase.untraced,
            // Each solve spawns threads for every device and launch, more
            // than the host has cores, so a busy neighbour slows whole
            // stretches of solves by up to 3x; a run reports its fastest
            // solve (and SpMV window, one solve each).
            summary: Summary::Fastest,
            spmv: samples,
            model_gflops_geomean: flops / lib.spmv_time_s / 1e9,
            index_savings_mean: savings(&p).eta(),
        }
        .emit(&mut out);
        return out;
    }

    let mut layer = PerLayer::default();
    finish_trace(&rec, cfg, checks, &mut layer, &phase);
    layer.set("harness.spmv_samples", samples.ns_per_nnz.len() as f64);
    let nnz = p.a.nnz() as f64;
    layer.set("matrix.ell_fill_ratio", ell_fill_ratio([&p.a]));
    layer.set("core.index_bits_per_nnz", savings(&p).compressed_bytes as f64 * 8.0 / nnz);

    let calls = first.spmv_calls as f64;
    layer.set("gpu-sim.launches", first.launches as f64);
    layer.set("gpu-sim.warps", first.stats.warps_launched as f64);
    layer.set("gpu-sim.read_txns", first.stats.global_read_txns as f64);
    layer.set("gpu-sim.int_ops_per_nnz", first.stats.int_ops as f64 / (calls * nnz));
    layer.set("gpu-sim.tex_hit_rate", first.stats.tex_hit_rate());
    layer.set("model.dram_bytes_per_nnz.bro-hyb", first.stats.dram_bytes() as f64 / (calls * nnz));
    layer.set("gpu-cluster.build_s", median(&build_s));
    let spmv = rec.acc("gpu-cluster/spmv");
    layer.set("gpu-cluster.spmv_us", spmv.secs * 1e6 / spmv.calls.max(1) as f64);
    layer.set("gpu-cluster.exchange_bytes_per_spmv", first.exchange_bytes as f64 / calls);
    layer.set("gpu-cluster.overlap_efficiency", first.overlap_sum / calls);
    let cg_acc = rec.acc("solvers/cg");
    let solver_self = cg_acc.secs - spmv.secs - rec.acc("harness/check").secs;
    layer.set("solvers.iterations", first.iterations as f64);
    layer.set("solvers.self_ms", solver_self * 1e3 / cg_acc.calls.max(1) as f64);
    layer.emit(&mut out);
    out
}
