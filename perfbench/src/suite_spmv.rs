//! `suite-spmv`: simulated SpMV with prebuilt kernels over a stratified
//! subset of the 30-matrix suite on a Tesla K20.
//!
//! Every paper figure and every solver iteration pays this cost. Kernels are
//! built with `PreparedSpmv` in set-up; the timed phase is only
//! `PreparedSpmv::run`, so the host work falls on `gpu-sim` and `kernels`,
//! including the BRO kernels' on-the-fly bitstream decode. Following the
//! paper's pairing, ELL-family formats run on Test Set 1 and HYB/COO-family
//! formats on Test Set 2 (ELL on `webbase-1M` alone would swamp a pass).

use std::time::Instant;

use bro_core::{
    BroCoo, BroCooConfig, BroEll, BroEllConfig, BroEllR, BroHyb, BroHybConfig, SpaceSavings,
};
use bro_gpu_sim::{DeviceProfile, DeviceSim, KernelReport};
use bro_kernels::registry::{self, PreparedSpmv};
use bro_matrix::{suite, CooMatrix, CsrMatrix};

use crate::checks::{Checks, Reference};
use crate::layers::{finish_trace, setup_every, timed_phase, Recorder};
use crate::metrics::{ell_fill_ratio, EndToEnd, PerLayer, FORMATS};
use crate::stats::{geomean, mean, median, SpmvSamples, Summary};
use crate::{mix, pin_workers, secs, Config, Outcome, Size};

/// Test Set 1 (BRO-ELL representable): regular FEM, 2-D lattice, 4-D QCD.
const TEST_SET_1: [&str; 3] = ["cant", "mc2depi", "qcd5_4"];
/// Test Set 2 (needs HYB): circuit, heavy-tailed web graph, mostly regular
/// with a few very heavy rows.
const TEST_SET_2: [&str; 3] = ["scircuit", "webbase-1M", "gupta2"];
const ELL_FAMILY: [&str; 4] = ["ell", "ellr", "bro-ell", "bro-ellr"];
const COO_FAMILY: [&str; 4] = ["coo", "hyb", "bro-coo", "bro-hyb"];

/// Set-ups per run, spread over the timed phase; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Passes timed at each worker count for `gpu-sim.speedup_2t`.
const SPEEDUP_PASSES: usize = 3;

fn scale(size: Size) -> f64 {
    match size {
        Size::Full => 0.1,
        Size::Tiny => 0.01,
    }
}

/// One suite matrix with its input vector and expected output.
struct Case {
    name: &'static str,
    ell_family: bool,
    a: CooMatrix<f64>,
    x: Vec<f64>,
    reference: Reference,
}

/// One (matrix, format) kernel, ready to run.
struct Pair {
    case: usize,
    format: &'static str,
    kernel: PreparedSpmv,
}

/// The model-clock result of one pair, fixed for a seed.
struct Model {
    report: KernelReport,
    launches: usize,
}

fn device(rec: &Recorder) -> DeviceSim {
    DeviceSim::builder(DeviceProfile::tesla_k20()).tracer(rec.tracer()).build()
}

/// Generates the matrices and builds every kernel.
fn setup(cfg: &Config, rec: &Recorder) -> (Vec<Case>, Vec<Pair>) {
    let mut cases = Vec::new();
    let mut pairs = Vec::new();
    let sets = [(TEST_SET_1, true), (TEST_SET_2, false)];
    for (names, ell_family) in sets {
        for name in names {
            let entry = suite::by_name(name).expect("suite matrix names are fixed");
            let mut spec = entry.spec(scale(cfg.size));
            spec.seed = mix(cfg.seed, spec.seed);
            let (a, _) = rec.time_by("matrix/generate", || spec.generate::<f64>(), CooMatrix::nnz);
            let nnz = a.nnz();
            let (csr, _) = rec.time("matrix/convert", nnz, || CsrMatrix::from_coo(&a));
            let x = bro_verify::input_vector(a.cols(), mix(cfg.seed, cases.len() as u64 + 1));
            let reference = Reference::new(&a, &csr, &x);
            let formats = if ell_family { ELL_FAMILY } else { COO_FAMILY };
            for format in formats {
                let k = registry::by_name(format).expect("registry formats are fixed");
                let (kernel, _) =
                    rec.time(&format!("kernels/build/{format}"), nnz, || k.build_from_coo(&a));
                pairs.push(Pair { case: cases.len(), format, kernel });
            }
            cases.push(Case { name, ell_family, a, x, reference });
        }
    }
    (cases, pairs)
}

/// Runs one pair on a fresh device (so the model sees the same addresses
/// every call), checks it, and returns host seconds and the model result.
fn run_pair(rec: &Recorder, checks: &mut Checks, case: &Case, pair: &Pair) -> (f64, Model) {
    let nnz = case.a.nnz();
    let mut sim = device(rec);
    let (y, secs) = rec
        .time(&format!("kernels/run/{}", pair.format), nnz, || pair.kernel.run(&mut sim, &case.x));
    let (report, _) =
        rec.time("model/report", nnz, || KernelReport::from_device(&sim, 2 * nnz as u64, 8));
    checks.spmv(&format!("{} {}", case.name, pair.format), &y, &case.reference);
    (secs, Model { report, launches: sim.launches() })
}

/// One round-robin pass over every pair; returns its busy seconds.
fn pass(
    rec: &Recorder,
    checks: &mut Checks,
    cases: &[Case],
    pairs: &[Pair],
    models: &[Model],
    samples: &mut SpmvSamples,
) -> f64 {
    let mut busy = 0.0;
    for (pair, want) in pairs.iter().zip(models) {
        let case = &cases[pair.case];
        let (secs, model) = run_pair(rec, checks, case, pair);
        checks.check(model.report.time_s.to_bits() == want.report.time_s.to_bits(), || {
            format!("{} {}: model time changed between calls", case.name, pair.format)
        });
        samples.add(case.a.nnz(), secs);
        busy += secs;
    }
    samples.end_pass();
    busy
}

/// BRO index space savings of every BRO pair, as its kernel encodes it.
fn savings(cases: &[Case], pairs: &[Pair]) -> Vec<SpaceSavings> {
    pairs
        .iter()
        .filter_map(|p| {
            let a = &cases[p.case].a;
            match p.format {
                "bro-ell" => {
                    Some(BroEll::<f64>::from_coo(a, &BroEllConfig::default()).space_savings())
                }
                "bro-ellr" => {
                    Some(BroEllR::<f64>::from_coo(a, &BroEllConfig::default()).space_savings())
                }
                "bro-coo" => {
                    Some(BroCoo::<f64>::compress(a, &BroCooConfig::default()).space_savings())
                }
                "bro-hyb" => {
                    Some(BroHyb::<f64>::from_coo(a, &BroHybConfig::default()).space_savings())
                }
                _ => None,
            }
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let rec = Recorder::new(cfg.trace);
    let checks = &mut out.checks;

    let mut setup_s = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let built = setup(cfg, &rec);
        setup_s.push(secs(start));
        built
    };
    let (mut cases, mut pairs) = timed_setup(&mut setup_s);

    // Untimed warm-up pass: fixes the model results every later call must repeat.
    rec.set_tracing(false);
    let start = Instant::now();
    let models: Vec<Model> =
        pairs.iter().map(|p| run_pair(&rec, checks, &cases[p.case], p).1).collect();
    let every = setup_every(cfg.seconds, secs(start), SETUP_REPEATS);
    let min_passes = if cfg.size == Size::Tiny { 5 } else { 1 };

    let mut samples = SpmvSamples::default();
    let phase = timed_phase(cfg, &rec, min_passes, every, |setup_due| {
        let mut busy = 0.0;
        rec.pass(|| busy = pass(&rec, checks, &cases, &pairs, &models, &mut samples));
        if setup_due && setup_s.len() < SETUP_REPEATS {
            (cases, pairs) = (Vec::new(), Vec::new());
            (cases, pairs) = timed_setup(&mut setup_s);
        }
        busy
    });

    if !cfg.trace {
        let eta = savings(&cases, &pairs);
        EndToEnd {
            setup_s: median(&setup_s),
            pass_s: phase.untraced,
            summary: Summary::Median,
            spmv: samples,
            model_gflops_geomean: geomean(
                &models.iter().map(|m| m.report.gflops).collect::<Vec<_>>(),
            ),
            index_savings_mean: mean(&eta.iter().map(SpaceSavings::eta).collect::<Vec<_>>()),
        }
        .emit(&mut out);
        return out;
    }

    // The same kernel pass at one worker, for the parallel speed-up.
    let mut at_workers = |n: usize| {
        pin_workers(n);
        let walls: Vec<f64> = (0..SPEEDUP_PASSES)
            .map(|_| pass(&rec, checks, &cases, &pairs, &models, &mut SpmvSamples::default()))
            .collect();
        median(&walls)
    };
    let one_worker = at_workers(1);
    let all_workers = at_workers(cfg.workers);

    let mut layer = PerLayer::default();
    finish_trace(&rec, cfg, checks, &mut layer, &phase);
    layer.set("harness.spmv_samples", samples.ns_per_nnz.len() as f64);
    layer.set("gpu-sim.speedup_2t", one_worker / all_workers);
    layer.set(
        "matrix.ell_fill_ratio",
        ell_fill_ratio(cases.iter().filter(|c| c.ell_family).map(|c| &c.a)),
    );
    let eta = savings(&cases, &pairs);
    let bro_nnz: usize =
        pairs.iter().filter(|p| p.format.starts_with("bro-")).map(|p| cases[p.case].a.nnz()).sum();
    let bits: usize = eta.iter().map(|s| s.compressed_bytes * 8).sum();
    layer.set("core.index_bits_per_nnz", bits as f64 / bro_nnz.max(1) as f64);

    let mut totals = bro_gpu_sim::LaunchStats::default();
    let mut launches_n = 0usize;
    for model in &models {
        totals.merge(&model.report.stats);
        launches_n += model.launches;
    }
    for f in FORMATS {
        let (bytes, n) = pairs
            .iter()
            .zip(&models)
            .filter(|(p, _)| p.format == f)
            .fold((0u64, 0usize), |(b, n), (p, m)| {
                (b + m.report.dram_bytes, n + cases[p.case].a.nnz())
            });
        if n > 0 {
            layer.set(format!("model.dram_bytes_per_nnz.{f}"), bytes as f64 / n as f64);
        }
    }
    let pair_nnz: usize = pairs.iter().map(|p| cases[p.case].a.nnz()).sum();
    layer.set("gpu-sim.launches", launches_n as f64);
    layer.set("gpu-sim.warps", totals.warps_launched as f64);
    layer.set("gpu-sim.read_txns", totals.global_read_txns as f64);
    layer.set("gpu-sim.int_ops_per_nnz", totals.int_ops as f64 / pair_nnz as f64);
    layer.set("gpu-sim.tex_hit_rate", totals.tex_hit_rate());
    layer.set(
        "model.bw_utilization",
        mean(&models.iter().map(|m| m.report.bw_utilization).collect::<Vec<_>>()),
    );
    layer.set(
        "model.occupancy",
        mean(&models.iter().map(|m| m.report.occupancy).collect::<Vec<_>>()),
    );
    layer.emit(&mut out);
    out
}
