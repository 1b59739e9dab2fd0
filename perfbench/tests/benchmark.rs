//! The benchmark's own tests: a tiny run of every workload, metric naming,
//! exact repeatability of the model-clock metrics, and failure counting.

use bro_perfbench::checks::{Checks, Reference};
use bro_perfbench::metrics::{per_layer, END_TO_END};
use bro_perfbench::{run, Config, Outcome, Size, Workload};
use bro_verify::Json;

/// Metrics fixed by the seed: model-clock figures and counts.
const DETERMINISTIC: [&str; 14] = [
    "model_gflops_geomean",
    "index_savings_mean",
    "matrix.ell_fill_ratio",
    "core.index_bits_per_nnz",
    "reorder.bar_cost",
    "gpu-sim.launches",
    "gpu-sim.warps",
    "gpu-sim.read_txns",
    "gpu-sim.int_ops_per_nnz",
    "gpu-sim.tex_hit_rate",
    "model.bw_utilization",
    "model.occupancy",
    "gpu-cluster.exchange_bytes_per_spmv",
    "solvers.iterations",
];

fn tiny(workload: Workload, trace: bool, seed: u64, workers: usize) -> Outcome {
    let cfg =
        Config { workload, seed, seconds: 0.05, trace, size: Size::Tiny, workers, trace_dir: None };
    let out = run(&cfg);
    assert_eq!(out.checks.failed, 0, "{}: {:?}", workload.name(), out.checks.failures);
    assert!(out.checks.attempted > 0);
    out
}

fn deterministic(out: &Outcome) -> Vec<(String, u64)> {
    out.metrics
        .iter()
        .filter(|m| DETERMINISTIC.contains(&m.name.as_str()))
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

#[test]
fn every_workload_reports_every_metric() {
    for w in Workload::ALL {
        let mut e2e = tiny(w, false, 3, 2);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", w.name());
        for m in &e2e.metrics {
            assert!(m.value > 0.0 && m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
        }
        let line = e2e.to_json();
        let doc = Json::parse(&line).expect("the result line is JSON");
        assert!(doc.get("correct").is_some() && doc.get("metrics").is_some());

        let traced = tiny(w, true, 3, 2);
        let names: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
        let want: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, want, "{}", w.name());
        let coverage = traced.get("harness.layer_coverage").unwrap();
        assert!(coverage > 0.5 && coverage <= 1.0 + 1e-9, "{} coverage {coverage}", w.name());
    }
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let ok = |s: &str| {
        !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut all: Vec<(String, &str)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    all.extend(per_layer());
    for (name, unit) in &all {
        assert!(ok(name) && name.len() <= 64, "bad metric name {name:?}");
        assert!(
            unit.len() <= 16
                && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?}"
        );
    }
    let mut names: Vec<&String> = all.iter().map(|(n, _)| n).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names are unique");
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
        .expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("a metric list")
            .iter()
            .map(|m| {
                let s =
                    |k: &str| m.get(k).and_then(Json::as_str).expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(names("per_layer"), layers);
}

#[test]
fn model_metrics_repeat_exactly_across_runs_and_worker_counts() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let a = deterministic(&tiny(w, trace, 11, 2));
            let b = deterministic(&tiny(w, trace, 11, 2));
            let one = deterministic(&tiny(w, trace, 11, 1));
            assert!(!a.is_empty());
            assert_eq!(a, b, "{} trace {trace}: same seed", w.name());
            assert_eq!(a, one, "{} trace {trace}: 1 vs 2 workers", w.name());
        }
    }
}

#[test]
fn seed_changes_the_inputs() {
    let a = tiny(Workload::SuiteSpmv, false, 1, 2).get("model_gflops_geomean");
    let b = tiny(Workload::SuiteSpmv, false, 2, 2).get("model_gflops_geomean");
    assert_ne!(a, b);
}

#[test]
fn a_perturbed_spmv_output_counts_as_failed() {
    let a = bro_matrix::generate::laplacian_2d::<f64>(6);
    let csr = bro_matrix::CsrMatrix::from_coo(&a);
    let x = bro_verify::input_vector(a.cols(), 5);
    let reference = Reference::new(&a, &csr, &x);
    let mut checks = Checks::default();
    checks.spmv("exact", &reference.y, &reference);
    let mut y = reference.y.clone();
    y[7] *= 1.0 + 1e-6;
    checks.spmv("perturbed", &y, &reference);
    assert_eq!((checks.attempted, checks.failed), (2, 1));
    assert!(checks.failures[0].starts_with("perturbed"));
}
