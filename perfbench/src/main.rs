//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite-spmv|prepare|cluster-cg|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit on standard error, and as the
//! last line of standard output one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 if any check failed and 2 on
//! a malformed command line. A traced run writes its Chrome trace to
//! `.bench_build/traces/<workload>.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use bro_perfbench::{run, Config, Outcome, Size, Workload, WORKERS};

const USAGE: &str = "usage: bro-perfbench --workload <suite-spmv|prepare|cluster-cg|all> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Vec<Workload>, Config), String> {
    let mut workloads = None;
    let mut cfg = Config {
        workload: Workload::SuiteSpmv,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        workers: WORKERS,
        trace_dir: Some(PathBuf::from(".bench_build/traces")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => workloads = Some(vec![Workload::parse(value).ok_or_else(bad)?]),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workloads.ok_or("--workload is required")?, cfg))
}

/// Fixes glibc's allocator thresholds for the whole run. By default glibc
/// raises its mmap threshold as large buffers are freed and trims the heap
/// back to the OS, so whether a multi-megabyte buffer costs fresh page faults
/// depends on what the run freed before; that made host times wander by
/// tens of percent between identical runs. The threshold is pinned at 1 MiB,
/// so every buffer of a megabyte or more is mapped and returned on its own.
/// Above that, buffers of the short-lived worker threads stayed in the
/// threads' malloc arenas, and how many arenas a run created depended on
/// thread start-up races: `peak_rss_mb` on `prepare` moved in 5 MiB steps
/// (ten-run spreads of 0.16-0.25 with 32 MiB, 0.03-0.10 with 1 MiB).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn steady_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's thread-safe allocator tuning call. It
    // takes two integers, touches no memory of ours, and returns 0 on an
    // out-of-range value, which leaves the default in place.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 1 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn steady_allocator() {}

fn main() -> ExitCode {
    steady_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, cfg) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!("workers: {} (pinned; available parallelism {available})", cfg.workers);

    let mut total = Outcome::default();
    for w in &workloads {
        let mut outcome = run(&Config { workload: *w, ..cfg.clone() });
        eprintln!(
            "== {} (seed {}, {} s, trace {})",
            w.name(),
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        );
        for m in &outcome.metrics {
            eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let line = outcome.to_json();
        for f in &outcome.checks.failures {
            eprintln!("FAILED: {f}");
        }
        if workloads.len() == 1 {
            total = outcome;
            println!("{line}");
        } else {
            total.checks.merge(&outcome.checks);
            for m in outcome.metrics {
                total.push(format!("{}.{}", w.name(), m.name), m.value, m.unit);
            }
        }
    }
    if workloads.len() > 1 {
        println!("{}", total.to_json());
    }
    eprintln!("checks: {} attempted, {} failed", total.checks.attempted, total.checks.failed);
    if total.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
