//! Per-layer attribution for traced runs.
//!
//! The benchmark wraps each call into a workspace crate in a span named
//! `<layer>/<operation>[/<format>]` on the program's own
//! [`Tracer`](bro_gpu_sim::Tracer) (lane 0). Simulated devices built from the
//! recorder's tracer add the program's own spans below them: `spmv/<format>`
//! from `PreparedSpmv::run` and one leaf span per kernel launch. A layer's
//! self time is its spans' durations minus their children's; launch leaves
//! count as `gpu-sim`, other program spans as the layer of the benchmark span
//! they sit in.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use bro_gpu_sim::{chrome_trace_json, SpanRecord, Tracer};

use crate::checks::Checks;
use crate::metrics::{PerLayer, FORMATS};
use crate::stats::median;
use crate::{secs, Config};

/// The layers, named by the prefixes their metrics use: `core` is the codec
/// (`bro-bitstream` + `bro-core`), `model` the roofline timing model.
pub const LAYERS: [&str; 8] =
    ["matrix", "core", "reorder", "kernels", "gpu-sim", "model", "gpu-cluster", "solvers"];

/// Prefix of the benchmark's own spans (pass roots, checks); their self
/// time belongs to no layer.
const HARNESS: &str = "harness";
/// Name of the root span around one timed pass.
const PASS: &str = "harness/pass";

/// Busy time and work of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Acc {
    /// Summed host seconds.
    pub secs: f64,
    /// Summed non-zeros processed.
    pub nnz: f64,
    /// Calls made.
    pub calls: u64,
}

impl Acc {
    /// Host nanoseconds per non-zero; 0 when nothing ran.
    pub fn ns_per_nnz(&self) -> f64 {
        if self.nnz > 0.0 {
            self.secs * 1e9 / self.nnz
        } else {
            0.0
        }
    }
}

/// Times calls into layers and, while tracing, records them as spans.
pub struct Recorder {
    tracer: Tracer,
    tracing: Cell<bool>,
    acc: RefCell<BTreeMap<String, Acc>>,
}

impl Recorder {
    /// A recorder that can trace (`trace`) or only times calls.
    pub fn new(trace: bool) -> Recorder {
        Recorder {
            tracer: if trace { Tracer::enabled() } else { Tracer::disabled() },
            tracing: Cell::new(trace),
            acc: RefCell::new(BTreeMap::new()),
        }
    }

    /// Turns span recording off or back on (a no-op for an untraced
    /// recorder); a traced run uses this to time untraced passes too.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.set(on && self.tracer.is_enabled());
    }

    /// Whether calls are being recorded as spans.
    pub fn is_tracing(&self) -> bool {
        self.tracing.get()
    }

    /// The tracer to hand to simulated devices: disabled while not tracing.
    pub fn tracer(&self) -> Tracer {
        if self.is_tracing() {
            self.tracer.clone()
        } else {
            Tracer::disabled()
        }
    }

    /// Runs `f` as the call `name` over `nnz` non-zeros; returns its result
    /// and host seconds.
    pub fn time<R>(&self, name: &str, nnz: usize, f: impl FnOnce() -> R) -> (R, f64) {
        self.time_by(name, f, |_| nnz)
    }

    /// [`time`](Self::time) for a call whose work is known from its result.
    pub fn time_by<R>(
        &self,
        name: &str,
        f: impl FnOnce() -> R,
        nnz: impl FnOnce(&R) -> usize,
    ) -> (R, f64) {
        let tracing = self.is_tracing();
        let span = tracing.then(|| self.tracer.begin(0, name));
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if let Some(span) = span {
            self.tracer.end(span);
            let mut acc = self.acc.borrow_mut();
            let a = acc.entry(name.to_string()).or_default();
            a.secs += secs;
            a.nnz += nnz(&out) as f64;
            a.calls += 1;
        }
        (out, secs)
    }

    /// Runs one timed pass under a root span; returns its host seconds.
    pub fn pass(&self, f: impl FnOnce()) -> f64 {
        let span = self.is_tracing().then(|| self.tracer.begin(0, PASS));
        let start = Instant::now();
        f();
        let secs = start.elapsed().as_secs_f64();
        if let Some(span) = span {
            self.tracer.end(span);
        }
        secs
    }

    /// Traced totals of every call named exactly `name`.
    pub fn acc(&self, name: &str) -> Acc {
        self.acc.borrow().get(name).copied().unwrap_or_default()
    }

    /// Traced totals of every call whose name starts with `prefix`.
    pub fn acc_prefix(&self, prefix: &str) -> Acc {
        let acc = self.acc.borrow();
        acc.iter().filter(|(k, _)| k.starts_with(prefix)).fold(Acc::default(), |mut t, (_, a)| {
            t.secs += a.secs;
            t.nnz += a.nnz;
            t.calls += a.calls;
            t
        })
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.tracer.spans()
    }
}

/// Self time per layer over the traced passes.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// Self seconds of each layer in [`LAYERS`].
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed duration of the pass root spans.
    pub total_s: f64,
}

impl LayerTimes {
    /// Share of the traced passes that some layer's self time accounts for.
    pub fn coverage(&self) -> f64 {
        if self.total_s > 0.0 {
            self.self_s.values().sum::<f64>() / self.total_s
        } else {
            0.0
        }
    }

    /// A layer's share of the traced passes.
    pub fn share(&self, layer: &str) -> f64 {
        if self.total_s > 0.0 {
            self.self_s.get(layer).copied().unwrap_or(0.0) / self.total_s
        } else {
            0.0
        }
    }
}

/// Derives per-layer self time from the driver-lane spans under
/// `harness/pass` roots. Work on other lanes (cluster devices run on their
/// own threads) is inside the driver-lane span that waited for it.
pub fn layer_self_times(spans: &[SpanRecord]) -> LayerTimes {
    let driver: Vec<&SpanRecord> = spans.iter().filter(|s| s.lane == 0 && !s.model_time).collect();
    let by_id: HashMap<u64, &SpanRecord> = driver.iter().map(|s| (s.id, *s)).collect();
    let mut child_s: HashMap<u64, f64> = HashMap::new();
    for s in &driver {
        if let Some(p) = s.parent {
            *child_s.entry(p).or_default() += s.dur_us * 1e-6;
        }
    }
    let own_layer = |s: &SpanRecord| -> Option<&'static str> {
        let head = s.name.split('/').next().unwrap_or("");
        if head == HARNESS {
            return Some(HARNESS);
        }
        if let Some(&layer) = LAYERS.iter().find(|&&l| l == head) {
            return Some(layer);
        }
        let leaf_launch =
            !child_s.contains_key(&s.id) && s.delta.as_ref().is_some_and(|d| d.launches == 1);
        leaf_launch.then_some("gpu-sim")
    };

    let mut times = LayerTimes::default();
    for layer in LAYERS {
        times.self_s.insert(layer, 0.0);
    }
    for s in &driver {
        if s.name == PASS && s.parent.is_none() {
            times.total_s += s.dur_us * 1e-6;
            continue;
        }
        // Walk up to the root, taking the first layer found on the way.
        let mut layer = None;
        let mut cur = Some(*s);
        let mut root = *s;
        while let Some(c) = cur {
            layer = layer.or_else(|| own_layer(c));
            root = c;
            cur = c.parent.and_then(|p| by_id.get(&p).copied());
        }
        if root.name != PASS {
            continue;
        }
        if let Some(layer) = layer.filter(|&l| l != HARNESS) {
            let own = s.dur_us * 1e-6 - child_s.get(&s.id).copied().unwrap_or(0.0);
            *times.self_s.get_mut(layer).expect("every layer is pre-seeded") += own.max(0.0);
        }
    }
    times
}

/// Host time and work of every simulated kernel launch.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LaunchTotals {
    /// Summed host seconds inside launches.
    pub secs: f64,
    /// Launches.
    pub launches: u64,
    /// Warps executed.
    pub warps: u64,
}

/// Sums the program's launch spans (leaves carrying a one-launch counter
/// delta) on every lane.
pub fn launch_totals(spans: &[SpanRecord]) -> LaunchTotals {
    let parents: std::collections::HashSet<u64> = spans.iter().filter_map(|s| s.parent).collect();
    let mut t = LaunchTotals::default();
    for s in spans.iter().filter(|s| !s.model_time && !parents.contains(&s.id)) {
        if let Some(d) = s.delta.as_ref().filter(|d| d.launches == 1) {
            t.secs += s.dur_us * 1e-6;
            t.launches += 1;
            t.warps += d.stats.warps_launched;
        }
    }
    t
}

/// Host spans a written trace holds at most. `validate_chrome_trace` takes
/// time quadratic in the document size (each string character re-validates
/// the UTF-8 of the rest of the text), so the file is kept to a size it
/// checks in well under a second.
pub const EXPORT_SPANS: usize = 1500;

/// Exports the first [`EXPORT_SPANS`] host spans by start time (a prefix in
/// time, so every exported span's parent is exported too) and the model-time
/// spans recorded alongside them as a Chrome trace, validates it, and writes
/// it to `<dir>/<workload>.json` when a directory is given. Returns the
/// number of complete events.
pub fn export_trace(
    spans: &[SpanRecord],
    dir: Option<&Path>,
    workload: &str,
) -> Result<usize, String> {
    let mut host: Vec<usize> = (0..spans.len()).filter(|&i| !spans[i].model_time).collect();
    host.sort_by(|&a, &b| spans[a].start_us.total_cmp(&spans[b].start_us));
    host.truncate(EXPORT_SPANS);
    let last = host.iter().copied().max().unwrap_or(0);
    let mut keep = vec![false; spans.len()];
    for i in host {
        keep[i] = true;
    }
    let window: Vec<SpanRecord> = spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| keep[i] || (s.model_time && i <= last))
        .map(|(_, s)| s.clone())
        .collect();
    let json = chrome_trace_json(&window);
    let events = bro_verify::validate_chrome_trace(&json)?;
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{workload}.json"));
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(events)
}

/// Pass times of a run's timed phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Busy seconds of each untraced pass.
    pub untraced: Vec<f64>,
    /// Busy seconds of each traced pass.
    pub traced: Vec<f64>,
}

impl Phase {
    /// Traced ÷ untraced median pass time.
    pub fn trace_overhead(&self) -> f64 {
        median(&self.traced) / median(&self.untraced)
    }
}

/// Drives a timed phase of `cfg.seconds` (and at least `min_passes` passes).
/// `step(setup)` runs one pass and returns its busy seconds; when `setup`
/// is true it also repeats the workload's set-up afterwards, which happens
/// every `setup_every` passes so set-up samples spread over the run like the
/// passes do. A traced run spends half the time untraced and half traced,
/// without set-ups.
pub fn timed_phase(
    cfg: &Config,
    rec: &Recorder,
    min_passes: usize,
    setup_every: usize,
    mut step: impl FnMut(bool) -> f64,
) -> Phase {
    let mut phase = Phase::default();
    if !cfg.trace {
        let mut i = 0;
        repeat_for(cfg.seconds, min_passes, || {
            i += 1;
            phase.untraced.push(step(i % setup_every.max(1) == 0));
        });
        return phase;
    }
    for (on, walls) in [(false, &mut phase.untraced), (true, &mut phase.traced)] {
        rec.set_tracing(on);
        repeat_for(cfg.seconds / 2.0, min_passes, || walls.push(step(false)));
    }
    rec.set_tracing(false);
    phase
}

/// Calls `pass` until at least `seconds` have passed and at least
/// `min_passes` passes ran.
fn repeat_for(seconds: f64, min_passes: usize, mut pass: impl FnMut()) {
    let start = Instant::now();
    let mut passes = 0;
    while passes < min_passes || secs(start) < seconds {
        pass();
        passes += 1;
    }
}

/// Every how many passes a set-up repeats so that `repeats` of them spread
/// over `seconds` of passes taking about `pass_s` each.
pub fn setup_every(seconds: f64, pass_s: f64, repeats: usize) -> usize {
    (seconds / pass_s.max(1e-9) / repeats.max(1) as f64).floor().max(1.0) as usize
}

/// Sets the per-layer metrics every traced run derives from its spans
/// (layer self times, launch costs, tracing overhead) and writes the
/// validated Chrome trace.
pub fn finish_trace(
    rec: &Recorder,
    cfg: &Config,
    checks: &mut Checks,
    layer: &mut PerLayer,
    phase: &Phase,
) {
    let spans = rec.spans();
    layer.set_layer_times(&layer_self_times(&spans));
    let launches = launch_totals(&spans);
    if launches.launches > 0 {
        layer.set("gpu-sim.host_ns_per_warp", launches.secs * 1e9 / launches.warps.max(1) as f64);
        layer.set("gpu-sim.host_us_per_launch", launches.secs * 1e6 / launches.launches as f64);
    }
    layer.set("trace_overhead", phase.trace_overhead());
    // Host cost per non-zero of every layer call the workload made; 0 where
    // it made none.
    let rate = |name: &str| rec.acc(name).ns_per_nnz();
    layer.set("matrix.generate_ns_per_nnz", rate("matrix/generate"));
    layer.set("matrix.convert_ns_per_nnz", rate("matrix/convert"));
    for f in ["bro-ell", "bro-coo", "bro-hyb"] {
        layer.set(format!("core.encode_ns_per_nnz.{f}"), rate(&format!("core/encode/{f}")));
    }
    for stage in ["write", "read", "decompress"] {
        let acc = rec.acc_prefix(&format!("core/{stage}/"));
        layer.set(format!("core.{stage}_ns_per_nnz"), acc.ns_per_nnz());
    }
    for r in ["bar", "rcm", "amd"] {
        layer.set(format!("reorder.{r}_ns_per_nnz"), rate(&format!("reorder/{r}")));
    }
    for f in FORMATS {
        layer.set(format!("kernels.build_ns_per_nnz.{f}"), rate(&format!("kernels/build/{f}")));
        layer.set(format!("kernels.run_ns_per_nnz.{f}"), rate(&format!("kernels/run/{f}")));
    }
    let exported = export_trace(&spans, cfg.trace_dir.as_deref(), cfg.workload.name());
    checks.check(exported.is_ok(), || format!("chrome trace: {}", exported.as_ref().unwrap_err()));
}
