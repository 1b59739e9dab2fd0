//! Small summary statistics over samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The geometric mean of positive samples; 0 for no samples.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        (samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len() as f64).exp()
    }
}

/// How a run sums up the figures of its passes (or percentile windows).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    /// The median over passes: a burst of contention that hits one pass
    /// moves one sample instead of the total.
    #[default]
    Median,
    /// The fastest pass, for workloads whose passes are long enough to be
    /// figures on their own and whose speed follows the host's load.
    Fastest,
}

impl Summary {
    /// Sums up per-pass times or per-call costs (lower is faster); 0 for
    /// no samples.
    pub fn times(self, samples: &[f64]) -> f64 {
        match self {
            Summary::Median => median(samples),
            Summary::Fastest => quantile(samples, 0.0),
        }
    }

    /// Sums up per-pass rates (higher is faster); 0 for no samples.
    pub fn rates(self, samples: &[f64]) -> f64 {
        match self {
            Summary::Median => median(samples),
            Summary::Fastest => quantile(samples, 1.0),
        }
    }
}

/// Samples lying strictly above the `q`-quantile: a percentile is reported
/// only with at least ten samples beyond it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Non-zeros processed over busy seconds, summed across calls.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Summed busy seconds.
    pub secs: f64,
    /// Summed non-zeros.
    pub nnz: f64,
}

impl Throughput {
    /// Adds one call.
    pub fn add(&mut self, nnz: usize, secs: f64) {
        self.nnz += nnz as f64;
        self.secs += secs;
    }

    /// Millions of non-zeros per busy second; 0 when nothing ran.
    pub fn mnnz_per_s(&self) -> f64 {
        if self.secs > 0.0 {
            self.nnz / self.secs / 1e6
        } else {
            0.0
        }
    }
}

/// Throughput of each pass, summed up over passes by a [`Summary`].
#[derive(Debug, Default, Clone)]
pub struct PassRates {
    /// Closed passes.
    pub done: Vec<Throughput>,
    /// The pass being measured.
    pub open: Throughput,
}

impl PassRates {
    /// Adds one call to the open pass.
    pub fn add(&mut self, nnz: usize, secs: f64) {
        self.open.add(nnz, secs);
    }

    /// Closes the open pass.
    pub fn end_pass(&mut self) {
        self.done.push(std::mem::take(&mut self.open));
    }

    /// Mnnz per busy second of each closed pass, summed up by `summary`.
    pub fn mnnz_per_s(&self, summary: Summary) -> f64 {
        summary.rates(&self.done.iter().map(Throughput::mnnz_per_s).collect::<Vec<_>>())
    }
}

/// Calls a percentile window holds at least: ten beyond its p90.
pub const WINDOW_CALLS: usize = 100;

/// Per-call SpMV timings.
#[derive(Debug, Default, Clone)]
pub struct SpmvSamples {
    /// Host nanoseconds per non-zero of each call.
    pub ns_per_nnz: Vec<f64>,
    /// Summed per pass.
    pub rate: PassRates,
    /// Index into `ns_per_nnz` where each closed pass ends.
    pass_ends: Vec<usize>,
}

impl SpmvSamples {
    /// Adds one call over `nnz` non-zeros that took `secs`.
    pub fn add(&mut self, nnz: usize, secs: f64) {
        self.ns_per_nnz.push(secs * 1e9 / nnz.max(1) as f64);
        self.rate.add(nnz, secs);
    }

    /// Closes the open pass.
    pub fn end_pass(&mut self) {
        self.rate.end_pass();
        self.pass_ends.push(self.ns_per_nnz.len());
    }

    /// The calls cut into windows of consecutive whole passes holding at
    /// least [`WINDOW_CALLS`] calls each; a short tail joins the last window.
    pub fn windows(&self) -> Vec<&[f64]> {
        let mut cuts = vec![0];
        for &end in &self.pass_ends {
            if end - cuts[cuts.len() - 1] >= WINDOW_CALLS {
                cuts.push(end);
            }
        }
        let last = cuts.len() - 1;
        if cuts.len() > 1 && self.ns_per_nnz.len() - cuts[last] < WINDOW_CALLS {
            cuts[last] = self.ns_per_nnz.len();
        } else {
            cuts.push(self.ns_per_nnz.len());
        }
        cuts.windows(2).filter(|w| w[1] > w[0]).map(|w| &self.ns_per_nnz[w[0]..w[1]]).collect()
    }

    /// The `q`-quantile of each window, summed up over windows by
    /// `summary`: a burst of contention in one stretch of the run moves one
    /// window, not the tail of the whole run.
    pub fn windowed_quantile(&self, q: f64, summary: Summary) -> f64 {
        summary.times(&self.windows().iter().map(|w| quantile(w, q)).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn means() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn windows_cover_whole_passes() {
        let mut s = SpmvSamples::default();
        for pass in 0..25 {
            for _ in 0..24 {
                s.add(1, f64::from(pass));
            }
            s.end_pass();
        }
        let w = s.windows();
        assert_eq!(w.iter().map(|w| w.len()).sum::<usize>(), 600);
        assert!(w.iter().all(|w| w.len() >= WINDOW_CALLS && w.len() % 24 == 0));
        assert_eq!(w.len(), 5);
    }

    #[test]
    fn summaries_pick_the_median_or_the_fastest() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(Summary::Median.times(&v), 2.0);
        assert_eq!(Summary::Fastest.times(&v), 1.0);
        assert_eq!(Summary::Fastest.rates(&v), 3.0);
        assert_eq!(Summary::Fastest.times(&[]), 0.0);
    }

    #[test]
    fn beyond_counts_the_tail() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(beyond(&v, 0.9), 10);
    }
}
