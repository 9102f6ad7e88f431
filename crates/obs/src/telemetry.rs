//! Sampler convergence telemetry.
//!
//! The samplers (sequential Gibbs, parallel-random Gibbs, Spatial
//! Gibbs) drive an [`EpochTelemetry`] builder once per epoch and
//! snapshot the finished [`ConvergenceSeries`] into their run result:
//!
//! * **flip rate** — fraction of samples in the epoch that changed a
//!   variable's value; a falling flip rate is the classic mixing signal;
//! * **marginal delta** — `max_v |p_t(v) − p_{t−1}(v)|` over running
//!   marginal estimates (mean of a per-variable indicator across the
//!   epochs so far); the paper's convergence criterion for Fig. 9-style
//!   trajectories;
//! * **pseudo-log-likelihood** — sampled at a fixed cadence
//!   ([`pll_stride`]) because each evaluation costs about one sweep;
//! * **per-conclique sample counts** — how much work each of the four
//!   concliques of the minimum cover received.
//!
//! Multi-instance runs average the per-epoch series over surviving
//! instances ([`ConvergenceSeries::merge_mean`]), mirroring how the
//! marginal counts themselves are merged.

use crate::Obs;

/// Concliques in the minimum cover of a square-tessellated lattice
/// (paper Theorem 2: `(col % 2) + 2 * (row % 2)` → 4 classes).
pub const NUM_CONCLIQUES: usize = 4;

/// Cadence for pseudo-log-likelihood sampling: at most ~64 evaluations
/// per run, so telemetry never doubles the sampler's cost.
pub fn pll_stride(epochs: usize) -> usize {
    (epochs / 64).max(1)
}

/// A finished per-run convergence trajectory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConvergenceSeries {
    /// Per-epoch fraction of samples that flipped a value.
    pub flip_rate: Vec<f64>,
    /// Per-epoch `max_v |p_t(v) − p_{t−1}(v)|` over running marginals.
    pub marginal_delta: Vec<f64>,
    /// `(epoch, pseudo-log-likelihood)` at [`pll_stride`] cadence.
    pub pll: Vec<(f64, f64)>,
    /// Samples drawn per conclique of the minimum cover (all zero for
    /// non-conclique samplers).
    pub conclique_samples: [u64; NUM_CONCLIQUES],
    pub samples_total: u64,
    pub flips_total: u64,
    /// Epochs that contributed to the series.
    pub epochs: usize,
}

impl ConvergenceSeries {
    pub fn is_empty(&self) -> bool {
        self.epochs == 0 && self.samples_total == 0
    }

    /// Element-wise mean of per-epoch series over several instance
    /// runs; counts are summed. Instances that stopped early simply
    /// stop contributing to later epochs.
    pub fn merge_mean(runs: &[ConvergenceSeries]) -> ConvergenceSeries {
        let mut out = ConvergenceSeries::default();
        if runs.is_empty() {
            return out;
        }
        out.flip_rate = mean_series(runs.iter().map(|r| &r.flip_rate));
        out.marginal_delta = mean_series(runs.iter().map(|r| &r.marginal_delta));
        out.pll = runs.iter().map(|r| &r.pll).max_by_key(|p| p.len()).cloned().unwrap_or_default();
        for r in runs {
            for (acc, n) in out.conclique_samples.iter_mut().zip(r.conclique_samples) {
                *acc += n;
            }
            out.samples_total += r.samples_total;
            out.flips_total += r.flips_total;
            out.epochs = out.epochs.max(r.epochs);
        }
        out
    }

    /// Record the trajectory into the registry under `prefix`
    /// (`{prefix}.flip_rate`, `{prefix}.marginal_delta`, `{prefix}.pll`
    /// series; `{prefix}.samples_total` / `{prefix}.flips_total`
    /// counters; `{prefix}.epochs` gauge).
    pub fn publish(&self, obs: &Obs, prefix: &str) {
        let Some(metrics) = obs.metrics() else { return };
        metrics.series_set(
            &format!("{prefix}.flip_rate"),
            self.flip_rate.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect(),
        );
        metrics.series_set(
            &format!("{prefix}.marginal_delta"),
            self.marginal_delta.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect(),
        );
        metrics.series_set(&format!("{prefix}.pll"), self.pll.clone());
        metrics.counter_add(&format!("{prefix}.samples_total"), self.samples_total);
        metrics.counter_add(&format!("{prefix}.flips_total"), self.flips_total);
        for (c, &n) in self.conclique_samples.iter().enumerate() {
            if n > 0 {
                metrics.counter_add(&format!("{prefix}.conclique{c}_samples_total"), n);
            }
        }
        metrics.gauge_set(&format!("{prefix}.epochs"), self.epochs as f64);
    }
}

fn mean_series<'a>(runs: impl Iterator<Item = &'a Vec<f64>> + Clone) -> Vec<f64> {
    let len = runs.clone().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            let mut sum = 0.0;
            let mut n = 0usize;
            for r in runs.clone() {
                if let Some(&v) = r.get(i) {
                    sum += v;
                    n += 1;
                }
            }
            sum / n.max(1) as f64
        })
        .collect()
}

/// Per-instance builder the samplers drive once per epoch.
///
/// Running marginals use a per-variable **indicator** (supplied by the
/// sampler as an iterator over the current assignment, e.g.
/// `value == 1` for binary variables) averaged over the epochs seen so
/// far; the marginal delta is the max change of that running mean.
#[derive(Clone, Debug)]
pub struct EpochTelemetry {
    ones: Vec<u64>,
    prev_p: Vec<f64>,
    epochs_seen: u64,
    series: ConvergenceSeries,
}

impl EpochTelemetry {
    pub fn new(num_vars: usize) -> Self {
        EpochTelemetry {
            ones: vec![0; num_vars],
            prev_p: vec![0.0; num_vars],
            epochs_seen: 0,
            series: ConvergenceSeries::default(),
        }
    }

    /// Close an epoch: record its flip rate and fold the current
    /// assignment (as indicators) into the running marginals. Returns
    /// the epoch's marginal delta.
    pub fn end_epoch(
        &mut self,
        flips: u64,
        samples: u64,
        indicators: impl Iterator<Item = bool>,
    ) -> f64 {
        self.epochs_seen += 1;
        self.series.epochs = self.epochs_seen as usize;
        self.series.flips_total += flips;
        self.series.samples_total += samples;
        self.series.flip_rate.push(flips as f64 / samples.max(1) as f64);

        let t = self.epochs_seen as f64;
        let mut delta: f64 = 0.0;
        for (v, on) in indicators.enumerate() {
            if v >= self.ones.len() {
                break;
            }
            if on {
                self.ones[v] += 1;
            }
            let p = self.ones[v] as f64 / t;
            delta = delta.max((p - self.prev_p[v]).abs());
            self.prev_p[v] = p;
        }
        self.series.marginal_delta.push(delta);
        delta
    }

    /// `(samples, flips)` over the epochs closed so far.
    pub fn totals(&self) -> (u64, u64) {
        (self.series.samples_total, self.series.flips_total)
    }

    /// Record a pseudo-log-likelihood observation for `epoch`.
    pub fn record_pll(&mut self, epoch: usize, value: f64) {
        self.series.pll.push((epoch as f64, value));
    }

    /// Credit `n` samples to conclique `c` (ignored when out of range).
    pub fn add_conclique_samples(&mut self, c: usize, n: u64) {
        if let Some(slot) = self.series.conclique_samples.get_mut(c) {
            *slot += n;
        }
    }

    pub fn finish(self) -> ConvergenceSeries {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_rate_and_marginal_delta_track_epochs() {
        let mut t = EpochTelemetry::new(2);
        // Epoch 1: both vars at 1 → p = [1, 1], delta 1.0.
        t.end_epoch(2, 4, [true, true].into_iter());
        // Epoch 2: var 1 drops to 0 → p = [1, 0.5], delta 0.5.
        t.end_epoch(1, 4, [true, false].into_iter());
        let s = t.finish();
        assert_eq!(s.epochs, 2);
        assert_eq!(s.flip_rate, vec![0.5, 0.25]);
        assert_eq!(s.marginal_delta, vec![1.0, 0.5]);
        assert_eq!(s.samples_total, 8);
        assert_eq!(s.flips_total, 3);
    }

    #[test]
    fn zero_samples_epoch_is_safe() {
        let mut t = EpochTelemetry::new(1);
        t.end_epoch(0, 0, [false].into_iter());
        assert_eq!(t.finish().flip_rate, vec![0.0]);
    }

    #[test]
    fn conclique_samples_accumulate() {
        let mut t = EpochTelemetry::new(1);
        t.add_conclique_samples(0, 3);
        t.add_conclique_samples(3, 2);
        t.add_conclique_samples(9, 7); // out of range, ignored
        let s = t.finish();
        assert_eq!(s.conclique_samples, [3, 0, 0, 2]);
    }

    #[test]
    fn merge_mean_averages_and_sums() {
        let mut a = ConvergenceSeries {
            flip_rate: vec![0.8, 0.4],
            marginal_delta: vec![1.0, 0.2],
            samples_total: 10,
            flips_total: 6,
            epochs: 2,
            ..Default::default()
        };
        a.conclique_samples = [4, 0, 0, 0];
        let b = ConvergenceSeries {
            flip_rate: vec![0.6],
            marginal_delta: vec![0.5],
            samples_total: 5,
            flips_total: 3,
            epochs: 1,
            ..Default::default()
        };
        let m = ConvergenceSeries::merge_mean(&[a, b]);
        assert_eq!(m.flip_rate, vec![0.7, 0.4]);
        assert_eq!(m.marginal_delta, vec![0.75, 0.2]);
        assert_eq!(m.samples_total, 15);
        assert_eq!(m.flips_total, 9);
        assert_eq!(m.epochs, 2);
        assert_eq!(m.conclique_samples, [4, 0, 0, 0]);
    }

    #[test]
    fn publish_writes_series_and_counters() {
        let obs = Obs::enabled();
        let mut t = EpochTelemetry::new(1);
        t.end_epoch(1, 2, [true].into_iter());
        t.record_pll(0, -3.5);
        let s = t.finish();
        s.publish(&obs, "infer.spatial");
        let m = obs.metrics().unwrap();
        assert_eq!(m.series("infer.spatial.flip_rate").unwrap().len(), 1);
        assert_eq!(m.series("infer.spatial.marginal_delta").unwrap(), vec![(0.0, 1.0)]);
        assert_eq!(m.series("infer.spatial.pll").unwrap(), vec![(0.0, -3.5)]);
        assert_eq!(m.counter_value("infer.spatial.samples_total"), Some(2));
        assert_eq!(m.gauge_value("infer.spatial.epochs"), Some(1.0));
    }

    #[test]
    fn pll_stride_caps_evaluations() {
        assert_eq!(pll_stride(10), 1);
        assert_eq!(pll_stride(1000), 15);
        assert!(1000usize.div_ceil(pll_stride(1000)) <= 67);
    }
}
