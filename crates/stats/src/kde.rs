//! Gaussian kernel density estimation and violin summaries.
//!
//! The paper's violin panels (Fig. 1a bottom, Fig. 11) are KDEs of job
//! runtime, usually on a log axis. [`ViolinSummary`] packages the density
//! curve together with the quartiles — exactly the data a violin plot needs.

use rayon::prelude::*;
use serde::Serialize;

use crate::quantile::quantile_sorted;

/// Gaussian KDE over a 1-D sample.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Kde {
    sample: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Builds a KDE with Silverman's rule-of-thumb bandwidth
    /// `0.9 · min(σ, IQR/1.34) · n^(−1/5)`.
    ///
    /// # Panics
    /// Panics if the NaN-filtered sample is empty.
    #[must_use]
    pub fn new(sample: Vec<f64>) -> Self {
        let mut s: Vec<f64> = sample.into_iter().filter(|x| !x.is_nan()).collect();
        assert!(!s.is_empty(), "KDE needs a non-empty sample");
        s.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
        let n = s.len() as f64;
        let mean = s.iter().sum::<f64>() / n;
        let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n.max(2.0);
        let sd = var.sqrt();
        let iqr = quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25);
        let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
        // Degenerate (constant) samples get a tiny positive bandwidth so the
        // density is a sharp spike rather than a division by zero.
        let bandwidth = if spread > 0.0 {
            0.9 * spread * n.powf(-0.2)
        } else {
            (s[0].abs() * 1e-3).max(1e-9)
        };
        Self {
            sample: s,
            bandwidth,
        }
    }

    /// Density estimate at `x`.
    ///
    /// The sample is sorted, so equal values are neighbours and share one
    /// kernel evaluation (runtimes are whole seconds: a day of jobs is
    /// mostly repeats). Every sample still adds its term, in order.
    #[must_use]
    pub fn density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((self.sample.len() as f64) * h * (std::f64::consts::TAU).sqrt());
        let mut last = (f64::NAN, 0.0);
        self.sample
            .iter()
            .map(|&xi| {
                if xi != last.0 {
                    let z = (x - xi) / h;
                    last = (xi, (-0.5 * z * z).exp());
                }
                last.1
            })
            .sum::<f64>()
            * norm
    }

    /// Density evaluated on a uniform grid of `n` points spanning the sample
    /// padded by three bandwidths. The points are independent, so they are
    /// evaluated on the pool; the curve is the same at any thread count.
    ///
    /// # Panics
    /// Panics if `n < 2`.
    #[must_use]
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2);
        let lo = self.sample[0] - 3.0 * self.bandwidth;
        let hi = self.sample[self.sample.len() - 1] + 3.0 * self.bandwidth;
        (0..n)
            .into_par_iter()
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.density(x))
            })
            .collect()
    }
}

/// Location of the highest point of a density curve (the last, among
/// equals).
fn peak(curve: &[(f64, f64)]) -> f64 {
    curve
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("densities are finite"))
        .map(|&(x, _)| x)
        .expect("non-empty curve")
}

/// Everything a violin plot needs: quartiles, extremes, and the density
/// curve, computed in log10 space when `log_scale` (runtimes span seconds
/// to weeks).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ViolinSummary {
    /// Whether the density was computed on log10-transformed values.
    pub log_scale: bool,
    /// Sample size.
    pub n: usize,
    /// Minimum (original scale).
    pub min: f64,
    /// First quartile (original scale).
    pub q1: f64,
    /// Median (original scale).
    pub median: f64,
    /// Third quartile (original scale).
    pub q3: f64,
    /// Maximum (original scale).
    pub max: f64,
    /// Mode of the density (original scale).
    pub mode: f64,
    /// Density curve `(x, density)`; `x` is in original scale even when
    /// the KDE ran in log space.
    pub curve: Vec<(f64, f64)>,
}

impl ViolinSummary {
    /// Builds a violin summary. With `log_scale`, non-positive values are
    /// floored to `floor` before the log transform.
    ///
    /// # Panics
    /// Panics on an empty sample or non-positive `floor` with `log_scale`.
    #[must_use]
    pub fn build(sample: &[f64], log_scale: bool, floor: f64, grid: usize) -> Self {
        assert!(!sample.is_empty(), "violin needs a sample");
        let mut vals: Vec<f64> = sample.iter().copied().filter(|x| !x.is_nan()).collect();
        assert!(!vals.is_empty(), "violin needs non-NaN values");
        vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));

        let (min, max) = (vals[0], vals[vals.len() - 1]);
        let q1 = quantile_sorted(&vals, 0.25);
        let median = quantile_sorted(&vals, 0.5);
        let q3 = quantile_sorted(&vals, 0.75);

        let transformed: Vec<f64> = if log_scale {
            assert!(floor > 0.0, "log-scale floor must be positive");
            vals.iter().map(|&x| x.max(floor).log10()).collect()
        } else {
            vals.clone()
        };
        let kde = Kde::new(transformed);
        let raw_curve = kde.curve(grid.max(2));
        let back = |x: f64| if log_scale { 10f64.powf(x) } else { x };
        let mode = back(peak(&raw_curve));
        let curve: Vec<(f64, f64)> = raw_curve.into_iter().map(|(x, d)| (back(x), d)).collect();

        Self {
            log_scale,
            n: vals.len(),
            min,
            q1,
            median,
            q3,
            max,
            mode,
            curve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn density_integrates_to_one() {
        let mut rng = Rng::new(1);
        let sample: Vec<f64> = (0..2_000).map(|_| rng.next_gaussian()).collect();
        let kde = Kde::new(sample);
        // Trapezoid integration over the padded grid.
        let curve = kde.curve(400);
        let mut integral = 0.0;
        for w in curve.windows(2) {
            integral += 0.5 * (w[0].1 + w[1].1) * (w[1].0 - w[0].0);
        }
        assert!((integral - 1.0).abs() < 0.02, "integral {integral}");
    }

    #[test]
    fn mode_of_gaussian_is_near_zero() {
        let mut rng = Rng::new(2);
        let sample: Vec<f64> = (0..5_000).map(|_| rng.next_gaussian()).collect();
        let kde = Kde::new(sample);
        assert!(peak(&kde.curve(200)).abs() < 0.2);
    }

    #[test]
    fn constant_sample_does_not_explode() {
        let kde = Kde::new(vec![5.0; 100]);
        assert!(kde.bandwidth > 0.0);
        assert!(kde.density(5.0).is_finite());
    }

    #[test]
    fn bimodal_sample_mode_is_on_a_bump() {
        let mut rng = Rng::new(3);
        let mut sample: Vec<f64> = (0..1_000).map(|_| rng.next_gaussian() * 0.2).collect();
        sample.extend((0..3_000).map(|_| 10.0 + rng.next_gaussian() * 0.2));
        let kde = Kde::new(sample);
        let mode = peak(&kde.curve(500));
        assert!((mode - 10.0).abs() < 0.5, "mode {mode}");
    }

    #[test]
    fn violin_quartiles_in_original_scale() {
        let sample: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let v = ViolinSummary::build(&sample, true, 1.0, 100);
        assert_eq!(v.n, 1_000);
        assert_eq!(v.min, 1.0);
        assert_eq!(v.max, 1_000.0);
        assert!((v.median - 500.5).abs() < 1.0);
        assert!(v.curve.iter().all(|&(x, d)| x > 0.0 && d >= 0.0));
    }

    #[test]
    fn violin_linear_scale() {
        let sample = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let v = ViolinSummary::build(&sample, false, 1.0, 50);
        assert!(!v.log_scale);
        assert_eq!(v.median, 3.0);
    }

    #[test]
    fn density_is_the_plain_sum_over_runs_of_duplicates() {
        // Whole-second runtimes in log space: a few values, each repeated
        // many times, next to values that occur once.
        let mut rng = Rng::new(4);
        let mut sample: Vec<f64> = Vec::new();
        for _ in 0..40 {
            let value = (1.0 + rng.next_below(5_000) as f64).log10();
            let run = 1 + rng.next_below(60) as usize;
            sample.extend(std::iter::repeat_n(value, run));
        }
        let kde = Kde::new(sample);
        let plain = |x: f64| {
            let h = kde.bandwidth;
            let norm = 1.0 / ((kde.sample.len() as f64) * h * (std::f64::consts::TAU).sqrt());
            kde.sample
                .iter()
                .map(|&xi| {
                    let z = (x - xi) / h;
                    (-0.5 * z * z).exp()
                })
                .sum::<f64>()
                * norm
        };
        for (x, d) in kde.curve(200) {
            assert_eq!(d.to_bits(), plain(x).to_bits(), "density at {x}");
        }
    }

    #[test]
    fn violin_mode_is_the_kde_mode() {
        let mut rng = Rng::new(5);
        let sample: Vec<f64> = (0..500)
            .map(|_| (1.0 + rng.next_below(300) as f64) * if rng.chance(0.3) { 40.0 } else { 1.0 })
            .collect();
        let linear = ViolinSummary::build(&sample, false, 1.0, 80);
        assert_eq!(linear.mode, peak(&Kde::new(sample.clone()).curve(80)));
        let log = ViolinSummary::build(&sample, true, 1.0, 80);
        let logs: Vec<f64> = sample.iter().map(|x| x.log10()).collect();
        assert_eq!(log.mode, 10f64.powf(peak(&Kde::new(logs).curve(80))));
    }

    #[test]
    fn curves_and_violins_are_byte_identical_across_thread_counts() {
        // The grid is an index-keyed list on the pool: which worker
        // evaluates which point must not show in a single output byte.
        let mut rng = Rng::new(6);
        let sample: Vec<f64> = (0..3_000)
            .map(|_| 1.0 + rng.next_below(50_000) as f64)
            .collect();
        let at = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let curve: Vec<(u64, u64)> = Kde::new(sample.clone())
                    .curve(120)
                    .iter()
                    .map(|(x, d)| (x.to_bits(), d.to_bits()))
                    .collect();
                let violin = ViolinSummary::build(&sample, true, 1.0, 120);
                (curve, serde_json::to_string(&violin).unwrap())
            })
        };
        let one = at(1);
        assert_eq!(one, at(2));
        assert_eq!(one, at(8));
    }

    #[test]
    #[should_panic(expected = "violin needs a sample")]
    fn violin_rejects_empty() {
        let _ = ViolinSummary::build(&[], false, 1.0, 10);
    }
}
