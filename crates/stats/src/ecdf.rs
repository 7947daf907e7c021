//! Empirical cumulative distribution functions.
//!
//! Every "CDF of X" figure in the paper (runtime, arrival interval,
//! requested cores, waiting time, turnaround) is an [`Ecdf`] evaluated on a
//! per-system sample.

use serde::Serialize;

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF, dropping NaNs and sorting the sample.
    ///
    /// # Panics
    /// Panics if the filtered sample is empty.
    #[must_use]
    pub fn new(mut sample: Vec<f64>) -> Self {
        sample.retain(|x| !x.is_nan());
        assert!(!sample.is_empty(), "ECDF needs a non-empty sample");
        sample.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
        Self { sorted: sample }
    }

    /// Sample size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)` — fraction of the sample ≤ `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Interpolated quantile (type 7), `p ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        crate::quantile::quantile_sorted(&self.sorted, p)
    }

    /// Median (`quantile(0.5)`).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Minimum of the sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum of the sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The sorted sample.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluates the ECDF on a grid of `n` points log-spaced between
    /// `max(min, floor)` and `max` — the shape the paper's log-x CDF plots
    /// use. Returns `(x, F(x))` pairs. `floor` guards against zero values
    /// on a log axis.
    ///
    /// # Panics
    /// Panics if `n < 2` or `floor <= 0`.
    #[must_use]
    pub fn log_curve(&self, n: usize, floor: f64) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two curve points");
        assert!(floor > 0.0, "log axis floor must be positive");
        let lo = self.min().max(floor);
        let hi = self.max().max(lo * (1.0 + 1e-12));
        let (llo, lhi) = (lo.ln(), hi.ln());
        (0..n)
            .map(|i| {
                // Pin the endpoints exactly: exp(ln(x)) can round below x,
                // which would leave the final point short of F(max) = 1.
                let x = if i == 0 {
                    lo
                } else if i == n - 1 {
                    hi
                } else {
                    (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp()
                };
                (x, self.eval(x))
            })
            .collect()
    }

    /// Two-sample Kolmogorov–Smirnov statistic `sup |F1 - F2|` — used by
    /// generator-calibration tests to compare synthetic samples against
    /// reference shapes.
    #[must_use]
    pub fn ks_statistic(&self, other: &Ecdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in &self.sorted {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        for &x in &other.sorted {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_right_continuous_step() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn median_interpolates() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((e.median() - 2.5).abs() < 1e-12);
        let odd = Ecdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(odd.median(), 2.0);
    }

    #[test]
    fn drops_nans() {
        let e = Ecdf::new(vec![f64::NAN, 1.0, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty() {
        let _ = Ecdf::new(vec![f64::NAN]);
    }

    #[test]
    fn log_curve_is_monotone() {
        let e = Ecdf::new((1..=1000).map(f64::from).collect());
        let curve = e.log_curve(50, 1.0);
        assert_eq!(curve.len(), 50);
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_identical_is_zero() {
        let a = Ecdf::new(vec![1.0, 2.0, 3.0]);
        let b = Ecdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.ks_statistic(&b), 0.0);
    }

    #[test]
    fn ks_disjoint_is_one() {
        let a = Ecdf::new(vec![1.0, 2.0]);
        let b = Ecdf::new(vec![10.0, 20.0]);
        assert!((a.ks_statistic(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_mean() {
        let e = Ecdf::new(vec![2.0, 4.0, 6.0]);
        assert_eq!(e.min(), 2.0);
        assert_eq!(e.max(), 6.0);
        assert!((e.mean() - 4.0).abs() < 1e-12);
    }
}
