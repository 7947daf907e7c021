//! Distribution samplers.
//!
//! The trace generators model the paper's per-system workload facts with
//! heavy-tailed runtime distributions (log-normal, Pareto),
//! exponential arrival gaps, and discrete mixtures. All samplers are
//! implemented from scratch on top of [`crate::rng::Rng`] via inverse
//! transform or Box–Muller.

use crate::rng::Rng;

/// A source of `f64` samples.
pub trait Sampler {
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// Theoretical mean, if finite and known.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform sampler. Requires `lo <= hi` and finite bounds.
    ///
    /// # Panics
    /// Panics on invalid bounds.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad uniform bounds"
        );
        Self { lo, hi }
    }
}

impl Sampler for Uniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }
    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

/// Exponential distribution with the given rate λ (mean `1/λ`).
/// Used for job inter-arrival gaps (the paper treats arrivals as a
/// modulated Poisson process, §III.A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential sampler with rate `rate > 0`.
    ///
    /// # Panics
    /// Panics if `rate <= 0` or non-finite.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "bad exponential rate");
        Self { rate }
    }
}

impl Sampler for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        -rng.next_f64_open().ln() / self.rate
    }
    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.rate)
    }
}

/// Log-normal distribution: `exp(μ + σ·Z)`.
/// The canonical model for job runtimes in workload archives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal sampler with log-space mean `mu` and log-space
    /// standard deviation `sigma >= 0`.
    ///
    /// # Panics
    /// Panics on non-finite parameters or negative `sigma`.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "bad lognormal params"
        );
        Self { mu, sigma }
    }

    /// Parameterises by median (`exp(mu)`) and σ — convenient when
    /// calibrating to the paper's reported medians.
    ///
    /// # Panics
    /// Panics if `median <= 0`.
    #[must_use]
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        Self::new(median.ln(), sigma)
    }
}

impl Sampler for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * rng.next_gaussian()).exp()
    }
    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
}

/// Pareto (power-law) distribution with scale `x_min` and shape `alpha`.
/// Models the extreme right tail of DL training jobs (weeks-long runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto sampler. Requires `x_min > 0` and `alpha > 0`.
    ///
    /// # Panics
    /// Panics on invalid parameters.
    #[must_use]
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && alpha > 0.0, "bad pareto params");
        Self { x_min, alpha }
    }
}

impl Sampler for Pareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.x_min / rng.next_f64_open().powf(1.0 / self.alpha)
    }
    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.x_min / (self.alpha - 1.0))
    }
}

/// Discrete distribution over arbitrary `f64` support points with
/// unnormalised weights. Sampling is O(log n) by binary search over the
/// cumulative weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    values: Vec<f64>,
    cumulative: Vec<f64>,
    total: f64,
}

impl Discrete {
    /// Builds from `(value, weight)` pairs. Weights must be non-negative and
    /// sum to a positive total.
    ///
    /// # Panics
    /// Panics on empty input, negative weights, or zero total weight.
    #[must_use]
    pub fn new(pairs: &[(f64, f64)]) -> Self {
        assert!(!pairs.is_empty(), "discrete distribution needs support");
        let mut values = Vec::with_capacity(pairs.len());
        let mut cumulative = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for &(v, w) in pairs {
            assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
            acc += w;
            values.push(v);
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        Self {
            values,
            cumulative,
            total: acc,
        }
    }

    /// Samples an index into the support (useful when values carry meaning
    /// beyond their numeric value).
    #[must_use]
    pub(crate) fn sample_index(&self, rng: &mut Rng) -> usize {
        let x = rng.next_f64() * self.total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("NaN in cumulative"))
        {
            Ok(i) | Err(i) => i.min(self.values.len() - 1),
        }
    }
}

impl Sampler for Discrete {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.values[self.sample_index(rng)]
    }
    fn mean(&self) -> Option<f64> {
        let mut prev = 0.0;
        let mut acc = 0.0;
        for (v, c) in self.values.iter().zip(&self.cumulative) {
            acc += v * (c - prev);
            prev = *c;
        }
        Some(acc / self.total)
    }
}

/// Mixture of samplers with unnormalised component weights.
/// Job runtime distributions in the paper's violins are multi-modal
/// (e.g. Philly's seconds-long debug jobs vs weeks-long training runs),
/// which mixtures capture directly.
pub struct Mixture {
    components: Vec<(f64, Box<dyn Sampler + Send + Sync>)>,
    total: f64,
}

impl Mixture {
    /// Builds from `(weight, sampler)` pairs.
    ///
    /// # Panics
    /// Panics on empty input or non-positive total weight.
    #[must_use]
    pub fn new(components: Vec<(f64, Box<dyn Sampler + Send + Sync>)>) -> Self {
        assert!(!components.is_empty(), "mixture needs components");
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0, "mixture weights must sum to a positive value");
        Self { components, total }
    }
}

impl Sampler for Mixture {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let mut x = rng.next_f64() * self.total;
        for (w, s) in &self.components {
            if x < *w {
                return s.sample(rng);
            }
            x -= w;
        }
        self.components
            .last()
            .expect("non-empty mixture")
            .1
            .sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_n(s: &dyn Sampler, seed: u64, n: usize) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| s.sample(&mut rng)).collect()
    }

    fn mean_of(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn exponential_mean() {
        let s = Exponential::new(1.0 / 120.0);
        let xs = sample_n(&s, 1, 100_000);
        assert!((mean_of(&xs) - 120.0).abs() < 2.0);
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn lognormal_median() {
        let s = LogNormal::from_median(5_400.0, 1.0);
        let mut xs = sample_n(&s, 2, 100_001);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((med / 5_400.0 - 1.0).abs() < 0.05, "median {med}");
    }

    #[test]
    fn lognormal_theoretical_mean() {
        let s = LogNormal::new(2.0, 0.5);
        let expected = (2.0f64 + 0.125).exp();
        assert!((s.mean().unwrap() - expected).abs() < 1e-12);
        let xs = sample_n(&s, 3, 200_000);
        assert!((mean_of(&xs) / expected - 1.0).abs() < 0.02);
    }

    #[test]
    fn pareto_support_and_tail() {
        let s = Pareto::new(10.0, 1.5);
        let xs = sample_n(&s, 4, 50_000);
        assert!(xs.iter().all(|&x| x >= 10.0));
        // P(X > 100) = (10/100)^1.5 ≈ 0.0316
        let tail = xs.iter().filter(|&&x| x > 100.0).count() as f64 / xs.len() as f64;
        assert!((tail - 0.0316).abs() < 0.01, "tail {tail}");
    }

    #[test]
    fn discrete_respects_weights() {
        let s = Discrete::new(&[(1.0, 8.0), (2.0, 1.0), (3.0, 1.0)]);
        let xs = sample_n(&s, 6, 100_000);
        let ones = xs.iter().filter(|&&x| x == 1.0).count() as f64 / xs.len() as f64;
        assert!((ones - 0.8).abs() < 0.01, "ones {ones}");
        assert!((s.mean().unwrap() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn discrete_single_point() {
        let s = Discrete::new(&[(7.0, 1.0)]);
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 7.0);
        }
    }

    #[test]
    fn mixture_blends_components() {
        let m = Mixture::new(vec![
            (
                0.5,
                Box::new(Uniform::new(0.0, 1.0)) as Box<dyn Sampler + Send + Sync>,
            ),
            (0.5, Box::new(Uniform::new(10.0, 11.0))),
        ]);
        let xs = sample_n(&m, 7, 50_000);
        let low = xs.iter().filter(|&&x| x < 5.0).count() as f64 / xs.len() as f64;
        assert!((low - 0.5).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "bad exponential rate")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn discrete_rejects_zero_weights() {
        let _ = Discrete::new(&[(1.0, 0.0)]);
    }
}
