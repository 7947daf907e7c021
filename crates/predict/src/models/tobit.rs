//! Tobit (censored Gaussian) regression on `ln(runtime)`.
//!
//! Jobs killed at their walltime are *right-censored*: the observed runtime
//! is a lower bound on what the job would have run. Fan et al. showed that
//! modelling this censoring trades a little accuracy for far fewer
//! underestimates — exactly the trade the paper's Fig. 12 explores.
//!
//! Fit by EM: censored targets are imputed with the truncated-Gaussian
//! conditional mean `μ + σ·φ(z)/(1−Φ(z))`, an OLS step refits the linear
//! predictor, and σ is re-estimated — unconditionally stable, unlike raw
//! gradient ascent on the censored likelihood.

use crate::linalg::{moments, ridge_gram, solve};
use crate::models::{normal_cdf, normal_pdf, Model};

/// Censored Gaussian regressor over log-runtimes.
#[derive(Debug, Clone)]
pub struct Tobit {
    em_iterations: usize,
    ridge: f64,
    weights: Vec<f64>,
    sigma: f64,
    fallback: f64,
}

impl Tobit {
    /// Creates a model running `em_iterations` EM rounds with the given
    /// ridge penalty in the M-step.
    #[must_use]
    pub fn new(em_iterations: usize, ridge: f64) -> Self {
        assert!(em_iterations > 0 && ridge >= 0.0);
        Self {
            em_iterations,
            ridge,
            weights: Vec::new(),
            sigma: 1.0,
            fallback: 1.0,
        }
    }

    /// Fitted residual σ (log space).
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    fn linear(&self, w: &[f64], x: &[f64]) -> f64 {
        let mut acc = *w.last().expect("bias present");
        for (wi, v) in w.iter().zip(x) {
            acc += wi * v;
        }
        acc
    }
}

impl Default for Tobit {
    fn default() -> Self {
        Self::new(15, 1e-3)
    }
}

impl Model for Tobit {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64], censored: &[bool]) {
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), censored.len());
        if x.is_empty() {
            return;
        }
        let logs: Vec<f64> = y.iter().map(|&v| v.max(1.0).ln()).collect();
        let mean = logs.iter().sum::<f64>() / logs.len() as f64;
        self.fallback = mean.exp();

        // Ridge OLS on `(x, targets)`, weights with bias last. `x` is the
        // same in every round, so `XᵀX + λI` is formed once.
        let gram = ridge_gram(x, self.ridge.max(1e-9));
        let ols = |targets: &[f64]| solve(gram.clone(), moments(x, targets));

        // Start from the uncensored OLS fit.
        let Some(mut w) = ols(&logs) else {
            return;
        };
        let mut sigma = {
            let var = x
                .iter()
                .zip(&logs)
                .map(|(row, &t)| {
                    let r = t - self.linear(&w, row);
                    r * r
                })
                .sum::<f64>()
                / logs.len() as f64;
            var.sqrt().clamp(0.05, 10.0)
        };

        let mut targets = logs.clone();
        for _ in 0..self.em_iterations {
            // E-step: impute censored observations with the conditional
            // mean of the truncated Gaussian above the observed bound.
            for ((row, (&t, target)), &cens) in x
                .iter()
                .zip(logs.iter().zip(targets.iter_mut()))
                .zip(censored)
            {
                if cens {
                    let mu = self.linear(&w, row);
                    let z = (t - mu) / sigma;
                    let surv = (1.0 - normal_cdf(z)).max(1e-9);
                    let inverse_mills = normal_pdf(z) / surv;
                    // Clamp the imputation to a few σ above the bound so a
                    // far-off μ cannot launch the target to infinity.
                    *target = (mu + sigma * inverse_mills).clamp(t, t + 3.0 * sigma);
                }
            }
            // M-step: refit and re-estimate σ on the imputed targets.
            match ols(&targets) {
                Some(new_w) => w = new_w,
                None => break,
            }
            let var = x
                .iter()
                .zip(&targets)
                .map(|(row, &t)| {
                    let r = t - self.linear(&w, row);
                    r * r
                })
                .sum::<f64>()
                / targets.len() as f64;
            sigma = var.sqrt().clamp(0.05, 10.0);
        }
        self.weights = w;
        self.sigma = sigma;
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.weights.is_empty() {
            return self.fallback;
        }
        debug_assert_eq!(x.len() + 1, self.weights.len());
        self.linear(&self.weights, x).clamp(-5.0, 20.0).exp()
    }

    fn name(&self) -> &'static str {
        "Tobit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncensored_fit_matches_ols() {
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| (1.0 + 0.4 * r[0]).exp()).collect();
        let mut m = Tobit::default();
        m.fit(&x, &y, &vec![false; y.len()]);
        let p_lo = m.predict(&[1.0]);
        let p_hi = m.predict(&[9.0]);
        assert!(p_hi > p_lo, "monotone in the feature");
        assert!((p_lo.ln() - 1.4).abs() < 0.05, "ln p_lo {}", p_lo.ln());
        assert!((p_hi.ln() - 4.6).abs() < 0.05, "ln p_hi {}", p_hi.ln());
        assert!(m.sigma() < 0.1, "noise-free fit has tiny sigma");
    }

    #[test]
    fn censoring_pushes_predictions_up() {
        // Same covariate everywhere; half the observations are censored at
        // 200 s. A censoring-aware fit must predict above the naive fit.
        let x: Vec<Vec<f64>> = (0..200).map(|_| vec![1.0]).collect();
        let y: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 100.0 } else { 200.0 })
            .collect();
        let cens: Vec<bool> = (0..200).map(|i| i % 2 == 1).collect();
        let mut with = Tobit::default();
        with.fit(&x, &y, &cens);
        let mut without = Tobit::default();
        without.fit(&x, &y, &[false; 200]);
        assert!(
            with.predict(&[1.0]) > without.predict(&[1.0]),
            "censoring-aware {} ≤ naive {}",
            with.predict(&[1.0]),
            without.predict(&[1.0])
        );
    }

    #[test]
    fn imputation_never_drops_below_the_bound() {
        // All observations censored: predictions must sit above the bound.
        let x: Vec<Vec<f64>> = (0..100).map(|_| vec![1.0]).collect();
        let y = vec![1_000.0; 100];
        let mut m = Tobit::default();
        m.fit(&x, &y, &[true; 100]);
        assert!(m.predict(&[1.0]) >= 1_000.0 * 0.95);
    }

    #[test]
    fn unfit_model_is_safe() {
        let m = Tobit::default();
        assert_eq!(m.predict(&[0.0]), 1.0);
    }
}
