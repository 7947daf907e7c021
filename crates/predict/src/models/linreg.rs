//! Ridge linear regression on `ln(runtime)` via the normal equations.

use crate::linalg::{moments, ridge_gram, solve};
use crate::models::Model;

/// Ridge OLS over log-runtimes.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    ridge: f64,
    /// Weights (bias last); empty until fit.
    weights: Vec<f64>,
    fallback: f64,
}

impl LinearRegression {
    /// Creates a model with ridge penalty `ridge ≥ 0`.
    #[must_use]
    pub fn new(ridge: f64) -> Self {
        assert!(ridge >= 0.0);
        Self {
            ridge,
            weights: Vec::new(),
            fallback: 1.0,
        }
    }

    /// Fitted weights (bias last).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Default for LinearRegression {
    fn default() -> Self {
        Self::new(1e-3)
    }
}

impl Model for LinearRegression {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64], _censored: &[bool]) {
        assert_eq!(x.len(), y.len());
        if x.is_empty() {
            return;
        }
        let logs: Vec<f64> = y.iter().map(|&v| v.max(1.0).ln()).collect();
        self.fallback = (logs.iter().sum::<f64>() / logs.len() as f64).exp();

        // Normal equations: (XᵀX + λI) w = Xᵀy, with bias column appended.
        if let Some(w) = solve(ridge_gram(x, self.ridge), moments(x, &logs)) {
            self.weights = w;
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.weights.is_empty() {
            return self.fallback;
        }
        debug_assert_eq!(x.len() + 1, self.weights.len());
        let mut acc = *self.weights.last().expect("bias present");
        for (w, v) in self.weights.iter().zip(x) {
            acc += w * v;
        }
        // Clamp the exponent so a wild extrapolation cannot overflow.
        acc.clamp(-5.0, 20.0).exp()
    }

    fn name(&self) -> &'static str {
        "LinReg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_a_log_linear_relationship() {
        // runtime = exp(2 + 0.5 · x0)
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| (2.0 + 0.5 * r[0]).exp()).collect();
        let mut m = LinearRegression::new(1e-9);
        m.fit(&x, &y, &vec![false; y.len()]);
        let w = m.weights();
        assert!((w[0] - 0.5).abs() < 1e-6, "slope {}", w[0]);
        assert!((w[1] - 2.0).abs() < 1e-6, "bias {}", w[1]);
        let p = m.predict(&[4.0]);
        assert!((p / (4.0f64).exp() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn unfit_model_predicts_fallback() {
        let m = LinearRegression::default();
        assert_eq!(m.predict(&[1.0, 2.0]), 1.0);
    }

    #[test]
    fn constant_feature_does_not_explode() {
        // A constant column makes XᵀX singular without the ridge.
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![1.0, i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| 100.0 + i as f64).collect();
        let mut m = LinearRegression::new(1e-3);
        m.fit(&x, &y, &[false; 50]);
        let p = m.predict(&[1.0, 25.0]);
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn extrapolation_is_clamped() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| (1.0 + r[0]).exp()).collect();
        let mut m = LinearRegression::default();
        m.fit(&x, &y, &[false; 10]);
        assert!(m.predict(&[1e9]).is_finite());
    }
}
