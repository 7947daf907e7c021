//! The prediction model zoo (paper §VI.A): Last2, Linear Regression,
//! Tobit, gradient-boosted trees, and an MLP — all from scratch.
//!
//! All matrix-style models implement [`Model`]: they are fit on a feature
//! matrix and predict runtimes in **seconds** (internally most regress
//! `ln(runtime)` for stability across the seconds-to-weeks range). Last2
//! is history-based rather than feature-based and lives in [`last2`].

pub mod gbt;
pub mod last2;
mod linreg;
mod mlp;
mod tobit;

pub use gbt::Gbt;
pub use last2::Last2;
pub use linreg::LinearRegression;
pub use mlp::Mlp;
pub use tobit::Tobit;

/// A trainable runtime regressor.
pub trait Model {
    /// Fits on feature rows `x` and runtimes `y` (seconds). `censored[i]`
    /// marks right-censored observations (runtime is a lower bound); only
    /// the Tobit model uses it.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64], censored: &[bool]);

    /// Predicts a runtime (seconds, > 0) for one feature row.
    fn predict(&self, x: &[f64]) -> f64;

    /// Model display name.
    fn name(&self) -> &'static str;
}

/// Standard normal PDF.
#[must_use]
pub(crate) fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (std::f64::consts::TAU).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (|error| < 1.5e-7 — ample for MLE gradients).
#[must_use]
pub(crate) fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        for z in [-2.0, -0.5, 0.7, 1.9] {
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn normal_pdf_peak() {
        assert!((normal_pdf(0.0) - 0.398_942_28).abs() < 1e-7);
        assert!(normal_pdf(5.0) < 1e-5);
    }
}
