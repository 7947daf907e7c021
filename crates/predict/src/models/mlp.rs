//! A small feed-forward network: one tanh hidden layer, linear output,
//! SGD with momentum on standardized `ln(runtime)` targets. Deterministic
//! via an explicit seed.
//!
//! Weights and standardized inputs are flat row-major arrays and the
//! hidden layer is one buffer reused across samples; every sum runs in
//! index order with no fused multiply-add, so a fit is a fixed sequence
//! of floating-point operations and its weights repeat bit for bit.

use lumos_stats::Rng;

use crate::models::Model;

/// Multilayer perceptron regressor.
#[derive(Debug, Clone)]
pub struct Mlp {
    hidden: usize,
    epochs: usize,
    learning_rate: f64,
    seed: u64,
    // Fitted state.
    w1: Vec<f64>, // hidden × input, row-major
    b1: Vec<f64>,
    w2: Vec<f64>, // hidden
    b2: f64,
    feat_mu: Vec<f64>,
    feat_sd: Vec<f64>,
    target_mu: f64,
    target_sd: f64,
    fitted: bool,
}

/// The network's output for one standardized row; `h` receives the hidden
/// activations.
fn forward(w1: &[f64], b1: &[f64], w2: &[f64], b2: f64, x: &[f64], h: &mut [f64]) -> f64 {
    let d = w1.len() / h.len();
    let mut out = b2;
    for (j, hj) in h.iter_mut().enumerate() {
        let mut acc = b1[j];
        for (w, v) in w1[j * d..(j + 1) * d].iter().zip(x) {
            acc += w * v;
        }
        *hj = acc.tanh();
        out += w2[j] * *hj;
    }
    out
}

impl Mlp {
    /// Creates a network configuration.
    #[must_use]
    pub fn new(hidden: usize, epochs: usize, learning_rate: f64, seed: u64) -> Self {
        assert!(hidden > 0 && epochs > 0 && learning_rate > 0.0);
        Self {
            hidden,
            epochs,
            learning_rate,
            seed,
            w1: Vec::new(),
            b1: Vec::new(),
            w2: Vec::new(),
            b2: 0.0,
            feat_mu: Vec::new(),
            feat_sd: Vec::new(),
            target_mu: 0.0,
            target_sd: 1.0,
            fitted: false,
        }
    }
}

impl Default for Mlp {
    fn default() -> Self {
        Self::new(16, 40, 0.02, 0x11A9)
    }
}

impl Model for Mlp {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64], _censored: &[bool]) {
        assert_eq!(x.len(), y.len());
        if x.is_empty() {
            return;
        }
        let n = x.len();
        let d = x[0].len();
        let hidden = self.hidden;
        let logs: Vec<f64> = y.iter().map(|&v| v.max(1.0).ln()).collect();

        // Standardize features and target.
        self.feat_mu = vec![0.0; d];
        self.feat_sd = vec![0.0; d];
        for row in x {
            for (m, v) in self.feat_mu.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut self.feat_mu {
            *m /= n as f64;
        }
        for row in x {
            for ((s, v), m) in self.feat_sd.iter_mut().zip(row).zip(&self.feat_mu) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut self.feat_sd {
            *s = (*s / n as f64).sqrt().max(1e-9);
        }
        self.target_mu = logs.iter().sum::<f64>() / n as f64;
        let var = logs
            .iter()
            .map(|l| (l - self.target_mu) * (l - self.target_mu))
            .sum::<f64>()
            / n as f64;
        self.target_sd = var.sqrt().max(1e-9);

        let mut xs = Vec::with_capacity(n * d);
        for row in x {
            debug_assert_eq!(row.len(), d);
            xs.extend(
                row.iter()
                    .zip(&self.feat_mu)
                    .zip(&self.feat_sd)
                    .map(|((v, m), s)| (v - m) / s),
            );
        }
        let ts: Vec<f64> = logs
            .iter()
            .map(|l| (l - self.target_mu) / self.target_sd)
            .collect();

        // Xavier-ish init.
        let mut rng = Rng::new(self.seed);
        let scale = (1.0 / d as f64).sqrt();
        let mut w1: Vec<f64> = (0..hidden * d)
            .map(|_| rng.next_gaussian() * scale)
            .collect();
        let mut b1 = vec![0.0; hidden];
        let hscale = (1.0 / hidden as f64).sqrt();
        let mut w2: Vec<f64> = (0..hidden).map(|_| rng.next_gaussian() * hscale).collect();
        let mut b2 = 0.0;

        // SGD with momentum over shuffled epochs.
        let mut order: Vec<usize> = (0..n).collect();
        let mut m_w1 = vec![0.0; hidden * d];
        let mut m_b1 = vec![0.0; hidden];
        let mut m_w2 = vec![0.0; hidden];
        let mut m_b2 = 0.0;
        let mut h = vec![0.0; hidden];
        let beta = 0.9;
        let rate = self.learning_rate;
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let xi = &xs[i * d..(i + 1) * d];
                let err = forward(&w1, &b1, &w2, b2, xi, &mut h) - ts[i];
                for j in 0..hidden {
                    // Output layer gradients.
                    let g2 = err * h[j];
                    m_w2[j] = beta * m_w2[j] + (1.0 - beta) * g2;
                    // Hidden layer, through `w2[j]` as the forward pass saw it.
                    let dh = err * w2[j] * (1.0 - h[j] * h[j]);
                    let row = j * d..(j + 1) * d;
                    for ((w, m), v) in w1[row.clone()].iter_mut().zip(&mut m_w1[row]).zip(xi) {
                        let g1 = dh * v;
                        *m = beta * *m + (1.0 - beta) * g1;
                        *w -= rate * *m;
                    }
                    m_b1[j] = beta * m_b1[j] + (1.0 - beta) * dh;
                    b1[j] -= rate * m_b1[j];
                    w2[j] -= rate * m_w2[j];
                }
                m_b2 = beta * m_b2 + (1.0 - beta) * err;
                b2 -= rate * m_b2;
            }
        }
        (self.w1, self.b1, self.w2, self.b2) = (w1, b1, w2, b2);
        self.fitted = true;
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if !self.fitted {
            return 1.0;
        }
        let xs: Vec<f64> = x
            .iter()
            .zip(&self.feat_mu)
            .zip(&self.feat_sd)
            .map(|((v, m), s)| (v - m) / s)
            .collect();
        let mut h = vec![0.0; self.hidden];
        let out = forward(&self.w1, &self.b1, &self.w2, self.b2, &xs, &mut h);
        let log = out * self.target_sd + self.target_mu;
        log.clamp(-5.0, 20.0).exp()
    }

    fn name(&self) -> &'static str {
        "MLP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_nonlinear_boundary() {
        // runtime = 60 for x in [0,1), 3600 for x in [1,2).
        let x: Vec<Vec<f64>> = (0..400).map(|i| vec![(i % 20) as f64 / 10.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] < 1.0 { 60.0 } else { 3_600.0 })
            .collect();
        let mut m = Mlp::new(16, 80, 0.05, 7);
        m.fit(&x, &y, &vec![false; y.len()]);
        let lo = m.predict(&[0.3]);
        let hi = m.predict(&[1.7]);
        assert!(hi > 4.0 * lo, "lo {lo} hi {hi}");
    }

    #[test]
    fn deterministic_under_seed() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| 100.0 + i as f64 * 10.0).collect();
        let mut a = Mlp::new(8, 10, 0.02, 42);
        let mut b = Mlp::new(8, 10, 0.02, 42);
        a.fit(&x, &y, &[false; 50]);
        b.fit(&x, &y, &[false; 50]);
        assert_eq!(a.predict(&[25.0]), b.predict(&[25.0]));
    }

    #[test]
    fn unfit_model_is_safe() {
        let m = Mlp::default();
        assert_eq!(m.predict(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn predictions_are_positive_and_finite() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| 10.0 + i as f64).collect();
        let mut m = Mlp::default();
        m.fit(&x, &y, &[false; 100]);
        for i in 0..100 {
            let p = m.predict(&[i as f64, (i * i) as f64]);
            assert!(p.is_finite() && p > 0.0);
        }
    }
}
