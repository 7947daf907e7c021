//! A small feed-forward network: one tanh hidden layer, linear output,
//! SGD with momentum on standardized `ln(runtime)` targets. Deterministic
//! via an explicit seed.
//!
//! The input weights are stored input-major (`input × hidden`): the
//! forward pass adds one input into every hidden unit's sum at once, and
//! the backward pass updates one input's row of weights across the
//! units, so the inner loops run over the hidden lanes and vectorise.
//! Each weight still sees the operations a per-unit dot product gives it,
//! in index order and with no fused multiply-add, so a fit is a fixed
//! sequence of floating-point operations and its weights repeat bit for
//! bit — the bits of the row-major kernel the tests keep as the oracle.

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
    w1: Vec<f64>, // input × hidden, input-major
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
/// activations. Each unit's sum starts at its bias and adds the inputs in
/// index order.
fn forward(w1: &[f64], b1: &[f64], w2: &[f64], b2: f64, x: &[f64], h: &mut [f64]) -> f64 {
    h.copy_from_slice(b1);
    for (row, v) in w1.chunks_exact(h.len()).zip(x) {
        for (hj, w) in h.iter_mut().zip(row) {
            *hj += w * v;
        }
    }
    let mut out = b2;
    for (hj, w) in h.iter_mut().zip(w2) {
        *hj = hj.tanh();
        out += w * *hj;
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

    /// Records the feature and `ln(runtime)` statistics of `(x, y)` and
    /// returns the standardized rows (flat, row-major) and targets.
    fn standardize(&mut self, x: &[Vec<f64>], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = x.len();
        let d = x[0].len();
        let logs: Vec<f64> = y.iter().map(|&v| v.max(1.0).ln()).collect();
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
            xs.extend(self.scaled(row));
        }
        let ts = logs
            .iter()
            .map(|l| (l - self.target_mu) / self.target_sd)
            .collect();
        (xs, ts)
    }

    /// One row standardized by the recorded feature statistics.
    fn scaled<'a>(&'a self, x: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        x.iter()
            .zip(&self.feat_mu)
            .zip(&self.feat_sd)
            .map(|((v, m), s)| (v - m) / s)
    }

    /// The runtime a network output stands for.
    fn runtime(&self, out: f64) -> f64 {
        let log = out * self.target_sd + self.target_mu;
        log.clamp(-5.0, 20.0).exp()
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
        let (xs, ts) = self.standardize(x, y);

        // Xavier-ish init, drawn unit by unit: unit `j`'s weights are every
        // `hidden`-th entry from `j`.
        let mut rng = Rng::new(self.seed);
        let scale = (1.0 / d as f64).sqrt();
        let mut w1 = vec![0.0; d * hidden];
        for j in 0..hidden {
            for w in w1[j..].iter_mut().step_by(hidden) {
                *w = rng.next_gaussian() * scale;
            }
        }
        let mut b1 = vec![0.0; hidden];
        let hscale = (1.0 / hidden as f64).sqrt();
        let mut w2: Vec<f64> = (0..hidden).map(|_| rng.next_gaussian() * hscale).collect();
        let mut b2 = 0.0;

        // SGD with momentum over shuffled epochs.
        let mut order: Vec<usize> = (0..n).collect();
        let mut m_w1 = vec![0.0; d * hidden];
        let mut m_b1 = vec![0.0; hidden];
        let mut m_w2 = vec![0.0; hidden];
        let mut m_b2 = 0.0;
        let mut h = vec![0.0; hidden];
        let mut dh = vec![0.0; hidden];
        let beta = 0.9;
        let rate = self.learning_rate;
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let xi = &xs[i * d..(i + 1) * d];
                let err = forward(&w1, &b1, &w2, b2, xi, &mut h) - ts[i];
                for j in 0..hidden {
                    // Hidden layer, through `w2[j]` as the forward pass saw it.
                    dh[j] = err * w2[j] * (1.0 - h[j] * h[j]);
                    // Output layer gradients.
                    let g2 = err * h[j];
                    m_w2[j] = beta * m_w2[j] + (1.0 - beta) * g2;
                    w2[j] -= rate * m_w2[j];
                    m_b1[j] = beta * m_b1[j] + (1.0 - beta) * dh[j];
                    b1[j] -= rate * m_b1[j];
                }
                // Input weights, one input's row across the hidden lanes.
                let rows = w1
                    .chunks_exact_mut(hidden)
                    .zip(m_w1.chunks_exact_mut(hidden));
                for ((row, m_row), v) in rows.zip(xi) {
                    for ((w, m), g) in row.iter_mut().zip(m_row).zip(&dh) {
                        let g1 = g * v;
                        *m = beta * *m + (1.0 - beta) * g1;
                        *w -= rate * *m;
                    }
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
        let xs: Vec<f64> = self.scaled(x).collect();
        let mut h = vec![0.0; self.hidden];
        self.runtime(forward(&self.w1, &self.b1, &self.w2, self.b2, &xs, &mut h))
    }

    fn name(&self) -> &'static str {
        "MLP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The row-major kernel the input-major one replaced, kept as the
    /// oracle: `w1` is hidden × input, each unit's dot product runs on its
    /// own, and each unit's weights update before the next unit's.
    mod reference {
        use super::super::Mlp;
        use lumos_stats::Rng;

        /// A fitted network's weights in the row-major layout.
        pub(crate) struct RowMajor {
            w1: Vec<f64>,
            b1: Vec<f64>,
            w2: Vec<f64>,
            b2: f64,
        }

        fn forward(net: &RowMajor, x: &[f64], h: &mut [f64]) -> f64 {
            let d = net.w1.len() / h.len();
            let mut out = net.b2;
            for (j, hj) in h.iter_mut().enumerate() {
                let mut acc = net.b1[j];
                for (w, v) in net.w1[j * d..(j + 1) * d].iter().zip(x) {
                    acc += w * v;
                }
                *hj = acc.tanh();
                out += net.w2[j] * *hj;
            }
            out
        }

        /// `Model::fit` as it was with `w1` row-major.
        pub fn fit(mlp: &mut Mlp, x: &[Vec<f64>], y: &[f64]) -> RowMajor {
            let (n, d, hidden) = (x.len(), x[0].len(), mlp.hidden);
            let (xs, ts) = mlp.standardize(x, y);
            let mut rng = Rng::new(mlp.seed);
            let scale = (1.0 / d as f64).sqrt();
            let w1 = (0..hidden * d)
                .map(|_| rng.next_gaussian() * scale)
                .collect();
            let hscale = (1.0 / hidden as f64).sqrt();
            let w2 = (0..hidden).map(|_| rng.next_gaussian() * hscale).collect();
            let mut net = RowMajor {
                w1,
                b1: vec![0.0; hidden],
                w2,
                b2: 0.0,
            };

            let mut order: Vec<usize> = (0..n).collect();
            let mut m_w1 = vec![0.0; hidden * d];
            let mut m_b1 = vec![0.0; hidden];
            let mut m_w2 = vec![0.0; hidden];
            let mut m_b2 = 0.0;
            let mut h = vec![0.0; hidden];
            let beta = 0.9;
            let rate = mlp.learning_rate;
            for _ in 0..mlp.epochs {
                rng.shuffle(&mut order);
                for &i in &order {
                    let xi = &xs[i * d..(i + 1) * d];
                    let err = forward(&net, xi, &mut h) - ts[i];
                    for j in 0..hidden {
                        let g2 = err * h[j];
                        m_w2[j] = beta * m_w2[j] + (1.0 - beta) * g2;
                        let dh = err * net.w2[j] * (1.0 - h[j] * h[j]);
                        let row = j * d..(j + 1) * d;
                        for ((w, m), v) in
                            net.w1[row.clone()].iter_mut().zip(&mut m_w1[row]).zip(xi)
                        {
                            let g1 = dh * v;
                            *m = beta * *m + (1.0 - beta) * g1;
                            *w -= rate * *m;
                        }
                        m_b1[j] = beta * m_b1[j] + (1.0 - beta) * dh;
                        net.b1[j] -= rate * m_b1[j];
                        net.w2[j] -= rate * m_w2[j];
                    }
                    m_b2 = beta * m_b2 + (1.0 - beta) * err;
                    net.b2 -= rate * m_b2;
                }
            }
            net
        }

        /// `Model::predict` of a network `fit` returned for `mlp`.
        pub fn predict(mlp: &Mlp, net: &RowMajor, x: &[f64]) -> f64 {
            let xs: Vec<f64> = mlp.scaled(x).collect();
            let mut h = vec![0.0; mlp.hidden];
            mlp.runtime(forward(net, &xs, &mut h))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn input_major_fits_equal_the_row_major_reference_bit_for_bit(
            seed in any::<u64>(),
            hidden in 1usize..25,
            d in 1usize..11,
            epochs in 1usize..4,
            n in 1usize..201,
        ) {
            let mut rng = Rng::new(seed);
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| rng.next_gaussian() * 3.0).collect())
                .collect();
            let y: Vec<f64> = (0..n).map(|_| (rng.next_f64() * 12.0).exp()).collect();
            let mut new = Mlp::new(hidden, epochs, 0.02, seed);
            new.fit(&x, &y, &vec![false; n]);
            let mut old = Mlp::new(hidden, epochs, 0.02, seed);
            let net = reference::fit(&mut old, &x, &y);
            let probes = x.iter().take(20).cloned().chain(
                (0..20).map(|_| (0..d).map(|_| rng.next_gaussian() * 3.0).collect()),
            );
            for probe in probes {
                prop_assert_eq!(
                    new.predict(&probe).to_bits(),
                    reference::predict(&old, &net, &probe).to_bits()
                );
            }
        }
    }

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
