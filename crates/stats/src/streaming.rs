//! Streaming quantile estimation (the P² algorithm).
//!
//! `P2Quantile` estimates a single quantile of an unbounded stream in
//! O(1) memory — five markers whose heights track the quantile via
//! piecewise-parabolic interpolation (Jain & Chlamtac, CACM 1985). The
//! online scheduler uses it to report wait-time percentiles without
//! buffering every observed wait; exact type-7 quantiles on buffered
//! slices remain in [`fn@crate::quantile`].
//!
//! Both estimators serialize their full marker state, so a deserialized
//! estimator continues the stream exactly where the original left off —
//! the property the serving layer's crash recovery relies on.

use serde::{Deserialize, Serialize};

/// One streamed quantile, estimated with the P² algorithm.
///
/// Exact for the first five observations; afterwards the estimate tracks
/// the true quantile with error that shrinks as the stream grows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct P2Quantile {
    p: f64,
    /// Marker heights (estimates of the 0, p/2, p, (1+p)/2, 1 quantiles).
    heights: [f64; 5],
    /// Actual marker positions (1-based observation ranks).
    pos: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    inc: [f64; 5],
    /// Observations seen.
    count: u64,
}

impl P2Quantile {
    /// Estimator for the `p`-quantile, `0 < p < 1`.
    ///
    /// # Panics
    /// Panics if `p` is outside `(0, 1)`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
        Self {
            p,
            heights: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            inc: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The target quantile.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Observations absorbed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Absorbs one observation. Non-finite values are ignored.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count < 5 {
            self.heights[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
            }
            return;
        }
        self.count += 1;

        // Find the cell and clamp the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // heights[k] <= x < heights[k+1]
            let mut k = 0;
            while k < 3 && x >= self.heights[k + 1] {
                k += 1;
            }
            k
        };

        for i in (k + 1)..5 {
            self.pos[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.inc[i];
        }

        // Adjust the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.pos[i];
            let right = self.pos[i + 1] - self.pos[i];
            let left = self.pos[i - 1] - self.pos[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.pos[i] += d;
            }
        }
    }

    /// Piecewise-parabolic (P²) height update for marker `i` moved by `d`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.pos;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabolic prediction leaves the bracket.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.pos;
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
    }

    /// Current estimate: `None` before the first observation; exact (via
    /// sorted interpolation) below five observations, P² beyond.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n @ 1..=4 => {
                let n = n as usize;
                let mut buf = [0.0; 4];
                buf[..n].copy_from_slice(&self.heights[..n]);
                let buf = &mut buf[..n];
                buf.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
                // Type-7 interpolation, matching `crate::quantile`.
                let h = self.p * (n as f64 - 1.0);
                let lo = h.floor() as usize;
                let hi = h.ceil() as usize;
                Some(buf[lo] + (h - lo as f64) * (buf[hi] - buf[lo]))
            }
            _ => Some(self.heights[2]),
        }
    }
}

/// A fixed bank of streamed quantiles fed from one stream (e.g. the
/// p50/p90/p99 wait-time percentiles the serving layer reports).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantileBank {
    estimators: Vec<P2Quantile>,
}

impl QuantileBank {
    /// A bank tracking each `ps` entry.
    ///
    /// # Panics
    /// Panics if any probability is outside `(0, 1)`.
    #[must_use]
    pub fn new(ps: &[f64]) -> Self {
        Self {
            estimators: ps.iter().map(|&p| P2Quantile::new(p)).collect(),
        }
    }

    /// Absorbs one observation into every estimator.
    pub fn observe(&mut self, x: f64) {
        for e in &mut self.estimators {
            e.observe(x);
        }
    }

    /// `(p, estimate)` pairs, in construction order.
    #[must_use]
    pub fn estimates(&self) -> Vec<(f64, Option<f64>)> {
        self.estimators
            .iter()
            .map(|e| (e.p(), e.estimate()))
            .collect()
    }

    /// Observations absorbed (same for every estimator).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.estimators.first().map_or(0, P2Quantile::count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile;
    use crate::rng::Rng;

    #[test]
    fn empty_estimator_has_no_estimate() {
        assert_eq!(P2Quantile::new(0.5).estimate(), None);
    }

    #[test]
    fn small_streams_are_exact() {
        let mut q = P2Quantile::new(0.5);
        q.observe(10.0);
        assert_eq!(q.estimate(), Some(10.0));
        q.observe(20.0);
        assert_eq!(q.estimate(), Some(15.0));
        q.observe(0.0);
        assert_eq!(q.estimate(), Some(10.0));
    }

    #[test]
    fn ignores_non_finite_observations() {
        let mut q = P2Quantile::new(0.5);
        q.observe(f64::NAN);
        q.observe(f64::INFINITY);
        assert_eq!(q.count(), 0);
        q.observe(7.0);
        assert_eq!(q.estimate(), Some(7.0));
    }

    #[test]
    fn median_of_uniform_stream_converges() {
        let mut rng = Rng::new(42);
        let mut q = P2Quantile::new(0.5);
        for _ in 0..20_000 {
            q.observe(rng.next_f64());
        }
        let est = q.estimate().unwrap();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    #[test]
    fn tail_quantile_tracks_exact_on_skewed_stream() {
        // Exponential-ish skew: the interesting case for wait times.
        let mut rng = Rng::new(7);
        let mut q = P2Quantile::new(0.9);
        let mut all = Vec::new();
        for _ in 0..20_000 {
            let x = -(1.0 - rng.next_f64()).ln() * 100.0;
            q.observe(x);
            all.push(x);
        }
        let exact = quantile(&all, 0.9);
        let est = q.estimate().unwrap();
        let rel = (est - exact).abs() / exact;
        assert!(rel < 0.05, "p90 estimate {est} vs exact {exact}");
    }

    #[test]
    fn constant_stream_is_exact() {
        let mut q = P2Quantile::new(0.99);
        for _ in 0..1_000 {
            q.observe(5.0);
        }
        assert_eq!(q.estimate(), Some(5.0));
    }

    #[test]
    fn bank_tracks_multiple_quantiles_in_order() {
        let mut bank = QuantileBank::new(&[0.5, 0.9, 0.99]);
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            bank.observe(rng.next_f64());
        }
        assert_eq!(bank.count(), 10_000);
        let ests: Vec<f64> = bank.estimates().iter().map(|&(_, e)| e.unwrap()).collect();
        assert!(ests[0] < ests[1] && ests[1] < ests[2]);
        assert!((ests[0] - 0.5).abs() < 0.03);
        assert!((ests[1] - 0.9).abs() < 0.03);
        assert!((ests[2] - 0.99).abs() < 0.03);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn rejects_out_of_range_p() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn serialized_estimator_continues_the_stream_exactly() {
        // Split a stream at an arbitrary point; the restored estimator must
        // report identical estimates for the rest of the stream (f64 JSON
        // round-trips are exact: shortest-roundtrip formatting).
        let mut rng = Rng::new(11);
        let xs: Vec<f64> = (0..5_000).map(|_| rng.next_f64() * 300.0).collect();
        let mut whole = P2Quantile::new(0.9);
        let mut first = P2Quantile::new(0.9);
        for &x in &xs[..1_237] {
            whole.observe(x);
            first.observe(x);
        }
        let json = serde_json::to_string(&first).unwrap();
        let mut restored: P2Quantile = serde_json::from_str(&json).unwrap();
        for &x in &xs[1_237..] {
            whole.observe(x);
            restored.observe(x);
        }
        assert_eq!(restored.count(), whole.count());
        assert_eq!(restored.estimate(), whole.estimate());
    }

    #[test]
    fn bank_round_trips_through_json() {
        let mut bank = QuantileBank::new(&[0.5, 0.99]);
        let mut rng = Rng::new(5);
        for _ in 0..500 {
            bank.observe(rng.next_f64());
        }
        let json = serde_json::to_string(&bank).unwrap();
        let restored: QuantileBank = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.count(), bank.count());
        assert_eq!(restored.estimates(), bank.estimates());
    }
}
