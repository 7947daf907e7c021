//! Streaming moments via Welford's algorithm.

use serde::{Deserialize, Serialize};

/// Streaming count / mean / variance / min / max accumulator.
/// Mergeable, so per-shard summaries from rayon workers combine exactly.
///
/// Serialization caveat: JSON has no `Infinity`, so the `min`/`max`
/// sentinels of an *empty* summary round-trip through `null` into NaN.
/// That is behaviorally transparent — `f64::min(NAN, x)` is `x`, and the
/// accessors gate on `n > 0` — but an empty summary is not `==` to its
/// round-tripped self. Non-empty summaries round-trip exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds from a slice.
    #[must_use]
    pub fn of(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.add(x);
        }
        s
    }

    /// Adds one observation (NaNs are ignored).
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary (Chan's parallel update).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observation count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty summary).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Minimum (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        assert!((s.sum() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1_000).map(|i| (i as f64).sin() * 100.0).collect();
        let whole = Summary::of(&xs);
        let mut a = Summary::of(&xs[..300]);
        let b = Summary::of(&xs[300..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::of(&[1.0, 2.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn nan_ignored() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_empty_summary_round_trips_exactly() {
        let s = Summary::of(&[1.5, -2.25, 300.0, 0.125]);
        let json = serde_json::to_string(&s).unwrap();
        let r: Summary = serde_json::from_str(&json).unwrap();
        assert_eq!(r, s);
    }

    #[test]
    fn empty_summary_round_trip_is_behaviorally_transparent() {
        // JSON null → NaN for the infinite sentinels; adding afterwards
        // still works because f64::min(NAN, x) == x.
        let json = serde_json::to_string(&Summary::new()).unwrap();
        let mut r: Summary = serde_json::from_str(&json).unwrap();
        assert_eq!(r.count(), 0);
        assert_eq!(r.min(), None);
        r.add(4.0);
        r.add(2.0);
        assert_eq!(r.min(), Some(2.0));
        assert_eq!(r.max(), Some(4.0));
    }
}
