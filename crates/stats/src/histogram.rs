//! Linear and logarithmic histograms.
//!
//! The hourly-arrival panel of Fig. 1b is a 24-bin linear histogram;
//! runtime/size panels use log-spaced bins.

use serde::Serialize;

/// Fixed-width linear histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "lo must be < hi");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Per-bin counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations at or above `hi`.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total in-range observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Log-spaced histogram over `[lo, hi)` with `lo > 0`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LogHistogram {
    log_lo: f64,
    log_hi: f64,
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl LogHistogram {
    /// Creates a histogram with `bins` log-equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo <= 0` or `lo >= hi`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo > 0.0 && lo < hi, "need 0 < lo < hi");
        Self {
            log_lo: lo.ln(),
            log_hi: hi.ln(),
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.log_hi - self.log_lo) / self.counts.len() as f64;
            let idx = ((x.ln() - self.log_lo) / width) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Per-bin counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations at or above `hi`.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.0, 0.5, 1.0, 9.9] {
            h.add(x);
        }
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-1.0);
        h.add(1.0);
        h.add(5.0);
        h.add(f64::NAN);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn log_binning_spans_decades() {
        let mut h = LogHistogram::new(1.0, 1_000.0, 3);
        h.add(2.0); // decade [1,10)
        h.add(50.0); // decade [10,100)
        h.add(500.0); // decade [100,1000)
        assert_eq!(h.counts(), &[1, 1, 1]);
    }

    #[test]
    fn log_under_overflow() {
        let mut h = LogHistogram::new(1.0, 100.0, 2);
        h.add(0.5);
        h.add(100.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow(), 1);
    }
}
