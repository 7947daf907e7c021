//! Scheduling metrics (paper §II.C) and the utilization timeline (Fig. 3).

use lumos_core::{Duration, Job, Timestamp};
use serde::Serialize;

/// The paper's scheduling metrics over one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimMetrics {
    /// Jobs scheduled.
    pub jobs: usize,
    /// Mean waiting time (s) — `wait` in Table II.
    pub mean_wait: f64,
    /// Median waiting time (s).
    pub median_wait: f64,
    /// 90th-percentile waiting time (s).
    pub p90_wait: f64,
    /// Mean bounded slowdown, bound 10 s — `bsld` in Table II.
    pub mean_bsld: f64,
    /// Core-hour utilization over the makespan — `util` in Table II.
    pub util: f64,
    /// Mean reservation violation (s): over jobs that ever held a
    /// reservation, the average of `max(0, actual_start − promised_start)`
    /// — `violation` in Table II.
    pub violation: f64,
    /// Number of jobs that ever held a reservation.
    pub reserved_jobs: usize,
    /// Number of reserved jobs that started later than promised.
    pub violated_jobs: usize,
    /// Simulated makespan (first submit → last finish), seconds.
    pub makespan: Duration,
}

impl SimMetrics {
    /// Computes metrics from scheduled jobs (all waits must be filled),
    /// the machine capacity, and the recorded violations.
    ///
    /// # Panics
    /// Panics if any job lacks a wait (i.e. was never scheduled).
    #[must_use]
    pub fn compute(
        jobs: &[Job],
        capacity: u64,
        bsld_bound: Duration,
        violations: &[(Timestamp, Timestamp)],
    ) -> Self {
        assert!(!jobs.is_empty(), "metrics need at least one job");
        let mut waits: Vec<Duration> = jobs
            .iter()
            .map(|j| j.wait.expect("job was scheduled"))
            .collect();
        // In job order, as the sum over a float copy of the waits was.
        let mean_wait = waits.iter().map(|&w| w as f64).sum::<f64>() / waits.len() as f64;

        let first_submit = jobs.iter().map(|j| j.submit).min().expect("non-empty");
        let last_submit = jobs.iter().map(|j| j.submit).max().expect("non-empty");
        let last_finish = jobs
            .iter()
            .map(|j| j.submit + j.wait.expect("scheduled") + j.runtime)
            .max()
            .expect("non-empty");
        let makespan = (last_finish - first_submit).max(1);

        // Utilization is measured over the *submission window*, the way the
        // paper measures its four-month trace windows — otherwise a single
        // week-long job running past the last arrival dilutes the figure
        // with an artificially idle drain period. Jobs only contribute the
        // part of their execution that overlaps the window.
        let (w0, w1) = if last_submit > first_submit {
            (first_submit, last_submit)
        } else {
            (first_submit, last_finish)
        };
        let used_in_window: f64 = jobs
            .iter()
            .map(|j| {
                let start = j.submit + j.wait.expect("scheduled");
                let end = start + j.runtime;
                let overlap = (end.min(w1) - start.max(w0)).max(0);
                j.procs as f64 * overlap as f64
            })
            .sum();
        let util = used_in_window / (capacity as f64 * (w1 - w0).max(1) as f64);

        let delays: Vec<f64> = violations
            .iter()
            .map(|&(promised, actual)| (actual - promised).max(0) as f64)
            .collect();
        let violated = delays.iter().filter(|&&d| d > 0.0).count();
        let violation = if delays.is_empty() {
            0.0
        } else {
            delays.iter().sum::<f64>() / delays.len() as f64
        };

        let (median_wait, p90_wait) = median_p90(&mut waits);
        let bsld_sum: f64 = jobs
            .iter()
            .map(|j| j.bounded_slowdown(bsld_bound).expect("wait present"))
            .sum();

        Self {
            jobs: jobs.len(),
            mean_wait,
            median_wait,
            p90_wait,
            mean_bsld: bsld_sum / jobs.len() as f64,
            util,
            violation,
            reserved_jobs: delays.len(),
            violated_jobs: violated,
            makespan,
        }
    }
}

/// The median and 90th percentile of `waits`, bit for bit what
/// `lumos_stats::quantiles` gives on them as floats (type 7, the same
/// arithmetic), by selection instead of a sort. The 90th percentile's two
/// ranks are selected over the whole slice, which leaves the waits up to
/// its upper rank in front; the median's ranks are no higher, so they
/// are selected within that front.
fn median_p90(waits: &mut [Duration]) -> (f64, f64) {
    let n = waits.len();
    let quantile = |front: &mut [Duration], p: f64| {
        let h = p * (n - 1) as f64;
        let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
        front.select_nth_unstable(lo);
        if lo == hi {
            return (front[lo] as f64, hi);
        }
        // `hi` is `lo + 1`: the least wait above rank `lo`.
        front[hi..].select_nth_unstable(0);
        let frac = h - lo as f64;
        (
            front[lo] as f64 * (1.0 - frac) + front[hi] as f64 * frac,
            hi,
        )
    };
    let (p90, top) = quantile(waits, 0.9);
    let (median, _) = quantile(&mut waits[..=top], 0.5);
    (median, p90)
}

/// Used-units-over-time samples, recorded at every allocation change.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UtilizationTimeline {
    /// Machine capacity (denominator).
    pub capacity: u64,
    /// `(time, units_in_use)` at each change, time-ascending.
    pub points: Vec<(Timestamp, u64)>,
}

impl UtilizationTimeline {
    /// Time-weighted mean utilization over the recorded span.
    #[must_use]
    pub fn mean_util(&self) -> f64 {
        if self.points.len() < 2 || self.capacity == 0 {
            return 0.0;
        }
        let mut area = 0.0;
        for w in self.points.windows(2) {
            let dt = (w[1].0 - w[0].0) as f64;
            area += w[0].1 as f64 * dt;
        }
        let span = (self.points[self.points.len() - 1].0 - self.points[0].0) as f64;
        if span <= 0.0 {
            return 0.0;
        }
        area / (self.capacity as f64 * span)
    }

    /// Downsamples to `bins` equal time windows of mean utilization —
    /// the Fig. 3 series. Returns `(window_center_time, utilization)`.
    #[must_use]
    pub fn binned(&self, bins: usize) -> Vec<(Timestamp, f64)> {
        if self.points.len() < 2 || bins == 0 || self.capacity == 0 {
            return Vec::new();
        }
        let t0 = self.points[0].0;
        let t1 = self.points[self.points.len() - 1].0;
        if t1 <= t0 {
            return Vec::new();
        }
        let width = ((t1 - t0) as f64 / bins as f64).max(1.0);
        let mut out = Vec::with_capacity(bins);
        let mut idx = 0usize;
        let mut current = self.points[0].1;
        for b in 0..bins {
            let lo = t0 + (b as f64 * width) as Timestamp;
            let hi = t0 + ((b + 1) as f64 * width) as Timestamp;
            let mut area = 0.0;
            let mut cursor = lo;
            while idx + 1 < self.points.len() && self.points[idx + 1].0 <= hi {
                let next_t = self.points[idx + 1].0;
                if next_t > cursor {
                    area += current as f64 * (next_t - cursor) as f64;
                    cursor = next_t;
                }
                idx += 1;
                current = self.points[idx].1;
            }
            if hi > cursor {
                area += current as f64 * (hi - cursor) as f64;
            }
            let util = area / (self.capacity as f64 * (hi - lo).max(1) as f64);
            out.push((lo + (hi - lo) / 2, util));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::Job;
    use lumos_stats::quantiles;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn scheduled_job(id: u64, submit: i64, wait: i64, runtime: i64, procs: u64) -> Job {
        let mut j = Job::basic(id, 1, submit, runtime, procs);
        j.wait = Some(wait);
        j
    }

    #[test]
    fn metrics_basic() {
        let jobs = vec![
            scheduled_job(1, 0, 0, 100, 10),
            scheduled_job(2, 0, 100, 100, 10),
        ];
        let m = SimMetrics::compute(&jobs, 10, 10, &[]);
        assert_eq!(m.jobs, 2);
        assert!((m.mean_wait - 50.0).abs() < 1e-12);
        // Job 1 runs 0..100, job 2 runs 100..200: makespan 200, machine
        // fully busy ⇒ util 1. Used 2000 core-s of 10 × 200.
        assert!((m.util - 1.0).abs() < 1e-12);
        // bsld: job1 = 1, job2 = 200/100 = 2.
        assert!((m.mean_bsld - 1.5).abs() < 1e-12);
        assert_eq!(m.reserved_jobs, 0);
        assert_eq!(m.violation, 0.0);
    }

    #[test]
    fn violations_average_over_reserved_jobs() {
        let jobs = vec![scheduled_job(1, 0, 0, 10, 1)];
        let m = SimMetrics::compute(&jobs, 1, 10, &[(100, 160), (100, 100), (100, 90)]);
        assert_eq!(m.reserved_jobs, 3);
        assert_eq!(m.violated_jobs, 1);
        assert!((m.violation - 20.0).abs() < 1e-12);
    }

    /// `median_wait` and `p90_wait` over jobs with these waits, after
    /// asserting that they are, bit for bit, what `lumos_stats::quantiles`
    /// gives on the waits.
    fn order_statistics(waits: &[i64]) -> (f64, f64) {
        let jobs: Vec<Job> = (0..)
            .zip(waits)
            .map(|(i, &w)| scheduled_job(i, i as i64 % 7, w, 1 + i as i64 % 5, 1))
            .collect();
        let m = SimMetrics::compute(&jobs, 4, 10, &[]);
        let sample: Vec<f64> = waits.iter().map(|&w| w as f64).collect();
        let q = quantiles(&sample, &[0.5, 0.9]);
        assert_eq!(m.median_wait.to_bits(), q[0].to_bits(), "{waits:?}");
        assert_eq!(m.p90_wait.to_bits(), q[1].to_bits(), "{waits:?}");
        (m.median_wait, m.p90_wait)
    }

    /// `len` distinct waits below 2^40, in random order.
    fn distinct_waits(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<i64>> {
        prop::collection::vec(0i64..1 << 40, len).prop_map(|waits| {
            let mut seen = HashSet::new();
            waits.into_iter().filter(|&w| seen.insert(w)).collect()
        })
    }

    #[test]
    fn order_statistics_on_and_between_ranks() {
        // n = 11: 0.5 · 10 and 0.9 · 10 are whole, so both are waits.
        let on = order_statistics(&[40, 0, 7, 7, 300, 1, 0, 90, 7, 2, 55]);
        assert_eq!(on, (7.0, 90.0));
        // n = 4: 0.5 · 3 and 0.9 · 3 are not, so both interpolate.
        let (median, p90) = order_statistics(&[10, 0, 30, 20]);
        assert_eq!(median, 15.0);
        assert!(20.0 < p90 && p90 < 30.0, "{p90}");
        // n = 1: every quantile is the one wait; n = 2: both interpolate.
        assert_eq!(order_statistics(&[1 << 39]), (2f64.powi(39), 2f64.powi(39)));
        let (median, p90) = order_statistics(&[30, 10]);
        assert_eq!(median, 20.0);
        assert!(20.0 < p90 && p90 < 30.0, "{p90}");
    }

    proptest! {
        #[test]
        fn order_statistics_are_the_type7_quantiles(
            waits in prop_oneof![
                // Many ties.
                prop::collection::vec(0i64..12, 1..=300),
                // No ties, wide values, and the shortest samples.
                distinct_waits(1..=2),
                distinct_waits(1..=5_000),
            ],
        ) {
            order_statistics(&waits);
        }
    }

    #[test]
    fn timeline_mean_util() {
        let tl = UtilizationTimeline {
            capacity: 10,
            points: vec![(0, 10), (50, 0), (100, 0)],
        };
        // 10 units for 50s, 0 for 50s over capacity 10 × 100s = 0.5.
        assert!((tl.mean_util() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn timeline_binned_matches_step_function() {
        let tl = UtilizationTimeline {
            capacity: 10,
            points: vec![(0, 10), (50, 0), (100, 0)],
        };
        let bins = tl.binned(2);
        assert_eq!(bins.len(), 2);
        assert!((bins[0].1 - 1.0).abs() < 1e-9);
        assert!((bins[1].1 - 0.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_timelines_are_safe() {
        let tl = UtilizationTimeline {
            capacity: 10,
            points: vec![(5, 3)],
        };
        assert_eq!(tl.mean_util(), 0.0);
        assert!(tl.binned(4).is_empty());
    }
}
