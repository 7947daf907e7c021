//! Prediction datasets built from traces.
//!
//! One [`Instance`] per job, with features computable *at prediction time*
//! (no leakage of the actual runtime): the static request, the submitting
//! hour, the user's history so far, and — for the "with elapsed" variants —
//! the job's elapsed execution time. Instances are chronological, so the
//! train/test split is a time split, matching how an online scheduler
//! predictor would be deployed.

use lumos_core::{hour_of_day, JobStatus, Trace, UserId};
use std::collections::HashMap;

/// Number of static features (excluding the elapsed-time feature).
pub const STATIC_FEATURES: usize = 8;

/// One prediction instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Submitting user.
    pub user: UserId,
    /// Static features (length [`STATIC_FEATURES`]).
    pub features: [f64; STATIC_FEATURES],
    /// Actual runtime (seconds, ≥ 1) — the prediction target.
    pub runtime: f64,
    /// Walltime if the trace carries one.
    pub walltime: Option<f64>,
    /// True when the job was killed at its walltime — a right-censored
    /// observation for the Tobit model.
    pub censored: bool,
    /// Runtimes of this user's previous jobs (most recent last, capped).
    pub history: Vec<f64>,
}

/// A chronological dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Instances, submit-ordered.
    pub instances: Vec<Instance>,
}

/// How much per-user history each instance carries.
const HISTORY: usize = 8;

impl Dataset {
    /// Builds the dataset from a trace. Jobs with runtime 0 are kept with
    /// runtime 1 (they exist in real traces).
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        // Per user: the runtimes so far and their running sum, which adds
        // them in the order a fresh sum over the list would.
        let mut history: HashMap<UserId, (Vec<f64>, f64)> = HashMap::new();
        let mut instances = Vec::with_capacity(trace.len());
        for j in trace.jobs() {
            let (user_hist, user_sum) = history.entry(j.user).or_default();
            let runtime = j.runtime.max(1) as f64;
            let last = user_hist.last().copied().unwrap_or(0.0);
            let last2 = if user_hist.len() >= 2 {
                (user_hist[user_hist.len() - 1] + user_hist[user_hist.len() - 2]) / 2.0
            } else {
                last
            };
            let mean = if user_hist.is_empty() {
                0.0
            } else {
                *user_sum / user_hist.len() as f64
            };
            let features = [
                (j.procs as f64).ln_1p(),
                j.walltime.map_or(0.0, |w| (w.max(1) as f64).ln()),
                f64::from(j.walltime.is_some()),
                f64::from(hour_of_day(j.submit, trace.system.tz_offset)) / 24.0,
                last.max(1.0).ln(),
                last2.max(1.0).ln(),
                mean.max(1.0).ln(),
                (user_hist.len() as f64).ln_1p(),
            ];
            instances.push(Instance {
                user: j.user,
                features,
                runtime,
                walltime: j.walltime.map(|w| w.max(1) as f64),
                censored: j.status == JobStatus::Killed
                    && j.walltime.is_some_and(|w| j.runtime >= w),
                history: user_hist[user_hist.len().saturating_sub(HISTORY)..].to_vec(),
            });
            user_hist.push(runtime);
            *user_sum += runtime;
        }
        Self { instances }
    }

    /// Chronological split: the first `train_frac` of instances train, the
    /// rest test.
    ///
    /// # Panics
    /// Panics unless `0 < train_frac < 1`.
    #[must_use]
    pub fn split(&self, train_frac: f64) -> (&[Instance], &[Instance]) {
        assert!(train_frac > 0.0 && train_frac < 1.0, "bad split fraction");
        let cut = ((self.instances.len() as f64) * train_frac) as usize;
        let cut = cut.clamp(1, self.instances.len().saturating_sub(1));
        self.instances.split_at(cut)
    }

    /// Number of instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::{Job, SystemSpec};

    fn trace() -> Trace {
        let mut jobs = Vec::new();
        for i in 0..10u64 {
            let mut j = Job::basic(i, (i % 2) as u32, i as i64 * 100, 100 + i as i64, 64);
            j.walltime = Some(1_000);
            jobs.push(j);
        }
        Trace::new(SystemSpec::theta(), jobs).unwrap()
    }

    #[test]
    fn history_is_strictly_past_and_per_user() {
        let d = Dataset::from_trace(&trace());
        assert_eq!(d.len(), 10);
        // First job of each user has empty history.
        assert!(d.instances[0].history.is_empty());
        assert!(d.instances[1].history.is_empty());
        // Third job of user 0 (index 4) has seen runtimes 100 and 102.
        assert_eq!(d.instances[4].history, vec![100.0, 102.0]);
    }

    #[test]
    fn features_have_no_runtime_leakage() {
        // Two traces differing only in a job's runtime must produce the same
        // features for that job.
        let t1 = trace();
        let mut jobs: Vec<Job> = t1.jobs().to_vec();
        jobs[9].runtime = 99_999;
        let t2 = Trace::new(t1.system.clone(), jobs).unwrap();
        let d1 = Dataset::from_trace(&t1);
        let d2 = Dataset::from_trace(&t2);
        assert_eq!(d1.instances[9].features, d2.instances[9].features);
    }

    #[test]
    fn censoring_flags_killed_at_walltime() {
        let spec = SystemSpec::theta();
        let mut killed = Job::basic(1, 1, 0, 1_000, 64);
        killed.walltime = Some(1_000);
        killed.status = lumos_core::JobStatus::Killed;
        let mut free = Job::basic(2, 1, 1, 500, 64);
        free.walltime = Some(1_000);
        free.status = lumos_core::JobStatus::Killed;
        let d = Dataset::from_trace(&Trace::new(spec, vec![killed, free]).unwrap());
        assert!(d.instances[0].censored);
        assert!(!d.instances[1].censored);
    }

    #[test]
    fn split_is_chronological() {
        let d = Dataset::from_trace(&trace());
        let (train, test) = d.split(0.6);
        assert_eq!(train.len(), 6);
        assert_eq!(test.len(), 4);
        assert!(train.last().unwrap().runtime <= test.first().unwrap().runtime);
    }
}
