//! Online walltime providers: turn a runtime predictor into the per-job
//! planning estimates a backfilling scheduler consumes
//! (`lumos_sim::simulate_with_walltimes`).
//!
//! All providers are strictly *online*: the estimate for job *i* uses only
//! jobs submitted before it — no leakage of the job's own runtime.
//! Underestimated walltimes are the dangerous direction (Tsafrir et al.;
//! paper §VI.A), so every provider takes a multiplicative safety `margin`.

use lumos_core::{Duration, Trace};

use crate::online::{Last2Online, UserOnline};

/// Per-job walltime estimates from the Last2 predictor: the mean of the
/// user's last two observed runtimes × `margin`, falling back to the
/// running global mean for first-time users. Returns one estimate per job,
/// submit-ordered like `trace.jobs()`.
///
/// Delegates to the streaming [`Last2Online`] predictor — this is, by
/// construction, exactly what a predictor-enabled server computes when the
/// same jobs arrive one at a time.
///
/// # Panics
/// Panics if `margin <= 0`.
#[must_use]
pub fn last2_walltimes(trace: &Trace, margin: f64) -> Vec<Duration> {
    let mut model = Last2Online::new(margin);
    trace
        .jobs()
        .iter()
        .map(|j| {
            let estimate = model.predict(j.user, None);
            // Update the history only after predicting (strictly online).
            model.observe(j.user, j.runtime);
            estimate
        })
        .collect()
}

/// Oracle walltimes: the actual runtimes (+1 s so estimates are never
/// exceeded). The upper bound on what any predictor can deliver to the
/// scheduler.
#[must_use]
pub fn perfect_walltimes(trace: &Trace) -> Vec<Duration> {
    trace.jobs().iter().map(|j| j.runtime.max(1) + 1).collect()
}

/// The user-supplied walltimes (the baseline the paper's Fig. 12 models
/// compete against); jobs without one fall back to the Last2 estimate.
/// Delegates to the streaming [`UserOnline`] provider.
#[must_use]
pub fn user_walltimes(trace: &Trace, margin: f64) -> Vec<Duration> {
    let mut model = UserOnline::new(margin);
    trace
        .jobs()
        .iter()
        .map(|j| {
            let estimate = model.predict(j.user, j.walltime);
            model.observe(j.user, j.runtime);
            estimate
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::{Job, SystemSpec};

    fn trace(runtimes: &[(u32, i64)]) -> Trace {
        let jobs: Vec<Job> = runtimes
            .iter()
            .enumerate()
            .map(|(i, &(user, rt))| Job::basic(i as u64, user, i as i64 * 10, rt, 8))
            .collect();
        Trace::new(SystemSpec::theta(), jobs).unwrap()
    }

    #[test]
    fn last2_uses_only_past_jobs() {
        let t = trace(&[(1, 100), (1, 200), (1, 400)]);
        let w = last2_walltimes(&t, 1.0);
        // Job 0: cold start (1 h); job 1: last = 100; job 2: mean(100, 200).
        assert_eq!(w[0], 3_600);
        assert_eq!(w[1], 100);
        assert_eq!(w[2], 150);
    }

    #[test]
    fn margin_scales_estimates() {
        let t = trace(&[(1, 1_000), (1, 1_000), (1, 1_000)]);
        let w = last2_walltimes(&t, 1.5);
        assert_eq!(w[2], 1_500);
    }

    #[test]
    fn unknown_users_fall_back_to_global_mean() {
        let t = trace(&[(1, 1_000), (2, 50)]);
        let w = last2_walltimes(&t, 1.0);
        assert_eq!(w[1], 1_000, "user 2's first job uses the global mean");
    }

    #[test]
    fn estimates_are_floored_at_a_minute() {
        let t = trace(&[(1, 2), (1, 2), (1, 2)]);
        let w = last2_walltimes(&t, 1.0);
        assert!(w.iter().all(|&x| x >= 60));
    }

    #[test]
    fn perfect_walltimes_cover_runtimes() {
        let t = trace(&[(1, 100), (2, 0)]);
        let w = perfect_walltimes(&t);
        for (j, &wt) in t.jobs().iter().zip(&w) {
            assert!(wt > j.runtime);
        }
    }

    #[test]
    fn user_walltimes_prefer_the_trace_values() {
        let mut jobs = vec![Job::basic(0, 1, 0, 100, 8), Job::basic(1, 1, 10, 100, 8)];
        jobs[0].walltime = Some(500);
        let t = Trace::new(SystemSpec::theta(), jobs).unwrap();
        let w = user_walltimes(&t, 1.0);
        assert_eq!(w[0], 500);
        assert_eq!(w[1], 100, "missing walltime falls back to Last2");
    }
}
