//! The [`Trace`] container: an ordered job stream bound to a system.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::job::{Job, JobStatus, UserId};
use crate::system::SystemSpec;
use crate::time::{Duration, Timestamp};

/// A job trace: every job observed on one system over some window,
/// sorted by submit time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The system the jobs ran on.
    pub system: SystemSpec,
    jobs: Vec<Job>,
}

impl Trace {
    /// Builds a trace, sorting jobs by `(submit, id)` and validating against
    /// the system spec.
    ///
    /// # Errors
    /// Rejects empty job lists, jobs larger than the machine, and negative
    /// time fields.
    pub fn new(system: SystemSpec, mut jobs: Vec<Job>) -> Result<Self> {
        system.validate()?;
        if jobs.is_empty() {
            return Err(CoreError::EmptyTrace);
        }
        jobs.sort_unstable_by_key(|j| (j.submit, j.id));
        for j in &jobs {
            if j.procs == 0 || j.procs > system.total_units {
                return Err(CoreError::OversizedJob {
                    job: j.id,
                    requested: j.procs,
                    capacity: system.total_units,
                });
            }
            if j.runtime < 0 {
                return Err(CoreError::InvalidTime {
                    job: j.id,
                    what: "negative runtime",
                });
            }
            if let Some(w) = j.wait {
                if w < 0 {
                    return Err(CoreError::InvalidTime {
                        job: j.id,
                        what: "negative wait",
                    });
                }
            }
            if let Some(wt) = j.walltime {
                if wt < 0 {
                    return Err(CoreError::InvalidTime {
                        job: j.id,
                        what: "negative walltime",
                    });
                }
            }
        }
        Ok(Self { system, jobs })
    }

    /// All jobs, sorted by submit time.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the trace holds no jobs (never true for a validated trace).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// First submit time.
    #[must_use]
    pub fn start_time(&self) -> Timestamp {
        self.jobs.first().map_or(0, |j| j.submit)
    }

    /// Last submit time.
    #[must_use]
    pub fn end_time(&self) -> Timestamp {
        self.jobs.last().map_or(0, |j| j.submit)
    }

    /// Submission span (`end_time - start_time`).
    #[must_use]
    pub fn span(&self) -> Duration {
        self.end_time() - self.start_time()
    }

    /// Distinct users, ascending.
    #[must_use]
    pub fn users(&self) -> Vec<UserId> {
        let mut u: Vec<UserId> = self.jobs.iter().map(|j| j.user).collect();
        u.sort_unstable();
        u.dedup();
        u
    }

    /// The `n` users who submitted the most jobs, descending by job count
    /// (ties broken by user id for determinism). Paper §V.C analyses the
    /// top-3 heaviest users per system.
    #[must_use]
    pub fn top_users(&self, n: usize) -> Vec<(UserId, usize)> {
        use std::collections::HashMap;
        let mut counts: HashMap<UserId, usize> = HashMap::new();
        for j in &self.jobs {
            *counts.entry(j.user).or_insert(0) += 1;
        }
        let mut v: Vec<(UserId, usize)> = counts.into_iter().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Count of jobs with the given status.
    #[must_use]
    pub fn count_status(&self, status: JobStatus) -> usize {
        self.jobs.iter().filter(|j| j.status == status).count()
    }

    /// Restricts the trace to jobs submitted in `[from, to)`.
    ///
    /// # Errors
    /// Returns [`CoreError::EmptyTrace`] if no jobs fall in the window.
    pub fn window(&self, from: Timestamp, to: Timestamp) -> Result<Trace> {
        let jobs: Vec<Job> = self
            .jobs
            .iter()
            .filter(|j| j.submit >= from && j.submit < to)
            .cloned()
            .collect();
        Trace::new(self.system.clone(), jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemSpec;

    fn tiny_system() -> SystemSpec {
        let mut s = SystemSpec::theta();
        s.name = "tiny".into();
        s
    }

    fn job(id: u64, user: UserId, submit: Timestamp) -> Job {
        Job::basic(id, user, submit, 100, 64)
    }

    #[test]
    fn new_sorts_by_submit() {
        let t = Trace::new(
            tiny_system(),
            vec![job(2, 1, 50), job(1, 1, 10), job(3, 2, 30)],
        )
        .unwrap();
        let submits: Vec<_> = t.jobs().iter().map(|j| j.submit).collect();
        assert_eq!(submits, vec![10, 30, 50]);
        assert_eq!(t.start_time(), 10);
        assert_eq!(t.end_time(), 50);
        assert_eq!(t.span(), 40);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Trace::new(tiny_system(), vec![]).unwrap_err(),
            CoreError::EmptyTrace
        );
    }

    #[test]
    fn rejects_oversized_jobs() {
        let sys = tiny_system();
        let mut j = job(1, 1, 0);
        j.procs = sys.total_units + 1;
        assert!(matches!(
            Trace::new(sys, vec![j]).unwrap_err(),
            CoreError::OversizedJob { .. }
        ));
    }

    #[test]
    fn rejects_zero_proc_jobs() {
        let mut j = job(1, 1, 0);
        j.procs = 0;
        assert!(Trace::new(tiny_system(), vec![j]).is_err());
    }

    #[test]
    fn rejects_negative_times() {
        let mut j = job(1, 1, 0);
        j.runtime = -1;
        assert!(matches!(
            Trace::new(tiny_system(), vec![j]).unwrap_err(),
            CoreError::InvalidTime { .. }
        ));

        let mut j = job(1, 1, 0);
        j.wait = Some(-5);
        assert!(Trace::new(tiny_system(), vec![j]).is_err());
    }

    #[test]
    fn top_users_orders_by_count_then_id() {
        let jobs = vec![
            job(1, 10, 0),
            job(2, 10, 1),
            job(3, 20, 2),
            job(4, 20, 3),
            job(5, 30, 4),
        ];
        let t = Trace::new(tiny_system(), jobs).unwrap();
        let top = t.top_users(2);
        assert_eq!(top, vec![(10, 2), (20, 2)]);
    }

    #[test]
    fn window_filters_by_submit() {
        let t = Trace::new(
            tiny_system(),
            vec![job(1, 1, 0), job(2, 1, 100), job(3, 1, 200)],
        )
        .unwrap();
        let w = t.window(50, 200).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w.jobs()[0].id, 2);
        assert!(t.window(1_000, 2_000).is_err());
    }
}
