//! The [`Job`] record and its exit-status trichotomy.

use serde::{Deserialize, Serialize};

use crate::time::{Duration, Timestamp};

/// Unique job identifier within a trace.
pub(crate) type JobId = u64;

/// Unique user identifier within a trace.
pub type UserId = u32;

/// Final exit status of a job (paper §IV.A).
///
/// The paper folds raw exit signals into three buckets: `SIGTERM`/`SIGKILL`
/// become [`JobStatus::Killed`] (terminated by an external actor — user
/// cancellation, walltime limit, preemption), `SIGABRT`/`SIGSEGV` become
/// [`JobStatus::Failed`] (the job itself crashed), and a clean exit is
/// [`JobStatus::Passed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum JobStatus {
    /// Job finished normally.
    Passed,
    /// Job failed mid-execution due to a technical issue (crash, assertion,
    /// segfault, bad configuration).
    Failed,
    /// Job was killed by external factors before finishing (cancellation,
    /// walltime limit, admin action).
    Killed,
}

impl JobStatus {
    /// All statuses, in the paper's presentation order.
    pub const ALL: [JobStatus; 3] = [JobStatus::Passed, JobStatus::Failed, JobStatus::Killed];

    /// Short label used in reports ("Passed" / "Failed" / "Killed").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Passed => "Passed",
            Self::Failed => "Failed",
            Self::Killed => "Killed",
        }
    }

    /// True if the job did not finish normally.
    #[must_use]
    pub fn is_unsuccessful(self) -> bool {
        !matches!(self, Self::Passed)
    }
}

/// A single execution instance submitted by a user (paper §II.C).
///
/// `procs` is the job's resource request in the system's *scheduling unit*:
/// CPU cores on Mira/Theta, GPUs on Philly/Helios, cores on the hybrid
/// Blue Waters. `nodes` is the node count the request maps to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Trace-unique identifier.
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Submission (arrival) time.
    pub submit: Timestamp,
    /// Observed waiting time in the queue, if the trace records one.
    /// Synthetic traces fill this by replaying through `lumos-sim`.
    pub wait: Option<Duration>,
    /// Actual execution time, in seconds (always ≥ 0; zero-length jobs exist
    /// in real traces and are kept).
    pub runtime: Duration,
    /// User-requested walltime limit, in seconds. Backfilling depends on it.
    /// DL traces (Philly/Helios) do not provide walltimes; `None` there.
    pub walltime: Option<Duration>,
    /// Resource units requested (cores for HPC systems, GPUs for DL systems).
    pub procs: u64,
    /// Number of nodes the request occupies.
    pub nodes: u32,
    /// Final exit status.
    pub status: JobStatus,
    /// Virtual cluster / partition the job is bound to (Philly-style
    /// isolation); `None` when the system schedules one global pool.
    pub virtual_cluster: Option<u16>,
}

impl Job {
    /// Creates a minimal passed job; convenient in tests and examples.
    #[must_use]
    pub fn basic(
        id: JobId,
        user: UserId,
        submit: Timestamp,
        runtime: Duration,
        procs: u64,
    ) -> Self {
        Self {
            id,
            user,
            submit,
            wait: None,
            runtime,
            walltime: None,
            procs,
            nodes: procs.max(1).min(u64::from(u32::MAX)) as u32,
            status: JobStatus::Passed,
            virtual_cluster: None,
        }
    }

    /// Core-hours (resource-hours) consumed: `procs × runtime / 3600`.
    #[must_use]
    pub fn core_hours(&self) -> f64 {
        (self.procs as f64) * (self.runtime as f64) / 3_600.0
    }

    /// Observed start time (`submit + wait`), if a wait was recorded.
    #[must_use]
    pub fn start(&self) -> Option<Timestamp> {
        self.wait.map(|w| self.submit + w)
    }

    /// Observed turnaround time (`wait + runtime`), if a wait was recorded.
    #[must_use]
    pub fn turnaround(&self) -> Option<Duration> {
        self.wait.map(|w| w + self.runtime)
    }

    /// Bounded slowdown with the given interactivity bound (paper §II.C,
    /// `bound` = 10 s in all experiments):
    /// `max(1, (wait + runtime) / max(runtime, bound))`.
    ///
    /// Returns `None` if the job has no recorded wait.
    #[must_use]
    pub fn bounded_slowdown(&self, bound: Duration) -> Option<f64> {
        let wait = self.wait? as f64;
        let run = self.runtime as f64;
        let denom = run.max(bound as f64);
        Some(((wait + run) / denom).max(1.0))
    }

    /// The walltime the scheduler should plan with: the user estimate if
    /// present, otherwise the actual runtime (perfect estimate fallback used
    /// for DL traces, which carry no walltimes).
    #[must_use]
    pub fn planning_walltime(&self) -> Duration {
        self.walltime.unwrap_or(self.runtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_hours_scales_with_procs_and_runtime() {
        let j = Job::basic(1, 1, 0, 7_200, 16);
        assert!((j.core_hours() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_slowdown_floors_at_one() {
        let mut j = Job::basic(1, 1, 0, 3_600, 1);
        j.wait = Some(0);
        assert_eq!(j.bounded_slowdown(10), Some(1.0));
    }

    #[test]
    fn bounded_slowdown_uses_interactive_bound_for_short_jobs() {
        // 1-second job waiting 99 seconds: raw slowdown would be 100,
        // bounded slowdown is (99 + 1) / max(1, 10) = 10.
        let mut j = Job::basic(1, 1, 0, 1, 1);
        j.wait = Some(99);
        assert_eq!(j.bounded_slowdown(10), Some(10.0));
    }

    #[test]
    fn bounded_slowdown_none_without_wait() {
        let j = Job::basic(1, 1, 0, 100, 1);
        assert_eq!(j.bounded_slowdown(10), None);
    }

    #[test]
    fn turnaround_and_start_derive_from_wait() {
        let mut j = Job::basic(3, 1, 50, 100, 1);
        assert_eq!(j.start(), None);
        j.wait = Some(25);
        assert_eq!(j.start(), Some(75));
        assert_eq!(j.turnaround(), Some(125));
    }

    #[test]
    fn planning_walltime_prefers_estimate() {
        let mut j = Job::basic(1, 1, 0, 100, 1);
        assert_eq!(j.planning_walltime(), 100);
        j.walltime = Some(500);
        assert_eq!(j.planning_walltime(), 500);
    }

    #[test]
    fn serde_roundtrip() {
        let mut j = Job::basic(9, 4, 1_000, 60, 8);
        j.status = JobStatus::Killed;
        j.virtual_cluster = Some(3);
        let s = serde_json::to_string(&j).unwrap();
        let back: Job = serde_json::from_str(&s).unwrap();
        assert_eq!(j, back);
    }
}
