//! Queue-ordering policies.
//!
//! A policy assigns each waiting job a priority key; the scheduler keeps
//! the waiting queue sorted ascending by `(key, submit, id)` and always
//! tries to start the head first (paper §II.C lists FCFS and SJF as the
//! canonical strategies; SAF and LJF are common baselines in the SchedGym
//! line of work).

use lumos_core::Job;
use serde::{Deserialize, Serialize};

/// Queue-ordering strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Policy {
    /// First-Come-First-Serve: order by submit time.
    #[default]
    Fcfs,
    /// Shortest-Job-First: order by requested walltime.
    Sjf,
    /// Longest-Job-First: reverse SJF (a deliberately bad baseline).
    Ljf,
    /// Smallest-Area-First: order by `procs × walltime`.
    Saf,
    /// Smallest-Job-First: order by requested processors.
    Sqf,
    /// Max-min fair-share: order by the owning tenant's current usage
    /// share (running resource units over partition capacity), so the
    /// least-served tenant's jobs run first; FCFS order within a tenant.
    MaxMinFair,
    /// Weighted fair-share: max-min over *weight-normalized* shares, so a
    /// tenant with weight 2 is entitled to twice the machine of weight 1.
    WeightedFair,
}

impl Policy {
    /// All policies (for sweeps).
    pub const ALL: [Policy; 7] = [
        Policy::Fcfs,
        Policy::Sjf,
        Policy::Ljf,
        Policy::Saf,
        Policy::Sqf,
        Policy::MaxMinFair,
        Policy::WeightedFair,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Fcfs => "FCFS",
            Self::Sjf => "SJF",
            Self::Ljf => "LJF",
            Self::Saf => "SAF",
            Self::Sqf => "SQF",
            Self::MaxMinFair => "MaxMin",
            Self::WeightedFair => "WFair",
        }
    }

    /// Whether this policy orders by live tenant usage share. Fair-share
    /// queues are re-sorted at every scheduling pass (shares move as jobs
    /// start and finish) instead of relying on the static insertion key.
    #[must_use]
    pub(crate) fn is_fair_share(self) -> bool {
        matches!(self, Self::MaxMinFair | Self::WeightedFair)
    }

    /// Whether fair-share ordering divides each tenant's share by its
    /// configured weight.
    #[must_use]
    pub(crate) fn is_weighted(self) -> bool {
        matches!(self, Self::WeightedFair)
    }

    /// Priority key; smaller runs earlier. Ties are broken by
    /// `(submit, id)` in the scheduler, making every ordering total and
    /// deterministic.
    #[must_use]
    pub fn key(self, job: &Job) -> f64 {
        self.key_with(job, job.planning_walltime())
    }

    /// [`Self::key`] with an explicit planning walltime — used when a
    /// runtime predictor supplies the scheduler's estimates instead of the
    /// user (`simulate_with_walltimes`).
    #[must_use]
    pub(crate) fn key_with(self, job: &Job, walltime: lumos_core::Duration) -> f64 {
        match self {
            Self::Fcfs => job.submit as f64,
            Self::Sjf => walltime as f64,
            Self::Ljf => -(walltime as f64),
            Self::Saf => walltime as f64 * job.procs as f64,
            Self::Sqf => job.procs as f64,
            // Fair-share policies rank by live tenant share, which is not a
            // property of the job; the static key degrades to FCFS order so
            // ties between equally-served tenants stay arrival-ordered.
            Self::MaxMinFair | Self::WeightedFair => job.submit as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::Job;

    fn job(id: u64, submit: i64, runtime: i64, procs: u64, walltime: Option<i64>) -> Job {
        let mut j = Job::basic(id, 1, submit, runtime, procs);
        j.walltime = walltime;
        j
    }

    #[test]
    fn fcfs_orders_by_submit() {
        let a = job(1, 10, 100, 1, None);
        let b = job(2, 20, 1, 1, None);
        assert!(Policy::Fcfs.key(&a) < Policy::Fcfs.key(&b));
    }

    #[test]
    fn sjf_uses_walltime_falling_back_to_runtime() {
        let short = job(1, 0, 10, 1, Some(50));
        let long = job(2, 0, 5, 1, Some(500));
        assert!(Policy::Sjf.key(&short) < Policy::Sjf.key(&long));
        // Without walltime the actual runtime is the planning estimate.
        let no_wt = job(3, 0, 10, 1, None);
        assert_eq!(Policy::Sjf.key(&no_wt), 10.0);
    }

    #[test]
    fn ljf_is_reverse_of_sjf() {
        let short = job(1, 0, 10, 1, Some(50));
        let long = job(2, 0, 10, 1, Some(500));
        assert!(Policy::Ljf.key(&long) < Policy::Ljf.key(&short));
    }

    #[test]
    fn saf_multiplies_area() {
        let thin = job(1, 0, 100, 1, Some(100));
        let fat = job(2, 0, 10, 100, Some(10));
        assert!(Policy::Saf.key(&thin) < Policy::Saf.key(&fat));
    }

    #[test]
    fn sqf_orders_by_procs() {
        let small = job(1, 0, 1_000, 2, None);
        let big = job(2, 0, 1, 64, None);
        assert!(Policy::Sqf.key(&small) < Policy::Sqf.key(&big));
    }

    #[test]
    fn fair_share_static_keys_degrade_to_fcfs() {
        let early = job(1, 10, 500, 64, Some(900));
        let late = job(2, 20, 1, 1, Some(5));
        for p in [Policy::MaxMinFair, Policy::WeightedFair] {
            assert!(p.is_fair_share());
            assert!(p.key(&early) < p.key(&late));
        }
        assert!(Policy::WeightedFair.is_weighted());
        assert!(!Policy::MaxMinFair.is_weighted());
        assert!(!Policy::Fcfs.is_fair_share());
    }

    #[test]
    fn all_lists_every_policy_once() {
        assert_eq!(Policy::ALL.len(), 7);
        for (i, a) in Policy::ALL.iter().enumerate() {
            for b in &Policy::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
