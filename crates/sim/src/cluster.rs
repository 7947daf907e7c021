//! Cluster state: resource partitions, their queues and release ledgers.
//!
//! A machine is a set of partitions. Unpartitioned systems have exactly
//! one; Philly-style systems get one partition per isolated virtual
//! cluster (§III.B: "a job will be queued in each virtual cluster until its
//! requested GPUs are available in the same virtual cluster").

use lumos_core::{Duration, SystemSpec, Timestamp};

use crate::profile::ReleaseLedger;

/// A queued job as the backfill scan sees it: the table index plus the two
/// numbers every candidate test needs, stored inline so a scan of a queue
/// thousands deep reads one sequential array instead of chasing
/// `procs_eff[idx]` / `plan_wall[idx]` through an index list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// Index of the job in the simulator's job table.
    pub idx: usize,
    /// Effective request (clamped to the partition's capacity).
    pub procs: u64,
    /// Walltime the scheduler plans with.
    pub wall: Duration,
}

/// One isolated scheduling domain (the whole machine, or one virtual
/// cluster).
#[derive(Debug, Clone)]
pub struct Partition {
    /// Total resource units.
    pub capacity: u64,
    /// Currently free units.
    pub free: u64,
    /// Waiting jobs, kept sorted by scheduling priority.
    pub waiting: Vec<Waiter>,
    /// Who runs until when: the units each running job hands back, keyed
    /// by end estimate. The one structure the backfill disciplines plan
    /// from; which job holds which units stays in the session's tables.
    ledger: ReleaseLedger,
}

impl Partition {
    fn new(capacity: u64) -> Self {
        Self {
            capacity,
            free: capacity,
            waiting: Vec::new(),
            ledger: ReleaseLedger::new(capacity),
        }
    }

    /// The release ledger of the running jobs, as of the last
    /// [`Partition::prune_to`].
    #[must_use]
    pub fn ledger(&self) -> &ReleaseLedger {
        &self.ledger
    }

    /// Brings the ledger to `now` — first thing in every scheduling pass.
    pub fn prune_to(&mut self, now: Timestamp) {
        self.ledger.prune_to(now);
    }

    /// Starts a job of `procs` units the scheduler plans to see end at
    /// `end_estimate`.
    ///
    /// # Panics
    /// Panics (debug) if the job does not fit.
    pub fn start(&mut self, procs: u64, end_estimate: Timestamp) {
        debug_assert!(procs <= self.free, "starting a job that does not fit");
        self.free -= procs;
        self.ledger.add(end_estimate, procs);
    }

    /// Completes a running job, freeing the `procs` units it was started
    /// with; `end_estimate` is the one it was started with too.
    ///
    /// # Panics
    /// Panics if the ledger holds no such job.
    pub fn finish(&mut self, procs: u64, end_estimate: Timestamp) {
        self.ledger.remove(end_estimate, procs);
        self.free += procs;
    }
}

/// The whole machine.
#[derive(Debug, Clone)]
pub struct Cluster {
    partitions: Vec<Partition>,
}

impl Cluster {
    /// Builds the cluster. With `respect_virtual_clusters` and a spec
    /// declaring more than one VC, capacity is split across partitions with
    /// Zipf(½) weights (larger first) — production virtual clusters are
    /// deliberately uneven, and the heaviest groups own the biggest slices.
    /// Every partition receives at least one unit.
    #[must_use]
    pub fn new(spec: &SystemSpec, respect_virtual_clusters: bool) -> Self {
        let n = if respect_virtual_clusters {
            usize::from(spec.virtual_clusters.max(1))
        } else {
            1
        };
        if n == 1 {
            return Self {
                partitions: vec![Partition::new(spec.total_units)],
            };
        }
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).sqrt()).collect();
        let total_w: f64 = weights.iter().sum();
        let mut caps: Vec<u64> = weights
            .iter()
            .map(|w| ((w / total_w) * spec.total_units as f64).floor().max(1.0) as u64)
            .collect();
        let assigned: u64 = caps.iter().sum();
        // Give rounding leftovers to the largest partition.
        caps[0] += spec.total_units.saturating_sub(assigned);
        Self {
            partitions: caps.into_iter().map(Partition::new).collect(),
        }
    }

    /// Number of partitions.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total capacity across partitions.
    #[must_use]
    pub fn total_capacity(&self) -> u64 {
        self.partitions.iter().map(|p| p.capacity).sum()
    }

    /// Routes a job to a partition: its virtual cluster when bound and the
    /// job fits there; otherwise the largest partition (partition 0), the
    /// escalation path production clusters use for outsized requests.
    #[must_use]
    pub fn route(&self, virtual_cluster: Option<u16>, procs: u64) -> usize {
        match virtual_cluster {
            Some(vc) if self.partitions.len() > 1 => {
                let idx = usize::from(vc) % self.partitions.len();
                if procs <= self.partitions[idx].capacity {
                    idx
                } else {
                    0
                }
            }
            _ => 0,
        }
    }

    /// Immutable partition access.
    #[must_use]
    pub fn partition(&self, idx: usize) -> &Partition {
        &self.partitions[idx]
    }

    /// Mutable partition access.
    pub fn partition_mut(&mut self, idx: usize) -> &mut Partition {
        &mut self.partitions[idx]
    }

    /// Units in use across all partitions.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.partitions.iter().map(|p| p.capacity - p.free).sum()
    }

    /// Total waiting jobs across all partitions.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.partitions.iter().map(|p| p.waiting.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::SystemSpec;

    #[test]
    fn single_partition_for_unpartitioned_systems() {
        let c = Cluster::new(&SystemSpec::theta(), true);
        assert_eq!(c.partition_count(), 1);
        assert_eq!(c.total_capacity(), 281_088);
    }

    #[test]
    fn philly_splits_into_14_uneven_partitions() {
        let c = Cluster::new(&SystemSpec::philly(), true);
        assert_eq!(c.partition_count(), 14);
        assert_eq!(c.total_capacity(), 2_490);
        assert!(c.partition(0).capacity > c.partition(13).capacity);
        // The biggest partition must hold the biggest Philly request (256).
        assert!(c.partition(0).capacity >= 256);
    }

    #[test]
    fn respect_flag_off_gives_one_pool() {
        let c = Cluster::new(&SystemSpec::philly(), false);
        assert_eq!(c.partition_count(), 1);
        assert_eq!(c.total_capacity(), 2_490);
    }

    #[test]
    fn routing_escalates_oversized_jobs() {
        let c = Cluster::new(&SystemSpec::philly(), true);
        let small = c.route(Some(13), 1);
        assert_eq!(small, 13);
        let big = c.route(Some(13), c.partition(13).capacity + 1);
        assert_eq!(big, 0);
        assert_eq!(c.route(None, 1), 0);
    }

    #[test]
    fn start_and_finish_manage_units() {
        let mut c = Cluster::new(&SystemSpec::theta(), true);
        let p = c.partition_mut(0);
        p.prune_to(0);
        p.start(100, 50);
        assert_eq!(p.free, p.capacity - 100);
        assert_eq!(p.ledger().free_now(), p.capacity - 100);
        assert_eq!(p.ledger().earliest(p.capacity), (50, p.capacity));
        p.prune_to(40);
        p.finish(100, 50);
        assert_eq!(p.free, p.capacity);
        // The unused tail [40, 50) came back.
        assert_eq!(p.ledger().earliest(p.capacity), (40, p.capacity));
        assert!(p.ledger().is_empty());
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn finishing_unknown_job_panics() {
        let mut c = Cluster::new(&SystemSpec::theta(), true);
        c.partition_mut(0).finish(3, 10);
    }
}
