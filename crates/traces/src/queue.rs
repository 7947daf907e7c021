//! A lightweight FCFS queue model that gives the generator a live backlog
//! signal.
//!
//! The paper's Figs. 9–10 show users reacting to the *current queue length*
//! when they submit. Reproducing that requires the generator to know, at
//! every arrival instant, how congested the system is — so generation and a
//! cheap FCFS simulation are co-routined: each submitted job is pushed into
//! this model, and each new arrival first advances it to "now" and reads the
//! backlog. (The *full* scheduler in `lumos-sim` replays the finished trace
//! later with real backfilling; this model only has to get congestion
//! roughly right, not scheduling exactly right.)

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use lumos_core::system::virtual_cluster_units;
use lumos_core::Timestamp;

/// FCFS backlog model over a fixed pool of resource units.
#[derive(Debug, Clone)]
pub(crate) struct FeedbackQueue {
    capacity: u64,
    free: u64,
    /// Running jobs as `(finish_time, procs)`, min-heap by finish time.
    running: BinaryHeap<Reverse<(Timestamp, u64)>>,
    /// Waiting jobs as `(procs, runtime)`, FIFO.
    waiting: VecDeque<(u64, i64)>,
}

impl FeedbackQueue {
    /// Creates an empty model with `capacity` resource units.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "queue model needs capacity");
        Self {
            capacity,
            free: capacity,
            running: BinaryHeap::new(),
            waiting: VecDeque::new(),
        }
    }

    /// Advances the model to time `now`: completes finished jobs in event
    /// order and starts waiting jobs FCFS *at the completion instants that
    /// freed the space* (so finish times do not drift with the polling
    /// granularity).
    pub fn advance(&mut self, now: Timestamp) {
        while let Some(&Reverse((finish, procs))) = self.running.peek() {
            if finish > now {
                break;
            }
            self.running.pop();
            self.free += procs;
            // FCFS admission at the completion instant. A stuck head blocks
            // everything behind it (no backfilling in this model).
            while let Some(&(p, r)) = self.waiting.front() {
                if p <= self.free {
                    self.waiting.pop_front();
                    self.start(finish, p, r);
                } else {
                    break;
                }
            }
        }
        // Nothing left to complete by `now`; admit whatever still fits.
        while let Some(&(p, r)) = self.waiting.front() {
            if p <= self.free {
                self.waiting.pop_front();
                self.start(now, p, r);
            } else {
                break;
            }
        }
    }

    fn start(&mut self, at: Timestamp, procs: u64, runtime: i64) {
        debug_assert!(procs <= self.free);
        self.free -= procs;
        self.running.push(Reverse((at + runtime, procs)));
    }

    /// Submits a job at time `now` (the model must already be advanced to
    /// `now`). Jobs larger than capacity are clamped.
    pub fn submit(&mut self, now: Timestamp, procs: u64, runtime: i64) {
        let procs = procs.min(self.capacity);
        if self.waiting.is_empty() && procs <= self.free {
            self.start(now, procs, runtime);
        } else {
            self.waiting.push_back((procs, runtime));
        }
    }

    /// Current number of waiting jobs.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    /// Congestion fraction in `[0, 1]` against an expected maximum backlog.
    #[must_use]
    pub fn congestion(&self, expected_max: usize) -> f64 {
        if expected_max == 0 {
            return 0.0;
        }
        (self.queue_len() as f64 / expected_max as f64).min(1.0)
    }
}

/// A partitioned feedback model: one [`FeedbackQueue`] per virtual cluster,
/// split by [`virtual_cluster_units`] as `lumos-sim` splits its cluster.
/// On unpartitioned systems this degenerates to one queue.
#[derive(Debug, Clone)]
pub(crate) struct FeedbackCluster {
    queues: Vec<FeedbackQueue>,
}

impl FeedbackCluster {
    /// Splits `capacity` across `partitions` virtual clusters.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `partitions == 0`.
    #[must_use]
    pub fn new(capacity: u64, partitions: u16) -> Self {
        assert!(capacity > 0 && partitions > 0);
        Self {
            queues: virtual_cluster_units(capacity, usize::from(partitions))
                .into_iter()
                .map(FeedbackQueue::new)
                .collect(),
        }
    }

    fn index(&self, vc: Option<u16>) -> usize {
        match vc {
            Some(v) if self.queues.len() > 1 => usize::from(v) % self.queues.len(),
            _ => 0,
        }
    }

    /// Advances every partition to `now`.
    pub fn advance(&mut self, now: Timestamp) {
        for q in &mut self.queues {
            q.advance(now);
        }
    }

    /// Submits a job into its partition.
    pub fn submit(&mut self, vc: Option<u16>, now: Timestamp, procs: u64, runtime: i64) {
        let idx = self.index(vc);
        self.queues[idx].submit(now, procs, runtime);
    }

    /// Congestion the submitting user perceives: their own partition's
    /// backlog against `expected_max` (interpreted per partition).
    #[must_use]
    pub fn congestion(&self, vc: Option<u16>, expected_max: usize) -> f64 {
        self.queues[self.index(vc)].congestion(expected_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_immediately_when_idle() {
        let mut q = FeedbackQueue::new(100);
        q.advance(0);
        q.submit(0, 50, 10);
        assert_eq!(q.queue_len(), 0);
        assert_eq!(q.capacity - q.free, 50);
    }

    #[test]
    fn queues_when_full_and_drains_fcfs() {
        let mut q = FeedbackQueue::new(100);
        q.advance(0);
        q.submit(0, 100, 10);
        q.advance(1);
        q.submit(1, 60, 10);
        q.submit(1, 60, 10);
        assert_eq!(q.queue_len(), 2);
        // First job finishes at t=10; only one waiting job fits at a time.
        q.advance(10);
        assert_eq!(q.queue_len(), 1);
        assert_eq!(q.capacity - q.free, 60);
        q.advance(20);
        assert_eq!(q.queue_len(), 0);
        assert_eq!(q.capacity - q.free, 60);
    }

    #[test]
    fn fcfs_head_blocks_smaller_followers() {
        let mut q = FeedbackQueue::new(100);
        q.advance(0);
        q.submit(0, 90, 100);
        q.submit(0, 50, 10); // must wait for the 90 to finish
        q.submit(0, 5, 10); // would fit now, but FCFS blocks it
        assert_eq!(q.queue_len(), 2);
        q.advance(50);
        assert_eq!(q.queue_len(), 2, "head still running, nothing starts");
        q.advance(100);
        assert_eq!(q.queue_len(), 0, "both fit after the head finishes");
    }

    #[test]
    fn cascading_completions_in_one_advance() {
        let mut q = FeedbackQueue::new(10);
        q.advance(0);
        q.submit(0, 10, 5); // finishes t=5
        q.submit(0, 10, 5); // starts t=5, finishes t=10
        q.submit(0, 10, 5); // starts t=10
        assert_eq!(q.queue_len(), 2);
        q.advance(12);
        assert_eq!(q.queue_len(), 0);
        assert_eq!(q.capacity - q.free, 10);
        q.advance(15);
        assert_eq!(q.capacity - q.free, 0);
    }

    #[test]
    fn congestion_fraction_saturates() {
        let mut q = FeedbackQueue::new(1);
        q.advance(0);
        for _ in 0..20 {
            q.submit(0, 1, 100);
        }
        assert_eq!(q.queue_len(), 19);
        assert!((q.congestion(10) - 1.0).abs() < 1e-12);
        assert!((q.congestion(100) - 0.19).abs() < 1e-12);
    }

    #[test]
    fn oversized_jobs_are_clamped() {
        let mut q = FeedbackQueue::new(10);
        q.advance(0);
        q.submit(0, 1_000, 10);
        assert_eq!(q.capacity - q.free, 10);
    }
}
