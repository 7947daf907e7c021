//! Queue-length-conditioned submission behaviour — paper Figs. 9 & 10.
//!
//! For every submission event, reconstruct the queue length at that moment
//! (jobs submitted but not yet started), classify it into the short /
//! middle / long terciles of the *maximum observed* queue, and tabulate
//! what users request: resource class (Fig. 9, with the extra `Minimal`
//! bucket) and runtime class (Fig. 10). The paper's Takeaway 8: users
//! submit smaller jobs under congestion everywhere, and *shorter* jobs
//! under congestion only on the DL systems.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lumos_core::{QueueClass, RequestClass, RuntimeClass, Trace};
use serde::Serialize;

/// Figs. 9–10 data for one system.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SubmissionBehaviour {
    /// Maximum observed queue length.
    pub max_queue: usize,
    /// Submissions per queue class.
    pub submissions: [usize; 3],
    /// Fig. 9: `request_shares[queue_class][request_class]`
    /// (Minimal, Small, Middle, Large). `None` for empty queue classes.
    pub request_shares: [Option<[f64; 4]>; 3],
    /// Fig. 10: `runtime_shares[queue_class][runtime_class]`
    /// (Minimal, Short, Middle, Long).
    pub runtime_shares: [Option<[f64; 4]>; 3],
    /// Mean requested units per queue class.
    pub mean_procs: [Option<f64>; 3],
    /// Mean runtime per queue class.
    pub mean_runtime: [Option<f64>; 3],
}

/// Queue length observed by each job at its own submission instant:
/// the number of earlier-submitted jobs that have not yet started.
///
/// # Panics
/// Panics if any job lacks a wait — replay the trace first.
#[must_use]
pub(crate) fn queue_lengths_at_submission(replayed: &Trace) -> Vec<usize> {
    let mut starts: BinaryHeap<Reverse<i64>> = BinaryHeap::new();
    let mut out = Vec::with_capacity(replayed.len());
    for j in replayed.jobs() {
        // Jobs that started strictly before this submission leave the queue.
        while let Some(&Reverse(s)) = starts.peek() {
            if s <= j.submit {
                starts.pop();
            } else {
                break;
            }
        }
        out.push(starts.len());
        starts.push(Reverse(
            j.submit + j.wait.expect("replayed trace carries waits"),
        ));
    }
    out
}

/// Computes Figs. 9–10 for a replayed trace.
#[must_use]
pub fn submission_behaviour(replayed: &Trace) -> SubmissionBehaviour {
    let qlens = queue_lengths_at_submission(replayed);
    let max_queue = qlens.iter().copied().max().unwrap_or(0);

    let mut req_counts = [[0usize; 4]; 3];
    let mut run_counts = [[0usize; 4]; 3];
    let mut sub_counts = [0usize; 3];
    let mut procs_sum = [0.0f64; 3];
    let mut runtime_sum = [0.0f64; 3];
    for (j, &q) in replayed.jobs().iter().zip(&qlens) {
        let qc = QueueClass::classify(q, max_queue) as usize;
        sub_counts[qc] += 1;
        req_counts[qc][RequestClass::classify(j.procs, &replayed.system) as usize] += 1;
        run_counts[qc][RuntimeClass::classify(j.runtime) as usize] += 1;
        procs_sum[qc] += j.procs as f64;
        runtime_sum[qc] += j.runtime as f64;
    }

    let shares = |counts: [[usize; 4]; 3]| {
        [0, 1, 2].map(|qc| {
            let total: usize = counts[qc].iter().sum();
            (total > 0).then(|| counts[qc].map(|c| c as f64 / total as f64))
        })
    };
    let means = |sums: [f64; 3]| {
        [0, 1, 2].map(|qc| (sub_counts[qc] > 0).then(|| sums[qc] / sub_counts[qc] as f64))
    };

    SubmissionBehaviour {
        max_queue,
        submissions: sub_counts,
        request_shares: shares(req_counts),
        runtime_shares: shares(run_counts),
        mean_procs: means(procs_sum),
        mean_runtime: means(runtime_sum),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::{Job, SystemSpec};

    fn job(id: u64, submit: i64, wait: i64, runtime: i64, procs: u64) -> Job {
        let mut j = Job::basic(id, 1, submit, runtime, procs);
        j.wait = Some(wait);
        j
    }

    #[test]
    fn queue_lengths_count_pending_jobs() {
        let spec = SystemSpec::philly();
        // j1 starts at 100; j2 submitted at 10 sees 1 pending; j3 at 200
        // sees only j2 (j1 started), which starts at 150 ⇒ 0 pending.
        let jobs = vec![
            job(1, 0, 100, 50, 1),
            job(2, 10, 140, 50, 1),
            job(3, 200, 0, 50, 1),
        ];
        let t = Trace::new(spec, jobs).unwrap();
        assert_eq!(queue_lengths_at_submission(&t), vec![0, 1, 0]);
    }

    #[test]
    fn simultaneous_start_does_not_count() {
        let spec = SystemSpec::philly();
        // j1 starts exactly when j2 is submitted: not pending any more.
        let jobs = vec![job(1, 0, 10, 50, 1), job(2, 10, 0, 50, 1)];
        let t = Trace::new(spec, jobs).unwrap();
        assert_eq!(queue_lengths_at_submission(&t), vec![0, 0]);
    }

    #[test]
    fn behaviour_shares_sum_to_one() {
        let spec = SystemSpec::philly();
        let jobs: Vec<Job> = (0..100)
            .map(|i| {
                job(
                    i,
                    i as i64,
                    (i % 40) as i64 * 100,
                    60 + i as i64,
                    1 + (i % 16),
                )
            })
            .collect();
        let t = Trace::new(spec, jobs).unwrap();
        let b = submission_behaviour(&t);
        assert_eq!(b.submissions.iter().sum::<usize>(), 100);
        for qc in 0..3 {
            if let Some(shares) = b.request_shares[qc] {
                assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
            if let Some(shares) = b.runtime_shares[qc] {
                assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn adaptive_users_shrink_under_load() {
        // Construct a trace where congested-time submissions are 1 GPU and
        // idle-time submissions are 8 GPUs, then check the tabulation sees it.
        let spec = SystemSpec::philly();
        let mut jobs = Vec::new();
        // Phase 1: idle, big jobs, no waits.
        for i in 0..30u64 {
            jobs.push(job(i, i as i64, 0, 1_000, 8));
        }
        // Phase 2: a pile-up — everyone waits, submissions shrink to 1 GPU.
        for i in 30..60u64 {
            jobs.push(job(i, 1_000 + i as i64, 5_000, 100, 1));
        }
        let t = Trace::new(spec, jobs).unwrap();
        let b = submission_behaviour(&t);
        let short_queue = b.request_shares[0].unwrap();
        let long_queue = b.request_shares[2].unwrap();
        // Minimal share rises with congestion.
        assert!(long_queue[0] > short_queue[0]);
        assert!(b.mean_procs[0].unwrap() > b.mean_procs[2].unwrap());
    }
}
