//! Batch trace replay.
//!
//! [`simulate`] replays a whole trace through the incremental engine
//! ([`SimSession`]): every job is submitted up front and the session runs
//! to completion. Because both paths share one event loop, a batch replay
//! and an online session fed the same arrivals produce identical
//! schedules; see `crate::session` for the determinism contract.

use lumos_core::{Duration, Job, Trace};
use serde::{Deserialize, Serialize};

use crate::backfill::{Backfill, Relax};
use crate::metrics::{SimMetrics, UtilizationTimeline};
use crate::policy::Policy;
use crate::session::{SimSession, Submission};

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Queue-ordering policy.
    pub policy: Policy,
    /// Backfilling discipline.
    pub backfill: Backfill,
    /// Reservation relaxation (EASY only).
    pub relax: Relax,
    /// Bounded-slowdown interactivity bound (paper: 10 s).
    pub bsld_bound: Duration,
    /// Honour the system's virtual-cluster partitioning (Philly).
    pub respect_virtual_clusters: bool,
    /// Record the utilization timeline (Fig. 3). Cheap; on by default.
    pub record_timeline: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            policy: Policy::Fcfs,
            backfill: Backfill::Easy,
            relax: Relax::Strict,
            bsld_bound: 10,
            respect_virtual_clusters: true,
            record_timeline: true,
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The trace's jobs with observed waits filled in, submit-ordered.
    pub jobs: Vec<Job>,
    /// Aggregate scheduling metrics.
    pub metrics: SimMetrics,
    /// Used-units-over-time (empty if `record_timeline` was off).
    pub timeline: UtilizationTimeline,
    /// Largest waiting-queue length observed (summed over partitions).
    pub max_queue_len: usize,
    /// Discrete events the engine processed (arrivals + completions) —
    /// the denominator for events/sec throughput reporting.
    pub events: u64,
}

/// Replays `trace` under `config`.
///
/// # Panics
/// Panics on an empty trace (which `Trace::new` already prevents).
#[must_use]
pub fn simulate(trace: &Trace, config: &SimConfig) -> SimResult {
    replay(trace, config, None)
}

/// Replays `trace` with scheduler-side walltime estimates overriding the
/// user-supplied ones — the hook that puts a runtime *predictor* (paper
/// §VI.A: "schedulers may reversely predict job run time, which is helpful
/// in making effective scheduling decisions") into the backfilling loop.
/// `walltimes[i]` is the planning estimate for `trace.jobs()[i]`; values
/// are floored at 1 s. Jobs still run their true runtimes — only the
/// scheduler's plan changes.
///
/// # Panics
/// Panics if `walltimes.len() != trace.len()`.
#[must_use]
pub fn simulate_with_walltimes(
    trace: &Trace,
    config: &SimConfig,
    walltimes: &[Duration],
) -> SimResult {
    assert_eq!(
        walltimes.len(),
        trace.len(),
        "one walltime estimate per job"
    );
    replay(trace, config, Some(walltimes))
}

fn replay(trace: &Trace, config: &SimConfig, walltimes: Option<&[Duration]>) -> SimResult {
    // Historical traces are not guaranteed to have unique job ids (SWF
    // files occasionally reuse them). Nothing here looks a job up by id,
    // so the replay session keeps no id index: every job runs, an id only
    // breaks `(submit, id)` ties, and the result is in row order.
    let mut session = SimSession::for_replay(&trace.system, *config, trace.len());
    for (i, job) in trace.jobs().iter().enumerate() {
        session
            .submit(Submission {
                job: job.clone(),
                tenant: None,
                walltime: walltimes.map(|w| w[i]),
            })
            .expect("trace jobs were validated by Trace::new");
    }
    session.into_result()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lumos_core::SystemSpec;

    /// Tiny 100-unit test system.
    pub(crate) fn tiny() -> SystemSpec {
        let mut s = SystemSpec::theta();
        s.name = "tiny".into();
        s.total_nodes = 100;
        s.units_per_node = 1;
        s.total_units = 100;
        s
    }

    /// A job of user 1 with a walltime.
    pub(crate) fn job(id: u64, submit: i64, runtime: i64, procs: u64, walltime: i64) -> Job {
        let mut job = Job::basic(id, 1, submit, runtime, procs);
        job.walltime = Some(walltime);
        job
    }

    fn run(jobs: Vec<Job>, config: SimConfig) -> SimResult {
        let trace = Trace::new(tiny(), jobs).unwrap();
        simulate(&trace, &config)
    }

    fn wait_of(result: &SimResult, id: u64) -> i64 {
        result
            .jobs
            .iter()
            .find(|j| j.id == id)
            .and_then(|j| j.wait)
            .unwrap()
    }

    #[test]
    fn immediate_start_when_idle() {
        let r = run(vec![job(1, 0, 100, 50, 100)], SimConfig::default());
        assert_eq!(wait_of(&r, 1), 0);
        assert_eq!(r.metrics.mean_wait, 0.0);
    }

    #[test]
    fn fcfs_without_backfill_blocks() {
        let cfg = SimConfig {
            backfill: Backfill::None,
            ..SimConfig::default()
        };
        // Job 1 uses the whole machine for 100 s; job 2 (tiny) waits even
        // though it would fit alongside nothing; job 3 also waits.
        let r = run(
            vec![
                job(1, 0, 100, 100, 100),
                job(2, 1, 10, 100, 10),
                job(3, 2, 10, 1, 10),
            ],
            cfg,
        );
        assert_eq!(wait_of(&r, 1), 0);
        assert_eq!(wait_of(&r, 2), 99);
        // FCFS: job 3 starts only after job 2 completes (head blocking).
        assert_eq!(wait_of(&r, 3), 108);
    }

    #[test]
    fn easy_backfills_harmless_jobs() {
        // Machine 100. Job1: 100 units 100 s. Job2: 100 units (head, blocked
        // until t=100). Job3: 1 unit, 50 s — ends before the shadow (100),
        // so EASY starts it immediately... but job1 holds all 100 units, so
        // it cannot. Give job1 only 90 units so 10 are free.
        let r = run(
            vec![
                job(1, 0, 100, 90, 100),
                job(2, 1, 100, 100, 100),
                job(3, 2, 50, 10, 50),
            ],
            SimConfig::default(),
        );
        assert_eq!(wait_of(&r, 1), 0);
        // Job 3 backfills at t=2 (ends t=52 ≤ shadow t=100).
        assert_eq!(wait_of(&r, 3), 0);
        // Job 2 starts right when job 1 ends.
        assert_eq!(wait_of(&r, 2), 99);
        assert_eq!(r.metrics.violated_jobs, 0, "strict EASY never violates");
    }

    #[test]
    fn easy_rejects_backfill_that_would_delay_head() {
        // Job3 would end at t=2+200=202 > shadow 100 and needs 10 > extra 0.
        let r = run(
            vec![
                job(1, 0, 100, 90, 100),
                job(2, 1, 100, 100, 100),
                job(3, 2, 200, 10, 200),
            ],
            SimConfig::default(),
        );
        assert_eq!(wait_of(&r, 2), 99);
        // Job 3 cannot start before job 2 (it would delay it): it runs after
        // job 2 starts at t=100 alongside? Job2 takes all 100 units, so job3
        // waits for job2's completion at t=200.
        assert_eq!(wait_of(&r, 3), 198);
    }

    #[test]
    fn easy_uses_extra_units_at_shadow() {
        // Job1: 90 units until 100. Job2 (head): needs 50 ⇒ shadow = 100,
        // extra = free_at(100) − 50 = 50. Job3: 10 units, long (ends past
        // shadow) but fits in extra ⇒ backfills.
        let r = run(
            vec![
                job(1, 0, 100, 90, 100),
                job(2, 1, 100, 50, 100),
                job(3, 2, 500, 10, 500),
            ],
            SimConfig::default(),
        );
        assert_eq!(wait_of(&r, 3), 0);
        // Head still starts at 100 exactly: 90 freed, 10 used by job3,
        // 50 needed ≤ 100 − 10.
        assert_eq!(wait_of(&r, 2), 99);
        assert_eq!(r.metrics.violated_jobs, 0);
    }

    #[test]
    fn relaxed_backfilling_allows_bounded_delay() {
        // Strict EASY rejects job3 (ends past shadow, exceeds extra).
        // Relaxed with a big factor accepts it, delaying job2.
        let jobs = vec![
            job(1, 0, 100, 90, 100),
            job(2, 1, 100, 100, 100),
            job(3, 2, 150, 10, 150),
        ];
        let strict = run(jobs.clone(), SimConfig::default());
        assert_eq!(wait_of(&strict, 3), 198);

        let relaxed = run(
            jobs,
            SimConfig {
                relax: Relax::Fixed { factor: 0.9 },
                ..SimConfig::default()
            },
        );
        // Job3 ends at 2+150 = 152 ≤ shadow 100 + 0.9×(100−1) = 189 ⇒ backfills.
        assert_eq!(wait_of(&relaxed, 3), 0);
        // Job2 is delayed until job3 finishes at t=152.
        assert_eq!(wait_of(&relaxed, 2), 151);
        assert_eq!(relaxed.metrics.violated_jobs, 1);
        assert!((relaxed.metrics.violation - 52.0).abs() < 1e-9);
    }

    #[test]
    fn relaxed_allowance_is_anchored_to_the_original_promise() {
        // Machine 100. Job 1 holds 50 units until t=1000; job 2 (the head,
        // 100 units) is promised the shadow time t=1000. With factor 0.5
        // the allowance is 0.5 × (1000 − 1) = 499 s, so the head's start
        // must never slip past 1000 + 499 = 1499. Job 3 (ends 2+1300=1302
        // ≤ 1499) backfills and pushes the shadow to 1302; job 4 (ends
        // 3+1700=1703) must NOT: re-deriving the allowance from the
        // recomputed shadow would accept it (1703 ≤ 1302 + 0.5×1301 =
        // 1952) and every such round would relax an already-delayed
        // reservation — unbounded cumulative head delay.
        let jobs = vec![
            job(1, 0, 1_000, 50, 1_000),
            job(2, 1, 10, 100, 10),
            job(3, 2, 1_300, 25, 1_300),
            job(4, 3, 1_700, 25, 1_700),
        ];
        for relax in [Relax::Fixed { factor: 0.5 }, Relax::Adaptive { base: 0.5 }] {
            let r = run(
                jobs.clone(),
                SimConfig {
                    relax,
                    ..SimConfig::default()
                },
            );
            assert_eq!(wait_of(&r, 3), 0, "job 3 fits inside the allowance");
            let head_start = 1 + wait_of(&r, 2);
            assert!(
                head_start <= 1_499,
                "head start {head_start} exceeds promise 1000 + allowance 499 ({relax:?})"
            );
            // The head starts exactly when job 3 releases its units.
            assert_eq!(head_start, 1_302);
            assert_eq!(wait_of(&r, 4), 1_309, "job 4 waits behind the head");
            assert_eq!(r.metrics.violated_jobs, 1, "only the head is delayed");
        }
    }

    #[test]
    fn batch_traces_with_duplicate_ids_keep_first_wins() {
        // Historical traces (SWF) occasionally reuse job ids, even while
        // the first holder is live. Batch replay has no id lookups, so a
        // repeated id is only a label: every submission runs, in row
        // order. Only the incremental API rejects live duplicates.
        let r = run(
            vec![job(7, 0, 100, 100, 100), job(7, 1, 50, 100, 50)],
            SimConfig::default(),
        );
        assert_eq!(r.jobs.len(), 2, "both submissions run");
        assert_eq!(r.metrics.jobs, 2);
        let waits: Vec<_> = r.jobs.iter().map(|j| j.wait.unwrap()).collect();
        assert_eq!(waits, vec![0, 99]);
    }

    #[test]
    fn adaptive_relaxation_vanishes_on_short_queues() {
        // Same scenario: with a tiny queue, the adaptive factor ≈ base×(2/2)
        // is actually full here (queue of 2 equals the running max), so use
        // more jobs to check it ramps. With an empty history, first block
        // sets max_queue = qlen so factor = base; to observe a *reduced*
        // factor we need the queue to shrink later. Simplest check: adaptive
        // with base 0 behaves strictly.
        let jobs = vec![
            job(1, 0, 100, 90, 100),
            job(2, 1, 100, 100, 100),
            job(3, 2, 150, 10, 150),
        ];
        let adaptive0 = run(
            jobs,
            SimConfig {
                relax: Relax::Adaptive { base: 0.0 },
                ..SimConfig::default()
            },
        );
        assert_eq!(wait_of(&adaptive0, 3), 198);
        assert_eq!(adaptive0.metrics.violated_jobs, 0);
    }

    #[test]
    fn conservative_backfilling_starts_fitting_jobs() {
        let r = run(
            vec![
                job(1, 0, 100, 90, 100),
                job(2, 1, 100, 100, 100),
                job(3, 2, 50, 10, 50),
            ],
            SimConfig {
                backfill: Backfill::Conservative,
                ..SimConfig::default()
            },
        );
        assert_eq!(wait_of(&r, 3), 0, "harmless job backfills conservatively");
        assert_eq!(wait_of(&r, 2), 99);
    }

    #[test]
    fn sjf_reorders_queue() {
        let cfg = SimConfig {
            policy: Policy::Sjf,
            backfill: Backfill::None,
            ..SimConfig::default()
        };
        // Machine busy until t=100; then SJF picks the shortest first.
        let r = run(
            vec![
                job(1, 0, 100, 100, 100),
                job(2, 1, 1_000, 100, 1_000),
                job(3, 2, 10, 100, 10),
            ],
            cfg,
        );
        assert_eq!(wait_of(&r, 3), 98, "short job starts at t=100");
        assert_eq!(wait_of(&r, 2), 109, "long job starts after the short one");
    }

    #[test]
    fn virtual_clusters_isolate_queues() {
        // Two VCs; jobs bound to VC with free capacity elsewhere still wait.
        let mut spec = tiny();
        spec.virtual_clusters = 2;
        let mk = |id: u64, submit: i64, vc: u16, procs: u64| {
            let mut j = job(id, submit, 100, procs, 100);
            j.virtual_cluster = Some(vc);
            j
        };
        // Zipf(0.5) split of 100: vc0 ≈ 59, vc1 ≈ 41.
        let trace = Trace::new(
            spec,
            vec![mk(1, 0, 1, 40), mk(2, 1, 1, 40), mk(3, 2, 0, 10)],
        )
        .unwrap();
        let r = simulate(&trace, &SimConfig::default());
        assert_eq!(wait_of(&r, 1), 0);
        // Job 2 waits for VC1 although VC0 has room.
        assert!(wait_of(&r, 2) > 0);
        assert_eq!(wait_of(&r, 3), 0);

        // Without VC isolation it runs immediately.
        let r2 = simulate(
            &trace,
            &SimConfig {
                respect_virtual_clusters: false,
                ..SimConfig::default()
            },
        );
        assert_eq!(wait_of(&r2, 2), 0);
    }

    #[test]
    fn util_and_timeline_are_consistent() {
        let r = run(
            vec![job(1, 0, 100, 100, 100), job(2, 0, 100, 100, 100)],
            SimConfig::default(),
        );
        // Two full-machine jobs back to back: util = 1 over [0, 200].
        assert!((r.metrics.util - 1.0).abs() < 1e-9);
        assert!((r.timeline.mean_util() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_runtime_jobs_complete() {
        let r = run(
            vec![job(1, 0, 0, 100, 10), job(2, 0, 10, 100, 10)],
            SimConfig::default(),
        );
        assert_eq!(wait_of(&r, 1), 0);
        assert_eq!(wait_of(&r, 2), 0);
    }

    #[test]
    fn oversized_job_is_clamped_not_stuck() {
        let mut spec = tiny();
        spec.virtual_clusters = 2;
        let mut j = job(1, 0, 10, 90, 10);
        j.virtual_cluster = Some(1); // VC1 capacity ≈ 41 < 90 ⇒ escalates to VC0
        let trace = Trace::new(spec, vec![j]).unwrap();
        let r = simulate(&trace, &SimConfig::default());
        assert_eq!(wait_of(&r, 1), 0);
    }

    #[test]
    fn every_job_gets_scheduled_under_all_configs() {
        let jobs: Vec<Job> = (0..200)
            .map(|i| {
                job(
                    i,
                    i64::from(i as u32) * 3,
                    50 + (i % 7) as i64 * 20,
                    1 + (i % 30),
                    200,
                )
            })
            .collect();
        for backfill in [Backfill::None, Backfill::Easy, Backfill::Conservative] {
            for policy in Policy::ALL {
                let r = run(
                    jobs.clone(),
                    SimConfig {
                        policy,
                        backfill,
                        ..SimConfig::default()
                    },
                );
                assert!(r.jobs.iter().all(|j| j.wait.is_some()));
                assert_eq!(r.jobs.len(), 200);
            }
        }
    }
}
