//! Live scheduler metrics, fed from drained session events.
//!
//! Wait-time percentiles use the P² streaming estimators from
//! `lumos-stats`, so the server reports p50/p90/p99 waits in O(1) memory
//! no matter how long it runs.
//!
//! # Accuracy of the streamed percentiles
//!
//! P² is an approximation: it keeps five markers per percentile instead of
//! the whole stream. The estimates are **exact for the first five
//! observations** and, on the deterministic sequences pinned by this
//! module's tests (uniform, exponential-like, and bimodal wait
//! distributions of 10 000 observations), stay within **5 % relative
//! error** of the exact type-7 sample quantile — typically well under
//! 2 % for p50/p90. Pathological adversarial orderings can do worse; for
//! publication-grade numbers, compute exact quantiles offline from the
//! journal instead. The estimator state serializes losslessly (f64 JSON
//! round-trips are exact), so recovered servers continue the same
//! estimate trajectory to the bit.
//!
//! This state is part of every rotation snapshot, so the scheduler
//! ([`crate::server`]) absorbs events before any command that is not a
//! submission and at round end, before rotation and reply release, and
//! no batching counters live here. How often it absorbs moves no byte:
//! the live server's event log is in command order, the order journal
//! replay produces one record at a time.

use lumos_core::Duration;
use lumos_sim::{SimEvent, SimSession};
use lumos_stats::{QuantileBank, Summary};
use serde::{Deserialize, Serialize};

use crate::protocol::{
    PredictionStats, ReplicationStats, ServeStats, TenantServeStats, TenantsStats,
};

/// The percentiles `stats` reports.
pub(crate) const WAIT_PERCENTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// Streaming wait-time aggregates for one tenant, parallel to the
/// server's tenant table.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TenantWaits {
    wait_quantiles: QuantileBank,
    wait_summary: Summary,
}

impl TenantWaits {
    fn new() -> Self {
        Self {
            wait_quantiles: QuantileBank::new(&WAIT_PERCENTILES),
            wait_summary: Summary::new(),
        }
    }
}

/// The `rejected` key of checkpointed metrics. Refused submissions are
/// never journaled, so a count of them cannot be part of the state a
/// journal describes: a replay or a follower could not reproduce it. The
/// key stays in the format, written as `0`; whatever an older checkpoint
/// holds there is read and dropped.
#[derive(Debug, Clone, Copy)]
struct RetiredCounter;

impl Serialize for RetiredCounter {
    fn to_value(&self) -> serde::Value {
        serde::Value::I64(0)
    }
}

impl Deserialize for RetiredCounter {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        u64::from_value(v).map(|_| Self)
    }
}

/// Streaming aggregates over everything the session has done so far.
///
/// Serializable so a journaling server can checkpoint its metrics next to
/// the session state. Refusals are not in here: the scheduler and the
/// connections count them per process, and both counts reset on recovery.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LiveMetrics {
    bsld_bound: Duration,
    wait_quantiles: QuantileBank,
    wait_summary: Summary,
    bsld_summary: Summary,
    rejected: RetiredCounter,
    /// Completed jobs scored against their planned walltime.
    pred_scored: u64,
    /// Of those, jobs whose planned walltime undershot the true runtime.
    pred_under: u64,
    /// Absolute error |planned walltime − runtime| over scored jobs.
    pred_abs_err: Summary,
    /// Per-tenant wait aggregates in tenant-table order; `None` when the
    /// server runs without a tenant table — and in pre-tenancy
    /// checkpoints, which deserialize with `None`.
    tenant_waits: Option<Vec<TenantWaits>>,
}

impl LiveMetrics {
    /// Empty metrics with the configured bounded-slowdown bound.
    #[must_use]
    pub fn new(bsld_bound: Duration) -> Self {
        Self::new_with_tenants(bsld_bound, None)
    }

    /// [`LiveMetrics::new`] with per-tenant wait tracking for a tenant
    /// table of `tenants` entries.
    #[must_use]
    pub fn new_with_tenants(bsld_bound: Duration, tenants: Option<usize>) -> Self {
        Self {
            bsld_bound,
            wait_quantiles: QuantileBank::new(&WAIT_PERCENTILES),
            wait_summary: Summary::new(),
            bsld_summary: Summary::new(),
            rejected: RetiredCounter,
            pred_scored: 0,
            pred_under: 0,
            pred_abs_err: Summary::new(),
            tenant_waits: tenants.map(|n| (0..n).map(|_| TenantWaits::new()).collect()),
        }
    }

    /// Absorbs drained session events; `session` — the one that recorded
    /// them — supplies each job's columns by the row its event carries.
    pub fn absorb(&mut self, events: &[SimEvent], session: &SimSession) {
        for event in events {
            match *event {
                SimEvent::Started { row, wait, .. } => {
                    self.wait_quantiles.observe(wait as f64);
                    self.wait_summary.add(wait as f64);
                    if let (Some(banks), Some(tenant)) =
                        (self.tenant_waits.as_mut(), session.tenant_at(row))
                    {
                        if let Some(tw) = banks.get_mut(usize::from(tenant)) {
                            tw.wait_quantiles.observe(wait as f64);
                            tw.wait_summary.add(wait as f64);
                        }
                    }
                    if let Some(bsld) = session
                        .job_at(row)
                        .and_then(|j| j.bounded_slowdown(self.bsld_bound))
                    {
                        self.bsld_summary.add(bsld);
                    }
                }
                SimEvent::Finished { row, .. } => {
                    // Score the walltime the scheduler actually planned
                    // with against the observed runtime — with a predictor
                    // enabled this is live prediction accuracy.
                    if let (Some(job), Some(plan)) =
                        (session.job_at(row), session.plan_walltime_at(row))
                    {
                        self.pred_scored += 1;
                        if plan < job.runtime {
                            self.pred_under += 1;
                        }
                        self.pred_abs_err.add((plan - job.runtime).abs() as f64);
                    }
                }
                SimEvent::Cancelled { .. } => {}
            }
        }
    }

    /// The `stats` payload for the current session state.
    /// `rejected` counts the submissions this process refused (by the
    /// scheduler or by connection-side backpressure); `predictor` is the active
    /// walltime predictor's display name, if one is enabled;
    /// `replication` is the role/progress block on replicating servers.
    #[must_use]
    pub fn report(
        &self,
        session: &SimSession,
        rejected: u64,
        predictor: Option<&str>,
        replication: Option<ReplicationStats>,
    ) -> ServeStats {
        ServeStats {
            snapshot: session.snapshot(),
            wait_quantiles: self.wait_quantiles.estimates(),
            mean_wait: self.wait_summary.mean(),
            mean_bsld: self.bsld_summary.mean(),
            rejected,
            predictor: predictor.map(str::to_owned),
            prediction: PredictionStats {
                jobs: self.pred_scored,
                underestimate_rate: if self.pred_scored == 0 {
                    0.0
                } else {
                    self.pred_under as f64 / self.pred_scored as f64
                },
                mean_abs_error: self.pred_abs_err.mean(),
            },
            tenants: self.tenants_block(session),
            replication,
        }
    }

    /// The per-tenant rows plus Jain's fairness index, when tenancy is on.
    fn tenants_block(&self, session: &SimSession) -> Option<TenantsStats> {
        let usage = session.tenant_usage()?;
        // Fairness over weight-normalized delivered service, counting
        // only tenants that asked for anything: an idle tenant is not
        // being treated unfairly, it has no demand.
        let served: Vec<f64> = usage
            .iter()
            .filter(|u| u.counts.submitted > 0)
            .map(|u| u.served_unit_seconds as f64 / u.weight)
            .collect();
        let fairness = lumos_stats::jain_index(&served).unwrap_or(1.0);
        let empty: &[TenantWaits] = &[];
        let banks = self.tenant_waits.as_deref().unwrap_or(empty);
        let tenants = usage
            .into_iter()
            .enumerate()
            .map(|(i, u)| match banks.get(i) {
                Some(tw) => TenantServeStats {
                    usage: u,
                    wait_quantiles: tw.wait_quantiles.estimates(),
                    mean_wait: tw.wait_summary.mean(),
                },
                None => TenantServeStats {
                    usage: u,
                    wait_quantiles: WAIT_PERCENTILES.iter().map(|&p| (p, None)).collect(),
                    mean_wait: 0.0,
                },
            })
            .collect();
        Some(TenantsStats { fairness, tenants })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::{Job, SystemSpec};
    use lumos_sim::SimConfig;

    #[test]
    fn absorb_tracks_started_jobs() {
        let mut spec = SystemSpec::theta();
        spec.total_nodes = 100;
        spec.units_per_node = 1;
        spec.total_units = 100;
        let mut session = SimSession::new(&spec, SimConfig::default());
        let mut metrics = LiveMetrics::new(10);

        session.submit(Job::basic(1, 1, 0, 50, 100)).unwrap();
        session.submit(Job::basic(2, 1, 0, 50, 100)).unwrap();
        session.advance_to(200);
        let events = session.drain_events();
        metrics.absorb(&events, &session);

        let stats = metrics.report(&session, 0, None, None);
        assert_eq!(stats.snapshot.finished, 2);
        // Job 1 waits 0, job 2 waits 50.
        assert!((stats.mean_wait - 25.0).abs() < 1e-9);
        assert!(stats.mean_bsld >= 1.0);
        assert_eq!(stats.rejected, 0);
        let (p, est) = stats.wait_quantiles[0];
        assert!((p - 0.5).abs() < 1e-12);
        assert!(est.is_some());
    }

    /// The session frees a finished job's id, and `by_id` keeps resolving
    /// it to its first holder; events name the row, so the second holder
    /// is scored with its own wait, runtime and planned walltime.
    #[test]
    fn a_reused_id_is_scored_as_the_job_that_ran() {
        let mut spec = SystemSpec::theta();
        spec.total_nodes = 100;
        spec.units_per_node = 1;
        spec.total_units = 100;
        let mut session = SimSession::new(&spec, SimConfig::default());
        let mut metrics = LiveMetrics::new(10);
        let walled = |id, submit, runtime, walltime| Job {
            walltime: Some(walltime),
            ..Job::basic(id, 1, submit, runtime, 100)
        };

        // First holder of id 1: starts at once, estimate exact.
        session.submit(walled(1, 0, 1_000, 1_000)).unwrap();
        session.advance_to(1_000);
        metrics.absorb(&session.drain_events(), &session);
        // Second holder: waits 40 s behind job 2, runs twice its estimate.
        session.submit(walled(2, 1_000, 50, 50)).unwrap();
        session.submit(walled(1, 1_010, 20, 10)).unwrap();
        session.advance_to(2_000);
        metrics.absorb(&session.drain_events(), &session);
        assert_eq!(session.job(1).map(|j| j.runtime), Some(1_000), "first wins");

        let rows = 0..session.job_count();
        let per_job: Vec<(f64, i64)> = rows
            .map(|row| {
                let job = session.job_at(row).unwrap();
                let plan = session.plan_walltime_at(row).unwrap();
                (job.bounded_slowdown(10).unwrap(), plan - job.runtime)
            })
            .collect();
        assert_eq!(per_job, [(1.0, 0), (1.0, 0), (3.0, -10)]);
        let stats = metrics.report(&session, 0, None, None);
        assert!((stats.mean_bsld - 5.0 / 3.0).abs() < 1e-12, "{stats:?}");
        assert_eq!(stats.prediction.jobs, 3);
        assert!((stats.prediction.mean_abs_error - 10.0 / 3.0).abs() < 1e-12);
        assert!((stats.prediction.underestimate_rate - 1.0 / 3.0).abs() < 1e-12);
    }

    /// Feeds a deterministic wait sequence through the same `absorb` path
    /// the server uses (fabricated `Started` events against an empty
    /// session — rows past its table simply skip the slowdown lookup).
    fn absorb_waits(waits: &[f64]) -> LiveMetrics {
        let session = SimSession::new(&SystemSpec::theta(), SimConfig::default());
        let mut metrics = LiveMetrics::new(10);
        for (i, &w) in waits.iter().enumerate() {
            let events = [SimEvent::Started {
                id: i as u64,
                row: i,
                time: 0,
                wait: w as i64,
            }];
            metrics.absorb(&events, &session);
        }
        metrics
    }

    /// Asserts every reported percentile is within `bound` relative error
    /// of the exact type-7 quantile of `waits` (absolute error for
    /// near-zero quantiles).
    fn assert_quantiles_close(waits: &[f64], bound: f64) {
        let metrics = absorb_waits(waits);
        let session = SimSession::new(&SystemSpec::theta(), SimConfig::default());
        let stats = metrics.report(&session, 0, None, None);
        for &(p, est) in &stats.wait_quantiles {
            let est = est.expect("stream is non-empty");
            let exact = lumos_stats::quantile(waits, p);
            let err = if exact.abs() > 1.0 {
                (est - exact).abs() / exact.abs()
            } else {
                (est - exact).abs()
            };
            assert!(
                err <= bound,
                "p{}: estimate {est} vs exact {exact} (err {err:.4})",
                p * 100.0
            );
        }
    }

    // The deterministic sequences backing the documented 5% accuracy
    // bound (module docs). Waits are integer seconds on the wire, so the
    // generators round to integers before comparison.

    #[test]
    fn p2_tracks_uniform_waits_within_bound() {
        let mut rng = lumos_stats::Rng::new(1234);
        let waits: Vec<f64> = (0..10_000)
            .map(|_| (rng.next_f64() * 5_000.0).floor())
            .collect();
        assert_quantiles_close(&waits, 0.05);
    }

    #[test]
    fn p2_tracks_exponential_waits_within_bound() {
        // Skewed like real wait times: many short waits, a long tail.
        let mut rng = lumos_stats::Rng::new(99);
        let waits: Vec<f64> = (0..10_000)
            .map(|_| (-(1.0 - rng.next_f64()).ln() * 600.0).floor())
            .collect();
        assert_quantiles_close(&waits, 0.05);
    }

    #[test]
    fn p2_tracks_bimodal_waits_within_bound() {
        // Interactive jobs wait seconds; batch jobs wait hours.
        let mut rng = lumos_stats::Rng::new(7);
        let waits: Vec<f64> = (0..10_000)
            .map(|_| {
                if rng.next_f64() < 0.7 {
                    (rng.next_f64() * 30.0).floor()
                } else {
                    (3_600.0 + rng.next_f64() * 7_200.0).floor()
                }
            })
            .collect();
        assert_quantiles_close(&waits, 0.05);
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let mut rng = lumos_stats::Rng::new(5);
        let waits: Vec<f64> = (0..500).map(|_| (rng.next_f64() * 100.0).floor()).collect();
        let metrics = absorb_waits(&waits);
        let json = serde_json::to_string(&metrics).unwrap();
        let restored: LiveMetrics = serde_json::from_str(&json).unwrap();
        let session = SimSession::new(&SystemSpec::theta(), SimConfig::default());
        let a = metrics.report(&session, 0, None, None);
        let b = restored.report(&session, 0, None, None);
        assert_eq!(a, b, "restored metrics report identically");

        // Refusals are counted per process, not checkpointed: the key is
        // written as 0, and a count an older checkpoint holds is dropped.
        assert!(json.contains("\"rejected\":0,"), "{json}");
        let old = json.replace("\"rejected\":0,", "\"rejected\":3,");
        let read: LiveMetrics = serde_json::from_str(&old).unwrap();
        assert_eq!(serde_json::to_string(&read).unwrap(), json);
        assert_eq!(read.report(&session, 2, None, None).rejected, 2);
    }
}
