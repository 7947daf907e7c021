//! Incremental simulation sessions.
//!
//! [`SimSession`] is the discrete-event core of the simulator exposed as a
//! stepwise API: jobs are submitted one at a time ([`SimSession::submit`]),
//! virtual time moves forward explicitly ([`SimSession::advance_to`]), and
//! observers read what happened through [`SimSession::drain_events`] and
//! [`SimSession::snapshot`]. Batch replay ([`crate::simulate`]) is a thin
//! wrapper — submit everything, run to completion — so both paths share one
//! event loop and produce identical schedules for identical arrivals.
//!
//! The event model is unchanged from the batch engine: arrivals and
//! completions are the only events; at each event time the affected
//! partitions re-run a scheduling pass (policy-ordered head start +
//! backfilling). Determinism: ties are broken by `(priority, submit, id)`
//! everywhere, so interleaving `submit`/`advance_to` calls in any valid
//! order yields the same schedule as one batch run.
//!
//! Here: the types, submit / cancel, the event loop, the accessors.
//! `passes`: the queue order and the scheduling passes. `state`: the save
//! format.

mod finishes;
mod passes;
mod state;

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use lumos_core::{CoreError, Duration, Job, Result, SystemSpec, Timestamp};
use serde::{Deserialize, Serialize};

use crate::backfill::Backfill;
use crate::cluster::{Cluster, Waiter};
use crate::counts::{Divergence, PassCounts};
use crate::metrics::{SimMetrics, UtilizationTimeline};
use crate::profile::CapacityProfile;
use crate::simulator::{SimConfig, SimResult};
use crate::tenant::{TenantId, TenantState, TenantTable, TenantUsage};

use finishes::FinishQueue;
use state::SavedMark;
pub use state::{SessionState, StateDelta};

/// Lifecycle state of a job inside a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted, but its submit time is still in the future.
    Pending,
    /// Arrived and sitting in a partition's waiting queue.
    Waiting,
    /// Currently executing.
    Running,
    /// Completed execution.
    Finished,
    /// Cancelled before it started.
    Cancelled,
}

impl JobState {
    /// Pending, waiting or running: the job's row can still change. A
    /// finished or cancelled row never does.
    #[must_use]
    pub fn is_live(self) -> bool {
        matches!(self, Self::Pending | Self::Waiting | Self::Running)
    }
}

/// Something that happened inside the session, in event order.
///
/// `Started` and `Finished` name their job twice: by the client's `id`,
/// and by `row`, its index in the session's job table. The row is what
/// [`SimSession::job_at`] and its siblings take — an array read where
/// the id costs a hash probe — and it is exact where the id is not: a
/// reused id resolves to its *first* holder, a row to the job the event
/// is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimEvent {
    /// A job left the waiting queue and began executing.
    Started {
        /// Job id.
        id: u64,
        /// The job's row in the session's table.
        row: usize,
        /// Simulation time it started.
        time: Timestamp,
        /// Observed waiting time (`start − submit`).
        wait: Duration,
    },
    /// A running job completed.
    Finished {
        /// Job id.
        id: u64,
        /// The job's row in the session's table.
        row: usize,
        /// Simulation time it finished.
        time: Timestamp,
    },
    /// A job was cancelled before it started.
    Cancelled {
        /// Job id.
        id: u64,
        /// Simulation time of the cancellation.
        time: Timestamp,
    },
}

/// Point-in-time view of a session's state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionSnapshot {
    /// Current simulation time (last processed or advanced-to instant).
    pub now: Timestamp,
    /// Jobs ever submitted (including finished and cancelled).
    pub submitted: usize,
    /// Jobs submitted whose arrival time is still in the future.
    pub pending: usize,
    /// Jobs sitting in waiting queues across all partitions.
    pub waiting: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs that completed.
    pub finished: usize,
    /// Jobs cancelled before starting.
    pub cancelled: usize,
    /// Resource units in use.
    pub used_units: u64,
    /// Total machine capacity in units.
    pub capacity: u64,
    /// Instantaneous utilization (`used_units / capacity`).
    pub utilization: f64,
}

/// One submission: the job, plus what the scheduler — not the trace —
/// decides about it. `Submission::from(job)` leaves both decisions to
/// the session.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The job as the client described it.
    pub job: Job,
    /// Owning tenant (from [`SimSession::resolve_tenant`]). `None`
    /// assigns the built-in `default` tenant when tenancy is enabled.
    pub tenant: Option<TenantId>,
    /// Scheduler-side walltime estimate overriding the user-supplied one
    /// (the runtime-predictor hook; floored at 1 s). The job still runs
    /// its true runtime — only the scheduler's plan changes.
    pub walltime: Option<Duration>,
}

impl From<Job> for Submission {
    fn from(job: Job) -> Self {
        Self {
            job,
            tenant: None,
            walltime: None,
        }
    }
}

/// An incremental scheduling simulation.
///
/// Jobs must be submitted with `submit >= now` (no rewriting history);
/// `advance_to` processes all arrivals and completions up to and including
/// the target time. See the module docs for the determinism contract.
#[derive(Debug)]
pub struct SimSession {
    config: SimConfig,
    jobs: Vec<Job>,
    /// Per-job effective request, clamped to its partition's capacity so
    /// every job is schedulable.
    procs_eff: Vec<u64>,
    /// Per-job walltime the scheduler plans with.
    plan_wall: Vec<Duration>,
    /// Per-job partition.
    part_of: Vec<usize>,
    /// Per-job cached policy key.
    key_of: Vec<f64>,
    /// Per-job promised (reserved) start time, if one was ever issued.
    promised: Vec<Option<Timestamp>>,
    /// Per-job lifecycle state.
    state: Vec<JobState>,
    /// First job table index for each id (for `query`/`cancel`). `None`
    /// in a batch replay, which never looks a job up by id.
    by_id: Option<HashMap<u64, usize>>,
    /// Submitted jobs not yet arrived, ascending by `(submit, id, row)`.
    pending: VecDeque<usize>,
    cluster: Cluster,
    /// Running jobs by `(finish, row)`.
    finishes: FinishQueue,
    violations: Vec<(Timestamp, Timestamp)>,
    timeline: Vec<(Timestamp, u64)>,
    /// Per-partition running-maximum queue length (the adaptive signal).
    max_queue: Vec<usize>,
    /// Global maximum total queue length.
    max_queue_total: usize,
    /// Current simulation time.
    clock: Timestamp,
    /// Scratch buffer: partitions touched by the current event.
    dirty: Vec<usize>,
    /// Scratch list for conservative backfill: the jobs one pass plans to
    /// start now, in queue order. Dead between passes — unlike the plan,
    /// which each partition keeps ([`crate::cluster::KeptPlan`]).
    scratch_starts: Vec<usize>,
    /// Scratch list a fair-share re-sort orders a queue in before writing
    /// it back. Dead between re-sorts.
    fair_scratch: Vec<Waiter>,
    /// Event log since the last `drain_events` (off for batch replay,
    /// where nobody drains and the log would only cost memory).
    record_events: bool,
    /// Accept resubmission of a live job id into an indexed session (the
    /// first submission keeps `query`/`cancel`), as batch replay's
    /// unindexed session does: tests of the pending order set it.
    #[cfg(test)]
    allow_duplicate_ids: bool,
    events: Vec<SimEvent>,
    finished_count: usize,
    cancelled_count: usize,
    /// Discrete events processed since construction (arrivals +
    /// completions). Observability only — not part of the saved state, so
    /// a restored session restarts the count at zero.
    events_processed: u64,
    /// What the scheduling passes did; observability only, like
    /// `events_processed`, and zero again after a restore.
    counts: PassCounts,
    /// Tenant table + per-tenant accounting; `None` when tenancy is off.
    tenants: Option<TenantState>,
    /// Set once a save of this session is durable; `None` until then, and
    /// the session keeps no log.
    mark: Option<SavedMark>,
}

impl SimSession {
    /// Creates an empty session for `system` under `config`.
    #[must_use]
    pub fn new(system: &SystemSpec, config: SimConfig) -> Self {
        let mut cluster = Cluster::new(system, config.respect_virtual_clusters);
        if config.backfill == Backfill::Conservative {
            cluster.keep_plans();
        }
        let parts = cluster.partition_count();
        Self {
            config,
            jobs: Vec::new(),
            procs_eff: Vec::new(),
            plan_wall: Vec::new(),
            part_of: Vec::new(),
            key_of: Vec::new(),
            promised: Vec::new(),
            state: Vec::new(),
            by_id: Some(HashMap::new()),
            pending: VecDeque::new(),
            cluster,
            finishes: FinishQueue::new(),
            violations: Vec::new(),
            timeline: Vec::new(),
            max_queue: vec![0; parts],
            max_queue_total: 0,
            clock: Timestamp::MIN,
            dirty: Vec::new(),
            scratch_starts: Vec::new(),
            fair_scratch: Vec::new(),
            record_events: true,
            #[cfg(test)]
            allow_duplicate_ids: false,
            events: Vec::new(),
            finished_count: 0,
            cancelled_count: 0,
            events_processed: 0,
            counts: PassCounts::default(),
            tenants: None,
            mark: None,
        }
    }

    /// Creates an empty session with tenancy enabled: every job is owned
    /// by a tenant from `table` (the built-in `default` tenant when the
    /// submission names none), quotas are enforced at submit time, and
    /// fair-share policies order queues by live tenant shares.
    #[must_use]
    pub fn new_with_tenants(system: &SystemSpec, config: SimConfig, table: TenantTable) -> Self {
        let mut s = Self::new(system, config);
        s.tenants = Some(TenantState::new(table));
        s
    }

    /// A session for batch replay ([`crate::simulate`]) of `rows` jobs,
    /// sized for them up front. It keeps no event log, which nobody
    /// drains, and no id index, which nobody probes: `row_of`, `query`,
    /// `job` and `cancel` find nothing. An id is then only a label and
    /// the `(submit, id, row)` tie-break, so a historical trace may reuse
    /// one while its holder is live (SWF files occasionally do).
    pub(crate) fn for_replay(system: &SystemSpec, config: SimConfig, rows: usize) -> Self {
        let mut s = Self::new(system, config);
        s.record_events = false;
        s.by_id = None;
        s.reserve(rows);
        s
    }

    /// Current simulation time. `Timestamp::MIN` until the first
    /// `advance_to` or processed event.
    #[must_use]
    pub fn now(&self) -> Timestamp {
        self.clock
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// What is left of a deferred round pass, for the frozen `benchmark/`
    /// alone (ROADMAP, "Benchmark v2" (8)): submit, then the arrival's pass.
    #[doc(hidden)]
    pub fn round_submit(&mut self, submission: impl Into<Submission>) -> Result<()> {
        self.submit(submission)?;
        self.advance_to(self.clock);
        Ok(())
    }

    #[doc(hidden)]
    pub fn round_needs_flush(&self, _job: &Job) -> bool {
        false
    }

    #[doc(hidden)]
    pub fn round_flush(&mut self) {
        self.advance_to(self.clock);
    }

    /// Resolves a tenant name to its table id under this session's
    /// tenancy configuration. `None` in, `None` out (untenanted
    /// submissions later map to the built-in `default` tenant).
    ///
    /// # Errors
    /// [`CoreError::UnknownTenant`] when the name is absent from the
    /// table, or when a name is given but tenancy is off.
    pub fn resolve_tenant(&self, name: Option<&str>) -> Result<Option<TenantId>> {
        match (name, &self.tenants) {
            (None, _) => Ok(None),
            (Some(n), Some(ts)) => match ts.table.lookup(n) {
                Some(id) => Ok(Some(id)),
                None => Err(CoreError::UnknownTenant {
                    name: n.to_string(),
                }),
            },
            (Some(n), None) => Err(CoreError::UnknownTenant {
                name: n.to_string(),
            }),
        }
    }

    /// Stages a submission: validates it and files it under its arrival
    /// time. No scheduling pass runs — an arrival due now is processed by
    /// the next clock-reaching [`SimSession::advance_to`]. Takes a
    /// [`Submission`] or, through `From`, a bare [`Job`].
    ///
    /// An id may be reused once its previous holder has finished or been
    /// cancelled; `query`/`cancel`/`job` keep resolving to the *first*
    /// submission of that id.
    ///
    /// # Errors
    /// Rejects jobs submitted in the simulation past, with zero or
    /// machine-oversized requests, or with negative runtime;
    /// [`CoreError::DuplicateJob`] when an earlier job with the same id is
    /// still live (pending, waiting, or running) — a duplicate would run
    /// but be unaddressable through `query`/`cancel`;
    /// [`CoreError::UnknownTenant`] for an out-of-table tenant id and
    /// [`CoreError::QuotaExceeded`] when accepting the job would push
    /// its tenant past its outstanding-units quota.
    pub fn submit(&mut self, submission: impl Into<Submission>) -> Result<()> {
        let Submission {
            mut job,
            tenant,
            walltime,
        } = submission.into();
        #[cfg(test)]
        let live_twins = self.allow_duplicate_ids;
        #[cfg(not(test))]
        let live_twins = false;
        // The one probe of the id map, if the session keeps one: the
        // duplicate verdict comes first, and the slot is filled only after
        // every other check has passed (an unused entry leaves the map as
        // it was).
        let slot = self.by_id.as_mut().map(|by_id| by_id.entry(job.id));
        if let Some(Entry::Occupied(first)) = &slot {
            if !live_twins && self.state[*first.get()].is_live() {
                return Err(CoreError::DuplicateJob { job: job.id });
            }
        }
        if job.submit < self.clock {
            return Err(CoreError::InvalidTime {
                job: job.id,
                what: "submission before current simulation time",
            });
        }
        if job.runtime < 0 {
            return Err(CoreError::InvalidTime {
                job: job.id,
                what: "negative runtime",
            });
        }
        let capacity = self.cluster.total_capacity();
        if job.procs == 0 || job.procs > capacity {
            return Err(CoreError::OversizedJob {
                job: job.id,
                requested: job.procs,
                capacity,
            });
        }
        let part = self.cluster.route(job.virtual_cluster, job.procs);
        let cap = self.cluster.partition(part).capacity;
        let procs_eff = job.procs.min(cap);
        // Resolve ownership and enforce the quota before mutating
        // anything, so a rejected submission leaves no trace behind.
        let owner = match (&self.tenants, tenant) {
            (None, None) => None,
            (None, Some(id)) => {
                return Err(CoreError::UnknownTenant {
                    name: format!("#{id}"),
                })
            }
            (Some(ts), t) => {
                let id = t.unwrap_or_else(|| ts.table.default_tenant());
                if usize::from(id) >= ts.table.len() {
                    return Err(CoreError::UnknownTenant {
                        name: format!("#{id}"),
                    });
                }
                ts.quota_check(id, procs_eff)?;
                Some(id)
            }
        };
        job.wait = None;

        let idx = self.jobs.len();
        let wall = match walltime {
            Some(w) => w.max(1),
            None => job.planning_walltime().max(1),
        };
        self.part_of.push(part);
        self.procs_eff.push(procs_eff);
        self.plan_wall.push(wall);
        self.key_of.push(self.config.policy.key_with(&job, wall));
        self.promised.push(None);
        self.state.push(JobState::Pending);
        if let Some(Entry::Vacant(slot)) = slot {
            slot.insert(idx);
        }
        if let Some(ts) = &mut self.tenants {
            ts.on_submit(owner.expect("tenancy on implies an owner"), procs_eff);
        }

        self.jobs.push(job);
        // The new row is the largest, so it goes behind every equal
        // `(submit, id)`: an arrival not ahead of the back appends, and
        // only one that sorts ahead of it pays for the search.
        let key = self.pending_key(idx);
        let pos = match self.pending.back() {
            Some(&back) if self.pending_key(back) > key => {
                let pos = self.pending.partition_point(|&i| self.pending_key(i) < key);
                self.pending.insert(pos, idx);
                pos
            }
            _ => {
                self.pending.push_back(idx);
                self.pending.len() - 1
            }
        };
        debug_assert!(
            (pos == 0 || self.pending_key(self.pending[pos - 1]) < key)
                && self
                    .pending
                    .get(pos + 1)
                    .is_none_or(|&next| key < self.pending_key(next)),
            "pending queue out of (submit, id, row) order at {pos}"
        );
        Ok(())
    }

    /// Cancels a submitted job that has not started. Returns `true` if the
    /// job was pending or waiting and is now cancelled; `false` if the id
    /// is unknown or the job already started, finished, or was cancelled.
    pub fn cancel(&mut self, id: u64) -> bool {
        let Some(idx) = self.row_of(id) else {
            return false;
        };
        let was = self.state[idx];
        match was {
            JobState::Pending => {
                let pos = self.pending_position(idx);
                self.pending.remove(pos);
            }
            JobState::Waiting => {
                let part = self.part_of[idx];
                let at = self.queue_position(part, idx);
                let p = self.cluster.partition_mut(part);
                p.waiting_mut().remove(at);
                p.plan_cancel(idx);
                // The queue shrank mid-timeline; the head (and backfill
                // candidates) may now be startable without waiting for the
                // next arrival or completion.
                self.schedule(part, self.clock);
                self.record_state_point(self.clock);
            }
            JobState::Running | JobState::Finished | JobState::Cancelled => return false,
        }
        self.state[idx] = JobState::Cancelled;
        self.cancelled_count += 1;
        if let Some(mark) = &mut self.mark {
            mark.sealed.push(idx);
        }
        if let Some(ts) = &mut self.tenants {
            ts.on_cancel(idx, self.procs_eff[idx], was);
        }
        if self.record_events {
            self.events.push(SimEvent::Cancelled {
                id,
                time: self.clock,
            });
        }
        true
    }

    /// Row `idx`'s place in the pending queue's one order, `(submit, id,
    /// row)`: the row breaks the tie between two live jobs under one id,
    /// which batch replay allows.
    fn pending_key(&self, idx: usize) -> (Timestamp, u64, usize) {
        (self.jobs[idx].submit, self.jobs[idx].id, idx)
    }

    /// Where pending job `idx` stands in the pending queue: a search on
    /// its total `(submit, id, row)` order.
    fn pending_position(&self, idx: usize) -> usize {
        let key = self.pending_key(idx);
        self.pending
            .binary_search_by_key(&key, |&i| self.pending_key(i))
            .expect("pending job is in the pending queue")
    }

    /// Sizes the job table's columns, the id map (if any) and the pending
    /// queue to hold `rows` rows without growing: batch replay and restore
    /// know the table's length before the first row goes in.
    pub(crate) fn reserve(&mut self, rows: usize) {
        fn column<T>(v: &mut Vec<T>, rows: usize) {
            v.reserve(rows.saturating_sub(v.len()));
        }
        column(&mut self.jobs, rows);
        column(&mut self.procs_eff, rows);
        column(&mut self.plan_wall, rows);
        column(&mut self.part_of, rows);
        column(&mut self.key_of, rows);
        column(&mut self.promised, rows);
        column(&mut self.state, rows);
        if let Some(by_id) = &mut self.by_id {
            by_id.reserve(rows.saturating_sub(by_id.len()));
        }
        self.pending
            .reserve(rows.saturating_sub(self.pending.len()));
    }

    /// The table row of the job with `id` (first submission wins when ids
    /// collide): the one hash probe, after which the `*_at` accessors
    /// read columns. `None` for unknown ids.
    #[must_use]
    pub fn row_of(&self, id: u64) -> Option<usize> {
        self.by_id.as_ref()?.get(&id).copied()
    }

    /// Lifecycle state of the job with `id` (first submission wins when ids
    /// collide). `None` for unknown ids.
    #[must_use]
    pub fn query(&self, id: u64) -> Option<JobState> {
        self.row_of(id).map(|idx| self.state[idx])
    }

    /// The job record for `id`, with its observed wait filled in once it
    /// has started.
    #[must_use]
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.row_of(id).map(|idx| &self.jobs[idx])
    }

    /// Length of the job table: the row the next accepted submission
    /// takes. Rows are handed out in submission order and never move.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// [`SimSession::job`] by table row (as carried by [`SimEvent`]s).
    /// `None` past the end of the table.
    #[must_use]
    pub fn job_at(&self, row: usize) -> Option<&Job> {
        self.jobs.get(row)
    }

    /// [`SimSession::query`] by table row.
    #[must_use]
    pub fn state_at(&self, row: usize) -> Option<JobState> {
        self.state.get(row).copied()
    }

    /// The walltime the scheduler plans with for the job at `row`: the
    /// estimate supplied at submission (predictor or operator override)
    /// when there was one, otherwise the job's own planning walltime.
    #[must_use]
    pub fn plan_walltime_at(&self, row: usize) -> Option<Duration> {
        self.plan_wall.get(row).copied()
    }

    /// The tenant table, when tenancy is enabled.
    #[must_use]
    pub fn tenant_table(&self) -> Option<&TenantTable> {
        self.tenants.as_ref().map(|ts| &ts.table)
    }

    /// Owning tenant of the job at `row`. `None` past the end of the
    /// table or when tenancy is off.
    #[must_use]
    pub fn tenant_at(&self, row: usize) -> Option<TenantId> {
        self.tenants.as_ref()?.tenant_of.get(row).copied()
    }

    /// Point-in-time per-tenant usage in table order, or `None` when
    /// tenancy is off. Summed `used_units` always equals the cluster's
    /// used units — every job is owned by exactly one tenant.
    #[must_use]
    pub fn tenant_usage(&self) -> Option<Vec<TenantUsage>> {
        self.tenants
            .as_ref()
            .map(|ts| ts.usage(self.cluster.total_capacity()))
    }

    /// Time of the next arrival or completion, if any work remains.
    #[must_use]
    pub fn next_event_time(&self) -> Option<Timestamp> {
        let t_arr = self.pending.front().map(|&i| self.jobs[i].submit);
        let t_fin = self.finishes.peek();
        match (t_arr, t_fin) {
            (Some(a), Some(f)) => Some(a.min(f)),
            (Some(a), None) => Some(a),
            (None, Some(f)) => Some(f),
            (None, None) => None,
        }
    }

    /// Advances simulation time to `t`, processing every arrival and
    /// completion at times `<= t` in event order. Monotone: a target in the
    /// past is a no-op.
    pub fn advance_to(&mut self, t: Timestamp) {
        while let Some(te) = self.next_event_time() {
            if te > t {
                break;
            }
            self.step(te);
        }
        self.clock = self.clock.max(t);
    }

    /// Runs until no arrivals or completions remain.
    pub fn advance_to_completion(&mut self) {
        while let Some(te) = self.next_event_time() {
            self.step(te);
        }
    }

    /// Returns and clears the event log accumulated since the last drain.
    pub fn drain_events(&mut self) -> Vec<SimEvent> {
        std::mem::take(&mut self.events)
    }

    /// [`SimSession::drain_events`] into a buffer the caller keeps:
    /// `out`'s old contents are dropped and its allocation becomes the
    /// session's next log, so a drain per round allocates nothing.
    pub fn drain_events_into(&mut self, out: &mut Vec<SimEvent>) {
        out.clear();
        std::mem::swap(out, &mut self.events);
    }

    /// Point-in-time counters for monitoring.
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        let capacity = self.cluster.total_capacity();
        let used = self.cluster.used();
        SessionSnapshot {
            now: self.clock,
            submitted: self.jobs.len(),
            pending: self.pending.len(),
            waiting: self.cluster.queue_len(),
            running: self.finishes.len(),
            finished: self.finished_count,
            cancelled: self.cancelled_count,
            used_units: used,
            capacity,
            utilization: if capacity == 0 {
                0.0
            } else {
                used as f64 / capacity as f64
            },
        }
    }

    /// Discrete events (arrivals + completions) processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// What the scheduling passes have done since the session was made
    /// or restored (a restore starts every count at zero).
    #[must_use]
    pub fn counts(&self) -> PassCounts {
        self.counts
    }

    /// Finishes all outstanding work and folds the session into a
    /// [`SimResult`]. Cancelled jobs are excluded from the metrics.
    ///
    /// # Panics
    /// Panics if no job ever ran (metrics need at least one).
    #[must_use]
    pub fn into_result(mut self) -> SimResult {
        self.advance_to_completion();
        let capacity = self.cluster.total_capacity();
        let jobs: Vec<Job> = if self.cancelled_count > 0 {
            self.jobs
                .iter()
                .zip(&self.state)
                .filter(|&(_, &s)| s != JobState::Cancelled)
                .map(|(j, _)| j.clone())
                .collect()
        } else {
            self.jobs
        };
        debug_assert!(jobs.iter().all(|j| j.wait.is_some()));
        let metrics =
            SimMetrics::compute(&jobs, capacity, self.config.bsld_bound, &self.violations);
        SimResult {
            metrics,
            events: self.events_processed,
            timeline: UtilizationTimeline {
                capacity,
                points: self.timeline,
            },
            max_queue_len: self.max_queue_total,
            jobs,
        }
    }

    /// Asserts that every partition's release ledger, viewed the way a
    /// scheduling pass at the current instant would view it, is
    /// point-for-point identical to a profile rebuilt from scratch from
    /// the running jobs in the session's tables — and that the ledger's
    /// unit accounting agrees with the partition's. Also checks each
    /// partition's waiting queue: sound in itself
    /// ([`crate::cluster::WaitQueue::assert_sound`]), holding exactly the partition's
    /// waiting jobs, and in static-key order unless the ordering is
    /// fair-share over a tenant table. And each partition's kept
    /// conservative plan, while it is live: the planned jobs are the
    /// queue's prefix in its order, each holds the slot that planning the
    /// queue from the ledger would give it now, and from now on the plan's
    /// breakpoints are that from-scratch plan's. Test hook for the
    /// differential property suite; panics with context on divergence.
    #[doc(hidden)]
    pub fn assert_profiles_match_rebuild(&self) {
        let now = self.clock;
        let mut scratch = CapacityProfile::new(0, 0);
        let resorted = self.config.policy.is_fair_share() && self.tenants.is_some();
        for part in 0..self.cluster.partition_count() {
            let p = self.cluster.partition(part);
            p.waiting().assert_sound();
            let order: Vec<usize> = p.waiting().chunks().flatten().map(|w| w.idx).collect();
            let mut queued = order.clone();
            assert!(
                resorted
                    || queued
                        .windows(2)
                        .all(|w| self.queue_key(w[0]) <= self.queue_key(w[1])),
                "partition {part}: queue out of static-key order at t={now}"
            );
            queued.sort_unstable();
            let waiting: Vec<usize> = (0..self.jobs.len())
                .filter(|&i| self.state[i] == JobState::Waiting && self.part_of[i] == part)
                .collect();
            assert_eq!(
                queued, waiting,
                "partition {part}: queue does not hold the waiting jobs at t={now}"
            );
            let mut ledger = p.ledger().clone();
            ledger.prune_to(now);
            assert_eq!(
                ledger.free_now(),
                p.free,
                "partition {part}: ledger out of sync with unit accounting at t={now}"
            );
            // The copy a planning pass rebuilds from, and then plans on.
            ledger.copy_to(&mut scratch);
            // Jobs running past their estimate hold their units "until
            // any moment now": the clamp to `now + 1`.
            let mut ends: Vec<(Timestamp, u64)> = (0..self.jobs.len())
                .filter(|&i| self.state[i] == JobState::Running && self.part_of[i] == part)
                .map(|i| (self.end_estimate(i).max(now + 1), self.procs_eff[i]))
                .collect();
            ends.sort_unstable();
            let rebuilt = CapacityProfile::from_sorted_running(now, p.capacity, ends.into_iter());
            assert_eq!(
                scratch.points(),
                rebuilt.points(),
                "partition {part}: release ledger diverged from rebuild at t={now}"
            );
            // A job the clock has carried past its estimate since the last
            // pass is a divergence the next pass has yet to observe.
            let Some(plan) = p.live_plan().filter(|_| ledger.overrun() == 0) else {
                continue;
            };
            let planned: Vec<usize> = plan.slots.iter().map(|&(row, _)| row).collect();
            assert!(
                order.starts_with(&planned),
                "partition {part}: planned {planned:?} is no prefix of the queue {order:?} at t={now}"
            );
            for &(row, slot) in &plan.slots {
                let (procs, wall) = (self.procs_eff[row], self.plan_wall[row]);
                assert_eq!(
                    scratch.earliest_fit(now, procs, wall),
                    Some(slot),
                    "partition {part}: kept slot of row {row} is not the from-scratch one at t={now}"
                );
                scratch.reserve(slot, slot + wall, procs);
            }
            let mut kept = vec![(now, plan.profile.free_at(now))];
            kept.extend(plan.profile.points().iter().filter(|&&(t, _)| t > now));
            assert_eq!(
                kept,
                scratch.points(),
                "partition {part}: kept plan diverged from a from-scratch plan at t={now}"
            );
        }
    }

    // ---- event loop ---------------------------------------------------

    /// Processes every event at time `now` (the next event time): all
    /// completions, then all arrivals, then one scheduling pass per touched
    /// partition.
    fn step(&mut self, now: Timestamp) {
        self.clock = self.clock.max(now);
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.clear();
        // 1. Completions at `now`.
        while let Some((_, idx)) = self.finishes.pop_due(now) {
            self.events_processed += 1;
            let part = self.part_of[idx];
            let end_estimate = self.end_estimate(idx);
            let p = self.cluster.partition_mut(part);
            p.finish(self.procs_eff[idx], end_estimate, now);
            if end_estimate > now {
                self.counts.keys_removed_by_search += 1;
            } else {
                self.counts.keys_released_by_clock += 1;
            }
            if now != end_estimate {
                // Early or late: not when a kept plan has the units back.
                p.plan_diverged(Divergence::Completion);
            }
            self.state[idx] = JobState::Finished;
            self.finished_count += 1;
            if let Some(mark) = &mut self.mark {
                mark.sealed.push(idx);
            }
            if let Some(ts) = &mut self.tenants {
                ts.on_finish(idx, self.procs_eff[idx]);
            }
            if self.record_events {
                self.events.push(SimEvent::Finished {
                    id: self.jobs[idx].id,
                    row: idx,
                    time: now,
                });
            }
            if !dirty.contains(&part) {
                dirty.push(part);
            }
        }
        // 2. Arrivals at `now`.
        while let Some(&idx) = self.pending.front() {
            if self.jobs[idx].submit > now {
                break;
            }
            self.pending.pop_front();
            self.events_processed += 1;
            let part = self.part_of[idx];
            self.state[idx] = JobState::Waiting;
            if let Some(ts) = &mut self.tenants {
                ts.on_arrive(idx);
            }
            self.enqueue(part, idx);
            if !dirty.contains(&part) {
                dirty.push(part);
            }
        }
        // 3. Scheduling passes.
        dirty.sort_unstable();
        for &part in &dirty {
            self.schedule(part, now);
        }
        self.dirty = dirty;
        self.record_state_point(now);
    }

    /// Queue-depth and timeline bookkeeping after a state change at `now`.
    ///
    /// The timeline is kept *canonical*: times strictly increase,
    /// consecutive points always differ in `used`, and each point is the
    /// utilization in force from its instant onwards. Same-instant
    /// updates fold into one point (popped entirely when utilization
    /// returns to its prior value), so the recorded trace depends only
    /// on the utilization trajectory — not on how many scheduling passes
    /// or event sub-steps produced it. That independence is what lets a
    /// served stream, one step per submission, record the timeline batch
    /// replay records in one step per instant, and a restored or replayed
    /// session continue it ([`StateDelta::timeline_from`]).
    fn record_state_point(&mut self, now: Timestamp) {
        self.max_queue_total = self.max_queue_total.max(self.cluster.queue_len());
        if !self.config.record_timeline {
            return;
        }
        let used = self.cluster.used();
        if self.timeline.last().map(|&(_, u)| u) == Some(used) {
            return;
        }
        if self.timeline.last().map(|&(t, _)| t) == Some(now) {
            self.timeline.pop();
            if self.timeline.last().map(|&(_, u)| u) == Some(used) {
                return;
            }
        }
        self.timeline.push((now, used));
    }

    /// The end estimate running (or finished) job `idx` was started
    /// with: `start + planning walltime`.
    fn end_estimate(&self, idx: usize) -> Timestamp {
        let job = &self.jobs[idx];
        job.submit + job.wait.expect("started jobs have a wait") + self.plan_wall[idx]
    }

    /// Starts job `idx` at `now` on `part` (must fit).
    fn start(&mut self, part: usize, idx: usize, now: Timestamp) {
        let job = &mut self.jobs[idx];
        debug_assert!(job.wait.is_none(), "job started twice");
        job.wait = Some(now - job.submit);
        let finish = now + job.runtime;
        self.state[idx] = JobState::Running;
        if let Some(ts) = &mut self.tenants {
            ts.on_start(idx, self.procs_eff[idx], self.jobs[idx].runtime);
        }
        self.cluster
            .partition_mut(part)
            .start(self.procs_eff[idx], now + self.plan_wall[idx]);
        self.counts.keys_inserted += 1;
        self.finishes.push(finish, idx);
        if let Some(promise) = self.promised[idx] {
            self.violations.push((promise, now));
        }
        if self.record_events {
            let job = &self.jobs[idx];
            self.events.push(SimEvent::Started {
                id: job.id,
                row: idx,
                time: now,
                wait: now - job.submit,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Model;
    use crate::simulator::tests::{job, tiny};
    use crate::{simulate, Backfill, Policy, Relax};
    use lumos_core::Trace;

    #[test]
    fn incremental_matches_batch() {
        let jobs: Vec<Job> = (0..50)
            .map(|i| {
                job(
                    i,
                    i64::from(i as u32) * 5,
                    40 + (i % 5) as i64 * 30,
                    1 + (i % 20),
                    150,
                )
            })
            .collect();
        let trace = Trace::new(tiny(), jobs.clone()).unwrap();
        let config = SimConfig::default();
        let batch = simulate(&trace, &config);

        // Submit in bursts, advancing between them.
        let mut s = SimSession::new(&tiny(), config);
        for chunk in jobs.chunks(10) {
            for j in chunk {
                s.submit(j.clone()).unwrap();
            }
            let t = chunk.last().unwrap().submit;
            s.advance_to(t);
        }
        let online = s.into_result();
        assert_eq!(online.metrics, batch.metrics);
        assert_eq!(online.timeline, batch.timeline);
        assert_eq!(online.max_queue_len, batch.max_queue_len);
        let wb: Vec<_> = batch.jobs.iter().map(|j| (j.id, j.wait)).collect();
        let wo: Vec<_> = online.jobs.iter().map(|j| (j.id, j.wait)).collect();
        assert_eq!(wb, wo);
    }

    #[test]
    fn batch_replay_and_a_driven_session_count_the_ledger_alike() {
        // Even ids plan with their runtime and end on the estimate, odd
        // ones plan for 200 s and end before it.
        let jobs: Vec<Job> = (0..80)
            .map(|i| {
                let runtime = 40 + (i % 5) as i64 * 30;
                let walltime = if i % 2 == 0 { runtime } else { 200 };
                job(i, i as i64 * 7, runtime, 1 + (i % 30), walltime)
            })
            .collect();
        let ledger = |c: PassCounts| {
            (
                c.keys_inserted,
                c.keys_removed_by_search,
                c.keys_released_by_clock,
            )
        };
        for backfill in [Backfill::None, Backfill::Easy, Backfill::Conservative] {
            let config = SimConfig {
                backfill,
                ..SimConfig::default()
            };
            let mut batch = SimSession::for_replay(&tiny(), config, jobs.len());
            let mut driven = SimSession::new(&tiny(), config);
            for j in &jobs {
                batch.submit(j.clone()).unwrap();
                driven.submit(j.clone()).unwrap();
                driven.advance_to(j.submit);
            }
            batch.advance_to_completion();
            driven.advance_to_completion();
            assert_eq!(ledger(batch.counts()), (80, 40, 40), "{backfill:?}");
            assert_eq!(ledger(driven.counts()), ledger(batch.counts()));
        }
    }

    #[test]
    fn events_report_lifecycle() {
        let mut s = SimSession::new(&tiny(), SimConfig::default());
        s.submit(job(1, 0, 10, 50, 10)).unwrap();
        s.submit(job(2, 0, 20, 60, 20)).unwrap();
        s.advance_to(0);
        let events = s.drain_events();
        // Job 1 starts immediately; job 2 (60 units) waits behind it.
        assert!(events.contains(&SimEvent::Started {
            id: 1,
            row: 0,
            time: 0,
            wait: 0
        }));
        assert_eq!(s.query(1), Some(JobState::Running));
        assert_eq!(s.query(2), Some(JobState::Waiting));
        s.advance_to(100);
        let events = s.drain_events();
        let finished = |id, row, time| SimEvent::Finished { id, row, time };
        assert!(events.contains(&finished(1, 0, 10)));
        assert!(events.contains(&SimEvent::Started {
            id: 2,
            row: 1,
            time: 10,
            wait: 10
        }));
        assert!(events.contains(&finished(2, 1, 30)));
        assert_eq!(s.query(2), Some(JobState::Finished));
        assert_eq!(s.drain_events(), vec![], "drain clears the log");
    }

    #[test]
    fn snapshot_counts_are_consistent() {
        let mut s = SimSession::new(&tiny(), SimConfig::default());
        s.submit(job(1, 0, 100, 70, 100)).unwrap();
        s.submit(job(2, 0, 100, 70, 100)).unwrap();
        s.submit(job(3, 50, 100, 10, 100)).unwrap();
        s.advance_to(10);
        let snap = s.snapshot();
        assert_eq!(snap.now, 10);
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.pending, 1, "job 3 arrives at t=50");
        assert_eq!(snap.running, 1);
        assert_eq!(snap.waiting, 1);
        assert_eq!(snap.used_units, 70);
        assert!((snap.utilization - 0.7).abs() < 1e-12);
    }

    #[test]
    fn submit_in_the_past_is_rejected() {
        let mut s = SimSession::new(&tiny(), SimConfig::default());
        s.submit(job(1, 0, 10, 1, 10)).unwrap();
        s.advance_to(100);
        let err = s.submit(job(2, 50, 10, 1, 10)).unwrap_err();
        assert!(matches!(err, CoreError::InvalidTime { job: 2, .. }));
        // At exactly `now` is fine.
        s.submit(job(3, 100, 10, 1, 10)).unwrap();
    }

    #[test]
    fn oversized_and_zero_requests_are_rejected() {
        let mut s = SimSession::new(&tiny(), SimConfig::default());
        assert!(matches!(
            s.submit(job(1, 0, 10, 0, 10)).unwrap_err(),
            CoreError::OversizedJob { .. }
        ));
        assert!(matches!(
            s.submit(job(1, 0, 10, 101, 10)).unwrap_err(),
            CoreError::OversizedJob { .. }
        ));
    }

    #[test]
    fn cancel_waiting_job_frees_the_queue() {
        let mut s = SimSession::new(&tiny(), SimConfig::default());
        s.submit(job(1, 0, 100, 100, 100)).unwrap();
        s.submit(job(2, 1, 100, 100, 100)).unwrap();
        s.submit(job(3, 2, 100, 100, 100)).unwrap();
        s.advance_to(5);
        assert_eq!(s.query(2), Some(JobState::Waiting));
        assert!(s.cancel(2), "waiting job cancels");
        assert!(!s.cancel(2), "second cancel is a no-op");
        assert!(!s.cancel(1), "running job cannot cancel");
        assert!(!s.cancel(99), "unknown id");
        let r = s.into_result();
        // Job 3 moves up: starts when job 1 ends at t=100.
        let j3 = r.jobs.iter().find(|j| j.id == 3).unwrap();
        assert_eq!(j3.wait, Some(98));
        assert_eq!(r.metrics.jobs, 2, "cancelled job excluded from metrics");
    }

    #[test]
    fn cancel_pending_job_never_arrives() {
        let mut s = SimSession::new(&tiny(), SimConfig::default());
        s.submit(job(1, 0, 10, 1, 10)).unwrap();
        s.submit(job(2, 1_000, 10, 1, 10)).unwrap();
        s.advance_to(0);
        assert!(s.cancel(2));
        assert_eq!(s.query(2), Some(JobState::Cancelled));
        assert_eq!(s.next_event_time(), Some(10), "only job 1's completion");
    }

    #[test]
    fn cancelling_queue_head_triggers_reschedule() {
        // Job 1 occupies 90; job 2 (head, 100 units) blocks job 3 (10 units,
        // too long to backfill). Cancelling job 2 must start job 3 at once.
        let mut s = SimSession::new(&tiny(), SimConfig::default());
        s.submit(job(1, 0, 100, 90, 100)).unwrap();
        s.submit(job(2, 1, 100, 100, 100)).unwrap();
        s.submit(job(3, 2, 200, 10, 200)).unwrap();
        s.advance_to(10);
        assert_eq!(s.query(3), Some(JobState::Waiting));
        assert!(s.cancel(2));
        assert_eq!(s.query(3), Some(JobState::Running));
        assert_eq!(s.job(3).unwrap().wait, Some(8));
    }

    /// Jobs with every lifecycle state represented: finished, running,
    /// waiting, pending, cancelled — frozen mid-flight at `t`.
    fn mid_flight_session() -> SimSession {
        let mut s = SimSession::new(&tiny(), SimConfig::default());
        s.submit(job(1, 0, 10, 30, 10)).unwrap(); // finishes at 10
        s.submit(job(2, 0, 100, 60, 100)).unwrap(); // running at t=20
        s.submit(job(3, 5, 100, 80, 100)).unwrap(); // waiting (won't fit)
        s.submit(job(4, 6, 50, 90, 50)).unwrap(); // waiting behind 3
        s.submit(job(5, 500, 10, 1, 10)).unwrap(); // pending
        s.submit(job(6, 7, 10, 95, 10)).unwrap(); // cancelled below
        s.advance_to(20);
        assert!(s.cancel(6));
        s
    }

    #[test]
    fn save_restore_round_trips() {
        let s = mid_flight_session();
        let state = s.save_state();
        let restored = SimSession::restore(&tiny(), state.clone()).unwrap();
        assert_eq!(
            restored.save_state(),
            state,
            "save ∘ restore ∘ save is identity"
        );
        assert_eq!(restored.now(), s.now());
        assert_eq!(restored.snapshot(), s.snapshot());
        assert_eq!(restored.next_event_time(), s.next_event_time());
    }

    #[test]
    fn state_survives_json() {
        let state = mid_flight_session().save_state();
        let json = serde_json::to_string(&state).unwrap();
        let back: SessionState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn restored_session_continues_identically() {
        let mut original = mid_flight_session();
        let mut restored = SimSession::restore(&tiny(), original.save_state()).unwrap();
        // Drive both forward with the same inputs; schedules must agree.
        for s in [&mut original, &mut restored] {
            s.submit(job(7, 25, 40, 20, 40)).unwrap();
            s.advance_to(60);
            assert!(s.cancel(5));
        }
        assert_eq!(original.drain_events(), restored.drain_events());
        let (a, b) = (original.into_result(), restored.into_result());
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.max_queue_len, b.max_queue_len);
        let wa: Vec<_> = a.jobs.iter().map(|j| (j.id, j.wait)).collect();
        let wb: Vec<_> = b.jobs.iter().map(|j| (j.id, j.wait)).collect();
        assert_eq!(wa, wb);
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let good = mid_flight_session().save_state();

        let mut truncated = good.clone();
        truncated.states.pop();
        assert!(matches!(
            SimSession::restore(&tiny(), truncated).unwrap_err(),
            CoreError::InvalidSnapshot(_)
        ));

        let mut wrong_parts = good.clone();
        wrong_parts.max_queue.push(0);
        assert!(matches!(
            SimSession::restore(&tiny(), wrong_parts).unwrap_err(),
            CoreError::InvalidSnapshot(_)
        ));

        let mut waitless = good.clone();
        let running = waitless
            .states
            .iter()
            .position(|&st| st == JobState::Running)
            .unwrap();
        waitless.jobs[running].wait = None;
        assert!(matches!(
            SimSession::restore(&tiny(), waitless).unwrap_err(),
            CoreError::InvalidSnapshot(_)
        ));

        let mut overcommitted = good;
        for (j, st) in overcommitted.jobs.iter_mut().zip(&overcommitted.states) {
            if *st == JobState::Running {
                j.procs = 100; // partition capacity; two runners cannot fit
            }
        }
        overcommitted.jobs.push(job(99, 0, 100, 100, 100));
        overcommitted.jobs.last_mut().unwrap().wait = Some(0);
        overcommitted.states.push(JobState::Running);
        overcommitted.plan_wall.push(100);
        overcommitted.promised.push(None);
        assert!(matches!(
            SimSession::restore(&tiny(), overcommitted).unwrap_err(),
            CoreError::InvalidSnapshot(_)
        ));
    }

    #[test]
    fn an_unmarked_session_has_no_increment_and_a_marked_one_folds() {
        let mut s = mid_flight_session();
        assert_eq!(s.save_delta(), None);
        let base = s.save_state();
        s.mark_saved(7);
        // Nothing happened yet: the increment is the live set alone.
        let (since, idle) = s.save_delta().unwrap();
        assert_eq!(since, 7);
        assert_eq!(idle.rows, [1, 2, 3, 4], "running, waiting ×2, pending");
        assert_eq!(base.clone().fold([idle]).unwrap(), base);
        // Job 2 finishes, 3 starts, 7 arrives and queues, 5 is cancelled.
        s.submit(job(7, 25, 40, 20, 40)).unwrap();
        s.advance_to(150);
        assert!(s.cancel(5));
        let (_, delta) = s.save_delta().unwrap();
        assert_eq!(delta.rows, [1, 2, 3, 4, 6]);
        assert_eq!(delta.len, 7);
        assert_eq!(base.fold([delta]).unwrap(), s.save_state());
    }

    #[test]
    fn fold_rejects_increments_that_do_not_cover_every_row_once() {
        let mut s = mid_flight_session();
        let base = s.save_state();
        s.mark_saved(1);
        s.submit(job(7, 25, 40, 20, 40)).unwrap();
        s.advance_to(150);
        let (_, good) = s.save_delta().unwrap();
        assert!(base.clone().fold([good.clone()]).is_ok());
        let rejected = |damage: &dyn Fn(&mut StateDelta), needle: &str| {
            let mut delta = good.clone();
            damage(&mut delta);
            match base.clone().fold([delta]) {
                Err(CoreError::InvalidSnapshot(what)) => {
                    assert!(what.contains(needle), "`{what}` lacks `{needle}`");
                }
                other => panic!("expected a rejection naming `{needle}`, got {other:?}"),
            }
        };
        // A column shorter than the others.
        rejected(
            &|d| {
                d.states.pop();
            },
            "columns disagree",
        );
        // Row 0 finished before the base was taken: it is sealed.
        rejected(&|d| d.rows[0] = 0, "row 0, which was sealed");
        // A live row of the base left out.
        let drop_first = |d: &mut StateDelta| {
            d.rows.remove(0);
            d.jobs.remove(0);
            d.states.remove(0);
            d.plan_wall.remove(0);
            d.promised.remove(0);
        };
        rejected(&drop_first, "3 of the 4 rows that were live");
        // A gap where the new row should be, a length that overshoots,
        // rows out of order.
        rejected(&|d| *d.rows.last_mut().unwrap() = 7, "one row at a time");
        rejected(&|d| d.len += 1, "one row at a time");
        rejected(&|d| d.rows.swap(0, 1), "one row at a time");
        // Tails that do not start where the base's lists end.
        rejected(&|d| d.timeline_from += 2, "timeline tail");
        rejected(&|d| d.timeline_from -= 1, "timeline tail");
        rejected(&|d| d.violations_from += 1, "violation tail");
        // Owners for a session that has no tenants.
        rejected(
            &|d| d.tenant_of = Some(vec![0; d.rows.len()]),
            "columns disagree",
        );
        // And a base whose own columns disagree is not indexed into.
        let mut short = base.clone();
        short.states.pop();
        assert!(short.fold([good.clone()]).is_err());
    }

    #[test]
    fn advance_is_monotone() {
        let mut s = SimSession::new(&tiny(), SimConfig::default());
        s.submit(job(1, 0, 10, 1, 10)).unwrap();
        s.advance_to(100);
        assert_eq!(s.now(), 100);
        s.advance_to(50); // no-op
        assert_eq!(s.now(), 100);
    }

    #[test]
    fn live_duplicate_ids_are_rejected() {
        let mut s = SimSession::new(&tiny(), SimConfig::default());
        s.submit(job(1, 10, 50, 100, 50)).unwrap();
        // Pending duplicate.
        assert!(matches!(
            s.submit(job(1, 10, 10, 1, 10)).unwrap_err(),
            CoreError::DuplicateJob { job: 1 }
        ));
        s.advance_to(10);
        assert_eq!(s.query(1), Some(JobState::Running));
        // Running duplicate.
        assert!(matches!(
            s.submit(job(1, 20, 10, 1, 10)).unwrap_err(),
            CoreError::DuplicateJob { job: 1 }
        ));
        s.submit(job(2, 20, 10, 100, 10)).unwrap();
        s.advance_to(20);
        assert_eq!(s.query(2), Some(JobState::Waiting));
        // Waiting duplicate.
        assert!(matches!(
            s.submit(job(2, 25, 10, 1, 10)).unwrap_err(),
            CoreError::DuplicateJob { job: 2 }
        ));
        // The rejected submissions left no trace behind.
        assert_eq!(s.snapshot().submitted, 2);
    }

    /// A submission that breaks two rules is refused for the one checked
    /// first — live duplicate, past-dated, negative runtime, oversized,
    /// tenant, quota — and a refusal of any kind leaves no trace, the id
    /// map included.
    #[test]
    fn a_refusal_names_the_first_broken_rule_and_leaves_no_trace() {
        let table = TenantTable::parse("capped 1 6\n").expect("tenant table");
        let mut s = SimSession::new_with_tenants(&tiny(), SimConfig::default(), table);
        let capped = s.resolve_tenant(Some("capped")).unwrap();
        let owned = |job: Job, tenant| Submission {
            job,
            tenant,
            walltime: None,
        };
        s.submit(job(1, 10, 50, 4, 50)).unwrap();
        s.advance_to(10);
        let before = s.save_state();

        let refused = |s: &mut SimSession, submission: Submission| {
            let id = submission.job.id;
            let verdict = s.submit(submission).unwrap_err().to_string();
            assert!(id == 1 || s.query(id).is_none(), "job {id} left a trace");
            verdict
        };
        let verdicts = [
            refused(&mut s, owned(job(1, 5, 10, 1, 10), None)), // + past-dated
            refused(&mut s, owned(job(1, 20, 10, 101, 10), None)), // + oversized
            refused(&mut s, owned(job(1, 20, 10, 7, 10), capped)), // + over quota
            refused(&mut s, owned(job(2, 5, -1, 101, 10), None)), // past + negative + oversized
            refused(&mut s, owned(job(2, 20, -1, 101, 10), None)), // negative + oversized
            refused(&mut s, owned(job(2, 20, 10, 101, 10), capped)), // oversized + over quota
            refused(&mut s, owned(job(2, 20, 10, 101, 10), Some(9))), // oversized + no such tenant
            refused(&mut s, owned(job(2, 20, 10, 7, 10), Some(9))), // no such tenant
            refused(&mut s, owned(job(2, 20, 10, 7, 10), capped)), // over quota
        ];
        // As the commit before the single probe of the id map answered.
        assert_eq!(
            verdicts,
            [
                "duplicate job id 1: an earlier submission is still live",
                "duplicate job id 1: an earlier submission is still live",
                "duplicate job id 1: an earlier submission is still live",
                "job 2 has invalid time field: submission before current simulation time",
                "job 2 has invalid time field: negative runtime",
                "job 2 requests 101 resource units but the system has 100",
                "job 2 requests 101 resource units but the system has 100",
                "unknown tenant `#9`",
                "tenant `capped` quota exceeded: 7 units requested with 0 already outstanding \
                 against a quota of 6",
            ]
        );
        assert_eq!(s.save_state(), before);
        // The id a refusal named is still free.
        s.submit(owned(job(2, 20, 10, 6, 10), capped)).unwrap();
        assert_eq!(s.query(2), Some(JobState::Pending));
    }

    #[test]
    fn finished_ids_may_be_reused_but_first_wins() {
        let mut s = SimSession::new(&tiny(), SimConfig::default());
        s.submit(job(1, 0, 10, 1, 10)).unwrap();
        s.advance_to(50);
        assert_eq!(s.query(1), Some(JobState::Finished));
        // Reuse after completion is accepted; `query` keeps resolving to
        // the first submission.
        s.submit(job(1, 60, 10, 1, 10)).unwrap();
        assert_eq!(s.query(1), Some(JobState::Finished));
        s.advance_to(100);
        assert_eq!(s.snapshot().finished, 2, "the reused id still ran");
    }

    // ---- differentials: the session beside the reference model ---------

    fn sixty_four() -> SystemSpec {
        let mut s = tiny();
        s.total_nodes = 64;
        s.total_units = 64;
        s
    }

    /// A contended stream on the 64-unit system: arrivals in bursts every
    /// few seconds, holds of minutes to an hour, so the queue stands
    /// hundreds deep. One job in six understates its walltime (it
    /// overruns its estimate); the rest overstate it up to 3×.
    fn contended_jobs(seed: u64, count: u64) -> Vec<Job> {
        let mut rng = lumos_stats::Rng::new(seed);
        let mut next = move |bound: u64| rng.next_below(bound);
        let mut submit = 0i64;
        (0..count)
            .map(|id| {
                submit += next(4) as i64;
                let runtime = 60 + next(3_600) as i64;
                let widest = if next(5) == 0 { 48 } else { 8 };
                let procs = 1 + next(widest);
                let wall = if next(6) == 0 {
                    (runtime / 2).max(1)
                } else {
                    runtime + next(2 * runtime as u64) as i64
                };
                let mut j = job(id, submit, runtime, procs, wall);
                j.user = (id % 3) as u32;
                j
            })
            .collect()
    }

    /// Strict, fixed and adaptive relaxation, at 10 %.
    const RELAXATIONS: [Relax; 3] = [
        Relax::Strict,
        Relax::Fixed { factor: 0.1 },
        Relax::Adaptive { base: 0.1 },
    ];

    /// FCFS, SJF, and max-min over three tenants.
    const ORDERS: [(Policy, Option<&str>); 3] = [
        (Policy::Fcfs, None),
        (Policy::Sjf, None),
        (Policy::MaxMinFair, Some("a 1\nb 1\nc 1\n")),
    ];

    /// [`contended_jobs`] with nothing for a kept plan to diverge from:
    /// even ids carry no walltime (the scheduler plans with the runtime),
    /// odd ids are killed exactly at their limit.
    fn punctual_jobs(seed: u64, count: u64) -> Vec<Job> {
        let mut jobs = contended_jobs(seed, count);
        for j in &mut jobs {
            j.walltime = (j.id % 2 == 1).then_some(j.runtime);
        }
        jobs
    }

    fn conservative(policy: Policy) -> SimConfig {
        SimConfig {
            policy,
            backfill: Backfill::Conservative,
            ..SimConfig::default()
        }
    }

    /// Steps a session fed `jobs` and the reference model side by side,
    /// and after every event requires each row's state, wait and promise,
    /// the violations and the queue maxima to agree; `watch` then sees the
    /// session. Every `cancel_every`-th event (if not 0) cancels the job
    /// at the back of the first non-empty queue. After event
    /// `restore_after` (if not 0) a session restored from a save takes
    /// over, its kept plans and its counts started over. Returns the
    /// session and its plans' `(rebuilds, pairs)`, over both sessions.
    fn lockstep(
        system: &SystemSpec,
        config: SimConfig,
        tenants: Option<&str>,
        jobs: &[impl Into<Submission> + Clone],
        (cancel_every, restore_after): (usize, usize),
        mut watch: impl FnMut(&SimSession),
    ) -> (SimSession, (u64, u64)) {
        let table = tenants.map(|t| TenantTable::parse(t).unwrap());
        let mut model = Model::new(system, config, table.as_ref());
        let mut s = match table {
            Some(t) => SimSession::new_with_tenants(system, config, t),
            None => SimSession::new(system, config),
        };
        for j in jobs {
            let mut sub: Submission = j.clone().into();
            let owner = (sub.job.user % 3) as TenantId;
            sub.tenant = sub.tenant.or(s.tenants.as_ref().map(|_| owner));
            if s.submit(sub.clone()).is_ok() {
                model.submit(&sub.job, sub.tenant, sub.walltime);
            }
        }
        let (mut carried, mut events) = ((0, 0), 0);
        while let Some(t) = model.next_event_time() {
            assert_eq!(s.next_event_time(), Some(t));
            s.advance_to(t);
            model.advance_to(t);
            events += 1;
            if cancel_every > 0 && events % cancel_every == 0 {
                let parts = 0..s.cluster.partition_count();
                if let Some(row) = parts.filter_map(|p| model.queue(p).pop()).next() {
                    assert!(s.cancel(s.jobs[row].id) && model.cancel(row));
                }
            }
            if events == restore_after {
                let counts = s.counts();
                carried = (counts.rebuilds.total(), counts.pairs);
                s = SimSession::restore(system, s.save_state()).unwrap();
            }
            // The model names its phases as the session names its states.
            for (row, r) in model.rows.iter().enumerate() {
                let state = format!("{:?}", s.state[row]);
                let seen = (state, s.jobs[row].wait, s.promised[row]);
                let want = (format!("{:?}", r.phase), r.wait, r.promise);
                assert_eq!(seen, want, "row {row} at t={t} under {config:?}");
            }
            let seen = (&s.violations, &s.max_queue, s.max_queue_total);
            let model_saw = (&model.violations, &model.max_queue, model.max_queue_total);
            assert_eq!(seen, model_saw, "at t={t} under {config:?}");
            s.assert_profiles_match_rebuild();
            watch(&s);
        }
        assert!(s.next_event_time().is_none() && s.jobs.len() == model.rows.len());
        let counts = s.counts();
        let (rebuilds, pairs) = (counts.rebuilds.total(), counts.pairs);
        (s, (carried.0 + rebuilds, carried.1 + pairs))
    }

    /// Whether some partition of the session holds a live plan with jobs
    /// in it — what `assert_profiles_match_rebuild` then checks.
    fn live_plan_with_jobs(s: &SimSession) -> bool {
        let live = |p| {
            s.cluster
                .partition(p)
                .live_plan()
                .is_some_and(|l| !l.slots.is_empty())
        };
        (0..s.cluster.partition_count()).any(live)
    }

    #[test]
    fn inline_easy_scan_matches_reference_loop() {
        for (seed, relax) in RELAXATIONS.into_iter().enumerate() {
            for (policy, tenants) in ORDERS {
                let config = SimConfig {
                    policy,
                    relax,
                    ..SimConfig::default()
                };
                let jobs = contended_jobs(seed as u64 + 1, 700);
                let mut chunks = 0;
                let watch = |s: &SimSession| {
                    chunks = chunks.max(s.cluster.partition(0).waiting().chunks().count())
                };
                let (s, _) = lockstep(&sixty_four(), config, tenants, &jobs, (0, 0), watch);
                let deepest = s.max_queue;
                assert!(
                    deepest[0] >= 300 && chunks >= 5,
                    "queue only {deepest:?} deep in {chunks} chunks under {config:?}"
                );
            }
        }
    }

    #[test]
    fn conservative_plan_over_the_ledger_matches_the_flat_copy() {
        for (seed, (policy, tenants)) in ORDERS.into_iter().enumerate() {
            let config = conservative(policy);
            // One job in six overruns its walltime (`contended_jobs`); the
            // other five finish early. The second run cancels, and goes
            // on from a restored session halfway through.
            let jobs = contended_jobs(seed as u64 + 11, 700);
            for legs in [(0, 0), (5, 700)] {
                let (mut chunks, mut live_plans) = (0, 0);
                let watch = |s: &SimSession| {
                    chunks = chunks.max(s.cluster.partition(0).waiting().chunks().count());
                    live_plans += usize::from(live_plan_with_jobs(s));
                };
                let (s, (rebuilds, _)) =
                    lockstep(&sixty_four(), config, tenants, &jobs, legs, watch);
                let deepest = s.max_queue;
                assert!(
                    deepest[0] >= 300 && chunks >= 5,
                    "queue only {deepest:?} deep in {chunks} chunks under {config:?}"
                );
                // Early completions, overruns and cancels: the plan is
                // rebuilt over and over, and between two rebuilds it is
                // checked against a from-scratch one while it holds jobs.
                assert!(
                    rebuilds >= 100 && live_plans >= 100,
                    "{rebuilds} rebuilds, {live_plans} live plans checked under {config:?}"
                );
            }
        }
    }

    /// Philly-style: 256 units in four uneven virtual clusters, every job
    /// bound to one.
    fn four_clusters() -> SystemSpec {
        let mut system = tiny();
        system.total_nodes = 256;
        system.total_units = 256;
        system.virtual_clusters = 4;
        system
    }

    #[test]
    fn conservative_partitions_each_keep_their_own_plan() {
        // Each of the four partitions plans on the profile it keeps, in
        // turn within one event; the schedules are the reference's.
        let mut jobs = contended_jobs(21, 900);
        for j in &mut jobs {
            j.virtual_cluster = Some((j.id % 4) as u16);
        }
        for policy in [Policy::Fcfs, Policy::Sjf] {
            let config = conservative(policy);
            let mut live_plans = 0;
            let watch = |s: &SimSession| live_plans += usize::from(live_plan_with_jobs(s));
            let (s, (rebuilds, _)) = lockstep(&four_clusters(), config, None, &jobs, (7, 0), watch);
            let deepest = &s.max_queue;
            assert!(
                deepest.len() == 4 && deepest.iter().all(|&q| q >= 20),
                "queues {deepest:?} under {config:?}"
            );
            assert!(rebuilds >= 4 && live_plans >= 100);
        }
    }

    #[test]
    fn every_discipline_relaxation_and_order_matches_the_model() {
        // On the four uneven partitions: four jobs in five bound to one
        // (the widest escalate to partition 0 when theirs is too narrow),
        // one in seven planned with an estimate of its own, under or over
        // its runtime, and refusals the model never sees: two jobs no
        // partition takes, and tenant `c`'s past its quota.
        let jobs = contended_jobs(51, 240);
        let mut jobs: Vec<Submission> = jobs.into_iter().map(Into::into).collect();
        for sub in &mut jobs {
            let id = sub.job.id;
            sub.job.virtual_cluster = (id % 5 != 4).then_some((id % 4) as u16);
            sub.walltime = (id % 7 == 3).then_some(sub.job.runtime * (id as i64 % 3) / 2);
        }
        jobs.extend([job(1_000, 5, 10, 0, 10), job(1_001, 5, 10, 257, 10)].map(Submission::from));
        let tenants = Some("a 1\nb 2\nc 1 400\n");
        let each = |r| Policy::ALL.map(|p| (r, p));
        for backfill in [Backfill::None, Backfill::Easy, Backfill::Conservative] {
            for (relax, policy) in RELAXATIONS.into_iter().flat_map(each) {
                let config = SimConfig {
                    policy,
                    backfill,
                    relax,
                    ..SimConfig::default()
                };
                let (s, _) = lockstep(&four_clusters(), config, tenants, &jobs, (9, 150), |_| {});
                let (queues, snap) = (&s.max_queue, s.snapshot());
                let refused = snap.submitted < jobs.len() - 2;
                let seen = queues.iter().all(|&q| q >= 5) && snap.cancelled >= 5 && refused;
                assert!(seen, "queues {queues:?}, {snap:?} under {config:?}");
            }
        }
    }

    // ---- the kept plan: what diverges it and what does not --------------

    #[test]
    fn a_plan_nothing_diverges_from_is_built_once() {
        // No walltimes, or killed exactly at the limit: every completion
        // is at its end estimate, FCFS arrivals queue at the tail, and the
        // queue stands from the first wait to the last start. One build:
        // every pass plans down to the newest arrival, which has no
        // promise yet.
        let jobs = punctual_jobs(41, 700);
        let fcfs = conservative(Policy::Fcfs);
        let mut live_plans = 0;
        let watch = |s: &SimSession| live_plans += usize::from(live_plan_with_jobs(s));
        let (s, once) = lockstep(&sixty_four(), fcfs, None, &jobs, (0, 0), watch);
        assert!(s.max_queue[0] >= 300 && live_plans >= 1_000);
        assert_eq!(once.0, 1);
        let mut queues = Vec::new();
        let watch = |s: &SimSession| queues.push(s.cluster.queue_len());
        let (_, restored) = lockstep(&sixty_four(), fcfs, None, &jobs, (0, 700), watch);
        let queued = queues[699];
        // The restored session builds a second time. The arrivals are
        // over by then and every job waiting holds its promise, so its
        // passes plan only as far as a job could start, and once the
        // planned jobs have started a head starts off the unplanned tail:
        // a start the plan does not hold, and the third build.
        assert_eq!(restored.0, 3);
        // So the jobs waiting at the restore are planned once more, all
        // but the few that start as the head before a pass reaches them.
        let again = (restored.1 - once.1) as usize;
        assert!(
            queued >= 300 && (queued - 10..=queued).contains(&again),
            "{again} of the {queued} jobs waiting at the restore planned again"
        );
    }

    #[test]
    fn each_job_that_waits_without_a_walltime_is_planned_once() {
        // The count guard: on a Philly-style trace without walltimes
        // nothing ever re-derives a slot, so the pairs issued are the jobs
        // that were ever promised one. (Before the plan was kept a pass
        // issued a pair per waiting job, every pass.)
        let mut jobs = contended_jobs(21, 900);
        for j in &mut jobs {
            j.virtual_cluster = Some((j.id % 4) as u16);
            j.walltime = None;
        }
        let config = conservative(Policy::Fcfs);
        let (s, (rebuilds, pairs)) =
            lockstep(&four_clusters(), config, None, &jobs, (0, 0), |_| {});
        let promised = s.promised.iter().flatten().count();
        let waited = s.jobs.iter().filter(|j| j.wait != Some(0)).count();
        assert_eq!(pairs, promised as u64);
        // Near enough the jobs that waited: a few were promised "now"
        // on arrival behind a queue and never waited, a few queued only
        // while nothing was free and started as the head, never planned.
        assert!(
            promised >= 800 && promised.abs_diff(waited) <= 10,
            "{promised} promised, {waited} waited"
        );
        assert_eq!(rebuilds, 4, "one build per partition");
        let reference = simulate(&Trace::new(four_clusters(), jobs).unwrap(), &config);
        assert_eq!(s.into_result().metrics, reference.metrics);
    }

    #[test]
    fn a_start_the_plan_does_not_hold_diverges_it() {
        // 64 units, every job punctual. A holds 60 until t=100; B (32) is
        // planned for t=100 at t=1 — the one build so far. At t=100 B
        // starts as the plan's first slot and the plan, live, holds nobody.
        // C (16) arrives at t=110 into 32 free units and starts on
        // arrival: nobody planned that. D (40) at t=120 has to wait, and
        // the pass that plans it builds the plan again.
        let jobs = [
            job(1, 0, 100, 60, 100), // A
            job(2, 1, 50, 32, 50),   // B
            job(3, 110, 90, 16, 90), // C
            job(4, 120, 10, 40, 10), // D
        ];
        let fcfs = conservative(Policy::Fcfs);
        let (_, counts) = lockstep(&sixty_four(), fcfs, None, &jobs, (0, 0), |_| {});
        assert_eq!(counts, (2, 2));
        // Without C the plan made at t=1 is still live when D arrives.
        let without = [jobs[0].clone(), jobs[1].clone(), jobs[3].clone()];
        let (_, counts) = lockstep(&sixty_four(), fcfs, None, &without, (0, 0), |_| {});
        assert_eq!(counts, (1, 2));
    }

    #[test]
    fn an_arrival_that_sorts_ahead_of_a_planned_job_diverges_the_plan() {
        // A holds 60 of 64 units until t=100; B (32 units, 500 s) is
        // planned for t=100 at t=1. C (32 units) arrives at t=2, with 4
        // units free so the pass goes on to plan it. Shorter than B, under
        // SJF it queues ahead of B and the plan is built again, C's pair
        // alone: B holds its promise and cannot start before t=100, so the
        // pass stops behind C, and at t=100 B starts as the head unplanned.
        // Longer, C queues behind B and gets the one pair.
        let arrivals = |wall_c| {
            [
                job(1, 0, 100, 60, 100),
                job(2, 1, 500, 32, 500),
                job(3, 2, wall_c, 32, wall_c),
            ]
        };
        let sjf = conservative(Policy::Sjf);
        let (_, counts) = lockstep(&sixty_four(), sjf, None, &arrivals(50), (0, 0), |_| {});
        assert_eq!(counts, (2, 2));
        let (_, counts) = lockstep(&sixty_four(), sjf, None, &arrivals(600), (0, 0), |_| {});
        assert_eq!(counts, (1, 2));
    }

    // ---- the cut: a pass plans only as deep as it can tell --------------

    /// 64 units. A (40 units, estimate t=1000) and B (20 until t=2000)
    /// start at t=0; ten jobs arrive at t=1‥10 into the 4 units left and
    /// are each planned on arrival: J1 and J2 (48 units, 100 s) for t=2000
    /// and 2100, J3 (8 units, 100 s) for t=1000, J4‥J10 (48 units, 200 s)
    /// for t=2200‥3400. A ends at t=100, 900 s early, which diverges the
    /// plan. Rows: A 0, B 1, J*k* 1 + *k*; ids one more.
    fn behind_a_cut() -> Vec<Job> {
        let mut jobs = vec![job(1, 0, 100, 40, 1_000), job(2, 0, 2_000, 20, 2_000)];
        for k in 1..=10 {
            let (procs, wall) = match k {
                1 | 2 => (48, 100),
                3 => (8, 100),
                _ => (48, 200),
            };
            jobs.push(job(2 + k, k as i64, wall, procs, wall));
        }
        jobs
    }

    #[test]
    fn a_pass_stops_planning_where_nothing_behind_can_start() {
        // At t=100, 44 units free: the rebuilt plan gives J1 and J2 their
        // slots again and starts J3, which fits beside them. None of
        // J4‥J10 fits the 36 units left and each holds its promise, so the
        // pass stops there — three pairs where planning the whole queue
        // issues ten — and the plan, live, holds J1 and J2 alone.
        let mut s = SimSession::new(&sixty_four(), conservative(Policy::Fcfs));
        for j in behind_a_cut() {
            s.submit(j).unwrap();
        }
        s.advance_to(99);
        let counts = s.counts();
        assert_eq!(counts.rebuilds.fresh, 1);
        assert_eq!(counts.pairs, 10, "each arrival planned once");
        s.advance_to(100);
        let counts = s.counts();
        assert_eq!(counts.rebuilds.total(), 2, "one build");
        assert_eq!(counts.rebuilds.completion, 1, "A ended early");
        assert_eq!(counts.pairs, 13, "three pairs");
        assert_eq!(counts.horizon_cuts, 1, "J4‥J10 behind the cut");
        let plan = s.cluster.partition(0).live_plan().expect("live");
        assert_eq!(plan.slots, [(2, 2_000), (3, 2_100)]);
        assert_eq!(s.query(5), Some(JobState::Running), "J3 backfills");
        assert_eq!(s.cluster.queue_len(), 9);
        assert_eq!(s.promised[5], Some(2_200), "J4's promise stands");
        s.assert_profiles_match_rebuild();
    }

    #[test]
    fn a_job_behind_a_cut_matches_the_reference_however_it_leaves_the_queue() {
        let jobs = behind_a_cut();
        let fcfs = conservative(Policy::Fcfs);
        let leg = |config, jobs: &[Job], legs| {
            lockstep(&sixty_four(), config, None, jobs, legs, |_| {}).1
        };
        // Started as the head: J4, never planned again after the cut, at
        // t=2200; J5‥J10 likewise in turn, each a start the plan does not
        // hold and a build by the pass after it.
        assert_eq!(leg(fcfs, &jobs, (0, 0)), (8, 13));
        // Cancelled: the pass at t=100 is the twelfth event, and J10, at
        // the back of the queue behind the cut, goes right after it.
        assert_eq!(leg(fcfs, &jobs, (12, 0)), (7, 13));
        // Carried across a restore right after that pass: the restored
        // session plans from scratch and issues no pair at all — every job
        // waiting holds its promise and none fits until it is the head —
        // so J1 and J2 start as heads unplanned too: three more builds.
        assert_eq!(leg(fcfs, &jobs, (0, 12)), (11, 13));
        // Overtaken: under SJF, X (48 units, 150 s) arrives at t=101 and
        // queues behind J1 and J2 but ahead of J4‥J10 — no planned job is
        // overtaken, the plan stays live and X's one pair stops the pass.
        let mut overtaken = jobs.clone();
        overtaken.push(job(13, 101, 150, 48, 150));
        assert_eq!(leg(conservative(Policy::Sjf), &overtaken, (0, 0)), (8, 14));
    }

    #[test]
    fn cancelling_a_pending_job_finds_it_by_its_key() {
        // 5 000 arrivals still in the future, several to a second and ids
        // in no order within one, and two live jobs under one id (batch
        // replay allows it). The twin removes by the scan the search
        // replaced; the pending queues must stay equal entry for entry.
        let mut rng = lumos_stats::Rng::new(5);
        let build = || {
            let mut s = SimSession::new(&tiny(), SimConfig::default());
            s.allow_duplicate_ids = true;
            s
        };
        let (mut s, mut twin) = (build(), build());
        for n in 0..5_000u64 {
            let id = if n == 4_000 { 3_990 } else { n ^ 5 };
            let j = job(id, 10 + (n / 4) as i64, 60, 1 + rng.next_below(8), 60);
            s.submit(j.clone()).unwrap();
            twin.submit(j).unwrap();
        }
        s.advance_to(5);
        twin.advance_to(5);
        let mut cancelled = 0;
        for id in (0..5_000u64).step_by(7) {
            let idx = twin.row_of(id).unwrap();
            let at = twin.pending.iter().position(|&i| i == idx).unwrap();
            assert_eq!(s.pending_position(idx), at, "job {id}");
            assert!(s.cancel(id), "job {id}");
            twin.pending.remove(at);
            twin.state[idx] = JobState::Cancelled;
            twin.cancelled_count += 1;
            twin.events.push(SimEvent::Cancelled { id, time: 5 });
            cancelled += 1;
            assert_eq!(s.pending, twin.pending, "after job {id}");
        }
        assert_eq!(s.snapshot().cancelled, cancelled);
        assert_eq!(s.save_state(), twin.save_state());
        s.advance_to_completion();
        twin.advance_to_completion();
        assert_eq!(s.save_state(), twin.save_state());
    }

    #[test]
    fn a_restored_pending_queue_keeps_equal_keys_in_row_order() {
        // 24 pairs of live jobs, each pair under one `(submit, id)` (batch
        // replay allows it) and the two halves of a pair of different
        // sizes, all still to arrive: enough rows that an unstable sort
        // on `(submit, id)` alone swaps some pairs. A restore must bring
        // each pair back in row order, and a cancel (of a pair's first
        // row) must then continue as it does in the live session.
        let mut live = SimSession::new(&tiny(), SimConfig::default());
        live.allow_duplicate_ids = true;
        live.submit(job(100, 0, 500, 100, 500)).unwrap();
        for n in 0..48u64 {
            let (id, half) = (n % 24, n / 24);
            let submit = 10 + (id / 3) as i64;
            live.submit(job(id, submit, 40 + 30 * half as i64, 30 + 40 * half, 200))
                .unwrap();
        }
        live.advance_to(5);
        let mut restored = SimSession::restore(&tiny(), live.save_state()).unwrap();
        assert_eq!(restored.pending, live.pending);
        assert!(live.cancel(7));
        assert!(restored.cancel(7));
        assert_eq!(restored.save_state(), live.save_state());
        live.advance_to_completion();
        restored.advance_to_completion();
        assert_eq!(restored.save_state(), live.save_state());
    }

    #[test]
    fn cancel_after_a_fair_resort_finds_the_job_wherever_it_stands() {
        // Max-min over three tenants leaves the queue ordered by share,
        // several chunks deep; `cancel` looks a job up by its static key
        // all the same. Every other event cancels the job at the back.
        let config = SimConfig {
            policy: Policy::MaxMinFair,
            ..SimConfig::default()
        };
        let mut resorted = 0;
        let watch = |s: &SimSession| {
            let queue = s.cluster.partition(0).waiting();
            let queued: Vec<usize> = queue.chunks().flatten().map(|w| w.idx).collect();
            let by_share = queued
                .windows(2)
                .any(|w| s.queue_key(w[0]) > s.queue_key(w[1]));
            resorted += usize::from(by_share && queue.chunks().count() >= 3);
        };
        let (jobs, tenants) = (contended_jobs(31, 700), Some("a 1\nb 1\nc 1\n"));
        lockstep(&sixty_four(), config, tenants, &jobs, (2, 0), watch);
        assert!(
            resorted >= 100,
            "re-sorted and deep after {resorted} events"
        );
    }

    #[test]
    fn allowance_only_start_still_triggers_the_rescan() {
        // 64 units. A (40 until t=100) and B (14 until t=120) run; H needs
        // 50, so its shadow is 100 with nothing to spare. C2 (4 units,
        // far too long) is rejected: not harmless, no extra units. Then C1
        // (6 units, ends at 142) arrives and starts on the allowance
        // alone (0.5 × 99 s past the promise of 100). That moves H's
        // shadow to 120, where B's 14 units leave 8 to spare — and the
        // second scan must now admit C2 into them.
        let config = SimConfig {
            relax: Relax::Fixed { factor: 0.5 },
            ..SimConfig::default()
        };
        let jobs = [
            job(1, 0, 100, 40, 100),    // A
            job(2, 0, 120, 14, 120),    // B
            job(3, 1, 500, 50, 500),    // H
            job(4, 1, 1_000, 4, 1_000), // C2
            job(5, 2, 140, 6, 140),     // C1
        ];
        let (s, _) = lockstep(&sixty_four(), config, None, &jobs, (0, 0), |s| {
            match s.now() {
                1 => assert_eq!(s.query(4), Some(JobState::Waiting), "C2 does not fit yet"),
                2 => assert_eq!(s.query(3), Some(JobState::Waiting), "H still waits"),
                _ => {}
            }
        });
        assert_eq!(
            s.job(5).unwrap().wait,
            Some(0),
            "C1 starts on the allowance"
        );
        assert_eq!(s.job(4).unwrap().wait, Some(1), "the rescan admits C2");
    }
}
