//! The save format: complete saves, increments on a marked save, and the
//! way back from both ([`SessionState::fold`], [`SimSession::restore`]).

use lumos_core::{CoreError, Duration, Job, Result, SystemSpec, Timestamp};
use serde::{Deserialize, Serialize};

use super::{JobState, SimEvent, SimSession};
use crate::simulator::SimConfig;
use crate::tenant::{TenantId, TenantState, TenantTable};

/// Complete, serializable scheduling state of a [`SimSession`].
///
/// Produced by [`SimSession::save_state`] and consumed by
/// [`SimSession::restore`]. Only *facts* are stored — the job table with
/// observed waits, per-job lifecycle states, planning walltimes, issued
/// reservations, and the accumulated observables (violations, timeline,
/// queue maxima, undrained events). Everything derivable is rebuilt on
/// restore from those facts plus the [`SystemSpec`]: partition routing and
/// effective requests (via the deterministic [`crate::cluster::Cluster::route`]),
/// policy keys (the policy key never depends on the observed wait), queue
/// orderings, the release ledgers, and the completion queue. That keeps the
/// snapshot small and makes corruption detectable as inconsistency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionState {
    /// Scheduling configuration the session runs under.
    pub config: SimConfig,
    /// Simulation time at the moment of the save.
    pub clock: Timestamp,
    /// Every job ever submitted, in submission order, with observed waits
    /// filled in for started jobs.
    pub jobs: Vec<Job>,
    /// Per-job lifecycle state, parallel to `jobs`.
    pub states: Vec<JobState>,
    /// Per-job walltime the scheduler plans with, parallel to `jobs`.
    pub plan_wall: Vec<Duration>,
    /// Per-job promised (reserved) start time, parallel to `jobs`.
    pub promised: Vec<Option<Timestamp>>,
    /// Reservation violations observed so far, as `(promised, actual)`.
    pub violations: Vec<(Timestamp, Timestamp)>,
    /// Utilization timeline points, as `(time, used_units)`.
    pub timeline: Vec<(Timestamp, u64)>,
    /// Per-partition running-maximum queue length.
    pub max_queue: Vec<usize>,
    /// Global maximum total queue length.
    pub max_queue_total: usize,
    /// Events recorded but not yet drained at save time.
    pub events: Vec<SimEvent>,
    /// Whether the session records events.
    pub record_events: bool,
    /// Tenant table, when the session runs with tenancy enabled.
    /// `Option` so snapshots written before tenancy existed still
    /// deserialize (missing field → `None` → tenancy off).
    pub tenants: Option<TenantTable>,
    /// Owning tenant per job, parallel to `jobs`; saved iff `tenants`
    /// is. Usage accounting is re-derived from this plus the states.
    pub tenant_of: Option<Vec<TenantId>>,
}

/// What changed in a session since the save it was last marked at
/// ([`SimSession::mark_saved`]): an increment that
/// [`SessionState::fold`] lays over that save's state to get the state
/// at the moment of [`SimSession::save_delta`].
///
/// A finished or cancelled job's row never changes again, so an
/// increment holds the rows that were *sealed* since the mark, the
/// current rows of the jobs still live, and the tails of the append-only
/// observables — O(live + new history), however long the table is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDelta {
    /// Simulation time at the moment of the save.
    pub clock: Timestamp,
    /// Length of the job table at the moment of the save.
    pub len: usize,
    /// Table indices of the rows carried, strictly ascending: every row
    /// sealed since the mark and every row still live.
    pub rows: Vec<usize>,
    /// The jobs at `rows`.
    pub jobs: Vec<Job>,
    /// The lifecycle states at `rows`.
    pub states: Vec<JobState>,
    /// The planning walltimes at `rows`.
    pub plan_wall: Vec<Duration>,
    /// The promised start times at `rows`.
    pub promised: Vec<Option<Timestamp>>,
    /// The owning tenants at `rows`; saved iff the session has tenancy.
    pub tenant_of: Option<Vec<TenantId>>,
    /// Index the `violations` tail starts at.
    pub violations_from: usize,
    /// Violations observed since the mark.
    pub violations: Vec<(Timestamp, Timestamp)>,
    /// Index the `timeline` tail starts at: the last point the marked
    /// save held (a later same-instant change may still fold it) or the
    /// first one past it.
    pub timeline_from: usize,
    /// Timeline points from `timeline_from` on.
    pub timeline: Vec<(Timestamp, u64)>,
    /// Per-partition running-maximum queue length.
    pub max_queue: Vec<usize>,
    /// Global maximum total queue length.
    pub max_queue_total: usize,
    /// Events recorded but not yet drained at save time.
    pub events: Vec<SimEvent>,
    /// Whether the session records events.
    pub record_events: bool,
}

impl SessionState {
    /// The per-job columns must be as long as the job table.
    fn check_columns(&self) -> Result<()> {
        let n = self.jobs.len();
        if self.states.len() != n
            || self.plan_wall.len() != n
            || self.promised.len() != n
            || self.tenant_of.as_ref().is_some_and(|t| t.len() != n)
        {
            return Err(CoreError::InvalidSnapshot(format!(
                "table lengths disagree: {n} jobs, {} states, {} walltimes, {} promises, {} owners",
                self.states.len(),
                self.plan_wall.len(),
                self.promised.len(),
                self.tenant_of.as_ref().map_or(n, Vec::len)
            )));
        }
        Ok(())
    }

    /// Lays a chain of increments, oldest first, over this state: the
    /// result is what [`SimSession::save_state`] returned when the last
    /// increment was taken.
    ///
    /// # Errors
    /// [`CoreError::InvalidSnapshot`] unless every table index is covered
    /// exactly once: an increment must rewrite every row that was live
    /// before it and no sealed one, append the rows past the old table
    /// end without a gap up to its `len`, and continue the violation and
    /// timeline lists where the state before it stopped.
    pub fn fold(mut self, deltas: impl IntoIterator<Item = StateDelta>) -> Result<Self> {
        let bad = |what: String| Err(CoreError::InvalidSnapshot(what));
        self.check_columns()?;
        let mut live = self.states.iter().filter(|s| s.is_live()).count();
        for delta in deltas {
            let n = delta.rows.len();
            if delta.jobs.len() != n
                || delta.states.len() != n
                || delta.plan_wall.len() != n
                || delta.promised.len() != n
                || delta.tenant_of.as_ref().map(Vec::len) != self.tenant_of.as_ref().map(|_| n)
            {
                return bad(format!("increment columns disagree on {n} rows"));
            }
            let old_len = self.jobs.len();
            let rewritten = delta.rows.partition_point(|&idx| idx < old_len);
            let ascending = delta.rows.windows(2).all(|w| w[0] < w[1]);
            let sealed = delta.rows[..rewritten]
                .iter()
                .find(|&&idx| !self.states[idx].is_live());
            let appended = delta.rows[rewritten..].iter().copied();
            if !ascending || !appended.eq(old_len..delta.len) {
                return bad(format!(
                    "increment does not extend a table of {old_len} rows to {} one row at a time",
                    delta.len
                ));
            }
            if let Some(idx) = sealed {
                return bad(format!("increment rewrites row {idx}, which was sealed"));
            }
            if rewritten != live {
                return bad(format!(
                    "increment carries {rewritten} of the {live} rows that were live before it"
                ));
            }
            let timeline_len = self.timeline.len();
            if delta.timeline_from > timeline_len || delta.timeline_from + 1 < timeline_len {
                return bad(format!(
                    "timeline tail starts at {}, the timeline before it has {timeline_len} points",
                    delta.timeline_from
                ));
            }
            if delta.violations_from != self.violations.len() {
                return bad(format!(
                    "violation tail starts at {}, {} were recorded before it",
                    delta.violations_from,
                    self.violations.len()
                ));
            }
            live = delta.states.iter().filter(|s| s.is_live()).count();
            scatter(&mut self.jobs, &delta.rows, delta.jobs);
            scatter(&mut self.states, &delta.rows, delta.states);
            scatter(&mut self.plan_wall, &delta.rows, delta.plan_wall);
            scatter(&mut self.promised, &delta.rows, delta.promised);
            if let (Some(column), Some(owners)) = (&mut self.tenant_of, delta.tenant_of) {
                scatter(column, &delta.rows, owners);
            }
            self.timeline.truncate(delta.timeline_from);
            self.timeline.extend(delta.timeline);
            self.violations.extend(delta.violations);
            self.clock = delta.clock;
            self.max_queue = delta.max_queue;
            self.max_queue_total = delta.max_queue_total;
            self.events = delta.events;
            self.record_events = delta.record_events;
        }
        Ok(self)
    }
}

/// Writes `values[k]` to `column[rows[k]]`; a row one past the column's
/// end is appended ([`SessionState::fold`] has checked that the rows past
/// the end are consecutive).
fn scatter<T>(column: &mut Vec<T>, rows: &[usize], values: Vec<T>) {
    for (&idx, value) in rows.iter().zip(values) {
        if idx < column.len() {
            column[idx] = value;
        } else {
            column.push(value);
        }
    }
}

/// What a durable save of the session already holds
/// ([`SimSession::mark_saved`]), so that the next one
/// ([`SimSession::save_delta`]) can leave it out.
#[derive(Debug)]
pub(super) struct SavedMark {
    /// The caller's name for that save.
    id: u64,
    /// Jobs that finished or were cancelled since, in event order.
    pub(super) sealed: Vec<usize>,
    /// The save's timeline is final below this index: its last point may
    /// still be folded by a change at the same instant
    /// ([`SimSession::record_state_point`]), nothing before it can.
    timeline_from: usize,
    /// Violations the save holds (the list only grows).
    violations_from: usize,
}

impl SimSession {
    /// Captures the session's complete scheduling state for durable
    /// storage. See [`SessionState`] for what is stored versus re-derived;
    /// [`SimSession::restore`] is the inverse.
    #[must_use]
    pub fn save_state(&self) -> SessionState {
        SessionState {
            config: self.config,
            clock: self.clock,
            jobs: self.jobs.clone(),
            states: self.state.clone(),
            plan_wall: self.plan_wall.clone(),
            promised: self.promised.clone(),
            violations: self.violations.clone(),
            timeline: self.timeline.clone(),
            max_queue: self.max_queue.clone(),
            max_queue_total: self.max_queue_total,
            events: self.events.clone(),
            record_events: self.record_events,
            tenants: self.tenants.as_ref().map(|ts| ts.table.clone()),
            tenant_of: self.tenants.as_ref().map(|ts| ts.tenant_of.clone()),
        }
    }

    /// Declares the session's current state durably saved under the name
    /// `id` (the serving layer passes the snapshot's sequence number):
    /// from here on [`SimSession::save_delta`] returns what changed since
    /// this call. Call it only once the save is durable — an increment on
    /// a save that was lost restores nothing.
    pub fn mark_saved(&mut self, id: u64) {
        let mut sealed = self.mark.take().map_or_else(Vec::new, |mark| mark.sealed);
        sealed.clear();
        self.mark = Some(SavedMark {
            id,
            sealed,
            timeline_from: self.timeline.len().saturating_sub(1),
            violations_from: self.violations.len(),
        });
    }

    /// What changed since the session was last marked saved, with the
    /// name that save was given — or `None` for a session never marked,
    /// whose only complete save is [`SimSession::save_state`].
    ///
    /// Costs O(live jobs + history since the mark): the live set is read
    /// off the pending queue, the waiting lists and the completion queue,
    /// never by scanning the job table.
    #[must_use]
    pub fn save_delta(&self) -> Option<(u64, StateDelta)> {
        let mark = self.mark.as_ref()?;
        let running = self.finishes.rows();
        let mut rows = mark.sealed.clone();
        rows.extend(self.pending.iter().copied());
        for part in 0..self.cluster.partition_count() {
            let waiting = self.cluster.partition(part).waiting();
            rows.extend(waiting.chunks().flatten().map(|w| w.idx));
        }
        rows.extend(running);
        rows.sort_unstable();
        let delta = StateDelta {
            clock: self.clock,
            len: self.jobs.len(),
            jobs: rows.iter().map(|&i| self.jobs[i].clone()).collect(),
            states: rows.iter().map(|&i| self.state[i]).collect(),
            plan_wall: rows.iter().map(|&i| self.plan_wall[i]).collect(),
            promised: rows.iter().map(|&i| self.promised[i]).collect(),
            tenant_of: self
                .tenants
                .as_ref()
                .map(|ts| rows.iter().map(|&i| ts.tenant_of[i]).collect()),
            rows,
            violations_from: mark.violations_from,
            violations: self.violations[mark.violations_from..].to_vec(),
            timeline_from: mark.timeline_from,
            timeline: self.timeline[mark.timeline_from..].to_vec(),
            max_queue: self.max_queue.clone(),
            max_queue_total: self.max_queue_total,
            events: self.events.clone(),
            record_events: self.record_events,
        };
        Some((mark.id, delta))
    }

    /// Rebuilds a session from a previously saved [`SessionState`].
    ///
    /// `system` must be the spec the state was saved under — partition
    /// geometry is derived from it, and the restored session continues
    /// exactly where the saved one stopped: identical future schedules for
    /// identical future inputs, and `restore(save_state())` round-trips.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidSnapshot`] when the state is internally
    /// inconsistent: mismatched table lengths, started jobs without a
    /// recorded wait (or unstarted jobs with one), or running jobs that
    /// overcommit a partition.
    pub fn restore(system: &SystemSpec, state: SessionState) -> Result<Self> {
        state.check_columns()?;
        let SessionState {
            config,
            clock,
            jobs,
            states,
            plan_wall,
            promised,
            violations,
            timeline,
            max_queue,
            max_queue_total,
            events,
            record_events,
            tenants,
            tenant_of,
        } = state;
        let mut s = Self::new(system, config);
        let parts = s.cluster.partition_count();
        if max_queue.len() != parts {
            return Err(CoreError::InvalidSnapshot(format!(
                "max_queue covers {} partitions, the system has {parts}",
                max_queue.len()
            )));
        }
        s.jobs = jobs;
        s.plan_wall = plan_wall;
        s.promised = promised;
        s.state = states;
        s.reserve(s.jobs.len());
        let mut waiting: Vec<usize> = Vec::new();
        for (idx, job) in s.jobs.iter().enumerate() {
            let part = s.cluster.route(job.virtual_cluster, job.procs);
            let cap = s.cluster.partition(part).capacity;
            let wall = s.plan_wall[idx];
            s.part_of.push(part);
            s.procs_eff.push(job.procs.min(cap));
            s.key_of.push(s.config.policy.key_with(job, wall));
            if let Some(by_id) = &mut s.by_id {
                by_id.entry(job.id).or_insert(idx);
            }
            match s.state[idx] {
                JobState::Pending | JobState::Waiting => {
                    if job.wait.is_some() {
                        return Err(CoreError::InvalidSnapshot(format!(
                            "job {} is {:?} but already has a wait",
                            job.id, s.state[idx]
                        )));
                    }
                    if s.state[idx] == JobState::Pending {
                        s.pending.push_back(idx);
                    } else {
                        waiting.push(idx);
                    }
                }
                JobState::Running | JobState::Finished => {
                    let Some(wait) = job.wait else {
                        return Err(CoreError::InvalidSnapshot(format!(
                            "job {} is {:?} but has no recorded wait",
                            job.id, s.state[idx]
                        )));
                    };
                    if s.state[idx] == JobState::Running {
                        let start = job.submit + wait;
                        let procs = job.procs.min(cap);
                        let p = s.cluster.partition_mut(part);
                        if procs > p.free {
                            return Err(CoreError::InvalidSnapshot(format!(
                                "partition {part} overcommitted: job {} holds {procs} units with {} free",
                                job.id, p.free
                            )));
                        }
                        p.start(procs, start + wall);
                        s.finishes.push(start + job.runtime, idx);
                    } else {
                        s.finished_count += 1;
                    }
                }
                JobState::Cancelled => s.cancelled_count += 1,
            }
        }
        s.tenants = match (tenants, tenant_of) {
            (None, None) => None,
            (Some(table), Some(owners)) => {
                let runtimes: Vec<Duration> = s.jobs.iter().map(|j| j.runtime).collect();
                let ts = TenantState::rebuild(table, &owners, &s.state, &s.procs_eff, &runtimes)
                    .map_err(CoreError::InvalidSnapshot)?;
                Some(ts)
            }
            _ => {
                return Err(CoreError::InvalidSnapshot(
                    "tenant table and tenant_of must be saved together".into(),
                ))
            }
        };
        // The live queue's one order, `(submit, id, row)`: the row keeps
        // two jobs under one `(submit, id)` in submission order.
        let jobs = &s.jobs;
        s.pending
            .make_contiguous()
            .sort_unstable_by_key(|&i| (jobs[i].submit, jobs[i].id, i));
        // Queue order is not stored: each job goes back where its static
        // key puts it.
        for idx in waiting {
            s.enqueue(s.part_of[idx], idx);
        }
        s.violations = violations;
        s.timeline = timeline;
        s.max_queue = max_queue;
        s.max_queue_total = max_queue_total;
        s.clock = clock;
        s.events = events;
        s.record_events = record_events;
        Ok(s)
    }
}
