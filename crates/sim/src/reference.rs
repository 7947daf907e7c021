//! The scheduling model of DESIGN.md §4 as a plain simulator: what the
//! engine is held to, event by event, by the differential tests in
//! `session`, and the [`Timeline`] the profile tests hold the chunked
//! profile and the release ledger to.
//!
//! Nothing here is incremental. Every question rescans the job table: the
//! next event, who waits where in what order, the free units, the
//! timeline a pass plans on (rebuilt from the running jobs each time). It
//! takes the configuration as plain data and derives the policy key,
//! Eq. 1's allowance and the tenant shares itself; it shares no code with
//! the engine's cluster, profile, session or metrics. A submission reaches
//! it only once the engine has accepted it, so it validates nothing.

use lumos_core::system::virtual_cluster_units;
use lumos_core::{Duration, Job, SystemSpec, Timestamp};

use crate::backfill::{Backfill, Relax};
use crate::policy::Policy;
use crate::simulator::SimConfig;
use crate::tenant::{TenantId, TenantTable};

type Point = (Timestamp, u64);

/// Where a job is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Pending,
    Waiting,
    Running,
    Finished,
    Cancelled,
}

/// A submitted job, its partition, its request clamped to it, its
/// planning walltime and its tenant — and what the model made of it.
#[derive(Debug)]
pub(crate) struct Row {
    job: Job,
    part: usize,
    procs: u64,
    wall: Duration,
    tenant: usize,
    pub(crate) phase: Phase,
    pub(crate) wait: Option<Duration>,
    pub(crate) promise: Option<Timestamp>,
}

/// The job table, the clock, units per partition, per-tenant weights and
/// the default tenant (`None` without tenancy), and the observables:
/// `(promise, start)` of each promised start, each partition's longest
/// queue behind its head, the most jobs waiting after any event.
#[derive(Debug)]
pub(crate) struct Model {
    config: SimConfig,
    caps: Vec<u64>,
    tenants: Option<(Vec<f64>, usize)>,
    pub(crate) rows: Vec<Row>,
    pub(crate) violations: Vec<(Timestamp, Timestamp)>,
    pub(crate) max_queue: Vec<usize>,
    pub(crate) max_queue_total: usize,
    now: Timestamp,
}

impl Model {
    pub(crate) fn new(system: &SystemSpec, config: SimConfig, table: Option<&TenantTable>) -> Self {
        let parts = match config.respect_virtual_clusters {
            true => usize::from(system.virtual_clusters.max(1)),
            false => 1,
        };
        let default = |t: &TenantTable| usize::from(t.lookup(TenantTable::DEFAULT).unwrap());
        Self {
            config,
            caps: virtual_cluster_units(system.total_units, parts),
            tenants: table.map(|t| (t.iter().map(|s| s.weight).collect(), default(t))),
            rows: Vec::new(),
            violations: Vec::new(),
            max_queue: vec![0; parts],
            max_queue_total: 0,
            now: Timestamp::MIN,
        }
    }

    /// Files a job the engine accepted: on its virtual cluster when it
    /// fits there, else on the largest partition.
    pub(crate) fn submit(&mut self, job: &Job, tenant: Option<TenantId>, wall: Option<Duration>) {
        let wall = wall.unwrap_or(job.planning_walltime()).max(1);
        let vc = job.virtual_cluster.filter(|_| self.caps.len() > 1);
        let part = vc.map(|vc| usize::from(vc) % self.caps.len());
        let part = part.filter(|&p| job.procs <= self.caps[p]).unwrap_or(0);
        let default = self.tenants.as_ref().map_or(0, |&(_, default)| default);
        self.rows.push(Row {
            job: job.clone(),
            part,
            procs: job.procs.min(self.caps[part]),
            wall,
            tenant: tenant.map_or(default, usize::from),
            phase: Phase::Pending,
            wait: None,
            promise: None,
        });
    }

    /// Cancels a pending or waiting job; a waiting one's partition has a
    /// pass at once.
    pub(crate) fn cancel(&mut self, row: usize) -> bool {
        let was = self.rows[row].phase;
        self.rows[row].phase = match was {
            Phase::Pending | Phase::Waiting => Phase::Cancelled,
            _ => return false,
        };
        if was == Phase::Waiting {
            self.pass(self.rows[row].part);
            self.note_queues();
        }
        true
    }

    /// When a started job ends: as it will (`actual`), or as planned.
    fn end(r: &Row, actual: bool) -> Timestamp {
        r.job.submit + r.wait.unwrap() + if actual { r.job.runtime } else { r.wall }
    }

    /// The earliest arrival or completion to come.
    pub(crate) fn next_event_time(&self) -> Option<Timestamp> {
        let at = |r: &Row| match r.phase {
            Phase::Pending => Some(r.job.submit),
            Phase::Running => Some(Self::end(r, true)),
            _ => None,
        };
        self.rows.iter().filter_map(at).min()
    }

    /// Processes every event up to and including `t`.
    pub(crate) fn advance_to(&mut self, t: Timestamp) {
        while let Some(now) = self.next_event_time().filter(|&now| now <= t) {
            self.step(now);
        }
        self.now = self.now.max(t);
    }

    /// One instant: the completions in `(end, row)` order, the arrivals in
    /// `(submit, id, row)` order — which here is no order at all: the
    /// queue is a sort, not a history — then one pass for each partition
    /// they touched, in index order.
    fn step(&mut self, now: Timestamp) {
        self.now = now;
        let mut touched = vec![false; self.caps.len()];
        for r in &mut self.rows {
            if r.phase == Phase::Running && Self::end(r, true) <= now {
                r.phase = Phase::Finished;
            } else if r.phase == Phase::Pending && r.job.submit <= now {
                r.phase = Phase::Waiting;
            } else {
                continue;
            }
            touched[r.part] = true;
        }
        for part in (0..touched.len()).filter(|&p| touched[p]) {
            self.pass(part);
        }
        self.note_queues();
    }

    fn note_queues(&mut self) {
        let waiting = self.rows.iter().filter(|r| r.phase == Phase::Waiting);
        self.max_queue_total = self.max_queue_total.max(waiting.count());
    }

    /// The running jobs of `part`, or of every partition.
    fn running(&self, part: Option<usize>) -> impl Iterator<Item = &Row> {
        let running = self.rows.iter().filter(|r| r.phase == Phase::Running);
        running.filter(move |r| part.is_none_or(|p| r.part == p))
    }

    /// The waiting jobs of `part` in queue order: `(key, submit, id, row)`,
    /// behind the tenant's share of the machine (running units over all
    /// the units, over the weight under weighted fair-share) when a
    /// fair-share policy has tenants to share among.
    pub(crate) fn queue(&self, part: usize) -> Vec<usize> {
        let policy = self.config.policy;
        let fair = matches!(policy, Policy::MaxMinFair | Policy::WeightedFair);
        let mut shares = Vec::new();
        if let Some((weights, _)) = self.tenants.as_ref().filter(|_| fair) {
            let capacity = self.caps.iter().sum::<u64>().max(1) as f64;
            let mut units = vec![0u64; weights.len()];
            self.running(None).for_each(|r| units[r.tenant] += r.procs);
            let weighted = policy == Policy::WeightedFair;
            let share = |(&u, &w)| u as f64 / capacity / if weighted { w } else { 1.0 };
            shares = units.iter().zip(weights).map(share).collect();
        }
        let order = |row: usize| {
            let r = &self.rows[row];
            let (wall, procs) = (r.wall as f64, r.job.procs as f64);
            let key = match policy {
                Policy::Fcfs | Policy::MaxMinFair | Policy::WeightedFair => r.job.submit as f64,
                Policy::Sjf => wall,
                Policy::Ljf => -wall,
                Policy::Saf => wall * procs,
                Policy::Sqf => procs,
            };
            let share = shares.get(r.tenant).copied().unwrap_or(0.0);
            (share, key, r.job.submit, r.job.id, row)
        };
        let waiting = |&i: &usize| self.rows[i].phase == Phase::Waiting;
        let here = (0..self.rows.len()).filter(|&i| self.rows[i].part == part);
        let mut queue: Vec<usize> = here.filter(waiting).collect();
        queue.sort_by(|&a, &b| order(a).partial_cmp(&order(b)).unwrap());
        queue
    }

    fn free(&self, part: usize) -> u64 {
        self.caps[part] - self.running(Some(part)).map(|r| r.procs).sum::<u64>()
    }

    /// The partition's free units from now on by the running jobs'
    /// estimates.
    fn timeline(&self, part: usize) -> Timeline {
        let here = self.running(Some(part));
        let ends: Vec<Point> = here.map(|r| (Self::end(r, false), r.procs)).collect();
        Timeline::from_running(self.now, self.caps[part], &ends)
    }

    fn start(&mut self, row: usize) {
        let r = &mut self.rows[row];
        r.phase = Phase::Running;
        r.wait = Some(self.now - r.job.submit);
        if let Some(promise) = r.promise {
            self.violations.push((promise, self.now));
        }
    }

    fn start_head_while_fits(&mut self, part: usize) {
        while let Some(&head) = self.queue(part).first() {
            if self.rows[head].procs > self.free(part) {
                break;
            }
            self.start(head);
        }
    }

    /// One pass: the head starts while it fits, then the discipline
    /// backfills behind it (when any unit is free).
    fn pass(&mut self, part: usize) {
        self.start_head_while_fits(part);
        let waiting = self.queue(part).len();
        self.max_queue[part] = self.max_queue[part].max(waiting);
        match self.config.backfill {
            _ if waiting == 0 || self.free(part) == 0 => {}
            Backfill::None => {}
            Backfill::Easy => self.easy(part),
            Backfill::Conservative => self.conservative(part),
        }
    }

    /// EASY: the head's shadow and the units it leaves spare there, then
    /// each job behind it, in queue order, that fits now and ends by the
    /// shadow, fits the spare units, or ends within Eq. 1's allowance past
    /// the head's first promise. From the head again after any start.
    fn easy(&mut self, part: usize) {
        let now = self.now;
        loop {
            let queue = self.queue(part);
            let Some(&head) = queue.first() else { return };
            let timeline = self.timeline(part);
            let need = self.rows[head].procs;
            let shadow = timeline.earliest_forever(now, need).unwrap();
            let mut spare = timeline.free_at(shadow) - need;
            let promise = *self.rows[head].promise.get_or_insert(shadow);
            let expected_wait = (promise - self.rows[head].job.submit).max(0) as f64;
            let longest = self.max_queue[part] as f64;
            let factor = match self.config.relax {
                Relax::Strict => 0.0,
                Relax::Fixed { factor } => factor,
                Relax::Adaptive { .. } if longest == 0.0 => 0.0,
                Relax::Adaptive { base } => base * queue.len() as f64 / longest,
            };
            let allowance = (factor * expected_wait) as i64;
            let (mut free, mut started) = (self.free(part), false);
            for &row in &queue[1..] {
                let (procs, end) = (self.rows[row].procs, now + self.rows[row].wall);
                let harmless = end <= shadow;
                let in_spare = procs <= spare;
                let in_allowance = allowance > 0 && end <= promise + allowance;
                if procs <= free && (harmless || in_spare || in_allowance) {
                    if !harmless && in_spare {
                        spare -= procs;
                    }
                    free -= procs;
                    self.start(row);
                    started = true;
                }
            }
            if !started {
                return;
            }
            self.start_head_while_fits(part);
        }
    }

    /// Conservative: every waiting job, in queue order, at its earliest
    /// fit on a timeline planned from scratch; those planned for now start.
    fn conservative(&mut self, part: usize) {
        let mut timeline = self.timeline(part);
        let mut starts = Vec::new();
        for row in self.queue(part) {
            let (procs, wall) = (self.rows[row].procs, self.rows[row].wall);
            let slot = timeline.earliest_fit(self.now, procs, wall).unwrap();
            timeline.reserve(slot, slot + wall, procs);
            self.rows[row].promise.get_or_insert(slot);
            if slot == self.now {
                starts.push(row);
            }
        }
        starts.into_iter().for_each(|row| self.start(row));
    }
}

/// Free units over time as one sorted list: `(t_i, free_i)` means
/// `free_i` units on `[t_i, t_{i+1})`, the last segment unbounded.
#[derive(Debug, Clone)]
pub(crate) struct Timeline {
    pub(crate) points: Vec<Point>,
}

impl Timeline {
    /// `capacity` units from `now` on, each running job's `(end, procs)`
    /// taken out up to its end — or up to `now + 1` for a job past its
    /// end, which may end any moment.
    pub(crate) fn from_running(now: Timestamp, capacity: u64, running: &[Point]) -> Self {
        let mut timeline = Self {
            points: vec![(now, capacity)],
        };
        for &(end, procs) in running {
            timeline.reserve(now, end.max(now + 1), procs);
        }
        timeline
    }

    /// Index of the segment `t` falls in (the first, before them all).
    fn segment(&self, t: Timestamp) -> usize {
        let after = self.points.partition_point(|&(ti, _)| ti <= t);
        after.saturating_sub(1)
    }

    pub(crate) fn free_at(&self, t: Timestamp) -> u64 {
        self.points[self.segment(t)].1
    }

    /// `procs` units free throughout `[from, to)`.
    pub(crate) fn fits(&self, from: Timestamp, to: Timestamp, procs: u64) -> bool {
        self.earliest_fit(from, procs, to - from) == Some(from)
    }

    /// Earliest `t ≥ after` with `procs` units free for `duration`: one
    /// sweep over the segments from the one `after` falls in.
    pub(crate) fn earliest_fit(&self, after: Timestamp, procs: u64, duration: i64) -> Option<i64> {
        if duration <= 0 {
            return Some(after);
        }
        // Where the current run of segments with `procs` free began.
        let mut run = None;
        for (i, &(t, free)) in self.points.iter().enumerate().skip(self.segment(after)) {
            if free < procs {
                run = None;
                continue;
            }
            let start = *run.get_or_insert(t.max(after));
            let next = self.points.get(i + 1);
            if next.is_none_or(|&(next, _)| next - start >= duration) {
                return Some(start);
            }
        }
        None
    }

    /// Earliest `t ≥ after` from which `procs` units stay free for good:
    /// the EASY shadow.
    pub(crate) fn earliest_forever(&self, after: Timestamp, procs: u64) -> Option<Timestamp> {
        self.earliest_fit(after, procs, Duration::MAX)
    }

    /// Takes `procs` units out of `[from, to)`.
    pub(crate) fn reserve(&mut self, from: Timestamp, to: Timestamp, procs: u64) {
        if from >= to || procs == 0 {
            return;
        }
        let (lo, hi) = (self.breakpoint(from), self.breakpoint(to));
        for p in &mut self.points[lo..hi] {
            p.1 = p.1.checked_sub(procs).expect("more than the free units");
        }
        // Only the two edges can now repeat the value before them.
        for at in [hi, lo] {
            if at > 0 && self.points[at].1 == self.points[at - 1].1 {
                self.points.remove(at);
            }
        }
    }

    /// Index of a breakpoint at exactly `t`, inserted with the value in
    /// force there if need be.
    fn breakpoint(&mut self, t: Timestamp) -> usize {
        let at = self.points.partition_point(|&(ti, _)| ti < t);
        if self.points.get(at).is_none_or(|&(ti, _)| ti != t) {
            let value = self.points[at.saturating_sub(1)].1;
            self.points.insert(at, (t, value));
        }
        at
    }
}
