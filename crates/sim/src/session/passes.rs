//! The queue order and the scheduling passes: head start while it fits,
//! then backfilling behind it under the configured discipline — and,
//! under conservative backfilling, telling the partition's kept plan
//! when the queue does something it does not hold (an arrival ahead of a
//! planned job, a fair-share re-sort; the head start, the cancel and the
//! completions report themselves where they happen).

use lumos_core::Timestamp;

use super::SimSession;
use crate::backfill::Backfill;
use crate::cluster::{Cursor, WaitQueue, Waiter};

impl SimSession {
    /// The static queue order: `(policy key, submit, id)`.
    pub(super) fn queue_key(&self, idx: usize) -> (f64, Timestamp, u64) {
        (self.key_of[idx], self.jobs[idx].submit, self.jobs[idx].id)
    }

    /// Job `idx` as a queue entry.
    fn waiter(&self, idx: usize) -> Waiter {
        Waiter {
            idx,
            procs: self.procs_eff[idx],
            wall: self.plan_wall[idx],
        }
    }

    /// Inserts `idx` into its partition's waiting queue, behind every job
    /// whose static key is at or before its own.
    ///
    /// Under fair-share ordering over a tenant table the queue is *not*
    /// in static-key order when this runs — [`SimSession::fair_resort`]
    /// left it ordered by tenant share — so the search lands anywhere.
    /// That is unobservable: the re-sort imposes the total order
    /// `(share, key, submit, id, index)` again before anything reads the
    /// queue, and a total order does not care where the entries stood.
    pub(super) fn enqueue(&mut self, part: usize, idx: usize) {
        let key = self.queue_key(idx);
        let waiter = self.waiter(idx);
        let p = self.cluster.partition(part);
        // An arrival that sorts ahead of a planned job takes its slot
        // from those behind it. (In a queue a fair-share re-sort left in
        // another order the comparison means nothing, and the next
        // re-sort marks the plan anyway.)
        let last_planned = p.live_plan().and_then(|plan| plan.slots.last());
        let overtakes = last_planned.is_some_and(|&(last, _)| key < self.queue_key(last));
        let (jobs, key_of) = (&self.jobs, &self.key_of);
        let p = self.cluster.partition_mut(part);
        if overtakes {
            p.plan_diverged();
        }
        p.waiting_mut().insert_by(waiter, |w| {
            (key_of[w.idx], jobs[w.idx].submit, jobs[w.idx].id) <= key
        });
    }

    /// Where waiting job `idx` stands in its partition's queue: a search
    /// on the static order. That order does not hold after a fair-share
    /// re-sort (nor between two live jobs sharing an id, which batch
    /// replay allows), so the queue falls back to a scan on a miss.
    pub(super) fn queue_position(&self, part: usize, idx: usize) -> Cursor {
        let key = self.queue_key(idx);
        self.cluster
            .partition(part)
            .waiting()
            .find(idx, |w| self.queue_key(w.idx) < key)
            .expect("waiting job is in its partition queue")
    }

    /// Re-sorts a partition's waiting queue by live tenant share under
    /// fair-share policies; a no-op otherwise (static-key order from
    /// [`SimSession::enqueue`] is already correct). Shares move whenever
    /// a job starts or finishes, so every scheduling decision re-derives
    /// the order: `(share, key, submit, id, index)` — the static key and
    /// tie-breaks keep the ordering total and deterministic.
    fn fair_resort(&mut self, part: usize) {
        if !self.config.policy.is_fair_share() {
            return;
        }
        let Some(ts) = &self.tenants else {
            // Without a tenant table every job shares one implicit
            // tenant, so fair-share degrades to the static FCFS key —
            // the order the queue is already in.
            return;
        };
        if self.cluster.partition(part).waiting().len() <= 1 {
            return;
        }
        let shares = ts.shares(
            self.cluster.total_capacity(),
            self.config.policy.is_weighted(),
        );
        let jobs = &self.jobs;
        let key_of = &self.key_of;
        let tenant_of = &ts.tenant_of;
        let waiting = self.cluster.partition_mut(part).waiting_mut();
        let by_share = |&Waiter { idx: a, .. }: &Waiter, &Waiter { idx: b, .. }: &Waiter| {
            let ka = (
                shares[usize::from(tenant_of[a])],
                key_of[a],
                jobs[a].submit,
                jobs[a].id,
                a,
            );
            let kb = (
                shares[usize::from(tenant_of[b])],
                key_of[b],
                jobs[b].submit,
                jobs[b].id,
                b,
            );
            ka.partial_cmp(&kb).expect("shares and keys are finite")
        };
        waiting.sort_unstable_by(&mut self.fair_scratch, by_share);
        // Whatever order the plan was made in, this may be another.
        self.cluster.partition_mut(part).plan_diverged();
    }

    /// Starts jobs from the head of the queue while the head fits,
    /// re-deriving fair-share order before each decision (each start
    /// moves the shares, which may change who the head *is*).
    pub(super) fn start_head_while_fits(&mut self, part: usize, now: Timestamp) {
        loop {
            self.fair_resort(part);
            let p = self.cluster.partition_mut(part);
            match p.waiting().first() {
                Some(&head) if head.procs <= p.free => {
                    p.waiting_mut().pop_front();
                    p.plan_head_start(head.idx, now);
                    self.start(part, head.idx, now);
                }
                _ => break,
            }
        }
    }

    /// One scheduling pass on a partition.
    pub(super) fn schedule(&mut self, part: usize, now: Timestamp) {
        // Bring the release ledger to `now`: keys the clock has passed
        // become overrunning jobs. Usually none or one key — a drain at
        // the front of one chunk.
        self.cluster.partition_mut(part).prune_to(now);
        // Start from the head while it fits.
        self.start_head_while_fits(part, now);
        let qlen = self.cluster.partition(part).waiting().len();
        if qlen == 0 {
            return;
        }
        self.max_queue[part] = self.max_queue[part].max(qlen);
        // Nothing can start while zero units are free — neither the head
        // nor any backfill candidate — so skip the backfill pass entirely.
        // On saturated systems this short-circuits the majority of arrival
        // events.
        if self.cluster.partition(part).free == 0 {
            return;
        }
        match self.config.backfill {
            Backfill::None => {}
            #[cfg(test)]
            _ if self.reference_passes => self.schedule_reference(part, now),
            Backfill::Easy => self.schedule_easy(part, now),
            Backfill::Conservative => self.schedule_conservative(part, now),
        }
        let p = self.cluster.partition(part);
        debug_assert_eq!(
            p.ledger().free_now(),
            p.free,
            "release ledger out of sync with unit accounting"
        );
    }

    /// The head's reservation for one EASY scan: `(shadow, extra,
    /// promise, allowance)`. Issues the head's promise when it has none.
    pub(super) fn easy_reservation(&mut self, part: usize) -> (Timestamp, u64, Timestamp, i64) {
        let p = self.cluster.partition(part);
        let head = *p.waiting().first().expect("a backfill pass has a head");
        // Shadow time and the units free at it, straight off the release
        // ledger (`schedule` pruned it to `now`): a prefix-sum search, no
        // profile built.
        let (shadow, free_at_shadow) = p.ledger().earliest(head.procs);
        let extra = free_at_shadow - head.procs;
        // The allowance is measured against the head's *original*
        // promise, not the recomputed shadow: a relaxed backfill pushes
        // the shadow later, and re-deriving the allowance from that
        // delayed shadow would let every subsequent round relax further
        // — unbounded cumulative delay instead of Eq. 1's
        // `factor × expected wait` budget.
        let promise = *self.promised[head.idx].get_or_insert(shadow);
        let allowance = self.config.relax.allowance(
            promise - self.jobs[head.idx].submit,
            p.waiting().len(),
            self.max_queue[part],
        );
        (shadow, extra, promise, allowance)
    }

    /// EASY backfilling with (possibly relaxed) head reservation.
    ///
    /// A candidate behind the head starts when it fits the free units now
    /// and is `harmless` (ends by the shadow), `in_extra` (fits the units
    /// the head's reservation leaves over) or `in_allowance` (ends within
    /// the relaxation budget past the head's promise). The first and the
    /// last are one comparison against `horizon`, so the search for the
    /// next startable candidate is one test on the inline `(procs, wall)`
    /// of each entry — and [`WaitQueue::find_from`] runs it only inside
    /// the chunks whose smallest request and smallest walltime do not
    /// already fail it: in a standing queue thousands deep, where most
    /// chunks hold nothing that both fits the free units and ends by the
    /// horizon, a scan reads a header per chunk and a few chunks' entries.
    ///
    /// The scan repeats only after a start that was *neither* harmless
    /// *nor* in the extra units — an allowance-only start, the one kind
    /// that can move the shadow — or when fair-share ordering over a
    /// tenant table can change who the head is. Every other repeat finds
    /// nothing: a harmless start ends by the shadow, and an `in_extra`
    /// start leaves `free_at(shadow) ≥ head + extra_remaining` on a
    /// release-only (monotone) profile, so the recomputed `(shadow,
    /// extra)` equals `(shadow, extra_remaining)`; `free` only shrank, the
    /// allowance only shrank (the queue got shorter), `now` is the same —
    /// every candidate rejected once is rejected again, and the head,
    /// which did not fit before `free` shrank, still does not.
    fn schedule_easy(&mut self, part: usize, now: Timestamp) {
        let head_can_change = self.config.policy.is_fair_share() && self.tenants.is_some();
        loop {
            let (shadow, extra, promise, allowance) = self.easy_reservation(part);
            // Gated on a positive allowance so a zero-allowance
            // relaxation degenerates to strict EASY even when early
            // completions pulled the shadow before the promise.
            let horizon = if allowance > 0 {
                shadow.max(promise + allowance)
            } else {
                shadow
            };
            let mut extra_remaining = extra;
            let mut started_any = false;
            let mut moved_shadow = false;
            let mut at = WaitQueue::BEHIND_HEAD;
            loop {
                let p = self.cluster.partition_mut(part);
                let spare = p.free.min(extra_remaining);
                let Some(found) = p.waiting().find_from(at, p.free, spare, horizon - now) else {
                    break;
                };
                at = found; // after the removal, `at` is the next candidate
                let cand = p.waiting_mut().remove(at);
                let harmless = cand.wall <= shadow - now;
                if !harmless {
                    if cand.procs <= extra_remaining {
                        extra_remaining -= cand.procs;
                    } else {
                        moved_shadow = true;
                    }
                }
                self.start(part, cand.idx, now);
                started_any = true;
            }
            if !(moved_shadow || head_can_change && started_any) {
                break;
            }
            // Free capacity changed; under fair-share so did the shares —
            // re-run the head loop.
            self.start_head_while_fits(part, now);
            if self.cluster.partition(part).waiting().is_empty() {
                break;
            }
        }
    }

    /// Conservative backfilling: every queued job gets a planned slot in a
    /// shared capacity profile; whoever's slot is "now" starts.
    ///
    /// The profile and the slots are the partition's
    /// [`crate::cluster::KeptPlan`], which outlives the pass. While it is
    /// live — since it was made the machine did what it says and the
    /// queue grew only at its tail — planning the queue from scratch would
    /// give every planned job its slot again: the profile a later pass
    /// starts from is the one the job was planned on, less the slots of
    /// jobs behind it that have started since, so it is nowhere higher (no
    /// earlier fit appears) and the job still fits where it is. So the
    /// pass reads the planned jobs' slots, one comparison each, and issues
    /// an `earliest_fit` + `reserve` pair for the unplanned tail alone:
    /// the arrivals since the last pass that got this far. A diverged plan
    /// comes back from [`crate::cluster::Partition::planning`] rebuilt from
    /// the ledger with nobody planned, and the same loop runs from the
    /// head of the queue. Nothing in between: once one job moves earlier,
    /// planning from scratch may move a job behind it *later*, so a repair
    /// that keeps the later slots is another schedule.
    ///
    /// `promised[idx]` is the slot of a job's first planning, as ever.
    fn schedule_conservative(&mut self, part: usize, now: Timestamp) {
        let mut to_start = std::mem::take(&mut self.scratch_starts);
        to_start.clear();
        let (waiting, plan) = self.cluster.partition_mut(part).planning(now);
        // The planned jobs whose slot has come, in queue order.
        plan.slots.retain(|&(row, slot)| {
            debug_assert!(slot >= now, "a live plan let a slot pass");
            if slot == now {
                to_start.push(row);
            }
            slot != now
        });
        // Everyone behind them is yet to be planned. Chunk slice by chunk
        // slice in a plain nested loop: a flattening iterator in this loop
        // measured slower.
        let mut planned = plan.slots.len() + to_start.len();
        for chunk in waiting.chunks() {
            let tail = chunk.get(planned..).unwrap_or_default();
            planned -= chunk.len() - tail.len();
            for w in tail {
                let s = plan
                    .profile
                    .earliest_fit(now, w.procs, w.wall)
                    .expect("procs_eff ≤ partition capacity");
                plan.profile.reserve(s, s + w.wall, w.procs);
                #[cfg(test)]
                {
                    plan.pairs += 1;
                }
                if self.promised[w.idx].is_none() {
                    self.promised[w.idx] = Some(s);
                }
                if s == now {
                    to_start.push(w.idx);
                } else {
                    plan.slots.push((w.idx, s));
                }
            }
        }
        self.start_planned(part, now, to_start);
    }

    /// Starts the jobs a conservative pass planned for `now` — a
    /// subsequence of the queue, in queue order — and hands the list back
    /// to the scratch.
    pub(super) fn start_planned(&mut self, part: usize, now: Timestamp, to_start: Vec<usize>) {
        if !to_start.is_empty() {
            // One merge-walk compacts the queue however many jobs start.
            let mut planned = to_start.iter().peekable();
            self.cluster.partition_mut(part).waiting_mut().retain(|w| {
                let starts = planned.peek().is_some_and(|&&idx| idx == w.idx);
                if starts {
                    planned.next();
                }
                !starts
            });
            for &idx in &to_start {
                self.start(part, idx, now);
            }
        }
        self.scratch_starts = to_start;
    }
}
