//! The queue order and the scheduling passes: head start while it fits,
//! then backfilling behind it under the configured discipline — and,
//! under conservative backfilling, telling the partition's kept plan
//! when the queue does something it does not hold (an arrival ahead of a
//! planned job, a fair-share re-sort; the head start, the cancel and the
//! completions report themselves where they happen), and planning the
//! queue only as deep as the pass can observe ([`Horizon`]).

use lumos_core::{Duration, Timestamp};

use super::SimSession;
use crate::backfill::Backfill;
use crate::cluster::{Cursor, WaitQueue, Waiter};
use crate::counts::Divergence;
use crate::profile::CapacityProfile;

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
            p.plan_diverged(Divergence::Overtaken);
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
        self.cluster
            .partition_mut(part)
            .plan_diverged(Divergence::Resort);
    }

    /// Starts jobs from the head of the queue while the head fits,
    /// re-deriving fair-share order before each decision (each start
    /// moves the shares, which may change who the head *is*).
    fn start_head_while_fits(&mut self, part: usize, now: Timestamp) {
        loop {
            self.fair_resort(part);
            let p = self.cluster.partition_mut(part);
            match p.waiting().first() {
                Some(&head) if head.procs <= p.free => {
                    p.waiting_mut().pop_front();
                    p.plan_head_start(head.idx, now);
                    self.start(part, head.idx, now);
                    self.counts.heads_started += 1;
                }
                _ => break,
            }
        }
    }

    /// One scheduling pass on a partition.
    pub(super) fn schedule(&mut self, part: usize, now: Timestamp) {
        self.counts.passes += 1;
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
    fn easy_reservation(&mut self, part: usize) -> (Timestamp, u64, Timestamp, i64) {
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
                        self.counts.relaxation_s += (now + cand.wall - shadow).unsigned_abs();
                    }
                }
                self.start(part, cand.idx, now);
                self.counts.backfills += 1;
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
    /// the arrivals since the last pass, and the jobs an earlier pass left
    /// behind its cut (below). A diverged plan
    /// comes back from [`crate::cluster::Partition::planning`] rebuilt from
    /// the ledger with nobody planned, and the same loop runs from the
    /// head of the queue. Nothing in between: once one job moves earlier,
    /// planning from scratch may move a job behind it *later*, so a repair
    /// that keeps the later slots is another schedule.
    ///
    /// The tail is planned only as deep as the pass can tell: it stops at
    /// the first position from which no waiting job is without a promise
    /// and none fits `[now, now + wall)` on the profile as it stands
    /// ([`Horizon`]). A pass only takes units out of the profile, so a job
    /// that does not fit now there does not fit now anywhere further down
    /// either: planning from scratch would give each job behind the cut a
    /// slot after `now`, and its promise is issued already — no start, no
    /// promise, nothing this pass leaves differs. The jobs behind the cut
    /// stay unplanned, the tail the next live pass plans as it plans
    /// arrivals: the slots stay a prefix of the queue.
    ///
    /// Each fit starts where the job can start no earlier ([`Fitted`]).
    ///
    /// `promised[idx]` is the slot of a job's first planning, as ever.
    fn schedule_conservative(&mut self, part: usize, now: Timestamp) {
        let mut to_start = std::mem::take(&mut self.scratch_starts);
        to_start.clear();
        let (waiting, plan, rebuilt) = self.cluster.partition_mut(part).planning(now);
        if let Some(cause) = rebuilt {
            self.counts.rebuilds.count(cause);
        }
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
        let mut horizon = Horizon::new(waiting.summarised_chunks(), planned);
        let mut fitted = Fitted::new(now);
        'plan: for chunk in waiting.chunks() {
            let tail = chunk.get(planned..).unwrap_or_default();
            planned -= chunk.len() - tail.len();
            for w in tail {
                let Some(forced) = horizon.reaches(&plan.profile, now, &self.promised) else {
                    self.counts.horizon_cuts += 1;
                    break 'plan;
                };
                let walked = &mut self.counts.breakpoints_walked;
                let s = plan
                    .profile
                    .earliest_fit_counted(fitted.bound(w), w.procs, w.wall, walked)
                    .expect("procs_eff ≤ partition capacity");
                plan.profile.reserve(s, s + w.wall, w.procs);
                fitted.push(w, s);
                self.counts.pairs += 1;
                self.counts.forced_pairs += u64::from(forced);
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
        drop(horizon); // it reads the queue
        self.start_planned(part, now, to_start);
    }

    /// Starts the jobs a conservative pass planned for `now` — a
    /// subsequence of the queue, in queue order — and hands the list back
    /// to the scratch.
    fn start_planned(&mut self, part: usize, now: Timestamp, to_start: Vec<usize>) {
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
            self.counts.backfills += to_start.len() as u64;
        }
        self.scratch_starts = to_start;
    }
}

/// Jobs a conservative pass remembers the fits of, for [`Fitted`]. Over
/// `sim-conservative`'s Blue Waters prefix at seed 7 the 79 865 fits walk
/// 11.10 M breakpoints unbounded, and bounded by the last 4, 8, 16, 32 or
/// 64 fits 6.40, 5.11, 4.11, 3.62 or 3.35 M (every fit of the pass: 3.29
/// M). The knee: past 16 each entry scanned per fit saves less than a
/// breakpoint.
const FITTED: usize = 16;

/// The last [`FITTED`] fits of one conservative pass, `(procs, wall,
/// slot)`, and the bound they put on the next: a job B that asks for at
/// least A's units for at least A's walltime starts no earlier than A's
/// slot `s_A`.
///
/// A pass only takes units out of the profile. `earliest_fit` found A a
/// fit nowhere before `s_A`: for every `t < s_A` some instant of `[t, t +
/// wall_A)` had fewer than `procs_A` units free, and has no more now. That
/// instant lies in `[t, t + wall_B)`, so B fits nowhere before `s_A`
/// either, and the fit from `s_A` is the fit from `now`. Only within one
/// pass: the next may start from a rebuilt profile.
struct Fitted {
    now: Timestamp,
    /// Ring of fits, the oldest overwritten first. An entry not yet
    /// written asks for more than any job can, so it bounds nobody.
    fits: [(u64, Duration, Timestamp); FITTED],
    next: usize,
}

impl Fitted {
    fn new(now: Timestamp) -> Self {
        Self {
            now,
            fits: [(u64::MAX, Duration::MAX, now); FITTED],
            next: 0,
        }
    }

    /// Where the fit of `w` may start: the latest slot of a remembered job
    /// `w` dominates, or `now`.
    fn bound(&self, w: &Waiter) -> Timestamp {
        self.fits
            .iter()
            .filter(|&&(procs, wall, _)| procs <= w.procs && wall <= w.wall)
            .fold(self.now, |after, &(_, _, slot)| after.max(slot))
    }

    /// `w` was fitted at `slot`.
    fn push(&mut self, w: &Waiter, slot: Timestamp) {
        self.fits[self.next] = (w.procs, w.wall, slot);
        self.next = (self.next + 1) % FITTED;
    }
}

/// How deep a conservative pass plans: a cursor running ahead of the
/// planning position to the first entry the pass can still observe — one
/// without a promise, which the pass must issue, or one that fits `[now,
/// now + wall)` on the plan's profile as it stands, which may start now.
///
/// The profile only loses units while the pass plans, so an entry once
/// found unobservable stays so for the rest of the pass, and the cursor
/// only moves forward: every entry is passed over once, and an observable
/// one is asked again per position planned until it is reached or no
/// longer fits — linear in the queue. A chunk whose smallest request does
/// not fit now for its shortest walltime holds no entry that fits, and
/// only its promises are read.
struct Horizon<'q, I> {
    /// The chunks the cursor has yet to enter, each with its minima.
    ahead: I,
    /// The entries of the cursor's chunk from the cursor on.
    rest: &'q [Waiter],
    /// False once the chunk's minima showed that none of it fits now.
    may_fit: bool,
    /// Entries between the planning position and the cursor: none of them
    /// observable.
    lead: usize,
}

impl<'q, I: Iterator<Item = (u64, Duration, &'q [Waiter])>> Horizon<'q, I> {
    /// The cursor on the queue's entry `planned`, the first not planned.
    fn new(mut chunks: I, mut planned: usize) -> Self {
        let mut rest: &[Waiter] = &[];
        for (_, _, entries) in chunks.by_ref() {
            if planned < entries.len() {
                rest = &entries[planned..];
                break;
            }
            planned -= entries.len();
        }
        Self {
            ahead: chunks,
            rest,
            may_fit: true,
            lead: 0,
        }
    }

    /// `Some`, and on to the next position, when the entry at the
    /// planning position or one behind it is observable on `profile` at
    /// `now`: `Some(true)` when the first such entry, the witness, is a
    /// job without a promise (the pair it lets through is *forced*).
    fn reaches(
        &mut self,
        profile: &CapacityProfile,
        now: Timestamp,
        promised: &[Option<Timestamp>],
    ) -> Option<bool> {
        let forced = loop {
            let Some(w) = self.rest.first() else {
                let (procs, wall, entries) = self.ahead.next()?;
                self.may_fit = profile.fits(now, now + wall, procs);
                self.rest = entries;
                continue;
            };
            if promised[w.idx].is_none() {
                break true;
            }
            if self.may_fit && profile.fits(now, now + w.wall, w.procs) {
                break false;
            }
            self.rest = &self.rest[1..];
            self.lead += 1;
        };
        // The planning position moves on, and with it a cursor standing
        // there.
        if self.lead == 0 {
            self.rest = &self.rest[1..];
        } else {
            self.lead -= 1;
        }
        Some(forced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positions a pass plans of 200 queued entries — chunks of 64, 64 and
    /// 72 — from entry `planned` on, on a profile with 10 units free until
    /// t=100 and none from then to t=200. Every entry is 20 units wide and
    /// promised, so none can start now, except what `odd` makes of entry
    /// 150, in the third chunk.
    fn depth(odd: Waiter, promised_odd: bool, planned: usize) -> usize {
        let mut queue = WaitQueue::new();
        for idx in 0..200 {
            let wide = Waiter {
                idx,
                procs: 20,
                wall: 100,
            };
            queue.insert_by(if idx == 150 { odd } else { wide }, |_| true);
        }
        let mut promised = vec![Some(500); 200];
        promised[150] = promised_odd.then_some(500);
        let mut profile = CapacityProfile::new(0, 10);
        profile.reserve(100, 200, 10);
        let mut horizon = Horizon::new(queue.summarised_chunks(), planned);
        let mut reached = 0;
        while horizon.reaches(&profile, 0, &promised).is_some() {
            reached += 1;
        }
        reached
    }

    #[test]
    fn a_pass_plans_down_to_the_last_entry_it_can_observe() {
        // Ten units for exactly the hundred seconds before the drop: the
        // third chunk's minima fit, and so does entry 150.
        let fits = Waiter {
            idx: 150,
            procs: 10,
            wall: 100,
        };
        assert_eq!(depth(fits, true, 0), 151);
        assert_eq!(depth(fits, true, 100), 51);
        // A second longer, it fits nowhere now: nothing to plan.
        let too_long = Waiter { wall: 101, ..fits };
        assert_eq!(depth(too_long, true, 0), 0);
        // Unless it has a promise to be issued.
        assert_eq!(depth(too_long, false, 0), 151);
        assert_eq!(depth(too_long, false, 151), 0);
    }
}
