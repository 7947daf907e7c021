//! Cluster state: resource partitions, their queues and release ledgers,
//! and under conservative backfilling the plan kept over both — as deep
//! into the queue as the passes have had to plan it.
//!
//! A machine is a set of partitions. Unpartitioned systems have exactly
//! one; Philly-style systems get one partition per isolated virtual
//! cluster (§III.B: "a job will be queued in each virtual cluster until its
//! requested GPUs are available in the same virtual cluster").

use std::cmp::Ordering;

use lumos_core::system::virtual_cluster_units;
use lumos_core::{Duration, SystemSpec, Timestamp};

use crate::counts::Divergence;
use crate::profile::{CapacityProfile, ReleaseLedger, CHUNK_KEYS};

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

/// A run of consecutive queue entries under the smallest request and the
/// smallest walltime among them.
#[derive(Debug, Clone)]
struct Chunk {
    /// Smallest `procs` over `entries`; `u64::MAX` when there are none.
    min_procs: u64,
    /// Smallest `wall` over `entries`; `Duration::MAX` when there are none.
    min_wall: Duration,
    entries: Vec<Waiter>,
}

/// Smallest `procs` and smallest `wall` in `entries`.
fn minima(entries: &[Waiter]) -> (u64, Duration) {
    entries
        .iter()
        .fold((u64::MAX, Duration::MAX), |(procs, wall), w| {
            (procs.min(w.procs), wall.min(w.wall))
        })
}

impl Chunk {
    fn of(entries: Vec<Waiter>) -> Self {
        let (min_procs, min_wall) = minima(&entries);
        Self {
            min_procs,
            min_wall,
            entries,
        }
    }

    /// Recomputes the two minima from the entries.
    fn measure(&mut self) {
        (self.min_procs, self.min_wall) = minima(&self.entries);
    }
}

/// A place in a [`WaitQueue`]: an entry, or the end of a chunk — which a
/// scan reads as the first entry of the chunk after it. After
/// [`WaitQueue::remove`] the cursor it was given is where the entry that
/// followed the removed one now stands; any other change to the queue
/// invalidates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    chunk: usize,
    at: usize,
}

/// The waiting jobs of one partition, in the order the scheduler serves
/// them.
///
/// Laid out like the release ledger, on the ledger's constant: chunks of
/// about 64 entries (a chunk splits in two at 128, is dropped when it
/// empties, and is never merged), each under the *exact* smallest `procs`
/// and smallest `wall` of its entries. An insert, a removal and a pop of
/// the head shift the entries of one chunk, not the queue; and the
/// backfill scan (`WaitQueue::find_from`) steps over every chunk whose
/// two minima already rule out each of its entries, which in a standing
/// queue thousands deep is most of them.
///
/// The first chunk stays when the queue empties, with its allocation: on
/// a machine that is rarely full every arrival is one insert and one pop
/// on an otherwise empty queue, and must not pay an allocation for it.
#[derive(Debug, Clone)]
pub struct WaitQueue {
    /// Entries over all chunks.
    len: usize,
    /// Never empty; no chunk is, except the first while it is the only one.
    chunks: Vec<Chunk>,
}

impl Default for WaitQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitQueue {
    /// Where a scan for backfill candidates starts: the entry behind the
    /// head.
    pub(crate) const BEHIND_HEAD: Cursor = Cursor { chunk: 0, at: 1 };

    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            len: 0,
            chunks: vec![Chunk::of(Vec::new())],
        }
    }

    /// Number of waiting jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no job waits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The head of the queue.
    #[must_use]
    pub fn first(&self) -> Option<&Waiter> {
        self.chunks[0].entries.first()
    }

    /// The chunks' entries, in queue order: every entry once, no slice
    /// empty.
    pub fn chunks(&self) -> impl Iterator<Item = &[Waiter]> {
        self.summarised_chunks().map(|(_, _, entries)| entries)
    }

    /// [`WaitQueue::chunks`], each under its smallest `procs` and smallest
    /// `wall`.
    pub(crate) fn summarised_chunks(&self) -> impl Iterator<Item = (u64, Duration, &[Waiter])> {
        let filled = self.chunks.iter().filter(|c| !c.entries.is_empty());
        filled.map(|c| (c.min_procs, c.min_wall, &c.entries[..]))
    }

    /// Inserts `waiter` behind the entries that `precedes` it and before
    /// the others: the position [`slice::partition_point`] gives, found
    /// over the chunks' first entries and then inside one chunk. On a
    /// queue that `precedes` does not partition the entry lands somewhere
    /// — as on a slice — and every summary stays exact.
    pub(crate) fn insert_by(&mut self, waiter: Waiter, mut precedes: impl FnMut(&Waiter) -> bool) {
        // The last chunk that starts with a preceding entry, the first if
        // none does. Only the first chunk can be empty, and it is not
        // asked.
        let at = self.chunks[1..].partition_point(|c| precedes(&c.entries[0]));
        let chunk = &mut self.chunks[at];
        let pos = chunk.entries.partition_point(precedes);
        chunk.entries.insert(pos, waiter);
        chunk.min_procs = chunk.min_procs.min(waiter.procs);
        chunk.min_wall = chunk.min_wall.min(waiter.wall);
        self.len += 1;
        if chunk.entries.len() >= 2 * CHUNK_KEYS {
            let tail = chunk.entries.split_off(CHUNK_KEYS);
            chunk.measure();
            self.chunks.insert(at + 1, Chunk::of(tail));
        }
    }

    /// Removes and returns the head.
    pub fn pop_front(&mut self) -> Option<Waiter> {
        (!self.is_empty()).then(|| self.remove(Cursor { chunk: 0, at: 0 }))
    }

    /// Removes and returns the entry at `at` (as [`WaitQueue::find`] and
    /// `WaitQueue::find_from` return it); a scan goes on from the same
    /// cursor. The chunk is re-measured only when the entry carried one
    /// of its minima.
    ///
    /// # Panics
    /// Panics if `at` is not an entry.
    pub fn remove(&mut self, at: Cursor) -> Waiter {
        let alone = self.chunks.len() == 1;
        let chunk = &mut self.chunks[at.chunk];
        let waiter = chunk.entries.remove(at.at);
        self.len -= 1;
        if chunk.entries.is_empty() && !alone {
            self.chunks.remove(at.chunk);
        } else if waiter.procs == chunk.min_procs || waiter.wall == chunk.min_wall {
            chunk.measure();
        }
        waiter
    }

    /// Keeps the entries `keep` accepts, asked once each in queue order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Waiter) -> bool) {
        for chunk in &mut self.chunks {
            let before = chunk.entries.len();
            chunk.entries.retain(&mut keep);
            if chunk.entries.len() < before {
                self.len -= before - chunk.entries.len();
                chunk.measure();
            }
        }
        if self.is_empty() {
            self.chunks.truncate(1);
        } else {
            self.chunks.retain(|c| !c.entries.is_empty());
        }
    }

    /// The first entry at or after `from` that a backfill scan may start:
    /// `procs <= free`, and `wall <= fit_wall` (it ends by the horizon) or
    /// `procs <= spare` (it fits beside the head's reservation). Exactly
    /// `position()` of that test over the queue from `from` on: the test
    /// only gets harder as `procs` or `wall` grows, so a chunk is stepped
    /// over when its two minima, taken as an entry, fail it — none of its
    /// entries passes then.
    #[must_use]
    pub(crate) fn find_from(
        &self,
        from: Cursor,
        free: u64,
        spare: u64,
        fit_wall: Duration,
    ) -> Option<Cursor> {
        let startable =
            |procs: u64, wall: Duration| procs <= free && (wall <= fit_wall || procs <= spare);
        let mut at = from.at;
        for (chunk, c) in self.chunks.iter().enumerate().skip(from.chunk) {
            if startable(c.min_procs, c.min_wall) {
                let rest = &c.entries[at..];
                if let Some(offset) = rest.iter().position(|w| startable(w.procs, w.wall)) {
                    return Some(Cursor {
                        chunk,
                        at: at + offset,
                    });
                }
            }
            at = 0;
        }
        None
    }

    /// Where job `idx` waits, given the test that is true of exactly the
    /// entries queued before it when the queue is in that order: the
    /// two-level search, and — since a fair-share re-sort leaves another
    /// order, and two jobs may share a key — a scan chunk by chunk when
    /// the search lands on another job.
    #[must_use]
    pub fn find(&self, idx: usize, mut precedes: impl FnMut(&Waiter) -> bool) -> Option<Cursor> {
        let mut chunk = self.chunks[1..].partition_point(|c| precedes(&c.entries[0]));
        let mut at = self.chunks[chunk].entries.partition_point(precedes);
        if at == self.chunks[chunk].entries.len() {
            // Behind its chunk's last entry stands the next chunk's first.
            (chunk, at) = (chunk + 1, 0);
        }
        let landed = self.chunks.get(chunk).and_then(|c| c.entries.get(at));
        if landed.is_some_and(|w| w.idx == idx) {
            return Some(Cursor { chunk, at });
        }
        self.chunks.iter().enumerate().find_map(|(chunk, c)| {
            let at = c.entries.iter().position(|w| w.idx == idx)?;
            Some(Cursor { chunk, at })
        })
    }

    /// Sorts the whole queue by `compare` — a total order, so that the
    /// result does not depend on the order before. The entries are copied
    /// to `scratch` (cleared first; its allocation is what the caller
    /// keeps), sorted there and written back through the chunks as they
    /// are cut.
    pub fn sort_unstable_by(
        &mut self,
        scratch: &mut Vec<Waiter>,
        compare: impl FnMut(&Waiter, &Waiter) -> Ordering,
    ) {
        scratch.clear();
        for chunk in &self.chunks {
            scratch.extend_from_slice(&chunk.entries);
        }
        scratch.sort_unstable_by(compare);
        let mut sorted = &scratch[..];
        for chunk in &mut self.chunks {
            let (head, rest) = sorted.split_at(chunk.entries.len());
            chunk.entries.copy_from_slice(head);
            chunk.measure();
            sorted = rest;
        }
    }

    /// The entry at flat position `n`, and where it is: how the queue's
    /// lockstep tests name a place in it.
    #[cfg(test)]
    pub(crate) fn nth(&self, mut n: usize) -> Option<(Cursor, Waiter)> {
        for (chunk, c) in self.chunks.iter().enumerate() {
            if let Some(&w) = c.entries.get(n) {
                return Some((Cursor { chunk, at: n }, w));
            }
            n -= c.entries.len();
        }
        None
    }

    /// Asserts what the scan's skip rests on and the layout promises:
    /// every summary exact, no chunk empty but a lone first, none at the
    /// splitting size, `len` the number of entries. Test hook.
    ///
    /// # Panics
    /// Panics, naming the chunk, when one of them does not hold.
    #[doc(hidden)]
    pub(crate) fn assert_sound(&self) {
        assert!(!self.chunks.is_empty(), "the first chunk is gone");
        let entries: usize = self.chunks.iter().map(|c| c.entries.len()).sum();
        assert_eq!(entries, self.len, "len out of step with the entries");
        for (i, c) in self.chunks.iter().enumerate() {
            assert_eq!(
                (c.min_procs, c.min_wall),
                minima(&c.entries),
                "chunk {i}: summary is not the minima of its entries"
            );
            assert!(
                !c.entries.is_empty() || self.chunks.len() == 1,
                "chunk {i} of {} is empty",
                self.chunks.len()
            );
            assert!(
                c.entries.len() < 2 * CHUNK_KEYS,
                "chunk {i} holds {} entries unsplit",
                c.entries.len()
            );
        }
    }
}

/// Conservative backfilling's plan for one partition, kept from one pass
/// to the next.
///
/// While the plan is *live*, `profile` is the partition's free-capacity
/// timeline net of the running jobs — the release ledger — *and* of
/// `[slot, slot + wall)` for every job in `slots`, and each slot is the
/// one a pass planning the queue from scratch would give its job now. That
/// holds for as long as the machine does what the plan says and the queue
/// only grows at its tail; the partition and the session mark the plan
/// diverged the moment either stops being true
/// ([`Partition::plan_diverged`]), and the next planning pass rebuilds it
/// from the ledger. Derived state: never saved, and a new or restored
/// session starts diverged.
#[derive(Debug, Clone)]
pub(crate) struct KeptPlan {
    /// Free units from the last planning pass on.
    pub(crate) profile: CapacityProfile,
    /// The planned jobs that still wait, `(row, slot)`: a prefix of the
    /// waiting queue, in its order. A pass plans only as deep as it can
    /// observe, so the jobs behind the prefix may be waiting unplanned,
    /// each holding the promise of an earlier pass.
    pub(crate) slots: Vec<(usize, Timestamp)>,
    /// `None` while the plan is live; otherwise what first diverged it.
    stale: Option<Divergence>,
}

/// One isolated scheduling domain (the whole machine, or one virtual
/// cluster).
#[derive(Debug, Clone)]
pub struct Partition {
    /// Total resource units.
    pub capacity: u64,
    /// Currently free units.
    pub free: u64,
    /// Waiting jobs, in the order the scheduler serves them.
    waiting: WaitQueue,
    /// Who runs until when: the units each running job hands back, keyed
    /// by end estimate. The one structure the backfill disciplines plan
    /// from; which job holds which units stays in the session's tables.
    ledger: ReleaseLedger,
    /// The plan over both, under conservative backfilling.
    plan: Option<KeptPlan>,
}

impl Partition {
    fn new(capacity: u64) -> Self {
        Self {
            capacity,
            free: capacity,
            waiting: WaitQueue::new(),
            ledger: ReleaseLedger::new(capacity),
            plan: None,
        }
    }

    /// The waiting jobs.
    #[must_use]
    pub fn waiting(&self) -> &WaitQueue {
        &self.waiting
    }

    /// The waiting jobs, to queue, start or cancel one.
    pub(crate) fn waiting_mut(&mut self) -> &mut WaitQueue {
        &mut self.waiting
    }

    /// The release ledger of the running jobs, as of the last
    /// `Partition::prune_to`.
    #[must_use]
    pub fn ledger(&self) -> &ReleaseLedger {
        &self.ledger
    }

    /// Brings the ledger to `now` — first thing in every scheduling pass.
    /// A job running past its estimate is not what a kept plan holds, and
    /// while one does the `now + 1` at which it is planned to end moves
    /// with the clock.
    pub(crate) fn prune_to(&mut self, now: Timestamp) {
        self.ledger.prune_to(now);
        if self.ledger.overrun() > 0 {
            self.plan_diverged(Divergence::Overrun);
        }
    }

    /// The kept plan, while it is live.
    pub(crate) fn live_plan(&self) -> Option<&KeptPlan> {
        self.plan.as_ref().filter(|plan| plan.stale.is_none())
    }

    /// The machine or the queue did something the kept plan does not
    /// hold (`cause`): a completion off its end estimate, an overrun, a
    /// cancelled or overtaken planned job, a re-sorted queue, a start the
    /// plan did not make. The next planning pass starts from the ledger.
    pub(crate) fn plan_diverged(&mut self, cause: Divergence) {
        if let Some(plan) = &mut self.plan {
            plan.stale.get_or_insert(cause);
        }
    }

    /// The head of the queue, already popped, starts at `now` ahead of the
    /// planning pass: the first slot of a live plan, or a start the plan
    /// does not hold — the job that finds the machine free on arrival,
    /// which nobody ever planned, or a head off the unplanned tail.
    pub(crate) fn plan_head_start(&mut self, head: usize, now: Timestamp) {
        let Some(plan) = self.plan.as_mut().filter(|plan| plan.stale.is_none()) else {
            return;
        };
        if plan.slots.first() == Some(&(head, now)) {
            plan.slots.remove(0);
        } else {
            plan.stale = Some(Divergence::HeadStart);
        }
    }

    /// Waiting job `idx` is cancelled: if it was planned, its slot goes
    /// back to those behind it.
    pub(crate) fn plan_cancel(&mut self, idx: usize) {
        let planned = |plan: &KeptPlan| plan.slots.iter().any(|&(row, _)| row == idx);
        if self.live_plan().is_some_and(planned) {
            self.plan_diverged(Divergence::Cancel);
        }
    }

    /// The waiting queue and the plan a conservative pass extends over
    /// it: the kept one while it is live, otherwise one rebuilt from the
    /// ledger — O(ledger keys), once per divergence — with nobody planned,
    /// and then also why it was rebuilt.
    ///
    /// # Panics
    /// Panics unless the cluster keeps plans ([`Cluster::keep_plans`]).
    pub(crate) fn planning(
        &mut self,
        now: Timestamp,
    ) -> (&WaitQueue, &mut KeptPlan, Option<Divergence>) {
        let plan = self.plan.as_mut().expect("conservative keeps a plan");
        let rebuilt = plan.stale.take();
        if rebuilt.is_some() {
            self.ledger.copy_to(&mut plan.profile);
            plan.slots.clear();
        } else {
            plan.profile.forget_before(now);
        }
        (&self.waiting, plan, rebuilt)
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

    /// Completes a running job at `now`, freeing the `procs` units it was
    /// started with; `end_estimate` is the one it was started with too.
    ///
    /// The ledger is brought to `now` first — its own prune, not
    /// `Partition::prune_to`, whose divergence check would see the finishing
    /// job as overrunning. A job ending on its estimate then finds its
    /// key released by the clock and gives its units back out of the
    /// overrun, with no search; after the completions at `now` the keys
    /// and the overrun are what removing first and pruning after leaves.
    ///
    /// # Panics
    /// Panics if the ledger holds no such job.
    pub fn finish(&mut self, procs: u64, end_estimate: Timestamp, now: Timestamp) {
        self.ledger.prune_to(now);
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
    /// declaring more than one VC, capacity is split across partitions by
    /// [`virtual_cluster_units`].
    #[must_use]
    pub fn new(spec: &SystemSpec, respect_virtual_clusters: bool) -> Self {
        let n = if respect_virtual_clusters {
            usize::from(spec.virtual_clusters.max(1))
        } else {
            1
        };
        Self {
            partitions: virtual_cluster_units(spec.total_units, n)
                .into_iter()
                .map(Partition::new)
                .collect(),
        }
    }

    /// Gives every partition a plan to keep between passes — diverged, so
    /// the first planning pass builds it. For conservative backfilling,
    /// the one discipline that plans every waiting job.
    pub(crate) fn keep_plans(&mut self) {
        for p in &mut self.partitions {
            p.plan = Some(KeptPlan {
                profile: CapacityProfile::new(0, 0),
                slots: Vec::new(),
                stale: Some(Divergence::Fresh),
            });
        }
    }

    /// Number of partitions.
    #[must_use]
    pub(crate) fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total capacity across partitions.
    #[must_use]
    pub(crate) fn total_capacity(&self) -> u64 {
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
    pub(crate) fn partition_mut(&mut self, idx: usize) -> &mut Partition {
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
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    // ---- the chunked queue against a flat `Vec` -------------------------

    fn waiter(idx: usize, procs: u64, wall: Duration) -> Waiter {
        Waiter { idx, procs, wall }
    }

    /// A queue cut exactly as given, one chunk per list.
    fn queue_of(chunks: &[&[Waiter]]) -> WaitQueue {
        let q = WaitQueue {
            len: chunks.iter().map(|c| c.len()).sum(),
            chunks: chunks.iter().map(|c| Chunk::of(c.to_vec())).collect(),
        };
        q.assert_sound();
        q
    }

    fn sequence(q: &WaitQueue) -> Vec<Waiter> {
        q.chunks().flatten().copied().collect()
    }

    fn chunk_lens(q: &WaitQueue) -> Vec<usize> {
        q.chunks.iter().map(|c| c.entries.len()).collect()
    }

    /// The flat position `at` names.
    fn flat(q: &WaitQueue, at: Cursor) -> usize {
        chunk_lens(q)[..at.chunk].iter().sum::<usize>() + at.at
    }

    /// The scan's test, as `schedule_easy` spelled it over the flat queue.
    fn startable(w: &Waiter, free: u64, spare: u64, fit_wall: Duration) -> bool {
        w.procs <= free && (w.wall <= fit_wall || w.procs <= spare)
    }

    /// Checks `find_from` against `position()` on the flat copy from
    /// every form of a random cursor, for thresholds drawn at random, at
    /// zero, and exactly on and one under a random chunk's minima.
    fn check_scans(
        q: &WaitQueue,
        flat_copy: &[Waiter],
        rng: &mut TestRng,
    ) -> Result<(), TestCaseError> {
        let c = &q.chunks[rng.next_u64() as usize % q.chunks.len()];
        let under = rng.next_u64() % 2;
        let frees = [0, rng.next_u64() % 70, c.min_procs.saturating_sub(under)];
        let spares = [
            0,
            rng.next_u64() % 70,
            c.min_procs.saturating_sub(1 - under),
        ];
        let walls = [rng.next_u64() as i64 % 1_100, c.min_wall - under as i64];
        let pos = rng.next_u64() as usize % (flat_copy.len() + 1);
        let mut cursors = Vec::new();
        if let Some((at, _)) = q.nth(pos) {
            cursors.push(at);
            if at.at == 0 && at.chunk > 0 {
                // The same place, named as the end of the chunk before.
                let before = at.chunk - 1;
                cursors.push(Cursor {
                    chunk: before,
                    at: q.chunks[before].entries.len(),
                });
            }
        } else {
            let last = q.chunks.len() - 1;
            cursors.push(Cursor {
                chunk: last,
                at: q.chunks[last].entries.len(),
            });
        }
        for from in cursors {
            for free in frees {
                for spare in spares {
                    for fit_wall in walls {
                        let expected = flat_copy[pos..]
                            .iter()
                            .position(|w| startable(w, free, spare, fit_wall))
                            .map(|offset| pos + offset);
                        let found = q.find_from(from, free, spare, fit_wall);
                        prop_assert_eq!(
                            found.map(|at| flat(q, at)),
                            expected,
                            "from {:?} (flat {}) with free {}, spare {}, fit_wall {}",
                            from,
                            pos,
                            free,
                            spare,
                            fit_wall
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// The queue and a flat `Vec<Waiter>` in lockstep over random inserts
    /// by key, head pops, removals at a cursor and `retain`s, up past a
    /// thousand entries and down to none.
    fn check_against_a_flat_vec(seed: u64) -> Result<(), TestCaseError> {
        let mut rng = TestRng::new(seed);
        let mut q = WaitQueue::new();
        let mut oracle: Vec<Waiter> = Vec::new();
        // Static keys, by entry index; a key may repeat.
        let mut keys: Vec<u64> = Vec::new();
        let mut growing = true;
        let mut most_chunks = 0;
        while growing || !oracle.is_empty() {
            growing &= oracle.len() < 1_100;
            let insert_odds = if growing { 75 } else { 25 };
            let draw = rng.next_u64() % 400;
            if draw == 0 {
                // A run of keys (whole chunks of a deep queue) and a
                // scattering of the rest.
                let from = rng.next_u64() % 4_000;
                let salt = rng.next_u64() % 31;
                let keep = |e: &Waiter| {
                    !(from..from + 300).contains(&keys[e.idx]) && e.idx as u64 % 31 != salt
                };
                oracle.retain(keep);
                q.retain(keep);
            } else if draw % 100 < insert_odds {
                let idx = keys.len();
                keys.push(rng.next_u64() % 4_000);
                // Mostly wide and long, so that many chunks hold nothing
                // a scan could start.
                let (narrow, short) = (rng.next_u64() % 16 == 0, rng.next_u64() % 16 == 0);
                let procs = rng.next_u64() % 8 + if narrow { 1 } else { 40 };
                let wall = rng.next_u64() as i64 % 50 + if short { 1 } else { 600 };
                let w = waiter(idx, procs, wall);
                let precedes = |e: &Waiter| (keys[e.idx], e.idx) <= (keys[idx], idx);
                let pos = oracle.partition_point(precedes);
                oracle.insert(pos, w);
                q.insert_by(w, precedes);
            } else if draw % 100 < insert_odds + 10 {
                let expected = (!oracle.is_empty()).then(|| oracle.remove(0));
                prop_assert_eq!(q.pop_front(), expected);
            } else if !oracle.is_empty() {
                let pos = rng.next_u64() as usize % oracle.len();
                let (at, w) = q.nth(pos).expect("in range");
                prop_assert_eq!(w, oracle[pos]);
                let by_key = q.find(w.idx, |e| (keys[e.idx], e.idx) < (keys[w.idx], w.idx));
                prop_assert_eq!(by_key, Some(at));
                prop_assert_eq!(q.remove(at), oracle.remove(pos));
                // The cursor now names the entry that followed.
                let next = q.find_from(at, u64::MAX, u64::MAX, Duration::MAX);
                let expected = (pos < oracle.len()).then_some(pos);
                prop_assert_eq!(next.map(|at| flat(&q, at)), expected);
            }
            q.assert_sound();
            prop_assert_eq!(q.len(), oracle.len());
            prop_assert_eq!(q.first(), oracle.first());
            prop_assert_eq!(&sequence(&q), &oracle);
            check_scans(&q, &oracle, &mut rng)?;
            most_chunks = most_chunks.max(q.chunks().count());
        }
        prop_assert!(most_chunks >= 9, "only {} chunks at the peak", most_chunks);
        prop_assert!(q.chunks().next().is_none());
        prop_assert!(
            q.chunks[0].entries.capacity() > 0,
            "the first chunk's allocation is gone"
        );
        Ok(())
    }

    /// Fair-share over tenants, in small: rounds of arrivals inserted by
    /// static key into a queue the last re-sort left in another order,
    /// lookups and removals by that key, then the next re-sort.
    fn check_a_resorted_queue(seed: u64) -> Result<(), TestCaseError> {
        let mut rng = TestRng::new(seed);
        let mut q = WaitQueue::new();
        let mut oracle: Vec<Waiter> = Vec::new();
        let mut keys: Vec<u64> = Vec::new();
        let mut scratch = Vec::new();
        for round in 0..40 {
            for _ in 0..rng.next_u64() % 40 {
                let idx = keys.len();
                keys.push(rng.next_u64() % 1_000);
                let w = waiter(
                    idx,
                    1 + rng.next_u64() % 64,
                    1 + rng.next_u64() as i64 % 1_000,
                );
                oracle.push(w);
                q.insert_by(w, |e| (keys[e.idx], e.idx) <= (keys[idx], idx));
                q.assert_sound();
            }
            for _ in 0..(rng.next_u64() % 10).min(oracle.len() as u64) {
                let w = oracle.swap_remove(rng.next_u64() as usize % oracle.len());
                let at = q.find(w.idx, |e| (keys[e.idx], e.idx) < (keys[w.idx], w.idx));
                prop_assert_eq!(q.remove(at.expect("queued")), w);
                q.assert_sound();
            }
            // This round's shares: any total order will do.
            let share = |w: &Waiter| {
                let mixed = (w.idx as u64 ^ round).wrapping_mul(0x9e37_79b9);
                (mixed % 5, keys[w.idx], w.idx)
            };
            let lens = chunk_lens(&q);
            q.sort_unstable_by(&mut scratch, |a, b| share(a).cmp(&share(b)));
            oracle.sort_unstable_by_key(share);
            q.assert_sound();
            prop_assert_eq!(&sequence(&q), &oracle);
            prop_assert_eq!(chunk_lens(&q), lens, "a re-sort re-cut the queue");
        }
        let chunks = q.chunks().count();
        prop_assert!(chunks >= 3, "the queue stayed in {} chunks", chunks);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The same sequence as the flat `Vec` and a sound layout after
        /// every operation, `find_from` equal to `position()`, and the
        /// first chunk's allocation still there when the queue has
        /// emptied.
        #[test]
        fn queue_matches_a_flat_vec_under_every_operation(seed in any::<u64>()) {
            check_against_a_flat_vec(seed)?;
        }

        /// A fair-share re-sort leaves the queue in another order than
        /// the static key's, the next arrival is inserted by that key all
        /// the same, and the next re-sort must hide where it landed:
        /// every insert and lookup on the unpartitioned queue stays in
        /// bounds and leaves a sound layout, and after the re-sort the
        /// queue is the sorted flat copy, cut where it was cut before.
        #[test]
        fn a_resort_hides_where_inserts_by_key_landed_in_a_resorted_queue(seed in any::<u64>()) {
            check_a_resorted_queue(seed)?;
        }
    }

    /// Entries `idx` = `from..to`, all 40 units wide and 900 s long.
    fn wide(from: usize, to: usize) -> Vec<Waiter> {
        (from..to).map(|idx| waiter(idx, 40, 900)).collect()
    }

    #[test]
    fn a_removal_that_empties_the_chunk_under_the_cursor_leaves_it_on_the_next_chunk() {
        let (head, tail) = (wide(0, 3), wide(4, 7));
        let mut q = queue_of(&[&head, &[waiter(3, 2, 900)], &tail]);
        let at = q.find_from(WaitQueue::BEHIND_HEAD, 8, 8, 0).unwrap();
        assert_eq!(at, Cursor { chunk: 1, at: 0 });
        assert_eq!(q.remove(at).idx, 3);
        q.assert_sound();
        assert_eq!(chunk_lens(&q), [3, 3]);
        // The same cursor is now the first entry of what was chunk 2.
        assert_eq!(q.find_from(at, 40, 40, 0), Some(at));
        assert_eq!(q.remove(at).idx, 4);
    }

    #[test]
    fn removing_the_entry_that_carried_a_minimum_re_measures_the_chunk() {
        let entries = [
            waiter(0, 40, 900),
            waiter(1, 2, 900),
            waiter(2, 40, 30),
            waiter(3, 8, 60),
        ];
        let mut q = queue_of(&[&entries]);
        assert_eq!((q.chunks[0].min_procs, q.chunks[0].min_wall), (2, 30));
        q.remove(Cursor { chunk: 0, at: 1 });
        assert_eq!((q.chunks[0].min_procs, q.chunks[0].min_wall), (8, 30));
        q.remove(Cursor { chunk: 0, at: 1 });
        assert_eq!((q.chunks[0].min_procs, q.chunks[0].min_wall), (8, 60));
        // No entry of 7 units or fewer is left, and the summary says so.
        assert_eq!(q.find_from(WaitQueue::BEHIND_HEAD, 7, 7, 1_000), None);
        q.assert_sound();
    }

    #[test]
    fn a_scan_behind_a_head_alone_in_its_chunk_starts_in_the_next() {
        let tail = [waiter(1, 40, 900), waiter(2, 4, 900)];
        let mut q = queue_of(&[&[waiter(0, 1, 1)], &tail]);
        // The head would pass the test; the scan must not see it.
        let at = q.find_from(WaitQueue::BEHIND_HEAD, 4, 4, 0).unwrap();
        assert_eq!(at, Cursor { chunk: 1, at: 1 });
        assert_eq!(q.remove(at).idx, 2);
        assert_eq!(
            q.find_from(at, 4, 4, 0),
            None,
            "a cursor at the queue's end"
        );
        // Popping the lone head drops its chunk; the next one is the head's.
        assert_eq!(q.pop_front().map(|w| w.idx), Some(0));
        assert_eq!(q.first().map(|w| w.idx), Some(1));
        assert_eq!(chunk_lens(&q), [1]);
        q.assert_sound();
    }

    #[test]
    fn a_cursor_at_a_chunks_end_reads_as_the_next_chunks_first_entry() {
        let (a, b) = (wide(0, 2), wide(2, 4));
        let mut q = queue_of(&[&a, &b]);
        let end = Cursor { chunk: 0, at: 2 };
        for idx in [2, 3] {
            let next = q.find_from(end, 40, 40, 0).unwrap();
            assert_eq!(next, Cursor { chunk: 1, at: 0 });
            assert_eq!(q.remove(next).idx, idx);
        }
        assert_eq!(chunk_lens(&q), [2]);
        assert_eq!(q.find_from(end, 40, 40, 0), None);
    }

    #[test]
    fn an_insert_that_splits_the_heads_chunk_keeps_head_and_order() {
        let mut q = WaitQueue::new();
        // Descending keys: every insert goes in front of the head.
        for idx in 0..2 * CHUNK_KEYS {
            q.insert_by(waiter(idx, 40, 900), |e| e.idx > idx);
            assert_eq!(q.first().map(|w| w.idx), Some(idx));
        }
        q.assert_sound();
        assert_eq!(chunk_lens(&q), [CHUNK_KEYS, CHUNK_KEYS]);
        let order: Vec<usize> = sequence(&q).iter().map(|w| w.idx).collect();
        let descending: Vec<usize> = (0..2 * CHUNK_KEYS).rev().collect();
        assert_eq!(order, descending);
    }

    #[test]
    fn a_queue_that_empties_keeps_its_first_chunk_allocated() {
        let mut q = WaitQueue::new();
        for round in 0..3 {
            q.insert_by(waiter(round, 1, 1), |_| true);
            let held = q.chunks[0].entries.as_ptr();
            assert_eq!(q.pop_front().map(|w| w.idx), Some(round));
            assert!(q.is_empty() && q.first().is_none() && q.pop_front().is_none());
            assert_eq!(q.chunks[0].entries.as_ptr(), held);
            assert_eq!(q.find_from(WaitQueue::BEHIND_HEAD, u64::MAX, 0, 0), None);
            q.assert_sound();
        }
    }

    // ---- partitions ------------------------------------------------------

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
        p.finish(100, 50, 40);
        assert_eq!(p.free, p.capacity);
        // The unused tail [40, 50) came back.
        assert_eq!(p.ledger().earliest(p.capacity), (40, p.capacity));
        assert!(p.ledger().is_empty());
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn finishing_unknown_job_panics() {
        let mut c = Cluster::new(&SystemSpec::theta(), true);
        c.partition_mut(0).finish(3, 10, 0);
    }
}
