//! Future free-capacity profiles.
//!
//! Both the EASY shadow-time computation and conservative backfilling need
//! to answer: *given the walltime-based end estimates of everything already
//! running (and already-reserved), when is the earliest time a job of
//! `procs` units can start?* [`CapacityProfile`] answers that with a list
//! of `(time, free_units)` breakpoints, sorted by time and held in bounded
//! chunks.
//!
//! # Who runs until when: the release ledger
//!
//! Of the running jobs the scheduler maintains no breakpoint list at all.
//! Restricted to the future, the free-capacity timeline of a machine
//! whose running jobs each hold `procs` units until their end estimate
//! *is* "units handed back per end estimate, in time order", and
//! [`ReleaseLedger`] stores exactly that: a job start adds its units at
//! its end-estimate key, a completion takes them out again, the advancing
//! clock drops the keys it passes — before the completions at its instant,
//! so a job ending on its estimate finds its key already dropped and
//! costs no search. The EASY shadow time is a prefix-sum
//! search over the keys ([`ReleaseLedger::earliest`]). Conservative
//! backfilling, which gives every waiting job a reservation, keeps a
//! [`CapacityProfile`] of its own per partition — the ledger's timeline
//! with the reservations carved in — for as long as the machine does what
//! that plan says, and rebuilds it from the ledger when it does not
//! ([`ReleaseLedger::copy_to`]: one span per ledger chunk, every
//! breakpoint copied out, O(keys), once per divergence). See
//! `docs/PERFORMANCE.md` §4 and §17 for what that costs. The tests hold
//! the copy to the reference model's timeline, a flat list built from
//! the running jobs alone.
//!
//! ```
//! use lumos_sim::profile::{CapacityProfile, ReleaseLedger};
//!
//! // 100 units; at t=0 a job takes 40 of them until its estimate, t=50.
//! let mut ledger = ReleaseLedger::new(100);
//! ledger.prune_to(0);
//! ledger.add(50, 40);
//! assert_eq!(ledger.free_now(), 60);
//! // 70 units are free from t=50 on, with 30 to spare at that instant.
//! assert_eq!(ledger.earliest(70), (50, 100));
//! // Conservative's plan: the ledger's timeline, copied out of it…
//! let mut kept = CapacityProfile::new(0, 0);
//! ledger.copy_to(&mut kept);
//! assert_eq!(kept.points(), &[(0, 60), (50, 100)]);
//! assert_eq!(kept.earliest_fit(0, 70, 10), Some(50));
//! // …with a reservation carved in.
//! kept.reserve(50, 60, 70);
//! assert_eq!(kept.points(), &[(0, 60), (50, 30), (60, 100)]);
//! // The job finishes early: its units come back at once — in the
//! // ledger; the copy is now a plan the machine has diverged from.
//! ledger.remove(50, 40);
//! assert_eq!(ledger.free_now(), 100);
//! assert_eq!(kept.points(), &[(0, 60), (50, 30), (60, 100)]);
//! ```

use std::collections::VecDeque;

use lumos_core::Timestamp;

/// One breakpoint `(instant, units free from it on)`, or one ledger key
/// `(end estimate, units handed back at it)`.
type Point = (Timestamp, u64);

/// Entries a chunk — of the ledger's keys, of a profile's breakpoints or
/// of a partition's waiting queue — settles at; a chunk splits in two when
/// it reaches twice this. Small enough that an insert or a walk inside one
/// chunk stays within three kilobytes, large enough that thousands of
/// running or waiting jobs are a hundred-odd chunk headers.
pub(crate) const CHUNK_KEYS: usize = 64;

/// A run of consecutive breakpoints: what a profile is made of.
///
/// The units free from a breakpoint on are its stored value minus `sub`,
/// so a reservation covering the whole span is one addition.
#[derive(Debug, Clone)]
struct Span {
    /// Instant of the first breakpoint.
    first: Timestamp,
    /// Units reserved across the whole span, not yet taken out of the
    /// stored values.
    sub: u64,
    /// Smallest stored value.
    min: u64,
    /// Largest stored value.
    max: u64,
    /// `(instant, stored value)`, ascending, never empty.
    points: Vec<Point>,
}

/// Smallest and largest value in `points`.
fn measure(points: &[Point]) -> (u64, u64) {
    points
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &(_, v)| (lo.min(v), hi.max(v)))
}

impl Span {
    /// A span of `points` (not empty), `sub` units pending on each.
    fn new(points: Vec<Point>, sub: u64) -> Self {
        let (min, max) = measure(&points);
        Self {
            first: points[0].0,
            sub,
            min,
            max,
            points,
        }
    }

    /// Index of the breakpoint in force at `t`: the last one at or before
    /// it (the first when `t` precedes the span).
    fn position(&self, t: Timestamp) -> usize {
        self.points
            .partition_point(|&(ti, _)| ti <= t)
            .saturating_sub(1)
    }

    /// The breakpoints from index `at` on, as `(instant, units free)`.
    fn walk_from(&self, at: usize) -> impl Iterator<Item = Point> + '_ {
        self.points[at..].iter().map(|&(t, v)| (t, v - self.sub))
    }

    /// Units free from breakpoint `at` on.
    fn free_from(&self, at: usize) -> u64 {
        self.points[at].1 - self.sub
    }

    /// Units free from the span's last breakpoint on.
    fn last_free(&self) -> u64 {
        self.free_from(self.points.len() - 1)
    }
}

/// Piecewise-constant free-capacity timeline: a breakpoint `(t_i, free_i)`
/// means `free_i` units are free on `[t_i, t_{i+1})`; the last segment
/// extends to infinity.
///
/// The breakpoints live in spans of about 64, each with the smallest and
/// largest value in it and a pending subtraction, so that
/// [`CapacityProfile::earliest_fit`] steps over a span whose segments all
/// carry the run or all break it, and [`CapacityProfile::reserve`] shifts
/// a span it wholly covers in one addition. Which breakpoints exist, and
/// every answer, are those of one flat sorted list.
#[derive(Debug, Clone)]
pub struct CapacityProfile {
    /// Ascending in time, none empty.
    spans: Vec<Span>,
    /// Emptied breakpoint lists, for the next span that needs one.
    pool: Vec<Vec<Point>>,
}

impl CapacityProfile {
    /// A profile with `free` units free from `start` onwards.
    #[must_use]
    pub fn new(start: Timestamp, free: u64) -> Self {
        Self::from_points(&[(start, free)])
    }

    /// The profile with exactly these breakpoints (ascending, not empty).
    fn from_points(points: &[Point]) -> Self {
        Self {
            spans: points
                .chunks(CHUNK_KEYS)
                .map(|run| Span::new(run.to_vec(), 0))
                .collect(),
            pool: Vec::new(),
        }
    }

    /// Builds the profile at time `now` from running-job end estimates:
    /// `running` is a slice of `(end_estimate, procs)`.
    #[must_use]
    pub fn from_running(now: Timestamp, capacity: u64, running: &[(Timestamp, u64)]) -> Self {
        let mut ends: Vec<(Timestamp, u64)> = running.to_vec();
        ends.sort_unstable();
        Self::from_sorted_running(now, capacity, ends.iter().copied())
    }

    /// [`Self::from_running`] for end estimates already in ascending order
    /// (O(n) instead of O(n log n)). The from-scratch reference the
    /// differential tests hold [`ReleaseLedger::copy_to`] to.
    ///
    /// # Panics
    /// Debug-asserts the ascending order.
    #[must_use]
    pub(crate) fn from_sorted_running(
        now: Timestamp,
        capacity: u64,
        running: impl Iterator<Item = (Timestamp, u64)> + Clone,
    ) -> Self {
        let in_use: u64 = running.clone().map(|(_, p)| p).sum();
        let mut free = capacity.saturating_sub(in_use);
        let mut points = vec![(now, free)];
        let mut prev = Timestamp::MIN;
        for (end, procs) in running {
            debug_assert!(end >= prev, "running set must be end-sorted");
            prev = end;
            if procs == 0 {
                continue;
            }
            free += procs;
            // An estimate the clock has passed releases at `now`.
            let at = end.max(now);
            match points.last_mut() {
                Some(last) if last.0 == at => last.1 = free,
                _ => points.push((at, free)),
            }
        }
        Self::from_points(&points)
    }

    /// Number of breakpoints (for tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.iter().map(|s| s.points.len()).sum()
    }

    /// True when no breakpoints exist (never: construction seeds one, and
    /// the first breakpoint has no predecessor to be merged into).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Free units at time `t` (clamped to the first segment before it).
    #[must_use]
    pub fn free_at(&self, t: Timestamp) -> u64 {
        let (span, at) = self.locate(t);
        self.spans[span].free_from(at)
    }

    /// True if `procs` units are free throughout `[from, to)`.
    ///
    /// From the segment containing `from`, span by span: one step over a
    /// span whose values all carry `procs` or all break it, a walk inside
    /// the others up to `to`.
    #[must_use]
    pub fn fits(&self, from: Timestamp, to: Timestamp, procs: u64) -> bool {
        if from >= to {
            return true;
        }
        let (start, at) = self.locate(from);
        for (i, span) in self.spans.iter().enumerate().skip(start) {
            // Past here the span has a breakpoint before `to` that counts:
            // its first, or the one in force at `from`.
            if span.first >= to {
                break;
            }
            if span.min - span.sub >= procs {
                continue;
            }
            if span.max - span.sub < procs {
                return false;
            }
            let at = if i == start { at } else { 0 };
            for (t, free) in span.walk_from(at) {
                if t >= to {
                    return true;
                }
                if free < procs {
                    return false;
                }
            }
        }
        true
    }

    /// Earliest `t ≥ after` at which `procs` units stay free for
    /// `duration` seconds. Candidate starts are `after` itself and the
    /// breakpoints (capacity only changes there). Returns `None` if `procs`
    /// can never fit (i.e. exceeds the eventual total).
    ///
    /// One forward sweep over the spans at or after `after`: O(log n) to
    /// locate the first, one step per span whose values all lie on one
    /// side of `procs`, a walk through the others.
    #[must_use]
    pub fn earliest_fit(&self, after: Timestamp, procs: u64, duration: i64) -> Option<Timestamp> {
        self.earliest_fit_counted(after, procs, duration, &mut 0)
    }

    /// [`Self::earliest_fit`], adding to `walked` the breakpoints it reads
    /// one by one inside the spans it cannot step over.
    pub(crate) fn earliest_fit_counted(
        &self,
        after: Timestamp,
        procs: u64,
        duration: i64,
        walked: &mut u64,
    ) -> Option<Timestamp> {
        if duration <= 0 {
            return Some(after); // an empty interval fits anywhere
        }
        let start = self.span_of(after);
        // Start of the current run of segments with `free >= procs`.
        let mut run_start: Option<Timestamp> = None;
        for (i, span) in self.spans.iter().enumerate().skip(start) {
            // A segment ends where the next begins; the last one of the
            // last span extends to infinity, so a run reaching it can
            // only keep growing.
            let next_first = self.spans.get(i + 1).map(|s| s.first);
            // Where the span's first segment begins as a candidate: `after`
            // itself in the span containing it.
            let seg_start = if i == start { after } else { span.first };
            if span.max - span.sub < procs {
                // No segment in the span carries a run or opens one.
                run_start = None;
                continue;
            }
            if span.min - span.sub >= procs {
                // Every segment carries the run, and they all end by
                // `next_first`: if the run is long enough anywhere in the
                // span it is long enough there.
                let s = *run_start.get_or_insert(seg_start);
                if next_first.is_none_or(|end| end - s >= duration) {
                    return run_start;
                }
                continue;
            }
            // Stored values against the request plus the span's pending
            // units; the run opens on a breakpoint carrying it and holds
            // to the first that breaks it, long enough once it reaches a
            // breakpoint at or past `deadline`.
            let need = procs + span.sub;
            let at = if i == start { span.position(after) } else { 0 };
            let points = &span.points[at..];
            let mut k = 0;
            loop {
                let s = match run_start {
                    Some(s) => s,
                    None => {
                        let Some(open) = points[k..].iter().position(|p| p.1 >= need) else {
                            *walked += (points.len() - k) as u64;
                            break;
                        };
                        *walked += open as u64 + 1;
                        k += open;
                        let s = if k == 0 { seg_start } else { points[k].0 };
                        k += 1;
                        *run_start.insert(s)
                    }
                };
                let deadline = s.saturating_add(duration);
                let rest = &points[k..];
                let Some(end) = rest.iter().position(|p| p.1 < need || p.0 >= deadline) else {
                    *walked += rest.len() as u64;
                    if next_first.is_none_or(|end| end >= deadline) {
                        return run_start;
                    }
                    break;
                };
                k += end;
                if points[k].0 >= deadline {
                    *walked += end as u64;
                    return run_start;
                }
                *walked += end as u64 + 1;
                run_start = None;
                k += 1;
            }
        }
        None
    }

    /// Removes `procs` free units over `[from, to)` (a reservation).
    ///
    /// # Panics
    /// Panics (debug) if the interval lacks capacity — callers must have
    /// checked with [`Self::earliest_fit`] / [`Self::fits`].
    pub fn reserve(&mut self, from: Timestamp, to: Timestamp, procs: u64) {
        if from >= to || procs == 0 {
            return;
        }
        let (mut first, mut lo) = self.ensure_breakpoint(from);
        let spans = self.spans.len();
        let (last, hi) = self.ensure_breakpoint(to);
        if self.spans.len() != spans {
            // Inserting `to` split a span, perhaps the one `from` is in.
            (first, lo) = self.locate(from);
        }
        // Spans wholly inside `[from, to)` shift as one; the (at most two)
        // an edge lands inside are rewritten point by point.
        if first == last {
            self.lower(first, lo..hi, procs);
        } else {
            let covered = if lo == 0 {
                first
            } else {
                self.lower(first, lo..self.spans[first].points.len(), procs);
                first + 1
            };
            for span in &mut self.spans[covered..last] {
                debug_assert!(
                    span.min - span.sub >= procs,
                    "reservation exceeds free capacity"
                );
                span.sub += procs;
            }
            if hi > 0 {
                self.lower(last, 0..hi, procs);
            }
        }
        // A contiguous range moved by a constant, so only the two boundary
        // pairs can have become redundant. `to` first: removing it leaves
        // `from` where it is.
        self.coalesce_at(last, hi);
        self.coalesce_at(first, lo);
    }

    /// The breakpoints (for tests and debugging).
    #[must_use]
    pub fn points(&self) -> Vec<(Timestamp, u64)> {
        self.spans.iter().flat_map(|s| s.walk_from(0)).collect()
    }

    /// Index of the span `t` falls in: the last one starting at or before
    /// it (the first when `t` precedes every breakpoint).
    fn span_of(&self, t: Timestamp) -> usize {
        self.spans
            .partition_point(|s| s.first <= t)
            .saturating_sub(1)
    }

    /// Span and index of the breakpoint in force at `t`.
    fn locate(&self, t: Timestamp) -> (usize, usize) {
        let span = self.span_of(t);
        (span, self.spans[span].position(t))
    }

    /// Takes `procs` out of the breakpoints in `range` of span `span`,
    /// which an edge of the reservation lies inside.
    ///
    /// Values only fall, so the span's smallest is the smaller of the old
    /// one and the range's; its largest moves only if the range held it,
    /// and only then are the breakpoints outside the range read.
    fn lower(&mut self, span: usize, range: std::ops::Range<usize>, procs: u64) {
        let span = &mut self.spans[span];
        let (mut lowest, mut highest, mut held_max) = (span.min, 0, false);
        for p in &mut span.points[range.clone()] {
            debug_assert!(p.1 - span.sub >= procs, "reservation exceeds free capacity");
            held_max |= p.1 == span.max;
            p.1 -= procs;
            lowest = lowest.min(p.1);
            highest = highest.max(p.1);
        }
        span.min = lowest;
        if held_max {
            let (before, after) = (&span.points[..range.start], &span.points[range.end..]);
            span.max = highest.max(measure(before).1).max(measure(after).1);
        }
    }

    /// Removes breakpoint `at` of span `span` if it repeats its
    /// predecessor's value (the last breakpoint of the span before, when
    /// it is the first of its own), keeping the representation canonical:
    /// no two adjacent breakpoints with equal free counts. A span left
    /// without breakpoints goes too. An inner breakpoint repeats its
    /// neighbour's stored value, so only a span's first one, removed, can
    /// move its smallest or largest.
    fn coalesce_at(&mut self, span: usize, at: usize) {
        let here = &self.spans[span];
        let before = match (span, at) {
            (0, 0) => return,
            (_, 0) => self.spans[span - 1].last_free(),
            _ => here.free_from(at - 1),
        };
        if here.free_from(at) != before {
            return;
        }
        let here = &mut self.spans[span];
        here.points.remove(at);
        if here.points.is_empty() {
            self.recycle(span..=span);
        } else if at == 0 {
            here.first = here.points[0].0;
            (here.min, here.max) = measure(&here.points);
        }
    }

    /// Ensures a breakpoint exists exactly at `t`, returning its span and
    /// its index there.
    fn ensure_breakpoint(&mut self, t: Timestamp) -> (usize, usize) {
        let at = self.span_of(t);
        let span = &mut self.spans[at];
        let points = &mut span.points;
        let upto = points.partition_point(|&(ti, _)| ti <= t);
        if upto > 0 && points[upto - 1].0 == t {
            return (at, upto - 1);
        }
        // The new breakpoint repeats the value in force at `t`: its
        // predecessor's or, before every breakpoint, the first one's,
        // whose segment extends backwards.
        let value = points[upto.saturating_sub(1)].1;
        points.insert(upto, (t, value));
        if upto == 0 {
            span.first = t;
        }
        if points.len() < 2 * CHUNK_KEYS {
            return (at, upto);
        }
        let mut tail = self.pool.pop().unwrap_or_default();
        tail.extend(points.drain(CHUNK_KEYS..));
        (span.min, span.max) = measure(points);
        let tail = Span::new(tail, span.sub);
        self.spans.insert(at + 1, tail);
        if upto < CHUNK_KEYS {
            (at, upto)
        } else {
            (at + 1, upto - CHUNK_KEYS)
        }
    }

    /// Drops the spans that end before `t`: nothing at or after `t` reads
    /// them, and a profile kept for a whole replay must not grow with it.
    pub(crate) fn forget_before(&mut self, t: Timestamp) {
        let passed = self.span_of(t);
        if passed > 0 {
            self.recycle(..passed);
        }
    }

    /// Drops the spans in `range`, keeping their breakpoint lists for reuse.
    fn recycle(&mut self, range: impl std::ops::RangeBounds<usize>) {
        for mut span in self.spans.drain(range) {
            span.points.clear();
            self.pool.push(span.points);
        }
    }
}

/// A run of consecutive ledger keys with their sum.
#[derive(Debug, Clone)]
struct Chunk {
    /// The first key's end estimate, so that finding a chunk reads no
    /// chunk's keys.
    first: Timestamp,
    /// Σ units over `keys`.
    sum: u64,
    /// `(end_estimate, Σ units)` ascending by time; never empty. A deque:
    /// the clock pops keys off the front, and an insert or a remove in
    /// the middle shifts the shorter side.
    keys: VecDeque<(Timestamp, u64)>,
}

/// The units every running job hands back, keyed by its end estimate.
///
/// For a machine of `capacity` units at the instant `now` the ledger was
/// last pruned to, with `total` the units under keys (all later than
/// `now`) and `overrun` the units of jobs running *past* their estimate:
///
/// * `free(now) = capacity − total − overrun`, and
/// * `free(t) = capacity − total + Σ_{key ≤ t} units` for `t > now`
///
/// — an overrunning job is planned to end "any moment", i.e. at
/// `now + 1`. That is the timeline `CapacityProfile::from_sorted_running`
/// builds from end estimates clamped to `now + 1`, without ever being
/// built: keys live in bounded chunks with a sum each, so a start, a
/// completion and a prune touch one chunk, and a prefix-sum search walks
/// the chunk sums and then one chunk — O(chunks + keys per chunk) instead
/// of shifting a breakpoint per running job.
#[derive(Debug, Clone)]
pub struct ReleaseLedger {
    capacity: u64,
    /// Σ units over all keys.
    total: u64,
    /// Units held by jobs whose end estimate is at or before `now`.
    overrun: u64,
    /// The instant last pruned to; every key is strictly later.
    now: Timestamp,
    /// Non-empty chunks, ascending in time.
    chunks: Vec<Chunk>,
}

impl ReleaseLedger {
    /// An idle machine of `capacity` units.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            total: 0,
            overrun: 0,
            now: Timestamp::MIN,
            chunks: Vec::new(),
        }
    }

    /// Units free at the instant last pruned to.
    #[must_use]
    pub fn free_now(&self) -> u64 {
        self.capacity - self.total - self.overrun
    }

    /// Number of distinct end estimates held (for tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.keys.len()).sum()
    }

    /// True when no running job has a future end estimate.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Index of the chunk `end` belongs to: the last one starting at or
    /// before it (the first when `end` precedes every key).
    fn chunk_of(&self, end: Timestamp) -> usize {
        self.chunks
            .partition_point(|c| c.first <= end)
            .saturating_sub(1)
    }

    /// A job holding `procs` units starts, planned to end at `end`.
    pub fn add(&mut self, end: Timestamp, procs: u64) {
        debug_assert!(procs <= self.free_now(), "starting a job that does not fit");
        if end <= self.now {
            // Already past its estimate: it holds its units as an
            // overrunning job from the outset.
            self.overrun += procs;
            return;
        }
        self.total += procs;
        if self.chunks.is_empty() {
            self.chunks.push(Chunk {
                first: end,
                sum: procs,
                keys: VecDeque::from([(end, procs)]),
            });
            return;
        }
        let at = self.chunk_of(end);
        let chunk = &mut self.chunks[at];
        chunk.sum += procs;
        match chunk.keys.binary_search_by_key(&end, |&(t, _)| t) {
            Ok(i) => chunk.keys[i].1 += procs,
            Err(i) => {
                chunk.keys.insert(i, (end, procs));
                if i == 0 {
                    chunk.first = end;
                }
            }
        }
        if chunk.keys.len() >= 2 * CHUNK_KEYS {
            let keys = chunk.keys.split_off(CHUNK_KEYS);
            let sum = keys.iter().map(|&(_, p)| p).sum();
            chunk.sum -= sum;
            let first = keys[0].0;
            self.chunks.insert(at + 1, Chunk { first, sum, keys });
        }
    }

    /// The job that [`Self::add`]ed `procs` units at `end` completes. A
    /// job whose estimate the ledger was pruned past gives its units back
    /// out of the overrun, with no search; one completing before its
    /// estimate is searched for among the keys.
    ///
    /// # Panics
    /// Panics if the ledger holds no such units.
    pub fn remove(&mut self, end: Timestamp, procs: u64) {
        const NOT_HELD: &str = "finishing a job that is not running";
        if end <= self.now {
            self.overrun = self.overrun.checked_sub(procs).expect(NOT_HELD);
            return;
        }
        let at = self.chunk_of(end);
        let chunk = self.chunks.get_mut(at).expect(NOT_HELD);
        let i = chunk
            .keys
            .binary_search_by_key(&end, |&(t, _)| t)
            .expect(NOT_HELD);
        chunk.keys[i].1 = chunk.keys[i].1.checked_sub(procs).expect(NOT_HELD);
        chunk.sum -= procs;
        self.total -= procs;
        if chunk.keys[i].1 == 0 {
            chunk.keys.remove(i);
            match chunk.keys.front() {
                Some(&(t, _)) => chunk.first = t,
                None => {
                    self.chunks.remove(at);
                }
            }
        }
    }

    /// Moves the ledger's instant forward to `now`: jobs whose estimate
    /// the clock has reached leave the keys and count as overrunning
    /// until they complete. A `now` at or before the current instant is a
    /// no-op.
    pub fn prune_to(&mut self, now: Timestamp) {
        if now <= self.now {
            return;
        }
        self.now = now;
        if self.chunks.first().is_none_or(|c| c.first > now) {
            return;
        }
        let whole = self
            .chunks
            .iter()
            .take_while(|c| c.keys[c.keys.len() - 1].0 <= now)
            .count();
        let mut passed: u64 = self.chunks.drain(..whole).map(|c| c.sum).sum();
        // The chunk the clock stops in: its keys up to `now` pop off the
        // front, and the first one after `now` heads it.
        if let Some(chunk) = self.chunks.first_mut() {
            while let Some(&(t, p)) = chunk.keys.front() {
                if t > now {
                    chunk.first = t;
                    break;
                }
                chunk.keys.pop_front();
                chunk.sum -= p;
                passed += p;
            }
        }
        self.total -= passed;
        self.overrun += passed;
    }

    /// Earliest time from which `need` units are free and stay free, and
    /// the units free at that time — the EASY shadow query, answered on
    /// the ledger's own instant.
    ///
    /// # Panics
    /// Panics if `need` exceeds the capacity.
    #[must_use]
    pub fn earliest(&self, need: u64) -> (Timestamp, u64) {
        if self.free_now() >= need {
            return (self.now, self.free_now());
        }
        let mut free = self.capacity - self.total;
        if free >= need {
            // The overrunning jobs' units alone cover it; a key at that
            // very instant releases there too.
            let soon = self.now + 1;
            return match self.chunks.first().map(|c| c.keys[0]) {
                Some((t, p)) if t == soon => (soon, free + p),
                _ => (soon, free),
            };
        }
        for chunk in &self.chunks {
            if free + chunk.sum < need {
                free += chunk.sum;
                continue;
            }
            for &(t, p) in &chunk.keys {
                free += p;
                if free >= need {
                    return (t, free);
                }
            }
        }
        panic!("{need} units never fit a machine of {}", self.capacity);
    }

    /// Units held by jobs running past their end estimate, as of the last
    /// [`Self::prune_to`].
    pub(crate) fn overrun(&self) -> u64 {
        self.overrun
    }

    /// Overwrites `profile` with the free-capacity timeline from the
    /// ledger's instant on — `(now, free_now)`, `(now + 1, …)` where the
    /// overrunning jobs hand back, then one breakpoint per key — point for
    /// point what `CapacityProfile::from_sorted_running` builds from the
    /// running set with end estimates clamped to `now + 1`. A profile that
    /// stands on its own, so that reservations carved into it outlive the
    /// ledger's next change: what conservative backfilling keeps between
    /// passes. One span per ledger chunk, written from its keys with a
    /// running sum: O(keys), into the allocations `profile` already holds.
    pub fn copy_to(&self, profile: &mut CapacityProfile) {
        profile.recycle(..);
        let CapacityProfile { spans, pool } = profile;
        let mut head = pool.pop().unwrap_or_default();
        head.push((self.now, self.free_now()));
        let mut free = self.capacity - self.total;
        let soon = self.now + 1;
        // A key at `now + 1` is the overrun step already.
        if self.overrun > 0 && self.chunks.first().is_none_or(|c| c.first != soon) {
            head.push((soon, free));
        }
        spans.push(Span::new(head, 0));
        for chunk in &self.chunks {
            let mut points = pool.pop().unwrap_or_default();
            points.extend(chunk.keys.iter().map(|&(t, p)| {
                free += p;
                (t, free)
            }));
            // Every key hands units back, so the values only rise.
            spans.push(Span {
                first: points[0].0,
                sub: 0,
                min: points[0].1,
                max: free,
                points,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Timeline;
    use proptest::prelude::*;

    #[test]
    fn from_running_accumulates_releases() {
        // Capacity 100; two running jobs: 60 units until t=50, 30 until t=80.
        let p = CapacityProfile::from_running(0, 100, &[(50, 60), (80, 30)]);
        assert_eq!(p.free_at(0), 10);
        assert_eq!(p.free_at(49), 10);
        assert_eq!(p.free_at(50), 70);
        assert_eq!(p.free_at(80), 100);
        assert_eq!(p.free_at(1_000), 100);
    }

    #[test]
    fn reserve_carves_an_interval() {
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(10, 20, 40);
        assert_eq!(p.free_at(9), 100);
        assert_eq!(p.free_at(10), 60);
        assert_eq!(p.free_at(19), 60);
        assert_eq!(p.free_at(20), 100);
    }

    #[test]
    fn fits_checks_whole_interval() {
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(10, 20, 80);
        assert!(p.fits(0, 10, 100));
        assert!(!p.fits(5, 15, 50));
        assert!(p.fits(5, 15, 20));
        assert!(p.fits(20, 100, 100));
    }

    #[test]
    fn earliest_fit_scans_breakpoints() {
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(0, 50, 90); // only 10 free until t=50
        assert_eq!(p.earliest_fit(0, 10, 100), Some(0));
        assert_eq!(p.earliest_fit(0, 20, 100), Some(50));
        // 30-second job of 20 units starting at 25 would overlap the busy
        // region, so it must wait for t=50.
        assert_eq!(p.earliest_fit(25, 20, 30), Some(50));
        assert_eq!(p.earliest_fit(0, 1_000, 10), None);
    }

    #[test]
    fn earliest_forever_is_the_shadow_time() {
        let p = Timeline::from_running(0, 100, &[(50, 60), (80, 30)]);
        assert_eq!(p.earliest_forever(0, 10), Some(0));
        assert_eq!(p.earliest_forever(0, 70), Some(50));
        assert_eq!(p.earliest_forever(0, 100), Some(80));
        assert_eq!(p.earliest_forever(0, 101), None);
        // `after` clamps forward.
        assert_eq!(p.earliest_forever(60, 70), Some(60));
    }

    #[test]
    fn reserve_before_first_point_extends_backwards() {
        let mut p = CapacityProfile::new(100, 10);
        p.reserve(50, 70, 4);
        assert_eq!(p.points(), &[(50, 6), (70, 10), (100, 10)]);
        assert_eq!(p.free_at(0), 6, "clamped to the new first segment");
        let mut flat = Timeline {
            points: vec![(100, 10)],
        };
        flat.reserve(50, 70, 4);
        assert_eq!(p.points(), flat.points);
    }

    #[test]
    fn zero_length_reservation_is_a_noop() {
        let mut p = CapacityProfile::new(0, 10);
        p.reserve(5, 5, 10);
        assert_eq!(p.free_at(5), 10);
    }

    #[test]
    fn reserve_coalesces_boundary_steps() {
        // Two adjacent reservations of the same size merge into one step.
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(10, 20, 40);
        p.reserve(20, 30, 40);
        assert_eq!(p.points(), &[(0, 100), (10, 60), (30, 100)]);
        assert!(!p.is_empty());
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn earliest_fit_sweep_matches_candidate_scan() {
        let mut s = Lockstep::of_points(vec![(0, 100)]);
        s.reserve(0, 50, 90);
        s.reserve(60, 70, 95);
        s.reserve(100, 130, 50);
        for after in [0, 25, 50, 55, 65, 99, 200] {
            for procs in [1u64, 10, 20, 60, 100, 101] {
                for dur in [0i64, 1, 10, 30, 100] {
                    s.earliest_fit(after, procs, dur);
                }
            }
        }
    }

    #[test]
    fn earliest_forever_binary_search_on_monotone_profile() {
        let p = Timeline::from_running(0, 100, &[(50, 60), (30, 10)]);
        assert_eq!(p.earliest_forever(0, 30), Some(0));
        assert_eq!(p.earliest_forever(0, 31), Some(30));
        assert_eq!(p.earliest_forever(0, 41), Some(50));
        assert_eq!(p.earliest_forever(0, 100), Some(50));
        assert_eq!(p.earliest_forever(0, 101), None);
    }

    // ---- chunked profile vs the reference timeline ----------------------

    /// One timeline held two ways — the reference model's flat list and
    /// the chunked profile — driven in lockstep: every answer must agree,
    /// and after every reservation so must the breakpoint lists.
    struct Lockstep {
        flat: Timeline,
        owned: CapacityProfile,
    }

    impl Lockstep {
        /// Exactly these breakpoints; spans of 64 in index order.
        fn of_points(points: Vec<Point>) -> Self {
            let owned = CapacityProfile::from_points(&points);
            let s = Self {
                flat: Timeline { points },
                owned,
            };
            s.assert_same_points();
            s
        }

        /// The timeline of `running` on `capacity` units at `now`: the
        /// oracle built from the running jobs, the chunked profile by the
        /// copy of their ledger a kept plan is rebuilt from.
        fn over(capacity: u64, now: Timestamp, running: &[Point]) -> Self {
            let ledger = ledger_of(capacity, now, running);
            let flat = Timeline::from_running(now, capacity, running);
            // Over what another copy left behind: a span, and the lists of
            // two forgotten ones in the pool.
            let mut owned = CapacityProfile::from_points(&stairs_with_a_drop(192, -1, 0));
            owned.forget_before(1_280);
            assert_eq!((owned.spans.len(), owned.pool.len()), (1, 2));
            ledger.copy_to(&mut owned);
            assert_spans_are_sound(&owned);
            let s = Self { flat, owned };
            s.assert_same_points();
            s
        }

        fn assert_same_points(&self) {
            assert_eq!(self.owned.points(), self.flat.points);
            assert_eq!(self.owned.len(), self.flat.points.len());
        }

        /// How many breakpoints each span holds.
        fn span_lens(&self) -> Vec<usize> {
            self.owned.spans.iter().map(|sp| sp.points.len()).collect()
        }

        fn earliest_fit(&self, after: Timestamp, procs: u64, duration: i64) -> Option<Timestamp> {
            let expect = self.flat.earliest_fit(after, procs, duration);
            assert_eq!(
                self.owned.earliest_fit(after, procs, duration),
                expect,
                "earliest_fit({after}, {procs}, {duration})"
            );
            expect
        }

        fn fits(&self, from: Timestamp, to: Timestamp, procs: u64) -> bool {
            let expect = self.flat.fits(from, to, procs);
            assert_eq!(self.owned.fits(from, to, procs), expect);
            expect
        }

        fn free_at(&self, t: Timestamp) -> u64 {
            let expect = self.flat.free_at(t);
            assert_eq!(self.owned.free_at(t), expect, "free_at({t})");
            expect
        }

        fn reserve(&mut self, from: Timestamp, to: Timestamp, procs: u64) {
            assert!(self.fits(from, to, procs));
            self.flat.reserve(from, to, procs);
            self.owned.reserve(from, to, procs);
            self.assert_same_points();
            assert_spans_are_sound(&self.owned);
        }
    }

    /// What every routine relies on: spans in time order, none empty, each
    /// headed by its first instant and measured exactly, split before 128.
    fn assert_spans_are_sound(profile: &CapacityProfile) {
        for span in &profile.spans {
            let points = &span.points;
            assert!(!points.is_empty() && points.len() < 2 * CHUNK_KEYS);
            assert_eq!(span.first, points[0].0);
            assert_eq!((span.min, span.max), measure(points));
        }
        assert!(profile.spans.windows(2).all(|w| w[0].first < w[1].first));
    }

    /// A ledger of `capacity` units at `now` after the given starts.
    fn ledger_of(capacity: u64, now: Timestamp, running: &[Point]) -> ReleaseLedger {
        let mut ledger = ReleaseLedger::new(capacity);
        for &(end, procs) in running {
            ledger.add(end, procs);
        }
        ledger.prune_to(now);
        ledger
    }

    /// 200 jobs of one unit ending every ten seconds from t=10: on a
    /// 300-unit machine at t=0 ledger chunks start at keys 10, 650 and
    /// 1290, so a copy is `[(0, 100)]` and three spans of 64, 64 and 72,
    /// free rising 101‥164, 165‥228, 229‥300.
    fn stairs() -> Vec<Point> {
        (1..=200).map(|k| (k * 10, 1)).collect()
    }
    #[test]
    fn an_edge_on_a_spans_first_instant_shifts_the_span_whole() {
        let mut s = Lockstep::over(300, 0, &stairs());
        assert_eq!(s.span_lens(), [1, 64, 64, 72]);
        // Both edges on first instants: the span between shifts as one,
        // its stored values as they were.
        s.reserve(650, 1_290, 150);
        assert_eq!(s.span_lens(), [1, 64, 64, 72]);
        let subs: Vec<_> = s.owned.spans.iter().map(|sp| sp.sub).collect();
        assert_eq!(subs, [0, 0, 150, 0]);
        assert_eq!(s.owned.spans[2].points[0], (650, 165));
        assert_eq!(s.free_at(650), 15);
        assert_eq!(s.free_at(1_289), 78);
        assert_eq!(s.free_at(1_290), 229);
        // From a first instant to the middle of the next span: the first
        // shifts, the second is rewritten up to the edge, the third stays.
        s.reserve(10, 700, 10);
        let subs: Vec<_> = s.owned.spans.iter().map(|sp| sp.sub).collect();
        assert_eq!(subs, [0, 10, 150, 0]);
        assert_eq!(s.owned.spans[2].points[0], (650, 155));
        assert_eq!(s.owned.spans[2].points[4..6], [(690, 159), (700, 170)]);
        assert_eq!(s.owned.spans[3].points[0], (1_290, 229));
        assert_eq!(s.free_at(690), 9);
        assert_eq!(s.free_at(700), 20);
    }

    #[test]
    fn earliest_fit_starts_inside_a_copied_span() {
        let s = Lockstep::over(300, 0, &stairs());
        // 200 units are free from the key at t=1000 (100 + 100 keys).
        for after in [655, 660, 999, 1_000, 1_001, 1_285, 1_290, 5_000] {
            for procs in [1, 165, 166, 200, 228, 229, 300] {
                for duration in [1, 5, 10, 640, 10_000] {
                    s.earliest_fit(after, procs, duration);
                }
            }
        }
        assert_eq!(s.earliest_fit(655, 200, 50), Some(1_000));
        assert_eq!(s.earliest_fit(1_001, 200, 50), Some(1_001));
        assert_eq!(
            s.earliest_fit(655, 165, 50),
            Some(655),
            "in force since 650"
        );
        assert_eq!(s.earliest_fit(655, 166, 50), Some(660));
        assert_eq!(s.earliest_fit(655, 301, 1), None);
        assert_eq!(s.span_lens(), [1, 64, 64, 72], "a query starts mid-span");
        assert_eq!(s.free_at(655), 165);
        assert!(s.fits(655, 700, 165));
        assert!(!s.fits(640, 700, 165));
    }

    #[test]
    fn an_edge_insert_splits_a_full_span() {
        // 127 keys in one ledger chunk, one span in the copy: the 128th
        // breakpoint splits it 64/64.
        let running: Vec<Point> = (1..=127).map(|k| (k * 10, 1)).collect();
        let ledger = ledger_of(200, 0, &running);
        assert_eq!(ledger.chunks.len(), 1);
        for (from, to) in [
            (905, 2_000), // `from` inserted past the split point
            (105, 2_000), // `from` inserted before it
            (900, 1_005), // `from` a key past the split point, `to` splits
            (100, 1_005), // `from` a key before it, `to` splits
            (900, 1_000), // both keys: nothing to split
        ] {
            let mut s = Lockstep::over(200, 0, &running);
            assert_eq!(s.span_lens(), [1, 127]);
            s.reserve(from, to, 73);
            let lens = s.span_lens();
            let is_key = |t: Timestamp| t % 10 == 0 && t <= 1_270;
            let inserted = usize::from(!is_key(from)) + usize::from(!is_key(to));
            assert_eq!(lens.iter().sum::<usize>(), 1 + 127 + inserted);
            if to != 1_000 {
                assert_eq!(lens[..2], [1, 64], "split at {from}..{to}: {lens:?}");
            }
            s.earliest_fit(0, 100, 1_000);
            s.reserve(0, 3_000, 1);
        }
    }

    /// Free capacity rising by one per breakpoint every ten seconds from
    /// `(0, 10)`, except that breakpoint `drop_at` falls back to `low`.
    fn stairs_with_a_drop(len: i64, drop_at: i64, low: u64) -> Vec<Point> {
        (0..len)
            .map(|i| (i * 10, if i == drop_at { low } else { 10 + i as u64 }))
            .collect()
    }

    #[test]
    fn coalescing_at_its_only_breakpoint_removes_the_span() {
        // Spans of 64 and 1: the lone breakpoint (640, 60) follows (630, 73).
        let mut s = Lockstep::of_points(stairs_with_a_drop(65, 64, 60));
        assert_eq!(s.owned.spans.len(), 2);
        s.reserve(630, 640, 13);
        assert_eq!(s.owned.spans.len(), 1);
        assert_eq!(s.owned.len(), 64);
        assert_eq!(s.free_at(640), 60);
        assert_eq!(s.earliest_fit(0, 61, 10), Some(510));
    }

    #[test]
    fn coalescing_compares_free_units_across_spans_that_differ_in_sub() {
        // Three spans of 64 rising 10‥201. Covering the middle one whole
        // leaves it 5 units pending that its neighbours do not have.
        let mut s = Lockstep::of_points(stairs_with_a_drop(192, -1, 0));
        s.reserve(640, 1_280, 5);
        let subs: Vec<_> = s.owned.spans.iter().map(|sp| sp.sub).collect();
        assert_eq!(subs, [0, 5, 0]);
        // (630, 73) and (640, 74 − 5): four units off the first make the
        // second redundant though the stored values read 69 and 74.
        s.reserve(630, 640, 4);
        assert_eq!(s.owned.spans[1].first, 650);
        assert_eq!(s.owned.len(), 191);
        // And at the far boundary, (1270, 137 − 5) against (1280, 138):
        // lowering the third span's first breakpoint to 132 removes it.
        s.reserve(1_280, 1_290, 6);
        assert_eq!(s.owned.spans[2].first, 1_290);
        assert_eq!(s.owned.len(), 190);
    }

    #[test]
    fn a_run_long_enough_exactly_at_the_next_spans_first_instant() {
        // Span 0 (t < 640) has 10‥73 free, span 1 drops to 5 at t=640 and
        // climbs again from 75.
        let s = Lockstep::of_points(stairs_with_a_drop(128, 64, 5));
        // Whole-span step: every segment of span 0 from t=0 carries 10.
        assert_eq!(s.earliest_fit(0, 10, 640), Some(0), "ends on the instant");
        assert_eq!(s.earliest_fit(0, 10, 641), Some(650), "one second short");
        assert_eq!(s.earliest_fit(5, 10, 635), Some(5));
        assert_eq!(s.earliest_fit(5, 10, 636), Some(650));
        // Walked span: the run opens at (300, 40) inside span 0.
        assert_eq!(s.earliest_fit(0, 40, 340), Some(300));
        assert_eq!(s.earliest_fit(0, 40, 341), Some(650));
        // A run carried across a whole span and ended in the next.
        let s = Lockstep::of_points(stairs_with_a_drop(192, 150, 5));
        assert_eq!(s.earliest_fit(0, 70, 900), Some(600));
        assert_eq!(s.earliest_fit(0, 70, 901), Some(1_510));
    }

    #[test]
    fn fits_steps_over_spans_and_walks_only_where_one_dips() {
        // Four spans of 64 from t=0, 640, 1280 and 1920, free rising
        // 10‥265 — but the breakpoint at t=2000, in the fourth, drops to 5.
        let s = Lockstep::of_points(stairs_with_a_drop(256, 200, 5));
        assert_eq!(s.owned.spans.len(), 4);
        // Across all four, the last breakpoint reached deciding.
        assert!(s.fits(5, 2_000, 10), "ends on the drop");
        assert!(!s.fits(5, 2_001, 10), "fails on the drop");
        assert!(s.fits(5, 2_001, 5), "fits exactly on the drop");
        assert!(!s.fits(635, 2_010, 6));
        // From inside the first span: the walk starts at the breakpoint in
        // force, (630, 73), and the two spans after it carry the run whole.
        assert!(s.fits(635, 1_995, 73));
        assert!(!s.fits(635, 1_995, 74));
        assert!(s.fits(640, 1_995, 74));
        // A span every value of which breaks the request fails at once.
        assert!(!s.fits(645, 1_500, 140));
        assert!(s.fits(2_010, 9_999, 211), "on into the last segment");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Hundreds of running jobs, hundreds of reservations each placed
        /// where `earliest_fit` says, queries in between: the ledger's
        /// copy answers as the flat list does and holds the same
        /// breakpoints after every operation.
        #[test]
        fn chunked_ledger_copy_matches_the_flat_oracle(
            running in prop::collection::vec((1i64..20_000, 1u64..8), 900..1_000),
            spare in 8u64..200,
            ops in prop::collection::vec(
                (0i64..3, 0i64..25_000, 1u64..200, 1i64..4_000),
                400..450,
            ),
        ) {
            // Jobs whose estimate lies before `now` overrun it.
            let now = 40;
            let capacity = running.iter().map(|&(_, p)| p).sum::<u64>() + spare;
            let ledger = ledger_of(capacity, now, &running);
            prop_assert!(ledger.chunks.len() >= 8);
            let mut s = Lockstep::over(capacity, now, &running);
            for (kind, offset, procs, duration) in ops {
                // Two in three as the scheduler asks: from `now`.
                let after = if kind == 0 { now + offset } else { now };
                let procs = procs.min(capacity);
                let start = s.earliest_fit(after, procs, duration).expect("within capacity");
                s.reserve(start, start + duration, procs);
                s.free_at(now + offset);
                s.fits(now + offset, now + offset + duration, procs);
                s.earliest_fit(now + offset, capacity, duration);
            }
            prop_assert!(s.owned.spans.len() >= 12, "{}", s.owned.spans.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bound a conservative pass puts on a fit: once job A is
        /// fitted at `s_A` and more reservations are carved in, a job B
        /// asking for at least A's units for at least A's walltime fits
        /// from `s_A` exactly where it fits from `now`.
        #[test]
        fn a_fit_from_the_slot_of_a_job_it_dominates_is_the_fit_from_now(
            running in prop::collection::vec((1i64..20_000, 1u64..8), 300..400),
            spare in 8u64..200,
            earlier in prop::collection::vec((0i64..25_000, 1u64..200, 1i64..4_000), 0..60),
            a in (1u64..200, prop_oneof![Just(0i64), 1i64..4_000]),
            later in prop::collection::vec((1u64..200, 1i64..4_000), 0..60),
            more in (0u64..100, prop_oneof![Just(0i64), 1i64..2_000]),
        ) {
            let now = 40;
            let capacity = running.iter().map(|&(_, p)| p).sum::<u64>() + spare;
            let mut s = Lockstep::over(capacity, now, &running);
            let carve = |s: &mut Lockstep, after: Timestamp, procs: u64, wall: i64| {
                let procs = procs.min(capacity);
                let start = s.earliest_fit(after, procs, wall).expect("within capacity");
                s.reserve(start, start + wall, procs);
                start
            };
            for (offset, procs, wall) in earlier {
                carve(&mut s, now + offset, procs, wall);
            }
            let (procs_a, wall_a) = (a.0.min(capacity), a.1);
            let slot_a = carve(&mut s, now, procs_a, wall_a);
            for (procs, wall) in later {
                carve(&mut s, now, procs, wall);
            }
            let (procs_b, wall_b) = ((procs_a + more.0).min(capacity), wall_a + more.1);
            prop_assert_eq!(
                s.earliest_fit(slot_a, procs_b, wall_b),
                s.earliest_fit(now, procs_b, wall_b)
            );
        }
    }

    // ---- release ledger -------------------------------------------------

    /// The ledger's timeline as a pass rebuilds its plan from it.
    fn view(ledger: &ReleaseLedger) -> Vec<Point> {
        let mut copy = CapacityProfile::new(0, 0);
        ledger.copy_to(&mut copy);
        copy.points()
    }

    /// What every ledger routine relies on: chunks in time order, none
    /// empty, each headed by its first key, summed exactly and split
    /// before 128; every key later than the instant last pruned to.
    fn assert_ledger_is_sound(ledger: &ReleaseLedger) {
        for chunk in &ledger.chunks {
            let keys = &chunk.keys;
            assert!(!keys.is_empty() && keys.len() < 2 * CHUNK_KEYS);
            assert_eq!(chunk.first, keys[0].0, "a chunk is headed by its first key");
            assert_eq!(chunk.sum, keys.iter().map(|k| k.1).sum::<u64>());
            assert!(keys.iter().zip(keys.iter().skip(1)).all(|(a, b)| a.0 < b.0));
        }
        let last = |c: &Chunk| c.keys[c.keys.len() - 1].0;
        assert!(ledger.chunks.windows(2).all(|w| last(&w[0]) < w[1].first));
        assert!(ledger.chunks.first().is_none_or(|c| c.first > ledger.now));
        let total: u64 = ledger.chunks.iter().map(|c| c.sum).sum();
        assert_eq!(ledger.total, total);
    }

    /// Every query the scheduler makes, against the from-scratch profile
    /// of `running` (`(end_estimate, procs)`) at `now`.
    fn assert_ledger_matches(ledger: &ReleaseLedger, now: Timestamp, running: &[(Timestamp, u64)]) {
        assert_ledger_is_sound(ledger);
        let rebuilt = Timeline::from_running(now, ledger.capacity, running);
        assert_eq!(view(ledger), rebuilt.points, "at t={now}");
        let clamped: Vec<_> = running.iter().map(|&(e, p)| (e.max(now + 1), p)).collect();
        let chunked = CapacityProfile::from_running(now, ledger.capacity, &clamped);
        assert_eq!(chunked.points(), rebuilt.points, "at t={now}");
        assert_eq!(ledger.free_now(), rebuilt.free_at(now));
        for need in 1..=ledger.capacity {
            let shadow = rebuilt.earliest_forever(now, need).unwrap();
            assert_eq!(
                ledger.earliest(need),
                (shadow, rebuilt.free_at(shadow)),
                "need={need} at t={now}"
            );
        }
    }

    #[test]
    fn ledger_answers_at_now_next_second_and_on_a_key() {
        // 100 units at t=10: 30 held by a job past its estimate, 20 until
        // t=11, 40 until t=60; 10 free.
        let mut l = ReleaseLedger::new(100);
        l.add(5, 30);
        l.add(11, 20);
        l.add(60, 40);
        l.prune_to(10);
        assert_eq!(l.free_now(), 10);
        assert_eq!(l.earliest(10), (10, 10), "fits now");
        // The overrunning job's units count from now + 1, where the key
        // at that very instant releases too.
        assert_eq!(l.earliest(11), (11, 60));
        assert_eq!(l.earliest(60), (11, 60));
        assert_eq!(l.earliest(61), (60, 100), "exactly on a key");
        assert_eq!(view(&l), &[(10, 10), (11, 60), (60, 100)]);
        // Without a key at now + 1 the overrun step stands alone.
        l.remove(11, 20);
        assert_eq!(l.earliest(31), (11, 60));
        assert_eq!(view(&l), &[(10, 30), (11, 60), (60, 100)]);
        // No overrun, no step.
        l.remove(5, 30);
        assert_eq!(l.earliest(61), (60, 100));
        assert_eq!(view(&l), &[(10, 60), (60, 100)]);
    }

    #[test]
    fn a_first_key_at_the_next_second_is_the_overrun_step() {
        // 100 units at t=10; 20 until t=11 and 40 until t=60.
        let calm = [(11, 20), (60, 40)];
        // The same with 30 more held by a job that should have ended at 5.
        let overrun = [(5, 30), (11, 20), (60, 40)];
        for (running, free_now) in [(&calm[..], 40), (&overrun[..], 10)] {
            let mut s = Lockstep::over(100, 10, running);
            assert_eq!(s.flat.points, &[(10, free_now), (11, 60), (60, 100)]);
            // Either way the head span holds `now` alone.
            assert_eq!(s.owned.spans[0].points, &[(10, free_now)]);
            assert_eq!(s.earliest_fit(10, 50, 20), Some(11));
            s.reserve(11, 31, 50);
            assert_eq!(s.earliest_fit(10, 11, 5), Some(31));
        }
        // Without the key the step is the head span's to hold.
        let later = [(5, 30), (60, 40)];
        let s = Lockstep::over(100, 10, &later);
        assert_eq!(s.owned.spans[0].points, &[(10, 30), (11, 60)]);
    }

    #[test]
    fn a_copy_of_the_ledger_outlives_its_changes_and_forgets_the_past() {
        let mut ledger = ledger_of(300, 0, &stairs());
        let mut kept = CapacityProfile::new(0, 0);
        ledger.copy_to(&mut kept);
        assert_eq!(kept.points(), view(&ledger));
        assert_eq!(kept.spans.len(), 4, "a span per ledger chunk");
        kept.reserve(15, 1_500, 100);
        let carved = kept.points();
        // The ledger moves on; the copy does not read it.
        ledger.remove(10, 1);
        ledger.prune_to(700);
        ledger.add(705, 3);
        assert_eq!(kept.points(), carved);
        assert_spans_are_sound(&kept);
        // Spans that end before t=700 go; every answer from there on stays.
        let answers = |p: &CapacityProfile| {
            let fits = [1, 30, 66, 100, 229].map(|procs| p.earliest_fit(700, procs, 400));
            (p.free_at(700), p.fits(700, 1_400, 60), fits)
        };
        let before = answers(&kept);
        kept.forget_before(700);
        assert_eq!(kept.spans.len(), 2);
        assert_eq!(kept.spans[0].first, 650);
        assert_eq!(answers(&kept), before);
        assert_eq!(kept.points(), carved[carved.len() - kept.len()..]);
        kept.forget_before(600); // nothing ends before the first span
        assert_eq!(kept.spans.len(), 2);
        assert_spans_are_sound(&kept);
        // And the next copy starts from the ledger again, over the pool.
        ledger.copy_to(&mut kept);
        assert_eq!(kept.points(), view(&ledger));
    }

    #[test]
    fn equal_end_estimates_share_a_key() {
        let mut l = ReleaseLedger::new(10);
        l.prune_to(0);
        l.add(50, 3);
        l.add(50, 4);
        assert_eq!(l.len(), 1);
        assert_eq!(l.earliest(8), (50, 10));
        l.remove(50, 3);
        assert_eq!(l.len(), 1, "the other job still holds the key");
        assert_eq!(l.free_now(), 6);
        l.remove(50, 4);
        assert!(l.is_empty());
    }

    #[test]
    fn prune_drops_history_and_reanchors() {
        // 100 units: 40 held until t=20, 30 until t=60.
        let mut l = ReleaseLedger::new(100);
        l.prune_to(0);
        l.add(20, 40);
        l.add(60, 30);
        l.prune_to(35);
        // The key the clock passed is gone; its job counts as overrunning.
        assert_eq!(l.len(), 1);
        assert_eq!(view(&l), &[(35, 30), (36, 70), (60, 100)]);
        // Pruning onto a key drops it too: nothing is planned to end "now".
        l.prune_to(60);
        assert!(l.is_empty());
        assert_eq!(view(&l), &[(60, 30), (61, 100)]);
        // Pruning backwards is a no-op.
        l.prune_to(40);
        assert_eq!(view(&l), &[(60, 30), (61, 100)]);
    }

    #[test]
    fn chunks_split_empty_and_prune_across_boundaries() {
        let keys = 5 * CHUNK_KEYS as i64;
        let mut l = ReleaseLedger::new(10_000);
        l.prune_to(0);
        // Descending inserts land at the front of the first chunk every
        // time: the worst case for splitting.
        let mut running: Vec<(Timestamp, u64)> = Vec::new();
        for k in (1..=keys).rev() {
            l.add(k * 10, 2);
            running.push((k * 10, 2));
        }
        assert!(l.chunks.len() >= 3, "{} chunks", l.chunks.len());
        assert_ledger_matches(&l, 0, &running);

        // Empty the second chunk key by key; it must disappear.
        let before = l.chunks.len();
        let second = l.chunks[1].keys.clone();
        for &(t, p) in &second {
            l.remove(t, p);
            running.retain(|&r| r != (t, p));
        }
        assert_eq!(l.chunks.len(), before - 1);
        assert_ledger_matches(&l, 0, &running);

        // Prune to the middle of what is now the second chunk: the whole
        // first chunk and a prefix of the second pass into overrun.
        let mid = l.chunks[1].keys[CHUNK_KEYS / 2].0;
        l.prune_to(mid);
        assert_eq!(l.chunks[0].keys[0].0, mid + 10);
        assert_ledger_matches(&l, mid, &running);

        // Completions at and after the estimate come out of the overrun.
        for &(t, p) in running.iter().filter(|r| r.0 <= mid) {
            l.remove(t, p);
        }
        running.retain(|r| r.0 > mid);
        assert_ledger_matches(&l, mid, &running);
    }

    /// Everything a ledger holds, chunk by chunk.
    type LedgerState = (Timestamp, u64, u64, Vec<(Timestamp, u64, Vec<Point>)>);

    fn state(ledger: &ReleaseLedger) -> LedgerState {
        let chunks = ledger.chunks.iter();
        let chunks = chunks.map(|c| (c.first, c.sum, c.keys.iter().copied().collect()));
        (ledger.now, ledger.total, ledger.overrun, chunks.collect())
    }

    #[test]
    fn pruning_before_a_completion_leaves_what_removing_first_leaves() {
        // Keys every ten seconds from 10 to 2000 in chunks headed by 10,
        // 650 and 1290, and two more units on the key at 650.
        let mut running = stairs();
        running.push((650, 2));
        // (end estimate, units, completed at): on the estimate with the
        // clock emptying the first chunk whole, and with it popping the
        // second's head too; on a shared key; early, from the chunk the
        // clock stops in and from a later one; late, out of the overrun.
        let cases = [
            (640, 1, 640),
            (650, 1, 650),
            (650, 2, 650),
            (660, 1, 655),
            (1_500, 1, 655),
            (20, 1, 700),
            (1_300, 1, 1_300),
        ];
        for (end, procs, now) in cases {
            let removed_first = {
                let mut l = ledger_of(400, 0, &running);
                l.remove(end, procs);
                l.prune_to(now);
                l
            };
            let mut pruned_first = ledger_of(400, 0, &running);
            pruned_first.prune_to(now);
            pruned_first.remove(end, procs);
            assert_eq!(
                state(&pruned_first),
                state(&removed_first),
                "{end} at {now}"
            );
            let mut left = running.clone();
            let at = left.iter().position(|&r| r == (end, procs)).unwrap();
            left.remove(at);
            assert_ledger_matches(&pruned_first, now, &left);
        }
        // The clock stops inside the second chunk: its new head is the
        // first key after `now`.
        let mut l = ledger_of(400, 0, &running);
        l.prune_to(655);
        assert_eq!((l.chunks.len(), l.chunks[0].first), (2, 660));
        assert_eq!(l.overrun(), 65 + 2);
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn removing_units_the_ledger_does_not_hold_panics() {
        let mut l = ReleaseLedger::new(10);
        l.add(50, 3);
        l.remove(50, 4);
    }
}
