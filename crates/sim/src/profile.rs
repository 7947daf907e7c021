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
//! clock drops the keys it passes. The EASY shadow time is a prefix-sum
//! search over the keys ([`ReleaseLedger::earliest`]). Conservative
//! backfilling, which gives every waiting job a reservation, keeps a
//! [`CapacityProfile`] of its own per partition — the ledger's timeline
//! with the reservations carved in — for as long as the machine does what
//! that plan says, and rebuilds it from the ledger when it does not
//! ([`ReleaseLedger::copy_to`]: every breakpoint copied out, O(keys), once
//! per divergence). A reader that only needs the ledger's timeline for the
//! length of a borrow lays a scratch profile *over* the ledger instead
//! ([`ReleaseLedger::plan`]): one span header per ledger chunk, the keys
//! read where they are, and only the chunks a reservation's edge lands in
//! copied out. See `docs/PERFORMANCE.md` §4 and §14 for what each costs
//! and the differential tests pinning copy == plan == flat breakpoint
//! list == rebuilt-from-scratch.
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
//! // The ledger's timeline, laid over it for the length of a borrow.
//! let mut scratch = CapacityProfile::new(0, 0);
//! let mut plan = ledger.plan(&mut scratch);
//! assert_eq!(plan.points(), &[(0, 60), (50, 100)]);
//! assert_eq!(plan.earliest_fit(0, 70, 10), Some(50));
//! plan.reserve(50, 60, 70);
//! assert_eq!(plan.points(), &[(0, 60), (50, 30), (60, 100)]);
//! drop(plan); // the reservation dies with the borrow
//! // Conservative's plan: a copy that stands on its own.
//! let mut kept = CapacityProfile::new(0, 0);
//! ledger.copy_to(&mut kept);
//! kept.reserve(50, 60, 70);
//! // The job finishes early: its units come back at once — in the
//! // ledger; the copy is now a plan the machine has diverged from.
//! ledger.remove(50, 40);
//! assert_eq!(ledger.free_now(), 100);
//! assert_eq!(kept.points(), &[(0, 60), (50, 30), (60, 100)]);
//! ```

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

/// Where a span's breakpoints are stored.
#[derive(Debug, Clone)]
enum Points {
    /// In the span: `(instant, stored value)`, ascending, never empty.
    Owned(Vec<Point>),
    /// In chunk `chunk` of the ledger the profile is laid over, read in
    /// place: one breakpoint per key, its stored value `base` plus the
    /// units of the keys up to and including it (so values only rise).
    Ledger { chunk: usize, base: u64 },
}

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
    points: Points,
}

/// Smallest and largest value in `points`.
fn measure(points: &[Point]) -> (u64, u64) {
    points
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &(_, v)| (lo.min(v), hi.max(v)))
}

impl Span {
    /// A span owning `points` (not empty), `sub` units pending on each.
    fn owned(points: Vec<Point>, sub: u64) -> Self {
        let (min, max) = measure(&points);
        Self {
            first: points[0].0,
            sub,
            min,
            max,
            points: Points::Owned(points),
        }
    }

    /// The span's entries where they are stored: instants as they are,
    /// values as [`Span::walk_from`] reads them.
    fn raw<'a>(&'a self, ledger: &'a [Chunk]) -> &'a [Point] {
        match &self.points {
            Points::Owned(points) => points,
            Points::Ledger { chunk, .. } => &ledger[*chunk].keys,
        }
    }

    /// Index of the breakpoint in force at `t`: the last one at or before
    /// it (the first when `t` precedes the span).
    fn position(&self, ledger: &[Chunk], t: Timestamp) -> usize {
        self.raw(ledger)
            .partition_point(|&(ti, _)| ti <= t)
            .saturating_sub(1)
    }

    /// The breakpoints from index `at` on, as `(instant, units free)`.
    fn walk_from<'a>(&'a self, ledger: &'a [Chunk], at: usize) -> Walk<'a> {
        let raw = self.raw(ledger);
        let (acc, summing) = match self.points {
            Points::Owned(_) => (0, false),
            Points::Ledger { base, .. } => {
                (base + raw[..at].iter().map(|&(_, p)| p).sum::<u64>(), true)
            }
        };
        Walk {
            rest: raw[at..].iter(),
            acc,
            summing,
            sub: self.sub,
        }
    }

    /// Units free from breakpoint `at` on.
    fn free_from(&self, ledger: &[Chunk], at: usize) -> u64 {
        let (_, free) = self
            .walk_from(ledger, at)
            .next()
            .expect("index of a breakpoint");
        free
    }

    /// Units free from the span's last breakpoint on.
    fn last_free(&self) -> u64 {
        match &self.points {
            Points::Owned(points) => points[points.len() - 1].1 - self.sub,
            Points::Ledger { .. } => self.max - self.sub,
        }
    }

    /// The span's own breakpoint list, copied out of the ledger first if
    /// it was read in place until now.
    fn materialise(&mut self, ledger: &[Chunk], pool: &mut Vec<Vec<Point>>) -> &mut Vec<Point> {
        if let Points::Ledger { chunk, base } = self.points {
            let mut points = pool.pop().unwrap_or_default();
            let mut free = base;
            points.extend(ledger[chunk].keys.iter().map(|&(t, p)| {
                free += p;
                (t, free)
            }));
            self.points = Points::Owned(points);
        }
        self.own()
    }

    /// The breakpoint list of a span that owns one.
    fn own(&mut self) -> &mut Vec<Point> {
        match &mut self.points {
            Points::Owned(points) => points,
            Points::Ledger { .. } => unreachable!("an edge inside a span materialises it"),
        }
    }
}

/// Iterator over a span's breakpoints as `(instant, units free)`.
struct Walk<'a> {
    rest: std::slice::Iter<'a, Point>,
    /// The last stored value; over ledger keys, their running sum.
    acc: u64,
    summing: bool,
    sub: u64,
}

impl Iterator for Walk<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let &(t, v) = self.rest.next()?;
        self.acc = if self.summing { self.acc + v } else { v };
        Some((t, self.acc - self.sub))
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
///
/// Every routine takes the chunks of the ledger the profile is laid over
/// (see [`Plan`]); a profile standing on its own passes none and holds no
/// span that reads the ledger.
#[derive(Debug, Clone)]
pub struct CapacityProfile {
    /// Ascending in time, none empty, the first always owning its points.
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
                .map(|run| Span::owned(run.to_vec(), 0))
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
    /// differential tests hold [`ReleaseLedger::plan`] to.
    ///
    /// # Panics
    /// Debug-asserts the ascending order.
    #[must_use]
    pub fn from_sorted_running(
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
        self.spans.iter().map(|s| s.raw(&[]).len()).sum()
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
        self.free_at_over(&[], t)
    }

    /// Removes `procs` free units over `[from, to)` (a reservation).
    ///
    /// # Panics
    /// Panics (debug) if the interval lacks capacity — callers must have
    /// checked with [`Self::earliest_fit`] / [`Self::fits`].
    pub fn reserve(&mut self, from: Timestamp, to: Timestamp, procs: u64) {
        self.reserve_over(&[], from, to, procs);
    }

    /// True if `procs` units are free throughout `[from, to)`.
    #[must_use]
    pub fn fits(&self, from: Timestamp, to: Timestamp, procs: u64) -> bool {
        self.fits_over(&[], from, to, procs)
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
        self.earliest_fit_over(&[], after, procs, duration)
    }

    /// The breakpoints (for tests and debugging).
    #[must_use]
    pub fn points(&self) -> Vec<(Timestamp, u64)> {
        self.points_over(&[])
    }

    // ---- the routines proper, over the ledger's chunks -------------------

    /// Index of the span `t` falls in: the last one starting at or before
    /// it (the first when `t` precedes every breakpoint).
    fn span_of(&self, t: Timestamp) -> usize {
        self.spans
            .partition_point(|s| s.first <= t)
            .saturating_sub(1)
    }

    /// Span and index of the breakpoint in force at `t`.
    fn locate(&self, ledger: &[Chunk], t: Timestamp) -> (usize, usize) {
        let span = self.span_of(t);
        (span, self.spans[span].position(ledger, t))
    }

    /// Every breakpoint from index `at` of span `span` on.
    fn walk_from<'a>(
        &'a self,
        ledger: &'a [Chunk],
        (span, at): (usize, usize),
    ) -> impl Iterator<Item = Point> + 'a {
        self.spans[span..]
            .iter()
            .enumerate()
            .flat_map(move |(i, s)| s.walk_from(ledger, if i == 0 { at } else { 0 }))
    }

    fn points_over(&self, ledger: &[Chunk]) -> Vec<Point> {
        self.walk_from(ledger, (0, 0)).collect()
    }

    fn free_at_over(&self, ledger: &[Chunk], t: Timestamp) -> u64 {
        let (span, at) = self.locate(ledger, t);
        self.spans[span].free_from(ledger, at)
    }

    /// From the segment containing `from`, span by span: one step over a
    /// span whose values all carry `procs` or all break it, a walk inside
    /// the others up to `to`.
    fn fits_over(&self, ledger: &[Chunk], from: Timestamp, to: Timestamp, procs: u64) -> bool {
        if from >= to {
            return true;
        }
        let (start, at) = self.locate(ledger, from);
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
            for (t, free) in span.walk_from(ledger, at) {
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

    fn earliest_fit_over(
        &self,
        ledger: &[Chunk],
        after: Timestamp,
        procs: u64,
        duration: i64,
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
            let long_enough = |run_start: Timestamp, segment_end: Option<Timestamp>| {
                segment_end.is_none_or(|end| end - run_start >= duration)
            };
            // Where the current segment's candidate window begins: `after`
            // itself for the segment containing it, the breakpoint after
            // that.
            let mut seg_start = if i == start { after } else { span.first };
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
                if long_enough(s, next_first) {
                    return run_start;
                }
                continue;
            }
            let at = if i == start {
                span.position(ledger, after)
            } else {
                0
            };
            let mut walk = span.walk_from(ledger, at);
            let mut here = walk.next();
            while let Some((_, free)) = here {
                let next = walk.next();
                if free >= procs {
                    let s = *run_start.get_or_insert(seg_start);
                    if long_enough(s, next.map(|(t, _)| t).or(next_first)) {
                        return run_start;
                    }
                } else {
                    run_start = None;
                }
                if let Some((t, _)) = next {
                    seg_start = t;
                }
                here = next;
            }
        }
        None
    }

    fn reserve_over(&mut self, ledger: &[Chunk], from: Timestamp, to: Timestamp, procs: u64) {
        if from >= to || procs == 0 {
            return;
        }
        let (mut first, mut lo) = self.ensure_breakpoint(ledger, from);
        let spans = self.spans.len();
        let (last, hi) = self.ensure_breakpoint(ledger, to);
        if self.spans.len() != spans {
            // Inserting `to` split a span, perhaps the one `from` is in.
            (first, lo) = self.locate(ledger, from);
        }
        // Spans wholly inside `[from, to)` shift as one; the (at most two)
        // an edge lands inside are rewritten point by point.
        if first == last {
            self.lower(first, lo..hi, procs);
        } else {
            let covered = if lo == 0 {
                first
            } else {
                self.lower(first, lo.., procs);
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
                self.lower(last, ..hi, procs);
            }
        }
        // A contiguous range moved by a constant, so only the two boundary
        // pairs can have become redundant. `to` first: removing it leaves
        // `from` where it is.
        self.coalesce_at(ledger, last, hi);
        self.coalesce_at(ledger, first, lo);
    }

    /// Takes `procs` out of the breakpoints in `range` of span `span`,
    /// which an edge of the reservation lies inside (so it owns its points).
    fn lower(
        &mut self,
        span: usize,
        range: impl std::slice::SliceIndex<[Point], Output = [Point]>,
        procs: u64,
    ) {
        let span = &mut self.spans[span];
        let sub = span.sub;
        let points = span.own();
        for p in &mut points[range] {
            debug_assert!(p.1 - sub >= procs, "reservation exceeds free capacity");
            p.1 -= procs;
        }
        (span.min, span.max) = measure(points);
    }

    /// Removes breakpoint `at` of span `span` if it repeats its
    /// predecessor's value (the last breakpoint of the span before, when
    /// it is the first of its own), keeping the representation canonical:
    /// no two adjacent breakpoints with equal free counts. A span left
    /// without breakpoints goes too.
    fn coalesce_at(&mut self, ledger: &[Chunk], span: usize, at: usize) {
        let here = &self.spans[span];
        let before = match (span, at) {
            (0, 0) => return,
            (_, 0) => self.spans[span - 1].last_free(),
            _ => here.free_from(ledger, at - 1),
        };
        if here.free_from(ledger, at) != before {
            return;
        }
        let here = &mut self.spans[span];
        let points = here.materialise(ledger, &mut self.pool);
        points.remove(at);
        if points.is_empty() {
            self.recycle(span..=span);
        } else {
            let bounds = measure(points);
            here.first = points[0].0;
            (here.min, here.max) = bounds;
        }
    }

    /// Ensures a breakpoint exists exactly at `t`, returning its span and
    /// its index there. The span owns its points afterwards unless the
    /// breakpoint is its first.
    fn ensure_breakpoint(&mut self, ledger: &[Chunk], t: Timestamp) -> (usize, usize) {
        let at = self.span_of(t);
        let span = &mut self.spans[at];
        let raw = span.raw(ledger);
        let upto = raw.partition_point(|&(ti, _)| ti <= t);
        if upto > 0 && raw[upto - 1].0 == t {
            if upto > 1 {
                span.materialise(ledger, &mut self.pool);
            }
            return (at, upto - 1);
        }
        // The new breakpoint repeats the value in force at `t`: its
        // predecessor's or, before every breakpoint, the first one's,
        // whose segment extends backwards.
        let points = span.materialise(ledger, &mut self.pool);
        let value = points[upto.saturating_sub(1)].1;
        points.insert(upto, (t, value));
        let len = points.len();
        if upto == 0 {
            span.first = t;
        }
        if len < 2 * CHUNK_KEYS {
            return (at, upto);
        }
        let mut tail = self.pool.pop().unwrap_or_default();
        let points = span.own();
        tail.extend(points.drain(CHUNK_KEYS..));
        (span.min, span.max) = measure(points);
        let tail = Span::owned(tail, span.sub);
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
        for span in self.spans.drain(range) {
            if let Points::Owned(mut points) = span.points {
                points.clear();
                self.pool.push(points);
            }
        }
    }
}

/// A run of consecutive ledger keys with their sum.
#[derive(Debug, Clone)]
struct Chunk {
    /// Σ units over `keys`.
    sum: u64,
    /// `(end_estimate, Σ units)` ascending by time; never empty.
    keys: Vec<(Timestamp, u64)>,
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
/// `now + 1`. That is the timeline [`CapacityProfile::from_sorted_running`]
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
            .partition_point(|c| c.keys[0].0 <= end)
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
                sum: procs,
                keys: vec![(end, procs)],
            });
            return;
        }
        let at = self.chunk_of(end);
        let chunk = &mut self.chunks[at];
        chunk.sum += procs;
        match chunk.keys.binary_search_by_key(&end, |&(t, _)| t) {
            Ok(i) => chunk.keys[i].1 += procs,
            Err(i) => chunk.keys.insert(i, (end, procs)),
        }
        if chunk.keys.len() >= 2 * CHUNK_KEYS {
            let keys = chunk.keys.split_off(CHUNK_KEYS);
            let sum = keys.iter().map(|&(_, p)| p).sum();
            chunk.sum -= sum;
            self.chunks.insert(at + 1, Chunk { sum, keys });
        }
    }

    /// The job that [`Self::add`]ed `procs` units at `end` completes.
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
            if chunk.keys.is_empty() {
                self.chunks.remove(at);
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
        let whole = self
            .chunks
            .iter()
            .take_while(|c| c.keys[c.keys.len() - 1].0 <= now)
            .count();
        let mut passed: u64 = self.chunks.drain(..whole).map(|c| c.sum).sum();
        if let Some(first) = self.chunks.first_mut() {
            let n = first.keys.partition_point(|&(t, _)| t <= now);
            let part: u64 = first.keys.drain(..n).map(|(_, p)| p).sum();
            first.sum -= part;
            passed += part;
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

    /// Lays `scratch` over the ledger for the length of one borrow: the
    /// free-capacity timeline from the ledger's instant on — `(now,
    /// free_now)`, `(now + 1, …)` where the overrunning jobs hand back,
    /// then one breakpoint per key — point for point what
    /// [`CapacityProfile::from_sorted_running`] builds from the running
    /// set with end estimates clamped to `now + 1`, at the cost of one
    /// span header per chunk: the keys stay where they are until a
    /// reservation's edge lands among them. Reuses the scratch's
    /// allocations; what it held before is gone.
    pub fn plan<'a>(&'a self, scratch: &'a mut CapacityProfile) -> Plan<'a> {
        self.lay(scratch);
        Plan {
            ledger: &self.chunks,
            profile: scratch,
        }
    }

    /// Overwrites `profile` with the timeline [`Self::plan`] lays over
    /// the ledger, every breakpoint copied out: a profile that stands on
    /// its own, so that reservations carved into it outlive the ledger's
    /// next change — what conservative backfilling keeps between passes.
    /// O(keys), into the allocations `profile` already holds.
    pub fn copy_to(&self, profile: &mut CapacityProfile) {
        self.lay(profile);
        let CapacityProfile { spans, pool } = profile;
        for span in &mut spans[1..] {
            span.materialise(&self.chunks, pool);
        }
    }

    /// The body of [`Self::plan`]: `profile` becomes the plan's own first
    /// span and one span per chunk reading the keys in place.
    fn lay(&self, profile: &mut CapacityProfile) {
        profile.recycle(..);
        let mut head = profile.pool.pop().unwrap_or_default();
        head.push((self.now, self.free_now()));
        let mut free = self.capacity - self.total;
        let soon = self.now + 1;
        // A key at `now + 1` is the overrun step already.
        if self.overrun > 0 && self.chunks.first().is_none_or(|c| c.keys[0].0 != soon) {
            head.push((soon, free));
        }
        profile.spans.push(Span::owned(head, 0));
        profile
            .spans
            .extend(self.chunks.iter().enumerate().map(|(chunk, c)| {
                let base = free;
                free += c.sum;
                Span {
                    first: c.keys[0].0,
                    sub: 0,
                    min: base + c.keys[0].1,
                    max: free,
                    points: Points::Ledger { chunk, base },
                }
            }));
    }
}

/// A [`CapacityProfile`] laid over a [`ReleaseLedger`] for the length of
/// one borrow ([`ReleaseLedger::plan`]): the ledger cannot move while the
/// plan reads its keys, and reservations carved into the plan never reach
/// the ledger. (Conservative backfilling planned on one of these, a pass
/// at a time, until it kept its plan between passes: see
/// [`ReleaseLedger::copy_to`].)
#[derive(Debug)]
pub struct Plan<'a> {
    ledger: &'a [Chunk],
    profile: &'a mut CapacityProfile,
}

impl Plan<'_> {
    /// [`CapacityProfile::earliest_fit`] on the plan.
    #[must_use]
    pub fn earliest_fit(&self, after: Timestamp, procs: u64, duration: i64) -> Option<Timestamp> {
        self.profile
            .earliest_fit_over(self.ledger, after, procs, duration)
    }

    /// [`CapacityProfile::reserve`] on the plan.
    pub fn reserve(&mut self, from: Timestamp, to: Timestamp, procs: u64) {
        self.profile.reserve_over(self.ledger, from, to, procs);
    }

    /// The breakpoints (for tests and debugging).
    #[must_use]
    pub fn points(&self) -> Vec<(Timestamp, u64)> {
        self.profile.points_over(self.ledger)
    }

    #[cfg(test)]
    fn fits(&self, from: Timestamp, to: Timestamp, procs: u64) -> bool {
        self.profile.fits_over(self.ledger, from, to, procs)
    }

    #[cfg(test)]
    fn free_at(&self, t: Timestamp) -> u64 {
        self.profile.free_at_over(self.ledger, t)
    }
}

impl Drop for Plan<'_> {
    /// Leaves the scratch a profile that stands on its own again — the
    /// plan's first span, which never reads the ledger.
    fn drop(&mut self) {
        self.profile.recycle(1..);
    }
}

/// The breakpoint list as one flat sorted `Vec`, the way
/// [`CapacityProfile`] stored it before spans, and
/// [`ReleaseLedger::fill`], the full copy a pass used to start with: the
/// oracle the chunked profile and the plan laid over the ledger are held
/// to, answer for answer and point for point.
#[cfg(test)]
pub(crate) mod flat {
    use super::{Point, ReleaseLedger, Timestamp};

    /// `points[i] = (t_i, free_i)`: `free_i` units free on `[t_i, t_{i+1})`.
    #[derive(Debug, Clone)]
    pub(crate) struct FlatProfile {
        points: Vec<Point>,
    }

    impl FlatProfile {
        pub(crate) fn new(start: Timestamp, free: u64) -> Self {
            Self {
                points: vec![(start, free)],
            }
        }

        pub(crate) fn from_points(points: Vec<Point>) -> Self {
            Self { points }
        }

        pub(crate) fn from_running(now: Timestamp, capacity: u64, running: &[Point]) -> Self {
            let mut ends = running.to_vec();
            ends.sort_unstable();
            let in_use: u64 = ends.iter().map(|&(_, p)| p).sum();
            let mut profile = Self::new(now, capacity.saturating_sub(in_use));
            for (end, procs) in ends {
                profile.release(end.max(now), procs);
            }
            profile
        }

        pub(crate) fn points(&self) -> &[Point] {
            &self.points
        }

        pub(crate) fn free_at(&self, t: Timestamp) -> u64 {
            match self.points.binary_search_by_key(&t, |&(ti, _)| ti) {
                Ok(i) => self.points[i].1,
                Err(0) => self.points[0].1,
                Err(i) => self.points[i - 1].1,
            }
        }

        /// Adds `procs` free units from time `at` onwards (a running job's
        /// estimated completion).
        pub(crate) fn release(&mut self, at: Timestamp, procs: u64) {
            if procs == 0 {
                return;
            }
            let idx = self.ensure_breakpoint(at);
            for p in &mut self.points[idx..] {
                p.1 += procs;
            }
        }

        pub(crate) fn reserve(&mut self, from: Timestamp, to: Timestamp, procs: u64) {
            if from >= to || procs == 0 {
                return;
            }
            let start_idx = self.ensure_breakpoint(from);
            let end_idx = self.ensure_breakpoint(to);
            for p in &mut self.points[start_idx..end_idx] {
                assert!(p.1 >= procs, "reservation exceeds free capacity");
                p.1 -= procs;
            }
            self.coalesce_at(end_idx);
            self.coalesce_at(start_idx);
        }

        pub(crate) fn fits(&self, from: Timestamp, to: Timestamp, procs: u64) -> bool {
            if from >= to {
                return true;
            }
            // Segment containing `from`:
            let mut i = match self.points.binary_search_by_key(&from, |&(t, _)| t) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            };
            while i < self.points.len() && self.points[i].0 < to {
                if self.points[i].1 < procs {
                    return false;
                }
                i += 1;
            }
            true
        }

        /// One forward sweep over the segments at or after `after`.
        pub(crate) fn earliest_fit(
            &self,
            after: Timestamp,
            procs: u64,
            duration: i64,
        ) -> Option<Timestamp> {
            if duration <= 0 {
                return Some(after); // an empty interval fits anywhere
            }
            let mut i = match self.points.binary_search_by_key(&after, |&(t, _)| t) {
                Ok(i) => i,
                Err(0) => 0, // before the first point: its value extends back
                Err(i) => i - 1,
            };
            // Start of the current run of segments with `free >= procs`.
            let mut run_start: Option<Timestamp> = None;
            // Where the current segment's candidate window begins: `after`
            // itself for the segment containing it, the breakpoint after
            // that.
            let mut seg_start = after;
            while i < self.points.len() {
                if self.points[i].1 >= procs {
                    let s = *run_start.get_or_insert(seg_start);
                    if i + 1 == self.points.len() {
                        // Last segment extends to infinity; the run can
                        // only keep growing.
                        return run_start;
                    }
                    if self.points[i + 1].0 - s >= duration {
                        return run_start;
                    }
                } else {
                    run_start = None;
                }
                i += 1;
                if i < self.points.len() {
                    seg_start = self.points[i].0;
                }
            }
            None
        }

        /// Earliest time at which at least `procs` units are free *and
        /// remain free forever after* (the EASY shadow time) on a
        /// **monotone** profile — free capacity non-decreasing over time.
        /// Returns `None` if never. The reference
        /// [`ReleaseLedger::earliest`] is tested against.
        pub(crate) fn earliest_forever(&self, after: Timestamp, procs: u64) -> Option<Timestamp> {
            assert!(
                self.points.windows(2).all(|w| w[0].1 <= w[1].1),
                "earliest_forever requires a monotone (release-only) profile"
            );
            let idx = self.points.partition_point(|&(_, free)| free < procs);
            if idx == self.points.len() {
                None
            } else {
                Some(self.points[idx].0.max(after))
            }
        }

        /// Removes the breakpoint at `idx` if it repeats its predecessor's
        /// value. Interval mutations shift a contiguous range by a
        /// constant, so only the two boundary pairs can become redundant —
        /// callers coalesce exactly those.
        fn coalesce_at(&mut self, idx: usize) {
            if idx > 0 && idx < self.points.len() && self.points[idx].1 == self.points[idx - 1].1 {
                self.points.remove(idx);
            }
        }

        /// Ensures a breakpoint exists exactly at `t`, returning its index.
        fn ensure_breakpoint(&mut self, t: Timestamp) -> usize {
            match self.points.binary_search_by_key(&t, |&(ti, _)| ti) {
                Ok(i) => i,
                Err(0) => {
                    // Before the first point: extend the first segment
                    // backwards.
                    let free = self.points[0].1;
                    self.points.insert(0, (t, free));
                    0
                }
                Err(i) => {
                    let free = self.points[i - 1].1;
                    self.points.insert(i, (t, free));
                    i
                }
            }
        }
    }

    impl ReleaseLedger {
        /// Overwrites `profile` with the free-capacity timeline from the
        /// ledger's instant on: `(now, free_now)`, `(now + 1, …)` where
        /// the overrunning jobs hand back, then one point per key.
        pub(crate) fn fill(&self, profile: &mut FlatProfile) {
            let points = &mut profile.points;
            points.clear();
            points.push((self.now, self.free_now()));
            let mut free = self.capacity - self.total;
            if self.overrun > 0 {
                points.push((self.now + 1, free));
            }
            for chunk in &self.chunks {
                for &(t, p) in &chunk.keys {
                    free += p;
                    match points.last_mut() {
                        // A key at `now + 1` joins the overrun step.
                        Some(last) if last.0 == t => last.1 = free,
                        _ => points.push((t, free)),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::flat::FlatProfile;
    use super::*;
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
        let p = FlatProfile::from_running(0, 100, &[(50, 60), (80, 30)]);
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
        let mut flat = FlatProfile::new(100, 10);
        flat.reserve(50, 70, 4);
        assert_eq!(p.points(), flat.points());
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
        // Reference implementation: try `after` then every later breakpoint.
        fn naive(p: &CapacityProfile, after: i64, procs: u64, dur: i64) -> Option<i64> {
            if p.fits(after, after + dur.max(0), procs) {
                return Some(after);
            }
            p.points()
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| t > after)
                .find(|&t| p.fits(t, t + dur.max(0), procs))
        }
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(0, 50, 90);
        p.reserve(60, 70, 95);
        p.reserve(100, 130, 50);
        for after in [0, 25, 50, 55, 65, 99, 200] {
            for procs in [1u64, 10, 20, 60, 100, 101] {
                for dur in [0i64, 1, 10, 30, 100] {
                    assert_eq!(
                        p.earliest_fit(after, procs, dur),
                        naive(&p, after, procs, dur),
                        "after={after} procs={procs} dur={dur}"
                    );
                }
            }
        }
    }

    #[test]
    fn earliest_forever_binary_search_on_monotone_profile() {
        let p = FlatProfile::from_running(0, 100, &[(50, 60), (30, 10)]);
        assert_eq!(p.earliest_forever(0, 30), Some(0));
        assert_eq!(p.earliest_forever(0, 31), Some(30));
        assert_eq!(p.earliest_forever(0, 41), Some(50));
        assert_eq!(p.earliest_forever(0, 100), Some(50));
        assert_eq!(p.earliest_forever(0, 101), None);
    }

    // ---- chunked profile and plan vs the flat oracle --------------------

    /// One timeline held three ways — the flat oracle, a profile standing
    /// on its own, and (when there is a ledger) a plan laid over it —
    /// driven in lockstep: every answer must agree, and after every
    /// reservation so must the breakpoint lists.
    struct Lockstep<'a> {
        flat: FlatProfile,
        owned: CapacityProfile,
        plan: Option<Plan<'a>>,
    }

    impl<'a> Lockstep<'a> {
        /// Exactly these breakpoints; spans of 64 in index order.
        fn of_points(points: Vec<Point>) -> Self {
            let owned = CapacityProfile::from_points(&points);
            let s = Self {
                flat: FlatProfile::from_points(points),
                owned,
                plan: None,
            };
            s.assert_same_points();
            s
        }

        /// The ledger's timeline: the oracle by the full copy a pass used
        /// to make, the profile standing on its own by the copy a kept
        /// plan is rebuilt from, the plan over the keys in place.
        fn over(ledger: &'a ReleaseLedger, scratch: &'a mut CapacityProfile) -> Self {
            let mut flat = FlatProfile::new(0, 0);
            ledger.fill(&mut flat);
            // Over what another copy left behind: spans and a pool.
            let mut owned = CapacityProfile::from_points(&[(7, 7), (9, 9)]);
            ledger.copy_to(&mut owned);
            assert_spans_are_sound(&owned, &[]);
            let s = Self {
                owned,
                flat,
                plan: Some(ledger.plan(scratch)),
            };
            s.assert_same_points();
            s
        }

        fn assert_same_points(&self) {
            assert_eq!(self.owned.points(), self.flat.points());
            assert_eq!(self.owned.len(), self.flat.points().len());
            if let Some(plan) = &self.plan {
                assert_eq!(plan.points(), self.flat.points());
            }
        }

        /// The plan's spans.
        fn plan_spans(&self) -> &[Span] {
            &self
                .plan
                .as_ref()
                .expect("laid over a ledger")
                .profile
                .spans
        }

        fn earliest_fit(&self, after: Timestamp, procs: u64, duration: i64) -> Option<Timestamp> {
            let expect = self.flat.earliest_fit(after, procs, duration);
            let context = format!("earliest_fit({after}, {procs}, {duration})");
            assert_eq!(
                self.owned.earliest_fit(after, procs, duration),
                expect,
                "{context}"
            );
            if let Some(plan) = &self.plan {
                assert_eq!(
                    plan.earliest_fit(after, procs, duration),
                    expect,
                    "plan {context}"
                );
            }
            expect
        }

        fn fits(&self, from: Timestamp, to: Timestamp, procs: u64) -> bool {
            let expect = self.flat.fits(from, to, procs);
            assert_eq!(self.owned.fits(from, to, procs), expect);
            if let Some(plan) = &self.plan {
                assert_eq!(plan.fits(from, to, procs), expect);
            }
            expect
        }

        fn free_at(&self, t: Timestamp) -> u64 {
            let expect = self.flat.free_at(t);
            assert_eq!(self.owned.free_at(t), expect, "free_at({t})");
            if let Some(plan) = &self.plan {
                assert_eq!(plan.free_at(t), expect, "plan free_at({t})");
            }
            expect
        }

        fn reserve(&mut self, from: Timestamp, to: Timestamp, procs: u64) {
            assert!(self.fits(from, to, procs));
            self.flat.reserve(from, to, procs);
            self.owned.reserve(from, to, procs);
            if let Some(plan) = &mut self.plan {
                plan.reserve(from, to, procs);
            }
            self.assert_same_points();
            assert_spans_are_sound(&self.owned, &[]);
            if let Some(plan) = &self.plan {
                assert_spans_are_sound(plan.profile, plan.ledger);
            }
        }
    }

    /// What every routine relies on: spans in time order, none empty, each
    /// headed by its first instant and measured exactly, split before 128.
    fn assert_spans_are_sound(profile: &CapacityProfile, ledger: &[Chunk]) {
        assert!(matches!(profile.spans[0].points, Points::Owned(_)));
        for span in &profile.spans {
            let raw = span.raw(ledger);
            assert!(!raw.is_empty() && raw.len() < 2 * CHUNK_KEYS);
            assert_eq!(span.first, raw[0].0);
            let stored: Vec<Point> = span
                .walk_from(ledger, 0)
                .map(|(t, free)| (t, free + span.sub))
                .collect();
            assert_eq!((span.min, span.max), measure(&stored));
            assert_eq!(span.last_free(), stored[stored.len() - 1].1 - span.sub);
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

    /// 200 jobs of one unit ending every ten seconds from t=10 on a
    /// 300-unit machine: ledger chunks start at keys 10, 650 and 1290, so
    /// a plan is `[(0, 100)]` and three spans read in place, free rising
    /// 101‥164, 165‥228, 229‥300.
    fn staircase() -> ReleaseLedger {
        let running: Vec<Point> = (1..=200).map(|k| (k * 10, 1)).collect();
        let ledger = ledger_of(300, 0, &running);
        let firsts: Vec<_> = ledger.chunks.iter().map(|c| c.keys[0].0).collect();
        assert_eq!(firsts, [10, 650, 1290]);
        ledger
    }

    fn reads_ledger(span: &Span) -> bool {
        matches!(span.points, Points::Ledger { .. })
    }

    #[test]
    fn an_edge_on_a_spans_first_instant_leaves_it_in_the_ledger() {
        let (ledger, mut scratch) = (staircase(), CapacityProfile::new(0, 0));
        let mut s = Lockstep::over(&ledger, &mut scratch);
        assert_eq!(s.plan_spans().len(), 4);
        // Both edges on first instants: the span between shifts as one.
        s.reserve(650, 1_290, 150);
        assert!(s.plan_spans()[1..].iter().all(reads_ledger));
        assert_eq!(s.plan_spans()[2].sub, 150);
        assert_eq!(s.free_at(650), 15);
        assert_eq!(s.free_at(1_289), 78);
        assert_eq!(s.free_at(1_290), 229);
        // From a first instant to the middle of the next span: the first
        // shifts, the second is copied out and rewritten.
        s.reserve(10, 700, 10);
        assert!(reads_ledger(&s.plan_spans()[1]));
        assert_eq!(s.plan_spans()[1].sub, 10);
        assert!(!reads_ledger(&s.plan_spans()[2]));
        assert!(reads_ledger(&s.plan_spans()[3]));
        assert_eq!(s.free_at(690), 9);
        assert_eq!(s.free_at(700), 20);
    }

    #[test]
    fn earliest_fit_starts_inside_a_span_read_in_place() {
        let (ledger, mut scratch) = (staircase(), CapacityProfile::new(0, 0));
        let s = Lockstep::over(&ledger, &mut scratch);
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
        assert!(
            s.plan_spans()[1..].iter().all(reads_ledger),
            "queries copy nothing"
        );
        assert_eq!(s.free_at(655), 165);
        assert!(s.fits(655, 700, 165));
        assert!(!s.fits(640, 700, 165));
    }

    #[test]
    fn an_edge_insert_splits_a_full_span() {
        // 127 keys in one ledger chunk: copied out, the 128th breakpoint
        // splits the span 64/64.
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
            let mut scratch = CapacityProfile::new(0, 0);
            let mut s = Lockstep::over(&ledger, &mut scratch);
            s.reserve(from, to, 73);
            let lens: Vec<_> = s.plan_spans().iter().map(|sp| sp.raw(&[]).len()).collect();
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
        /// where `earliest_fit` says, queries in between: the chunked
        /// profile and the plan over the ledger answer as the flat list
        /// does and hold the same breakpoints after every operation.
        #[test]
        fn chunked_profile_and_plan_match_the_flat_oracle(
            running in prop::collection::vec((1i64..20_000, 1u64..8), 600..700),
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
            let mut scratch = CapacityProfile::new(0, 0);
            let mut s = Lockstep::over(&ledger, &mut scratch);
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
            prop_assert!(s.plan_spans().len() >= 12, "{}", s.plan_spans().len());
        }
    }

    // ---- release ledger -------------------------------------------------

    /// The ledger's pass view: the breakpoints of a plan laid over it.
    fn view(ledger: &ReleaseLedger) -> Vec<Point> {
        ledger.plan(&mut CapacityProfile::new(0, 0)).points()
    }

    /// Every query the scheduler makes, against the from-scratch profile
    /// of `running` (`(end_estimate, procs)`) at `now`.
    fn assert_ledger_matches(ledger: &ReleaseLedger, now: Timestamp, running: &[(Timestamp, u64)]) {
        let clamped: Vec<_> = running.iter().map(|&(e, p)| (e.max(now + 1), p)).collect();
        let rebuilt = FlatProfile::from_running(now, ledger.capacity, &clamped);
        assert_eq!(view(ledger), rebuilt.points(), "at t={now}");
        let chunked = CapacityProfile::from_running(now, ledger.capacity, &clamped);
        assert_eq!(chunked.points(), rebuilt.points(), "at t={now}");
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
        let running = [(11, 20), (60, 40)];
        let calm = ledger_of(100, 10, &running);
        // The same with 30 more held by a job that should have ended at 5.
        let overrun = ledger_of(100, 10, &[(5, 30), (11, 20), (60, 40)]);
        for (ledger, free_now) in [(&calm, 40), (&overrun, 10)] {
            let mut scratch = CapacityProfile::new(0, 0);
            let mut s = Lockstep::over(ledger, &mut scratch);
            assert_eq!(s.flat.points(), &[(10, free_now), (11, 60), (60, 100)]);
            // Either way the plan's own span holds `now` alone.
            assert_eq!(s.plan_spans()[0].raw(&[]), &[(10, free_now)]);
            assert_eq!(s.earliest_fit(10, 50, 20), Some(11));
            s.reserve(11, 31, 50);
            assert_eq!(s.earliest_fit(10, 11, 5), Some(31));
        }
        // Without the key the step is the plan's to hold.
        let later = ledger_of(100, 10, &[(5, 30), (60, 40)]);
        let mut scratch = CapacityProfile::new(0, 0);
        let s = Lockstep::over(&later, &mut scratch);
        assert_eq!(s.plan_spans()[0].raw(&[]), &[(10, 30), (11, 60)]);
    }

    #[test]
    fn a_dropped_plan_leaves_the_scratch_standing_on_its_own() {
        let (ledger, mut scratch) = (staircase(), CapacityProfile::new(0, 0));
        let mut plan = ledger.plan(&mut scratch);
        plan.reserve(15, 1_500, 100);
        drop(plan);
        assert_eq!(scratch.points(), &[(0, 100)]);
        assert!(
            !scratch.pool.is_empty(),
            "copied-out spans are kept for reuse"
        );
        // The next pass starts from the ledger again.
        assert_eq!(view(&ledger).len(), 201);
    }

    #[test]
    fn a_copy_of_the_ledger_outlives_its_changes_and_forgets_the_past() {
        let mut ledger = staircase();
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
        assert_spans_are_sound(&kept, &[]);
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
        assert_spans_are_sound(&kept, &[]);
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
        assert!(l.chunks.iter().all(|c| c.keys.len() < 2 * CHUNK_KEYS));
        assert!(l
            .chunks
            .iter()
            .all(|c| c.sum == c.keys.iter().map(|k| k.1).sum::<u64>()));
        assert_ledger_matches(&l, 0, &running);

        // Empty the second chunk key by key; it must disappear.
        let before = l.chunks.len();
        let second: Vec<_> = l.chunks[1].keys.clone();
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

    #[test]
    #[should_panic(expected = "not running")]
    fn removing_units_the_ledger_does_not_hold_panics() {
        let mut l = ReleaseLedger::new(10);
        l.add(50, 3);
        l.remove(50, 4);
    }
}
