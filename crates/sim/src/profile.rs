//! Future free-capacity profiles.
//!
//! Both the EASY shadow-time computation and conservative backfilling need
//! to answer: *given the walltime-based end estimates of everything already
//! running (and already-reserved), when is the earliest time a job of
//! `procs` units can start?* [`CapacityProfile`] answers that with a
//! breakpoint list of `(time, free_units)` that stays sorted by time.
//!
//! # Who runs until when: the release ledger
//!
//! Between passes the scheduler does not maintain a breakpoint list at
//! all. Restricted to the future, the free-capacity timeline of a machine
//! whose running jobs each hold `procs` units until their end estimate
//! *is* "units handed back per end estimate, in time order", and
//! [`ReleaseLedger`] stores exactly that: a job start adds its units at
//! its end-estimate key, a completion takes them out again, the advancing
//! clock drops the keys it passes. The EASY shadow time is a prefix-sum
//! search over the keys ([`ReleaseLedger::earliest`]); conservative
//! backfilling, which must carve trial reservations that do not outlive
//! the pass, fills a scratch [`CapacityProfile`] from the ledger
//! ([`ReleaseLedger::fill`]) and plans on that. See `docs/PERFORMANCE.md`
//! §4 for what each operation costs and the differential tests pinning
//! ledger == rebuilt-from-scratch.
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
//! // Conservative's planning scratch, filled from the ledger.
//! let mut scratch = CapacityProfile::new(0, 0);
//! ledger.fill(&mut scratch);
//! assert_eq!(scratch.points(), &[(0, 60), (50, 100)]);
//! // The job finishes early: its units come back at once.
//! ledger.remove(50, 40);
//! assert_eq!(ledger.free_now(), 100);
//! ```

use lumos_core::Timestamp;

/// Piecewise-constant free-capacity timeline. `points[i] = (t_i, free_i)`
/// means `free_i` units are free on `[t_i, t_{i+1})`; the last segment
/// extends to infinity.
#[derive(Debug, PartialEq, Eq)]
pub struct CapacityProfile {
    points: Vec<(Timestamp, u64)>,
}

// Hand-written instead of derived so `clone_from` reuses the target's
// breakpoint allocation instead of discarding and reallocating it.
impl Clone for CapacityProfile {
    fn clone(&self) -> Self {
        Self {
            points: self.points.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.points.clone_from(&source.points);
    }
}

impl CapacityProfile {
    /// A profile with `free` units free from `start` onwards.
    #[must_use]
    pub fn new(start: Timestamp, free: u64) -> Self {
        Self {
            points: vec![(start, free)],
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
    /// differential tests hold [`ReleaseLedger::fill`] to.
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
        let mut profile = Self::new(now, capacity.saturating_sub(in_use));
        let mut prev = Timestamp::MIN;
        for (end, procs) in running {
            debug_assert!(end >= prev, "running set must be end-sorted");
            prev = end;
            profile.release(end.max(now), procs);
        }
        profile
    }

    /// Number of breakpoints (for tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no breakpoints exist (never: construction seeds one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Free units at time `t` (clamped to the first segment before it).
    #[must_use]
    pub fn free_at(&self, t: Timestamp) -> u64 {
        match self.points.binary_search_by_key(&t, |&(ti, _)| ti) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Adds `procs` free units from time `at` onwards (a running job's
    /// estimated completion).
    fn release(&mut self, at: Timestamp, procs: u64) {
        if procs == 0 {
            return;
        }
        let idx = self.ensure_breakpoint(at);
        for p in &mut self.points[idx..] {
            p.1 += procs;
        }
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
        let start_idx = self.ensure_breakpoint(from);
        let end_idx = self.ensure_breakpoint(to);
        for p in &mut self.points[start_idx..end_idx] {
            debug_assert!(p.1 >= procs, "reservation exceeds free capacity");
            p.1 = p.1.saturating_sub(procs);
        }
        self.coalesce_at(end_idx);
        self.coalesce_at(start_idx);
    }

    /// True if `procs` units are free throughout `[from, to)`.
    #[must_use]
    pub fn fits(&self, from: Timestamp, to: Timestamp, procs: u64) -> bool {
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

    /// Earliest `t ≥ after` at which `procs` units stay free for
    /// `duration` seconds. Candidate starts are `after` itself and the
    /// breakpoints (capacity only changes there). Returns `None` if `procs`
    /// can never fit (i.e. exceeds the eventual total).
    ///
    /// One forward sweep over the segments at or after `after` — O(log n)
    /// to locate the starting segment plus O(segments scanned) — instead of
    /// the quadratic candidate × re-scan the naive formulation costs.
    #[must_use]
    pub fn earliest_fit(&self, after: Timestamp, procs: u64, duration: i64) -> Option<Timestamp> {
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
        // itself for the segment containing it, the breakpoint after that.
        let mut seg_start = after;
        while i < self.points.len() {
            if self.points[i].1 >= procs {
                let s = *run_start.get_or_insert(seg_start);
                if i + 1 == self.points.len() {
                    // Last segment extends to infinity; the run can only
                    // keep growing.
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

    /// Earliest time at which at least `procs` units are free *and remain
    /// free forever after* (the EASY shadow time) on a **monotone**
    /// profile — free capacity non-decreasing over time (debug-asserted).
    /// Returns `None` if never. The reference [`ReleaseLedger::earliest`]
    /// is tested against.
    #[cfg(test)]
    pub(crate) fn earliest_forever(&self, after: Timestamp, procs: u64) -> Option<Timestamp> {
        debug_assert!(
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

    /// The breakpoints (for tests and debugging).
    #[must_use]
    pub fn points(&self) -> &[(Timestamp, u64)] {
        &self.points
    }

    /// Removes the breakpoint at `idx` if it repeats its predecessor's
    /// value, keeping the representation canonical (no two adjacent
    /// breakpoints with equal free counts). Interval mutations shift a
    /// contiguous range by a constant, so only the two boundary pairs can
    /// become redundant — callers coalesce exactly those.
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
                // Before the first point: extend the first segment backwards.
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

/// Keys a chunk of the ledger settles at; a chunk splits in two when it
/// reaches twice this. Small enough that an insert or a prefix walk inside
/// one chunk stays within two kilobytes, large enough that thousands
/// of running jobs are a hundred-odd chunk sums.
const CHUNK_KEYS: usize = 64;

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

    /// Overwrites `profile` with the free-capacity timeline from the
    /// ledger's instant on: `(now, free_now)`, `(now + 1, …)` where the
    /// overrunning jobs hand back, then one point per key — point for
    /// point what [`CapacityProfile::from_sorted_running`] builds from the
    /// running set with end estimates clamped to `now + 1`. Reuses the
    /// profile's allocation.
    pub fn fill(&self, profile: &mut CapacityProfile) {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let p = CapacityProfile::from_running(0, 100, &[(50, 60), (80, 30)]);
        assert_eq!(p.earliest_forever(0, 10), Some(0));
        assert_eq!(p.earliest_forever(0, 70), Some(50));
        assert_eq!(p.earliest_forever(0, 100), Some(80));
        assert_eq!(p.earliest_forever(0, 101), None);
        // `after` clamps forward.
        assert_eq!(p.earliest_forever(60, 70), Some(60));
    }

    #[test]
    fn release_before_first_point_extends_backwards() {
        let mut p = CapacityProfile::new(100, 10);
        p.release(50, 5);
        assert_eq!(p.free_at(50), 15);
        assert_eq!(p.free_at(100), 15);
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
        let p = CapacityProfile::from_running(0, 100, &[(50, 60), (30, 10)]);
        assert_eq!(p.earliest_forever(0, 30), Some(0));
        assert_eq!(p.earliest_forever(0, 31), Some(30));
        assert_eq!(p.earliest_forever(0, 41), Some(50));
        assert_eq!(p.earliest_forever(0, 100), Some(50));
        assert_eq!(p.earliest_forever(0, 101), None);
    }

    // ---- release ledger -------------------------------------------------

    /// The ledger's pass view, as a profile.
    fn view(ledger: &ReleaseLedger) -> CapacityProfile {
        let mut p = CapacityProfile::new(0, 0);
        ledger.fill(&mut p);
        p
    }

    /// Every query the scheduler makes, against the from-scratch profile
    /// of `running` (`(end_estimate, procs)`) at `now`.
    fn assert_ledger_matches(ledger: &ReleaseLedger, now: Timestamp, running: &[(Timestamp, u64)]) {
        let clamped: Vec<_> = running.iter().map(|&(e, p)| (e.max(now + 1), p)).collect();
        let rebuilt = CapacityProfile::from_running(now, ledger.capacity, &clamped);
        assert_eq!(view(ledger).points(), rebuilt.points(), "at t={now}");
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
        assert_eq!(view(&l).points(), &[(10, 10), (11, 60), (60, 100)]);
        // Without a key at now + 1 the overrun step stands alone.
        l.remove(11, 20);
        assert_eq!(l.earliest(31), (11, 60));
        assert_eq!(view(&l).points(), &[(10, 30), (11, 60), (60, 100)]);
        // No overrun, no step.
        l.remove(5, 30);
        assert_eq!(l.earliest(61), (60, 100));
        assert_eq!(view(&l).points(), &[(10, 60), (60, 100)]);
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
        assert_eq!(view(&l).points(), &[(35, 30), (36, 70), (60, 100)]);
        // Pruning onto a key drops it too: nothing is planned to end "now".
        l.prune_to(60);
        assert!(l.is_empty());
        assert_eq!(view(&l).points(), &[(60, 30), (61, 100)]);
        // Pruning backwards is a no-op.
        l.prune_to(40);
        assert_eq!(view(&l).points(), &[(60, 30), (61, 100)]);
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
