//! What the scheduling passes of a session did, counted as they do it:
//! the engine's one counting seam, read through
//! [`crate::SimSession::counts`].
//!
//! Observability only. No result, report or saved state carries the
//! counts, so no schedule or snapshot byte depends on them, and a
//! restored session starts them at zero (as it does
//! [`crate::SimSession::events_processed`]).

/// Why a conservative partition's kept plan no longer holds: the cause
/// its next rebuild is counted under. The first cause since the last
/// build is the one counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Divergence {
    /// A new or restored session: no plan was ever built.
    Fresh,
    /// A job completed off its end estimate.
    Completion,
    /// A running job passed its end estimate.
    Overrun,
    /// A planned job was cancelled.
    Cancel,
    /// An arrival sorted ahead of a planned job.
    Overtaken,
    /// A fair-share re-sort reordered the queue.
    Resort,
    /// The head started where the plan did not start it.
    HeadStart,
}

/// Conservative plan rebuilds, by what made the kept plan diverge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rebuilds {
    /// First builds, in a new or a restored session.
    pub fresh: u64,
    /// After a job completed before or after its end estimate.
    pub completion: u64,
    /// While a running job was past its end estimate.
    pub overrun: u64,
    /// After a planned job was cancelled.
    pub cancel: u64,
    /// After an arrival sorted ahead of a planned job.
    pub overtaken: u64,
    /// After a fair-share re-sort.
    pub resort: u64,
    /// After a head start the plan did not hold.
    pub head_start: u64,
}

impl Rebuilds {
    /// Rebuilds of every cause.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.fresh
            + self.completion
            + self.overrun
            + self.cancel
            + self.overtaken
            + self.resort
            + self.head_start
    }

    /// One more rebuild, made because of `cause`.
    pub(crate) fn count(&mut self, cause: Divergence) {
        *match cause {
            Divergence::Fresh => &mut self.fresh,
            Divergence::Completion => &mut self.completion,
            Divergence::Overrun => &mut self.overrun,
            Divergence::Cancel => &mut self.cancel,
            Divergence::Overtaken => &mut self.overtaken,
            Divergence::Resort => &mut self.resort,
            Divergence::HeadStart => &mut self.head_start,
        } += 1;
    }
}

/// Counts of a session's scheduling passes since it was made or restored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Scheduling passes: one per partition an event touched.
    pub passes: u64,
    /// Jobs started from the head of a queue, the head fitting.
    pub heads_started: u64,
    /// Jobs started behind the head by a backfill pass (EASY or
    /// conservative).
    pub backfills: u64,
    /// Conservative `earliest_fit` + `reserve` pairs.
    pub pairs: u64,
    /// Of those, the pairs the pass could not cut: the first entry it
    /// could still observe was a job without a promise.
    pub forced_pairs: u64,
    /// Breakpoints the pairs' `earliest_fit` read one by one, inside the
    /// spans it could not step over whole.
    pub breakpoints_walked: u64,
    /// Conservative plans built from the release ledger, by cause.
    pub rebuilds: Rebuilds,
    /// Conservative passes that stopped planning with jobs left behind
    /// the cut, none of which could start or needed a promise.
    pub horizon_cuts: u64,
    /// Seconds past the head's shadow time that relaxed EASY backfills
    /// ran to: for each start allowed only by the relaxation budget,
    /// `start + walltime − shadow`.
    pub relaxation_s: u64,
    /// Running jobs entered in a release ledger under their end
    /// estimate: one per start.
    pub keys_inserted: u64,
    /// Completions before their end estimate: the ledger searched its
    /// keys for the units.
    pub keys_removed_by_search: u64,
    /// Completions at or after their end estimate: the clock had already
    /// released the key, and the units came out of the overrun.
    pub keys_released_by_clock: u64,
}
