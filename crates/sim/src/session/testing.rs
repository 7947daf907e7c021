//! The passes as they stood before they were made fast: what a session
//! with `reference_passes` set runs, and the differential tests compare.

use lumos_core::Timestamp;

use super::SimSession;
use crate::backfill::Backfill;
use crate::profile::flat::FlatProfile;

impl SimSession {
    /// The switch: the reference pass for the session's discipline.
    pub(super) fn schedule_reference(&mut self, part: usize, now: Timestamp) {
        match self.config.backfill {
            Backfill::None => {}
            Backfill::Easy => self.schedule_easy_reference(part, now),
            Backfill::Conservative => self.schedule_conservative_reference(part, now),
        }
    }

    /// The candidate loop as it stood before the inline scan: indexed
    /// walk, the three tests spelled out per candidate, a full rescan
    /// after any pass that started something, and the shadow cross-checked
    /// against the profile queries it used to come from. Kept as the
    /// reference the differential tests hold [`SimSession::schedule_easy`]
    /// to.
    fn schedule_easy_reference(&mut self, part: usize, now: Timestamp) {
        loop {
            let (shadow, extra, promise, allowance) = self.easy_reservation(part);
            let p = self.cluster.partition(part);
            let mut profile = FlatProfile::new(0, 0);
            p.ledger().fill(&mut profile);
            let need = p.waiting().first().expect("a head").procs;
            assert_eq!(profile.earliest_forever(now, need), Some(shadow));
            assert_eq!(profile.free_at(shadow) - need, extra);
            let mut extra_remaining = extra;
            let mut started_any = false;
            let mut i = 1usize;
            loop {
                let p = self.cluster.partition(part);
                let Some((at, cand)) = p.waiting().nth(i) else {
                    break;
                };
                if cand.procs <= p.free {
                    let end = now + cand.wall;
                    let harmless = end <= shadow;
                    let in_extra = cand.procs <= extra_remaining;
                    let in_allowance = allowance > 0 && end <= promise + allowance;
                    if harmless || in_extra || in_allowance {
                        if !harmless && in_extra {
                            extra_remaining -= cand.procs;
                        }
                        self.cluster.partition_mut(part).waiting_mut().remove(at);
                        self.start(part, cand.idx, now);
                        started_any = true;
                        continue; // same i now points at the next candidate
                    }
                }
                i += 1;
            }
            if !started_any {
                break;
            }
            self.start_head_while_fits(part, now);
            if self.cluster.partition(part).waiting().is_empty() {
                break;
            }
        }
    }

    /// The pass as it stood before the plan moved onto spans and then
    /// outlived the pass: a full copy of the ledger into one flat
    /// breakpoint list, swept and rewritten per waiting job, every pass.
    /// Kept as the reference the differential tests hold
    /// [`SimSession::schedule_conservative`] to.
    fn schedule_conservative_reference(&mut self, part: usize, now: Timestamp) {
        let mut to_start = std::mem::take(&mut self.scratch_starts);
        to_start.clear();
        let p = self.cluster.partition(part);
        let mut profile = FlatProfile::new(0, 0);
        p.ledger().fill(&mut profile);
        for w in p.waiting().chunks().flatten() {
            let s = profile
                .earliest_fit(now, w.procs, w.wall)
                .expect("procs_eff ≤ partition capacity");
            profile.reserve(s, s + w.wall, w.procs);
            if self.promised[w.idx].is_none() {
                self.promised[w.idx] = Some(s);
            }
            if s == now {
                to_start.push(w.idx);
            }
        }
        self.start_planned(part, now, to_start);
    }
}
