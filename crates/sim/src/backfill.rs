//! Backfilling disciplines and reservation-relaxation rules.
//!
//! * [`Backfill::None`] — the head of the queue blocks everyone behind it.
//! * [`Backfill::Easy`] — EASY (aggressive) backfilling: the head gets a
//!   reservation at its *shadow time*; later jobs may jump ahead if they
//!   finish by the shadow time or fit in the *extra* units the reservation
//!   leaves over.
//! * [`Backfill::Conservative`] — every queued job gets a reservation;
//!   jobs start whenever their planned slot arrives.
//!
//! [`Relax`] loosens the EASY reservation (paper §VI.B): backfill
//! candidates may delay the head's start by up to `factor × expected_wait`
//! *in total*, where the expected wait is anchored at the head's original
//! promise (the shadow time first computed when it became head). Anchoring
//! matters: re-deriving the allowance from the recomputed shadow after each
//! relaxed backfill would compound — every round would relax an
//! already-delayed reservation and cumulative head delay would be
//! unbounded. `Fixed` uses a constant factor (Ward et al.'s relaxed
//! backfilling); `Adaptive` scales the factor by current queue pressure
//! (`base × queue_len / max_queue_len`, the paper's Eq. 1).

use serde::{Deserialize, Serialize};

/// Backfilling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Backfill {
    /// No backfilling.
    None,
    /// EASY (aggressive) backfilling with a single head reservation.
    #[default]
    Easy,
    /// Conservative backfilling: reservations for every queued job.
    Conservative,
}

impl Backfill {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Easy => "EASY",
            Self::Conservative => "conservative",
        }
    }
}

/// Reservation-relaxation rule for EASY backfilling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Relax {
    /// Strict EASY: never delay the reservation.
    #[default]
    Strict,
    /// Relaxed backfilling: allow delaying the head's start by
    /// `factor × expected_wait` (e.g. `0.10` = 10 %).
    Fixed {
        /// Relaxation factor (fraction of the head's expected wait).
        factor: f64,
    },
    /// Adaptive relaxed backfilling (paper Eq. 1): the effective factor is
    /// `base × queue_len / max_queue_len`, so relaxation ramps up exactly
    /// when congestion makes backfilling most profitable (§V.B) and
    /// vanishes when the queue is short.
    Adaptive {
        /// Maximum relaxation factor, reached at peak congestion.
        base: f64,
    },
}

impl Relax {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Strict => "strict",
            Self::Fixed { .. } => "relaxed",
            Self::Adaptive { .. } => "adaptive",
        }
    }

    /// Extra delay (seconds) a backfill candidate may impose on the head's
    /// reservation.
    ///
    /// * `expected_wait` — the head's promised wait
    ///   (`promised start − submit`), the quantity the relaxation threshold
    ///   is a fraction of;
    /// * `queue_len` / `max_queue_len` — current and running-maximum queue
    ///   lengths (the adaptive signal).
    #[must_use]
    pub(crate) fn allowance(
        self,
        expected_wait: i64,
        queue_len: usize,
        max_queue_len: usize,
    ) -> i64 {
        let wait = expected_wait.max(0) as f64;
        let factor = match self {
            Self::Strict => 0.0,
            Self::Fixed { factor } => factor,
            Self::Adaptive { base } => {
                if max_queue_len == 0 {
                    0.0
                } else {
                    base * queue_len as f64 / max_queue_len as f64
                }
            }
        };
        (factor * wait) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_gives_zero_allowance() {
        assert_eq!(Relax::Strict.allowance(10_000, 50, 100), 0);
    }

    #[test]
    fn fixed_is_fraction_of_expected_wait() {
        let r = Relax::Fixed { factor: 0.10 };
        assert_eq!(r.allowance(10_000, 1, 100), 1_000);
        assert_eq!(r.allowance(10_000, 99, 100), 1_000, "queue-independent");
    }

    #[test]
    fn adaptive_scales_with_queue_pressure() {
        let r = Relax::Adaptive { base: 0.10 };
        assert_eq!(r.allowance(10_000, 0, 100), 0);
        assert_eq!(r.allowance(10_000, 50, 100), 500);
        assert_eq!(r.allowance(10_000, 100, 100), 1_000);
    }

    #[test]
    fn adaptive_with_no_history_is_strict() {
        let r = Relax::Adaptive { base: 0.10 };
        assert_eq!(r.allowance(10_000, 5, 0), 0);
    }

    #[test]
    fn negative_expected_wait_is_clamped() {
        let r = Relax::Fixed { factor: 0.5 };
        assert_eq!(r.allowance(-100, 1, 1), 0);
    }
}
