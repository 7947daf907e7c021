//! Time primitives.
//!
//! All timestamps and durations in the workspace are integer **seconds**.
//! Job traces (SWF and the published Mira/Theta/Philly/Helios traces) are
//! second-granular; integers keep event ordering exact and hashable.

/// A point in time, in seconds since the trace epoch (or UNIX epoch for
/// real traces).
pub type Timestamp = i64;

/// A span of time, in seconds.
pub type Duration = i64;

/// One minute, in seconds.
pub(crate) const MINUTE: Duration = 60;

/// One hour, in seconds.
pub const HOUR: Duration = 3_600;

/// One day, in seconds.
pub const DAY: Duration = 86_400;

/// The largest timestamp or duration taken from outside the program: 2⁴⁰
/// seconds, some 34 800 years. Far beyond any trace, and small enough
/// that the sums a scheduler forms — a start plus a walltime, or the
/// reservations of millions of queued jobs end to end — stay far from
/// the `i64` range, where a debug build panics and a release build wraps
/// into the past.
pub const MAX_TIME: Timestamp = 1 << 40;

/// Returns the local hour of day (`0..=23`) for `t`, where `tz_offset` is the
/// system's offset from the trace clock in seconds (e.g. `-6 * HOUR` for a
/// Central-Time cluster driven by a UTC trace clock).
///
/// Paper §III.A plots job arrival counts per local hour (Fig. 1b bottom);
/// the per-system timezone matters because Mira/Theta are Central Time while
/// Philly is Pacific Time.
///
/// ```
/// use lumos_core::time::{hour_of_day, HOUR};
/// assert_eq!(hour_of_day(0, 0), 0);
/// assert_eq!(hour_of_day(3 * HOUR + 59, 0), 3);
/// assert_eq!(hour_of_day(0, -6 * HOUR), 18); // 00:00 UTC is 18:00 CST
/// ```
#[must_use]
pub fn hour_of_day(t: Timestamp, tz_offset: Duration) -> u8 {
    let local = t + tz_offset;
    let secs_in_day = local.rem_euclid(DAY);
    (secs_in_day / HOUR) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_of_day_wraps_across_midnight() {
        assert_eq!(hour_of_day(DAY - 1, 0), 23);
        assert_eq!(hour_of_day(DAY, 0), 0);
        assert_eq!(hour_of_day(DAY + HOUR, 0), 1);
    }

    #[test]
    fn hour_of_day_handles_negative_offsets() {
        // 02:00 trace time in a -6h zone is 20:00 the previous day.
        assert_eq!(hour_of_day(2 * HOUR, -6 * HOUR), 20);
    }

    #[test]
    fn hour_of_day_handles_positive_offsets() {
        assert_eq!(hour_of_day(23 * HOUR, 2 * HOUR), 1);
    }
}
