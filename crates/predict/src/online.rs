//! Incremental (streaming) walltime predictors for the serving loop.
//!
//! The batch providers in [`crate::walltime`] consume a whole [`Trace`]
//! and emit one estimate per job. A live scheduler cannot do that: jobs
//! arrive one at a time and the predictor must answer *before* the next
//! submission, from state it carries forward. This module provides that
//! form — a [`Predictor`] is fed completions via [`Predictor::observe`]
//! and asked for planning walltimes via [`Predictor::predict`], holding
//! constant state per user (last two runtimes) plus a running global mean.
//! Estimates for a job may use only jobs submitted before it — callers
//! `predict` first and `observe` after (strictly online, no leakage of
//! the job's own runtime).
//!
//! Two invariants matter for `lumos-serve`:
//!
//! * **Batch parity** — driving a streaming predictor over a trace in
//!   submission order reproduces [`crate::walltime::last2_walltimes`] /
//!   [`crate::walltime::user_walltimes`] exactly (those functions now
//!   delegate here), so an online, predictor-enabled server reports the
//!   same schedule as `simulate_with_walltimes` on the identical arrivals.
//! * **Determinism + serializability** — state is plain data with a
//!   canonical (user-sorted) layout, so it can be checkpointed next to a
//!   session snapshot and rebuilt by journal replay into a byte-identical
//!   predictor.
//!
//! [`Trace`]: lumos_core::Trace

use lumos_core::{Duration, UserId};
use serde::{Deserialize, Serialize};

/// The cold-start estimate (seconds) for the very first job, before any
/// runtime has been observed: one hour, the classic default.
pub(crate) const COLD_START_WALLTIME: f64 = 3_600.0;

/// Floor (seconds) applied to every model-derived estimate.
pub(crate) const MIN_WALLTIME: Duration = 60;

/// Per-user runtime history: the user's last two observed runtimes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct UserHistory {
    /// The user id (the `users` table is sorted by it).
    user: UserId,
    /// Most recent observed runtime.
    last: f64,
    /// Second most recent observed runtime, once there are two.
    prev: Option<f64>,
}

/// Streaming Last2 predictor (Tsafrir-style): the mean of the user's last
/// two observed runtimes × a safety margin, falling back to the running
/// global mean for first-time users and to `COLD_START_WALLTIME` before
/// any observation. Mirrors [`crate::walltime::last2_walltimes`] exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Last2Online {
    /// Multiplicative safety margin (underestimates are the dangerous
    /// direction; paper §VI.A).
    margin: f64,
    /// Jobs absorbed into the running global mean.
    seen: u64,
    /// Sum of all observed runtimes.
    global_sum: f64,
    /// Per-user histories, sorted by user id (canonical layout so equal
    /// state serializes identically).
    users: Vec<UserHistory>,
}

impl Last2Online {
    /// Creates an empty predictor with the given safety `margin`.
    ///
    /// # Panics
    /// Panics if `margin <= 0`.
    #[must_use]
    pub fn new(margin: f64) -> Self {
        assert!(margin > 0.0, "safety margin must be positive");
        Self {
            margin,
            seen: 0,
            global_sum: 0.0,
            users: Vec::new(),
        }
    }

    /// The configured safety margin.
    #[must_use]
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Completions observed so far.
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.seen
    }

    /// Planning walltime (seconds) for the next job of `user`; the
    /// client's `requested` walltime is ignored.
    #[must_use]
    pub fn predict(&self, user: UserId, _requested: Option<Duration>) -> Duration {
        let base = match self.users.binary_search_by_key(&user, |h| h.user) {
            Ok(i) => {
                let h = &self.users[i];
                match h.prev {
                    Some(prev) => 0.5 * (h.last + prev),
                    None => h.last,
                }
            }
            Err(_) if self.seen > 0 => self.global_sum / self.seen as f64,
            Err(_) => COLD_START_WALLTIME,
        };
        ((base * self.margin) as Duration).max(MIN_WALLTIME)
    }

    /// Absorbs an observed runtime for `user` (floored at 1 s, matching
    /// the batch providers).
    pub fn observe(&mut self, user: UserId, runtime: Duration) {
        let runtime = runtime.max(1) as f64;
        match self.users.binary_search_by_key(&user, |h| h.user) {
            Ok(i) => {
                let h = &mut self.users[i];
                h.prev = Some(h.last);
                h.last = runtime;
            }
            Err(i) => self.users.insert(
                i,
                UserHistory {
                    user,
                    last: runtime,
                    prev: None,
                },
            ),
        }
        self.global_sum += runtime;
        self.seen += 1;
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        "last2"
    }
}

/// Pass-through provider: trusts the client's requested walltime and falls
/// back to a [`Last2Online`] estimate when none was supplied. Mirrors
/// [`crate::walltime::user_walltimes`] exactly (the margin applies only to
/// the fallback, never to a user-supplied value).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserOnline {
    /// Fallback model for jobs submitted without a walltime.
    fallback: Last2Online,
}

impl UserOnline {
    /// Creates a pass-through provider whose fallback uses `margin`.
    ///
    /// # Panics
    /// Panics if `margin <= 0`.
    #[must_use]
    pub fn new(margin: f64) -> Self {
        Self {
            fallback: Last2Online::new(margin),
        }
    }

    /// Planning walltime (seconds) for the next job of `user`: the
    /// client's `requested` walltime when there is one.
    #[must_use]
    pub fn predict(&self, user: UserId, requested: Option<Duration>) -> Duration {
        match requested {
            Some(w) => w,
            None => self.fallback.predict(user, None),
        }
    }

    /// Absorbs an observed runtime for `user` into the fallback.
    pub fn observe(&mut self, user: UserId, runtime: Duration) {
        self.fallback.observe(user, runtime);
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        "user"
    }
}

/// Which predictor a server runs, with its safety margin. The plain-data
/// counterpart of [`Predictor`] — journaled in the configuration header so
/// recovery can detect drift and virgin replays can adopt it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PredictorConfig {
    /// Streaming Last2 with the given margin; overrides client walltimes.
    Last2 {
        /// Multiplicative safety margin.
        margin: f64,
    },
    /// Trust client walltimes; Last2(margin) only as the missing-walltime
    /// fallback.
    User {
        /// Multiplicative safety margin (fallback only).
        margin: f64,
    },
}

impl PredictorConfig {
    /// Parses the CLI syntax `last2[:MARGIN]`, `user[:MARGIN]`, or `off`
    /// (→ `None`). The margin defaults to 1.0 and must be a positive
    /// finite number.
    ///
    /// # Errors
    /// Returns a human-readable message for unknown modes or bad margins.
    pub fn parse(s: &str) -> Result<Option<Self>, String> {
        if s == "off" {
            return Ok(None);
        }
        let (kind, margin) = match s.split_once(':') {
            Some((k, m)) => {
                let margin: f64 = m
                    .parse()
                    .map_err(|e| format!("bad predictor margin `{m}`: {e}"))?;
                (k, margin)
            }
            None => (s, 1.0),
        };
        if !margin.is_finite() || margin <= 0.0 {
            return Err(format!(
                "predictor margin must be a positive finite number, got {margin}"
            ));
        }
        match kind {
            "last2" => Ok(Some(Self::Last2 { margin })),
            "user" => Ok(Some(Self::User { margin })),
            other => Err(format!(
                "unknown predictor `{other}` (expected last2[:MARGIN], user[:MARGIN], or off)"
            )),
        }
    }

    /// Display name of the configured mode.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Last2 { .. } => "last2",
            Self::User { .. } => "user",
        }
    }

    /// The configured safety margin.
    #[must_use]
    pub fn margin(self) -> f64 {
        match self {
            Self::Last2 { margin } | Self::User { margin } => margin,
        }
    }
}

/// A running predictor with its full streaming state — the serializable
/// dispatch over [`Last2Online`] and [`UserOnline`], built
/// from a [`PredictorConfig`] and checkpointed next to session snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predictor {
    /// Streaming Last2 state.
    Last2(Last2Online),
    /// Pass-through state (Last2 fallback inside).
    User(UserOnline),
}

impl Predictor {
    /// Creates an empty predictor for `config`.
    #[must_use]
    pub fn new(config: PredictorConfig) -> Self {
        match config {
            PredictorConfig::Last2 { margin } => Self::Last2(Last2Online::new(margin)),
            PredictorConfig::User { margin } => Self::User(UserOnline::new(margin)),
        }
    }

    /// The plain-data configuration this predictor was built from.
    #[must_use]
    pub fn config(&self) -> PredictorConfig {
        match self {
            Self::Last2(p) => PredictorConfig::Last2 { margin: p.margin() },
            Self::User(p) => PredictorConfig::User {
                margin: p.fallback.margin(),
            },
        }
    }

    /// Planning walltime (seconds) for the next job of `user`.
    /// `requested` is the walltime the client supplied, if any.
    #[must_use]
    pub fn predict(&self, user: UserId, requested: Option<Duration>) -> Duration {
        match self {
            Self::Last2(p) => p.predict(user, requested),
            Self::User(p) => p.predict(user, requested),
        }
    }

    /// Absorbs an observed runtime for `user`.
    pub fn observe(&mut self, user: UserId, runtime: Duration) {
        match self {
            Self::Last2(p) => p.observe(user, runtime),
            Self::User(p) => p.observe(user, runtime),
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Last2(p) => p.name(),
            Self::User(p) => p.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walltime::{last2_walltimes, user_walltimes};
    use lumos_core::{Job, SystemSpec, Trace};

    fn trace(runtimes: &[(u32, i64)]) -> Trace {
        let jobs: Vec<Job> = runtimes
            .iter()
            .enumerate()
            .map(|(i, &(user, rt))| Job::basic(i as u64, user, i as i64 * 10, rt, 8))
            .collect();
        Trace::new(SystemSpec::theta(), jobs).unwrap()
    }

    #[test]
    fn streaming_last2_matches_batch_provider() {
        let t = trace(&[
            (1, 100),
            (2, 50),
            (1, 200),
            (3, 0),
            (2, 7_200),
            (1, 400),
            (3, 30),
            (3, 90),
        ]);
        for margin in [1.0, 1.5, 2.0] {
            let batch = last2_walltimes(&t, margin);
            let mut p = Last2Online::new(margin);
            for (j, &expect) in t.jobs().iter().zip(&batch) {
                assert_eq!(p.predict(j.user, j.walltime), expect);
                p.observe(j.user, j.runtime);
            }
        }
    }

    #[test]
    fn streaming_user_matches_batch_provider() {
        let mut jobs = vec![
            Job::basic(0, 1, 0, 100, 8),
            Job::basic(1, 2, 10, 300, 8),
            Job::basic(2, 1, 20, 250, 8),
        ];
        jobs[1].walltime = Some(999);
        let t = Trace::new(SystemSpec::theta(), jobs).unwrap();
        let batch = user_walltimes(&t, 1.2);
        let mut p = UserOnline::new(1.2);
        for (j, &expect) in t.jobs().iter().zip(&batch) {
            assert_eq!(p.predict(j.user, j.walltime), expect);
            p.observe(j.user, j.runtime);
        }
    }

    #[test]
    fn cold_start_and_floor() {
        let p = Last2Online::new(1.0);
        assert_eq!(p.predict(1, None), 3_600);
        let mut p = Last2Online::new(1.0);
        p.observe(1, 2);
        assert_eq!(p.predict(1, None), 60, "estimates are floored at a minute");
    }

    #[test]
    fn state_round_trips_through_json() {
        let mut p = Predictor::new(PredictorConfig::Last2 { margin: 1.5 });
        for (u, rt) in [(3u32, 120i64), (1, 50), (3, 700), (2, 10)] {
            p.observe(u, rt);
        }
        let json = serde_json::to_string(&p).unwrap();
        let back: Predictor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.predict(3, None), p.predict(3, None));
    }

    #[test]
    fn config_parsing() {
        assert_eq!(PredictorConfig::parse("off").unwrap(), None);
        assert_eq!(
            PredictorConfig::parse("last2").unwrap(),
            Some(PredictorConfig::Last2 { margin: 1.0 })
        );
        assert_eq!(
            PredictorConfig::parse("last2:1.5").unwrap(),
            Some(PredictorConfig::Last2 { margin: 1.5 })
        );
        assert_eq!(
            PredictorConfig::parse("user:2").unwrap(),
            Some(PredictorConfig::User { margin: 2.0 })
        );
        assert!(PredictorConfig::parse("last2:-1").is_err());
        assert!(PredictorConfig::parse("last2:nope").is_err());
        assert!(PredictorConfig::parse("oracle").is_err());
    }
}
