//! [`SystemProfile`] — the complete behavioural parameterisation of one
//! system's workload.
//!
//! Every distributional fact the paper reports about a system maps to one
//! field here; `systems.rs` instantiates the five calibrated profiles.

use lumos_core::SystemSpec;
use lumos_stats::dist::Sampler;
use lumos_stats::Rng;

use crate::user::UserPool;

/// Base Passed / Failed / Killed weights before geometry conditioning
/// (paper §IV: every system passes < 70 % of jobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatusMix {
    /// Weight of Passed.
    pub pass: f64,
    /// Weight of Failed.
    pub fail: f64,
    /// Weight of Killed.
    pub kill: f64,
}

impl StatusMix {
    /// Creates a mix; weights need not sum to 1.
    ///
    /// # Panics
    /// Panics on negative or all-zero weights.
    #[must_use]
    pub fn new(pass: f64, fail: f64, kill: f64) -> Self {
        assert!(pass >= 0.0 && fail >= 0.0 && kill >= 0.0, "negative weight");
        assert!(pass + fail + kill > 0.0, "all-zero status mix");
        Self { pass, fail, kill }
    }
}

/// How user walltime estimates are produced (HPC systems only; the DL traces
/// carry no walltimes, which is why Table II is HPC-only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalltimePolicy {
    /// No walltimes in the trace (Philly, Helios).
    None,
    /// Walltime = runtime × U(lo, hi), rounded up to `round_to` seconds.
    /// Killed jobs hit their walltime with probability `kill_at_limit`.
    Estimated {
        /// Lower bound of the over-estimation factor.
        lo: f64,
        /// Upper bound of the over-estimation factor.
        hi: f64,
        /// Rounding granularity in seconds (e.g. 900 = 15 min).
        round_to: i64,
        /// Probability that a Killed job was killed *by* the walltime limit
        /// (runtime == walltime).
        kill_at_limit: f64,
    },
}

/// Multipliers applied to the Killed weight by intended length class
/// (short, middle, long). Mira's `long` multiplier is huge: the paper
/// observes ~99 % of its long jobs are eventually killed.
pub(crate) type LengthBoost = [f64; 3];

/// Multipliers applied to the Passed weight by size class (small, middle,
/// large). On Philly/Helios the pass rate drops sharply with size; on the
/// HPC systems size is irrelevant to status (paper Fig. 7a).
pub(crate) type SizeBoost = [f64; 3];

/// The full behavioural parameterisation of one system's workload.
pub struct SystemProfile {
    /// Static system description.
    pub spec: SystemSpec,
    /// Number of distinct users to simulate.
    pub n_users: usize,
    /// Zipf exponent for user activity (larger ⇒ heavier heavy-users).
    pub user_zipf: f64,
    /// Fraction of machine capacity the offered load targets (drives
    /// utilization, Fig. 3, and queue depth, Figs. 9/10).
    pub target_load: f64,
    /// Relative arrival intensity per local hour (24 entries, any positive
    /// scale; normalised internally). Encodes the diurnal shapes of Fig. 1b.
    pub diurnal: [f64; 24],
    /// Inclusive range of per-user application templates. Few templates ⇒
    /// highly repeated users (Fig. 8).
    pub templates_per_user: (usize, usize),
    /// Zipf exponent for within-user template popularity. Higher ⇒ the top
    /// 3 groups cover more of the user's jobs.
    pub template_zipf: f64,
    /// Probability a submission ignores the user's templates entirely
    /// (ad-hoc one-off job).
    pub off_template_prob: f64,
    /// Sampler over resource units (cores or GPUs) for template creation.
    pub size_dist: Box<dyn Sampler + Send + Sync>,
    /// Sampler over base runtimes (seconds) for template creation.
    pub runtime_dist: Box<dyn Sampler + Send + Sync>,
    /// Exponent coupling runtime to size (`runtime × procs^gamma`); positive
    /// on DL systems, where multi-GPU jobs are long training runs.
    pub size_runtime_gamma: f64,
    /// Log-normal σ of within-template runtime jitter. Must stay ≲ 0.05 so
    /// repeats land within 10 % of the group mean (the Fig. 8 grouping rule).
    pub runtime_jitter: f64,
    /// Walltime production rule.
    pub walltime: WalltimePolicy,
    /// Base status weights.
    pub status_mix: StatusMix,
    /// Killed-weight multiplier per intended length class.
    pub kill_length_boost: LengthBoost,
    /// Passed-weight multiplier per size class.
    pub pass_size_boost: SizeBoost,
    /// Strength of "submit smaller jobs when the queue is long"
    /// (probability scale, multiplied by queue fraction).
    pub queue_size_adapt: f64,
    /// Strength of "submit shorter jobs when the queue is long"
    /// (runtime shrink factor scale; ≈ 0 on HPC systems, Fig. 10).
    pub queue_runtime_adapt: f64,
    /// Queue length treated as "fully congested" when computing the queue
    /// fraction during generation.
    pub expected_max_queue: usize,
    /// Runtime multiplier range for Failed jobs (they die early, which is
    /// why Failed core-hours undershoot Failed job counts, Fig. 6).
    pub fail_early: (f64, f64),
    /// Runtime multiplier range for Killed jobs relative to intent.
    pub kill_stretch: (f64, f64),
}

impl SystemProfile {
    /// The mean arrival gap (seconds) that offers `target_load ×
    /// load_scale` to the machine over a `span_days` window, calibrated
    /// against the *realised* template pool (status-adjusted), not the raw
    /// distributions: the heavy-tailed size/runtime draws make the pool's
    /// expected demand differ from the distribution mean by large factors.
    /// Runtimes are additionally truncated to their expected overlap with
    /// the trace window — a week-long job submitted into a two-day window
    /// only loads the window with the part that falls inside it.
    #[must_use]
    pub(crate) fn arrival_gap(&self, pool: &UserPool, span_days: u32, load_scale: f64) -> f64 {
        let window = (i64::from(span_days) * 86_400) as f64;
        let expected_demand = pool.expected_demand(|t| {
            let r = t.base_runtime * self.expected_status_runtime_factor(t.procs, t.base_runtime);
            // Uniform arrival in [0, W): E[min(r, W − arrival)].
            let r_eff = if r >= window {
                window / 2.0
            } else {
                r * (1.0 - r / (2.0 * window))
            };
            t.procs as f64 * r_eff
        });
        expected_demand / (self.target_load * load_scale * self.spec.total_units as f64)
    }

    /// Expected multiplier on a template's base runtime once the status
    /// model is applied: failed jobs die early, killed jobs stretch toward
    /// (or hit) their walltime. Used by [`Self::arrival_gap`] so the
    /// offered load accounts for status-conditioned runtimes.
    #[must_use]
    pub(crate) fn expected_status_runtime_factor(&self, procs: u64, base_runtime: f64) -> f64 {
        use lumos_core::{LengthClass, SizeClass};
        let size = SizeClass::classify(procs, &self.spec);
        let length = LengthClass::classify(base_runtime as i64);
        let pass_w = self.status_mix.pass * self.pass_size_boost[size as usize];
        let fail_w = self.status_mix.fail;
        let kill_w = self.status_mix.kill * self.kill_length_boost[length as usize];
        let total = pass_w + fail_w + kill_w;
        let fail_factor = 0.5 * (self.fail_early.0 + self.fail_early.1);
        let kill_factor = match self.walltime {
            WalltimePolicy::Estimated {
                lo,
                hi,
                kill_at_limit,
                ..
            } => {
                let at_limit = 0.5 * (lo + hi);
                let stretched = 0.5 * (self.kill_stretch.0 + self.kill_stretch.1);
                kill_at_limit * at_limit + (1.0 - kill_at_limit) * stretched
            }
            WalltimePolicy::None => 0.5 * (self.kill_stretch.0 + self.kill_stretch.1),
        };
        (pass_w + fail_w * fail_factor + kill_w * kill_factor) / total
    }

    /// Draws a template size (resource units), clamped to the machine.
    #[must_use]
    pub(crate) fn sample_procs(&self, rng: &mut Rng) -> u64 {
        let raw = self.size_dist.sample(rng).round();
        (raw.max(1.0) as u64).min(self.spec.total_units)
    }

    /// Draws a template base runtime (seconds ≥ 1) for a job of `procs`
    /// units, applying the size-runtime coupling.
    #[must_use]
    pub(crate) fn sample_base_runtime(&self, rng: &mut Rng, procs: u64) -> f64 {
        let base = self.runtime_dist.sample(rng);
        let coupled = base * (procs as f64).powf(self.size_runtime_gamma);
        coupled.clamp(1.0, 60.0 * 86_400.0)
    }

    /// Normalised diurnal intensity: entries scaled so the mean is 1.
    #[must_use]
    pub(crate) fn normalized_diurnal(&self) -> [f64; 24] {
        let sum: f64 = self.diurnal.iter().sum();
        assert!(sum > 0.0, "diurnal weights must have positive sum");
        let mean = sum / 24.0;
        let mut out = [0.0; 24];
        for (o, &d) in out.iter_mut().zip(&self.diurnal) {
            assert!(d >= 0.0, "negative diurnal weight");
            *o = d / mean;
        }
        out
    }
}

impl std::fmt::Debug for SystemProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemProfile")
            .field("system", &self.spec.name)
            .field("n_users", &self.n_users)
            .field("target_load", &self.target_load)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;
    use lumos_core::SystemId;

    #[test]
    fn calibrated_gap_scales_inversely_with_load() {
        let mut hi = systems::profile_for(SystemId::Theta);
        let pool = UserPool::build(&hi, &mut Rng::new(1).fork(0xF0F0));
        let gap_base = hi.arrival_gap(&pool, 1, 1.0);
        hi.target_load *= 2.0;
        let gap_double = hi.arrival_gap(&pool, 1, 1.0);
        assert!((gap_base / gap_double - 2.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_diurnal_has_unit_mean() {
        let p = systems::profile_for(SystemId::Helios);
        let d = p.normalized_diurnal();
        let mean: f64 = d.iter().sum::<f64>() / 24.0;
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_procs_respect_capacity() {
        let p = systems::profile_for(SystemId::Philly);
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let procs = p.sample_procs(&mut rng);
            assert!(procs >= 1 && procs <= p.spec.total_units);
        }
    }

    #[test]
    fn sampled_runtimes_are_clamped() {
        let p = systems::profile_for(SystemId::Helios);
        let mut rng = Rng::new(4);
        for _ in 0..10_000 {
            let r = p.sample_base_runtime(&mut rng, 1);
            assert!((1.0..=60.0 * 86_400.0).contains(&r));
        }
    }

    #[test]
    fn status_mix_rejects_bad_weights() {
        let ok = StatusMix::new(0.6, 0.1, 0.3);
        assert!((ok.pass - 0.6).abs() < 1e-12);
        assert!(std::panic::catch_unwind(|| StatusMix::new(0.0, 0.0, 0.0)).is_err());
    }
}
