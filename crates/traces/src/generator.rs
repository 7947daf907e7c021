//! The behavioural trace generator.
//!
//! Couples four processes into one deterministic stream:
//!
//! 1. a **diurnally-modulated Poisson arrival process** (thinning),
//! 2. a **Zipf user population** with per-user application templates
//!    (`user::UserPool`),
//! 3. a **live FCFS backlog model** (`queue::FeedbackQueue`) whose
//!    congestion signal modulates what users submit (paper §V.B), and
//! 4. a **status model** conditioning Passed/Failed/Killed on the job's
//!    intended geometry (paper §IV) and then re-conditioning runtime on the
//!    drawn status (failed jobs die early; some killed jobs hit their
//!    walltime).

use lumos_core::{Job, JobStatus, LengthClass, SizeClass, SystemKind, Timestamp, Trace};
use lumos_stats::Rng;

use crate::profile::{SystemProfile, WalltimePolicy};
use crate::queue::FeedbackCluster;
use crate::user::UserPool;

/// Generation knobs independent of the system profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Master seed: fully determines the trace.
    pub seed: u64,
    /// Trace window length in days.
    pub span_days: u32,
    /// Multiplier on the profile's `target_load` (ablation knob).
    pub load_scale: f64,
    /// When false, the queue-feedback behaviours are disabled: users submit
    /// the same mix regardless of congestion (`lumos ablation-feedback`).
    pub queue_feedback: bool,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            span_days: 7,
            load_scale: 1.0,
            queue_feedback: true,
        }
    }
}

/// A configured generator; `generate` is pure in `(profile, config)`.
pub struct Generator {
    profile: SystemProfile,
    config: GeneratorConfig,
}

impl Generator {
    /// Creates a generator.
    #[must_use]
    pub fn new(profile: SystemProfile, config: GeneratorConfig) -> Self {
        Self { profile, config }
    }

    /// Generates the trace.
    ///
    /// # Panics
    /// Panics if the configuration produces no jobs (zero-day span) or an
    /// invalid system spec — both programming errors, not data errors.
    #[must_use]
    pub fn generate(&self) -> Trace {
        let p = &self.profile;
        let cfg = &self.config;
        assert!(cfg.span_days > 0, "span must be at least one day");
        assert!(cfg.load_scale > 0.0, "load_scale must be positive");

        let mut rng = Rng::new(cfg.seed);
        let mut pool_rng = rng.fork(0xF0F0);
        let pool = UserPool::build(p, &mut pool_rng);

        let gap = p.arrival_gap(&pool, cfg.span_days, cfg.load_scale);
        let base_rate = 1.0 / gap;
        let diurnal = p.normalized_diurnal();
        let lambda_max = base_rate * diurnal.iter().cloned().fold(f64::MIN, f64::max);

        let span: Timestamp = i64::from(cfg.span_days) * 86_400;
        let partitions = match p.spec.kind {
            lumos_core::SystemKind::DlCluster => p.spec.virtual_clusters.max(1),
            _ => 1,
        };
        let mut queue = FeedbackCluster::new(p.spec.total_units, partitions);

        let mut jobs = Vec::with_capacity((span as f64 / gap * 1.1) as usize);
        let mut t = 0.0f64;
        let mut id = 0u64;

        loop {
            // Thinned non-homogeneous Poisson arrivals.
            t += -rng.next_f64_open().ln() / lambda_max;
            if t >= span as f64 {
                break;
            }
            let now = t as Timestamp;
            let hour = lumos_core::hour_of_day(now, p.spec.tz_offset) as usize;
            if !rng.chance(diurnal[hour] / (lambda_max / base_rate)) {
                continue;
            }

            queue.advance(now);
            let user = pool.pick(&mut rng);
            let congestion = if cfg.queue_feedback {
                queue.congestion(user.virtual_cluster, p.expected_max_queue)
            } else {
                0.0
            };

            let job = self.make_job(id, user, now, congestion, &mut rng);
            queue.submit(user.virtual_cluster, now, job.procs, job.runtime.max(1));
            jobs.push(job);
            id += 1;
        }

        Trace::new(p.spec.clone(), jobs).expect("generator produced a valid trace")
    }

    /// Builds one job for `user` at `now` under the given congestion signal.
    fn make_job(
        &self,
        id: u64,
        user: &crate::user::UserModel,
        now: Timestamp,
        congestion: f64,
        rng: &mut Rng,
    ) -> Job {
        let p = &self.profile;

        // --- Template choice, with congestion-driven downsizing (§V.B). ---
        let (flo, fhi) = p.fail_early;
        let (klo, khi) = p.kill_stretch;
        let fresh_template = |rng: &mut Rng| {
            let procs = p.sample_procs(rng);
            let walltime_factor = match p.walltime {
                WalltimePolicy::Estimated { lo, hi, .. } => lo + (hi - lo) * rng.next_f64(),
                WalltimePolicy::None => 1.5,
            };
            crate::user::Template {
                procs,
                base_runtime: p.sample_base_runtime(rng, procs),
                fail_factor: flo + (fhi - flo) * rng.next_f64(),
                kill_factor: klo + (khi - klo) * rng.next_f64(),
                walltime_factor,
            }
        };
        let mut template = if rng.chance(p.off_template_prob) {
            fresh_template(rng)
        } else {
            *user.pick_template(rng)
        };
        // Congestion adaptation reuses *real* templates rather than scaling
        // sizes/runtimes — users fall back to configurations they already
        // run, which keeps the Fig. 8 resource-configuration groups intact.
        if rng.chance(p.queue_size_adapt * congestion) {
            // Fall back to the smallest configuration; on GPU systems that
            // frequently collapses to a single device.
            template = *user.smallest_template();
            if rng.chance(0.7 * congestion) {
                template.procs = 1;
            }
        } else if rng.chance(p.queue_runtime_adapt * congestion) {
            // DL users also shorten jobs when the system is busy (Fig. 10);
            // the HPC profiles set `queue_runtime_adapt ≈ 0`.
            template = *user.shortest_template();
        }
        let procs = template.procs;
        let base_runtime = template.base_runtime;

        // Per-submission jitter, small enough to stay inside the 10 %
        // resource-configuration grouping window (Fig. 8).
        let intended = (base_runtime * (p.runtime_jitter * rng.next_gaussian()).exp())
            .clamp(1.0, 60.0 * 86_400.0);

        // --- Status, conditioned on intended geometry (§IV.B). ---
        let size_class = SizeClass::classify(procs, &p.spec);
        let length_class = LengthClass::classify(intended as i64);
        let pass_w = p.status_mix.pass * p.pass_size_boost[size_class as usize];
        let fail_w = p.status_mix.fail;
        let kill_w = p.status_mix.kill * p.kill_length_boost[length_class as usize];
        let total = pass_w + fail_w + kill_w;
        let x = rng.next_f64() * total;
        let status = if x < pass_w {
            JobStatus::Passed
        } else if x < pass_w + fail_w {
            JobStatus::Failed
        } else {
            JobStatus::Killed
        };

        // --- Walltime (HPC only), from the *intended* runtime, with the
        // template's habitual over-estimation factor. ---
        let walltime = match p.walltime {
            WalltimePolicy::None => None,
            WalltimePolicy::Estimated { round_to, .. } => {
                let raw = (intended * template.walltime_factor) as i64;
                let rounded = raw.div_euclid(round_to) * round_to + round_to;
                Some(rounded.max(intended as i64 + 60))
            }
        };

        // --- Final runtime, re-conditioned on status (Figs. 6, 11). ---
        // The fail/kill points come from the *template*: a buggy application
        // crashes at the same spot every rerun, so failed submissions still
        // cluster into their resource-configuration group (Fig. 8) and per-
        // user violins show separated status modes (Fig. 11).
        let runtime = match status {
            JobStatus::Passed => intended as i64,
            JobStatus::Failed => ((intended * template.fail_factor) as i64).max(1),
            JobStatus::Killed => {
                let at_limit = match p.walltime {
                    WalltimePolicy::Estimated { kill_at_limit, .. } => rng.chance(kill_at_limit),
                    WalltimePolicy::None => false,
                };
                if at_limit {
                    walltime.expect("at_limit implies walltime")
                } else {
                    let stretched = ((intended * template.kill_factor) as i64).max(1);
                    match walltime {
                        Some(wt) => stretched.min(wt),
                        None => stretched,
                    }
                }
            }
        };

        let units_per_node = u64::from(p.spec.units_per_node);
        let nodes = procs.div_ceil(units_per_node).max(1) as u32;

        Job {
            id,
            user: user.id,
            submit: now,
            wait: None,
            runtime,
            walltime,
            procs,
            nodes,
            status,
            virtual_cluster: match p.spec.kind {
                SystemKind::DlCluster if p.spec.virtual_clusters > 1 => user.virtual_cluster,
                _ => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;
    use lumos_core::SystemId;

    fn gen(id: SystemId, seed: u64, days: u32) -> Trace {
        Generator::new(
            systems::profile_for(id),
            GeneratorConfig {
                seed,
                span_days: days,
                ..GeneratorConfig::default()
            },
        )
        .generate()
    }

    #[test]
    fn deterministic() {
        let a = gen(SystemId::Philly, 1, 1);
        let b = gen(SystemId::Philly, 1, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = gen(SystemId::Philly, 1, 1);
        let b = gen(SystemId::Philly, 2, 1);
        assert_ne!(a.len(), 0);
        assert_ne!(
            a.jobs().first().map(|j| j.runtime),
            b.jobs().first().map(|j| j.runtime)
        );
    }

    #[test]
    fn jobs_are_sorted_and_in_window() {
        let t = gen(SystemId::Helios, 3, 2);
        let span = 2 * 86_400;
        let mut prev = i64::MIN;
        for j in t.jobs() {
            assert!(j.submit >= prev);
            assert!(j.submit < span);
            prev = j.submit;
        }
    }

    #[test]
    fn hpc_jobs_have_walltimes_covering_passed_runtimes() {
        let t = gen(SystemId::Theta, 4, 2);
        for j in t.jobs() {
            let wt = j.walltime.expect("Theta jobs carry walltimes");
            assert!(wt >= 60);
            if j.status == JobStatus::Passed {
                assert!(wt >= j.runtime, "walltime {wt} < runtime {}", j.runtime);
            } else {
                assert!(j.runtime <= wt, "killed/failed ran past walltime");
            }
        }
    }

    #[test]
    fn dl_jobs_have_no_walltime_and_carry_vc_only_on_philly() {
        let philly = gen(SystemId::Philly, 5, 1);
        assert!(philly.jobs().iter().all(|j| j.walltime.is_none()));
        assert!(philly.jobs().iter().all(|j| j.virtual_cluster.is_some()));
        let vcs: std::collections::HashSet<u16> = philly
            .jobs()
            .iter()
            .filter_map(|j| j.virtual_cluster)
            .collect();
        assert!(vcs.len() >= 10, "expected many VCs, got {}", vcs.len());

        let helios = gen(SystemId::Helios, 5, 1);
        assert!(helios.jobs().iter().all(|j| j.virtual_cluster.is_none()));
    }

    #[test]
    fn job_count_scales_with_span() {
        let one = gen(SystemId::Helios, 6, 1).len() as f64;
        let three = gen(SystemId::Helios, 6, 3).len() as f64;
        assert!((three / one - 3.0).abs() < 0.5, "1d={one} 3d={three}");
    }

    #[test]
    fn load_scale_scales_job_count() {
        let base = gen(SystemId::Theta, 7, 4).len() as f64;
        let double = Generator::new(
            systems::profile_for(SystemId::Theta),
            GeneratorConfig {
                seed: 7,
                span_days: 4,
                load_scale: 2.0,
                ..GeneratorConfig::default()
            },
        )
        .generate()
        .len() as f64;
        assert!(
            (double / base - 2.0).abs() < 0.4,
            "base={base} double={double}"
        );
    }

    #[test]
    fn failed_jobs_run_shorter_than_passed_on_average() {
        let t = gen(SystemId::BlueWaters, 8, 2);
        let mean = |s: JobStatus| {
            let xs: Vec<f64> = t
                .jobs()
                .iter()
                .filter(|j| j.status == s)
                .map(|j| j.runtime as f64)
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        assert!(mean(JobStatus::Failed) < 0.6 * mean(JobStatus::Passed));
    }

    #[test]
    fn every_status_appears() {
        let t = gen(SystemId::Mira, 9, 3);
        for s in JobStatus::ALL {
            assert!(t.count_status(s) > 0, "missing {s:?}");
        }
    }
}
