//! The five calibrated system profiles.
//!
//! Every number here traces back to a statement in the paper (§II Table I,
//! §III Figs. 1–2, §IV Fig. 6, §V Figs. 8–10) or to arithmetic needed to
//! make those statements mutually consistent:
//!
//! * **Mira / Theta** — sparse arrivals (minutes apart), large node-counts,
//!   stable log-normal runtimes with ~1.5 h / ~1 h medians, walltimes
//!   present, long jobs almost always killed (Mira ≈ 99 %).
//! * **Blue Waters** — hybrid: DL-like arrival density (seconds apart),
//!   small median request (~32 cores), heavy-tailed runtimes mixing
//!   sub-minute debug jobs and multi-day runs, highest congestion.
//! * **Philly** — 80 % single-GPU jobs, 12-minute median runtime with a
//!   rare multi-day training tail, 14 isolated virtual clusters, inverted
//!   diurnal pattern (fewer submissions during office hours), strongest
//!   queue-adaptive behaviour.
//! * **Helios** — 90-second median runtime, strong 10× diurnal peak, large
//!   GPU requests up to 2048, long-job-dominated core-hours.
//!
//! The mean arrival gap is **derived**, not hand-set: each profile declares
//! a `target_load` and `SystemProfile::arrival_gap` solves for the gap that
//! offers that load to the machine with the generated user pool.

use lumos_core::{SystemId, SystemSpec};
use lumos_stats::dist::{Discrete, LogNormal, Mixture, Pareto, Sampler};

use crate::profile::{StatusMix, SystemProfile, WalltimePolicy};

/// Uniform-ish diurnal curve with a multiplicative bump over `[from, to)`.
fn diurnal(base: f64, bump: f64, from: usize, to: usize) -> [f64; 24] {
    let mut d = [base; 24];
    for (h, slot) in d.iter_mut().enumerate() {
        if h >= from && h < to {
            *slot = bump;
        }
    }
    d
}

fn boxed<S: Sampler + Send + Sync + 'static>(s: S) -> Box<dyn Sampler + Send + Sync> {
    Box::new(s)
}

/// Mira: big rigid jobs on a 786k-core Blue Gene/Q.
#[must_use]
pub fn mira() -> SystemProfile {
    // Node-count menu (×16 cores/node). >50 % of jobs exceed 1,000 cores by
    // construction (the smallest allocation is 512 nodes = 8,192 cores);
    // small (<10 % of machine) jobs carry ~30 % of core-hours, middle the
    // plurality (Fig. 2).
    let nodes: [(f64, f64); 9] = [
        (512.0, 24.0),
        (1_024.0, 22.0),
        (2_048.0, 14.0),
        (4_096.0, 9.0),
        (8_192.0, 14.0),
        (12_288.0, 10.0),
        (16_384.0, 3.5),
        (24_576.0, 1.5),
        (49_152.0, 0.5),
    ];
    let cores: Vec<(f64, f64)> = nodes.iter().map(|&(n, w)| (n * 16.0, w)).collect();
    SystemProfile {
        spec: SystemSpec::mira(),
        n_users: 120,
        user_zipf: 0.9,
        target_load: 0.84,
        // Slightly busier afternoons, no strong peak (Fig. 1b).
        diurnal: diurnal(0.9, 1.1, 12, 24),
        templates_per_user: (2, 6),
        template_zipf: 1.8,
        off_template_prob: 0.04,
        size_dist: boxed(Discrete::new(&cores)),
        // Median 1.5 h, modest spread: "relatively stable" runtimes.
        runtime_dist: boxed(LogNormal::from_median(5_400.0, 1.1)),
        size_runtime_gamma: 0.0,
        runtime_jitter: 0.03,
        walltime: WalltimePolicy::Estimated {
            lo: 1.2,
            hi: 2.5,
            round_to: 900,
            kill_at_limit: 0.5,
        },
        status_mix: StatusMix::new(0.60, 0.12, 0.28),
        // Long Mira jobs are almost certainly killed (paper: ~99 %).
        kill_length_boost: [0.5, 1.0, 200.0],
        pass_size_boost: [1.0, 1.0, 1.0],
        queue_size_adapt: 0.3,
        queue_runtime_adapt: 0.02,
        expected_max_queue: 30,
        fail_early: (0.02, 0.4),
        kill_stretch: (0.7, 1.4),
    }
}

/// Theta: mid-size Cray XC40; large jobs dominate core-hours
/// (small < 16 %, Fig. 2).
#[must_use]
pub fn theta() -> SystemProfile {
    let nodes: [(f64, f64); 9] = [
        (8.0, 20.0),
        (32.0, 15.0),
        (64.0, 12.0),
        (128.0, 12.0),
        (256.0, 8.0),
        (512.0, 10.0),
        (1_024.0, 8.0),
        (2_048.0, 4.0),
        (4_096.0, 2.0),
    ];
    let cores: Vec<(f64, f64)> = nodes.iter().map(|&(n, w)| (n * 64.0, w)).collect();
    SystemProfile {
        spec: SystemSpec::theta(),
        n_users: 150,
        user_zipf: 0.9,
        target_load: 0.87,
        diurnal: diurnal(0.85, 1.15, 12, 24),
        templates_per_user: (2, 6),
        template_zipf: 1.8,
        off_template_prob: 0.05,
        size_dist: boxed(Discrete::new(&cores)),
        runtime_dist: boxed(LogNormal::from_median(3_600.0, 1.2)),
        size_runtime_gamma: 0.0,
        runtime_jitter: 0.03,
        walltime: WalltimePolicy::Estimated {
            lo: 1.2,
            hi: 2.5,
            round_to: 900,
            kill_at_limit: 0.5,
        },
        status_mix: StatusMix::new(0.58, 0.14, 0.28),
        kill_length_boost: [0.5, 1.0, 30.0],
        pass_size_boost: [1.0, 1.0, 1.0],
        queue_size_adapt: 0.4,
        queue_runtime_adapt: 0.02,
        expected_max_queue: 40,
        fail_early: (0.02, 0.4),
        kill_stretch: (0.7, 1.4),
    }
}

/// Blue Waters: the hybrid — DL-density arrivals, tiny median request,
/// extreme runtime spread, near-saturating load (longest waits, Fig. 4).
#[must_use]
pub fn blue_waters() -> SystemProfile {
    // 10 % single-core jobs; the rest log-normal around a 32-core median.
    // ~90 % of jobs request more than 10 cores; small jobs carry > 85 % of
    // core-hours because nothing comes close to 10 % of the machine.
    let size = Mixture::new(vec![
        (0.10, boxed(LogNormal::from_median(1.0, 0.0))),
        (0.90, boxed(LogNormal::from_median(32.0, 1.2))),
    ]);
    // Hybrid runtime: bulk HPC-like (median 1.5 h, wide), a debug-job mode
    // around a minute, and a multi-day tail.
    let runtime = Mixture::new(vec![
        (0.85, boxed(LogNormal::from_median(5_400.0, 1.6))),
        (0.10, boxed(LogNormal::from_median(60.0, 1.0))),
        (0.05, boxed(LogNormal::from_median(129_600.0, 0.8))),
    ]);
    SystemProfile {
        spec: SystemSpec::blue_waters(),
        n_users: 400,
        user_zipf: 0.9,
        target_load: 1.5,
        diurnal: diurnal(0.75, 1.5, 8, 17),
        templates_per_user: (3, 8),
        template_zipf: 1.5,
        off_template_prob: 0.05,
        size_dist: boxed(size),
        runtime_dist: boxed(runtime),
        size_runtime_gamma: 0.0,
        runtime_jitter: 0.035,
        walltime: WalltimePolicy::Estimated {
            lo: 1.2,
            hi: 2.5,
            round_to: 900,
            kill_at_limit: 0.5,
        },
        status_mix: StatusMix::new(0.655, 0.073, 0.272),
        kill_length_boost: [0.5, 1.0, 20.0],
        pass_size_boost: [1.0, 1.0, 1.0],
        queue_size_adapt: 0.5,
        queue_runtime_adapt: 0.02,
        expected_max_queue: 1_500,
        fail_early: (0.02, 0.4),
        kill_stretch: (0.7, 1.4),
    }
}

/// Philly: 80 % single-GPU jobs, 12-minute median runtime with a rare
/// multi-day training tail, 14 virtual clusters, strongest queue adaptation.
#[must_use]
pub fn philly() -> SystemProfile {
    let gpus: [(f64, f64); 9] = [
        (1.0, 80.0),
        (2.0, 6.0),
        (4.0, 5.0),
        (8.0, 4.0),
        (16.0, 2.0),
        (32.0, 1.0),
        (64.0, 0.4),
        (128.0, 0.15),
        (256.0, 0.05),
    ];
    let runtime = Mixture::new(vec![
        (0.996, boxed(LogNormal::from_median(720.0, 1.6))),
        (0.004, boxed(Pareto::new(86_400.0, 1.3))),
    ]);
    SystemProfile {
        spec: SystemSpec::philly(),
        n_users: 250,
        user_zipf: 0.9,
        target_load: 0.55,
        // Inverted pattern: fewer submissions during office hours,
        // max/min ratio ≈ 2.5 (Fig. 1b).
        diurnal: diurnal(1.5, 0.6, 8, 17),
        templates_per_user: (5, 14),
        template_zipf: 1.1,
        off_template_prob: 0.05,
        size_dist: boxed(Discrete::new(&gpus)),
        runtime_dist: boxed(runtime),
        size_runtime_gamma: 0.15,
        runtime_jitter: 0.04,
        walltime: WalltimePolicy::None,
        status_mix: StatusMix::new(0.60, 0.16, 0.24),
        kill_length_boost: [0.6, 1.5, 15.0],
        // Pass rate drops sharply with GPU count (Fig. 7a).
        pass_size_boost: [1.0, 0.6, 0.35],
        queue_size_adapt: 0.9,
        queue_runtime_adapt: 0.6,
        expected_max_queue: 400,
        fail_early: (0.02, 0.4),
        kill_stretch: (0.7, 1.4),
    }
}

/// Helios: 90-second median runtime, strong 10× diurnal peak, GPU requests
/// up to 2048, long jobs dominate core-hours.
#[must_use]
pub fn helios() -> SystemProfile {
    let gpus: [(f64, f64); 12] = [
        (1.0, 80.0),
        (2.0, 4.0),
        (4.0, 4.0),
        (8.0, 4.0),
        (16.0, 3.0),
        (32.0, 2.0),
        (64.0, 1.5),
        (128.0, 0.8),
        (256.0, 0.4),
        (512.0, 0.2),
        (1_024.0, 0.07),
        (2_048.0, 0.03),
    ];
    let runtime = Mixture::new(vec![
        (0.9963, boxed(LogNormal::from_median(90.0, 2.2))),
        (0.0037, boxed(Pareto::new(86_400.0, 1.3))),
    ]);
    SystemProfile {
        spec: SystemSpec::helios(),
        n_users: 400,
        user_zipf: 0.9,
        target_load: 0.55,
        // Pronounced office-hours peak, ~10× max/min (Fig. 1b).
        diurnal: {
            let mut d = [0.2; 24];
            for slot in d.iter_mut().take(10).skip(8) {
                *slot = 0.8;
            }
            for slot in d.iter_mut().take(20).skip(10) {
                *slot = 2.0;
            }
            for slot in d.iter_mut().take(24).skip(20) {
                *slot = 0.5;
            }
            d
        },
        templates_per_user: (5, 14),
        template_zipf: 1.1,
        off_template_prob: 0.05,
        size_dist: boxed(Discrete::new(&gpus)),
        runtime_dist: boxed(runtime),
        size_runtime_gamma: 0.15,
        runtime_jitter: 0.04,
        walltime: WalltimePolicy::None,
        status_mix: StatusMix::new(0.64, 0.13, 0.23),
        kill_length_boost: [0.6, 1.5, 12.0],
        pass_size_boost: [1.0, 0.65, 0.4],
        queue_size_adapt: 0.7,
        queue_runtime_adapt: 0.6,
        expected_max_queue: 250,
        fail_early: (0.02, 0.4),
        kill_stretch: (0.7, 1.4),
    }
}

/// Returns the calibrated profile for a paper system.
///
/// # Panics
/// Panics for [`SystemId::Custom`].
#[must_use]
pub fn profile_for(id: SystemId) -> SystemProfile {
    match id {
        SystemId::Mira => mira(),
        SystemId::Theta => theta(),
        SystemId::BlueWaters => blue_waters(),
        SystemId::Philly => philly(),
        SystemId::Helios => helios(),
        SystemId::Custom => panic!("no canonical profile for SystemId::Custom"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::UserPool;
    use lumos_stats::Rng;

    #[test]
    fn arrival_gaps_land_in_the_right_regime() {
        // HPC systems arrive minutes apart; BW/DL systems arrive seconds
        // apart — the paper's 10×+ density split (Fig. 1b). The gap is the
        // one `Generator::generate` uses: its pool, its seed fork.
        for seed in 1..=5 {
            for days in 1..=2 {
                let gap = |p: SystemProfile| {
                    let pool = UserPool::build(&p, &mut Rng::new(seed).fork(0xF0F0));
                    p.arrival_gap(&pool, days, 1.0)
                };
                let (m, t, b, ph, he) = (
                    gap(mira()),
                    gap(theta()),
                    gap(blue_waters()),
                    gap(philly()),
                    gap(helios()),
                );
                assert!(m > 200.0, "Mira gap {m}");
                assert!(t > 200.0, "Theta gap {t}");
                assert!(b < 30.0, "Blue Waters gap {b}");
                assert!(ph < 60.0, "Philly gap {ph}");
                assert!(he < 60.0, "Helios gap {he}");
                assert!(m > 10.0 * b, "HPC/hybrid density split");
            }
        }
    }

    #[test]
    fn dl_systems_are_mostly_single_gpu() {
        for p in [philly(), helios()] {
            let mut rng = Rng::new(2);
            let single = (0..20_000)
                .filter(|_| p.sample_procs(&mut rng) == 1)
                .count() as f64
                / 20_000.0;
            assert!(
                (0.75..=0.85).contains(&single),
                "{}: single-GPU fraction {single}",
                p.spec.name
            );
        }
    }

    #[test]
    fn mira_jobs_all_exceed_1000_cores() {
        let p = mira();
        let mut rng = Rng::new(3);
        for _ in 0..5_000 {
            assert!(p.sample_procs(&mut rng) > 1_000);
        }
    }

    #[test]
    fn runtime_medians_follow_the_paper_ordering() {
        // Mira/BW ≈ 1.5 h ≫ Philly ≈ 12 min ≫ Helios ≈ 90 s.
        let med = |p: &SystemProfile, seed| {
            let mut rng = Rng::new(seed);
            let mut xs: Vec<f64> = (0..40_001)
                .map(|_| p.sample_base_runtime(&mut rng, 1))
                .collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            xs[xs.len() / 2]
        };
        let m = med(&mira(), 4);
        let ph = med(&philly(), 5);
        let he = med(&helios(), 6);
        assert!((4_000.0..7_000.0).contains(&m), "Mira median {m}");
        assert!((400.0..1_100.0).contains(&ph), "Philly median {ph}");
        assert!((50.0..150.0).contains(&he), "Helios median {he}");
    }

    #[test]
    fn helios_diurnal_peak_is_strong() {
        let d = helios().normalized_diurnal();
        let max = d.iter().cloned().fold(f64::MIN, f64::max);
        let min = d.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min >= 8.0, "Helios peak ratio {}", max / min);
        let dp = philly().normalized_diurnal();
        let maxp = dp.iter().cloned().fold(f64::MIN, f64::max);
        let minp = dp.iter().cloned().fold(f64::MAX, f64::min);
        assert!(maxp / minp <= 3.0, "Philly ratio {}", maxp / minp);
    }

    #[test]
    fn philly_is_the_only_partitioned_system() {
        assert_eq!(philly().spec.virtual_clusters, 14);
        for p in [mira(), theta(), blue_waters(), helios()] {
            assert_eq!(p.spec.virtual_clusters, 1);
        }
    }

    #[test]
    fn hpc_systems_have_walltimes_dl_systems_do_not() {
        for p in [mira(), theta(), blue_waters()] {
            assert!(matches!(p.walltime, WalltimePolicy::Estimated { .. }));
        }
        for p in [philly(), helios()] {
            assert!(matches!(p.walltime, WalltimePolicy::None));
        }
    }

    #[test]
    fn every_profile_passes_under_70_percent() {
        for p in [mira(), theta(), blue_waters(), philly(), helios()] {
            let total = p.status_mix.pass + p.status_mix.fail + p.status_mix.kill;
            assert!(p.status_mix.pass / total < 0.71, "{}", p.spec.name);
        }
    }
}
