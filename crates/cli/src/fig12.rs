//! Fig. 12 — runtime prediction with/without elapsed time, per system —
//! and the loop §VI.A opens: predicted walltimes fed back to the scheduler.

use lumos_core::SystemId;
use lumos_predict::walltime::{last2_walltimes, perfect_walltimes, user_walltimes};
use lumos_predict::{evaluate_trace, Fig12Row};
use lumos_sim::{simulate_with_walltimes, Policy, SimConfig, SimMetrics};
use lumos_traces::{systems, Generator, GeneratorConfig};
use rayon::prelude::*;
use serde::Serialize;

/// The elapsed points the paper examines: 1/8, 1/4, 1/2 of mean runtime.
pub const ELAPSED_FRACS: [f64; 3] = [0.125, 0.25, 0.5];

/// Fig. 12 rows for one system.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12System {
    /// System name.
    pub system: String,
    /// One row per model × elapsed point.
    pub rows: Vec<Fig12Row>,
}

/// Regenerates Fig. 12 across the suite. `max_instances` caps dataset size
/// per system (the DL traces have tens of thousands of jobs per day).
#[must_use]
pub fn run_fig12(seed: u64, days: u32, max_instances: usize) -> Vec<Fig12System> {
    SystemId::PAPER_SYSTEMS
        .par_iter()
        .map(|&id| {
            let trace = Generator::new(
                systems::profile_for(id),
                GeneratorConfig {
                    seed: seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    span_days: days,
                    ..GeneratorConfig::default()
                },
            )
            .generate();
            Fig12System {
                system: id.name().to_string(),
                rows: evaluate_trace(&trace, &ELAPSED_FRACS, max_instances),
            }
        })
        .collect()
}

/// Prediction-driven backfilling (`lumos ablation-walltime`, paper §VI.A:
/// "schedulers may reversely predict job run time"). One Theta trace is
/// replayed under SJF + EASY with four sources of planning walltimes: the
/// users' requests, Last2 predictions with a 1.5× and a 4× margin, and the
/// actual runtimes (an oracle that bounds what any predictor can buy).
/// Naive Last2 underestimates often, and an underestimate wrecks a backfill
/// plan: the reason §VI.A optimises the underestimate rate first.
#[must_use]
pub fn walltime_ablation(seed: u64, days: u32) -> Vec<(String, SimMetrics)> {
    let trace = Generator::new(
        systems::profile_for(SystemId::Theta),
        GeneratorConfig {
            seed,
            span_days: days,
            ..GeneratorConfig::default()
        },
    )
    .generate();
    let cfg = SimConfig {
        policy: Policy::Sjf,
        ..SimConfig::default()
    };
    [
        ("user walltimes", user_walltimes(&trace, 1.5)),
        ("Last2 x1.5", last2_walltimes(&trace, 1.5)),
        ("Last2 x4", last2_walltimes(&trace, 4.0)),
        ("perfect oracle", perfect_walltimes(&trace)),
    ]
    .into_iter()
    .map(|(name, walltimes)| {
        let metrics = simulate_with_walltimes(&trace, &cfg, &walltimes).metrics;
        (name.to_string(), metrics)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_produces_rows_for_populated_systems() {
        let out = run_fig12(3, 1, 2_000);
        assert_eq!(out.len(), 5);
        // DL systems certainly have enough jobs in one day.
        let helios = out.iter().find(|s| s.system == "Helios").unwrap();
        assert!(!helios.rows.is_empty());
    }
}
