//! Table II — adaptive relaxed backfilling (paper §VI.B).
//!
//! On the three walltime-carrying systems (Blue Waters, Mira, Theta),
//! compare fixed relaxed backfilling (factor 10 %) against the adaptive
//! variant (Eq. 1: `10 % × queue_len / max_queue_len`) on `wait`, `bsld`,
//! `util`, and `violation`. The paper reports the adaptive mechanism
//! cutting violations by 5–49 % at ≤ few-% cost on the other metrics.

use lumos_core::SystemId;
use lumos_sim::{simulate, Backfill, Policy, Relax, SimConfig, SimMetrics};
use lumos_traces::{systems, Generator, GeneratorConfig};
use rayon::prelude::*;
use serde::Serialize;

/// The systems Table II covers (DL traces carry no walltimes).
pub(crate) const TABLE2_SYSTEMS: [SystemId; 3] =
    [SystemId::BlueWaters, SystemId::Mira, SystemId::Theta];

/// One Table II block: a system under both relaxation rules.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// System name.
    pub system: String,
    /// Jobs simulated.
    pub jobs: usize,
    /// Fixed relaxed backfilling (factor = `base`).
    pub relaxed: SimMetrics,
    /// Adaptive relaxed backfilling (Eq. 1, same `base`).
    pub adaptive: SimMetrics,
    /// Relaxation base factor used.
    pub base_factor: f64,
}

impl Table2Row {
    /// Percentage improvement of adaptive over relaxed on a metric
    /// (positive = adaptive better, i.e. smaller wait/bsld/violation or
    /// larger util).
    #[must_use]
    pub(crate) fn improvement(&self, metric: &str) -> f64 {
        let (r, a, smaller_better) = match metric {
            "wait" => (self.relaxed.mean_wait, self.adaptive.mean_wait, true),
            "bsld" => (self.relaxed.mean_bsld, self.adaptive.mean_bsld, true),
            "util" => (self.relaxed.util, self.adaptive.util, false),
            "violation" => (self.relaxed.violation, self.adaptive.violation, true),
            other => panic!("unknown metric {other}"),
        };
        if r == 0.0 {
            return 0.0;
        }
        if smaller_better {
            (r - a) / r * 100.0
        } else {
            (a - r) / r * 100.0
        }
    }
}

/// Span multiplier for the sparse-arrival HPC systems: Mira/Theta receive
/// only a couple hundred jobs per day, so Table II gives them 8× the
/// window Blue Waters gets for comparable statistical weight.
#[must_use]
pub(crate) fn span_for(id: SystemId, days: u32) -> u32 {
    match id {
        SystemId::Mira | SystemId::Theta => days * 8,
        _ => days,
    }
}

/// Runs one system under one relaxation rule.
#[must_use]
pub(crate) fn run_system(id: SystemId, seed: u64, days: u32, relax: Relax) -> SimMetrics {
    let trace = Generator::new(
        systems::profile_for(id),
        GeneratorConfig {
            seed,
            span_days: span_for(id, days),
            ..GeneratorConfig::default()
        },
    )
    .generate();
    let cfg = SimConfig {
        policy: Policy::Fcfs,
        backfill: Backfill::Easy,
        relax,
        ..SimConfig::default()
    };
    simulate(&trace, &cfg).metrics
}

/// The independent simulation cells of the Table II grid: every
/// `(system, relaxation rule)` pair, fixed rule first.
#[must_use]
pub(crate) fn table2_cells(base_factor: f64) -> Vec<(SystemId, Relax)> {
    TABLE2_SYSTEMS
        .iter()
        .flat_map(|&id| {
            [
                (
                    id,
                    Relax::Fixed {
                        factor: base_factor,
                    },
                ),
                (id, Relax::Adaptive { base: base_factor }),
            ]
        })
        .collect()
}

/// Regenerates Table II.
///
/// Fans the pool over all six `(system, rule)` cells rather
/// than three system tasks of two sequential runs each: every cell is an
/// independent simulation, so the critical path is one cell, not two.
/// Results are reassembled by index, which keeps the output deterministic
/// and identical at any thread count.
#[must_use]
pub fn run_table2(seed: u64, days: u32, base_factor: f64) -> Vec<Table2Row> {
    let cells = table2_cells(base_factor);
    let metrics: Vec<SimMetrics> = cells
        .par_iter()
        .map(|&(id, relax)| run_system(id, seed, days, relax))
        .collect();
    TABLE2_SYSTEMS
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let relaxed = metrics[2 * i].clone();
            let adaptive = metrics[2 * i + 1].clone();
            Table2Row {
                system: id.name().to_string(),
                jobs: relaxed.jobs,
                relaxed,
                adaptive,
                base_factor,
            }
        })
        .collect()
}

/// Relaxation-factor sweep (`lumos ablation-relax`, DESIGN.md §4.2):
/// strict, fixed {5, 10, 20} %, adaptive {5, 10, 20} %.
#[must_use]
pub fn relax_ablation(id: SystemId, seed: u64, days: u32) -> Vec<(String, SimMetrics)> {
    let variants: Vec<(String, Relax)> = vec![
        ("strict".into(), Relax::Strict),
        ("fixed-5%".into(), Relax::Fixed { factor: 0.05 }),
        ("fixed-10%".into(), Relax::Fixed { factor: 0.10 }),
        ("fixed-20%".into(), Relax::Fixed { factor: 0.20 }),
        ("adaptive-5%".into(), Relax::Adaptive { base: 0.05 }),
        ("adaptive-10%".into(), Relax::Adaptive { base: 0.10 }),
        ("adaptive-20%".into(), Relax::Adaptive { base: 0.20 }),
    ];
    variants
        .into_par_iter()
        .map(|(name, relax)| (name, run_system(id, seed, days, relax)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_covers_three_systems() {
        let rows = run_table2(7, 1, 0.10);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.jobs > 10);
            assert!(r.relaxed.util > 0.0);
            assert!(r.adaptive.util > 0.0);
        }
    }

    #[test]
    fn table2_is_byte_identical_across_thread_counts() {
        // The determinism contract the docs promise: fanning the grid over
        // the pool must not change a single output byte,
        // whatever the thread count.
        let at = |threads: usize| {
            let rows = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| run_table2(7, 1, 0.10));
            serde_json::to_string(&rows).unwrap()
        };
        let one = at(1);
        assert_eq!(one, at(2));
        assert_eq!(one, at(8));
    }

    #[test]
    fn cells_enumerate_the_grid_fixed_first() {
        let cells = table2_cells(0.10);
        assert_eq!(cells.len(), 2 * TABLE2_SYSTEMS.len());
        assert_eq!(cells[0].0, TABLE2_SYSTEMS[0]);
        assert!(matches!(cells[0].1, Relax::Fixed { .. }));
        assert!(matches!(cells[1].1, Relax::Adaptive { .. }));
    }

    #[test]
    fn improvement_signs() {
        let row = Table2Row {
            system: "X".into(),
            jobs: 1,
            relaxed: mk_metrics(100.0, 10.0, 0.8, 600.0),
            adaptive: mk_metrics(110.0, 9.0, 0.82, 300.0),
            base_factor: 0.1,
        };
        assert!((row.improvement("wait") + 10.0).abs() < 1e-9);
        assert!((row.improvement("bsld") - 10.0).abs() < 1e-9);
        assert!((row.improvement("util") - 2.5).abs() < 1e-9);
        assert!((row.improvement("violation") - 50.0).abs() < 1e-9);
    }

    fn mk_metrics(wait: f64, bsld: f64, util: f64, violation: f64) -> SimMetrics {
        SimMetrics {
            jobs: 1,
            mean_wait: wait,
            median_wait: wait,
            p90_wait: wait,
            mean_bsld: bsld,
            util,
            violation,
            reserved_jobs: 1,
            violated_jobs: 1,
            makespan: 1,
        }
    }
}
