//! The Fig. 12 harness: every model × {without, with} elapsed time at
//! elapsed points of 1/8, 1/4, and 1/2 of the mean runtime.
//!
//! Protocol (paper §VI.A, "fair comparison"): both variants predict **only**
//! jobs that have already been running for the elapsed point `E`. The
//! baseline ("Without Elapsed Time") is trained normally and ignores `E`;
//! the improved variant ("With Elapsed Time") is trained on the jobs that
//! survived `E`, receives `ln(1+E)` as an extra feature, and never predicts
//! below `E` — a prediction under the already-observed elapsed time is
//! certainly wrong.

use lumos_core::Trace;
use rayon::prelude::*;
use serde::Serialize;

use crate::dataset::{Dataset, Instance};
use crate::metrics::{score, PredictionScore};
use crate::models::{Gbt, Last2, LinearRegression, Mlp, Model, Tobit};

/// A feature model the pool can fit on one thread and score from another.
type SharedModel = Box<dyn Model + Send + Sync>;

/// Model families of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ModelKind {
    /// Mean of the user's last two runtimes.
    Last2,
    /// Ridge linear regression.
    LinReg,
    /// Censored Gaussian regression.
    Tobit,
    /// Gradient-boosted trees (XGBoost stand-in).
    Xgboost,
    /// Multilayer perceptron.
    Mlp,
}

impl ModelKind {
    /// All families, in the paper's presentation order.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::Last2,
        ModelKind::Tobit,
        ModelKind::Xgboost,
        ModelKind::LinReg,
        ModelKind::Mlp,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Last2 => "Last2",
            Self::LinReg => "LR",
            Self::Tobit => "Tobit",
            Self::Xgboost => "XGBoost",
            Self::Mlp => "MLP",
        }
    }

    /// The families that fit a model, costliest fit first (Last2 reads
    /// the user's history and has nothing to fit).
    const FITTED: [ModelKind; 4] = [
        ModelKind::Mlp,
        ModelKind::Xgboost,
        ModelKind::Tobit,
        ModelKind::LinReg,
    ];

    /// An unfit model of the family; `None` for Last2.
    fn build(self) -> Option<SharedModel> {
        match self {
            Self::Last2 => None,
            Self::LinReg => Some(Box::new(LinearRegression::default())),
            Self::Tobit => Some(Box::new(Tobit::default())),
            Self::Xgboost => Some(Box::new(Gbt::default())),
            Self::Mlp => Some(Box::new(Mlp::default())),
        }
    }
}

/// One Fig. 12 cell pair: a model at one elapsed point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Row {
    /// Model family.
    pub model: ModelKind,
    /// Elapsed point as a fraction of mean runtime (1/8, 1/4, 1/2).
    pub elapsed_frac: f64,
    /// Elapsed point in seconds.
    pub elapsed_seconds: f64,
    /// Baseline score.
    pub without: PredictionScore,
    /// Elapsed-aware score.
    pub with_elapsed: PredictionScore,
}

fn elapsed_features(i: &Instance, elapsed: f64) -> Vec<f64> {
    let mut f = i.features.to_vec();
    f.push((1.0 + elapsed).ln());
    f
}

/// The rows one fit trains on, shared by every model fit on them.
struct TrainingSet {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    censored: Vec<bool>,
}

impl TrainingSet {
    /// The baseline's set (`elapsed` `None`): every row, static features
    /// only. An elapsed-aware set: survival-conditioned — the rows that
    /// outlived `elapsed` — with the elapsed feature appended.
    fn new(train: &[Instance], elapsed: Option<f64>) -> Self {
        let mut pool: Vec<&Instance> = train
            .iter()
            .filter(|i| elapsed.is_none_or(|e| i.runtime > e))
            .collect();
        // Degenerate guard: if nothing survived E, fall back to all.
        if pool.is_empty() {
            pool = train.iter().collect();
        }
        Self {
            x: pool
                .iter()
                .map(|i| elapsed.map_or_else(|| i.features.to_vec(), |e| elapsed_features(i, e)))
                .collect(),
            y: pool.iter().map(|i| i.runtime).collect(),
            censored: pool.iter().map(|i| i.censored).collect(),
        }
    }
}

/// One elapsed point and the test jobs still running at it — the only
/// jobs either variant predicts.
struct ElapsedPoint<'a> {
    frac: f64,
    elapsed: f64,
    eligible: Vec<&'a Instance>,
    /// The eligible jobs' rows as an elapsed-aware model takes them.
    aware_x: Vec<Vec<f64>>,
    actual: Vec<f64>,
}

impl ElapsedPoint<'_> {
    /// Scores `(without, with)` elapsed time; `models` is the family's
    /// baseline and its model conditioned on this point, `None` for Last2.
    fn score(
        &self,
        models: Option<(&SharedModel, &SharedModel)>,
        global_mean: f64,
    ) -> (PredictionScore, PredictionScore) {
        let elapsed = self.elapsed;
        let (without, with): (Vec<f64>, Vec<f64>) = match models {
            None => (
                self.eligible
                    .iter()
                    .map(|i| Last2::predict(i, global_mean))
                    .collect(),
                self.eligible
                    .iter()
                    .map(|i| Last2::predict_with_elapsed(i, global_mean, elapsed))
                    .collect(),
            ),
            Some((base, aware)) => (
                self.eligible
                    .iter()
                    .map(|i| base.predict(&i.features))
                    .collect(),
                // Never below the observed elapsed time.
                self.aware_x
                    .iter()
                    .map(|x| aware.predict(x).max(elapsed.max(1.0)))
                    .collect(),
            ),
        };
        (score(&self.actual, &without), score(&self.actual, &with))
    }
}

/// Runs the full Fig. 12 grid on one trace. `max_instances` caps the
/// dataset (chronological thinning) so debug-mode tests stay fast.
///
/// A family's baseline does not depend on the elapsed point, so the grid
/// is the list of its *distinct* fits — per feature model one baseline
/// and one elapsed-aware model per surviving point — run flat on the
/// pool, costliest family first so that its in-order dispatch is greedy
/// longest-first scheduling; every `(model, point)` cell is then scored
/// from the fitted models.
#[must_use]
pub fn evaluate_trace(trace: &Trace, fracs: &[f64], max_instances: usize) -> Vec<Fig12Row> {
    let mut dataset = Dataset::from_trace(trace);
    if dataset.len() > max_instances && max_instances > 0 {
        let stride = dataset.len().div_ceil(max_instances);
        dataset.instances = dataset.instances.into_iter().step_by(stride).collect();
    }
    if dataset.len() < 20 {
        return Vec::new();
    }
    let (train, test) = dataset.split(0.6);
    let mean_runtime = train.iter().map(|i| i.runtime).sum::<f64>() / train.len() as f64;
    let global_mean = mean_runtime;

    // Fewer than 10 eligible test jobs: the point gets no row.
    let points: Vec<ElapsedPoint> = fracs
        .iter()
        .filter_map(|&frac| {
            let elapsed = frac * mean_runtime;
            let eligible: Vec<&Instance> = test.iter().filter(|i| i.runtime > elapsed).collect();
            (eligible.len() >= 10).then(|| ElapsedPoint {
                frac,
                elapsed,
                aware_x: eligible
                    .iter()
                    .map(|i| elapsed_features(i, elapsed))
                    .collect(),
                actual: eligible.iter().map(|i| i.runtime).collect(),
                eligible,
            })
        })
        .collect();
    if points.is_empty() {
        return Vec::new();
    }

    // Set 0 is the baseline's, set 1 + p is point p's, and a family's fits
    // sit in that order from its slot on. The families are listed costliest
    // first: the pool starts tasks in list order, so the longest fits start
    // first and the short ones fill in behind them.
    let sets: Vec<TrainingSet> = std::iter::once(None)
        .chain(points.iter().map(|p| Some(p.elapsed)))
        .map(|elapsed| TrainingSet::new(train, elapsed))
        .collect();
    let fits: Vec<(SharedModel, &TrainingSet)> = ModelKind::FITTED
        .iter()
        .flat_map(|kind| {
            sets.iter()
                .filter_map(|set| kind.build().map(|model| (model, set)))
        })
        .collect();
    // A cell is a family, its slot (Last2 has none) and the index of a
    // point, in the paper's order.
    let cells: Vec<(ModelKind, Option<usize>, usize)> = ModelKind::ALL
        .iter()
        .flat_map(|&kind| {
            let family = ModelKind::FITTED.iter().position(|&k| k == kind);
            let slot = family.map(|f| f * sets.len());
            (0..points.len()).map(move |p| (kind, slot, p))
        })
        .collect();
    let fitted: Vec<SharedModel> = fits
        .into_par_iter()
        .map(|(mut model, set)| {
            model.fit(&set.x, &set.y, &set.censored);
            model
        })
        .collect();

    cells
        .into_par_iter()
        .map(|(model, slot, p)| {
            let point = &points[p];
            let models = slot.map(|slot| (&fitted[slot], &fitted[slot + 1 + p]));
            let (without, with_elapsed) = point.score(models, global_mean);
            Fig12Row {
                model,
                elapsed_frac: point.frac,
                elapsed_seconds: point.elapsed,
                without,
                with_elapsed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::{Job, JobStatus, SystemSpec};
    use lumos_stats::Rng;

    /// A synthetic bimodal workload: per user, short failures and long
    /// passes — the Fig. 11 structure that elapsed time exploits.
    fn bimodal_trace(n: usize, seed: u64) -> Trace {
        let mut rng = Rng::new(seed);
        let mut jobs = Vec::with_capacity(n);
        for i in 0..n {
            let user = (i % 7) as u32;
            let fail = rng.chance(0.4);
            let runtime = if fail {
                10 + rng.next_below(40) as i64
            } else {
                3_000 + rng.next_below(1_200) as i64
            };
            let mut j = Job::basic(i as u64, user, i as i64 * 30, runtime, 8);
            j.status = if fail {
                JobStatus::Failed
            } else {
                JobStatus::Passed
            };
            jobs.push(j);
        }
        Trace::new(SystemSpec::theta(), jobs).unwrap()
    }

    #[test]
    fn produces_the_full_grid() {
        let rows = evaluate_trace(&bimodal_trace(600, 1), &[0.125, 0.25, 0.5], 10_000);
        assert_eq!(rows.len(), 15, "5 models × 3 elapsed points");
        for r in &rows {
            assert!(r.without.jobs >= 10);
            assert_eq!(r.without.jobs, r.with_elapsed.jobs);
        }
    }

    #[test]
    fn elapsed_time_reduces_underestimates() {
        // The paper's headline: with elapsed time, the underestimate rate
        // drops for (almost) every model. On a cleanly bimodal workload it
        // must drop on average.
        let rows = evaluate_trace(&bimodal_trace(800, 2), &[0.25], 10_000);
        assert_eq!(rows.len(), 5);
        let mean_without: f64 = rows
            .iter()
            .map(|r| r.without.underestimate_rate)
            .sum::<f64>()
            / rows.len() as f64;
        let mean_with: f64 = rows
            .iter()
            .map(|r| r.with_elapsed.underestimate_rate)
            .sum::<f64>()
            / rows.len() as f64;
        assert!(
            mean_with < mean_without,
            "with {mean_with:.3} vs without {mean_without:.3}"
        );
    }

    #[test]
    fn accuracy_stays_comparable_or_better() {
        let rows = evaluate_trace(&bimodal_trace(800, 3), &[0.25], 10_000);
        let mean_without: f64 =
            rows.iter().map(|r| r.without.accuracy).sum::<f64>() / rows.len() as f64;
        let mean_with: f64 =
            rows.iter().map(|r| r.with_elapsed.accuracy).sum::<f64>() / rows.len() as f64;
        assert!(
            mean_with > mean_without - 0.05,
            "with {mean_with:.3} vs without {mean_without:.3}"
        );
    }

    #[test]
    fn rows_are_byte_identical_across_thread_counts() {
        // The fits and the cells are index-keyed lists on the pool: which
        // worker takes which must not show in a single output byte.
        let trace = bimodal_trace(600, 6);
        let at = |threads: usize| {
            let rows = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| evaluate_trace(&trace, &[0.125, 0.25, 0.5], 10_000));
            serde_json::to_string(&rows).unwrap()
        };
        let one = at(1);
        assert_eq!(one, at(2));
        assert_eq!(one, at(8));
    }

    #[test]
    fn tiny_traces_return_empty() {
        let rows = evaluate_trace(&bimodal_trace(10, 4), &[0.25], 10_000);
        assert!(rows.is_empty());
    }

    #[test]
    fn subsampling_caps_instances() {
        let rows = evaluate_trace(&bimodal_trace(2_000, 5), &[0.125], 300);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.without.jobs < 200);
        }
    }
}
