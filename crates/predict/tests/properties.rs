//! Property-based tests for the prediction substrate: metric bounds,
//! model sanity, and the elapsed-time clamp invariant.

use lumos_core::{hour_of_day, Job, JobStatus, SystemSpec, Trace};
use lumos_predict::metrics::{pair_accuracy, score};
use lumos_predict::models::{Gbt, Last2, LinearRegression, Mlp, Model, Tobit};
use lumos_predict::{Dataset, Instance};
use proptest::prelude::*;

fn arb_xy() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    prop::collection::vec((0.0f64..100.0, 0.0f64..100.0, 1.0f64..100_000.0), 10..80).prop_map(
        |rows| {
            let x: Vec<Vec<f64>> = rows.iter().map(|&(a, b, _)| vec![a, b]).collect();
            let y: Vec<f64> = rows.iter().map(|&(_, _, t)| t).collect();
            (x, y)
        },
    )
}

/// `Dataset::from_trace` by its definition: every job's features from a
/// fresh walk over the user's earlier jobs, nothing carried along.
fn dataset_by_definition(trace: &Trace) -> Vec<Instance> {
    let jobs = trace.jobs();
    jobs.iter()
        .enumerate()
        .map(|(at, j)| {
            let past: Vec<f64> = jobs[..at]
                .iter()
                .filter(|p| p.user == j.user)
                .map(|p| p.runtime.max(1) as f64)
                .collect();
            let last = past.last().copied().unwrap_or(0.0);
            let last2 = if past.len() >= 2 {
                (past[past.len() - 1] + past[past.len() - 2]) / 2.0
            } else {
                last
            };
            let mean = if past.is_empty() {
                0.0
            } else {
                past.iter().sum::<f64>() / past.len() as f64
            };
            Instance {
                user: j.user,
                features: [
                    (j.procs as f64).ln_1p(),
                    j.walltime.map_or(0.0, |w| (w.max(1) as f64).ln()),
                    f64::from(j.walltime.is_some()),
                    f64::from(hour_of_day(j.submit, trace.system.tz_offset)) / 24.0,
                    last.max(1.0).ln(),
                    last2.max(1.0).ln(),
                    mean.max(1.0).ln(),
                    (past.len() as f64).ln_1p(),
                ],
                runtime: j.runtime.max(1) as f64,
                walltime: j.walltime.map(|w| w.max(1) as f64),
                censored: j.status == JobStatus::Killed
                    && j.walltime.is_some_and(|w| j.runtime >= w),
                history: past.iter().rev().take(8).rev().copied().collect(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dataset_matches_its_definition(
        jobs in prop::collection::vec(
            (0u32..4, 0i64..500, 0i64..100_000, prop::option::of(0i64..50_000), 0u8..3),
            1..120,
        ),
    ) {
        // Few users, so some are heavy: histories past the cap of eight,
        // means over dozens of runtimes, zero runtimes and walltimes.
        let mut submit = 0;
        let jobs: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(id, (user, gap, runtime, walltime, status))| {
                submit += gap;
                let mut j = Job::basic(id as u64, user, submit, runtime, 8);
                j.walltime = walltime;
                j.status = [JobStatus::Passed, JobStatus::Failed, JobStatus::Killed][status as usize];
                j
            })
            .collect();
        let trace = Trace::new(SystemSpec::theta(), jobs).unwrap();
        prop_assert_eq!(Dataset::from_trace(&trace).instances, dataset_by_definition(&trace));
    }

    #[test]
    fn accuracy_is_in_unit_interval(r in 0.001f64..1e7, p in 0.001f64..1e7) {
        let a = pair_accuracy(r, p);
        prop_assert!((0.0..=1.0).contains(&a));
        // Symmetric in its arguments.
        prop_assert!((a - pair_accuracy(p, r)).abs() < 1e-12);
        // Perfect iff equal.
        prop_assert!((pair_accuracy(r, r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn score_bounds(pairs in prop::collection::vec((1.0f64..1e6, 1.0f64..1e6), 1..100)) {
        let r: Vec<f64> = pairs.iter().map(|&(a, _)| a).collect();
        let p: Vec<f64> = pairs.iter().map(|&(_, b)| b).collect();
        let s = score(&r, &p);
        prop_assert!((0.0..=1.0).contains(&s.accuracy));
        prop_assert!((0.0..=1.0).contains(&s.underestimate_rate));
        prop_assert_eq!(s.jobs, pairs.len());
    }

    #[test]
    fn models_always_predict_positive_finite((x, y) in arb_xy()) {
        let censored = vec![false; y.len()];
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(LinearRegression::default()),
            Box::new(Tobit::default()),
            Box::new(Gbt::new(10, 2, 3, 0.2)),
            Box::new(Mlp::new(4, 5, 0.02, 1)),
        ];
        for mut m in models {
            m.fit(&x, &y, &censored);
            for row in x.iter().take(10) {
                let p = m.predict(row);
                prop_assert!(p.is_finite() && p > 0.0, "{} predicted {p}", m.name());
            }
        }
    }

    #[test]
    fn constant_target_is_recovered((x, _) in arb_xy(), target in 2.0f64..1e5) {
        let y = vec![target; x.len()];
        let censored = vec![false; y.len()];
        let mut lin = LinearRegression::default();
        lin.fit(&x, &y, &censored);
        let p = lin.predict(&x[0]);
        prop_assert!((p / target - 1.0).abs() < 0.2, "predicted {p} for constant {target}");
    }

    #[test]
    fn last2_with_elapsed_never_predicts_below_elapsed(
        history in prop::collection::vec(1.0f64..1e6, 0..8),
        elapsed in 1.0f64..1e6,
        global in 1.0f64..1e6,
    ) {
        let instance = Instance {
            user: 0,
            features: [0.0; lumos_predict::dataset::STATIC_FEATURES],
            runtime: 1.0,
            walltime: None,
            censored: false,
            history,
        };
        let p = Last2::predict_with_elapsed(&instance, global, elapsed);
        prop_assert!(p >= elapsed);
    }
}
