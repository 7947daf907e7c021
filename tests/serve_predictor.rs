//! Online-vs-batch parity for the predictor-in-the-loop serving path: a
//! virtual-time server with `--predictor` enabled, fed a trace one job at
//! a time, must report exactly the metrics of a batch
//! `simulate_with_walltimes` over the corresponding offline provider
//! (`last2_walltimes` / `user_walltimes`) — the streaming predictor and
//! the batch provider are the same model observed in the same order.

use lumos_core::{Job, Trace};
use lumos_predict::walltime::{last2_walltimes, user_walltimes};
use lumos_serve::{PredictorConfig, ServeConfig};
use lumos_sim::{simulate_with_walltimes, SimConfig};
use serde_json::Value;

mod support;
use support::{num, submit_in_order, tiny_system, to_value, InProc};

/// A deterministic workload over a handful of users with per-user runtime
/// drift, so Last2 histories matter. When `with_walltimes` is set, even
/// ids carry a requested walltime (exercising the `user` provider's
/// pass-through + fallback split).
fn workload(with_walltimes: bool) -> Vec<Job> {
    let mut jobs = Vec::new();
    for i in 0..30u64 {
        let submit = (i as i64) * 41 % 700;
        let runtime = 45 + (i as i64 * 97) % 500 + (i as i64 % 4) * 60;
        let procs = 1 + (i * 5) % 11;
        let mut j = Job::basic(i, (i % 4) as u32, submit, runtime, procs);
        if with_walltimes && i % 2 == 0 {
            j.walltime = Some(runtime + 90 + (i as i64 * 31) % 300);
        }
        jobs.push(j);
    }
    jobs
}

/// Drives a predictor-enabled virtual-time server through `trace`'s jobs
/// in trace order and returns `(stats, bye_metrics)` — the pre-shutdown
/// `Stats` payload and the final `Bye` metrics.
fn serve_trace(trace: &Trace, predictor: PredictorConfig) -> (Value, Value) {
    let mut config = ServeConfig::new(trace.system.clone());
    config.queue_capacity = 64;
    config.predictor = Some(predictor);
    let server = InProc::start(config);
    let mut client = server.client();

    // Trace order is the order the batch providers observe runtimes in;
    // submitting in the same order makes the streaming predictor see the
    // identical history at every decision point.
    submit_in_order(&mut client, trace.jobs());

    // Drain everything so prediction accuracy covers every job, then read
    // the live stats before shutting down.
    let reply = client.json(r#"{"Advance":{"to":100000}}"#);
    assert!(reply.get("Advanced").is_some(), "unexpected {reply:?}");
    let stats = client
        .json(r#""Stats""#)
        .get("Stats")
        .and_then(|v| v.get("stats"))
        .expect("stats payload")
        .clone();
    let bye = client.json(r#""Shutdown""#);
    let metrics = bye
        .get("Bye")
        .and_then(|v| v.get("metrics"))
        .expect("bye carries metrics")
        .clone();
    server.join();
    (stats, metrics)
}

/// Checks the served metrics and prediction-accuracy stats for `provider`
/// against the batch reference built from `walltimes`.
fn assert_parity(with_walltimes: bool, predictor: PredictorConfig, walltimes: &[i64]) {
    let trace = Trace::new(tiny_system(16), workload(with_walltimes)).expect("valid trace");
    let batch = simulate_with_walltimes(&trace, &SimConfig::default(), walltimes);

    let (stats, online_metrics) = serve_trace(&trace, predictor);
    assert_eq!(
        online_metrics,
        to_value(&batch.metrics),
        "predictor-enabled serve diverged from batch simulate_with_walltimes"
    );

    // The accuracy stats cover every completed job and agree with the
    // offline estimates the batch path used.
    let prediction = stats.get("prediction").expect("prediction stats");
    assert_eq!(
        prediction.get("jobs"),
        Some(&Value::I64(trace.len() as i64))
    );
    let scored: Vec<(f64, f64)> = trace
        .jobs()
        .iter()
        .zip(walltimes)
        .map(|(j, &w)| (w as f64, j.runtime as f64))
        .collect();
    let under = scored.iter().filter(|(w, r)| w < r).count() as f64 / scored.len() as f64;
    let mae = scored.iter().map(|(w, r)| (w - r).abs()).sum::<f64>() / scored.len() as f64;
    let got_under = prediction
        .get("underestimate_rate")
        .map(num)
        .expect("underestimate_rate");
    let got_mae = prediction
        .get("mean_abs_error")
        .map(num)
        .expect("mean_abs_error");
    assert!((got_under - under).abs() < 1e-12, "{got_under} vs {under}");
    assert!((got_mae - mae).abs() < 1e-9, "{got_mae} vs {mae}");
}

#[test]
fn last2_serve_matches_batch_last2_walltimes() {
    let trace = Trace::new(tiny_system(16), workload(false)).expect("valid trace");
    let walltimes = last2_walltimes(&trace, 1.5);
    assert_parity(false, PredictorConfig::Last2 { margin: 1.5 }, &walltimes);
}

#[test]
fn user_serve_matches_batch_user_walltimes() {
    let trace = Trace::new(tiny_system(16), workload(true)).expect("valid trace");
    let walltimes = user_walltimes(&trace, 2.0);
    assert_parity(true, PredictorConfig::User { margin: 2.0 }, &walltimes);
}

#[test]
fn stats_names_the_active_predictor() {
    let trace = Trace::new(tiny_system(16), workload(false)).expect("valid trace");
    let (stats, _) = serve_trace(&trace, PredictorConfig::Last2 { margin: 1.0 });
    assert_eq!(
        stats.get("predictor").and_then(Value::as_str),
        Some("last2")
    );
}
