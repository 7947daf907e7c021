//! Online-vs-batch parity for the predictor-in-the-loop serving path: a
//! virtual-time server with `--predictor` enabled, fed a trace one job at
//! a time, must report exactly the metrics of a batch
//! `simulate_with_walltimes` over the corresponding offline provider
//! (`last2_walltimes` / `user_walltimes`) — the streaming predictor and
//! the batch provider are the same model observed in the same order.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use lumos_core::{Job, SystemSpec, Trace};
use lumos_predict::walltime::{last2_walltimes, user_walltimes};
use lumos_serve::{PredictorConfig, ServeConfig, Server};
use lumos_sim::{simulate_with_walltimes, SimConfig};
use serde_json::Value;

/// Numeric accessors the vendored `Value` doesn't provide.
fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::I64(n) => Some(n as f64),
        Value::U64(n) => Some(n as f64),
        Value::F64(n) => Some(n),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::I64(n) => u64::try_from(n).ok(),
        Value::U64(n) => Some(n),
        _ => None,
    }
}

/// A small machine so jobs actually queue and backfill decisions depend on
/// the planned walltimes.
fn tiny_system(capacity: u64) -> SystemSpec {
    let mut s = SystemSpec::theta();
    s.name = "predictor-test".into();
    s.total_nodes = capacity as u32;
    s.units_per_node = 1;
    s.total_units = capacity;
    s
}

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

/// One NDJSON request/response exchange.
fn roundtrip(writer: &mut impl Write, reader: &mut impl BufRead, request: &str) -> Value {
    writeln!(writer, "{request}").expect("write request");
    writer.flush().expect("flush request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    serde_json::parse_value_complete(&line).expect("response is JSON")
}

/// Drives a predictor-enabled virtual-time server through `trace`'s jobs
/// in trace order and returns `(stats, bye_metrics)` — the pre-shutdown
/// `Stats` payload and the final `Bye` metrics.
fn serve_trace(trace: &Trace, sim: SimConfig, predictor: PredictorConfig) -> (Value, Value) {
    let config = ServeConfig {
        system: trace.system.clone(),
        sim,
        queue_capacity: 64,
        time_scale: 0.0,
        journal: None,
        predictor: Some(predictor),
        tenants: None,
        replication: None,
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run(false));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;

    // Trace order is the order the batch providers observe runtimes in;
    // submitting in the same order makes the streaming predictor see the
    // identical history at every decision point.
    for (i, job) in trace.jobs().iter().enumerate() {
        if i % 3 == 0 && job.submit > 0 {
            let reply = roundtrip(
                &mut writer,
                &mut reader,
                &format!(r#"{{"Advance":{{"to":{}}}}}"#, job.submit - 1),
            );
            assert!(reply.get("Advanced").is_some(), "unexpected {reply:?}");
        }
        let walltime = job
            .walltime
            .map_or(String::new(), |w| format!(r#""walltime":{w},"#));
        let reply = roundtrip(
            &mut writer,
            &mut reader,
            &format!(
                r#"{{"Submit":{{"job":{{"id":{},"procs":{},"runtime":{},{walltime}"user":{},"submit":{}}}}}}}"#,
                job.id, job.procs, job.runtime, job.user, job.submit
            ),
        );
        assert!(reply.get("Submitted").is_some(), "unexpected {reply:?}");
    }

    // Drain everything so prediction accuracy covers every job, then read
    // the live stats before shutting down.
    let reply = roundtrip(&mut writer, &mut reader, r#"{"Advance":{"to":100000}}"#);
    assert!(reply.get("Advanced").is_some(), "unexpected {reply:?}");
    let stats = roundtrip(&mut writer, &mut reader, r#""Stats""#)
        .get("Stats")
        .and_then(|v| v.get("stats"))
        .expect("stats payload")
        .clone();
    let bye = roundtrip(&mut writer, &mut reader, r#""Shutdown""#);
    let metrics = bye
        .get("Bye")
        .and_then(|v| v.get("metrics"))
        .expect("bye carries metrics")
        .clone();
    handle.join().expect("server thread").expect("server run");
    (stats, metrics)
}

fn as_json(value: &impl serde::Serialize) -> Value {
    serde_json::parse_value_complete(&serde_json::to_string(value).unwrap()).expect("JSON")
}

/// Checks the served metrics and prediction-accuracy stats for `provider`
/// against the batch reference built from `walltimes`.
fn assert_parity(with_walltimes: bool, predictor: PredictorConfig, walltimes: &[i64]) {
    let system = tiny_system(16);
    let sim = SimConfig::default();
    let trace = Trace::new(system, workload(with_walltimes)).expect("valid trace");
    let batch = simulate_with_walltimes(&trace, &sim, walltimes);

    let (stats, online_metrics) = serve_trace(&trace, sim, predictor);
    assert_eq!(
        online_metrics,
        as_json(&batch.metrics),
        "predictor-enabled serve diverged from batch simulate_with_walltimes"
    );

    // The accuracy stats cover every completed job and agree with the
    // offline estimates the batch path used.
    let prediction = stats.get("prediction").expect("prediction stats");
    assert_eq!(
        prediction.get("jobs").and_then(as_u64),
        Some(trace.len() as u64)
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
        .and_then(as_f64)
        .expect("underestimate_rate");
    let got_mae = prediction
        .get("mean_abs_error")
        .and_then(as_f64)
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
    let (stats, _) = serve_trace(
        &trace,
        SimConfig::default(),
        PredictorConfig::Last2 { margin: 1.0 },
    );
    assert_eq!(
        stats.get("predictor").and_then(Value::as_str),
        Some("last2")
    );
}
