//! End-to-end test of the online scheduling service: drive a virtual-time
//! server over TCP and check that its shutdown metrics are *identical* to
//! a batch `simulate()` replay of the same arrival sequence — the core
//! guarantee of the shared incremental engine.

use lumos_core::{Job, Trace};
use lumos_serve::ServeConfig;
use lumos_sim::{simulate, SimConfig};
use serde_json::Value;

mod support;
use support::{submit_in_order, tiny_system, to_value, InProc};

/// A deterministic arrival sequence that exercises queueing and backfill.
fn workload() -> Vec<Job> {
    let mut jobs = Vec::new();
    for i in 0..40u64 {
        let submit = (i as i64) * 37 % 900;
        let runtime = 60 + (i as i64 * 131) % 600;
        let procs = 1 + (i * 7) % 12;
        let mut j = Job::basic(i, (i % 4) as u32, submit, runtime, procs);
        j.walltime = Some(runtime + 120 + (i as i64 * 53) % 400);
        jobs.push(j);
    }
    jobs
}

/// The message of an `Error` reply.
fn error_message(reply: &Value) -> String {
    let message = reply.get("Error").and_then(|e| e.get("message"));
    let message = message.and_then(Value::as_str).expect("error with message");
    message.to_string()
}

#[test]
fn online_replay_matches_batch_simulate() {
    let system = tiny_system(16);
    let jobs = workload();
    let trace = Trace::new(system.clone(), jobs.clone()).expect("valid trace");
    let batch = simulate(&trace, &SimConfig::default());

    let mut config = ServeConfig::new(system);
    config.queue_capacity = 64;
    let server = InProc::start(config);
    let mut client = server.client();

    // Submit in trace order (sorted by submit time) with explicit arrival
    // times, interleaving Advance calls that never outrun the next arrival.
    let mut sorted = jobs;
    sorted.sort_by_key(|j| (j.submit, j.id));
    submit_in_order(&mut client, &sorted);

    // Duplicate ids are rejected without disturbing the schedule.
    let reply = client.json(r#"{"Submit":{"job":{"id":0,"procs":1,"runtime":10}}}"#);
    assert!(reply.get("Rejected").is_some(), "unexpected {reply:?}");

    // Queries answer for known jobs and error for unknown ones.
    let reply = client.json(r#"{"Query":{"id":0}}"#);
    assert!(reply.get("Job").is_some(), "unexpected {reply:?}");
    let reply = client.json(r#"{"Query":{"id":99999}}"#);
    assert!(reply.get("Error").is_some(), "unexpected {reply:?}");

    // Stats is live and well-formed mid-run.
    let reply = client.json(r#""Stats""#);
    let stats = reply
        .get("Stats")
        .and_then(|v| v.get("stats"))
        .expect("stats payload");
    assert!(stats.get("snapshot").is_some());
    assert!(stats.get("wait_quantiles").is_some());

    // Graceful shutdown drains everything and reports whole-run metrics.
    let reply = client.json(r#""Shutdown""#);
    let online_metrics = reply
        .get("Bye")
        .and_then(|v| v.get("metrics"))
        .expect("bye carries metrics");
    assert_eq!(
        online_metrics,
        &to_value(&batch.metrics),
        "online path and batch simulate() diverged"
    );

    server.join();
}

#[test]
fn backpressure_rejects_instead_of_blocking() {
    // Queue capacity 1 with a server that is slow to start consuming:
    // we can't deterministically fill the queue from one client (the
    // scheduler drains fast), but we can verify a huge burst never
    // deadlocks and every submission gets an explicit answer.
    let mut config = ServeConfig::new(tiny_system(4));
    config.queue_capacity = 1;
    let server = InProc::start(config);
    let mut client = server.client();

    let mut answered = 0;
    for i in 0..200u64 {
        let reply = client.json(&format!(
            r#"{{"Submit":{{"job":{{"id":{i},"procs":1,"runtime":5,"submit":0}}}}}}"#
        ));
        let accepted = reply.get("Submitted").is_some();
        let rejected = reply.get("Rejected").is_some();
        assert!(accepted || rejected, "unexpected {reply:?}");
        answered += 1;
    }
    assert_eq!(answered, 200);

    let reply = client.json(r#""Shutdown""#);
    assert!(reply.get("Bye").is_some(), "unexpected {reply:?}");
    server.join();
}

#[test]
fn protocol_errors_name_the_line_and_field() {
    let mut config = ServeConfig::new(tiny_system(4));
    config.queue_capacity = 16;
    let server = InProc::start(config);
    let mut client = server.client();

    // Line 1: fine. Line 2: blank (counted, no response). Line 3: garbage.
    let reply = client.json(r#"{"Submit":{"job":{"id":1,"procs":1,"runtime":5,"submit":0}}}"#);
    assert!(reply.get("Submitted").is_some(), "unexpected {reply:?}");
    client.send("");
    let msg = error_message(&client.json("{nonsense"));
    assert!(msg.starts_with("line 3:"), "no line context: {msg}");

    // Line 4: a submit missing its required `id` — the error names the
    // offending field, not just "bad request".
    let msg = error_message(&client.json(r#"{"Submit":{"job":{"procs":1,"runtime":5}}}"#));
    assert!(msg.starts_with("line 4:"), "no line context: {msg}");
    assert!(msg.contains("id"), "field not named: {msg}");

    let reply = client.json(r#""Shutdown""#);
    assert!(reply.get("Bye").is_some(), "unexpected {reply:?}");
    server.join();
}

/// One line with a runtime near `i64::MAX` used to reach `now + runtime`
/// in the session: a debug build lost its scheduler thread — the whole
/// server — and a release build reported the job finished in the past.
/// It is refused at the wire edge, and only that line.
#[test]
fn a_time_near_i64_max_costs_one_line_not_the_scheduler() {
    let mut config = ServeConfig::new(tiny_system(4));
    config.queue_capacity = 16;
    let server = InProc::start(config);
    // A scheduler that is gone answers nothing: the client's read timeout
    // fails the test instead of letting it hang.
    let mut client = server.client();

    let good = |id: u64| format!(r#"{{"Submit":{{"job":{{"id":{id},"procs":1,"runtime":5}}}}}}"#);
    let reply = client.json(&good(1));
    assert!(reply.get("Submitted").is_some(), "unexpected {reply:?}");
    let reply =
        client.json(r#"{"Submit":{"job":{"id":2,"procs":1,"runtime":9223372036854775807}}}"#);
    let msg = error_message(&reply);
    assert!(msg.starts_with("line 2: Submit.job.runtime:"), "{msg}");
    let reply = client.json(&good(3));
    assert!(reply.get("Submitted").is_some(), "unexpected {reply:?}");
    let reply = client.json(r#""Stats""#);
    let snapshot = reply
        .get("Stats")
        .and_then(|v| v.get("stats"))
        .and_then(|v| v.get("snapshot"))
        .expect("stats from a live scheduler");
    assert_eq!(snapshot.get("submitted"), Some(&Value::I64(2)));

    let reply = client.json(r#""Shutdown""#);
    assert!(reply.get("Bye").is_some(), "unexpected {reply:?}");
    server.join();
}

/// The deterministic command script for the batched-vs-lockstep
/// differential: same-instant bursts that overfill the machine, bursts
/// that all fit, a zero-length job, rejections, and mid-burst reads —
/// every class of command a group-commit round can contain.
fn round_script() -> Vec<String> {
    let mut s = Vec::new();
    // Burst at t=0 on a 12-unit machine: early jobs start, later ones
    // queue.
    for i in 0..20u64 {
        s.push(format!(
            r#"{{"Submit":{{"job":{{"id":{},"procs":{},"runtime":{},"walltime":400,"user":{}}}}}}}"#,
            i,
            1 + i % 5,
            50 + (i as i64 * 37) % 200,
            i % 3
        ));
    }
    // Mid-burst reads observe every submission before them scheduled.
    s.push(r#"{"Query":{"id":3}}"#.into());
    s.push("\"Stats\"".into());
    // A zero-length job starts and finishes inside its own pass.
    s.push(r#"{"Submit":{"job":{"id":100,"procs":2,"runtime":0}}}"#.into());
    // Rejections: duplicate id, oversized request.
    s.push(r#"{"Submit":{"job":{"id":3,"procs":1,"runtime":10}}}"#.into());
    s.push(r#"{"Submit":{"job":{"id":101,"procs":99,"runtime":10}}}"#.into());
    s.push(r#"{"Advance":{"to":300}}"#.into());
    // Burst that fits entirely.
    for i in 30..42u64 {
        s.push(format!(
            r#"{{"Submit":{{"job":{{"id":{},"procs":1,"runtime":30,"walltime":60,"submit":300}}}}}}"#,
            i
        ));
    }
    s.push(r#"{"Advance":{"to":5000}}"#.into());
    s.push("\"Stats\"".into());
    s.push(r#"{"Cancel":{"id":41}}"#.into());
    s.push("\"Shutdown\"".into());
    s
}

/// A pipelined client (whole script written before any reply is read)
/// makes multi-command rounds; a lockstep client (each reply read before
/// the next line is written) makes rounds of one. Whatever way the
/// scheduler splits the stream into rounds, every reply must be
/// byte-identical — round size is invisible on the wire.
#[test]
fn batched_rounds_match_lockstep_rounds() {
    let script = round_script();
    let mut transcripts = Vec::new();
    for pipelined in [true, false] {
        let mut config = ServeConfig::new(tiny_system(12));
        config.queue_capacity = 512;
        let server = InProc::start(config);
        let mut client = server.client();
        let mut got = Vec::with_capacity(script.len());
        for line in &script {
            client.send(line);
            if !pipelined {
                got.push(client.recv());
            }
        }
        while got.len() < script.len() {
            got.push(client.recv());
        }
        transcripts.push(got);
        server.join();
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "batched rounds diverged from lockstep replies"
    );
}
