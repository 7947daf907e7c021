//! End-to-end tests of multi-tenant serving: the `stats` tenants block
//! shows max-min fair-share beating FIFO on a skewed two-tenant load,
//! quota refusals arrive as a distinct reply, and a SIGKILLed
//! tenant-enabled `lumos serve --journal` process recovers byte-identical
//! state (per-tenant accounting and fairness included).

use lumos_core::SystemSpec;
use lumos_serve::ServeConfig;
use lumos_sim::{Policy, TenantTable};
use serde_json::Value;

mod support;
use support::{
    crash_and_compare, num, precrash_commands, probe_commands, scratch_dir, tiny_system, InProc,
};

/// The two-tenant table every test here uses: equal weights, a quota on
/// `light` tight enough to refuse one oversized probe.
const TENANTS: &str = "heavy 1.0 -\nlight 1.0 100\n";

/// Starts an in-process virtual-time server over the tenant table.
fn tenant_server(policy: Policy) -> InProc {
    let mut config = ServeConfig::new(tiny_system(8));
    config.sim.policy = policy;
    config.queue_capacity = 64;
    config.tenants = Some(TenantTable::parse(TENANTS).expect("valid table"));
    InProc::start(config)
}

/// The skewed backlog: 16 heavy jobs vs 4 light jobs, all at t = 0, each
/// 2 units × 400 s on an 8-unit machine — four run at a time.
fn skewed_submits() -> Vec<String> {
    let mut cmds = Vec::new();
    for i in 0..16u64 {
        cmds.push(format!(
            r#"{{"Submit":{{"job":{{"id":{i},"procs":2,"runtime":400,"walltime":450,"submit":0,"tenant":"heavy"}}}}}}"#
        ));
    }
    for i in 100..104u64 {
        cmds.push(format!(
            r#"{{"Submit":{{"job":{{"id":{i},"procs":2,"runtime":400,"walltime":450,"submit":0,"tenant":"light"}}}}}}"#
        ));
    }
    cmds
}

/// Runs the skewed load to t = 500 and returns the `stats` tenants block.
fn tenants_block_at_500(policy: Policy) -> Value {
    let server = tenant_server(policy);
    let mut client = server.client();
    for c in skewed_submits() {
        let reply = client.exchange(&c);
        assert!(reply.contains("Submitted"), "unexpected {reply}");
    }
    // Mid-backlog, NOT after a drain: a full drain delivers every job
    // regardless of policy and would equalize the totals.
    client.exchange(r#"{"Advance":{"to":500}}"#);
    let stats = client.json(r#""Stats""#);
    client.exchange(r#""Shutdown""#);
    server.join();
    stats
        .get("Stats")
        .and_then(|v| v.get("stats"))
        .and_then(|v| v.get("tenants"))
        .expect("tenant-enabled stats carry a tenants block")
        .clone()
}

#[test]
fn maxmin_reports_strictly_higher_fairness_than_fifo() {
    let fifo = tenants_block_at_500(Policy::Fcfs);
    let maxmin = tenants_block_at_500(Policy::MaxMinFair);
    let fairness = |block: &Value| num(block.get("fairness").expect("fairness index"));
    let (jf, jm) = (fairness(&fifo), fairness(&maxmin));
    assert!(
        jm > jf,
        "max-min fairness ({jm}) must strictly beat FIFO ({jf})"
    );
    // Arrivals are processed as they land, so the first wave fills the
    // machine with heavy jobs (lowest ids) under every policy; max-min
    // splits each later wave evenly. By t = 500 that is 4800 vs 1600
    // unit-seconds — Jain 0.8 — against FIFO's total starvation at 0.5.
    assert!((jf - 0.5).abs() < 1e-9, "FIFO starves light: {jf}");
    assert!((jm - 0.8).abs() < 1e-9, "max-min splits later waves: {jm}");

    // The per-tenant rows carry usage and wait quantiles for both
    // tenants; under FIFO the light tenant has started nothing.
    let rows = maxmin.get("tenants").and_then(Value::as_array).unwrap();
    assert_eq!(rows.len(), 3, "heavy, light, and built-in default");
    let light = &fifo.get("tenants").and_then(Value::as_array).unwrap()[1];
    let light_served = light
        .get("usage")
        .and_then(|u| u.get("served_unit_seconds"))
        .map(num);
    assert_eq!(
        light_served,
        Some(0.0),
        "FIFO delivered nothing to light by t = 500"
    );
}

#[test]
fn quota_refusals_are_a_distinct_reply() {
    let server = tenant_server(Policy::Fcfs);
    let mut client = server.client();

    // light's quota bounds *outstanding* units at 100. Pile up queued
    // full-machine jobs until the quota — not capacity — refuses.
    let reply = client.exchange(
        r#"{"Submit":{"job":{"id":1,"procs":3,"runtime":50,"submit":0,"tenant":"light"}}}"#,
    );
    assert!(reply.contains("Submitted"), "unexpected {reply}");
    for i in 2..=12u64 {
        let reply = client.exchange(&format!(
                r#"{{"Submit":{{"job":{{"id":{i},"procs":8,"runtime":5000,"submit":0,"tenant":"light"}}}}}}"#
            ),
        );
        assert!(reply.contains("Submitted"), "unexpected {reply}");
    }
    // 3 + 11 × 8 = 91 outstanding; 8 more would make 99 ≤ 100: fine.
    // Then 8 on top busts it: 99 + 8 = 107 > 100.
    let reply = client.exchange(
        r#"{"Submit":{"job":{"id":13,"procs":8,"runtime":5000,"submit":0,"tenant":"light"}}}"#,
    );
    assert!(reply.contains("Submitted"), "unexpected {reply}");
    let reply = client.json(
        r#"{"Submit":{"job":{"id":14,"procs":8,"runtime":5000,"submit":0,"tenant":"light"}}}"#,
    );
    let quota = reply
        .get("QuotaExceeded")
        .unwrap_or_else(|| panic!("expected QuotaExceeded, got {reply:?}"));
    assert_eq!(quota.get("tenant").and_then(Value::as_str), Some("light"));
    assert_eq!(quota.get("requested").map(num), Some(8.0));
    assert_eq!(quota.get("in_use").map(num), Some(99.0));
    assert_eq!(quota.get("quota").map(num), Some(100.0));

    // Cancelling a queued job releases quota: the same submission is
    // accepted afterwards.
    let reply = client.exchange(r#"{"Cancel":{"id":13}}"#);
    assert!(reply.contains("true"), "cancel failed: {reply}");
    let reply = client.exchange(
        r#"{"Submit":{"job":{"id":14,"procs":8,"runtime":5000,"submit":0,"tenant":"light"}}}"#,
    );
    assert!(reply.contains("Submitted"), "unexpected {reply}");

    // Unknown tenants are refused outright; empty names die at the
    // protocol edge with field context.
    let reply = client.exchange(
        r#"{"Submit":{"job":{"id":50,"procs":1,"runtime":5,"submit":0,"tenant":"mallory"}}}"#,
    );
    assert!(
        reply.contains("Rejected") && reply.contains("unknown tenant"),
        "unexpected {reply}"
    );
    let reply = client
        .exchange(r#"{"Submit":{"job":{"id":51,"procs":1,"runtime":5,"submit":0,"tenant":" "}}}"#);
    assert!(
        reply.contains("Error") && reply.contains("Submit.job.tenant"),
        "unexpected {reply}"
    );

    client.exchange(r#""Shutdown""#);
    server.join();
}

/// Crash injection: SIGKILL a tenant-enabled journaled server, restart,
/// and demand byte-identical answers versus an uninterrupted run. The
/// pre-crash commands are all durable; refusals are probed post-crash
/// instead, because refused submissions are never journaled and the live
/// rejection counter is deliberately not durable state. The two refusal
/// probes (over-quota, unknown tenant) demand that the recovered quota
/// accounting refuses with the exact numbers an uninterrupted server
/// would, and the `Stats` probe covers the whole tenants block (usage,
/// waits, fairness).
#[test]
fn killed_tenant_server_recovers_byte_identical_state() {
    let dir = scratch_dir("tenants-kill");
    let tenants_file = dir.join("tenants.conf");
    std::fs::write(&tenants_file, TENANTS).expect("write tenant table");
    let mut probes = vec![
        r#"{"Submit":{"job":{"id":900,"procs":95,"runtime":50,"submit":500,"tenant":"light"}}}"#
            .to_string(),
        r#"{"Submit":{"job":{"id":901,"procs":1,"runtime":5,"submit":500,"tenant":"mallory"}}}"#
            .to_string(),
    ];
    probes.extend(probe_commands());
    let mut reference = ServeConfig::new(SystemSpec::theta());
    reference.sim.policy = Policy::MaxMinFair;
    reference.tenants = Some(TenantTable::parse(TENANTS).expect("valid table"));

    let recovered = crash_and_compare(
        &dir,
        &[
            "--snapshot-every",
            "6",
            "--policy",
            "maxmin",
            "--tenants",
            tenants_file.to_str().expect("temp dir is UTF-8"),
        ],
        &precrash_commands(true),
        &probes,
        reference,
    );
    // The refusals really were refused — by the *recovered* server.
    assert!(
        recovered[0].contains("QuotaExceeded"),
        "over-quota probe was not refused: {}",
        recovered[0]
    );
    assert!(
        recovered[1].contains("unknown tenant"),
        "unknown-tenant probe was not refused: {}",
        recovered[1]
    );
}
