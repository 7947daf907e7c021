//! End-to-end tests of multi-tenant serving: the `stats` tenants block
//! shows max-min fair-share beating FIFO on a skewed two-tenant load,
//! quota refusals arrive as a distinct reply, and a SIGKILLed
//! tenant-enabled `lumos serve --journal` process recovers byte-identical
//! state (per-tenant accounting and fairness included).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use lumos_core::SystemSpec;
use lumos_serve::{ServeConfig, Server};
use lumos_sim::{Policy, SimConfig, TenantTable};
use serde_json::Value;

/// The two-tenant table every test here uses: equal weights, a quota on
/// `light` tight enough to refuse one oversized probe.
const TENANTS: &str = "heavy 1.0 -\nlight 1.0 100\n";

/// A small machine so the policy, not spare capacity, decides who runs.
fn tiny_system(capacity: u64) -> SystemSpec {
    let mut s = SystemSpec::theta();
    s.name = "tenant-serve-test".into();
    s.total_nodes = capacity as u32;
    s.units_per_node = 1;
    s.total_units = capacity;
    s
}

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lumos-tenants-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create dir");
    dir
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// One NDJSON exchange, returning the raw response line.
fn exchange(writer: &mut impl Write, reader: &mut impl BufRead, request: &str) -> String {
    writeln!(writer, "{request}").expect("write request");
    writer.flush().expect("flush request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(!line.is_empty(), "server closed on {request}");
    line.trim_end().to_string()
}

fn parsed(line: &str) -> Value {
    serde_json::parse_value_complete(line).expect("response is JSON")
}

/// Numeric field extraction (the wire carries integers and floats).
fn num(v: &Value) -> f64 {
    match v {
        Value::I64(n) => *n as f64,
        Value::U64(n) => *n as f64,
        Value::F64(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

/// Binds an in-process virtual-time server over the tenant table.
fn bind_tenant_server(policy: Policy) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let sim = SimConfig {
        policy,
        ..SimConfig::default()
    };
    let config = ServeConfig {
        system: tiny_system(8),
        sim,
        queue_capacity: 64,
        time_scale: 0.0,
        journal: None,
        predictor: None,
        tenants: Some(TenantTable::parse(TENANTS).expect("valid table")),
        replication: None,
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.run(false)))
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
    let (addr, handle) = bind_tenant_server(policy);
    let (mut writer, mut reader) = connect(&addr);
    for c in skewed_submits() {
        let reply = exchange(&mut writer, &mut reader, &c);
        assert!(reply.contains("Submitted"), "unexpected {reply}");
    }
    // Mid-backlog, NOT after a drain: a full drain delivers every job
    // regardless of policy and would equalize the totals.
    exchange(&mut writer, &mut reader, r#"{"Advance":{"to":500}}"#);
    let stats = exchange(&mut writer, &mut reader, r#""Stats""#);
    exchange(&mut writer, &mut reader, r#""Shutdown""#);
    handle.join().expect("server thread").expect("server run");
    parsed(&stats)
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
    let (addr, handle) = bind_tenant_server(Policy::Fcfs);
    let (mut writer, mut reader) = connect(&addr);

    // light's quota bounds *outstanding* units at 100. Pile up queued
    // full-machine jobs until the quota — not capacity — refuses.
    let reply = exchange(
        &mut writer,
        &mut reader,
        r#"{"Submit":{"job":{"id":1,"procs":3,"runtime":50,"submit":0,"tenant":"light"}}}"#,
    );
    assert!(reply.contains("Submitted"), "unexpected {reply}");
    for i in 2..=12u64 {
        let reply = exchange(
            &mut writer,
            &mut reader,
            &format!(
                r#"{{"Submit":{{"job":{{"id":{i},"procs":8,"runtime":5000,"submit":0,"tenant":"light"}}}}}}"#
            ),
        );
        assert!(reply.contains("Submitted"), "unexpected {reply}");
    }
    // 3 + 11 × 8 = 91 outstanding; 8 more would make 99 ≤ 100: fine.
    // Then 8 on top busts it: 99 + 8 = 107 > 100.
    let reply = exchange(
        &mut writer,
        &mut reader,
        r#"{"Submit":{"job":{"id":13,"procs":8,"runtime":5000,"submit":0,"tenant":"light"}}}"#,
    );
    assert!(reply.contains("Submitted"), "unexpected {reply}");
    let reply = parsed(&exchange(
        &mut writer,
        &mut reader,
        r#"{"Submit":{"job":{"id":14,"procs":8,"runtime":5000,"submit":0,"tenant":"light"}}}"#,
    ));
    let quota = reply
        .get("QuotaExceeded")
        .unwrap_or_else(|| panic!("expected QuotaExceeded, got {reply:?}"));
    assert_eq!(quota.get("tenant").and_then(Value::as_str), Some("light"));
    assert_eq!(quota.get("requested").map(num), Some(8.0));
    assert_eq!(quota.get("in_use").map(num), Some(99.0));
    assert_eq!(quota.get("quota").map(num), Some(100.0));

    // Cancelling a queued job releases quota: the same submission is
    // accepted afterwards.
    let reply = exchange(&mut writer, &mut reader, r#"{"Cancel":{"id":13}}"#);
    assert!(reply.contains("true"), "cancel failed: {reply}");
    let reply = exchange(
        &mut writer,
        &mut reader,
        r#"{"Submit":{"job":{"id":14,"procs":8,"runtime":5000,"submit":0,"tenant":"light"}}}"#,
    );
    assert!(reply.contains("Submitted"), "unexpected {reply}");

    // Unknown tenants are refused outright; empty names die at the
    // protocol edge with field context.
    let reply = exchange(
        &mut writer,
        &mut reader,
        r#"{"Submit":{"job":{"id":50,"procs":1,"runtime":5,"submit":0,"tenant":"mallory"}}}"#,
    );
    assert!(
        reply.contains("Rejected") && reply.contains("unknown tenant"),
        "unexpected {reply}"
    );
    let reply = exchange(
        &mut writer,
        &mut reader,
        r#"{"Submit":{"job":{"id":51,"procs":1,"runtime":5,"submit":0,"tenant":" "}}}"#,
    );
    assert!(
        reply.contains("Error") && reply.contains("Submit.job.tenant"),
        "unexpected {reply}"
    );

    exchange(&mut writer, &mut reader, r#""Shutdown""#);
    handle.join().expect("server thread").expect("server run");
}

// ---------------------------------------------------------------------
// Crash injection: SIGKILL a tenant-enabled journaled server, restart,
// and demand byte-identical answers versus an uninterrupted run.
// ---------------------------------------------------------------------

struct ServerProc {
    child: Child,
    addr: String,
    stderr: BufReader<ChildStderr>,
}

impl ServerProc {
    fn spawn(dir: &Path, tenants_file: &Path) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lumos"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .arg("--journal")
            .arg(dir)
            .args(["--fsync", "always", "--snapshot-every", "6"])
            .args(["--policy", "maxmin"])
            .arg("--tenants")
            .arg(tenants_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lumos serve");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut banner = String::new();
        stderr.read_line(&mut banner).expect("read banner");
        let addr = banner
            .strip_prefix("lumos-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .to_string();
        Self {
            child,
            addr,
            stderr,
        }
    }

    fn read_recovery_lines(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.stderr.read_line(&mut line).expect("read stderr");
            assert!(n > 0, "stderr closed before recovery line: {lines:?}");
            let done = line.contains("recovered") && line.contains("journaled commands");
            lines.push(line.trim_end().to_string());
            if done {
                return lines;
            }
        }
    }

    fn kill(mut self) {
        self.child.kill().expect("SIGKILL server");
        self.child.wait().expect("reap server");
    }
}

/// Pre-crash commands on the default (theta-sized) system: tenant-tagged
/// submissions for both tenants, advances, and a cancel. All of these are
/// durable operations; refusals are probed post-crash instead, because
/// refused submissions are never journaled and the live rejection counter
/// is deliberately not durable state.
fn precrash_commands(units: u64) -> Vec<String> {
    let big = units - 8;
    let mut cmds = Vec::new();
    for i in 0..24u64 {
        let submit = i as i64 * 13;
        let tenant = if i % 3 == 0 { "light" } else { "heavy" };
        let (procs, runtime) = if i % 5 == 0 && tenant == "heavy" {
            (big, 400 + i as i64 * 7)
        } else {
            (1 + (i % 7), 90 + i as i64 * 11)
        };
        if i % 4 == 0 {
            cmds.push(format!(r#"{{"Advance":{{"to":{submit}}}}}"#));
        }
        cmds.push(format!(
            r#"{{"Submit":{{"job":{{"id":{i},"procs":{procs},"runtime":{runtime},"walltime":{},"user":{},"submit":{submit},"tenant":"{tenant}"}}}}}}"#,
            runtime + 200,
            i % 3,
        ));
    }
    cmds.push(r#"{"Cancel":{"id":20}}"#.to_string());
    cmds.push(r#"{"Advance":{"to":500}}"#.to_string());
    cmds
}

/// Post-crash probes whose raw responses must match byte for byte — the
/// `Stats` probe covers the whole tenants block (usage, waits, fairness),
/// and the two refusal probes (over-quota and unknown tenant) demand that
/// the recovered quota accounting refuses with the exact same numbers an
/// uninterrupted server would.
fn probe_commands() -> Vec<String> {
    vec![
        r#"{"Submit":{"job":{"id":900,"procs":95,"runtime":50,"submit":500,"tenant":"light"}}}"#
            .to_string(),
        r#"{"Submit":{"job":{"id":901,"procs":1,"runtime":5,"submit":500,"tenant":"mallory"}}}"#
            .to_string(),
        r#"{"Query":{"id":0}}"#.to_string(),
        r#"{"Query":{"id":20}}"#.to_string(),
        r#"{"Query":{"id":23}}"#.to_string(),
        r#""Stats""#.to_string(),
        r#""Snapshot""#.to_string(),
        r#""Shutdown""#.to_string(),
    ]
}

/// Feeds `commands` to an uninterrupted in-process tenant-enabled server
/// and returns every raw response line.
fn reference_responses(commands: &[String]) -> Vec<String> {
    let sim = SimConfig {
        policy: Policy::MaxMinFair,
        ..SimConfig::default()
    };
    let config = ServeConfig {
        system: SystemSpec::theta(),
        sim,
        queue_capacity: 1024,
        time_scale: 0.0,
        journal: None,
        predictor: None,
        tenants: Some(TenantTable::parse(TENANTS).expect("valid table")),
        replication: None,
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind reference");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run(false));
    let (mut writer, mut reader) = connect(&addr);
    let replies: Vec<String> = commands
        .iter()
        .map(|c| exchange(&mut writer, &mut reader, c))
        .collect();
    handle
        .join()
        .expect("reference thread")
        .expect("reference run");
    replies
}

#[test]
fn killed_tenant_server_recovers_byte_identical_state() {
    let dir = fresh_dir("kill");
    let tenants_file = dir.join("tenants.conf");
    std::fs::write(&tenants_file, TENANTS).expect("write tenant table");
    let pre = precrash_commands(SystemSpec::theta().total_units);
    let probes = probe_commands();

    let server = ServerProc::spawn(&dir, &tenants_file);
    let (mut writer, mut reader) = connect(&server.addr);
    let mut live_replies = Vec::new();
    for c in &pre {
        live_replies.push(exchange(&mut writer, &mut reader, c));
    }
    server.kill();

    let mut restarted = ServerProc::spawn(&dir, &tenants_file);
    let recovery = restarted.read_recovery_lines();
    assert!(
        recovery
            .iter()
            .any(|l| l.contains("journaled commands (t = 500)")),
        "unexpected recovery chatter: {recovery:?}"
    );

    let (mut writer, mut reader) = connect(&restarted.addr);
    let recovered_replies: Vec<String> = probes
        .iter()
        .map(|c| exchange(&mut writer, &mut reader, c))
        .collect();
    let status = restarted.child.wait().expect("server exits after Shutdown");
    assert!(status.success(), "restarted server exited with {status}");

    // The refusals really were refused — by the *recovered* server.
    assert!(
        recovered_replies[0].contains("QuotaExceeded"),
        "over-quota probe was not refused: {}",
        recovered_replies[0]
    );
    assert!(
        recovered_replies[1].contains("unknown tenant"),
        "unknown-tenant probe was not refused: {}",
        recovered_replies[1]
    );

    let all: Vec<String> = pre.iter().chain(&probes).cloned().collect();
    let reference = reference_responses(&all);
    assert_eq!(
        live_replies[..],
        reference[..pre.len()],
        "pre-crash acknowledgments diverged from the uninterrupted run"
    );
    assert_eq!(
        recovered_replies[..],
        reference[pre.len()..],
        "recovered tenant state diverged from the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).ok();
}
