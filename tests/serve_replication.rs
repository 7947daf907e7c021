//! Failover crash-injection tests for hot-standby replication: a primary
//! `lumos serve --journal --replicate-to` streams every journal record to
//! a follower, the primary is SIGKILLed mid-stream, the follower is
//! promoted, and its answers are compared **byte for byte** against an
//! uninterrupted reference server fed the exact same acknowledged command
//! sequence. The follower's journal directory must also mirror the
//! primary's byte for byte — segments and rotation snapshots alike.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lumos_core::SystemSpec;
use lumos_serve::{ServeConfig, Server};
use lumos_sim::SimConfig;

/// A fresh, unique journal directory under the system temp dir.
fn journal_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lumos-replica-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create journal dir");
    dir
}

/// Reserves an ephemeral port by binding and immediately releasing it, so
/// a server spawned later can listen on a known address.
fn reserve_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let port = listener.local_addr().expect("local addr").port();
    drop(listener);
    port
}

/// A spawned `lumos serve` process with its bound address parsed from the
/// startup banner.
struct ServerProc {
    child: Child,
    addr: String,
    #[allow(dead_code)]
    stderr: BufReader<ChildStderr>,
}

impl ServerProc {
    /// Spawns `lumos serve --journal <dir> --fsync always <extra...>` on
    /// an ephemeral port (pass `--addr` in `extra` to override) and waits
    /// for the listening banner.
    fn spawn(dir: &Path, extra: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lumos"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .arg("--journal")
            .arg(dir)
            .args(["--fsync", "always"])
            .args(extra)
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

    fn kill(mut self) {
        self.child.kill().expect("SIGKILL server");
        self.child.wait().expect("reap server");
    }
}

/// One NDJSON exchange over a live connection, returning the raw response
/// line (trailing newline stripped).
fn exchange(writer: &mut impl Write, reader: &mut impl BufRead, request: &str) -> String {
    writeln!(writer, "{request}").expect("write request");
    writer.flush().expect("flush request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(
        !line.is_empty(),
        "server closed the connection on {request}"
    );
    line.trim_end().to_string()
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// Polls the server's `Stats` until its clock reaches `t` (replication is
/// asynchronous: the follower trails the primary by the in-flight
/// window). Panics after 30 s.
fn wait_for_clock(addr: &str, t: i64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut writer, mut reader) = connect(addr);
    let needle = format!("\"now\":{t},");
    loop {
        let stats = exchange(&mut writer, &mut reader, r#""Stats""#);
        if stats.contains(&needle) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower never reached t = {t}: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The deterministic pre-crash command stream (no refused submissions:
/// refusals are never journaled, so they must not appear in a stream whose
/// replica is compared against a reference run). Ends with an `Advance` so
/// catch-up is observable as the follower's clock.
fn precrash_commands() -> Vec<String> {
    let units = SystemSpec::theta().total_units;
    let big = units - 8;
    let mut cmds = Vec::new();
    for i in 0..24u64 {
        let submit = i as i64 * 13;
        let (procs, runtime) = if i % 5 == 0 {
            (big, 400 + i as i64 * 7)
        } else {
            (1 + (i % 7), 90 + i as i64 * 11)
        };
        if i % 4 == 0 {
            cmds.push(format!(r#"{{"Advance":{{"to":{submit}}}}}"#));
        }
        cmds.push(format!(
            r#"{{"Submit":{{"job":{{"id":{i},"procs":{procs},"runtime":{runtime},"walltime":{},"user":{},"submit":{submit}}}}}}}"#,
            runtime + 200,
            i % 3,
        ));
    }
    cmds.push(r#"{"Cancel":{"id":20}}"#.to_string());
    cmds.push(r#"{"Advance":{"to":500}}"#.to_string());
    cmds
}

/// The post-failover probes whose raw responses must match byte for byte.
fn probe_commands() -> Vec<String> {
    vec![
        r#"{"Query":{"id":0}}"#.to_string(),
        r#"{"Query":{"id":20}}"#.to_string(),
        r#"{"Query":{"id":23}}"#.to_string(),
        r#""Stats""#.to_string(),
        r#""Snapshot""#.to_string(),
        r#""Shutdown""#.to_string(),
    ]
}

/// Feeds `commands` to an uninterrupted in-process server (no journal, no
/// replication) and returns every raw response line.
fn reference_responses(commands: &[String]) -> Vec<String> {
    let config = ServeConfig {
        system: SystemSpec::theta(),
        sim: SimConfig::default(),
        queue_capacity: 1024,
        time_scale: 0.0,
        journal: None,
        predictor: None,
        tenants: None,
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

/// Every journal file (segments and snapshots) in `dir`, by name.
fn journal_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read journal dir")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name()?.to_str()?.to_string();
            let journal = (name.starts_with("journal-") && name.ends_with(".log"))
                || (name.starts_with("snapshot-") && name.ends_with(".json"));
            journal.then(|| (name, std::fs::read(&path).expect("read journal file")))
        })
        .collect()
}

/// Asserts the follower's journal directory mirrors the primary's byte
/// for byte — same file names, same contents.
fn assert_dirs_identical(primary: &Path, follower: &Path) {
    let p = journal_files(primary);
    let f = journal_files(follower);
    assert_eq!(
        p.keys().collect::<Vec<_>>(),
        f.keys().collect::<Vec<_>>(),
        "journal file sets differ"
    );
    for (name, bytes) in &p {
        assert_eq!(
            bytes, &f[name],
            "{name} differs between primary and follower"
        );
    }
    assert!(!p.is_empty(), "no journal files to compare");
}

#[test]
fn promoted_follower_is_byte_identical_to_uninterrupted_run() {
    let prim_dir = journal_dir("failover-prim");
    let fol_dir = journal_dir("failover-fol");
    let pre = precrash_commands();
    let probes = probe_commands();

    // The follower starts first (the primary dials it) on a reserved
    // primary address, so `--follow` names the real peer.
    let prim_port = reserve_port();
    let prim_addr = format!("127.0.0.1:{prim_port}");
    let mut follower = ServerProc::spawn(&fol_dir, &["--follow", &prim_addr]);
    // Rotate every 8 records so the stream crosses segment boundaries and
    // the follower synthesizes its own rotation snapshots.
    let primary = ServerProc::spawn(
        &prim_dir,
        &[
            "--addr",
            &prim_addr,
            "--replicate-to",
            &follower.addr,
            "--snapshot-every",
            "8",
        ],
    );

    let (mut writer, mut reader) = connect(&primary.addr);
    let mut live_replies = Vec::new();
    for c in &pre {
        live_replies.push(exchange(&mut writer, &mut reader, c));
    }
    // Replication is asynchronous: wait until the follower has applied
    // the final Advance, then verify its mirror and pull the plug.
    wait_for_clock(&follower.addr, 500);
    assert_dirs_identical(&prim_dir, &fol_dir);
    primary.kill();

    // Promote the standby; it must answer exactly like a server that
    // never crashed.
    let (mut writer, mut reader) = connect(&follower.addr);
    let promoted = exchange(&mut writer, &mut reader, r#""Promote""#);
    assert!(
        promoted.contains("Promoted") && promoted.contains("\"now\":500"),
        "unexpected promotion reply: {promoted}"
    );
    let failover_replies: Vec<String> = probes
        .iter()
        .map(|c| exchange(&mut writer, &mut reader, c))
        .collect();
    let status = follower
        .child
        .wait()
        .expect("follower exits after Shutdown");
    assert!(status.success(), "promoted follower exited with {status}");

    let all: Vec<String> = pre.iter().chain(&probes).cloned().collect();
    let reference = reference_responses(&all);
    assert_eq!(
        live_replies[..],
        reference[..pre.len()],
        "pre-crash acknowledgments diverged from the uninterrupted run"
    );
    assert_eq!(
        failover_replies[..],
        reference[pre.len()..],
        "promoted standby diverged from the uninterrupted run"
    );

    std::fs::remove_dir_all(&prim_dir).ok();
    std::fs::remove_dir_all(&fol_dir).ok();
}

#[test]
fn follower_joins_mid_segment_and_resumes_after_its_own_crash() {
    let prim_dir = journal_dir("resume-prim");
    let fol_dir = journal_dir("resume-fol");

    // The primary starts alone, dialing a reserved follower address; the
    // sender retries until someone listens there.
    let fol_port = reserve_port();
    let fol_addr = format!("127.0.0.1:{fol_port}");
    let primary = ServerProc::spawn(&prim_dir, &["--replicate-to", &fol_addr]);
    let (mut writer, mut reader) = connect(&primary.addr);
    for i in 0..6u64 {
        let reply = exchange(
            &mut writer,
            &mut reader,
            &format!(
                r#"{{"Submit":{{"job":{{"id":{i},"procs":2,"runtime":100,"walltime":200,"submit":{}}}}}}}"#,
                i as i64 * 10
            ),
        );
        assert!(reply.contains("Submitted"), "unexpected {reply}");
    }
    exchange(&mut writer, &mut reader, r#"{"Advance":{"to":100}}"#);

    // The follower appears mid-segment: the handshake starts it at
    // offset 0 and the primary ships the whole backlog.
    let follower = ServerProc::spawn(&fol_dir, &["--addr", &fol_addr, "--follow", &primary.addr]);
    wait_for_clock(&follower.addr, 100);
    assert_dirs_identical(&prim_dir, &fol_dir);

    // Kill the follower mid-life; the primary keeps serving (and keeps
    // journaling) while nobody is listening.
    follower.kill();
    for i in 6..12u64 {
        let reply = exchange(
            &mut writer,
            &mut reader,
            &format!(
                r#"{{"Submit":{{"job":{{"id":{i},"procs":2,"runtime":100,"walltime":200,"submit":{}}}}}}}"#,
                100 + i as i64 * 10
            ),
        );
        assert!(reply.contains("Submitted"), "unexpected {reply}");
    }
    exchange(&mut writer, &mut reader, r#"{"Advance":{"to":400}}"#);

    // Restart the follower on the same directory and address: the
    // handshake reports its durable mid-segment offset and the primary
    // resumes from exactly there — no re-shipping, no gaps.
    let mut follower =
        ServerProc::spawn(&fol_dir, &["--addr", &fol_addr, "--follow", &primary.addr]);
    wait_for_clock(&follower.addr, 400);
    assert_dirs_identical(&prim_dir, &fol_dir);

    let (mut writer, mut reader) = connect(&follower.addr);
    exchange(&mut writer, &mut reader, r#""Shutdown""#);
    follower.child.wait().expect("reap follower");
    primary.kill();
    std::fs::remove_dir_all(&prim_dir).ok();
    std::fs::remove_dir_all(&fol_dir).ok();
}

#[test]
fn follower_catches_up_across_multiple_rotations() {
    let prim_dir = journal_dir("lag-prim");
    let fol_dir = journal_dir("lag-fol");

    // Aggressive rotation: by the time the follower connects, the record
    // it needs next lives several segments behind the active one.
    let fol_port = reserve_port();
    let fol_addr = format!("127.0.0.1:{fol_port}");
    let primary = ServerProc::spawn(
        &prim_dir,
        &["--replicate-to", &fol_addr, "--snapshot-every", "4"],
    );
    let (mut writer, mut reader) = connect(&primary.addr);
    let pre = precrash_commands();
    for c in &pre {
        exchange(&mut writer, &mut reader, c);
    }
    let segments = journal_files(&prim_dir)
        .keys()
        .filter(|n| n.ends_with(".log"))
        .count();
    assert!(
        segments > 2,
        "need a multi-rotation backlog, got {segments}"
    );

    let mut follower =
        ServerProc::spawn(&fol_dir, &["--addr", &fol_addr, "--follow", &primary.addr]);
    wait_for_clock(&follower.addr, 500);
    assert_dirs_identical(&prim_dir, &fol_dir);

    // The replayed state answers like the primary, not just the files.
    let (mut pw, mut pr) = connect(&primary.addr);
    let (mut fw, mut fr) = connect(&follower.addr);
    let p = exchange(&mut pw, &mut pr, r#""Snapshot""#);
    let f = exchange(&mut fw, &mut fr, r#""Snapshot""#);
    assert_eq!(p, f, "snapshots diverged");

    exchange(&mut fw, &mut fr, r#""Shutdown""#);
    follower.child.wait().expect("reap follower");
    primary.kill();
    std::fs::remove_dir_all(&prim_dir).ok();
    std::fs::remove_dir_all(&fol_dir).ok();
}

#[test]
fn promotion_rules_and_follower_write_refusal() {
    let prim_dir = journal_dir("rules-prim");
    let fol_dir = journal_dir("rules-fol");

    let prim_port = reserve_port();
    let prim_addr = format!("127.0.0.1:{prim_port}");
    let mut follower = ServerProc::spawn(&fol_dir, &["--follow", &prim_addr]);
    let primary = ServerProc::spawn(
        &prim_dir,
        &["--addr", &prim_addr, "--replicate-to", &follower.addr],
    );

    // A primary refuses promotion — it already is one.
    let (mut pw, mut pr) = connect(&primary.addr);
    let reply = exchange(&mut pw, &mut pr, r#""Promote""#);
    assert!(
        reply.contains("Error") && reply.contains("already the primary"),
        "unexpected {reply}"
    );

    // A follower refuses writes while following.
    let (mut fw, mut fr) = connect(&follower.addr);
    for refused in [
        r#"{"Submit":{"job":{"id":1,"procs":1,"runtime":10}}}"#,
        r#"{"Cancel":{"id":1}}"#,
        r#"{"Advance":{"to":50}}"#,
    ] {
        let reply = exchange(&mut fw, &mut fr, refused);
        assert!(
            reply.contains("Error") && reply.contains("read-only follower"),
            "unexpected {reply}"
        );
    }

    // First promotion succeeds; the second is refused (no double
    // promotion), and the promoted server accepts writes.
    primary.kill();
    let reply = exchange(&mut fw, &mut fr, r#""Promote""#);
    assert!(reply.contains("Promoted"), "unexpected {reply}");
    let reply = exchange(&mut fw, &mut fr, r#""Promote""#);
    assert!(
        reply.contains("Error") && reply.contains("already the primary"),
        "double promotion accepted: {reply}"
    );
    let reply = exchange(
        &mut fw,
        &mut fr,
        r#"{"Submit":{"job":{"id":1,"procs":1,"runtime":10,"submit":0}}}"#,
    );
    assert!(reply.contains("Submitted"), "unexpected {reply}");
    exchange(&mut fw, &mut fr, r#""Shutdown""#);
    follower.child.wait().expect("reap follower");

    std::fs::remove_dir_all(&prim_dir).ok();
    std::fs::remove_dir_all(&fol_dir).ok();
}
