//! Failover crash-injection tests for hot-standby replication: a primary
//! `lumos serve --journal --replicate-to` streams every journal record to
//! a follower, the primary is SIGKILLed mid-stream, the follower is
//! promoted, and its answers are compared **byte for byte** against an
//! uninterrupted reference server fed the exact same acknowledged command
//! sequence. The follower's journal directory must also mirror the
//! primary's byte for byte — segments and rotation snapshots alike.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use lumos_core::SystemSpec;
use lumos_serve::ServeConfig;

mod support;
use support::{
    precrash_commands, probe_commands, reference_replies, scratch_dir, Client, ServerProc,
    PRECRASH_END,
};

/// Reserves an ephemeral port by binding and immediately releasing it, so
/// a server spawned later can listen on a known address.
fn reserve_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let port = listener.local_addr().expect("local addr").port();
    drop(listener);
    port
}

/// Polls the server's `Stats` until its clock reaches `t` (replication is
/// asynchronous: the follower trails the primary by the in-flight
/// window). Panics after 30 s.
fn wait_for_clock(addr: &str, t: i64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = Client::connect(addr);
    let needle = format!("\"now\":{t},");
    loop {
        let stats = client.exchange(r#""Stats""#);
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
    let prim_dir = scratch_dir("replica-failover-prim");
    let fol_dir = scratch_dir("replica-failover-fol");
    let pre = precrash_commands(false);
    let probes = probe_commands();

    // The follower starts first (the primary dials it) on a reserved
    // primary address, so `--follow` names the real peer.
    let prim_port = reserve_port();
    let prim_addr = format!("127.0.0.1:{prim_port}");
    let follower = ServerProc::spawn(&fol_dir, &["--follow", &prim_addr]);
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

    let mut client = primary.client();
    let live_replies: Vec<String> = pre.iter().map(|c| client.exchange(c)).collect();
    // Replication is asynchronous: wait until the follower has applied
    // the final Advance, then verify its mirror and pull the plug.
    wait_for_clock(&follower.addr, PRECRASH_END);
    assert_dirs_identical(&prim_dir, &fol_dir);
    primary.kill();

    // Promote the standby; it must answer exactly like a server that
    // never crashed.
    let mut client = follower.client();
    let promoted = client.exchange(r#""Promote""#);
    assert!(
        promoted.contains("Promoted") && promoted.contains(&format!("\"now\":{PRECRASH_END}")),
        "unexpected promotion reply: {promoted}"
    );
    let failover_replies: Vec<String> = probes.iter().map(|c| client.exchange(c)).collect();
    follower.exit_ok();

    let all: Vec<String> = pre.iter().chain(&probes).cloned().collect();
    let reference = reference_replies(ServeConfig::new(SystemSpec::theta()), &all);
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
    let prim_dir = scratch_dir("replica-resume-prim");
    let fol_dir = scratch_dir("replica-resume-fol");

    // The primary starts alone, dialing a reserved follower address; the
    // sender retries until someone listens there.
    let fol_port = reserve_port();
    let fol_addr = format!("127.0.0.1:{fol_port}");
    let primary = ServerProc::spawn(&prim_dir, &["--replicate-to", &fol_addr]);
    let mut client = primary.client();
    for i in 0..6u64 {
        let reply = client.exchange(&format!(
            r#"{{"Submit":{{"job":{{"id":{i},"procs":2,"runtime":100,"walltime":200,"submit":{}}}}}}}"#,
            i as i64 * 10
        ));
        assert!(reply.contains("Submitted"), "unexpected {reply}");
    }
    client.exchange(r#"{"Advance":{"to":100}}"#);

    // The follower appears mid-segment: the handshake starts it at
    // offset 0 and the primary ships the whole backlog.
    let follower = ServerProc::spawn(&fol_dir, &["--addr", &fol_addr, "--follow", &primary.addr]);
    wait_for_clock(&follower.addr, 100);
    assert_dirs_identical(&prim_dir, &fol_dir);

    // Kill the follower mid-life; the primary keeps serving (and keeps
    // journaling) while nobody is listening.
    follower.kill();
    for i in 6..12u64 {
        let reply = client.exchange(&format!(
            r#"{{"Submit":{{"job":{{"id":{i},"procs":2,"runtime":100,"walltime":200,"submit":{}}}}}}}"#,
            100 + i as i64 * 10
        ));
        assert!(reply.contains("Submitted"), "unexpected {reply}");
    }
    client.exchange(r#"{"Advance":{"to":400}}"#);

    // Restart the follower on the same directory and address: the
    // handshake reports its durable mid-segment offset and the primary
    // resumes from exactly there — no re-shipping, no gaps.
    let follower = ServerProc::spawn(&fol_dir, &["--addr", &fol_addr, "--follow", &primary.addr]);
    wait_for_clock(&follower.addr, 400);
    assert_dirs_identical(&prim_dir, &fol_dir);

    follower.client().exchange(r#""Shutdown""#);
    follower.exit_ok();
    primary.kill();
    std::fs::remove_dir_all(&prim_dir).ok();
    std::fs::remove_dir_all(&fol_dir).ok();
}

#[test]
fn follower_catches_up_across_multiple_rotations() {
    let prim_dir = scratch_dir("replica-lag-prim");
    let fol_dir = scratch_dir("replica-lag-fol");

    // Aggressive rotation: by the time the follower connects, the record
    // it needs next lives several segments behind the active one.
    let fol_port = reserve_port();
    let fol_addr = format!("127.0.0.1:{fol_port}");
    let primary = ServerProc::spawn(
        &prim_dir,
        &["--replicate-to", &fol_addr, "--snapshot-every", "4"],
    );
    let mut client = primary.client();
    let pre = precrash_commands(false);
    for c in &pre {
        client.exchange(c);
    }
    let segments = journal_files(&prim_dir)
        .keys()
        .filter(|n| n.ends_with(".log"))
        .count();
    assert!(
        segments > 2,
        "need a multi-rotation backlog, got {segments}"
    );

    let follower = ServerProc::spawn(&fol_dir, &["--addr", &fol_addr, "--follow", &primary.addr]);
    wait_for_clock(&follower.addr, PRECRASH_END);
    assert_dirs_identical(&prim_dir, &fol_dir);

    // The replayed state answers like the primary, not just the files.
    let mut pc = primary.client();
    let mut fc = follower.client();
    let p = pc.exchange(r#""Snapshot""#);
    let f = fc.exchange(r#""Snapshot""#);
    assert_eq!(p, f, "snapshots diverged");

    fc.exchange(r#""Shutdown""#);
    follower.exit_ok();
    primary.kill();
    std::fs::remove_dir_all(&prim_dir).ok();
    std::fs::remove_dir_all(&fol_dir).ok();
}

#[test]
fn promotion_rules_and_follower_write_refusal() {
    let prim_dir = scratch_dir("replica-rules-prim");
    let fol_dir = scratch_dir("replica-rules-fol");

    let prim_port = reserve_port();
    let prim_addr = format!("127.0.0.1:{prim_port}");
    let follower = ServerProc::spawn(&fol_dir, &["--follow", &prim_addr]);
    let primary = ServerProc::spawn(
        &prim_dir,
        &["--addr", &prim_addr, "--replicate-to", &follower.addr],
    );

    // A primary refuses promotion — it already is one.
    let mut pc = primary.client();
    let reply = pc.exchange(r#""Promote""#);
    assert!(
        reply.contains("Error") && reply.contains("already the primary"),
        "unexpected {reply}"
    );

    // A follower refuses writes while following.
    let mut fc = follower.client();
    for refused in [
        r#"{"Submit":{"job":{"id":1,"procs":1,"runtime":10}}}"#,
        r#"{"Cancel":{"id":1}}"#,
        r#"{"Advance":{"to":50}}"#,
    ] {
        let reply = fc.exchange(refused);
        assert!(
            reply.contains("Error") && reply.contains("read-only follower"),
            "unexpected {reply}"
        );
    }

    // First promotion succeeds; the second is refused (no double
    // promotion), and the promoted server accepts writes.
    primary.kill();
    let reply = fc.exchange(r#""Promote""#);
    assert!(reply.contains("Promoted"), "unexpected {reply}");
    let reply = fc.exchange(r#""Promote""#);
    assert!(
        reply.contains("Error") && reply.contains("already the primary"),
        "double promotion accepted: {reply}"
    );
    let reply = fc.exchange(r#"{"Submit":{"job":{"id":1,"procs":1,"runtime":10,"submit":0}}}"#);
    assert!(reply.contains("Submitted"), "unexpected {reply}");
    fc.exchange(r#""Shutdown""#);
    follower.exit_ok();

    std::fs::remove_dir_all(&prim_dir).ok();
    std::fs::remove_dir_all(&fol_dir).ok();
}
