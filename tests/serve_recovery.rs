//! Crash-injection tests for the durable journaling path: a `lumos serve
//! --journal` process is SIGKILLed mid-stream, restarted on the same
//! directory, and its recovered answers are compared **byte for byte**
//! against an uninterrupted in-process server fed the exact same
//! acknowledged command sequence. Because the journal is written ahead of
//! every acknowledgment (`--fsync always`), nothing acked may be lost.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use lumos_core::SystemSpec;
use lumos_serve::{ServeConfig, Server};
use lumos_sim::SimConfig;

/// A fresh, unique journal directory under the system temp dir.
fn journal_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lumos-recovery-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create journal dir");
    dir
}

/// A spawned `lumos serve` process with its bound address parsed from the
/// startup banner.
struct ServerProc {
    child: Child,
    addr: String,
    stderr: BufReader<ChildStderr>,
}

impl ServerProc {
    /// Spawns `lumos serve --journal <dir> --fsync always <extra...>` on an
    /// ephemeral port and waits for the listening banner.
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

    /// Reads recovery chatter from stderr until the `recovered N journaled
    /// commands` line; returns every line read (warnings included).
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

/// The deterministic pre-crash command stream: enough submits to fill the
/// machine and queue behind it, explicit advances, a successful cancel,
/// and a refused one (which must NOT be journaled). All submit times are
/// explicit, so the sequence replays identically in virtual time.
fn precrash_commands() -> Vec<String> {
    let units = SystemSpec::theta().total_units;
    let big = units - 8; // leaves a sliver so small jobs backfill
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
    // Job 20 is a `big` submission at t=260: still queued — cancel works.
    cmds.push(r#"{"Cancel":{"id":20}}"#.to_string());
    // Unknown id: refused, and refusals are not journaled.
    cmds.push(r#"{"Cancel":{"id":4040}}"#.to_string());
    cmds.push(r#"{"Advance":{"to":500}}"#.to_string());
    cmds
}

/// The post-crash probes whose raw responses must match byte for byte.
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

/// Feeds `commands` to an uninterrupted in-process server (no journal,
/// optionally predictor-enabled) and returns every raw response line.
fn reference_responses_with(
    commands: &[String],
    predictor: Option<lumos_serve::PredictorConfig>,
) -> Vec<String> {
    let config = ServeConfig {
        system: SystemSpec::theta(),
        sim: SimConfig::default(),
        queue_capacity: 1024,
        time_scale: 0.0,
        journal: None,
        predictor,
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

/// Feeds `commands` to an uninterrupted in-process server (no journal) and
/// returns every raw response line.
fn reference_responses(commands: &[String]) -> Vec<String> {
    reference_responses_with(commands, None)
}

/// Path of the highest-numbered journal segment in `dir`.
fn active_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read journal dir")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with("journal-") && name.ends_with(".log")).then(|| path.clone())
        })
        .collect();
    segments.sort();
    segments.pop().expect("at least one segment")
}

#[test]
fn killed_server_recovers_byte_identical_state() {
    let dir = journal_dir("kill");
    let pre = precrash_commands();
    let probes = probe_commands();

    // Rotate every 6 records so recovery exercises snapshot + tail replay,
    // not just a cold full-log replay.
    let server = ServerProc::spawn(&dir, &["--snapshot-every", "6"]);
    let (mut writer, mut reader) = connect(&server.addr);
    let mut live_replies = Vec::new();
    for c in &pre {
        live_replies.push(exchange(&mut writer, &mut reader, c));
    }
    server.kill();

    let mut restarted = ServerProc::spawn(&dir, &["--snapshot-every", "6"]);
    let recovery = restarted.read_recovery_lines();
    // Rotation bounds recovery to snapshot + tail: far fewer than the 32
    // journaled mutations are replayed, but the clock must be caught up.
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

    // The uninterrupted run answers both phases; its replies are the truth.
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
        "recovered state diverged from the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_predictor_server_recovers_byte_identical_state() {
    let dir = journal_dir("predictor");
    let pre = precrash_commands();
    let probes = probe_commands();
    let flags = ["--predictor", "last2:1.5", "--snapshot-every", "6"];

    // Same crash-injection shape as above, with the Last2 predictor in the
    // scheduling loop: its streaming state (per-user histories, global
    // mean) must be checkpointed and replayed too, or post-crash estimates
    // — and therefore schedules and accuracy stats — drift.
    let server = ServerProc::spawn(&dir, &flags);
    let (mut writer, mut reader) = connect(&server.addr);
    let mut live_replies = Vec::new();
    for c in &pre {
        live_replies.push(exchange(&mut writer, &mut reader, c));
    }
    server.kill();

    let mut restarted = ServerProc::spawn(&dir, &flags);
    restarted.read_recovery_lines();
    let (mut writer, mut reader) = connect(&restarted.addr);
    let recovered_replies: Vec<String> = probes
        .iter()
        .map(|c| exchange(&mut writer, &mut reader, c))
        .collect();
    let status = restarted.child.wait().expect("server exits after Shutdown");
    assert!(status.success(), "restarted server exited with {status}");

    let all: Vec<String> = pre.iter().chain(&probes).cloned().collect();
    let reference = reference_responses_with(
        &all,
        Some(lumos_serve::PredictorConfig::Last2 { margin: 1.5 }),
    );
    assert_eq!(
        live_replies[..],
        reference[..pre.len()],
        "pre-crash acknowledgments diverged from the uninterrupted run"
    );
    // The probes include `Stats`, so this compares the recovered
    // prediction-accuracy fields byte for byte as well.
    assert_eq!(
        recovered_replies[..],
        reference[pre.len()..],
        "recovered predictor state diverged from the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovered_wall_clock_resumes_from_journaled_time() {
    let dir = journal_dir("epoch");

    // Build up journaled history deep into simulated time (virtual-time
    // server: the clock is wherever Advance put it).
    let server = ServerProc::spawn(&dir, &[]);
    let (mut writer, mut reader) = connect(&server.addr);
    let reply = exchange(&mut writer, &mut reader, r#"{"Advance":{"to":100000}}"#);
    assert!(reply.contains("Advanced"), "unexpected {reply}");
    server.kill();

    // Restart under wall-clock time. The recovered clock must resume from
    // t = 100000 — not stall until `elapsed × scale` catches up from zero.
    let mut restarted = ServerProc::spawn(&dir, &["--time-scale", "1000"]);
    let recovery = restarted.read_recovery_lines();
    assert!(
        recovery.iter().any(|l| l.contains("(t = 100000)")),
        "unexpected recovery chatter: {recovery:?}"
    );
    let (mut writer, mut reader) = connect(&restarted.addr);
    let reply = exchange(
        &mut writer,
        &mut reader,
        r#"{"Submit":{"job":{"id":1,"procs":1,"runtime":1}}}"#,
    );
    assert!(reply.contains("Submitted"), "unexpected {reply}");
    // At 1000 sim-seconds per wall second, one wall second more than
    // finishes the 1 s job — if the epoch was reseeded correctly.
    std::thread::sleep(std::time::Duration::from_millis(1200));
    let reply = exchange(&mut writer, &mut reader, r#"{"Query":{"id":1}}"#);
    assert!(
        reply.contains("Finished"),
        "recovered clock stalled instead of resuming: {reply}"
    );
    let reply = exchange(&mut writer, &mut reader, r#""Shutdown""#);
    assert!(reply.contains("Bye"), "unexpected {reply}");
    restarted.child.wait().expect("reap");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_is_truncated_with_a_warning() {
    let dir = journal_dir("torn");
    let pre = precrash_commands();
    let probes = probe_commands();

    let server = ServerProc::spawn(&dir, &[]);
    let (mut writer, mut reader) = connect(&server.addr);
    for c in &pre {
        exchange(&mut writer, &mut reader, c);
    }
    server.kill();

    // Simulate a torn write: a half-record (no newline, bad payload) at
    // the end of the active segment.
    let segment = active_segment(&dir);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&segment)
        .expect("open segment");
    file.write_all(b"137 deadbeef {\"Submit\":{\"now\":9")
        .expect("append torn bytes");
    drop(file);

    let mut restarted = ServerProc::spawn(&dir, &[]);
    let recovery = restarted.read_recovery_lines();
    assert!(
        recovery.iter().any(|l| l.contains("torn record")),
        "no torn-tail warning in: {recovery:?}"
    );
    assert!(
        recovery
            .iter()
            .any(|l| l.contains("recovered 32 journaled commands")),
        "unexpected recovery chatter: {recovery:?}"
    );

    // Every intact record survives: answers match the uninterrupted run.
    let (mut writer, mut reader) = connect(&restarted.addr);
    let recovered_replies: Vec<String> = probes
        .iter()
        .map(|c| exchange(&mut writer, &mut reader, c))
        .collect();
    let status = restarted.child.wait().expect("server exits after Shutdown");
    assert!(status.success(), "restarted server exited with {status}");

    let all: Vec<String> = pre.iter().chain(&probes).cloned().collect();
    let reference = reference_responses(&all);
    assert_eq!(recovered_replies[..], reference[pre.len()..]);

    // The truncated segment now ends cleanly: a fresh restart sees no tear.
    let mut again = ServerProc::spawn(&dir, &[]);
    let recovery = again.read_recovery_lines();
    assert!(
        !recovery.iter().any(|l| l.contains("torn record")),
        "tear survived truncation: {recovery:?}"
    );
    let (mut writer, mut reader) = connect(&again.addr);
    exchange(&mut writer, &mut reader, r#""Shutdown""#);
    again.child.wait().expect("reap");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn group_commit_kill_mid_batch_loses_no_acked_command() {
    let dir = journal_dir("groupkill");

    let server = ServerProc::spawn(&dir, &[]);
    let (mut writer, mut reader) = connect(&server.addr);

    // Firehose: pipeline five rounds' worth of submits without waiting for
    // replies, so the scheduler drains several full rounds and the SIGKILL
    // lands with whole batches still in flight (including, more often than
    // not, inside a batch).
    let total = 5 * 64u64;
    for i in 0..total {
        writeln!(
            writer,
            r#"{{"Submit":{{"job":{{"id":{i},"procs":1,"runtime":60,"submit":{i}}}}}}}"#,
        )
        .expect("pipeline submit");
    }
    writer.flush().expect("flush pipeline");

    // Read a partial prefix of the acknowledgments, then SIGKILL with the
    // rest of the stream still unanswered. Replies come back in request
    // order, so reply k must acknowledge submit id k — a reply for a
    // command the server never journaled would show up here as a hole.
    let acked = 101u64;
    for i in 0..acked {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read ack");
        assert!(!line.is_empty(), "server closed early at ack {i}");
        assert!(
            line.contains("Submitted") && line.contains(&format!("\"id\":{i}")),
            "ack {i} out of order or refused: {line}"
        );
    }
    server.kill();

    // Append-before-ack: everything the client saw acknowledged must
    // survive the crash. A journaled-but-unacknowledged suffix is
    // permitted (the WAL write precedes the ack), but it must be a
    // *prefix* of the submission order — group commit may not reorder or
    // punch holes in the stream.
    let mut restarted = ServerProc::spawn(&dir, &[]);
    restarted.read_recovery_lines();
    let (mut writer, mut reader) = connect(&restarted.addr);
    let mut known = 0u64;
    let mut first_unknown = None;
    for i in 0..total {
        let reply = exchange(
            &mut writer,
            &mut reader,
            &format!(r#"{{"Query":{{"id":{i}}}}}"#),
        );
        if reply.contains("unknown job id") {
            first_unknown.get_or_insert(i);
        } else {
            assert!(
                reply.contains("Job"),
                "unexpected reply for job {i}: {reply}"
            );
            assert!(
                first_unknown.is_none(),
                "recovered jobs are not a prefix: {i} known after {first_unknown:?} unknown"
            );
            known += 1;
        }
    }
    assert!(
        known >= acked,
        "acked commands lost: {acked} acknowledged, only {known} recovered"
    );
    let reply = exchange(&mut writer, &mut reader, r#""Shutdown""#);
    assert!(reply.contains("Bye"), "unexpected {reply}");
    restarted.child.wait().expect("reap");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_inspect_audits_the_directory() {
    let dir = journal_dir("inspect");
    let mut server = ServerProc::spawn(&dir, &["--snapshot-every", "4"]);
    let (mut writer, mut reader) = connect(&server.addr);
    for c in precrash_commands() {
        exchange(&mut writer, &mut reader, &c);
    }
    exchange(&mut writer, &mut reader, r#""Shutdown""#);
    server.child.wait().expect("reap");

    let output = Command::new(env!("CARGO_BIN_EXE_lumos"))
        .args(["journal", "inspect"])
        .arg(&dir)
        .output()
        .expect("run journal inspect");
    assert!(output.status.success(), "inspect failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 stdout");
    assert!(
        stdout.contains("journal-000000.log"),
        "no segment listing:\n{stdout}"
    );
    assert!(
        stdout.contains("delta on snapshot-") && stdout.contains("recovery starts from snapshot-"),
        "no snapshot audit:\n{stdout}"
    );
    assert!(stdout.contains("submit"), "no record counts:\n{stdout}");

    // Usage errors exit 2; a missing directory is a runtime failure (1).
    let bad = Command::new(env!("CARGO_BIN_EXE_lumos"))
        .args(["journal", "frobnicate"])
        .output()
        .expect("run bad subcommand");
    assert_eq!(bad.status.code(), Some(2));
    let missing = Command::new(env!("CARGO_BIN_EXE_lumos"))
        .args(["journal", "inspect"])
        .arg(dir.join("no-such-subdir"))
        .output()
        .expect("run on missing dir");
    assert_eq!(missing.status.code(), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// An increment that parses, names a snapshot that exists and continues
/// its table length and violations, but drops a row: it does not fold.
/// `journal inspect` and `recover()` both pass it over for the snapshot
/// below it, with the same warning.
#[test]
fn inspect_and_recovery_start_from_the_same_snapshot() {
    use lumos_serve::recovery::{read_snapshot, SnapshotBody};

    let dir = journal_dir("unfolding");
    let mut server = ServerProc::spawn(&dir, &["--snapshot-every", "4"]);
    let (mut writer, mut reader) = connect(&server.addr);
    for c in precrash_commands() {
        exchange(&mut writer, &mut reader, &c);
    }
    exchange(&mut writer, &mut reader, r#""Shutdown""#);
    server.child.wait().expect("reap");

    let (_, snapshots) = lumos_serve::journal::scan_dir(&dir).expect("scan");
    let newest = *snapshots.last().expect("the run rotated");
    let snap = read_snapshot(&dir, newest).expect("read the newest snapshot");
    let SnapshotBody::Delta { prev, mut delta } = snap.body else {
        panic!("snapshot {newest} is not an increment");
    };
    delta.rows.remove(0);
    delta.jobs.remove(0);
    delta.states.remove(0);
    delta.plan_wall.remove(0);
    delta.promised.remove(0);
    let text = format!(
        r#"{{"system":{},"prev":{prev},"delta":{},"metrics":{},"predictor":{}}}"#,
        json(&snap.system),
        json(&delta),
        json(&snap.metrics),
        json(&snap.predictor)
    );
    std::fs::write(lumos_serve::journal::snapshot_path(&dir, newest), text).expect("rewrite");

    let output = Command::new(env!("CARGO_BIN_EXE_lumos"))
        .args(["journal", "inspect"])
        .arg(&dir)
        .output()
        .expect("run journal inspect");
    assert!(output.status.success(), "inspect failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 stdout");
    let stderr = String::from_utf8(output.stderr).expect("UTF-8 stderr");
    let start = format!("recovery starts from snapshot-{:06}.json", newest - 1);
    assert!(stdout.contains(&start), "{stdout}");

    let config = ServeConfig::new(SystemSpec::theta());
    let recovered = lumos_serve::recover(&config, &lumos_serve::JournalConfig::new(dir.clone()))
        .expect("recover");
    let mark = recovered.session.save_delta().map(|(since, _)| since);
    assert_eq!(mark, Some(newest - 1), "recovery started elsewhere");
    let [warning] = &recovered.warnings[..] else {
        panic!("{:?}", recovered.warnings);
    };
    assert!(
        warning.contains(&format!("snapshot-{newest:06}.json: inconsistent")),
        "{warning}"
    );
    assert!(stderr.contains(warning.as_str()), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}
