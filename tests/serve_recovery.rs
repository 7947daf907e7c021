//! Crash-injection tests for the durable journaling path: a `lumos serve
//! --journal` process is SIGKILLed mid-stream, restarted on the same
//! directory, and its recovered answers are compared **byte for byte**
//! against an uninterrupted in-process server fed the exact same
//! acknowledged command sequence. Because the journal is written ahead of
//! every acknowledgment (`--fsync always`), nothing acked may be lost.

use std::path::{Path, PathBuf};

use lumos_core::SystemSpec;
use lumos_serve::{PredictorConfig, ServeConfig};

mod support;
use support::{
    crash_and_compare, lumos, precrash_commands, probe_commands, scratch_dir, ServerProc,
};

/// The shared pre-crash stream with a refused cancel (an unknown id)
/// before its last `Advance`: refusals must not be journaled.
fn precrash_with_refusal() -> Vec<String> {
    let mut cmds = precrash_commands(false);
    cmds.insert(cmds.len() - 1, r#"{"Cancel":{"id":4040}}"#.to_string());
    cmds
}

/// Rotation every 6 records makes recovery exercise snapshot + tail
/// replay, not just a cold full-log replay.
#[test]
fn killed_server_recovers_byte_identical_state() {
    crash_and_compare(
        &scratch_dir("recovery-kill"),
        &["--snapshot-every", "6"],
        &precrash_with_refusal(),
        &probe_commands(),
        ServeConfig::new(SystemSpec::theta()),
    );
}

/// The same crash with the Last2 predictor in the scheduling loop: its
/// streaming state (per-user histories, global mean) must be checkpointed
/// and replayed too, or post-crash estimates — and therefore schedules
/// and the `Stats` probe's accuracy fields — drift.
#[test]
fn killed_predictor_server_recovers_byte_identical_state() {
    let mut reference = ServeConfig::new(SystemSpec::theta());
    reference.predictor = Some(PredictorConfig::Last2 { margin: 1.5 });
    crash_and_compare(
        &scratch_dir("recovery-predictor"),
        &["--predictor", "last2:1.5", "--snapshot-every", "6"],
        &precrash_with_refusal(),
        &probe_commands(),
        reference,
    );
}

#[test]
fn group_commit_kill_mid_batch_loses_no_acked_command() {
    let dir = scratch_dir("recovery-groupkill");

    let server = ServerProc::spawn(&dir, &[]);
    let mut client = server.client();

    // Firehose: pipeline five rounds' worth of submits without waiting for
    // replies, so the scheduler drains several full rounds and the SIGKILL
    // lands with whole batches still in flight (including, more often than
    // not, inside a batch).
    let total = 5 * 64u64;
    for i in 0..total {
        client.send(&format!(
            r#"{{"Submit":{{"job":{{"id":{i},"procs":1,"runtime":60,"submit":{i}}}}}}}"#,
        ));
    }

    // Read a partial prefix of the acknowledgments, then SIGKILL with the
    // rest of the stream still unanswered. Replies come back in request
    // order, so reply k must acknowledge submit id k — a reply for a
    // command the server never journaled would show up here as a hole.
    let acked = 101u64;
    for i in 0..acked {
        let line = client.recv();
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
    let mut client = restarted.client();
    let mut known = 0u64;
    let mut first_unknown = None;
    for i in 0..total {
        let reply = client.exchange(&format!(r#"{{"Query":{{"id":{i}}}}}"#));
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
    let reply = client.exchange(r#""Shutdown""#);
    assert!(reply.contains("Bye"), "unexpected {reply}");
    restarted.exit_ok();

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the pre-crash stream through a server rotating every 4 records
/// and shuts it down cleanly, leaving a chain of rotation snapshots.
fn journal_with_snapshots(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    let server = ServerProc::spawn(&dir, &["--snapshot-every", "4"]);
    let mut client = server.client();
    for c in precrash_with_refusal() {
        client.exchange(&c);
    }
    client.exchange(r#""Shutdown""#);
    server.exit_ok();
    dir
}

/// `lumos journal inspect DIR`: exit status, stdout and stderr.
fn inspect(dir: &Path) -> (Option<i32>, String, String) {
    let out = lumos(&[
        "journal",
        "inspect",
        dir.to_str().expect("temp dir is UTF-8"),
    ]);
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn journal_inspect_audits_the_directory() {
    let dir = journal_with_snapshots("recovery-inspect");
    let (code, stdout, stderr) = inspect(&dir);
    assert_eq!(code, Some(0), "inspect failed: {stderr}");
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
    assert_eq!(lumos(&["journal", "frobnicate"]).status.code(), Some(2));
    assert_eq!(inspect(&dir.join("no-such-subdir")).0, Some(1));

    std::fs::remove_dir_all(&dir).ok();
}
