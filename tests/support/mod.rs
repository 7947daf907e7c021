//! What the end-to-end suites share: the `lumos` binary as a command
//! ([`lumos`]) and as a server process ([`ServerProc`]), a line client for
//! the NDJSON protocol ([`Client`]), an in-process server ([`InProc`]),
//! and the oracle every crash and failover test is held to — an
//! uninterrupted server fed the same commands ([`reference_replies`],
//! [`crash_and_compare`]). A suite includes it with `mod support;`.

// Every suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

use lumos_core::{Job, SystemSpec};
use lumos_serve::{ServeConfig, Server};
use serde_json::Value;

/// Runs the `lumos` binary to completion.
pub fn lumos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lumos"))
        .args(args)
        .output()
        .expect("lumos runs")
}

/// A fresh, empty directory under the system temp dir, unique to this
/// process and call.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lumos-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A small machine of `capacity` single-unit nodes, so jobs queue and the
/// policy, not spare capacity, decides who runs.
pub fn tiny_system(capacity: u64) -> SystemSpec {
    let mut s = SystemSpec::theta();
    s.name = "tiny".into();
    s.total_nodes = capacity as u32;
    s.units_per_node = 1;
    s.total_units = capacity;
    s
}

/// 64-bit FNV-1a, the digest the golden suites pin bytes with.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `value` as the JSON tree a reply carries.
pub fn to_value(value: &impl serde::Serialize) -> Value {
    serde_json::parse_value_complete(&serde_json::to_string(value).expect("serializes"))
        .expect("JSON")
}

/// A JSON number as `f64` (the wire carries integers and floats).
pub fn num(v: &Value) -> f64 {
    match v {
        Value::I64(n) => *n as f64,
        Value::U64(n) => *n as f64,
        Value::F64(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

/// How long a client waits for one reply: a server that is gone answers
/// nothing, and the test fails instead of hanging.
const PATIENCE: std::time::Duration = std::time::Duration::from_secs(20);

/// One NDJSON connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        writer
            .set_read_timeout(Some(PATIENCE))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Self { writer, reader }
    }

    /// Writes one request line without waiting for its reply.
    pub fn send(&mut self, request: &str) {
        writeln!(self.writer, "{request}").expect("write request");
    }

    /// Reads one reply line, trailing newline stripped.
    pub fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(!line.is_empty(), "server closed the connection");
        line.trim_end().to_string()
    }

    /// One request and its raw reply.
    pub fn exchange(&mut self, request: &str) -> String {
        self.send(request);
        self.recv()
    }

    /// One request and its reply as JSON.
    pub fn json(&mut self, request: &str) -> Value {
        serde_json::parse_value_complete(&self.exchange(request)).expect("reply is JSON")
    }
}

/// Submits `jobs` in the given order with explicit submit times (and
/// walltimes, where set), advancing the clock to just before every third
/// arrival so it never outruns the next one.
pub fn submit_in_order(client: &mut Client, jobs: &[Job]) {
    for (i, job) in jobs.iter().enumerate() {
        if i % 3 == 0 && job.submit > 0 {
            let reply = client.json(&format!(r#"{{"Advance":{{"to":{}}}}}"#, job.submit - 1));
            assert!(reply.get("Advanced").is_some(), "unexpected {reply:?}");
        }
        let walltime = job
            .walltime
            .map_or(String::new(), |w| format!(r#""walltime":{w},"#));
        let reply = client.json(&format!(
            r#"{{"Submit":{{"job":{{"id":{},"procs":{},"runtime":{},{walltime}"user":{},"submit":{}}}}}}}"#,
            job.id, job.procs, job.runtime, job.user, job.submit
        ));
        assert!(reply.get("Submitted").is_some(), "unexpected {reply:?}");
    }
}

/// A virtual-time server on a thread of this process.
pub struct InProc {
    addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

impl InProc {
    pub fn start(config: ServeConfig) -> Self {
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || server.run(false));
        Self { addr, handle }
    }

    pub fn client(&self) -> Client {
        Client::connect(&self.addr)
    }

    /// Waits for the server to stop after a `Shutdown`; its run must end
    /// without error.
    pub fn join(self) {
        self.handle
            .join()
            .expect("server thread")
            .expect("server run");
    }
}

/// The raw replies of an uninterrupted in-process server fed `commands`
/// one at a time; the last command must be `Shutdown`.
pub fn reference_replies(config: ServeConfig, commands: &[String]) -> Vec<String> {
    let server = InProc::start(config);
    let mut client = server.client();
    let replies = commands.iter().map(|c| client.exchange(c)).collect();
    server.join();
    replies
}

/// A spawned `lumos serve` process with its bound address parsed from the
/// startup banner.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    stderr: BufReader<ChildStderr>,
}

impl ServerProc {
    /// Spawns `lumos serve --addr 127.0.0.1:0 --journal DIR --fsync always
    /// FLAGS...` (an `--addr` in `flags` wins) and waits for the listening
    /// banner.
    pub fn spawn(dir: &Path, flags: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lumos"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .arg("--journal")
            .arg(dir)
            .args(["--fsync", "always"])
            .args(flags)
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

    pub fn client(&self) -> Client {
        Client::connect(&self.addr)
    }

    /// Reads stderr up to the `recovered N journaled commands` line and
    /// returns every line read (warnings included).
    pub fn read_recovery_lines(&mut self) -> Vec<String> {
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

    /// SIGKILLs the server and reaps it.
    pub fn kill(mut self) {
        self.child.kill().expect("SIGKILL server");
        self.child.wait().expect("reap server");
    }

    /// Waits for the server to exit after a `Shutdown`; it must exit 0.
    pub fn exit_ok(mut self) {
        let status = self.child.wait().expect("reap server");
        assert!(status.success(), "server exited with {status}");
    }
}

/// The clock the pre-crash stream ends at.
pub const PRECRASH_END: i64 = 500;

/// The deterministic pre-crash stream on Theta: 24 submits with explicit
/// times that fill the machine and queue behind it (every fifth one
/// leaves a sliver so small jobs backfill), an `Advance` before every
/// fourth, a cancel of job 20 (still queued, so it succeeds) and an
/// `Advance` to [`PRECRASH_END`]. With `tenants`, each submit names
/// `light` (every third) or `heavy`, and only heavy jobs are big. No
/// command is refused: refusals are never journaled.
pub fn precrash_commands(tenants: bool) -> Vec<String> {
    let big = SystemSpec::theta().total_units - 8;
    let mut cmds = Vec::new();
    for i in 0..24u64 {
        let submit = i as i64 * 13;
        let light = tenants && i % 3 == 0;
        let (procs, runtime) = if i % 5 == 0 && !light {
            (big, 400 + i as i64 * 7)
        } else {
            (1 + (i % 7), 90 + i as i64 * 11)
        };
        let tenant = match (tenants, light) {
            (false, _) => "",
            (true, true) => r#","tenant":"light""#,
            (true, false) => r#","tenant":"heavy""#,
        };
        if i % 4 == 0 {
            cmds.push(format!(r#"{{"Advance":{{"to":{submit}}}}}"#));
        }
        cmds.push(format!(
            r#"{{"Submit":{{"job":{{"id":{i},"procs":{procs},"runtime":{runtime},"walltime":{},"user":{},"submit":{submit}{tenant}}}}}}}"#,
            runtime + 200,
            i % 3,
        ));
    }
    cmds.push(r#"{"Cancel":{"id":20}}"#.to_string());
    cmds.push(format!(r#"{{"Advance":{{"to":{PRECRASH_END}}}}}"#));
    cmds
}

/// The probes whose raw replies a recovered or promoted server must answer
/// byte for byte; the last is `Shutdown`.
pub fn probe_commands() -> Vec<String> {
    [
        r#"{"Query":{"id":0}}"#,
        r#"{"Query":{"id":20}}"#,
        r#"{"Query":{"id":23}}"#,
        r#""Stats""#,
        r#""Snapshot""#,
        r#""Shutdown""#,
    ]
    .map(String::from)
    .to_vec()
}

/// Kill → restart → probe → compare. Feeds `pre` (ending at
/// [`PRECRASH_END`]) to `lumos serve --journal DIR FLAGS...`, SIGKILLs it,
/// restarts it on the same directory with the same flags and sends
/// `probes`. The live replies must equal the prefix, and the recovered
/// ones the suffix, of what an uninterrupted in-process server built from
/// `reference` answers to `pre` then `probes`; the restart must report
/// recovery up to [`PRECRASH_END`] and exit 0 after the probes'
/// `Shutdown`. Returns the recovered replies and removes `dir`.
pub fn crash_and_compare(
    dir: &Path,
    flags: &[&str],
    pre: &[String],
    probes: &[String],
    reference: ServeConfig,
) -> Vec<String> {
    let server = ServerProc::spawn(dir, flags);
    let mut client = server.client();
    let live: Vec<String> = pre.iter().map(|c| client.exchange(c)).collect();
    server.kill();

    let mut restarted = ServerProc::spawn(dir, flags);
    let mut client = restarted.client();
    let recovered: Vec<String> = probes.iter().map(|c| client.exchange(c)).collect();
    // Recovery chatter precedes the first reply; reading it only after the
    // `Shutdown` makes a restart that recovered nothing fail, not hang.
    let recovery = restarted.read_recovery_lines();
    restarted.exit_ok();
    let clock = format!("journaled commands (t = {PRECRASH_END})");
    assert!(
        recovery.iter().any(|l| l.contains(&clock)),
        "unexpected recovery chatter: {recovery:?}"
    );

    let all: Vec<String> = pre.iter().chain(probes).cloned().collect();
    let reference = reference_replies(reference, &all);
    assert_eq!(
        live[..],
        reference[..pre.len()],
        "pre-crash acknowledgments diverged from the uninterrupted run"
    );
    assert_eq!(
        recovered[..],
        reference[pre.len()..],
        "recovered state diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(dir).ok();
    recovered
}
