//! The three `serve-*` workloads: an in-process `lumos_serve::Server`
//! under a loopback client, and the same commands replayed layer by
//! layer through the public functions the server is made of.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lumos_core::{Job, SystemId, SystemSpec, Trace};
use lumos_serve::journal::encode_record_into;
use lumos_serve::recovery::snapshot_json;
use lumos_serve::{
    recover, FsyncPolicy, Journal, JournalConfig, JournalRecord, LiveMetrics, Request, Response,
    ServeConfig, Server, SubmitSpec,
};
use lumos_sim::{simulate, JobState, SimConfig, SimSession};

use crate::inputs::{
    base_trace, durable_streams, firehose_stream, job_as_served, job_from_spec, perturb, Kind,
    Stream,
};
use crate::outcome::Outcome;
use crate::sim_wl::generation_rate;
use crate::span::Tracer;
use crate::util::{
    best, cpu_seconds, median, median_seconds, percentile, repeat_at_least, Reps, Setup, MIN_REPS,
};

/// Outstanding commands of the pipelined client; it reads half a window
/// of acks whenever the window is full. Well under the server's queue of
/// 1024, so backpressure never refuses a command.
const WINDOW: usize = 256;
/// Commands of the firehose stream `serve-longrun` replays.
const LONGRUN_COMMANDS: usize = 120_000;
/// Commands each lockstep connection of the durable probe may send.
const DURABLE_PER_CONNECTION: usize = 50_000;
/// Commands per connection in one timed segment of the durable probe.
const DURABLE_SEGMENT: usize = 400;
/// Journal records kept from the layer replay for the journal probes.
const SAMPLE_RECORDS: usize = 100_000;

/// Days of Helios behind each workload's stream.
fn helios_days(workload: &str) -> u32 {
    match workload {
        "serve-firehose" => 20,
        _ => 6,
    }
}

struct Inputs {
    trace: Trace,
    stream: Stream,
}

fn build(workload: &str, seed: u64) -> Inputs {
    let trace = perturb(&base_trace(SystemId::Helios, helios_days(workload)), seed);
    let stream = match workload {
        "serve-firehose" => firehose_stream(&trace, usize::MAX),
        "serve-longrun" => firehose_stream(&trace, LONGRUN_COMMANDS),
        other => unreachable!("no serve workload `{other}`"),
    };
    Inputs { trace, stream }
}

fn journal_config(workload: &str, dir: PathBuf) -> JournalConfig {
    let mut journal = JournalConfig::new(dir);
    match workload {
        // The hot path alone: nothing waits for the disk, nothing rotates.
        "serve-firehose" => {
            journal.fsync = FsyncPolicy::Never;
            journal.snapshot_every = 0;
        }
        // Default rotation, every 4096 records.
        "serve-longrun" => journal.fsync = FsyncPolicy::Never,
        // The durable probe: `JournalConfig::new` as it comes, fsync
        // always and default rotation.
        _ => {}
    }
    journal
}

fn serve_config(system: &SystemSpec, journal: JournalConfig) -> ServeConfig {
    let mut config = ServeConfig::new(system.clone());
    config.journal = Some(journal);
    config
}

struct Running {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
}

fn start(config: ServeConfig) -> Running {
    let server = Server::bind("127.0.0.1:0", config).expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run(false));
    Running { addr, handle }
}

impl Running {
    fn join(self) {
        self.handle
            .join()
            .expect("server thread")
            .expect("server ran to shutdown");
    }
}

/// Ack latencies of one repetition, in ms, by kind of command.
#[derive(Default)]
struct Acks {
    reads: Vec<f64>,
    writes: Vec<f64>,
    failed: u64,
}

impl Acks {
    fn absorb(&mut self, mut other: Acks) {
        self.reads.append(&mut other.reads);
        self.writes.append(&mut other.writes);
        self.failed += other.failed;
    }

    fn sorted(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.reads.iter().chain(&self.writes).copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        all
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    reply: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("set nodelay");
        // A server that stops answering fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set read timeout");
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone the socket")),
            writer: BufWriter::with_capacity(64 * 1024, stream),
            reply: Vec::new(),
        }
    }

    fn send(&mut self, wire: &[u8]) {
        self.writer.write_all(wire).expect("write a command");
    }

    fn flush(&mut self) {
        self.writer.flush().expect("flush commands");
    }

    /// Reads the next reply into `self.reply`.
    fn read_reply(&mut self) {
        self.reply.clear();
        let n = self
            .reader
            .read_until(b'\n', &mut self.reply)
            .expect("read a reply");
        assert!(n > 0, "the server closed the connection mid-stream");
    }

    /// Reads the ack of a command of `kind` sent at `sent`. Anything but
    /// the reply that kind calls for (`Rejected`, `Error`, ...) is a
    /// failed op and enters no latency figure.
    fn ack(&mut self, sent: Instant, kind: Kind, acks: &mut Acks) {
        self.read_reply();
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        if !self.reply.starts_with(kind.reply_prefix()) {
            acks.failed += 1;
        } else if kind.is_read() {
            acks.reads.push(ms);
        } else {
            acks.writes.push(ms);
        }
    }

    /// Asks for a graceful shutdown; returns the `Bye` line.
    fn shutdown(&mut self) -> String {
        self.send(b"\"Shutdown\"\n");
        self.flush();
        self.read_reply();
        String::from_utf8_lossy(&self.reply).trim_end().to_string()
    }

    fn last_reply(&self) -> String {
        String::from_utf8_lossy(&self.reply).trim_end().to_string()
    }
}

/// Sends the whole stream with up to [`WINDOW`] commands in flight.
fn drive_pipelined(conn: &mut Conn, stream: &Stream, acks: &mut Acks) {
    let mut in_flight: VecDeque<(Instant, Kind)> = VecDeque::with_capacity(WINDOW);
    for i in 0..stream.len() {
        if in_flight.len() == WINDOW {
            conn.flush();
            for _ in 0..WINDOW / 2 {
                let (sent, kind) = in_flight.pop_front().expect("window is full");
                conn.ack(sent, kind, acks);
            }
        }
        conn.send(stream.wire(i));
        in_flight.push_back((Instant::now(), stream.kind(i)));
    }
    conn.flush();
    while let Some((sent, kind)) = in_flight.pop_front() {
        conn.ack(sent, kind, acks);
    }
}

/// Sends `range` of the stream one command at a time.
fn drive_lockstep(conn: &mut Conn, stream: &Stream, range: std::ops::Range<usize>) -> Acks {
    let mut acks = Acks::default();
    for i in range {
        conn.send(stream.wire(i));
        conn.flush();
        conn.ack(Instant::now(), stream.kind(i), &mut acks);
    }
    acks
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("list the journal directory")
        .map(|entry| entry.expect("entry").metadata().expect("metadata").len())
        .sum()
}

/// What a served run leaves for verification.
struct Served {
    dir: PathBuf,
    /// The `Snapshot` reply that ended the stream.
    snapshot: String,
    bye: String,
    commands: usize,
    /// Commands that were journaled (submits and advances).
    journaled: usize,
}

/// Per-repetition figures of a served run.
#[derive(Default)]
struct AckStats {
    p50: Vec<f64>,
    p99: Vec<f64>,
    read_p50: Vec<f64>,
    write_p50: Vec<f64>,
    samples: usize,
}

impl AckStats {
    fn push(&mut self, acks: &mut Acks) {
        let all = acks.sorted();
        self.samples += all.len();
        if all.is_empty() {
            return;
        }
        self.p50.push(percentile(&all, 0.5));
        self.p99.push(percentile(&all, 0.99));
        if !acks.reads.is_empty() {
            self.read_p50.push(median(&mut acks.reads));
        }
        self.write_p50.push(median(&mut acks.writes));
    }
}

fn journaled_commands(stream: &Stream, upto: usize) -> usize {
    (0..upto).filter(|&i| !stream.kind(i).is_read()).count()
}

/// The whole stream over one pipelined connection, against a fresh
/// server each repetition.
fn serve(
    workload: &str,
    inputs: &Inputs,
    min_reps: usize,
    seconds: f64,
    tmp: &Path,
    out: &mut Outcome,
) -> (Reps, AckStats, Served) {
    let stream = &inputs.stream;
    let mut stats = AckStats::default();
    let mut last: Option<Served> = None;
    let reps = repeat_at_least(min_reps, seconds, |rep, stopwatch| {
        if let Some(previous) = last.take() {
            std::fs::remove_dir_all(previous.dir).expect("remove the last journal");
        }
        let dir = tmp.join(format!("journal-{rep}"));
        let server = start(serve_config(
            &inputs.trace.system,
            journal_config(workload, dir.clone()),
        ));
        let mut conn = Conn::connect(server.addr);
        let mut acks = Acks::default();
        stopwatch.measure(|| drive_pipelined(&mut conn, stream, &mut acks));
        let snapshot = conn.last_reply();
        let bye = conn.shutdown();
        server.join();
        out.attempted += stream.len() as u64;
        out.failed += acks.failed;
        stats.push(&mut acks);
        last = Some(Served {
            dir,
            snapshot,
            bye,
            commands: stream.len(),
            journaled: journaled_commands(stream, stream.len()),
        });
        true
    });
    (reps, stats, last.expect("at least one repetition"))
}

/// Restarts from the directory a served run left and checks that the
/// recovered server answers `Snapshot` as the live one did. Returns the
/// seconds `recover()` took: the median of up to `restarts` calls.
fn verify_restart(
    workload: &str,
    system: &SystemSpec,
    served: &Served,
    restarts: usize,
    out: &mut Outcome,
) -> f64 {
    let journal = journal_config(workload, served.dir.clone());
    let config = serve_config(system, journal.clone());
    let mut recovered_snapshot = String::new();
    let mut warnings = Vec::new();
    let restart_s = median_seconds(2.0, restarts, || {
        let recovered = recover(&config, &journal).expect("recover the served journal");
        recovered_snapshot = Response::Snapshot {
            snapshot: recovered.session.snapshot(),
        }
        .to_line();
        warnings = recovered.warnings;
    });
    out.check(warnings.is_empty(), || {
        format!("recovery warned: {}", warnings.join("; "))
    });
    out.check(recovered_snapshot == served.snapshot, || {
        format!(
            "a restart answers Snapshot with {recovered_snapshot}, the live server said {}",
            served.snapshot
        )
    });
    restart_s
}

/// Checks that `Bye` carried the metrics of a batch replay of the same
/// arrivals (one connection fixes their order).
fn verify_bye(inputs: &Inputs, served: &Served, out: &mut Outcome) {
    let arrivals: Vec<Job> = inputs.trace.jobs()[..inputs.stream.submits]
        .iter()
        .map(job_as_served)
        .collect();
    let batch = simulate(
        &Trace::new(inputs.trace.system.clone(), arrivals).expect("served jobs form a trace"),
        &SimConfig::default(),
    );
    let expected = Response::Bye {
        metrics: Some(batch.metrics),
    }
    .to_line();
    out.check(expected == served.bye, || {
        format!(
            "Bye carried {}, a batch replay gives {expected}",
            served.bye
        )
    });
}

pub fn run(workload: &str, seed: u64, seconds: f64, tmp: &Path) -> Outcome {
    let mut build = || build(workload, seed);
    let (setup, inputs) = Setup::first(&mut build);
    let mut out = Outcome::default();
    let (reps, stats, served) = serve(workload, &inputs, MIN_REPS, seconds, tmp, &mut out);
    verify_restart(workload, &inputs.trace.system, &served, 1, &mut out);
    verify_bye(&inputs, &served, &mut out);
    let (setup_s, rounds) = setup.finish(&mut build);
    out.note(format!(
        "op = one command; {} repetitions of {} commands; {} acks timed, failed ones left out; \
         {} host threads; set-up median of {rounds} rounds",
        reps.wall.len(),
        inputs.stream.len(),
        stats.samples,
        std::thread::available_parallelism().map_or(1, usize::from),
    ));
    out.set_end_to_end(inputs.stream.len() as f64, &reps, best(&stats.p50), setup_s);
    out
}

/// The durable probe: the server with `fsync always` and default
/// rotation under two lockstep connections, timed in segments of
/// [`DURABLE_SEGMENT`] commands per connection for `seconds`. One fsync
/// per round of at most two commands does the work; the figures are the
/// disk's (2.7 k to 11 k commands/s within one day on one sandbox), which
/// is why they are reported per layer and gate nothing.
fn durable_probe(trace: &Trace, seconds: f64, tmp: &Path, out: &mut Outcome) {
    let [first, second] = durable_streams(trace, DURABLE_PER_CONNECTION);
    let dir = tmp.join("journal-durable");
    let server = start(serve_config(
        &trace.system,
        journal_config("durable", dir.clone()),
    ));
    let mut a = Conn::connect(server.addr);
    let mut b = Conn::connect(server.addr);
    let mut stats = AckStats::default();
    let mut sent = 0;
    let reps = repeat_at_least(MIN_REPS, seconds, |_, stopwatch| {
        let range = sent..sent + DURABLE_SEGMENT;
        let mut acks = stopwatch.measure(|| {
            std::thread::scope(|scope| {
                let other = scope.spawn(|| drive_lockstep(&mut b, &second, range.clone()));
                let mut acks = drive_lockstep(&mut a, &first, range.clone());
                acks.absorb(other.join().expect("second connection"));
                acks
            })
        });
        sent = range.end;
        out.attempted += 2 * DURABLE_SEGMENT as u64;
        out.failed += acks.failed;
        stats.push(&mut acks);
        sent + DURABLE_SEGMENT <= DURABLE_PER_CONNECTION
    });
    // The drain ends the first stream.
    let drain = drive_lockstep(&mut a, &first, first.len() - 2..first.len());
    out.attempted += 2;
    out.failed += drain.failed;
    let served = Served {
        dir,
        snapshot: a.last_reply(),
        bye: a.shutdown(),
        commands: 2 * sent + 2,
        journaled: journaled_commands(&first, sent) + journaled_commands(&second, sent) + 1,
    };
    server.join();
    out.check(served.bye.starts_with("{\"Bye\""), || {
        format!("the durable server answered shutdown with {}", served.bye)
    });
    verify_restart("durable", &trace.system, &served, 1, out);
    let per_segment = 2.0 * DURABLE_SEGMENT as f64;
    out.set(
        "serve.durable.wall.cmds_per_s",
        per_segment / reps.median_wall(),
    );
    out.set("serve.durable.wall.ack_p50_ms", median(&mut stats.p50));
    out.set("serve.durable.wall.ack_p99_ms", median(&mut stats.p99));
    out.set(
        "serve.durable.disk_bytes_per_op",
        dir_bytes(&served.dir) as f64 / served.journaled as f64,
    );
    out.note(format!(
        "durable probe: {} lockstep commands over two connections in {} segments",
        served.commands,
        reps.wall.len()
    ));
    std::fs::remove_dir_all(&served.dir).expect("remove the durable journal");
}

/// Commands the server drains into one round when a pipelined client
/// keeps its queue full (`ServeConfig::group_commit`'s default).
const ROUND: usize = 64;

/// What the layer replay saw.
struct Replay {
    snapshot: String,
    records: u64,
    /// Process CPU seconds the replay took.
    cpu_s: f64,
    snapshot_bytes_last: u64,
    sample: Vec<JournalRecord>,
    /// End state, for the snapshot probe.
    session: SimSession,
    metrics: LiveMetrics,
}

/// Pushes the stream through the functions a server round is made of, in
/// this thread, with a span around each layer: parse, session apply (with
/// `Stats` reports and metric absorption inside it), journal append,
/// rotation, reply serialization. No sockets, no queues, no fsync; rounds
/// of [`ROUND`] commands.
fn layer_replay(workload: &str, inputs: &Inputs, dir: PathBuf, tracer: &mut Tracer) -> Replay {
    let system = inputs.trace.system.clone();
    let stream = &inputs.stream;
    let journal_cfg = journal_config(workload, dir);
    let config = serve_config(&system, journal_cfg.clone());
    let recovered = recover(&config, &journal_cfg).expect("open a fresh journal");
    let (mut session, mut metrics, mut journal) =
        (recovered.session, recovered.metrics, recovered.journal);
    let header = JournalRecord::Config {
        system: system.clone(),
        sim: *session.config(),
        predictor: None,
        tenants: None,
    };

    let mut requests: Vec<Request> = Vec::with_capacity(ROUND);
    let mut responses: Vec<Response> = Vec::with_capacity(ROUND);
    let mut staged: Vec<(usize, u64)> = Vec::new();
    let mut records: Vec<JournalRecord> = Vec::with_capacity(ROUND);
    let mut sample: Vec<JournalRecord> = Vec::new();
    let mut wire = String::new();
    let mut snapshot = String::new();
    let (mut total_records, mut snapshot_bytes_last) = (0u64, 0u64);
    let cpu0 = cpu_seconds();

    for (r, start) in (0..stream.len()).step_by(ROUND).enumerate() {
        let op = r as u32;
        let chunk = start..(start + ROUND).min(stream.len());
        let whole = tracer.begin("serve.round", op);

        let open = tracer.begin("serve.protocol.parse", op);
        requests.clear();
        for i in chunk.clone() {
            requests.push(Request::parse(black_box(stream.line(i))).expect("own lines parse"));
        }
        tracer.end(open, chunk.len() as u32);

        let open = tracer.begin("serve.session.apply", op);
        responses.clear();
        records.clear();
        for request in requests.drain(..) {
            // A submission is staged behind the round's deferred pass;
            // anything else runs that pass first, as the server does.
            match request {
                Request::Submit { job: spec } => {
                    let now = session.now();
                    let job = job_from_spec(&spec, now.max(0));
                    if session.round_needs_flush(&job) {
                        flush_round(
                            &mut session,
                            &mut metrics,
                            &mut responses,
                            &mut staged,
                            tracer,
                            op,
                        );
                    }
                    let (id, arrival, runtime) = (job.id, job.submit, job.runtime);
                    match session.round_submit(job) {
                        Ok(()) => {
                            if runtime != 0 && arrival == session.now() {
                                staged.push((responses.len(), id));
                            }
                            records.push(JournalRecord::Submit {
                                now,
                                job: SubmitSpec {
                                    submit: Some(arrival),
                                    ..spec
                                },
                            });
                            responses.push(Response::Submitted {
                                id,
                                state: session.query(id).unwrap_or(JobState::Pending),
                            });
                        }
                        Err(e) => responses.push(Response::Rejected {
                            id: Some(id),
                            reason: e.to_string(),
                        }),
                    }
                }
                other => {
                    flush_round(
                        &mut session,
                        &mut metrics,
                        &mut responses,
                        &mut staged,
                        tracer,
                        op,
                    );
                    match other {
                        Request::Advance { to } => {
                            session.advance_to(to);
                            let now = session.now();
                            records.push(JournalRecord::Advance { to: now });
                            responses.push(Response::Advanced { now });
                        }
                        Request::Query { id } => responses.push(match session.query(id) {
                            Some(state) => Response::Job {
                                id,
                                state,
                                wait: session.job(id).and_then(|j| j.wait),
                            },
                            None => Response::Error {
                                message: format!("unknown job id {id}"),
                            },
                        }),
                        Request::Stats => {
                            let report = tracer.begin("serve.metrics.report", op);
                            responses.push(Response::Stats {
                                stats: metrics.report(&session, 0, None, None),
                            });
                            tracer.end(report, 1);
                        }
                        Request::Snapshot => responses.push(Response::Snapshot {
                            snapshot: session.snapshot(),
                        }),
                        unexpected => unreachable!("the streams hold no {unexpected:?}"),
                    }
                    // The advance's own events.
                    let events = session.drain_events();
                    let absorb = tracer.begin("serve.metrics.absorb", op);
                    metrics.absorb(&events, &session);
                    tracer.end(absorb, events.len() as u32);
                }
            }
        }
        flush_round(
            &mut session,
            &mut metrics,
            &mut responses,
            &mut staged,
            tracer,
            op,
        );
        tracer.end(open, chunk.len() as u32);

        if !records.is_empty() {
            let open = tracer.begin("serve.journal.append", op);
            journal
                .append_batch(black_box(&records))
                .expect("append to the journal");
            tracer.end(open, records.len() as u32);
            total_records += records.len() as u64;
            if journal.wants_rotation() {
                let open = tracer.begin("serve.journal.rotate", op);
                let snap = snapshot_json(&system, &session, &metrics, None);
                snapshot_bytes_last = snap.len() as u64;
                journal.rotate(&snap, &header).expect("rotate the journal");
                tracer.end(open, 1);
            }
            if sample.len() < SAMPLE_RECORDS {
                sample.extend(records.iter().cloned());
            }
        }

        let open = tracer.begin("serve.protocol.serialize", op);
        for response in &responses {
            wire.clear();
            black_box(response).to_line_into(&mut wire);
            black_box(wire.len());
        }
        tracer.end(open, responses.len() as u32);
        if matches!(responses.last(), Some(Response::Snapshot { .. })) {
            snapshot = wire.clone();
        }
        tracer.end(whole, chunk.len() as u32);
    }
    Replay {
        snapshot,
        records: total_records,
        cpu_s: cpu_seconds() - cpu0,
        snapshot_bytes_last,
        sample,
        session,
        metrics,
    }
}

/// Runs the round's deferred scheduling pass, absorbs its events, and
/// fills in the states of the replies that waited for it.
fn flush_round(
    session: &mut SimSession,
    metrics: &mut LiveMetrics,
    responses: &mut [Response],
    staged: &mut Vec<(usize, u64)>,
    tracer: &mut Tracer,
    op: u32,
) {
    session.round_flush();
    let events = session.drain_events();
    let absorb = tracer.begin("serve.metrics.absorb", op);
    metrics.absorb(&events, session);
    tracer.end(absorb, events.len() as u32);
    for (at, id) in staged.drain(..) {
        if let (Response::Submitted { state, .. }, Some(now)) =
            (&mut responses[at], session.query(id))
        {
            *state = now;
        }
    }
}

/// Journal and recovery figures no served run shows apart: encoding,
/// one synced append, replaying records, loading a snapshot.
fn journal_probes(system: &SystemSpec, replay: &Replay, tmp: &Path, out: &mut Outcome) {
    let sample = &replay.sample;
    // Into one recycled buffer per batch of 64, as `append_batch` does.
    let mut frames = String::new();
    let mut bytes = 0;
    let t0 = Instant::now();
    for batch in sample.chunks(ROUND) {
        frames.clear();
        for record in batch {
            encode_record_into(black_box(record), &mut frames);
        }
        bytes += black_box(&frames).len();
    }
    let encode_ns = t0.elapsed().as_nanos() as f64;
    out.set(
        "serve.journal.encode_ns_per_record",
        encode_ns / sample.len() as f64,
    );
    out.set(
        "serve.journal.bytes_per_record",
        bytes as f64 / sample.len() as f64,
    );

    // One record per append under fsync always: what a lockstep round pays.
    let synced = JournalConfig::new(tmp.join("probe-fsync"));
    let mut journal = Journal::open_segment(synced, 0, 0).expect("open the fsync probe");
    let mut fsync_ms: Vec<f64> = sample
        .iter()
        .take(200)
        .map(|record| {
            let t0 = Instant::now();
            journal.append(record).expect("synced append");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("serve.journal.fsync_ms", median(&mut fsync_ms));

    // A journal of the sample without rotation: restart replays it all.
    let mut plain = JournalConfig::new(tmp.join("probe-replay"));
    plain.fsync = FsyncPolicy::Never;
    plain.snapshot_every = 0;
    let config = serve_config(system, plain.clone());
    drop(recover(&config, &plain).expect("start the replay probe"));
    let mut journal = Journal::open_segment(plain.clone(), 0, 1).expect("reopen the probe");
    for batch in sample.chunks(ROUND) {
        journal.append_batch(batch).expect("fill the replay probe");
    }
    drop(journal);
    let mut replayed = 0;
    let replay_s = median_seconds(1.5, 3, || {
        replayed = recover(&config, &plain).expect("replay the probe").replayed;
    });
    out.check(replayed == sample.len() as u64, || {
        format!("recovery replayed {replayed} of {} records", sample.len())
    });
    out.set(
        "serve.recovery.replay_records_per_s",
        sample.len() as f64 / replay_s,
    );

    // A directory holding the end state as a snapshot and nothing to replay.
    let mut snapped = JournalConfig::new(tmp.join("probe-snapshot"));
    snapped.fsync = FsyncPolicy::Never;
    snapped.snapshot_every = 0;
    let config = serve_config(system, snapped.clone());
    let mut fresh = recover(&config, &snapped).expect("start the snapshot probe");
    let header = JournalRecord::Config {
        system: system.clone(),
        sim: *replay.session.config(),
        predictor: None,
        tenants: None,
    };
    fresh
        .journal
        .rotate(
            &snapshot_json(system, &replay.session, &replay.metrics, None),
            &header,
        )
        .expect("write the snapshot");
    drop(fresh);
    let load_s = median_seconds(1.5, 3, || {
        let recovered = recover(&config, &snapped).expect("load the snapshot");
        assert_eq!(recovered.replayed, 0, "nothing but the snapshot to load");
        black_box(recovered.session.now());
    });
    out.set("serve.recovery.snapshot_load_ms", load_s * 1e3);
    for probe in ["probe-fsync", "probe-replay", "probe-snapshot"] {
        std::fs::remove_dir_all(tmp.join(probe)).expect("remove a probe journal");
    }
}

pub fn run_traced(workload: &str, seed: u64, seconds: f64, tmp: &Path) -> (Outcome, Tracer) {
    let inputs = build(workload, seed);
    let system = inputs.trace.system.clone();
    let mut out = Outcome::default();

    // A short served run, as the untraced benchmark makes them, for the
    // figures only a live server has. Two repetitions at least: the first
    // one of a process is often its slowest.
    let (reps, stats, served) = serve(workload, &inputs, 2, seconds / 5.0, tmp, &mut out);
    let commands = inputs.stream.len() as f64;
    let wall_ns_per_cmd = reps.best_wall() * 1e9 / commands;
    let cpu_ns_per_cmd = reps.best_cpu() * 1e9 / commands;
    out.set("serve.wall.cmds_per_s", 1e9 / wall_ns_per_cmd);
    out.set("serve.server.cpu_ns_per_cmd", cpu_ns_per_cmd);
    out.set("serve.op_p99_ms", best(&stats.p99));
    out.set("serve.write_ack_p50_ms", best(&stats.write_p50));
    out.set("serve.read_ack_p50_ms", best(&stats.read_p50));
    out.set(
        "serve.journal.disk_bytes_per_op",
        dir_bytes(&served.dir) as f64 / served.journaled as f64,
    );
    let restart_s = verify_restart(workload, &system, &served, 3, &mut out);
    verify_bye(&inputs, &served, &mut out);
    out.set("serve.recovery.restart_s", restart_s);
    std::fs::remove_dir_all(&served.dir).expect("remove the served journal");

    // The same commands layer by layer.
    let mut tracer = Tracer::new(true);
    let replay = layer_replay(workload, &inputs, tmp.join("replay"), &mut tracer);
    std::fs::remove_dir_all(tmp.join("replay")).expect("remove the replay journal");
    out.attempted += 1;
    let agree = replay.snapshot == served.snapshot;
    out.failed += u64::from(!agree);
    out.check(agree, || {
        format!(
            "the layer replay ends in {}, the served run in {}",
            replay.snapshot, served.snapshot
        )
    });

    let names = tracer.stats();
    let per_unit = |name: &str| names.get(name).map_or(0.0, |s| s.self_ns_per_unit());
    out.set(
        "serve.protocol.parse_ns_per_cmd",
        per_unit("serve.protocol.parse"),
    );
    out.set(
        "serve.protocol.serialize_ns_per_reply",
        per_unit("serve.protocol.serialize"),
    );
    out.set(
        "serve.session.apply_ns_per_cmd",
        per_unit("serve.session.apply"),
    );
    out.set(
        "serve.metrics.absorb_ns_per_event",
        per_unit("serve.metrics.absorb"),
    );
    out.set(
        "serve.journal.append_ns_per_record",
        per_unit("serve.journal.append"),
    );
    if let Some(p50) = tracer.median_ms("serve.metrics.report") {
        out.set("serve.metrics.report_ms", p50);
    }
    if let Some(p50) = tracer.median_ms("serve.journal.rotate") {
        out.set("serve.journal.rotate_ms", p50);
        out.set(
            "serve.journal.rotations",
            names["serve.journal.rotate"].count as f64,
        );
        out.set(
            "serve.journal.snapshot_bytes_last",
            replay.snapshot_bytes_last as f64,
        );
    }
    // CPU against CPU: the served run's figure does not hold the time a
    // rotation waits for the disk, so the replay's must not either.
    let layers_ns_per_cmd = replay.cpu_s * 1e9 / commands;
    out.set("serve.server.layers_ns_per_cmd", layers_ns_per_cmd);
    out.set(
        "serve.server.residual_ns_per_cmd",
        cpu_ns_per_cmd - layers_ns_per_cmd,
    );
    out.note(format!(
        "served: {wall_ns_per_cmd:.0} ns wall and {cpu_ns_per_cmd:.0} ns CPU per command over \
         {} commands; replayed layers: {layers_ns_per_cmd:.0} ns CPU per command ({:.0} ns wall \
         under spans), {} records, rounds of {ROUND}",
        served.commands,
        names["serve.round"].total_ns as f64 / commands,
        replay.records,
    ));

    journal_probes(&system, &replay, tmp, &mut out);
    if workload == "serve-firehose" {
        durable_probe(&inputs.trace, seconds / 5.0, tmp, &mut out);
    }
    out.set(
        "traces.generate_jobs_per_s",
        generation_rate(&[(SystemId::Helios, helios_days(workload))]),
    );
    out.set("trace.overhead_frac", tracer.overhead_frac());
    (out, tracer)
}
