//! The scheduler service: one long-lived scheduling loop, many clients.
//!
//! Architecture: connection threads (one per TCP client, optionally one
//! for stdin) parse NDJSON request lines and push them onto a **bounded**
//! command queue, and one scheduler thread serves them in arrival order,
//! so no locks guard the simulation state. When the queue is full,
//! submissions are rejected at once with a reason — backpressure is
//! explicit, never blocking — while cheap control commands (stats, query,
//! ...) block for a slot. The scheduler thread is a shell around a
//! `Core` (`core.rs`): the shell reads the clock, drains the queue into
//! rounds, hands each reply to its connection, nudges the replication
//! link and prints the log; `Core::round` decides every reply, journal
//! record and rotation, and reaches the disk only through the journal's
//! `Store` (`store.rs`).
//!
//! Time: with `time_scale > 0` the server maps wall-clock seconds onto
//! simulation seconds (1 wall second = `time_scale` sim seconds) and
//! advances the session before every round. With `time_scale == 0` the
//! server is *virtual-time*: the clock only moves on explicit `Advance`
//! commands, which makes runs deterministic and replayable.
//!
//! Shutdown: a `Shutdown` command stops command intake, drains every
//! pending and running job to completion, and answers with the same
//! [`lumos_sim::SimMetrics`] a batch replay of the identical arrival
//! sequence would produce.
//!
//! Durability: with [`ServeConfig::journal`] set, every state-mutating
//! command is appended to a write-ahead journal ([`crate::journal`])
//! **before** its acknowledgment is sent, and startup replays it
//! ([`crate::recovery`]). A failed append is fail-stop: the commands it
//! covered are answered with an error and the server halts.
//!
//! Rounds: the shell drains up to 64 queued commands into a round; the
//! core *applies* them in arrival order — a submission due now gets its
//! scheduling pass at once, and its reply says what the pass decided —
//! and *commits* the round: one journal write, one fsync, a rotation
//! check, and only then the replies, which connection writers coalesce
//! into one flush. A round is only as large as the backlog: a lockstep
//! client's commands and the requests that change the loop itself
//! (promotion, replication frames, shutdown) are rounds of one. Round
//! size changes no byte on disk or on the wire, only the syscall count.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lumos_core::SystemSpec;
use lumos_predict::PredictorConfig;
use lumos_sim::{SimConfig, TenantTable};

use crate::core::{Core, Round};
use crate::journal::JournalConfig;
use crate::protocol::{read_line, Line, Request, Response, MAX_LINE_BYTES};
use crate::recovery::{self, Replica};
use crate::replication::{self, ReplLink};
use crate::store::{FileStore, Store};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The machine being scheduled.
    pub system: SystemSpec,
    /// Scheduling configuration (policy, backfill, ...).
    pub sim: SimConfig,
    /// Bounded command-queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Simulation seconds per wall-clock second; `0` = virtual time
    /// (clock moves only on `Advance` commands).
    pub time_scale: f64,
    /// Write-ahead journaling; `None` runs without durability.
    pub journal: Option<JournalConfig>,
    /// Online walltime predictor; `None` schedules with client-requested
    /// walltimes only.
    pub predictor: Option<PredictorConfig>,
    /// Static tenant table (`--tenants FILE`); `None` serves one
    /// undifferentiated queue with no quotas or per-tenant accounting.
    pub tenants: Option<TenantTable>,
    /// This server's side of a replication pair; `None` serves alone.
    /// Requires [`ServeConfig::journal`].
    pub replication: Option<Replication>,
}

/// A journaled server's side of a replication pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Replication {
    /// Stream the journal to a hot-standby follower at this address
    /// (`--replicate-to`).
    To(String),
    /// Run as a read-only follower of the primary at this address
    /// (`--follow`): apply replicated frames, refuse writes until
    /// promoted.
    Follow(String),
}

impl ServeConfig {
    /// Defaults: virtual time, queue of 1024 commands, no journal, no
    /// predictor, no tenants, no replication.
    #[must_use]
    pub fn new(system: SystemSpec) -> Self {
        Self {
            system,
            sim: SimConfig::default(),
            queue_capacity: 1024,
            time_scale: 0.0,
            journal: None,
            predictor: None,
            tenants: None,
            replication: None,
        }
    }
}

/// The most already-queued commands one round drains. Frame bytes are
/// the same at every round size
/// ([`Journal::append_batch`](crate::journal::Journal::append_batch)).
const ROUND_CAP: usize = 64;

/// One queued command and the channel its response travels back on.
struct Envelope {
    req: Request,
    reply: mpsc::Sender<Reply>,
}

/// A scheduler answer on its way to a connection's writer half.
struct Reply {
    response: Response,
    /// On the scheduler's last reply only (the `Bye`, or the end of a
    /// fail-stopped round): dropped once that reply is flushed, or with
    /// it if it cannot be delivered, which is what `Server::run` waits on.
    done: Option<mpsc::Sender<()>>,
}

impl From<Response> for Reply {
    fn from(response: Response) -> Self {
        Self {
            response,
            done: None,
        }
    }
}

/// The reply to a command that arrives after the scheduler stopped.
fn shutting_down() -> Response {
    Response::error("server is shutting down")
}

/// Shared connection-side state.
struct Shared {
    commands: SyncSender<Envelope>,
    shutting_down: AtomicBool,
    /// Submissions rejected by backpressure (queue full).
    backpressure_rejects: AtomicU64,
    queue_capacity: usize,
}

/// Whether this request is a round of its own: it rewrites the loop's
/// own state (promotion, replication frames) or ends it (shutdown).
fn is_barrier(req: &Request) -> bool {
    matches!(
        req,
        Request::Promote
            | Request::ReplHello
            | Request::ReplSegment { .. }
            | Request::ReplRecord { .. }
            | Request::Shutdown
    )
}

/// A bound scheduling server. Create with [`Server::bind`], then [`Server::run`].
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
}

impl Server {
    /// Binds the TCP listener (use port 0 for an ephemeral port).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self { listener, config })
    }

    /// The bound address (useful with ephemeral ports).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the scheduler loop until a `Shutdown` command, accepting TCP
    /// clients (and stdin commands when `serve_stdin` is set, answering on
    /// stdout). Blocks the calling thread.
    ///
    /// # Errors
    /// Propagates socket errors from the initial setup.
    pub fn run(self, serve_stdin: bool) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        if self.config.replication.is_some() && self.config.journal.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "replication requires a journal (--replicate-to / --follow need --journal DIR)",
            ));
        }
        // Recover (or initialize) journal state before accepting clients,
        // so the first command already sees the pre-crash session.
        let (replica, journal, store) = match &self.config.journal {
            Some(jc) => {
                let store: Arc<dyn Store> = Arc::new(FileStore::create(&jc.dir)?);
                let r = recovery::recover_in(Arc::clone(&store), &self.config, jc)?;
                for w in &r.warnings {
                    eprintln!("lumos-serve: recovery: {w}");
                }
                if r.replayed > 0 {
                    eprintln!(
                        "lumos-serve: recovered {} journaled commands (t = {})",
                        r.replayed,
                        r.session.now()
                    );
                }
                let (replica, journal) = r.into_parts();
                (replica, Some(journal), Some(store))
            }
            None => (Replica::fresh(&self.config), None, None),
        };
        // A replicating primary ships its journal from a dedicated sender
        // thread; the scheduler loop only nudges the link after appends.
        let link = match (&self.config.replication, store) {
            (Some(Replication::To(to)), Some(store)) => Some(replication::spawn_sender(store, to)),
            _ => None,
        };
        let (tx, rx) = mpsc::sync_channel::<Envelope>(self.config.queue_capacity);
        let shared = Arc::new(Shared {
            commands: tx,
            shutting_down: AtomicBool::new(false),
            backpressure_rejects: AtomicU64::new(0),
            queue_capacity: self.config.queue_capacity,
        });

        // Accept loop.
        {
            let shared = Arc::clone(&shared);
            let listener = self.listener.try_clone()?;
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        let _ = serve_connection(stream, &shared);
                    });
                }
            });
        }

        // Stdin loop. (`Stdin`/`Stdout` handles rather than their locks:
        // the writer half of `serve_lines` runs on its own thread, and the
        // lock guards are not `Send`.)
        if serve_stdin {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let _ = serve_lines(BufReader::new(io::stdin()), io::stdout(), &shared);
            });
        }

        let (done, flushed) = mpsc::channel();
        let mut core = Core::new(&self.config, replica, journal, link.clone());
        let start = Instant::now();
        serve_rounds(
            &mut core,
            &rx,
            &shared.backpressure_rejects,
            link.as_deref(),
            done,
            || start.elapsed(),
        );
        // Stops the accept loop at its next connection.
        shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(link) = &link {
            link.stop();
        }

        // The final reply is written by a connection thread, which drops
        // `done` once it has flushed it; wait for that, or the process
        // could exit with the answer still queued.
        let _ = flushed.recv_timeout(Duration::from_secs(5));

        // Wake the accept loop so its thread exits.
        let _ = TcpStream::connect(addr);
        Ok(())
    }
}

/// The scheduler thread: serves rounds until one stops the loop (or every
/// sender is gone), then refuses what squeezed into the queue behind it.
/// `rejects` counts the submissions the full queue turned away; `done`
/// goes out with the stopping round's last reply ([`Reply::done`]), and
/// `elapsed` reads the wall time each round carries.
fn serve_rounds(
    core: &mut Core,
    rx: &Receiver<Envelope>,
    rejects: &AtomicU64,
    link: Option<&ReplLink>,
    done: mpsc::Sender<()>,
    mut elapsed: impl FnMut() -> Duration,
) {
    let mut done = Some(done);
    let mut carry: Option<Envelope> = None;
    let mut requests = Vec::with_capacity(ROUND_CAP);
    let mut senders = Vec::with_capacity(ROUND_CAP);
    while let Some(first) = carry.take().or_else(|| rx.recv().ok()) {
        // A request that changes the loop's own state is a round of
        // its own: it ends the drain and waits for the next round.
        let mut next = Some(first);
        while let Some(Envelope { req, reply }) = next.take() {
            let alone = is_barrier(&req);
            requests.push(req);
            senders.push(reply);
            if alone || requests.len() == ROUND_CAP {
                break;
            }
            next = rx.try_recv().ok();
            if next.as_ref().is_some_and(|env| is_barrier(&env.req)) {
                carry = next.take();
            }
        }
        let rejected = rejects.load(Ordering::Relaxed);
        let round = core.round(elapsed(), rejected, requests.drain(..));
        for line in &round.log {
            eprintln!("{line}");
        }
        if let (true, Some(link)) = (round.wrote, link) {
            link.notify();
        }
        if release(round, senders.drain(..), &mut done) {
            break;
        }
    }
    while let Ok(Envelope { reply, .. }) = rx.try_recv() {
        let _ = reply.send(shutting_down().into());
    }
}

/// Sends each reply of `round` to its command's connection, in command
/// order, and says whether the loop stops; a round that stops it puts
/// `done` on its last reply.
fn release(
    round: Round,
    senders: impl IntoIterator<Item = mpsc::Sender<Reply>>,
    done: &mut Option<mpsc::Sender<()>>,
) -> bool {
    let mut replies = round.replies.into_iter().zip(senders).peekable();
    while let Some((response, reply)) = replies.next() {
        let last = round.stop && replies.peek().is_none();
        let done = if last { done.take() } else { None };
        // A client that vanished drops the reply, `done` with it.
        let _ = reply.send(Reply { response, done });
    }
    round.stop
}

/// Serves one TCP client.
fn serve_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    // Replies are already coalesced per scheduler round into one buffered
    // write, so Nagle only adds delayed-ACK stalls (~40 ms) against
    // batching clients; disable it.
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    let writer = BufWriter::new(stream);
    serve_lines(reader, writer, shared)
}

/// One entry in a connection's in-order response stream: a response
/// produced locally (parse error, backpressure, shutdown), or a marker
/// that the scheduler owes the next reply on the connection's reply
/// channel. Both channels are FIFO, so pairing the two in order keeps one
/// response per line, in order.
// Lopsided on purpose: `Scheduled`, the hot path, is zero-sized, and
// boxing the rare `Ready` would only add an allocation.
#[allow(clippy::large_enum_variant)]
enum Slot {
    Ready(Response),
    Scheduled,
}

/// The request/response loop shared by TCP connections and stdin: a
/// reader half (this thread) parses lines and enqueues commands without
/// waiting for their answers; a writer half (scoped thread) writes the
/// responses in request order, one flush for all a round answered. A
/// pipelined client thus keeps its rounds large; a lockstep client gets
/// one flush per request. Parse errors name the physical line; a line
/// over [`MAX_LINE_BYTES`] is answered with an error and skipped.
fn serve_lines<R: BufRead, W: Write + Send>(
    mut reader: R,
    writer: W,
    shared: &Shared,
) -> io::Result<()> {
    let (slot_tx, slot_rx) = mpsc::channel::<Slot>();
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    std::thread::scope(|scope| {
        let writer_half = scope.spawn(move || write_replies(writer, &slot_rx, &reply_rx));
        let read = (|| {
            let mut buf = Vec::new();
            let mut lineno = 0usize;
            while let Some(line) = read_line(&mut reader, &mut buf)? {
                lineno += 1;
                let slot = match line {
                    Line::Text(line) if line.trim().is_empty() => continue,
                    Line::Text(line) => dispatch(line, lineno, shared, &reply_tx),
                    Line::TooLong => Slot::Ready(Response::error(format!(
                        "line {lineno}: request line longer than {MAX_LINE_BYTES} bytes"
                    ))),
                };
                if slot_tx.send(slot).is_err() {
                    // The writer half died on a write error; responses
                    // have nowhere to go, so stop reading too.
                    break;
                }
            }
            Ok(())
        })();
        // Close the slot stream so the writer drains what is left and
        // exits; its result carries any write error.
        drop(slot_tx);
        drop(reply_tx);
        let wrote = writer_half.join().unwrap_or(Ok(()));
        read.and(wrote)
    })
}

/// The writer half of [`serve_lines`]: resolves slots to responses in
/// request order and batches flushes — everything already answered goes
/// out in one write, and the stream is flushed before blocking on a
/// response the scheduler has not produced yet (so a lockstep client is
/// never kept waiting behind an empty buffer).
fn write_replies<W: Write>(
    mut writer: W,
    slots: &Receiver<Slot>,
    replies: &Receiver<Reply>,
) -> io::Result<()> {
    let mut buf = String::new();
    while let Ok(first) = slots.recv() {
        let mut pending = 0usize;
        let mut next = Some(first);
        while let Some(slot) = next {
            let Reply { response, done } = match slot {
                Slot::Ready(response) => response.into(),
                Slot::Scheduled => match replies.try_recv() {
                    Ok(reply) => reply,
                    Err(_) => {
                        // The scheduler has not answered this one yet:
                        // release what is already buffered, then wait.
                        if pending > 0 {
                            writer.flush()?;
                            pending = 0;
                        }
                        replies.recv().unwrap_or_else(|_| shutting_down().into())
                    }
                },
            };
            buf.clear();
            response.to_line_into(&mut buf);
            buf.push('\n');
            let wrote = writer.write_all(buf.as_bytes());
            if done.is_some() {
                // `done` goes at the end of this iteration: once flushed,
                // or with the write error.
                wrote.and_then(|()| writer.flush())?;
                pending = 0;
            } else {
                wrote?;
                pending += 1;
            }
            next = slots.try_recv().ok();
        }
        if pending > 0 {
            writer.flush()?;
        }
    }
    Ok(())
}

/// Parses line `lineno` (1-based) and queues it with the connection's
/// reply channel. Returns the writer half's slot: `Ready` when the answer
/// is known here (parse error, backpressure, shutdown), else `Scheduled`.
fn dispatch(line: &str, lineno: usize, shared: &Shared, reply: &mpsc::Sender<Reply>) -> Slot {
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(message) => return Slot::Ready(Response::error(format!("line {lineno}: {message}"))),
    };
    let submit_id = match &req {
        Request::Submit { job } => Some(job.id),
        _ => None,
    };
    let reply = reply.clone();
    let envelope = Envelope { req, reply };
    if let Some(id) = submit_id {
        // Submissions never block: a full queue is an explicit rejection.
        match shared.commands.try_send(envelope) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                shared.backpressure_rejects.fetch_add(1, Ordering::Relaxed);
                return Slot::Ready(Response::Rejected {
                    id: Some(id),
                    reason: format!(
                        "submission queue full ({} commands queued); retry later",
                        shared.queue_capacity
                    ),
                });
            }
            Err(TrySendError::Disconnected(_)) => return Slot::Ready(shutting_down()),
        }
    } else if shared.commands.send(envelope).is_err() {
        return Slot::Ready(shutting_down());
    }
    Slot::Scheduled
}

#[cfg(test)]
#[path = "testkit.rs"]
pub(crate) mod testkit;

#[cfg(test)]
mod tests {
    //! Thread-free tests of the round machine, on the harness of
    //! [`super::testkit`].

    use lumos_sim::Relax;

    use super::testkit::*;
    use super::*;
    use crate::core::fail_stop;
    use crate::journal::{snapshot_name, FsyncPolicy, Journal};
    use crate::protocol::SubmitSpec;
    use crate::recovery::{read_snapshot_in, SnapshotBody};
    use crate::store::{At, Fault, MemStore, Op, Schedule};

    /// What the commit before events carried rows answered to
    /// [`refusals_between_submissions`].
    const REFUSALS_BETWEEN_SUBMISSIONS: [&str; 10] = [
        r#"{"Advanced":{"now":5000}}"#,
        r#"{"Submitted":{"id":200,"state":"Running"}}"#,
        r#"{"Submitted":{"id":201,"state":"Finished"}}"#,
        r#"{"Submitted":{"id":202,"state":"Running"}}"#,
        r#"{"Rejected":{"id":200,"reason":"duplicate job id 200"}}"#,
        r#"{"Rejected":{"id":202,"reason":"duplicate job id 202"}}"#,
        r#"{"Rejected":{"id":203,"reason":"job 203 requests 99 resource units but the system has 8"}}"#,
        r#"{"QuotaExceeded":{"id":204,"tenant":"capped","requested":7,"in_use":0,"quota":6}}"#,
        r#"{"Submitted":{"id":205,"state":"Running"}}"#,
        r#"{"Submitted":{"id":206,"state":"Waiting"}}"#,
    ];

    #[test]
    fn rounds_of_one_and_of_sixty_four_are_byte_identical() {
        let mut stream = mixed_stream();
        stream.push(Request::Shutdown);
        let run = |client: Client| {
            let store = MemStore::default();
            let served = serve(&config(0), &store, stream.clone(), client);
            (served.replies, store.files())
        };
        let (lockstep, lockstep_files) = run(Client::Lockstep);
        let (batched, batched_files) = run(Client::Pipelined);
        assert_eq!(lockstep.len(), stream.len(), "one reply per command");
        assert_eq!(lockstep, batched);
        assert_eq!(lockstep_files, batched_files);

        // The stream really did take every route.
        let lines: Vec<&str> = lockstep.iter().map(|(line, _)| line.as_str()).collect();
        for needle in [
            "\"Waiting\"",
            "\"Finished\"",
            "\"Pending\"",
            "duplicate job id 1",
            "QuotaExceeded",
            "unknown tenant",
            "\"Cancelled\":{\"id\":3,\"ok\":true}",
            "\"Cancelled\":{\"id\":99,\"ok\":false}",
            "already the primary",
            "\"Advanced\"",
            "\"Bye\"",
        ] {
            assert!(
                lines.iter().any(|l| l.contains(needle)),
                "no reply mentions {needle}: {lines:#?}"
            );
        }
        // Every accepted job answers from its own row, refusals between
        // them or not.
        let at = lines
            .iter()
            .position(|l| l.contains("\"now\":5000"))
            .expect("the advance to 5000");
        assert_eq!(lines[at..at + 10], REFUSALS_BETWEEN_SUBMISSIONS);
        // Only the `Bye` carries `done`.
        let last: Vec<&str> = lockstep
            .iter()
            .filter(|(_, done)| *done)
            .map(|(line, _)| line.as_str())
            .collect();
        assert_eq!(last.len(), 1);
        assert!(last[0].contains("\"Bye\""));
    }

    #[test]
    fn a_barrier_met_mid_drain_is_carried_and_answered_in_arrival_order() {
        let stream = vec![
            submit(1, 8, 100, None, "free"),
            submit(2, 8, 100, None, "free"),
            Request::Promote,
            Request::Query { id: 2 },
            Request::Shutdown,
            Request::Query { id: 1 }, // behind the shutdown: refused
        ];
        let served = serve(&config(0), &MemStore::default(), stream, Client::Pipelined);
        let lines: Vec<&str> = served.replies.iter().map(|(l, _)| l.as_str()).collect();
        assert!(lines[0].contains("\"Running\""), "{lines:#?}");
        assert!(lines[1].contains("\"Waiting\""), "{lines:#?}");
        assert!(lines[2].contains("already the primary"), "{lines:#?}");
        assert!(lines[3].contains("\"Waiting\""), "{lines:#?}");
        assert!(lines[4].contains("\"Bye\""), "{lines:#?}");
        assert!(lines[5].contains("shutting down"), "{lines:#?}");
        let marks: Vec<bool> = served.replies.iter().map(|&(_, done)| done).collect();
        assert_eq!(marks, [false, false, false, false, true, false]);
        // The `Bye` was delivered, so `done` is the writer's to drop.
        assert!(!served.done_dropped);
    }

    /// The journal a primary wrote, shipped frame by frame, takes a
    /// follower through `Replica::apply` to the primary's exact state and
    /// bytes; reads are answered and writes refused on the way, whether
    /// the frames arrive pipelined or lockstep; and `recover()` over the
    /// same journal — replay through the same submit path — lands on the
    /// same snapshot.
    #[test]
    fn replay_and_follower_apply_reproduce_the_live_snapshot() {
        let primary_store = MemStore::default();
        let primary = config(7);
        let live = serve(&primary, &primary_store, mixed_stream(), Client::Pipelined);
        let files = primary_store.files();
        assert!(
            files.iter().any(|(name, _)| name.starts_with("snapshot-")),
            "the run must rotate"
        );

        let recovered = recover(&primary_store, &primary);
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
        let replayed = recovered.into_parts().0.snapshot_json();
        assert!(replayed == live.snapshot, "snapshot + tail replay diverged");
        // From the very beginning too, not only from the last snapshot.
        let full_store = MemStore::default();
        let mut frames = vec![Request::ReplHello];
        for (name, bytes) in &files {
            if name.starts_with("journal-") {
                full_store
                    .create_durable(name, bytes)
                    .expect("copy segment");
                let seq: u64 = name["journal-".len()..name.len() - ".log".len()]
                    .parse()
                    .unwrap();
                if seq > 0 {
                    frames.push(Request::ReplSegment { seq });
                }
                for frame in std::str::from_utf8(bytes).unwrap().lines() {
                    frames.push(Request::ReplRecord {
                        frame: frame.into(),
                    });
                }
            }
        }
        let recovered = recover(&full_store, &primary);
        // That replica never rotated, so it holds no saved mark and would
        // write a complete snapshot where the live one writes an
        // increment: compare what they hold, not what they would write.
        let replayed = full_state(&recovered.into_parts().0);
        assert!(replayed == live.state, "full replay diverged");

        let shipped = frames.len();
        frames.extend([
            Request::Query { id: 3 },
            submit(500, 1, 10, None, "free"),
            Request::Cancel { id: 9 },
            Request::Advance { to: 10_000 },
            Request::Stats,
            Request::Snapshot,
        ]);
        let follow = |client: Client| {
            let store = MemStore::default();
            let mut follower = config(7);
            follower.replication = Some(Replication::Follow("primary.invalid:0".into()));
            let served = serve(&follower, &store, frames.clone(), client);
            (served, store.files())
        };
        let (follower, follower_files) = follow(Client::Pipelined);
        assert!(follower.snapshot == live.snapshot, "follower diverged");
        assert_eq!(follower_files, files);
        let lines: Vec<&str> = follower.replies.iter().map(|(l, _)| l.as_str()).collect();
        assert!(lines[0].contains("ReplPosition"), "{lines:#?}");
        assert!(
            lines[1..shipped].iter().all(|l| l.contains("ReplAck")),
            "{lines:#?}"
        );
        assert!(lines[shipped].contains("\"Cancelled\""), "{lines:#?}");
        for refused in &lines[shipped + 1..shipped + 4] {
            assert!(refused.contains("read-only follower"), "{lines:#?}");
        }
        assert!(lines[shipped + 4].contains("\"role\":\"follower\""));
        assert!(lines[shipped + 5].contains("\"Snapshot\""));
        let (lockstep, lockstep_files) = follow(Client::Lockstep);
        assert_eq!(lockstep.replies, follower.replies);
        assert_eq!(lockstep_files, files);
    }

    /// Several partitions, queues standing on two of them, and a
    /// pipelined burst that keeps arriving on both in rounds of 64, under
    /// a relaxation that lets an arrival's pass start jobs that were
    /// already waiting: the live replica absorbs its events in command
    /// order, as replay does, so `recover()` over its journal answers
    /// `Stats` and writes its snapshot byte for byte as the live one.
    #[test]
    fn a_contended_burst_over_two_partitions_recovers_to_the_live_stats() {
        let mut config = ServeConfig::new(SystemSpec::philly());
        config.sim.relax = Relax::Adaptive { base: 0.5 };
        config.journal = Some(never_synced(0));

        let mut rng = lumos_stats::Rng::new(23);
        let mut next = move |bound: u64| rng.next_below(bound);
        let mut stream = Vec::new();
        for id in 0..600u64 {
            if id % 50 == 0 {
                stream.push(Request::Advance {
                    to: id as i64 / 50 * 40,
                });
            }
            let runtime = 30 + next(600) as i64;
            stream.push(Request::Submit {
                job: SubmitSpec {
                    id,
                    procs: 20 + next(120),
                    runtime,
                    walltime: Some(runtime / 2 + next(2 * runtime as u64) as i64),
                    user: Some((id % 5) as u32),
                    submit: None,
                    // Partition 1, then partition 0: against the order a
                    // pass over both would take them in.
                    virtual_cluster: Some(((id + 1) % 2) as u16),
                    tenant: None,
                },
            });
        }
        let store = MemStore::default();
        let live = serve(&config, &store, stream.clone(), Client::Pipelined);
        let waiting_on = |partition: u16| {
            let queued = stream.iter().zip(&live.replies).filter(|(req, (line, _))| {
                matches!(req, Request::Submit { job } if job.virtual_cluster == Some(partition))
                    && line.contains("\"Waiting\"")
            });
            queued.count()
        };
        assert!(
            waiting_on(0) > 50 && waiting_on(1) > 50,
            "no standing queues"
        );

        let stats = |replica: &Replica| {
            let stats = replica.metrics.report(&replica.session, 0, None, None);
            Response::Stats { stats }.to_line()
        };
        let recovered = recover(&store, &config);
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
        let replayed = recovered.into_parts().0;
        assert!(stats(&replayed) == stats(&live.parts.0), "Stats diverged");
        assert!(
            replayed.snapshot_json() == live.snapshot,
            "snapshot diverged"
        );
    }

    /// A store in which the operation `at` names fails.
    fn failing_at(at: At) -> MemStore {
        MemStore::new(Schedule {
            faults: vec![(at, Fault::Fail)],
            power_loss: false,
        })
    }

    /// A rotation whose snapshot is not written — its temp file is not
    /// created, or not renamed into place — still moves the journal on
    /// to its next segment, but not the session's saved mark: the next
    /// rotation that succeeds writes one increment on the last snapshot
    /// that exists, covering both spans.
    #[test]
    fn a_failed_rotation_keeps_the_mark_and_the_next_increment_covers_both_spans() {
        for failing in [Op::Create, Op::Rename] {
            // The second rotation's snapshot fails.
            let store = failing_at(At::Of(failing, 1));
            let config = config(7);
            let mut commands = mixed_stream().into_iter();
            let mut parts = recover(&store, &config).into_parts();
            // Lockstep: every command is a round, and every round checks
            // for a rotation.
            while parts.1.seq() < 2 {
                let stream = commands.next().into_iter().collect();
                parts = serve_on(&config, parts, stream, Client::Lockstep).parts;
            }
            assert_eq!(parts.0.session.save_delta().expect("marked").0, 1);
            assert!(!store.exists(&snapshot_name(2)), "{failing:?}");

            let live = serve_on(&config, parts, commands.collect(), Client::Lockstep);
            assert!(live.parts.1.seq() > 3, "later rounds rotate again");
            match read_snapshot_in(&store, 3).expect("read snapshot 3").body {
                SnapshotBody::Delta { prev, .. } => assert_eq!(prev, 1),
                SnapshotBody::Base(_) => panic!("snapshot 3 is not an increment"),
            }
            let recovered = recover(&store, &config);
            assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
            assert!(recovered.replayed < 7, "{}", recovered.replayed);
            let replica = recovered.into_parts().0;
            assert!(full_state(&replica) == live.state, "recovery diverged");
            assert!(replica.snapshot_json() == live.snapshot);
        }
    }

    /// A rotation whose new segment's directory entry cannot be synced
    /// stays on the old segment, so no record is acknowledged in a
    /// segment a power loss could drop; the next rotation moves on.
    #[test]
    fn a_rotation_that_cannot_sync_its_segment_stays_on_the_old_one() {
        let mut config = config(3);
        config.journal.as_mut().unwrap().fsync = FsyncPolicy::Always;
        // Directory sync 0 is recovery's; 1 is the first rotation's.
        let store = failing_at(At::Of(Op::SyncDir, 1));
        let parts = recover(&store, &config).into_parts();
        let stream = (1..=2).map(|id| submit(id, 1, 10, None, "free")).collect();
        let parts = serve_on(&config, parts, stream, Client::Lockstep).parts;
        assert_eq!(parts.1.seq(), 0);
        assert!(!store.exists(&snapshot_name(1)));
        let stream = vec![submit(3, 1, 10, None, "free")];
        let after = serve_on(&config, parts, stream, Client::Lockstep);
        assert_eq!(after.parts.1.seq(), 1);
    }

    /// A fresh replica over a journal whose header is written, in a store
    /// whose next `op` fails.
    fn failing(config: &ServeConfig, op: Op) -> (Replica, Journal) {
        let store = Arc::new(failing_at(At::Of(op, 0)));
        let jc = config.journal.clone().unwrap();
        let journal = Journal::open_in(store, jc, 0, 1).expect("open");
        (Replica::fresh(config), journal)
    }

    /// The wall time a round carries is the clock `FsyncPolicy::Interval`
    /// reads: rounds 4 ms apart share a sync, 5 ms apart do not.
    #[test]
    fn interval_fsync_runs_on_the_rounds_clock() {
        let mut config = config(0);
        let jc = config.journal.as_mut().unwrap();
        jc.fsync = FsyncPolicy::Interval(5);
        let store = MemStore::default();
        let journal = Journal::open_in(Arc::new(store.clone()), jc.clone(), 0, 1).expect("open");
        let mut core = Core::new(&config, Replica::fresh(&config), Some(journal), None);
        let mut syncs = Vec::new();
        for (id, ms) in [(1, 0), (2, 4), (3, 5), (4, 9), (5, 10), (6, 20)] {
            let round = core.round(
                Duration::from_millis(ms),
                0,
                [submit(id, 1, 10, None, "free")],
            );
            assert!(round.wrote, "round at {ms} ms journaled its submission");
            syncs.push(store.syncs());
        }
        assert_eq!(syncs, [0, 0, 1, 1, 2, 3]);
    }

    /// A round whose write fails (a full disk), and one whose write lands
    /// but whose sync fails.
    #[test]
    fn a_failed_append_stops_the_round_and_marks_one_terminal_reply() {
        let stream = vec![
            submit(1, 1, 10, None, "free"),
            Request::Query { id: 1 },
            submit(2, 1, 10, None, "free"),
            submit(1, 1, 10, None, "free"), // refused: never journaled
        ];
        for (op, fsync) in [
            (Op::Write, FsyncPolicy::Never),
            (Op::Sync, FsyncPolicy::Always),
        ] {
            let mut config = config(0);
            config.journal.as_mut().unwrap().fsync = fsync;
            let served = serve_on(
                &config,
                failing(&config, op),
                stream.clone(),
                Client::Pipelined,
            );
            let stopping = fail_stop(&MemStore::error(op)).to_line();
            let lines: Vec<&str> = served.replies.iter().map(|(l, _)| l.as_str()).collect();
            // Journaled members get the fail-stop error; the read and the
            // refusal, which promised nothing durable, keep their answers.
            assert_eq!(lines[0], stopping);
            assert!(lines[1].contains("\"Job\""), "{lines:#?}");
            assert_eq!(lines[2], stopping);
            assert!(lines[3].contains("duplicate job id 1"), "{lines:#?}");
            // The round's last reply carries `done`, read or not.
            let marks: Vec<bool> = served.replies.iter().map(|&(_, done)| done).collect();
            assert_eq!(marks, [false, false, false, true]);
            assert!(!served.done_dropped);

            // With nobody left to read the final reply, `done` goes with
            // it as the scheduler sends it, so `run` does not wait.
            let served = serve_on(
                &config,
                failing(&config, op),
                stream.clone(),
                Client::Vanished,
            );
            assert!(served.replies.is_empty());
            assert!(served.done_dropped);
        }
    }

    #[test]
    fn an_over_long_line_is_answered_and_skipped_and_the_connection_kept() {
        // A line one byte over the cap is refused by number; one exactly at
        // the cap is read and parsed. The requests around them are served.
        let over = "x".repeat(MAX_LINE_BYTES + 1);
        let at_cap = "x".repeat(MAX_LINE_BYTES);
        let input = format!(
            "{{\"Advance\":{{\"to\":5}}}}\n{over}\n{at_cap}\n{{\"Advance\":{{\"to\":7}}}}\n\"Shutdown\"\n"
        );
        let config = ServeConfig::new(SystemSpec::theta());
        let (commands, rx) = mpsc::sync_channel(config.queue_capacity);
        let shared = Shared {
            commands,
            shutting_down: AtomicBool::new(false),
            backpressure_rejects: AtomicU64::new(0),
            queue_capacity: config.queue_capacity,
        };
        let (done, _flushed) = mpsc::channel();
        let mut out = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let rx = rx;
                let mut core = Core::new(&config, Replica::fresh(&config), None, None);
                let rejects = &shared.backpressure_rejects;
                serve_rounds(&mut core, &rx, rejects, None, done, || Duration::ZERO);
            });
            serve_lines(input.as_bytes(), &mut out, &shared).expect("served");
        });
        let out = String::from_utf8(out).expect("replies are UTF-8");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "one reply per line: {lines:#?}");
        assert_eq!(lines[0], r#"{"Advanced":{"now":5}}"#);
        assert_eq!(
            lines[1],
            format!(
                r#"{{"Error":{{"message":"line 2: request line longer than {MAX_LINE_BYTES} bytes"}}}}"#
            )
        );
        assert!(
            lines[2].starts_with(r#"{"Error":{"message":"line 3: bad request"#),
            "{}",
            lines[2]
        );
        assert_eq!(lines[3], r#"{"Advanced":{"now":7}}"#);
        assert!(lines[4].starts_with(r#"{"Bye""#), "{}", lines[4]);
    }
}
