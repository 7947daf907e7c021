//! The scheduler service: one long-lived scheduling loop, many clients.
//!
//! Architecture: connection threads (one per TCP client, optionally one
//! for stdin) parse NDJSON request lines and push them onto a **bounded**
//! command queue; a single scheduler thread owns the [`SimSession`] and
//! processes commands in arrival order, so no locks guard the simulation
//! state. When the queue is full, submissions are rejected immediately
//! with a reason — backpressure is explicit, never blocking — while
//! cheap control commands (stats, query, ...) block for a slot.
//!
//! Time: with `time_scale > 0` the server maps wall-clock seconds onto
//! simulation seconds (1 wall second = `time_scale` sim seconds) and
//! advances the session before every command. With `time_scale == 0` the
//! server is *virtual-time*: the clock only moves on explicit `Advance`
//! commands, which makes runs deterministic and replayable.
//!
//! Shutdown: a `Shutdown` command stops command intake, drains every
//! pending and running job to completion, and answers with the same
//! [`lumos_sim::SimMetrics`] a batch replay of the identical arrival sequence would
//! produce.
//!
//! Durability: with [`ServeConfig::journal`] set, every state-mutating
//! command is appended to a write-ahead journal **before** its
//! acknowledgment is sent (see [`crate::journal`]), and startup replays
//! the journal to the pre-crash state (see [`crate::recovery`]). A failed
//! journal append is fail-stop: the commands it covered are answered with
//! an error and the server halts rather than acknowledge an unjournaled
//! mutation.
//!
//! Rounds: every command reaches the session and the journal through one
//! path. The scheduler drains up to 64 queued commands into a round,
//! *applies* them in arrival order — a submission due now gets its
//! scheduling pass at once, and its reply says what the pass decided —
//! and *commits* the round: one buffered journal write, one fsync, a
//! rotation check, and only then the replies, which connection writers
//! coalesce into a single flush. A round is only as large as the backlog:
//! a lockstep client's commands, a follower's reads and the requests that
//! change the loop itself (promotion, replication frames, shutdown) are
//! rounds of one. Round size changes no byte on disk or on the wire, only
//! the syscall count; see `docs/PERFORMANCE.md`.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lumos_core::{CoreError, SystemSpec, Timestamp};
use lumos_predict::{OnlinePredictor, PredictorConfig};
use lumos_sim::{SimConfig, SimSession, TenantTable};

use crate::journal::{decode_line, Journal, JournalConfig, JournalRecord};
use crate::protocol::{
    read_line, Line, ReplicationStats, Request, Response, SubmitSpec, MAX_LINE_BYTES,
};
use crate::recovery::{self, Replica};
use crate::replication::{self, ReplLink};

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
/// the same at every round size ([`Journal::append_batch`]).
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

/// The reply to a command whose journal write failed. Fail-stop: an
/// unjournaled mutation is never acknowledged, and the round that carries
/// this reply is the scheduler's last.
fn fail_stop(e: &io::Error) -> Response {
    Response::Error {
        message: format!("journal write failed ({e}); server stopping"),
    }
}

/// The reply to a command that arrives after the scheduler stopped.
fn shutting_down() -> Response {
    Response::Error {
        message: "server is shutting down".into(),
    }
}

/// Shared connection-side state.
struct Shared {
    commands: SyncSender<Envelope>,
    shutting_down: AtomicBool,
    /// Submissions rejected by backpressure (queue full).
    backpressure_rejects: AtomicU64,
    queue_capacity: usize,
}

/// Whether this request must not share a round with plain commands: it
/// either rewrites the loop's own state (promotion, replication frames)
/// or ends the loop (shutdown), so it is a round of its own, in arrival
/// order.
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
        let (replica, journal) = match &self.config.journal {
            Some(jc) => {
                let r = recovery::recover(&self.config, jc)?;
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
                (replica, Some(journal))
            }
            None => (Replica::fresh(&self.config), None),
        };
        // A replicating primary ships its journal from a dedicated sender
        // thread; the scheduler loop only nudges the link after appends.
        let link = match (&self.config.replication, &self.config.journal) {
            (Some(Replication::To(target)), Some(jc)) => {
                let link = Arc::new(ReplLink::new(target.clone()));
                replication::spawn_sender(jc.dir.clone(), Arc::clone(&link));
                Some(link)
            }
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
        Scheduler::new(&self.config, &shared, replica, journal, link.as_ref(), done).run(&rx);
        if let Some(link) = &link {
            link.stop();
        }

        // The final reply is written by a connection thread, which drops
        // `done` once it has flushed it; wait for that, or the process
        // could exit with the answer still queued.
        let _ = flushed.recv_timeout(Duration::from_secs(5));

        // Wake the accept loop so its thread exits.
        shared.shutting_down.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        Ok(())
    }
}

/// Which side of a replication pair this server currently is. A plain
/// (non-replicating) server is a `Primary` with no link; a promoted
/// follower becomes one too.
enum Role {
    Primary,
    Follower {
        /// The primary's address (`--follow`).
        primary: String,
        /// Frames applied since startup.
        records: u64,
        /// A primary has completed the replication handshake.
        hello_seen: bool,
    },
}

/// The single thread that owns the simulation: everything it owns, plus
/// the round it is building.
///
/// Commands are served in **rounds** (see the module docs): up to
/// [`ROUND_CAP`] are applied in arrival order ([`Scheduler::apply`]),
/// then committed together ([`Scheduler::commit`]).
struct Scheduler<'a> {
    config: &'a ServeConfig,
    shared: &'a Shared,
    link: Option<&'a Arc<ReplLink>>,
    replica: Replica,
    journal: Option<Journal>,
    role: Role,
    /// Wall-clock time maps onto simulation time *from where the session
    /// already is* (`sim_epoch` at `epoch`): a recovered session resumes
    /// at its pre-crash clock instead of stalling until wall time catches
    /// up with it from zero, and promotion reseeds both, so the clock
    /// starts moving at the moment of promotion, not retroactively from
    /// follower startup.
    sim_epoch: Timestamp,
    epoch: Instant,
    /// The round's journal records, in command order.
    records: Vec<JournalRecord>,
    /// The round's replies, in command order, each with whether its
    /// command is in `records`.
    replies: Vec<(mpsc::Sender<Reply>, Response, bool)>,
    /// Submissions this scheduler refused (duplicate id, validation,
    /// quota). Refusals are not journaled, so the count belongs to the
    /// process — like [`Shared::backpressure_rejects`], which `stats`
    /// adds it to — not to the replicated state.
    refused: u64,
    /// This round ends the loop (shutdown or fail-stop).
    stop: bool,
    /// What the stopping round's last reply carries ([`Reply::done`]).
    done: Option<mpsc::Sender<()>>,
}

impl<'a> Scheduler<'a> {
    fn new(
        config: &'a ServeConfig,
        shared: &'a Shared,
        replica: Replica,
        journal: Option<Journal>,
        link: Option<&'a Arc<ReplLink>>,
        done: mpsc::Sender<()>,
    ) -> Self {
        Self {
            config,
            shared,
            link,
            sim_epoch: replica.session.now().max(0),
            epoch: Instant::now(),
            replica,
            journal,
            role: match &config.replication {
                Some(Replication::Follow(primary)) => Role::Follower {
                    primary: primary.clone(),
                    records: 0,
                    hello_seen: false,
                },
                _ => Role::Primary,
            },
            records: Vec::new(),
            replies: Vec::new(),
            refused: 0,
            stop: false,
            done: Some(done),
        }
    }

    /// Serves rounds until one stops the loop (or every sender is gone).
    fn run(&mut self, rx: &Receiver<Envelope>) {
        let mut carry: Option<Envelope> = None;
        let mut batch: Vec<Envelope> = Vec::with_capacity(ROUND_CAP);
        while let Some(first) = carry.take().or_else(|| rx.recv().ok()) {
            // A request that changes the loop's own state is a round of
            // its own: it ends the drain and waits for the next round.
            let alone = is_barrier(&first.req);
            batch.push(first);
            while !alone && batch.len() < ROUND_CAP {
                match rx.try_recv() {
                    Ok(env) if is_barrier(&env.req) => {
                        carry = Some(env);
                        break;
                    }
                    Ok(env) => batch.push(env),
                    Err(_) => break,
                }
            }
            // One wall-clock advance covers the whole round: its commands
            // were all queued by now, so they share an arrival instant. A
            // follower's clock is the primary's clock: only applied
            // frames move it, never local wall time.
            if self.config.time_scale > 0.0 && matches!(self.role, Role::Primary) {
                let elapsed = self.epoch.elapsed().as_secs_f64() * self.config.time_scale;
                self.replica
                    .session
                    .advance_to(self.sim_epoch + elapsed.floor() as Timestamp);
            }
            for env in batch.drain(..) {
                self.apply(env);
            }
            self.commit();
            if self.stop {
                break;
            }
        }
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Refuse anything that squeezed into the queue behind the shutdown.
        while let Ok(Envelope { reply, .. }) = rx.try_recv() {
            let _ = reply.send(Reply {
                response: shutting_down(),
                done: None,
            });
        }
    }

    /// Apply step: runs one command against the replica and files its
    /// reply and journal record with the round.
    fn apply(&mut self, Envelope { req, reply }: Envelope) {
        // A run of submissions leaves its events in the session's log;
        // anything else may read the metrics they feed.
        if !matches!(req, Request::Submit { .. }) {
            self.replica.absorb();
        }
        let (response, record) = self.handle(req);
        self.replies.push((reply, response, record.is_some()));
        self.records.extend(record);
    }

    /// Commit step: makes the round durable, then releases its replies —
    /// or fail-stops it.
    fn commit(&mut self) {
        // The metrics are part of a rotation snapshot.
        self.replica.absorb();
        if let (Some(journal), false) = (self.journal.as_mut(), self.records.is_empty()) {
            if let Err(e) = journal.append_batch(&self.records) {
                // Fail-stop for the whole round: none of its mutations is
                // durable, so none may be acknowledged. Reads still get
                // their answers.
                eprintln!("lumos-serve: journal append failed: {e}; stopping");
                for (_, response, journaled) in &mut self.replies {
                    if *journaled {
                        *response = fail_stop(&e);
                    }
                }
                self.stop = true;
            } else {
                if let Some(link) = self.link {
                    link.notify();
                }
                // One rotation check per round: a segment may exceed
                // `snapshot_every` by at most `ROUND_CAP - 1` records, which
                // recovery and replication are indifferent to. A round
                // that stops the loop skips it: shutdown has consumed the
                // session the snapshot would describe.
                if !self.stop && journal.wants_rotation() {
                    if let Err(e) = self.replica.rotate(journal, true) {
                        // Not fatal: the old segment is intact, recovery
                        // just replays more, and the next snapshot covers
                        // what this one would have.
                        eprintln!("lumos-serve: journal rotation failed: {e}; continuing");
                    } else if let Some(link) = self.link {
                        link.notify();
                    }
                }
            }
        }
        self.records.clear();
        let mut replies = self.replies.drain(..).peekable();
        while let Some((reply, response, _)) = replies.next() {
            let last = self.stop && replies.peek().is_none();
            let done = if last { self.done.take() } else { None };
            // A client that vanished drops the reply, `done` with it.
            let _ = reply.send(Reply { response, done });
        }
    }

    /// Processes one command; returns the response plus the journal
    /// record to persist when the command mutated the session (`None`
    /// for reads and refused mutations).
    fn handle(&mut self, req: Request) -> (Response, Option<JournalRecord>) {
        let follower = matches!(self.role, Role::Follower { .. });
        let session = &mut self.replica.session;
        match req {
            Request::Promote => (self.promote(), None),
            Request::ReplHello | Request::ReplSegment { .. } | Request::ReplRecord { .. } => {
                (self.replicate(req), None)
            }
            Request::Submit { .. } | Request::Cancel { .. } | Request::Advance { .. }
                if follower =>
            {
                (
                    Response::Error {
                        message: "this server is a read-only follower; promote it first".into(),
                    },
                    None,
                )
            }
            Request::Submit { job } => self.submit(job),
            Request::Cancel { id } => {
                let ok = session.cancel(id);
                (
                    Response::Cancelled { id, ok },
                    ok.then(|| JournalRecord::Cancel {
                        now: session.now(),
                        id,
                    }),
                )
            }
            Request::Query { id } => (
                match session.row_of(id) {
                    Some(row) => Response::Job {
                        id,
                        state: session.state_at(row).expect("a row of the table"),
                        wait: session.job_at(row).and_then(|j| j.wait),
                    },
                    None => Response::Error {
                        message: format!("unknown job id {id}"),
                    },
                },
                None,
            ),
            Request::Advance { to } => {
                if self.config.time_scale > 0.0 {
                    (
                        Response::Error {
                            message:
                                "Advance is only valid on virtual-time servers (--time-scale 0)"
                                    .into(),
                        },
                        None,
                    )
                } else {
                    session.advance_to(to);
                    let now = session.now();
                    (
                        Response::Advanced { now },
                        Some(JournalRecord::Advance { to: now }),
                    )
                }
            }
            Request::Stats => (
                Response::Stats {
                    stats: self.replica.metrics.report(
                        &self.replica.session,
                        self.refused + self.shared.backpressure_rejects.load(Ordering::Relaxed),
                        self.replica.predictor.as_ref().map(OnlinePredictor::name),
                        self.replication_stats(),
                    ),
                },
                None,
            ),
            Request::Snapshot => (
                Response::Snapshot {
                    snapshot: session.snapshot(),
                },
                None,
            ),
            Request::Shutdown => {
                self.stop = true;
                if follower {
                    // Stop without draining: draining would journal an
                    // advance the primary never had, forking the mirror.
                    return (Response::Bye { metrics: None }, None);
                }
                session.advance_to_completion();
                self.replica.absorb();
                let session = &mut self.replica.session;
                // Journal the drain so a restart resumes the drained state.
                let record = JournalRecord::Advance { to: session.now() };
                let snap = session.snapshot();
                let ran_any = snap.submitted > snap.cancelled;
                // `into_result` consumes the session; replace it with an
                // empty one (nothing can reach it — the loop exits right
                // after).
                let empty = SimSession::new(&self.config.system, self.config.sim);
                let drained = std::mem::replace(session, empty);
                (
                    Response::Bye {
                        metrics: ran_any.then(|| drained.into_result().metrics),
                    },
                    Some(record),
                )
            }
        }
    }

    /// Serves one submission through the submit path journal replay
    /// shares ([`Replica::submit`]); an accepted job answers with the
    /// state its own scheduling pass left it in.
    fn submit(&mut self, spec: SubmitSpec) -> (Response, Option<JournalRecord>) {
        let id = spec.id;
        // The service rejects *any* reuse of a known id — stricter than
        // the session, which frees finished/cancelled ids — because
        // queries and cancels address jobs by id for the whole server
        // lifetime.
        let refusal = if self.replica.session.query(id).is_some() {
            Response::Rejected {
                id: Some(id),
                reason: format!("duplicate job id {id}"),
            }
        } else {
            // An accepted job takes the next row of the table.
            let row = self.replica.session.job_count();
            match self.replica.submit(spec) {
                Ok(record) => {
                    let state = self.replica.session.state_at(row);
                    let state = state.expect("the row it was just given");
                    return (Response::Submitted { id, state }, Some(record));
                }
                // Quota refusals get their own reply shape so clients can
                // tell "back off" from "fix your request".
                Err(CoreError::QuotaExceeded {
                    tenant,
                    requested,
                    in_use,
                    quota,
                }) => Response::QuotaExceeded {
                    id,
                    tenant,
                    requested,
                    in_use,
                    quota,
                },
                Err(e) => Response::Rejected {
                    id: Some(id),
                    reason: e.to_string(),
                },
            }
        };
        self.refused += 1;
        (refusal, None)
    }

    /// Promotion: flip the role in place — same session, same journal,
    /// same loop; only write admission and the wall clock change.
    fn promote(&mut self) -> Response {
        if matches!(self.role, Role::Primary) {
            return Response::Error {
                message: "already the primary; refusing promotion".into(),
            };
        }
        // Seal the tail: an empty segment (nothing was ever replicated)
        // gets the Config header a primary's segment always starts with.
        if let Some(journal) = self.journal.as_mut() {
            if journal.records_in_segment() == 0 {
                if let Err(e) = journal.append(&self.replica.header()) {
                    eprintln!("lumos-serve: promotion failed to seal the journal: {e}");
                    return Response::Error {
                        message: format!("journal write failed ({e}); refusing promotion"),
                    };
                }
            }
        }
        let now = self.replica.session.now();
        self.role = Role::Primary;
        self.sim_epoch = now.max(0);
        self.epoch = Instant::now();
        eprintln!("lumos-serve: promoted to primary at t = {now}");
        Response::Promoted { now }
    }

    /// Handles one replication-protocol request (`ReplHello`,
    /// `ReplSegment`, `ReplRecord`). A follower that cannot persist a
    /// frame must not continue: it answers with [`fail_stop`] and stops.
    fn replicate(&mut self, req: Request) -> Response {
        let Role::Follower {
            records,
            hello_seen,
            ..
        } = &mut self.role
        else {
            return Response::Error {
                message: "this server is not a follower (start it with --follow)".into(),
            };
        };
        let Some(journal) = self.journal.as_mut() else {
            // Unreachable in practice: `--follow` requires a journal.
            return Response::Error {
                message: "follower has no journal".into(),
            };
        };
        match req {
            Request::ReplHello => {
                *hello_seen = true;
                Response::ReplPosition {
                    seq: journal.seq(),
                    offset: journal.segment_bytes(),
                }
            }
            Request::ReplSegment { seq } => {
                if seq != journal.seq() + 1 {
                    return Response::Error {
                        message: format!(
                            "out-of-order segment marker {seq} (follower is at {})",
                            journal.seq()
                        ),
                    };
                }
                // Rotate with a locally synthesized snapshot: the
                // follower's state equals the primary's at this boundary
                // and both left their saved mark at the boundary before,
                // so the snapshot JSON — an increment, usually — is
                // byte-identical to the primary's too.
                match self.replica.rotate(journal, false) {
                    Ok(()) => Response::ReplAck {
                        seq: journal.seq(),
                        offset: 0,
                    },
                    Err(e) => {
                        eprintln!("lumos-serve: follower rotation failed: {e}; stopping");
                        self.stop = true;
                        fail_stop(&e)
                    }
                }
            }
            Request::ReplRecord { frame } => {
                // Re-verify the frame end to end before trusting it: the
                // CRC travelled from the primary's disk over the wire.
                let record = match decode_line(frame.as_bytes()) {
                    Ok(record) => record,
                    Err(e) => {
                        return Response::Error {
                            message: format!("bad replicated frame: {e}"),
                        }
                    }
                };
                // Mirror first (append-before-ack, exactly like a
                // primary), then apply through the recovery path.
                if let Err(e) = journal.append_raw_line(&frame) {
                    eprintln!("lumos-serve: follower journal append failed: {e}; stopping");
                    self.stop = true;
                    return fail_stop(&e);
                }
                let mut warnings = Vec::new();
                self.replica.apply(record, self.config, &mut warnings);
                for w in warnings {
                    eprintln!("lumos-serve: follower apply: {w}");
                }
                *records += 1;
                Response::ReplAck {
                    seq: journal.seq(),
                    offset: journal.segment_bytes(),
                }
            }
            _ => unreachable!("`handle` routes only replication requests here"),
        }
    }

    /// The `stats` replication block for the current role: ack progress
    /// on a replicating primary, applied position on a follower, `None`
    /// on plain servers (and promoted followers, which serve exactly like
    /// one).
    fn replication_stats(&self) -> Option<ReplicationStats> {
        match &self.role {
            Role::Primary => self.link.map(|link| ReplicationStats {
                role: "primary".into(),
                peer: link.target.clone(),
                connected: link.is_connected(),
                seq: link.acked_seq(),
                offset: link.acked_offset(),
                records: link.acked_count(),
            }),
            Role::Follower {
                primary,
                records,
                hello_seen,
            } => Some(ReplicationStats {
                role: "follower".into(),
                peer: primary.clone(),
                connected: *hello_seen,
                seq: self.journal.as_ref().map_or(0, Journal::seq),
                offset: self.journal.as_ref().map_or(0, Journal::segment_bytes),
                records: *records,
            }),
        }
    }
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

/// One entry in a connection's in-order response stream: a locally
/// produced response (parse error, backpressure rejection, shutdown
/// refusal), or a marker that the scheduler owes the next response on the
/// connection's shared reply channel. Both channels are FIFO, so pairing
/// `Scheduled` slots with scheduler replies in order reproduces exactly
/// the one-response-per-line, in-order wire contract.
// The variants are deliberately lopsided: `Scheduled` (the hot path) is
// zero-sized, and boxing the rare locally-produced `Ready` response would
// put an allocation back on the error/rejection path for nothing.
#[allow(clippy::large_enum_variant)]
enum Slot {
    Ready(Response),
    Scheduled,
}

/// The request/response loop shared by TCP connections and stdin: a
/// reader half (this thread) that parses lines from one recycled buffer
/// and enqueues commands without waiting for their answers, and a writer
/// half (scoped thread) that writes responses in request order,
/// coalescing every response available in the same scheduler round into
/// a single buffered write + flush. A pipelined client thus keeps the
/// command queue full and its rounds large; a lockstep client gets one
/// flush per request.
///
/// Physical lines (blank ones included) are counted so parse errors can
/// name the offending line of the stream. A line longer than
/// [`MAX_LINE_BYTES`] is answered with an error and skipped; the
/// connection stays open.
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
                    Line::TooLong => Slot::Ready(Response::Error {
                        message: format!(
                            "line {lineno}: request line longer than {MAX_LINE_BYTES} bytes"
                        ),
                    }),
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
                Slot::Ready(response) => Reply {
                    response,
                    done: None,
                },
                Slot::Scheduled => match replies.try_recv() {
                    Ok(reply) => reply,
                    Err(_) => {
                        // The scheduler has not answered this one yet:
                        // release what is already buffered, then wait.
                        if pending > 0 {
                            writer.flush()?;
                            pending = 0;
                        }
                        replies.recv().unwrap_or_else(|_| Reply {
                            response: shutting_down(),
                            done: None,
                        })
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

/// Parses one line and routes it through the bounded queue, tagging the
/// command with the connection's shared reply channel. Returns the
/// response slot for the writer half: `Ready` when the answer is known
/// right here (parse error, backpressure rejection, shutdown), otherwise
/// `Scheduled`. `lineno` is the 1-based physical line number within this
/// client's stream, used to contextualize parse errors.
fn dispatch(line: &str, lineno: usize, shared: &Shared, reply: &mpsc::Sender<Reply>) -> Slot {
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(message) => {
            return Slot::Ready(Response::Error {
                message: format!("line {lineno}: {message}"),
            })
        }
    };
    let submit_id = match &req {
        Request::Submit { job } => Some(job.id),
        _ => None,
    };
    let envelope = Envelope {
        req,
        reply: reply.clone(),
    };
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
mod tests {
    //! Socket-free tests of the round machine: commands go in through
    //! its `mpsc` queue, replies come back on reply channels, and the
    //! journal lives in a temp dir. A pipelined client queues every
    //! command before the scheduler runs, so rounds are the largest the
    //! cap and the barriers allow; a lockstep client waits for each reply
    //! before it sends the next command, so every round holds one.

    use std::path::{Path, PathBuf};
    use std::sync::mpsc::TryRecvError;

    use lumos_sim::{Policy, Relax};

    use super::*;
    use crate::journal::FsyncPolicy;
    use crate::recovery::recover;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lumos-rounds-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// An 8-unit machine with tenants (one capped at 6 outstanding
    /// units), a fair-share policy and a walltime predictor, so the
    /// shared submit path exercises tenant resolution, quota refusal and
    /// predict/observe on every route.
    fn config(dir: &Path, snapshot_every: u64) -> ServeConfig {
        let mut system = SystemSpec::theta();
        system.name = "rounds-test".into();
        system.total_nodes = 8;
        system.units_per_node = 1;
        system.total_units = 8;
        let mut config = ServeConfig::new(system);
        config.sim.policy = Policy::MaxMinFair;
        config.predictor = Some(PredictorConfig::Last2 { margin: 1.5 });
        config.tenants = Some(TenantTable::parse("capped 1 6\nfree 2\n").expect("tenant table"));
        let mut journal = JournalConfig::new(dir.to_path_buf());
        journal.fsync = FsyncPolicy::Never;
        journal.snapshot_every = snapshot_every;
        config.journal = Some(journal);
        config
    }

    fn submit(id: u64, procs: u64, runtime: i64, submit: Option<i64>, tenant: &str) -> Request {
        Request::Submit {
            job: SubmitSpec {
                id,
                procs,
                runtime,
                walltime: Some(runtime + 50),
                user: Some((id % 3) as u32),
                submit,
                virtual_cluster: None,
                tenant: Some(tenant.into()),
            },
        }
    }

    /// Every kind of command a primary's round can hold: submissions that
    /// start at once, queue, are zero-length or future-dated; a cancel,
    /// reads, advances, and `Promote` — a barrier in the middle of what
    /// would otherwise be one round; and a duplicate, an over-quota and
    /// an unknown-tenant submission. Refusals are never journaled, and
    /// what counts them is the scheduler, not the replicated state: a
    /// replay or a follower, which never sees them, still writes the
    /// primary's snapshots.
    fn mixed_stream() -> Vec<Request> {
        let mut stream = vec![
            submit(1, 4, 100, None, "capped"),
            submit(2, 2, 300, None, "free"),
            submit(3, 4, 200, None, "free"), // queues behind 1 and 2
            submit(4, 1, 0, None, "free"),   // zero-length
            submit(5, 2, 50, Some(40), "free"), // future-dated
            submit(1, 1, 10, None, "free"),  // duplicate id
            submit(6, 4, 10, None, "capped"), // 4 + 4 > quota 6
            submit(7, 1, 10, None, "nobody"), // unknown tenant
            Request::Query { id: 3 },
            submit(8, 2, 80, None, "capped"),
            Request::Cancel { id: 3 },
            Request::Cancel { id: 99 },
            Request::Stats,
            Request::Promote,
            submit(9, 3, 60, None, "free"),
            Request::Advance { to: 45 },
            Request::Query { id: 5 },
            Request::Snapshot,
        ];
        for i in 0..20 {
            stream.push(submit(100 + i, 1 + i % 3, 20 + i as i64 * 7, None, "free"));
            if i % 6 == 5 {
                stream.push(Request::Advance {
                    to: 45 + i as i64 * 10,
                });
            }
        }
        stream.extend(refusals_between_submissions());
        stream.push(Request::Stats);
        stream
    }

    /// On a drained machine, one run of submissions with no read between
    /// them: three that start at once and one that queues, each answered
    /// from its row after its pass, around a zero-length job and five
    /// refusals — two of which break a second rule as well.
    fn refusals_between_submissions() -> Vec<Request> {
        vec![
            Request::Advance { to: 5_000 },
            submit(200, 2, 30, None, "free"),
            submit(201, 1, 0, None, "free"), // zero-length: done in its own pass
            submit(202, 2, 30, None, "free"),
            submit(200, 1, 10, Some(10), "free"), // duplicate, and past-dated
            submit(202, 99, 10, None, "free"),    // duplicate, and oversized
            submit(203, 99, 10, None, "capped"),  // oversized, and over quota
            submit(204, 7, 10, None, "capped"),   // 7 > quota 6
            submit(205, 3, 30, None, "capped"),   // 2 + 2 + 3 of 8 units
            submit(206, 4, 30, None, "free"),     // queues behind them
        ]
    }

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

    /// How a test client feeds the scheduler.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Client {
        /// Queues the whole stream before the scheduler runs.
        Pipelined,
        /// Sends each command once the one before it is answered.
        Lockstep,
        /// Queues the whole stream and is gone before the first reply.
        Vanished,
    }

    /// What one run of the round machine left behind.
    struct Served {
        /// Reply lines in release order, each with whether it carried
        /// [`Reply::done`].
        replies: Vec<(String, bool)>,
        /// The rotation snapshot the replica would write at the end of
        /// the run: an increment, once the run has rotated.
        snapshot: String,
        /// [`full_state`] at the end of the run.
        state: String,
        /// Whether `done`'s receiver was already disconnected when the
        /// scheduler returned.
        done_dropped: bool,
        /// What the scheduler owned, to serve another stream on.
        parts: (Replica, Journal),
    }

    /// The complete state of a replica, wherever its saved mark is: what
    /// two replicas that rotated at different boundaries (or not at all)
    /// are compared by.
    fn full_state(replica: &Replica) -> String {
        [
            serde_json::to_string(&replica.session.save_state()),
            serde_json::to_string(&replica.metrics),
            serde_json::to_string(&replica.predictor),
        ]
        .map(|part| part.expect("state serializes"))
        .join("\n")
    }

    /// Feeds `stream` to a scheduler over `replica` and `journal` the way
    /// `client` does, until the stream ends (or a round stops the
    /// scheduler), and collects the replies.
    fn serve_on(
        config: &ServeConfig,
        (replica, journal): (Replica, Journal),
        stream: Vec<Request>,
        client: Client,
    ) -> Served {
        // The scheduler never sends on `commands`; only `dispatch` does.
        let (commands, _unused) = mpsc::sync_channel(1);
        let shared = Shared {
            commands,
            shutting_down: AtomicBool::new(false),
            backpressure_rejects: AtomicU64::new(0),
            queue_capacity: 1,
        };
        let (done, flushed) = mpsc::channel();
        let mut scheduler = Scheduler::new(config, &shared, replica, Some(journal), None, done);
        let (tx, rx) = mpsc::sync_channel(stream.len().max(1));
        let replies: Vec<Reply> = if client == Client::Lockstep {
            std::thread::scope(|scope| {
                let client = scope.spawn(move || {
                    let mut replies = Vec::new();
                    for req in stream {
                        let (reply, answer) = mpsc::channel();
                        // The queue is gone, or no answer came: the
                        // scheduler stopped before this command.
                        if tx.send(Envelope { req, reply }).is_err() {
                            break;
                        }
                        let Ok(reply) = answer.recv() else { break };
                        replies.push(reply);
                    }
                    replies
                });
                scheduler.run(&rx);
                // A command queued after the stop goes with the queue,
                // which ends the client's wait for its answer; one sent
                // after this drop fails to queue.
                drop(rx);
                client.join().expect("client thread")
            })
        } else {
            let (reply, replies) = mpsc::channel();
            for req in stream {
                let reply = reply.clone();
                tx.send(Envelope { req, reply }).expect("queue a command");
            }
            drop((tx, reply));
            let replies = (client == Client::Pipelined).then_some(replies);
            scheduler.run(&rx);
            replies.into_iter().flatten().collect()
        };
        let done_dropped = flushed.try_recv() == Err(TryRecvError::Disconnected);
        let Scheduler {
            replica, journal, ..
        } = scheduler;
        Served {
            replies: replies
                .into_iter()
                .map(|r| (r.response.to_line(), r.done.is_some()))
                .collect(),
            snapshot: replica.snapshot_json(),
            state: full_state(&replica),
            done_dropped,
            parts: (replica, journal.expect("served with a journal")),
        }
    }

    fn serve(config: &ServeConfig, stream: Vec<Request>, client: Client) -> Served {
        let journal = config.journal.as_ref().expect("tests journal");
        let recovered = recover(config, journal).expect("recover");
        serve_on(config, recovered.into_parts(), stream, client)
    }

    /// Every file in a journal directory, by name.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("read journal dir")
            .map(|entry| {
                let path = entry.expect("dir entry").path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).expect("read journal file"))
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn rounds_of_one_and_of_sixty_four_are_byte_identical() {
        let mut stream = mixed_stream();
        stream.push(Request::Shutdown);
        let run = |client: Client| {
            let dir = temp_dir(&format!("mixed-{client:?}"));
            let served = serve(&config(&dir, 0), stream.clone(), client);
            let files = dir_bytes(&dir);
            std::fs::remove_dir_all(&dir).ok();
            (served.replies, files)
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
        let dir = temp_dir("carry");
        let stream = vec![
            submit(1, 8, 100, None, "free"),
            submit(2, 8, 100, None, "free"),
            Request::Promote,
            Request::Query { id: 2 },
            Request::Shutdown,
            Request::Query { id: 1 }, // behind the shutdown: refused
        ];
        let served = serve(&config(&dir, 0), stream, Client::Pipelined);
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
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The journal a primary wrote, shipped frame by frame, takes a
    /// follower through `Replica::apply` to the primary's exact state and
    /// bytes; reads are answered and writes refused on the way, whether
    /// the frames arrive pipelined or lockstep; and `recover()` over the
    /// same journal — replay through the same submit path — lands on the
    /// same snapshot.
    #[test]
    fn replay_and_follower_apply_reproduce_the_live_snapshot() {
        let primary_dir = temp_dir("primary");
        let primary = config(&primary_dir, 7);
        let live = serve(&primary, mixed_stream(), Client::Pipelined);
        let files = dir_bytes(&primary_dir);
        assert!(
            files.iter().any(|(name, _)| name.starts_with("snapshot-")),
            "the run must rotate"
        );

        let journal = primary.journal.as_ref().unwrap();
        let recovered = recover(&primary, journal).expect("recover");
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
        let replayed = recovered.into_parts().0.snapshot_json();
        assert!(replayed == live.snapshot, "snapshot + tail replay diverged");
        // From the very beginning too, not only from the last snapshot.
        let full_dir = temp_dir("primary-full");
        let mut frames = vec![Request::ReplHello];
        for (name, bytes) in &files {
            if name.starts_with("journal-") {
                std::fs::write(full_dir.join(name), bytes).expect("copy segment");
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
        let mut full = primary.clone();
        full.journal.as_mut().unwrap().dir = full_dir.clone();
        let recovered = recover(&full, full.journal.as_ref().unwrap()).expect("recover");
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
            let dir = temp_dir(&format!("follower-{client:?}"));
            let mut follower = config(&dir, 7);
            follower.replication = Some(Replication::Follow("primary.invalid:0".into()));
            let served = serve(&follower, frames.clone(), client);
            let files = dir_bytes(&dir);
            std::fs::remove_dir_all(&dir).ok();
            (served, files)
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

        std::fs::remove_dir_all(&primary_dir).ok();
        std::fs::remove_dir_all(&full_dir).ok();
    }

    /// Several partitions, queues standing on two of them, and a
    /// pipelined burst that keeps arriving on both in rounds of 64, under
    /// a relaxation that lets an arrival's pass start jobs that were
    /// already waiting: the live replica absorbs its events in command
    /// order, as replay does, so `recover()` over its journal answers
    /// `Stats` and writes its snapshot byte for byte as the live one.
    #[test]
    fn a_contended_burst_over_two_partitions_recovers_to_the_live_stats() {
        let dir = temp_dir("philly");
        let mut config = ServeConfig::new(SystemSpec::philly());
        config.sim.relax = Relax::Adaptive { base: 0.5 };
        let mut journal = JournalConfig::new(dir.clone());
        journal.fsync = FsyncPolicy::Never;
        journal.snapshot_every = 0;
        config.journal = Some(journal);

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
        let live = serve(&config, stream.clone(), Client::Pipelined);
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
        let recovered = recover(&config, config.journal.as_ref().unwrap()).expect("recover");
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
        let replayed = recovered.into_parts().0;
        assert!(stats(&replayed) == stats(&live.parts.0), "Stats diverged");
        assert!(
            replayed.snapshot_json() == live.snapshot,
            "snapshot diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A rotation that fails moves nothing: the journal keeps its
    /// segment, the session keeps its saved mark, and the next rotation
    /// that succeeds writes one increment on the last snapshot that
    /// exists, covering both spans.
    #[test]
    fn a_failed_rotation_keeps_the_mark_and_the_next_increment_covers_both_spans() {
        let dir = temp_dir("rotate-fail");
        let config = config(&dir, 7);
        let journal = config.journal.as_ref().unwrap();
        let mut commands = mixed_stream().into_iter();
        let mut parts = recover(&config, journal).expect("recover").into_parts();
        // Lockstep: every command is a round, and every round checks for
        // a rotation.
        let mut step = |parts, n: usize| {
            let stream: Vec<Request> = commands.by_ref().take(n).collect();
            assert!(!stream.is_empty(), "the stream ran out");
            serve_on(&config, parts, stream, Client::Lockstep)
        };
        // Up to the first rotation: the chain's base.
        while parts.1.seq() == 0 {
            parts = step(parts, 1).parts;
        }
        assert_eq!(parts.0.session.save_delta().expect("marked").0, 1);
        // The next snapshot's temp file cannot be created. A journal still
        // asking for a rotation after a round has tried one and failed.
        let in_the_way = dir.join("snapshot-000002.json.tmp");
        std::fs::create_dir(&in_the_way).expect("block the temp file");
        while !parts.1.wants_rotation() {
            parts = step(parts, 1).parts;
        }
        parts = step(parts, 3).parts;
        assert_eq!(parts.1.seq(), 1, "the journal keeps its segment");
        assert_eq!(parts.0.session.save_delta().expect("marked").0, 1);
        assert!(!crate::journal::snapshot_path(&dir, 2).exists());

        std::fs::remove_dir(&in_the_way).expect("unblock the temp file");
        let live = step(parts, usize::MAX);
        assert!(live.parts.1.seq() > 2, "later rounds rotate again");
        match recovery::read_snapshot(&dir, 2)
            .expect("read snapshot 2")
            .body
        {
            recovery::SnapshotBody::Delta { prev, .. } => assert_eq!(prev, 1),
            recovery::SnapshotBody::Base(_) => panic!("snapshot 2 is not an increment"),
        }
        let recovered = recover(&config, journal).expect("recover");
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
        assert!(recovered.replayed < 7, "{}", recovered.replayed);
        let replica = recovered.into_parts().0;
        assert!(full_state(&replica) == live.state, "recovery diverged");
        assert!(replica.snapshot_json() == live.snapshot);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fresh replica over a journal whose segment is `/dev/full`: every
    /// append fails.
    #[cfg(target_os = "linux")]
    fn on_a_full_disk(config: &ServeConfig, dir: &Path) -> (Replica, Journal) {
        let segment = crate::journal::segment_path(dir, 0);
        let _ = std::fs::remove_file(&segment);
        std::os::unix::fs::symlink("/dev/full", segment).expect("symlink");
        let journal = Journal::open_segment(config.journal.clone().unwrap(), 0, 1);
        (Replica::fresh(config), journal.expect("open /dev/full"))
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_stops_the_round_and_marks_one_terminal_reply() {
        let dir = temp_dir("full");
        let config = config(&dir, 0);
        let stream = vec![
            submit(1, 1, 10, None, "free"),
            Request::Query { id: 1 },
            submit(2, 1, 10, None, "free"),
            submit(1, 1, 10, None, "free"), // refused: never journaled
        ];
        let full_disk = || on_a_full_disk(&config, &dir);
        let served = serve_on(&config, full_disk(), stream.clone(), Client::Pipelined);
        let stopping = fail_stop(&io::Error::from_raw_os_error(28)).to_line();
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

        // With nobody left to read the final reply, `done` goes with it
        // as the scheduler sends it, so `run` does not wait.
        let served = serve_on(&config, full_disk(), stream, Client::Vanished);
        assert!(served.replies.is_empty());
        assert!(served.done_dropped);
        std::fs::remove_dir_all(&dir).ok();
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
                let replica = Replica::fresh(&config);
                Scheduler::new(&config, &shared, replica, None, None, done).run(&rx);
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
