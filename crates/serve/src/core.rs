//! The scheduler's decisions without its I/O: [`Core::round`] serves one
//! round of commands and says what the shell ([`crate::server`]) must do.
//! It reads no clock, holds no channel and reaches the disk only through
//! its journal's store, so a test steps it on one thread.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use lumos_core::{CoreError, Timestamp};
use lumos_predict::Predictor;
use lumos_sim::SimSession;

use crate::journal::{decode_line, Journal, JournalRecord};
use crate::protocol::{ReplicationStats, Request, Response, SubmitSpec};
use crate::recovery::Replica;
use crate::replication::ReplLink;
use crate::server::{Replication, ServeConfig};

/// What one round decided.
#[derive(Default)]
pub(crate) struct Round {
    /// One reply per command, in command order.
    pub replies: Vec<Response>,
    /// The round appended to the journal: the replication link has news.
    pub wrote: bool,
    /// This round ends the loop (shutdown or fail-stop).
    pub stop: bool,
    /// Lines for stderr, in the order they arose.
    pub log: Vec<String>,
}

/// The reply to a command whose journal write failed. Fail-stop: an
/// unjournaled mutation is never acknowledged, and the round that carries
/// this reply is the scheduler's last.
pub(crate) fn fail_stop(e: &io::Error) -> Response {
    Response::error(format!("journal write failed ({e}); server stopping"))
}

/// Ends `round` because `what` failed with `e`: logs it, stops the loop,
/// and returns the [`fail_stop`] reply.
fn halt(round: &mut Round, what: &str, e: &io::Error) -> Response {
    let line = format!("lumos-serve: {what} failed: {e}; stopping");
    round.log.push(line);
    round.stop = true;
    fail_stop(e)
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

/// Everything the scheduling loop owns, plus the round it is building:
/// commands are applied in arrival order ([`Core::apply`]), then
/// committed together ([`Core::commit`]).
pub(crate) struct Core {
    config: ServeConfig,
    link: Option<Arc<ReplLink>>,
    replica: Replica,
    journal: Option<Journal>,
    role: Role,
    /// Wall-clock time maps onto simulation time *from where the session
    /// already is* (`sim_epoch` at `epoch`): a recovered session resumes
    /// at its pre-crash clock, and promotion reseeds both, so the clock
    /// starts moving at the moment of promotion.
    sim_epoch: Timestamp,
    epoch: Duration,
    /// The current round's wall-clock reading and backpressure count.
    elapsed: Duration,
    door_rejects: u64,
    /// The round being built; its journal records, in command order; and
    /// for each reply, whether its command is in `records`.
    round: Round,
    records: Vec<JournalRecord>,
    journaled: Vec<bool>,
    /// Submissions this scheduler refused (duplicate id, validation,
    /// quota). Refusals are not journaled, so the count belongs to the
    /// process, like the backpressure rejects `stats` adds it to.
    refused: u64,
}

impl Core {
    pub(crate) fn new(
        config: &ServeConfig,
        replica: Replica,
        journal: Option<Journal>,
        link: Option<Arc<ReplLink>>,
    ) -> Self {
        Self {
            config: config.clone(),
            link,
            sim_epoch: replica.session.now().max(0),
            epoch: Duration::ZERO,
            elapsed: Duration::ZERO,
            door_rejects: 0,
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
            round: Round::default(),
            records: Vec::new(),
            journaled: Vec::new(),
            refused: 0,
        }
    }

    /// Serves one round: `requests` in arrival order, `elapsed` wall time
    /// after the shell started, and `door_rejects` submissions the queue
    /// has refused so far.
    pub(crate) fn round(
        &mut self,
        elapsed: Duration,
        door_rejects: u64,
        requests: impl IntoIterator<Item = Request>,
    ) -> Round {
        (self.elapsed, self.door_rejects) = (elapsed, door_rejects);
        if let Some(journal) = &mut self.journal {
            journal.set_elapsed(elapsed);
        }
        // One wall-clock advance covers the whole round: its commands
        // were all queued by now, so they share an arrival instant. A
        // follower's clock is the primary's clock: only applied frames
        // move it, never local wall time.
        if self.config.time_scale > 0.0 && matches!(self.role, Role::Primary) {
            let since = elapsed.saturating_sub(self.epoch);
            let elapsed = since.as_secs_f64() * self.config.time_scale;
            self.replica
                .session
                .advance_to(self.sim_epoch + elapsed.floor() as Timestamp);
        }
        let requests = requests.into_iter();
        self.round.replies.reserve(requests.size_hint().0);
        for req in requests {
            self.apply(req);
        }
        self.commit()
    }

    /// Apply step: runs one command against the replica and files its
    /// reply and journal record with the round.
    fn apply(&mut self, req: Request) {
        // A run of submissions leaves its events in the session's log;
        // anything else may read the metrics they feed.
        if !matches!(req, Request::Submit { .. }) {
            self.replica.absorb();
        }
        let (response, record) = self.handle(req);
        self.round.replies.push(response);
        self.journaled.push(record.is_some());
        self.records.extend(record);
    }

    /// Commit step: makes the round durable, then hands its replies out —
    /// or fail-stops it.
    fn commit(&mut self) -> Round {
        // The metrics are part of a rotation snapshot.
        self.replica.absorb();
        if let (Some(journal), false) = (self.journal.as_mut(), self.records.is_empty()) {
            if let Err(e) = journal.append_batch(&self.records) {
                // Fail-stop for the whole round: none of its mutations is
                // durable, so none may be acknowledged. Reads still get
                // their answers.
                let stopping = halt(&mut self.round, "journal append", &e);
                for (response, &journaled) in self.round.replies.iter_mut().zip(&self.journaled) {
                    if journaled {
                        *response = stopping.clone();
                    }
                }
            } else {
                self.round.wrote = true;
                // One rotation check per round (a segment may overshoot
                // `snapshot_every` by a round less one record), skipped
                // when shutdown has consumed the session.
                if !self.round.stop && journal.wants_rotation() {
                    if let Err(e) = self.replica.rotate(journal, true) {
                        // Not fatal: every record is in a segment after
                        // the newest snapshot, so recovery just replays
                        // more, and the next snapshot covers this span.
                        let line = format!("lumos-serve: journal rotation failed: {e}; continuing");
                        self.round.log.push(line);
                    }
                }
            }
        }
        self.records.clear();
        self.journaled.clear();
        std::mem::take(&mut self.round)
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
                let why = "this server is a read-only follower; promote it first";
                (Response::error(why), None)
            }
            Request::Submit { job } => self.submit(job),
            Request::Cancel { id } => {
                let (ok, now) = (session.cancel(id), session.now());
                let record = ok.then_some(JournalRecord::Cancel { now, id });
                (Response::Cancelled { id, ok }, record)
            }
            Request::Query { id } => (
                match session.row_of(id) {
                    Some(row) => Response::Job {
                        id,
                        state: session.state_at(row).expect("a row of the table"),
                        wait: session.job_at(row).and_then(|j| j.wait),
                    },
                    None => Response::error(format!("unknown job id {id}")),
                },
                None,
            ),
            Request::Advance { to } => {
                if self.config.time_scale > 0.0 {
                    let why = "Advance is only valid on virtual-time servers (--time-scale 0)";
                    (Response::error(why), None)
                } else {
                    session.advance_to(to);
                    let now = session.now();
                    let record = JournalRecord::Advance { to: now };
                    (Response::Advanced { now }, Some(record))
                }
            }
            Request::Stats => {
                let refused = self.refused + self.door_rejects;
                let predictor = self.replica.predictor.as_ref().map(Predictor::name);
                let (session, link) = (&self.replica.session, self.replication_stats());
                let metrics = &self.replica.metrics;
                let stats = metrics.report(session, refused, predictor, link);
                (Response::Stats { stats }, None)
            }
            Request::Snapshot => {
                let snapshot = session.snapshot();
                (Response::Snapshot { snapshot }, None)
            }
            Request::Shutdown => {
                self.round.stop = true;
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
                // `into_result` consumes the session; an empty one takes
                // its place, which nothing reaches: the loop ends.
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
            return Response::error("already the primary; refusing promotion");
        }
        // Seal the tail: an empty segment (nothing was ever replicated)
        // gets the Config header a primary's segment always starts with.
        if let Some(journal) = self.journal.as_mut() {
            if journal.records_in_segment() == 0 {
                if let Err(e) = journal.append(&self.replica.header()) {
                    let line = format!("lumos-serve: promotion failed to seal the journal: {e}");
                    self.round.log.push(line);
                    return Response::error(format!(
                        "journal write failed ({e}); refusing promotion"
                    ));
                }
            }
        }
        let now = self.replica.session.now();
        self.role = Role::Primary;
        self.sim_epoch = now.max(0);
        self.epoch = self.elapsed;
        let line = format!("lumos-serve: promoted to primary at t = {now}");
        self.round.log.push(line);
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
            return Response::error("this server is not a follower (start it with --follow)");
        };
        let Some(journal) = self.journal.as_mut() else {
            // Unreachable in practice: `--follow` requires a journal.
            return Response::error("follower has no journal");
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
                    return Response::error(format!(
                        "out-of-order segment marker {seq} (follower is at {})",
                        journal.seq()
                    ));
                }
                // Rotate with a locally synthesized snapshot: the
                // follower's state equals the primary's at this boundary
                // and both left their saved mark at the boundary before,
                // so the snapshot JSON — an increment, usually — is
                // byte-identical to the primary's too, unless a primary
                // rotation failed after opening its segment: then its
                // mark stays behind and its increments name an older
                // `prev` (both chains load to the same state).
                match self.replica.rotate(journal, false) {
                    Ok(()) => Response::ReplAck {
                        seq: journal.seq(),
                        offset: 0,
                    },
                    Err(e) => halt(&mut self.round, "follower rotation", &e),
                }
            }
            Request::ReplRecord { frame } => {
                // Re-verify the frame end to end before trusting it: the
                // CRC travelled from the primary's disk over the wire.
                let record = match decode_line(frame.as_bytes()) {
                    Ok(record) => record,
                    Err(e) => return Response::error(format!("bad replicated frame: {e}")),
                };
                // Mirror first (append-before-ack, exactly like a
                // primary), then apply through the recovery path.
                if let Err(e) = journal.append_raw_line(&frame) {
                    return halt(&mut self.round, "follower journal append", &e);
                }
                let mut warnings = Vec::new();
                self.replica.apply(record, &self.config, &mut warnings);
                for w in warnings {
                    let line = format!("lumos-serve: follower apply: {w}");
                    self.round.log.push(line);
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
            Role::Primary => self.link.as_deref().map(ReplLink::stats),
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

#[cfg(test)]
impl Core {
    /// What the core owns, to inspect or to serve another stream on.
    pub(crate) fn into_parts(self) -> (Replica, Option<Journal>) {
        (self.replica, self.journal)
    }
}
