//! Crash recovery: rebuilding a server from its journal directory.
//!
//! Recovery is deterministic replay. The journal holds every
//! state-mutating command the crashed server acknowledged (see
//! [`crate::journal`]); [`lumos_sim::SimSession`] is a pure function of
//! its command sequence; therefore loading the newest valid snapshot —
//! the complete state a server's first rotation wrote, with the
//! increments of its later rotations folded over it — and
//! replaying the segments after it reconstructs the pre-crash session —
//! and, because [`crate::metrics::LiveMetrics`] absorbs the replayed
//! events through the same code path the live server uses, the recovered
//! metrics are byte-identical too. The state and every way of changing
//! it live in one struct, `Replica`: a replayed submission goes through
//! the same `Replica::submit` as a live round's — the submission, then
//! its scheduling pass — so the two make the same session calls in the
//! same order, and round boundaries are invisible in the journal.
//!
//! Damage never aborts recovery, it only shrinks what is recovered:
//! a torn tail is truncated with a warning; an unreadable snapshot costs
//! the snapshots chained on it and falls back to the newest one that is
//! not (or to empty + full replay); segments after a
//! gap or a mid-history tear are quarantined (renamed `*.orphaned`) so
//! the journal stays linear.

use std::io;
use std::path::Path;
use std::sync::Arc;

use lumos_core::{CoreError, Job, JobStatus, SystemSpec, Timestamp};
use lumos_predict::{Predictor, PredictorConfig};
use lumos_sim::{
    SessionState, SimConfig, SimEvent, SimSession, StateDelta, Submission, TenantTable,
};
use serde::Deserialize;

use crate::journal::{self, Journal, JournalConfig, JournalRecord};
use crate::metrics::LiveMetrics;
use crate::protocol::SubmitSpec;
use crate::server::{Replication, ServeConfig};
use crate::store::{FileStore, Store};

/// What a rotation snapshot file (`snapshot-NNNNNN.json`) contains: the
/// machine, the session state — in full, or as an increment on an earlier
/// snapshot — the metrics accumulated so far, and the walltime predictor's
/// streaming state (absent when no predictor is enabled — and in
/// pre-predictor snapshots, which deserialize with `None`).
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    /// The machine being scheduled (partition geometry derives from it).
    pub system: SystemSpec,
    /// The scheduling state, complete or incremental.
    pub body: SnapshotBody,
    /// Streaming metrics at the moment of the snapshot.
    pub metrics: LiveMetrics,
    /// Walltime predictor state at the moment of the snapshot.
    pub predictor: Option<Predictor>,
}

/// The two shapes of a snapshot's scheduling state. A server writes a
/// base at its first rotation and increments from then on, so the
/// snapshots of a directory form a *chain*: following `prev` from any of
/// them ends at a base, and the base with the increments above it, oldest
/// first, is the complete state ([`SessionState::fold`]).
#[derive(Debug, Clone)]
pub enum SnapshotBody {
    /// `{system, state, metrics, predictor}`: the complete state.
    Base(SessionState),
    /// `{system, prev, delta, metrics, predictor}`: what changed since
    /// `snapshot-<prev>.json` was written.
    #[allow(missing_docs)]
    Delta { prev: u64, delta: StateDelta },
}

/// Both shapes as one document; [`read_snapshot`] sorts out which it is.
#[derive(Deserialize)]
struct SnapshotFile {
    system: SystemSpec,
    state: Option<SessionState>,
    prev: Option<u64>,
    delta: Option<StateDelta>,
    metrics: LiveMetrics,
    predictor: Option<Predictor>,
}

/// Serializes a rotation snapshot: the increment on the save `session`
/// was last marked at ([`SimSession::mark_saved`]), or the complete state
/// of a session never marked.
#[must_use]
pub fn snapshot_json(
    system: &SystemSpec,
    session: &SimSession,
    metrics: &LiveMetrics,
    predictor: Option<&Predictor>,
) -> String {
    // Field by field, so nothing but the state is copied to be written.
    let mut out = String::from("{\"system\":");
    serde_json::to_string_into(system, &mut out);
    match session.save_delta() {
        None => {
            out.push_str(",\"state\":");
            serde_json::to_string_into(&session.save_state(), &mut out);
        }
        Some((prev, delta)) => {
            out.push_str(",\"prev\":");
            serde_json::to_string_into(&prev, &mut out);
            out.push_str(",\"delta\":");
            serde_json::to_string_into(&delta, &mut out);
        }
    }
    out.push_str(",\"metrics\":");
    serde_json::to_string_into(metrics, &mut out);
    out.push_str(",\"predictor\":");
    serde_json::to_string_into(&predictor, &mut out);
    out.push('}');
    out
}

/// Reads and parses `snapshot-<seq>.json`.
///
/// # Errors
/// Says what is wrong with the file (`unreadable: …`, `corrupt: …`).
pub fn read_snapshot(dir: &Path, seq: u64) -> Result<ServerSnapshot, String> {
    read_snapshot_in(&FileStore::new(dir), seq)
}

/// [`read_snapshot`] from any store.
pub(crate) fn read_snapshot_in(store: &dyn Store, seq: u64) -> Result<ServerSnapshot, String> {
    let bytes = store
        .read(&journal::snapshot_name(seq))
        .map_err(|e| format!("unreadable: {e}"))?;
    let text = std::str::from_utf8(&bytes)
        .map_err(|_| "unreadable: stream did not contain valid UTF-8")?;
    let file: SnapshotFile = serde_json::from_str(text).map_err(|e| format!("corrupt: {e}"))?;
    let body = match (file.state, file.prev, file.delta) {
        (Some(state), None, None) => SnapshotBody::Base(state),
        (None, Some(prev), Some(delta)) if prev < seq => SnapshotBody::Delta { prev, delta },
        (None, Some(prev), Some(_)) => {
            return Err(format!(
                "corrupt: an increment on snapshot-{prev:06}.json, which is not older"
            ))
        }
        _ => return Err("corrupt: neither a complete state nor an increment".into()),
    };
    Ok(ServerSnapshot {
        system: file.system,
        body,
        metrics: file.metrics,
        predictor: file.predictor,
    })
}

/// The deterministic state a journal describes: what a rotation snapshot
/// stores, what replay rebuilds, and what the live scheduler owns. Live
/// rounds, journal replay and a follower applying shipped frames all
/// change it through the methods here, so the three cannot drift apart.
pub(crate) struct Replica {
    pub system: SystemSpec,
    pub session: SimSession,
    pub metrics: LiveMetrics,
    pub predictor: Option<Predictor>,
    /// True while nothing has been applied (no snapshot loaded, no
    /// mutation): the session still runs the CLI-provided configuration
    /// and a journaled `Config` header may adopt a different one.
    pub virgin: bool,
    /// The buffer [`Replica::absorb`] drains the session's events into.
    events: Vec<SimEvent>,
}

impl Replica {
    /// An empty replica under the CLI-provided configuration.
    pub fn fresh(serve: &ServeConfig) -> Self {
        Self::new(
            serve.system.clone(),
            serve.sim,
            serve.predictor,
            serve.tenants.clone(),
        )
    }

    fn new(
        system: SystemSpec,
        sim: SimConfig,
        predictor: Option<PredictorConfig>,
        tenants: Option<TenantTable>,
    ) -> Self {
        let metrics =
            LiveMetrics::new_with_tenants(sim.bsld_bound, tenants.as_ref().map(TenantTable::len));
        let mut session = match tenants {
            Some(table) => SimSession::new_with_tenants(&system, sim, table),
            None => SimSession::new(&system, sim),
        };
        // Sessions start at t = 0, not at the dawn of representable time.
        session.advance_to(0);
        Self {
            system,
            session,
            metrics,
            predictor: predictor.map(Predictor::new),
            virgin: true,
            events: Vec::new(),
        }
    }

    /// The rotation snapshot of this state.
    pub fn snapshot_json(&self) -> String {
        snapshot_json(
            &self.system,
            &self.session,
            &self.metrics,
            self.predictor.as_ref(),
        )
    }

    /// The `Config` header a segment written from this state starts with.
    pub fn header(&self) -> JournalRecord {
        JournalRecord::Config {
            system: self.system.clone(),
            sim: *self.session.config(),
            predictor: self.predictor.as_ref().map(Predictor::config),
            tenants: self.session.tenant_table().cloned(),
        }
    }

    /// The one rotation routine: snapshots this state — as an increment
    /// on the last snapshot that made it to disk, when there is one —
    /// rotates `journal`, and only then moves the session's saved mark. A
    /// primary's new segment starts with a header; a follower's header
    /// arrives from its primary.
    ///
    /// # Errors
    /// Whatever [`Journal::rotate`] reports. The mark stays where it was,
    /// so the next rotation's increment covers this span too and names a
    /// snapshot that exists.
    pub fn rotate(&mut self, journal: &mut Journal, with_header: bool) -> io::Result<()> {
        let snap = self.snapshot_json();
        if with_header {
            journal.rotate(&snap, &self.header())?;
        } else {
            journal.rotate_without_header(&snap)?;
        }
        self.session.mark_saved(journal.seq());
        Ok(())
    }

    /// Folds everything the session did since the last call into the
    /// metrics, in event order: how often it is called moves no byte.
    pub fn absorb(&mut self) {
        self.session.drain_events_into(&mut self.events);
        self.metrics.absorb(&self.events, &self.session);
    }

    /// The one submit path: submits `spec`, runs the scheduling pass of
    /// an arrival due now, and returns the record that journals it. A
    /// refused submission changes nothing and is never journaled.
    pub fn submit(&mut self, spec: SubmitSpec) -> Result<JournalRecord, CoreError> {
        let tenant = self.session.resolve_tenant(spec.tenant.as_deref())?;
        let now = self.session.now();
        let job = job_from_spec(&spec, now.max(0));
        let (user, runtime, submit) = (job.user, job.runtime, job.submit);
        // Predict before submitting, observe only on acceptance: refused
        // submissions are never journaled, so touching the predictor for
        // one would diverge from journal replay.
        let walltime = self
            .predictor
            .as_ref()
            .map(|p| p.predict(user, job.walltime));
        self.session.submit(Submission {
            job,
            tenant,
            walltime,
        })?;
        self.session.advance_to(now);
        if let Some(p) = self.predictor.as_mut() {
            p.observe(user, runtime);
        }
        Ok(JournalRecord::Submit {
            now,
            // Resolve the defaulted arrival time so replay does not
            // depend on the clock at replay time.
            job: SubmitSpec {
                submit: Some(submit),
                ..spec
            },
        })
    }

    /// Applies one journal record; returns 1 for a replayed mutation, 0
    /// for a header. Inconsistencies are warned about and skipped — a
    /// damaged journal degrades recovery, it never aborts it. Also the
    /// follower-side apply path: a replication follower feeds every
    /// shipped frame through this function, so following *is* continuous
    /// recovery.
    pub fn apply(
        &mut self,
        record: JournalRecord,
        serve: &ServeConfig,
        warnings: &mut Vec<String>,
    ) -> u64 {
        match record {
            JournalRecord::Config {
                system,
                sim,
                predictor,
                tenants,
            } => {
                let differs = system != self.system
                    || sim != *self.session.config()
                    || predictor != self.predictor.as_ref().map(Predictor::config)
                    || tenants.as_ref() != self.session.tenant_table();
                if differs && self.virgin {
                    // The journal was written under a different
                    // configuration than the CLI provided this time.
                    // Continuity wins: adopt the journaled configuration
                    // before replaying.
                    if system != serve.system
                        || sim != serve.sim
                        || predictor != serve.predictor
                        || tenants != serve.tenants
                    {
                        warnings.push(
                            "journal header differs from the configured system/policy; \
                             continuing the journaled configuration"
                                .into(),
                        );
                    }
                    *self = Self::new(system, sim, predictor, tenants);
                } else if differs {
                    warnings.push(
                        "mid-journal Config header disagrees with replayed state; ignoring it"
                            .into(),
                    );
                }
                return 0;
            }
            JournalRecord::Submit { now, job } => {
                self.session.advance_to(now);
                let id = job.id;
                if let Err(e) = self.submit(job) {
                    warnings.push(format!(
                        "replay: journaled submission of job {id} no longer applies ({e}); skipped"
                    ));
                }
            }
            JournalRecord::Cancel { now, id } => {
                self.session.advance_to(now);
                if !self.session.cancel(id) {
                    warnings.push(format!(
                        "replay: journaled cancellation of job {id} no longer applies; skipped"
                    ));
                }
            }
            JournalRecord::Advance { to } => self.session.advance_to(to),
        }
        self.virgin = false;
        self.absorb();
        1
    }
}

/// Builds the trace-shaped [`Job`] a [`SubmitSpec`] describes;
/// `now_floor` resolves a missing submit time.
fn job_from_spec(spec: &SubmitSpec, now_floor: Timestamp) -> Job {
    Job {
        id: spec.id,
        user: spec.user.unwrap_or(0),
        submit: spec.submit.unwrap_or(now_floor),
        wait: None,
        runtime: spec.runtime,
        walltime: spec.walltime,
        procs: spec.procs,
        nodes: u32::try_from(spec.procs).unwrap_or(u32::MAX),
        status: JobStatus::Passed,
        virtual_cluster: spec.virtual_cluster,
    }
}

/// Everything [`recover`] rebuilt.
#[derive(Debug)]
pub struct Recovered {
    /// The session, in its pre-crash state.
    pub session: SimSession,
    /// Metrics, byte-identical to the crashed server's.
    pub metrics: LiveMetrics,
    /// Walltime predictor, reconstructed to the crashed server's exact
    /// streaming state (snapshot + deterministic journal replay).
    pub predictor: Option<Predictor>,
    /// The system the recovered server schedules (the journal's view wins
    /// over the CLI's on mismatch).
    pub system: SystemSpec,
    /// The journal, open for appending where the crashed server stopped.
    pub journal: Journal,
    /// Human-readable warnings (torn tails, config drift, quarantined
    /// segments); empty for a clean recovery.
    pub warnings: Vec<String>,
    /// Mutating records replayed (excluding `Config` headers).
    pub replayed: u64,
    /// True when nothing was recovered (no snapshot loaded, no mutating
    /// record replayed): the session still runs the CLI-provided
    /// configuration and a journaled `Config` header may adopt a
    /// different one. A replication follower continues this flag across
    /// the frames it applies.
    pub virgin: bool,
}

impl Recovered {
    /// The recovered state as the scheduler owns it, and its journal.
    pub(crate) fn into_parts(self) -> (Replica, Journal) {
        let replica = Replica {
            system: self.system,
            session: self.session,
            metrics: self.metrics,
            predictor: self.predictor,
            virgin: self.virgin,
            events: Vec::new(),
        };
        (replica, self.journal)
    }
}

/// Recovers server state from `jc.dir`, creating a fresh journal when the
/// directory is empty. Never fails on *damaged* journal content — only on
/// real I/O errors.
///
/// A follower ([`Replication::Follow`]) leaves an empty segment without
/// its `Config` header, which the primary ships.
///
/// # Errors
/// Propagates filesystem errors (unreadable directory, failed truncate or
/// rename, failed segment open).
pub fn recover(serve: &ServeConfig, jc: &JournalConfig) -> io::Result<Recovered> {
    recover_in(Arc::new(FileStore::create(&jc.dir)?), serve, jc)
}

/// [`recover`] from any store holding `jc`'s journal.
pub(crate) fn recover_in(
    store: Arc<dyn Store>,
    serve: &ServeConfig,
    jc: &JournalConfig,
) -> io::Result<Recovered> {
    let (segments, snapshots) = journal::scan(&*store)?;

    // 1. The newest snapshot whose whole chain loads, else empty state.
    let (start, mut warnings) = newest_restorable(&*store, &snapshots);
    let (start_seq, mut replica) = start.unwrap_or_else(|| (0, Replica::fresh(serve)));
    if replica.system != serve.system {
        warnings.push(
            "journaled system differs from the configured one; continuing the journaled system"
                .into(),
        );
    }

    // 2. The contiguous run of segments from the snapshot on; anything
    //    after a gap is unusable history.
    let mut contiguous = Vec::new();
    let mut expected = start_seq;
    for &seq in segments.iter().filter(|&&s| s >= start_seq) {
        if seq != expected {
            warnings.push(format!(
                "segment gap: expected journal-{expected:06}.log, found journal-{seq:06}.log; \
                 quarantining later segments"
            ));
            break;
        }
        contiguous.push(seq);
        expected = seq + 1;
    }

    // 3. Replay, truncating a torn tail and stopping at mid-history tears.
    let mut replayed = 0u64;
    let mut active_seq = start_seq;
    let mut active_records = 0u64;
    let mut stop_after = None;
    for (i, &seq) in contiguous.iter().enumerate() {
        let name = journal::segment_name(seq);
        let seg = journal::parse_segment(&store.read(&name)?);
        if let Some(torn) = &seg.torn {
            warnings.push(format!(
                "{name}: torn record at byte {}: {}; truncating",
                torn.offset, torn.reason
            ));
            store.truncate(&name, torn.offset)?;
            if i + 1 < contiguous.len() {
                warnings.push(format!(
                    "journal-{seq:06}.log was torn mid-history; quarantining later segments"
                ));
                stop_after = Some(i);
            }
        }
        active_seq = seq;
        active_records = seg.records.len() as u64;
        for record in seg.records {
            replayed += replica.apply(record, serve, &mut warnings);
        }
        if stop_after.is_some() {
            break;
        }
    }

    // 4. Quarantine segments that can no longer be part of linear history.
    let mut quarantined = false;
    for &seq in segments.iter().filter(|&&s| s > active_seq) {
        let from = journal::segment_name(seq);
        let to = format!("{from}.orphaned");
        store.rename(&from, &to)?;
        quarantined = true;
        let to = jc.dir.join(to);
        warnings.push(format!("quarantined {from} as {}", to.display()));
    }
    if quarantined {
        // The renames must be durable: a crash must not resurrect an
        // orphaned segment under its original name, where a second
        // recovery would replay it as linear history.
        store.sync_dir()?;
    }

    // 5. Reopen the active segment for appending; a brand-new (or fully
    //    truncated) segment gets its Config header — except on a
    //    follower, whose journal mirrors the primary's bytes.
    let mut journal = Journal::open_in(store, jc.clone(), active_seq, active_records)?;
    let follower = matches!(serve.replication, Some(Replication::Follow(_)));
    if journal.records_in_segment() == 0 && !follower {
        journal.append(&replica.header())?;
    }

    Ok(Recovered {
        session: replica.session,
        metrics: replica.metrics,
        predictor: replica.predictor,
        system: replica.system,
        journal,
        warnings,
        replayed,
        virgin: replica.virgin,
    })
}

/// Step 1 of [`recover`]: the newest of the snapshots `seqs` (ascending,
/// as [`journal::scan_dir`] lists them) whose whole chain loads,
/// restored, and a warning for each newer one passed over.
fn newest_restorable(store: &dyn Store, seqs: &[u64]) -> (Option<(u64, Replica)>, Vec<String>) {
    let mut warnings = Vec::new();
    let mut broken: Vec<u64> = Vec::new();
    for &seq in seqs.iter().rev() {
        // A snapshot chained on a link already found broken needs no
        // second reading.
        if broken.contains(&seq) {
            continue;
        }
        match load_chain(store, seq) {
            Ok(loaded) => return (Some((seq, loaded)), warnings),
            Err(BrokenChain { what, through }) => {
                warnings.push(format!("{what}; falling back to an earlier snapshot"));
                broken = through;
            }
        }
    }
    (None, warnings)
}

/// The snapshot [`recover`] would start from among `snapshots` in `dir`
/// (`None`: none, a replay from the first segment), with the warnings it
/// would give. Reads the directory, writes nothing.
#[must_use]
pub fn starting_snapshot(dir: &Path, snapshots: &[u64]) -> (Option<u64>, Vec<String>) {
    let (start, warnings) = newest_restorable(&FileStore::new(dir), snapshots);
    (start.map(|(seq, _)| seq), warnings)
}

/// Why a snapshot cannot be restored from.
struct BrokenChain {
    /// What is wrong, naming the file.
    what: String,
    /// The snapshots known to share the fault: the one asked for down to
    /// the link that failed, newest first.
    through: Vec<u64>,
}

/// Restores from `snapshot-<seq>.json` and the chain it names: follows
/// `prev` down to a base, folds the increments over it oldest first, and
/// goes through [`SimSession::restore`]. The restored session is marked
/// saved at `seq`, where the server that wrote the chain left its mark,
/// so the next rotation continues the chain.
fn load_chain(store: &dyn Store, seq: u64) -> Result<Replica, BrokenChain> {
    let mut through = Vec::new();
    let mut deltas = Vec::new();
    // The machine, metrics and predictor are those of `seq` itself.
    let mut head = None;
    let mut at = seq;
    let state = loop {
        through.push(at);
        let snap = match read_snapshot_in(store, at) {
            Ok(snap) => snap,
            Err(what) if at == seq => {
                let what = format!("snapshot-{seq:06}.json: {what}");
                return Err(BrokenChain { what, through });
            }
            Err(what) => {
                let what = format!(
                    "snapshot-{seq:06}.json: its chain breaks at snapshot-{at:06}.json: {what}"
                );
                return Err(BrokenChain { what, through });
            }
        };
        head.get_or_insert((snap.system, snap.metrics, snap.predictor));
        match snap.body {
            SnapshotBody::Base(state) => break state,
            SnapshotBody::Delta { prev, delta } => {
                deltas.push(delta);
                at = prev;
            }
        }
    };
    let (system, metrics, predictor) = head.expect("the loop read `seq` first");
    let restored = state
        .fold(deltas.into_iter().rev())
        .and_then(|state| SimSession::restore(&system, state));
    match restored {
        Ok(mut session) => {
            session.mark_saved(seq);
            Ok(Replica {
                system,
                session,
                metrics,
                predictor,
                virgin: false,
                events: Vec::new(),
            })
        }
        // Which link does not fit is not known: only `seq` is ruled out.
        Err(e) => Err(BrokenChain {
            what: format!("snapshot-{seq:06}.json: inconsistent: {e}"),
            through: vec![seq],
        }),
    }
}
