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
//! the journal stays linear. What to cut and what to quarantine is found
//! by a read pass that writes nothing, which [`inspect`] runs too.

use std::io::{self, Write};
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
pub(crate) struct ServerSnapshot {
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
pub(crate) enum SnapshotBody {
    /// `{system, state, metrics, predictor}`: the complete state.
    Base(SessionState),
    /// `{system, prev, delta, metrics, predictor}`: what changed since
    /// `snapshot-<prev>.json` was written.
    #[allow(missing_docs)]
    Delta { prev: u64, delta: StateDelta },
}

/// Both shapes as one document; [`parse_snapshot`] sorts out which it is.
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
    let mut out = String::new();
    write_snapshot_json(&mut out, system, session, metrics, predictor);
    out
}

/// [`snapshot_json`] appended onto `out`, which a replica keeps from one
/// rotation to the next.
fn write_snapshot_json(
    out: &mut String,
    system: &SystemSpec,
    session: &SimSession,
    metrics: &LiveMetrics,
    predictor: Option<&Predictor>,
) {
    // Field by field, so nothing but the state is copied to be written.
    out.push_str("{\"system\":");
    serde_json::to_string_into(system, out);
    match session.save_delta() {
        None => {
            out.push_str(",\"state\":");
            serde_json::to_string_into(&session.save_state(), out);
        }
        Some((prev, delta)) => {
            out.push_str(",\"prev\":");
            serde_json::to_string_into(&prev, out);
            out.push_str(",\"delta\":");
            serde_json::to_string_into(&delta, out);
        }
    }
    out.push_str(",\"metrics\":");
    serde_json::to_string_into(metrics, out);
    out.push_str(",\"predictor\":");
    serde_json::to_string_into(&predictor, out);
    out.push('}');
}

/// Reads and parses `snapshot-<seq>.json`.
///
/// # Errors
/// Says what is wrong with the file (`unreadable: …`, `corrupt: …`).
pub(crate) fn read_snapshot_in(store: &dyn Store, seq: u64) -> Result<ServerSnapshot, String> {
    let bytes = store
        .read(&journal::snapshot_name(seq))
        .map_err(|e| format!("unreadable: {e}"))?;
    parse_snapshot(&bytes, seq)
}

/// Parses the bytes of `snapshot-<seq>.json`.
fn parse_snapshot(bytes: &[u8], seq: u64) -> Result<ServerSnapshot, String> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| "unreadable: stream did not contain valid UTF-8")?;
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
    /// The buffer [`Replica::rotate`] writes each snapshot into.
    snapshot: String,
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
            snapshot: String::new(),
        }
    }

    /// The rotation snapshot of this state, in a string of its own (a
    /// rotation writes it into the replica's buffer).
    #[cfg(test)]
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
    /// Whatever [`Journal::rotate_with`] reports. The mark stays where it was,
    /// so the next rotation's increment covers this span too and names a
    /// snapshot that exists.
    pub fn rotate(&mut self, journal: &mut Journal, with_header: bool) -> io::Result<()> {
        let header = with_header.then(|| self.header());
        self.snapshot.clear();
        write_snapshot_json(
            &mut self.snapshot,
            &self.system,
            &self.session,
            &self.metrics,
            self.predictor.as_ref(),
        );
        journal.rotate_with(&self.snapshot, header.as_ref())?;
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
    /// recovery. A header adopted on a virgin replica is a drift warning
    /// only against a `configured` server's configuration.
    pub fn apply(
        &mut self,
        record: JournalRecord,
        configured: Option<&ServeConfig>,
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
                    if configured.is_some_and(|serve| {
                        system != serve.system
                            || sim != serve.sim
                            || predictor != serve.predictor
                            || tenants != serve.tenants
                    }) {
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
            snapshot: String::new(),
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

/// What recovery's read pass found in a journal directory.
struct Reading {
    /// Every segment and snapshot in the directory, ascending.
    segments: Vec<u64>,
    snapshots: Vec<u64>,
    /// The snapshot replay starts from (`None`: from nothing), the state
    /// replay rebuilt, and how many mutating records it replayed.
    start: Option<u64>,
    replica: Replica,
    replayed: u64,
    /// The segment the journal continues, and its intact records.
    active: (u64, u64),
    /// The segment whose torn tail is cut, and the length it keeps.
    tear: Option<(u64, u64)>,
    /// The segments that are not linear history, to move aside.
    quarantine: Vec<u64>,
    warnings: Vec<String>,
    /// The intact records of each segment the pass replayed, by kind.
    tallies: Vec<(u64, Tally)>,
}

/// A segment's intact records by kind: config, submit, cancel, advance.
type Tally = [usize; 4];

/// `records` counted by kind.
fn tally(records: &[JournalRecord]) -> Tally {
    let mut counts = [0; 4];
    for record in records {
        counts[match record {
            JournalRecord::Config { .. } => 0,
            JournalRecord::Submit { .. } => 1,
            JournalRecord::Cancel { .. } => 2,
            JournalRecord::Advance { .. } => 3,
        }] += 1;
    }
    counts
}

/// Recovery's read pass over the directory `dir` in `store`, which writes
/// nothing: the newest snapshot whose chain restores, then each segment
/// of the contiguous run after it parsed and replayed in turn, one in
/// memory at a time, up to the first torn record. `configured` is the
/// configuration a server starts with; without one (an offline audit)
/// nothing is drift, and a first segment without its header replays on
/// the default machine.
fn read_pass(
    store: &dyn Store,
    dir: &Path,
    configured: Option<&ServeConfig>,
) -> io::Result<Reading> {
    let (segments, snapshots) = journal::scan(store)?;

    // 1. The newest snapshot whose whole chain loads, else empty state.
    let (restored, mut warnings) = newest_restorable(store, &snapshots);
    let start = restored.as_ref().map(|&(seq, _)| seq);
    let default = ServeConfig::new(SystemSpec::theta());
    let fresh = || (0, Replica::fresh(configured.unwrap_or(&default)));
    let (from, mut replica) = restored.unwrap_or_else(fresh);
    if configured.is_some_and(|serve| replica.system != serve.system) {
        warnings.push(
            "journaled system differs from the configured one; continuing the journaled system"
                .into(),
        );
    }

    // 2. The contiguous run of segments from the snapshot on; anything
    //    after a gap is unusable history.
    let (mut contiguous, mut expected) = (Vec::new(), from);
    for &seq in segments.iter().filter(|&&s| s >= from) {
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

    // 3. Replay, up to and including the first torn segment.
    let (mut replayed, mut active, mut tear) = (0, (from, 0), None);
    let mut tallies = Vec::new();
    for (i, &seq) in contiguous.iter().enumerate() {
        let name = journal::segment_name(seq);
        let seg = journal::parse_segment(&store.read(&name)?);
        if let Some(torn) = &seg.torn {
            warnings.push(format!(
                "{name}: torn record at byte {}: {}; recovery keeps the bytes before it",
                torn.offset, torn.reason
            ));
            if i + 1 < contiguous.len() {
                warnings.push(format!(
                    "journal-{seq:06}.log was torn mid-history; quarantining later segments"
                ));
            }
            tear = Some((seq, torn.offset));
        }
        active = (seq, seg.records.len() as u64);
        tallies.push((seq, tally(&seg.records)));
        for record in seg.records {
            replayed += replica.apply(record, configured, &mut warnings);
        }
        if tear.is_some() {
            break;
        }
    }

    // 4. Segments that can no longer be part of linear history.
    let quarantine: Vec<u64> = segments.iter().copied().filter(|&s| s > active.0).collect();
    for &seq in &quarantine {
        let from = journal::segment_name(seq);
        let to = dir.join(format!("{from}.orphaned"));
        warnings.push(format!("quarantined {from} as {}", to.display()));
    }
    Ok(Reading {
        segments,
        snapshots,
        start,
        replica,
        replayed,
        active,
        tear,
        quarantine,
        warnings,
        tallies,
    })
}

/// [`recover`] from any store holding `jc`'s journal: the read pass, then
/// the write pass, which does what the read pass found needed and opens
/// the journal where replay stopped.
pub(crate) fn recover_in(
    store: Arc<dyn Store>,
    serve: &ServeConfig,
    jc: &JournalConfig,
) -> io::Result<Recovered> {
    let reading = read_pass(&*store, &jc.dir, Some(serve))?;
    if let Some((seq, len)) = reading.tear {
        store.truncate(&journal::segment_name(seq), len)?;
    }
    for &seq in &reading.quarantine {
        let from = journal::segment_name(seq);
        store.rename(&from, &format!("{from}.orphaned"))?;
    }
    if !reading.quarantine.is_empty() {
        // The renames must be durable: a crash must not resurrect an
        // orphaned segment under its original name, where a second
        // recovery would replay it as linear history.
        store.sync_dir()?;
    }

    // Reopen the active segment for appending; a brand-new (or fully
    // truncated) segment gets its Config header — except on a follower,
    // whose journal mirrors the primary's bytes.
    let (replica, (seq, records)) = (reading.replica, reading.active);
    let mut journal = Journal::open_in(store, jc.clone(), seq, records)?;
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
        warnings: reading.warnings,
        replayed: reading.replayed,
        virgin: replica.virgin,
    })
}

/// `lumos journal inspect`: audits the journal directory `dir` with
/// recovery's read pass, writing nothing to it. On `out`, a line per
/// snapshot (shape, size, clock, rows), the snapshot recovery starts
/// from, a line per segment (records by kind; each record if `verbose`)
/// and the totals; on `err`, why a snapshot does not parse and
/// recovery's warnings. A segment the read pass replayed is listed from
/// its tally and read again only to list its records.
///
/// # Errors
/// An unreadable directory or segment, or a failed write to `out`/`err`.
pub fn inspect(
    dir: &Path,
    verbose: bool,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> io::Result<()> {
    inspect_in(&FileStore::new(dir), dir, verbose, out, err)
}

/// [`inspect`] of the directory `dir` in any store.
fn inspect_in(
    store: &dyn Store,
    dir: &Path,
    verbose: bool,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> io::Result<()> {
    let reading = read_pass(store, dir, None)?;
    let (segments, snapshots) = (&reading.segments, &reading.snapshots);
    if segments.is_empty() && snapshots.is_empty() {
        return writeln!(out, "{}: no journal segments or snapshots", dir.display());
    }
    for &seq in snapshots {
        let name = journal::snapshot_name(seq);
        let read = store.read(&name).map_err(|e| format!("unreadable: {e}"));
        let snap = read.and_then(|bytes| Ok((bytes.len(), parse_snapshot(&bytes, seq)?)));
        if let Err(what) = &snap {
            writeln!(err, "warning: {name}: {what}")?;
        }
        let Ok((bytes, snap)) = snap else { continue };
        let (shape, clock, states) = match &snap.body {
            SnapshotBody::Base(state) => ("base".to_string(), state.clock, &state.states),
            SnapshotBody::Delta { prev, delta } => (
                format!("delta on snapshot-{prev:06}"),
                delta.clock,
                &delta.states,
            ),
        };
        let live = states.iter().filter(|s| s.is_live()).count();
        let sealed = states.len() - live;
        writeln!(
            out,
            "{name}: {shape} ({bytes} bytes, t = {clock}, {sealed} sealed rows, {live} live rows)"
        )?;
    }
    for warning in &reading.warnings {
        writeln!(err, "warning: recovery: {warning}")?;
    }
    if !snapshots.is_empty() {
        let no_snapshot = || "no snapshot: it replays every segment".into();
        let start = reading
            .start
            .map_or_else(no_snapshot, journal::snapshot_name);
        writeln!(out, "recovery starts from {start}")?;
    }
    let mut total = 0;
    for &seq in segments {
        let name = journal::segment_name(seq);
        let tallied = reading.tallies.iter().find(|&&(s, _)| s == seq);
        let (counts, records) = match tallied {
            Some(&(_, counts)) if !verbose => (counts, Vec::new()),
            _ => {
                let records = journal::parse_segment(&store.read(&name)?).records;
                (tally(&records), records)
            }
        };
        let [config, submit, cancel, advance] = counts;
        let intact: usize = counts.iter().sum();
        writeln!(
            out,
            "{name}: {intact} records ({config} config, {submit} submit, {cancel} cancel, {advance} advance)"
        )?;
        if verbose {
            for record in &records {
                write_record(out, record)?;
            }
        }
        total += intact;
    }
    let torn = reading.tear.map_or("", |_| ", 1 torn");
    writeln!(
        out,
        "{}: {} segment(s), {} snapshot(s), {total} intact record(s){torn}",
        dir.display(),
        segments.len(),
        snapshots.len()
    )
}

/// One record as `journal inspect --verbose` lists it.
fn write_record(out: &mut dyn Write, record: &JournalRecord) -> io::Result<()> {
    match record {
        JournalRecord::Config {
            system,
            sim,
            predictor,
            tenants,
        } => {
            let predictor = predictor.map_or("off", |p| p.name());
            let count = tenants.as_ref().map_or(0, TenantTable::len);
            let (name, policy) = (&system.name, sim.policy);
            writeln!(
                out,
                "  config  system={name} policy={policy:?} predictor={predictor} tenants={count}"
            )?;
            for spec in tenants.iter().flat_map(TenantTable::iter) {
                let quota = spec.quota.map_or("unlimited".into(), |q| q.to_string());
                let (name, weight) = (&spec.name, spec.weight);
                writeln!(out, "    tenant  {name} weight={weight} quota={quota}")?;
            }
            Ok(())
        }
        JournalRecord::Submit { now, job } => {
            let (id, procs, tenant) = (job.id, job.procs, job.tenant.as_deref());
            let tenant = tenant.map_or(String::new(), |t| format!(" tenant={t}"));
            writeln!(out, "  submit  t={now} job={id} procs={procs}{tenant}")
        }
        JournalRecord::Cancel { now, id } => writeln!(out, "  cancel  t={now} job={id}"),
        JournalRecord::Advance { to } => writeln!(out, "  advance to={to}"),
    }
}

/// Step 1 of [`recover`]: the newest of the snapshots `seqs` (ascending,
/// as [`journal::scan`] lists them) whose whole chain loads,
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
                snapshot: String::new(),
            })
        }
        // Which link does not fit is not known: only `seq` is ruled out.
        Err(e) => Err(BrokenChain {
            what: format!("snapshot-{seq:06}.json: inconsistent: {e}"),
            through: vec![seq],
        }),
    }
}

#[cfg(test)]
mod tests {
    //! Recovery held to a reference. Each case serves a stream through
    //! the round machine of [`crate::server::testkit`], damages or crashes its
    //! journal directory, recovers, and compares what comes back with a
    //! plain [`SimSession`] replay of the records found on disk.

    use lumos_sim::JobState;
    use proptest::prelude::*;

    use super::*;
    use crate::core::fail_stop;
    use crate::journal::FsyncPolicy;
    use crate::journal::{crc32, encode_record, parse_segment, segment_name, snapshot_name};
    use crate::protocol::Request;
    use crate::server::testkit::{config, full_state, mixed_stream, recover, serve, serve_on};
    use crate::server::testkit::{submit, Client, Served};
    use crate::store::{At, Fault, MemStore, Op, Schedule};

    /// The job a journaled [`SubmitSpec`] describes, built as the server
    /// builds it.
    fn job_of(spec: &SubmitSpec, now_floor: Timestamp) -> Job {
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

    /// The reference recovered state is held to: `records` replayed
    /// straight into a session under `config`, as [`full_state`].
    fn replay_expected(config: &ServeConfig, records: &[JournalRecord]) -> String {
        let (system, sim) = (&config.system, config.sim);
        let tenants = config.tenants.clone();
        let mut metrics =
            LiveMetrics::new_with_tenants(sim.bsld_bound, tenants.as_ref().map(TenantTable::len));
        let mut session = match tenants {
            Some(table) => SimSession::new_with_tenants(system, sim, table),
            None => SimSession::new(system, sim),
        };
        session.advance_to(0);
        let mut predictor = config.predictor.map(Predictor::new);
        for record in records {
            match record {
                JournalRecord::Config { .. } => continue,
                JournalRecord::Submit { now, job } => {
                    session.advance_to(*now);
                    let tenant = session.resolve_tenant(job.tenant.as_deref());
                    let job = job_of(job, session.now().max(0));
                    let (user, runtime) = (job.user, job.runtime);
                    let walltime = predictor.as_ref().map(|p| p.predict(user, job.walltime));
                    let tenant = tenant.expect("a journaled tenant");
                    let submission = Submission {
                        job,
                        tenant,
                        walltime,
                    };
                    session.submit(submission).expect("a journaled submission");
                    session.advance_to(*now);
                    if let Some(p) = &mut predictor {
                        p.observe(user, runtime);
                    }
                }
                JournalRecord::Cancel { now, id } => {
                    session.advance_to(*now);
                    assert!(session.cancel(*id), "a journaled cancel");
                }
                JournalRecord::Advance { to } => session.advance_to(*to),
            }
            metrics.absorb(&session.drain_events(), &session);
        }
        full_state(&Replica {
            system: system.clone(),
            session,
            metrics,
            predictor,
            virgin: false,
            events: Vec::new(),
            snapshot: String::new(),
        })
    }

    /// Every intact record of `store`'s segments, oldest first.
    fn records_in(store: &MemStore) -> Vec<JournalRecord> {
        let segments = journal::scan(store).expect("scan").0;
        let read = |seq| parse_segment(&store.read(&segment_name(seq)).expect("segment"));
        segments
            .into_iter()
            .flat_map(|seq| read(seq).records)
            .collect()
    }

    /// The records among `records` that replay as a mutation.
    fn mutations(records: &[JournalRecord]) -> u64 {
        let mutation = |r: &&JournalRecord| !matches!(r, JournalRecord::Config { .. });
        records.iter().filter(mutation).count() as u64
    }

    /// Recovers `store` without a warning: the state, and how many
    /// records were replayed.
    fn clean(store: &MemStore, config: &ServeConfig) -> (String, u64) {
        let recovered = recover(store, config);
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
        let replayed = recovered.replayed;
        (full_state(&recovered.into_parts().0), replayed)
    }

    /// `stream` served lockstep on a fresh store.
    fn served(config: &ServeConfig, stream: Vec<Request>) -> (MemStore, Served) {
        let store = MemStore::default();
        let served = serve(config, &store, stream, Client::Lockstep);
        (store, served)
    }

    /// `journal inspect --verbose` of `store`: what it prints on stdout
    /// and on stderr. Requires that it wrote nothing, and that without
    /// `--verbose` it prints the same less the records, reading each
    /// segment the read pass replayed once instead of twice.
    fn inspected(store: &MemStore) -> (String, String) {
        let before = store.files();
        let dir = Path::new("in-memory");
        let run = |verbose| {
            let (mut out, mut err) = (Vec::new(), Vec::new());
            let reads = store.reads();
            inspect_in(store, dir, verbose, &mut out, &mut err).expect("inspect");
            let text = |bytes| String::from_utf8(bytes).expect("UTF-8");
            (text(out), text(err), store.reads() - reads)
        };
        let (out, err, reads) = run(true);
        let (brief, brief_err, brief_reads) = run(false);
        let listing: String = out
            .lines()
            .filter(|line| !line.starts_with("  "))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!((brief, brief_err), (listing, err.clone()));
        let replayed = read_pass(store, dir, None)
            .expect("read pass")
            .tallies
            .len();
        assert_eq!(reads - brief_reads, replayed as u64);
        assert!(store.files() == before, "inspect wrote to the directory");
        (out, err)
    }

    /// Requires `inspected` to say what `recovered` did: name the
    /// snapshot it started from, and print its warnings in its order.
    fn agrees((out, err): &(String, String), recovered: &Recovered) {
        let start = |line: &str| {
            let seq = line.strip_prefix("recovery starts from snapshot-")?;
            seq.strip_suffix(".json")?.parse().ok()
        };
        let named: Option<u64> = out.lines().find_map(start);
        let mark = recovered.session.save_delta().map(|(since, _)| since);
        assert_eq!(named, mark, "{out}");
        let warned = err
            .lines()
            .filter_map(|l| l.strip_prefix("warning: recovery: "));
        assert_eq!(warned.collect::<Vec<_>>(), recovered.warnings, "{err}");
    }

    #[test]
    fn recover_replays_a_full_log_byte_identically() {
        let config = config(0);
        let (store, live) = served(&config, mixed_stream());
        let records = records_in(&store);
        let (state, replayed) = clean(&store, &config);
        assert_eq!(replayed, mutations(&records));
        assert!(state == replay_expected(&config, &records));
        assert!(state == live.state);
    }

    #[test]
    fn rotation_bounds_replay_to_snapshot_plus_tail() {
        let config = config(5);
        let (store, live) = served(&config, mixed_stream());
        assert!(live.parts.1.seq() > 1, "rotation must have happened");
        let records = records_in(&store);
        let (state, replayed) = clean(&store, &config);
        // Only the newest snapshot's tail is replayed.
        assert!(replayed < mutations(&records) / 2);
        assert!(state == replay_expected(&config, &records));
    }

    /// Drops `,"key":null` pairs from serialized JSON — exactly what the
    /// same document looked like before the key existed at all (the
    /// vendored serde defaults missing `Option` fields to `None`).
    fn strip_keys(json: &str, keys: &[&str]) -> String {
        let mut out = json.to_string();
        for key in keys {
            out = out.replace(&format!(",\"{key}\":null"), "");
        }
        assert!(!out.contains("tenant"), "a tenancy key survived: {out}");
        out
    }

    /// [`config`] and [`mixed_stream`] as a server before tenancy ran them.
    fn untenanted() -> (ServeConfig, Vec<Request>) {
        let mut config = config(0);
        config.tenants = None;
        let stream = mixed_stream().into_iter().map(|req| match req {
            Request::Submit { mut job } => {
                job.tenant = None;
                Request::Submit { job }
            }
            req => req,
        });
        (config, stream.collect())
    }

    #[test]
    fn pre_tenancy_journals_still_recover() {
        let (config, stream) = untenanted();
        let (store, live) = served(&config, stream);
        // Each record re-framed as a pre-tenancy server wrote it: no
        // `tenants` key in `Config` headers, no `tenant` in submissions.
        let old_format: String = records_in(&store)
            .iter()
            .map(|record| {
                let json = serde_json::to_string(record).expect("records serialize");
                let json = strip_keys(&json, &["tenants", "tenant"]);
                format!("{} {:08x} {json}\n", json.len(), crc32(json.as_bytes()))
            })
            .collect();
        let old = MemStore::default();
        old.create_durable(&segment_name(0), old_format.as_bytes())
            .expect("write the segment");
        assert!(clean(&old, &config).0 == live.state);
    }

    #[test]
    fn pre_tenancy_snapshots_still_restore() {
        let (config, stream) = untenanted();
        let (_, live) = served(&config, stream);
        // No `tenants` / `tenant_of` in the session state, no
        // `tenant_waits` in the metrics.
        let keys = ["tenants", "tenant_of", "tenant_waits"];
        let old = MemStore::default();
        old.create_durable(
            &snapshot_name(1),
            strip_keys(&live.snapshot, &keys).as_bytes(),
        )
        .expect("write the snapshot");
        assert!(clean(&old, &config) == (live.state, 0), "snapshot only");
    }

    /// The harness on a real directory under `FsyncPolicy::Always`, which
    /// also syncs the directory when a segment is created, a rotation
    /// lands and a segment is quarantined. Returns the config, the
    /// journal it names, the live run and the directory; the caller
    /// removes the directory.
    fn served_on_disk(name: &str) -> (ServeConfig, JournalConfig, Served, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("lumos-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = config(5);
        let jc = config.journal.as_mut().expect("a journal");
        (jc.dir, jc.fsync) = (dir.clone(), FsyncPolicy::Always);
        let jc = jc.clone();
        let start = super::recover(&config, &jc).expect("recover").into_parts();
        let live = serve_on(&config, start, mixed_stream(), Client::Lockstep);
        assert!(live.parts.1.seq() > 1, "rotation must have happened");
        (config, jc, live, dir)
    }

    /// Every segment and snapshot the rotations made is on disk and
    /// recovers to the live state.
    #[test]
    fn rotation_under_fsync_always_recovers_byte_identically() {
        let (config, jc, live, dir) = served_on_disk("fsync");
        let last = live.parts.1.seq();
        let store = FileStore::new(&dir);
        let on_disk = |seq| store.exists(&segment_name(seq)) && store.exists(&snapshot_name(seq));
        assert!((1..=last).all(on_disk) && store.exists(&segment_name(0)));
        let recovered = super::recover(&config, &jc).expect("recover");
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
        assert!(full_state(&recovered.into_parts().0) == live.state);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment beyond a gap is renamed `*.log.orphaned` and stays so:
    /// a second recovery neither resurrects nor replays it.
    #[test]
    fn quarantined_segments_stay_orphaned_across_recoveries() {
        let (config, jc, live, dir) = served_on_disk("quarantine");
        let store = FileStore::new(&dir);
        // A segment with no predecessor: not linear history.
        let stray = segment_name(live.parts.1.seq() + 2);
        let copy = store.read(&segment_name(0)).expect("segment 0");
        store
            .create_durable(&stray, &copy)
            .expect("write the stray");
        let orphan = format!("{stray}.orphaned");
        let recovered = super::recover(&config, &jc).expect("recover");
        let quarantined = recovered.warnings.iter().any(|w| w.contains("quarantined"));
        assert!(quarantined, "{:?}", recovered.warnings);
        assert!(store.exists(&orphan) && !store.exists(&stray));
        assert!(full_state(&recovered.into_parts().0) == live.state);
        let again = super::recover(&config, &jc).expect("recover again");
        assert!(again.warnings.is_empty(), "{:?}", again.warnings);
        assert!(store.exists(&orphan), "orphan vanished on second recovery");
        assert!(full_state(&again.into_parts().0) == live.state);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The complete snapshot as it has always been derived: four keys in
    /// this order. What a session never marked saved must keep writing,
    /// byte for byte — older directories hold nothing else.
    #[derive(serde::Serialize)]
    struct CompleteSnapshot {
        system: SystemSpec,
        state: SessionState,
        metrics: LiveMetrics,
        predictor: Option<Predictor>,
    }

    #[test]
    fn a_session_never_marked_writes_the_complete_snapshot_as_before() {
        let (_, live) = served(&config(0), mixed_stream());
        let replica = live.parts.0;
        let derived = serde_json::to_string(&CompleteSnapshot {
            system: replica.system.clone(),
            state: replica.session.save_state(),
            metrics: replica.metrics.clone(),
            predictor: replica.predictor.clone(),
        });
        assert_eq!(live.snapshot, derived.expect("serializes"));
    }

    // ---- snapshot chains: a base and increments -------------------------

    /// A directory as a server left it that rotated every five records
    /// and, from rotation `first_mark` on, wrote increments, with the
    /// state it held when it stopped.
    struct Chained {
        config: ServeConfig,
        store: MemStore,
        state: String,
        /// The active segment: snapshots 1..=last exist.
        last: u64,
    }

    /// Serves [`mixed_stream`] lockstep; while the journal is short of
    /// rotation `first_mark`, the session forgets its saved mark after
    /// every round, as a server older than increments never set one.
    fn chained(first_mark: u64) -> Chained {
        let (config, store) = (config(5), MemStore::default());
        let (mut parts, mut state) = (recover(&store, &config).into_parts(), String::new());
        for req in mixed_stream() {
            let served = serve_on(&config, parts, vec![req], Client::Lockstep);
            (parts, state) = (served.parts, served.state);
            if parts.1.seq() < first_mark {
                let replica = &mut parts.0;
                let session = SimSession::restore(&replica.system, replica.session.save_state());
                replica.session = session.expect("restores");
            }
        }
        let last = parts.1.seq();
        assert!(last >= 5, "the stream rotates five times, got {last}");
        Chained {
            config,
            store,
            state,
            last,
        }
    }

    impl Chained {
        /// `Some(prev)` for an increment, `None` for a complete snapshot.
        fn prev_of(&self, seq: u64) -> Option<u64> {
            match read_snapshot_in(&self.store, seq).expect("read").body {
                SnapshotBody::Base(_) => None,
                SnapshotBody::Delta { prev, .. } => Some(prev),
            }
        }

        fn corrupt(&self, seq: u64) {
            let len = self.store.read(&snapshot_name(seq)).expect("read").len();
            let torn = self.store.truncate(&snapshot_name(seq), len as u64 / 2);
            torn.expect("tear the snapshot");
        }

        fn remove(&self, seq: u64) {
            let name = snapshot_name(seq);
            let moved = self.store.rename(&name, &format!("{name}.removed"));
            moved.expect("move the snapshot away");
        }

        /// Recovers and requires the never-crashed state, a start from
        /// snapshot `from` (0: from nothing) with exactly the segments
        /// after it replayed, the saved mark left there, and one warning
        /// per `warned` entry, holding it.
        fn recover_from(&self, from: u64, warned: &[&str]) {
            let recovered = recover(&self.store, &self.config);
            let warnings = &recovered.warnings;
            assert_eq!(warnings.len(), warned.len(), "{warnings:?}");
            for (warning, needle) in warnings.iter().zip(warned) {
                assert!(warning.contains(needle), "`{warning}` lacks `{needle}`");
            }
            let segment = |seq| self.store.read(&segment_name(seq)).expect("segment");
            let tail =
                (from..=self.last).map(|seq| mutations(&parse_segment(&segment(seq)).records));
            assert_eq!(recovered.replayed, tail.sum::<u64>());
            let mark = recovered.session.save_delta().map(|(since, _)| since);
            assert_eq!(mark, (from > 0).then_some(from));
            assert!(full_state(&recovered.into_parts().0) == self.state);
        }
    }

    #[test]
    fn a_chain_of_increments_recovers_from_its_newest_link() {
        let c = chained(1);
        assert_eq!(c.prev_of(1), None, "the first rotation writes the base");
        for seq in 2..=c.last {
            assert_eq!(c.prev_of(seq), Some(seq - 1));
        }
        c.recover_from(c.last, &[]);
    }

    #[test]
    fn a_corrupt_newest_increment_falls_back_one_link() {
        let c = chained(1);
        c.corrupt(c.last);
        let newest = format!("snapshot-{:06}.json: corrupt", c.last);
        c.recover_from(c.last - 1, &[&newest]);
    }

    #[test]
    fn a_corrupt_middle_increment_costs_every_snapshot_chained_on_it() {
        let c = chained(1);
        c.corrupt(3);
        // One warning: the snapshots between the newest and the broken
        // link are known to chain through it and are not read again.
        let broken = format!(
            "snapshot-{:06}.json: its chain breaks at snapshot-000003.json: corrupt",
            c.last
        );
        c.recover_from(2, &[&broken]);
    }

    #[test]
    fn a_missing_link_costs_every_snapshot_chained_on_it() {
        let c = chained(1);
        c.remove(2);
        c.recover_from(1, &["breaks at snapshot-000002.json: unreadable"]);
    }

    #[test]
    fn a_missing_base_costs_the_whole_chain_and_replays_from_nothing() {
        let c = chained(1);
        c.remove(1);
        c.recover_from(0, &["breaks at snapshot-000001.json: unreadable"]);
    }

    /// A directory begun by a server that wrote a complete snapshot at
    /// every rotation and continued by one that writes increments: the
    /// last complete snapshot is the chain's base.
    #[test]
    fn complete_snapshots_continued_with_increments_recover() {
        let c = chained(3);
        let prevs: Vec<Option<u64>> = (1..=4).map(|seq| c.prev_of(seq)).collect();
        assert_eq!(prevs, [None, None, None, Some(3)]);
        // Damage below the base the chain ends on is never read.
        c.corrupt(2);
        c.recover_from(c.last, &[]);
    }

    /// A segment past a gap is not linear history: inspect warns of the
    /// gap and the quarantine, as the recovery after it does.
    #[test]
    fn inspect_warns_of_a_segment_gap() {
        let c = chained(1);
        let copy = c.store.read(&segment_name(1)).expect("segment 1");
        let stray = segment_name(c.last + 2);
        c.store.create_durable(&stray, &copy).expect("a stray");
        let inspected = inspected(&c.store);
        let gap = format!("expected {}, found {stray}", segment_name(c.last + 1));
        assert!(inspected.1.contains(&gap), "{}", inspected.1);
        assert!(inspected.1.contains(&format!("quarantined {stray}")));
        let recovered = recover(&c.store, &c.config);
        agrees(&inspected, &recovered);
        assert!(full_state(&recovered.into_parts().0) == c.state);
    }

    /// A torn record in a segment below the snapshot recovery starts from
    /// is never read, so inspect does not warn of it either.
    #[test]
    fn inspect_passes_over_a_tear_before_the_starting_snapshot() {
        let c = chained(1);
        let (mut segment, _) = c.store.append(&segment_name(0)).expect("open");
        segment
            .write(b"137 deadbeef {\"Submit\":{\"now\":9")
            .expect("tear");
        let inspected = inspected(&c.store);
        assert!(!inspected.0.contains("torn") && inspected.1.is_empty());
        let recovered = recover(&c.store, &c.config);
        agrees(&inspected, &recovered);
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
    }

    /// An increment that parses, names a snapshot that exists and
    /// continues its table length and violations, but drops a row: it
    /// does not fold. Inspect and recovery both pass it over for the
    /// snapshot below it, with the same warning.
    #[test]
    fn inspect_and_recovery_start_from_the_same_snapshot() {
        let c = chained(1);
        let snap = read_snapshot_in(&c.store, c.last).expect("read the newest snapshot");
        let SnapshotBody::Delta { prev, mut delta } = snap.body else {
            panic!("snapshot {} is not an increment", c.last);
        };
        delta.rows.remove(0);
        delta.jobs.remove(0);
        delta.states.remove(0);
        delta.plan_wall.remove(0);
        delta.promised.remove(0);
        fn json<T: serde::Serialize>(value: &T) -> String {
            serde_json::to_string(value).expect("serializes")
        }
        let text = format!(
            r#"{{"system":{},"prev":{prev},"delta":{},"metrics":{},"predictor":{}}}"#,
            json(&snap.system),
            json(&delta),
            json(&snap.metrics),
            json(&snap.predictor)
        );
        let name = snapshot_name(c.last);
        c.store
            .create_durable(&name, text.as_bytes())
            .expect("rewrite");
        let inspected = inspected(&c.store);
        c.recover_from(c.last - 1, &[&format!("{name}: inconsistent")]);
        // That recovery repaired nothing, so the next one does the same.
        agrees(&inspected, &recover(&c.store, &c.config));
    }

    /// What increments are for, as a count: on a steady stream a snapshot
    /// holds the live set and one segment's worth of history, so the
    /// twelfth is about the size of the fourth. (Complete snapshots grow
    /// with every rotation: the twelfth would be some three times the
    /// fourth.)
    #[test]
    fn increments_stay_flat_on_a_steady_stream() {
        let config = config(40);
        let mut stream = Vec::new();
        for i in 0..12 * 40 {
            stream.push(submit(i, 1 + i % 4, 10 + (i % 7) as i64 * 5, None, "free"));
            if i % 2 == 1 {
                stream.push(Request::Advance { to: i as i64 * 10 });
            }
        }
        let (store, live) = served(&config, stream);
        assert!(live.parts.1.seq() >= 12, "{}", live.parts.1.seq());
        let size = |seq| store.read(&snapshot_name(seq)).expect("snapshot").len();
        let (fourth, twelfth) = (size(4), size(12));
        assert!(twelfth * 2 <= fourth * 3, "{fourth} then {twelfth} bytes");
        assert!(clean(&store, &config).0 == live.state);
    }

    /// A write torn mid-record stops the server; the restart cuts the
    /// torn frame off with a warning, keeps every command acknowledged
    /// before it, and leaves a segment the next restart finds clean.
    #[test]
    fn torn_tail_is_truncated_with_a_warning() {
        let config = config(0);
        let torn = Schedule {
            faults: vec![(At::Of(Op::Write, 20), Fault::Torn(37))],
            power_loss: false,
        };
        let store = MemStore::new(torn);
        let replies = serve(&config, &store, mixed_stream(), Client::Lockstep).replies;
        let stopped = fail_stop(&MemStore::error(Op::Write)).to_line();
        assert_eq!(replies.last().expect("replies").0, stopped);
        // The uninterrupted run of every command before the torn one.
        let acknowledged = mixed_stream()[..replies.len() - 1].to_vec();
        let (reference, live) = served(&config, acknowledged);

        let store = store.restart();
        let recovered = recover(&store, &config);
        let [warning] = &recovered.warnings[..] else {
            panic!("{:?}", recovered.warnings);
        };
        assert!(warning.contains("torn record at byte"), "{warning}");
        assert_eq!(recovered.replayed, mutations(&records_in(&reference)));
        assert!(full_state(&recovered.into_parts().0) == live.state);
        assert!(clean(&store, &config).0 == live.state);
    }

    /// A server restarted under wall-clock time resumes its clock from
    /// the journaled time, not from zero.
    #[test]
    fn recovered_wall_clock_resumes_from_journaled_time() {
        let (virtual_time, store) = (config(0), MemStore::default());
        let advance = vec![Request::Advance { to: 100_000 }];
        serve(&virtual_time, &store, advance, Client::Lockstep);
        let mut clocked = virtual_time;
        clocked.time_scale = 1000.0;
        let recovered = recover(&store.restart(), &clocked);
        assert_eq!(recovered.session.now(), 100_000);
        // The submission is round 0, at elapsed 0; the query is round 1,
        // at TICK (10 ms): 10 simulated seconds later, which finishes the
        // 1 s job unless the clock restarted from zero.
        let stream = vec![submit(1, 1, 1, None, "free"), Request::Query { id: 1 }];
        let served = serve_on(&clocked, recovered.into_parts(), stream, Client::Lockstep);
        assert!(
            served.replies[1].0.contains("Finished"),
            "{:?}",
            served.replies
        );
    }

    /// Truncating the segment recovers exactly the records wholly before
    /// the cut, warns unless the cut lies on a record boundary (both
    /// worked out from the frames' lengths, not by the parser), and
    /// repairs the file so a second recovery is clean. Each record is cut
    /// at its start, in its middle, and one byte short: a frame that
    /// lacks only its newline.
    #[test]
    fn any_truncation_point_recovers_the_intact_prefix() {
        let config = config(0);
        let (store, _) = served(&config, mixed_stream());
        let records = records_in(&store);
        let lines: Vec<String> = records.iter().map(encode_record).collect();
        let full = store.read(&segment_name(0)).expect("segment");
        assert!(
            lines.concat().as_bytes() == full,
            "records re-frame to the segment"
        );
        let check = |cut: usize, whole: usize, on_boundary: bool| {
            let store = MemStore::default();
            store
                .create_durable(&segment_name(0), &full[..cut])
                .expect("write");
            let recovered = recover(&store, &config);
            assert_eq!(recovered.warnings.is_empty(), on_boundary, "cut {cut}");
            assert_eq!(
                recovered.replayed,
                mutations(&records[..whole]),
                "cut {cut}"
            );
            let state = full_state(&recovered.into_parts().0);
            assert!(
                state == replay_expected(&config, &records[..whole]),
                "cut {cut}"
            );
            // The tear was truncated away: recovery is now warning-free.
            assert!(clean(&store, &config).0 == state, "cut {cut}");
        };
        let mut start = 0;
        for (whole, line) in lines.iter().enumerate() {
            check(start, whole, true);
            check(start + line.len() / 2, whole, false);
            check(start + line.len() - 1, whole, false);
            start += line.len();
        }
        check(start, lines.len(), true);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Appending records in *batches* (group commit) writes byte for
        /// byte the same segment as appending them one at a time, for any
        /// partition of the stream into batches — recovery and
        /// replication cannot tell a batched journal from an unbatched one.
        #[test]
        fn group_commit_batches_are_byte_identical(
            sizes in proptest::collection::vec(1usize..8, 1..24),
        ) {
            let records = records_in(&served(&config(0), mixed_stream()).0);
            let segment = |sizes: &[usize]| {
                let store = MemStore::default();
                let jc = config(0).journal.expect("a journal");
                let mut journal = Journal::open_in(Arc::new(store.clone()), jc, 0, 0).unwrap();
                let mut rest = &records[..];
                for &take in sizes.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (batch, tail) = rest.split_at(take.min(rest.len()));
                    journal.append_batch(batch).expect("append a batch");
                    rest = tail;
                }
                store.read(&segment_name(0)).expect("segment")
            };
            prop_assert_eq!(segment(&[1]), segment(&sizes));
        }

        /// Flipping any byte of any record is caught by the checksum (or
        /// the framing): recovery keeps every record before the damaged
        /// one and never panics.
        #[test]
        fn any_single_byte_corruption_is_detected(
            pos_fraction in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let config = config(0);
            let (store, _) = served(&config, mixed_stream());
            let records = records_in(&store);
            let mut bytes = store.read(&segment_name(0)).expect("segment");
            let pos = ((bytes.len() - 1) as f64 * pos_fraction) as usize;
            bytes[pos] ^= flip;
            // The damaged byte's record: one per newline before it.
            let damaged = bytes[..pos].iter().filter(|&&b| b == b'\n').count();
            let store = MemStore::default();
            store.create_durable(&segment_name(0), &bytes).expect("write");

            let recovered = recover(&store, &config);
            prop_assert!(!recovered.warnings.is_empty(), "corruption went unnoticed");
            // Everything before the damaged record survives; the damaged
            // one and anything after it is gone (the tear truncates it).
            prop_assert_eq!(recovered.replayed, mutations(&records[..damaged]));
            let state = full_state(&recovered.into_parts().0);
            prop_assert!(state == replay_expected(&config, &records[..damaged]));
        }
    }

    // ---- seeded fault schedules ------------------------------------------

    /// Schedules the property runs: a release build runs the full count.
    const SCHEDULES: u64 = if cfg!(debug_assertions) { 512 } else { 4096 };

    /// One run of the round machine under a fault schedule.
    struct Case {
        stream: Vec<Request>,
        fsync: FsyncPolicy,
        snapshot_every: u64,
        client: Client,
        schedule: Schedule,
    }

    impl Case {
        /// The case seed `seed` draws: submissions (some of them refused),
        /// cancels, advances and reads on [`config`]'s machine, and one to
        /// three faults, each on the n-th store operation or on the n-th
        /// of one kind.
        fn draw(seed: u64) -> Self {
            let mut rng = lumos_stats::Rng::new(seed);
            let mut stream = Vec::new();
            let mut now = 0;
            for id in 0..8 + rng.next_below(40) {
                stream.push(match rng.next_below(10) {
                    0..=5 => {
                        let (procs, runtime) = (1 + rng.next_below(9), rng.next_below(200));
                        let tenant = ["free", "capped"][rng.index(2)];
                        submit(id, procs, runtime as i64, None, tenant)
                    }
                    6 => Request::Cancel {
                        id: rng.next_below(id + 1),
                    },
                    7 => {
                        now += rng.next_below(100) as i64;
                        Request::Advance { to: now }
                    }
                    8 => Request::Query {
                        id: rng.next_below(id + 1),
                    },
                    _ => Request::Stats,
                });
            }
            let kinds = [
                Op::Open,
                Op::Create,
                Op::Rename,
                Op::SyncDir,
                Op::Write,
                Op::Sync,
            ];
            let ops = stream.len() as u64;
            let faults = (0..1 + rng.next_below(3))
                .map(|_| {
                    let at = match rng.chance(0.5) {
                        true => At::Nth(rng.next_below(ops)),
                        false => At::Of(kinds[rng.index(kinds.len())], rng.next_below(4)),
                    };
                    let fault = match rng.next_below(3) {
                        0 => Fault::Fail,
                        1 => Fault::Torn(rng.next_u64()),
                        _ => Fault::Crash,
                    };
                    (at, fault)
                })
                .collect();
            let fsync = match rng.next_below(3) {
                0 => FsyncPolicy::Always,
                1 => FsyncPolicy::Never,
                // Every round to every fourth, on the harness's clock.
                _ => FsyncPolicy::Interval(rng.next_below(40)),
            };
            Self {
                stream,
                fsync,
                snapshot_every: [0, 3, 7][rng.index(3)],
                client: [Client::Lockstep, Client::Pipelined][rng.index(2)],
                schedule: Schedule {
                    faults,
                    power_loss: rng.chance(0.5),
                },
            }
        }

        /// Serves the stream until it ends or a fault stops the server,
        /// restarts on the files as the crash left them, and checks the
        /// five promises of recovery, and a sixth of `journal inspect`.
        fn check(&self) {
            let mut config = config(self.snapshot_every);
            let jc = config.journal.as_mut().expect("a journal");
            jc.fsync = self.fsync;
            let jc = jc.clone();
            let store = MemStore::new(self.schedule.clone());
            // A fault in the first recovery keeps the server from starting.
            let replies = match recover_in(Arc::new(store.clone()), &config, &jc) {
                Ok(start) => {
                    let stream = self.stream.clone();
                    serve_on(&config, start.into_parts(), stream, self.client).replies
                }
                Err(_) => Vec::new(),
            };
            let store = store.restart();
            // By the parser, which the truncation test pins on its own.
            let segments = journal::scan(&store).expect("scan").0;
            let torn = segments.iter().any(|&seq| {
                let bytes = store.read(&segment_name(seq)).expect("segment");
                parse_segment(&bytes).torn.is_some()
            });

            // 1. Recovery succeeds, whatever the files hold, and 4. warns
            // exactly when a segment ends mid-record; 6. inspect, run
            // first, names the snapshot it starts from and its warnings.
            let inspected = inspected(&store);
            let recovered = recover(&store, &config);
            let warned = !recovered.warnings.is_empty();
            assert_eq!(warned, torn, "{:?}", recovered.warnings);
            agrees(&inspected, &recovered);
            let replica = recovered.into_parts().0;
            // 2. What a reply acknowledged survives; a power loss keeps
            // that promise only for a journal synced every round.
            if !self.schedule.power_loss || self.fsync == FsyncPolicy::Always {
                for (req, (reply, _)) in self.stream.iter().zip(&replies) {
                    assert!(holds(&replica.session, req, reply), "{reply} was lost");
                }
            }
            // 3. The state is the reference replay of the records found.
            let state = full_state(&replica);
            assert!(state == replay_expected(&config, &records_in(&store)));
            // 5. A second recovery warns of nothing and changes nothing.
            assert!(clean(&store, &config).0 == state);
        }
    }

    /// Whether `session` holds what `reply` acknowledged of `req`.
    fn holds(session: &SimSession, req: &Request, reply: &str) -> bool {
        match req {
            Request::Submit { job } if reply.starts_with(r#"{"Submitted""#) => {
                session.row_of(job.id).is_some()
            }
            Request::Cancel { id } if reply.contains(r#""ok":true"#) => {
                session.query(*id) == Some(JobState::Cancelled)
            }
            Request::Advance { to } if reply.starts_with(r#"{"Advanced""#) => session.now() >= *to,
            _ => true,
        }
    }

    /// Recovery keeps its five promises under every schedule drawn.
    #[test]
    fn seeded_fault_schedules_keep_every_acknowledged_command() {
        for seed in 0..SCHEDULES {
            let checked = std::panic::catch_unwind(|| Case::draw(seed).check());
            assert!(checked.is_ok(), "replay with `Case::draw({seed}).check()`");
        }
    }

    /// The rotation that loses acknowledged commands when the snapshot is
    /// written before the segment: the old segment's sync fails for the
    /// first rotation and its first retry, the snapshot's temp file for
    /// the three retries after, and the process dies at the next one.
    /// Written snapshot first, the first retry's snapshot would stand
    /// behind every record the later rounds appended to the old segment.
    #[test]
    fn a_rotation_that_fails_after_its_snapshot_landed_loses_nothing() {
        let mut faults: Vec<(At, Fault)> =
            (0..2).map(|n| (At::Of(Op::Sync, n), Fault::Fail)).collect();
        faults.extend((2..5).map(|n| (At::Of(Op::Create, n), Fault::Fail)));
        faults.push((At::Of(Op::Create, 5), Fault::Crash));
        Case {
            stream: mixed_stream(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 7,
            client: Client::Lockstep,
            schedule: Schedule {
                faults,
                power_loss: false,
            },
        }
        .check();
    }
}
