//! In-process recovery tests: `recover()` must rebuild byte-identical
//! state from a journal, rotation must bound what is replayed, and — the
//! property tests — *any* truncation point and *any* single-byte
//! corruption must be survived with the intact prefix recovered and a
//! warning raised, never a panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use lumos_core::{Job, JobStatus, SystemSpec, Timestamp};
use lumos_serve::journal::{encode_record, read_segment, segment_path, snapshot_path};
use lumos_serve::recovery::{read_snapshot, snapshot_json, SnapshotBody};
use lumos_serve::{
    recover, FsyncPolicy, Journal, JournalConfig, JournalRecord, LiveMetrics, ServeConfig,
    SubmitSpec,
};
use lumos_sim::{SimConfig, SimSession};
use proptest::prelude::*;

fn tiny_system(capacity: u64) -> SystemSpec {
    let mut s = SystemSpec::theta();
    s.name = "journal-test".into();
    s.total_nodes = capacity as u32;
    s.units_per_node = 1;
    s.total_units = capacity;
    s
}

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lumos-journal-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create dir");
    dir
}

/// A deterministic record stream: a config header, then submissions that
/// fill and queue a 100-unit machine, periodic advances, and a cancel.
/// Every optional field is explicit, mirroring what the live server
/// journals.
fn fixture_records(system: &SystemSpec, sim: SimConfig) -> Vec<JournalRecord> {
    let mut records = vec![JournalRecord::Config {
        system: system.clone(),
        sim,
        predictor: None,
        tenants: None,
    }];
    for i in 0..20u64 {
        let t = i as i64 * 13;
        let (procs, runtime) = if i % 4 == 0 {
            (100, 300)
        } else {
            (1 + (i % 5), 120 + i as i64 * 9)
        };
        records.push(JournalRecord::Submit {
            now: t,
            job: SubmitSpec {
                id: i,
                procs,
                runtime,
                walltime: Some(runtime + 100),
                user: Some((i % 3) as u32),
                submit: Some(t),
                virtual_cluster: None,
                tenant: None,
            },
        });
        if i % 6 == 5 {
            records.push(JournalRecord::Advance { to: t });
        }
    }
    records.push(JournalRecord::Cancel { now: 250, id: 16 });
    records.push(JournalRecord::Advance { to: 400 });
    records
}

/// The job a journaled [`SubmitSpec`] describes (mirrors the server's
/// construction; the fixture always sets `submit`, so `now_floor` is 0).
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

/// Replays records directly through a session — the ground truth recovery
/// must match.
fn replay_expected(
    records: &[JournalRecord],
    system: &SystemSpec,
    sim: SimConfig,
) -> (SimSession, LiveMetrics) {
    let mut session = SimSession::new(system, sim);
    session.advance_to(0);
    let mut metrics = LiveMetrics::new(sim.bsld_bound);
    for record in records {
        match record {
            JournalRecord::Config { .. } => continue,
            JournalRecord::Submit { now, job } => {
                session.advance_to(*now);
                session
                    .submit(job_of(job, session.now().max(0)))
                    .expect("fixture submissions are valid");
                session.advance_to(session.now());
            }
            JournalRecord::Cancel { now, id } => {
                session.advance_to(*now);
                let _ = session.cancel(*id);
            }
            JournalRecord::Advance { to } => session.advance_to(*to),
        }
        let events = session.drain_events();
        metrics.absorb(&events, &session);
    }
    (session, metrics)
}

fn serve_config(system: &SystemSpec, sim: SimConfig) -> ServeConfig {
    let mut config = ServeConfig::new(system.clone());
    config.sim = sim;
    config
}

/// Writes `records` as one journal segment and returns its path.
fn write_segment(dir: &Path, records: &[JournalRecord]) -> PathBuf {
    let mut jc = JournalConfig::new(dir.to_path_buf());
    jc.fsync = FsyncPolicy::Never;
    jc.snapshot_every = 0;
    let mut journal = Journal::open_segment(jc, 0, 0).expect("open segment");
    for record in records {
        journal.append(record).expect("append");
    }
    segment_path(dir, 0)
}

/// The live path with rotation: appends each record, applies it, and
/// once the segment holds `jc.snapshot_every` records rotates the way
/// the server does — snapshot, rotate, and the session's saved mark,
/// which is what makes the *next* snapshot an increment. `marks(seq)`
/// says whether the mark follows rotation `seq`; a server older than
/// increments never set one and wrote a complete snapshot every time.
/// Returns the live end state and the last segment's number.
fn serve_with_rotation(
    jc: &JournalConfig,
    system: &SystemSpec,
    sim: SimConfig,
    records: &[JournalRecord],
    marks: impl Fn(u64) -> bool,
) -> (SimSession, LiveMetrics, u64) {
    let mut journal = Journal::open_segment(jc.clone(), 0, 0).expect("open");
    let mut session = SimSession::new(system, sim);
    session.advance_to(0);
    let mut metrics = LiveMetrics::new(sim.bsld_bound);
    for record in records {
        journal.append(record).expect("append");
        // Apply, so each rotation snapshots the state *after* the record.
        match record {
            JournalRecord::Config { .. } => continue,
            JournalRecord::Submit { now, job } => {
                session.advance_to(*now);
                session.submit(job_of(job, session.now().max(0))).unwrap();
                session.advance_to(session.now());
            }
            JournalRecord::Cancel { now, id } => {
                session.advance_to(*now);
                let _ = session.cancel(*id);
            }
            JournalRecord::Advance { to } => session.advance_to(*to),
        }
        let events = session.drain_events();
        metrics.absorb(&events, &session);
        if journal.wants_rotation() {
            let snap = snapshot_json(system, &session, &metrics, None);
            let header = JournalRecord::Config {
                system: system.clone(),
                sim,
                predictor: None,
                tenants: None,
            };
            journal.rotate(&snap, &header).expect("rotate");
            if marks(journal.seq()) {
                session.mark_saved(journal.seq());
            }
        }
    }
    (session, metrics, journal.seq())
}

#[test]
fn recover_replays_a_full_log_byte_identically() {
    let system = tiny_system(100);
    let sim = SimConfig::default();
    let records = fixture_records(&system, sim);
    let dir = fresh_dir("full");
    write_segment(&dir, &records);

    let jc = JournalConfig::new(dir.clone());
    let recovered = recover(&serve_config(&system, sim), &jc).expect("recover");
    assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
    assert_eq!(recovered.replayed, (records.len() - 1) as u64);

    let (expected_session, expected_metrics) = replay_expected(&records, &system, sim);
    assert_eq!(
        recovered.session.save_state(),
        expected_session.save_state()
    );
    assert_eq!(
        serde_json::to_string(&recovered.metrics).unwrap(),
        serde_json::to_string(&expected_metrics).unwrap(),
        "recovered metrics must be byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rotation_bounds_replay_to_snapshot_plus_tail() {
    let system = tiny_system(100);
    let sim = SimConfig::default();
    let records = fixture_records(&system, sim);
    let dir = fresh_dir("rotate");

    // Live path: append with rotation every 5 records, every snapshot
    // a complete one.
    let mut jc = JournalConfig::new(dir.clone());
    jc.fsync = FsyncPolicy::Never;
    jc.snapshot_every = 5;
    let (_, _, final_seq) = serve_with_rotation(&jc, &system, sim, &records, |_| false);
    assert!(final_seq > 1, "rotation must have happened");

    let recovered = recover(&serve_config(&system, sim), &jc).expect("recover");
    assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
    // Bounded: only the newest snapshot's tail is replayed, not all
    // records.
    assert!(
        recovered.replayed < (records.len() - 1) as u64,
        "replayed {} of {} — snapshot did not bound recovery",
        recovered.replayed,
        records.len() - 1
    );
    let (expected_session, expected_metrics) = replay_expected(&records, &system, sim);
    assert_eq!(
        recovered.session.save_state(),
        expected_session.save_state()
    );
    assert_eq!(
        serde_json::to_string(&recovered.metrics).unwrap(),
        serde_json::to_string(&expected_metrics).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Drops `,"key":null` pairs from serialized JSON — exactly what the
/// same document looked like before the key existed at all (the vendored
/// serde defaults missing `Option` fields to `None`).
fn strip_keys(json: &str, keys: &[&str]) -> String {
    let mut out = json.to_string();
    for key in keys {
        out = out.replace(&format!(",\"{key}\":null"), "");
    }
    assert!(
        !out.contains("tenant"),
        "a tenancy key survived stripping: {out}"
    );
    out
}

#[test]
fn pre_tenancy_journals_still_recover() {
    let system = tiny_system(100);
    let sim = SimConfig::default();
    let records = fixture_records(&system, sim);

    // Re-frame each record the way a pre-tenancy server wrote it: no
    // `tenants` key in Config headers, no `tenant` key in submissions.
    let old_format: String = records
        .iter()
        .map(|r| {
            let json = strip_keys(
                &serde_json::to_string(r).expect("records serialize"),
                &["tenants", "tenant"],
            );
            format!(
                "{} {:08x} {}\n",
                json.len(),
                lumos_serve::journal::crc32(json.as_bytes()),
                json
            )
        })
        .collect();
    let dir = fresh_dir("pretenancy");
    std::fs::write(segment_path(&dir, 0), old_format).expect("write old segment");

    let jc = JournalConfig::new(dir.clone());
    let recovered = recover(&serve_config(&system, sim), &jc).expect("recover");
    assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
    let (expected_session, expected_metrics) = replay_expected(&records, &system, sim);
    assert_eq!(
        recovered.session.save_state(),
        expected_session.save_state()
    );
    assert_eq!(
        serde_json::to_string(&recovered.metrics).unwrap(),
        serde_json::to_string(&expected_metrics).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pre_tenancy_snapshots_still_restore() {
    let system = tiny_system(100);
    let sim = SimConfig::default();
    let records = fixture_records(&system, sim);
    let (session, metrics) = replay_expected(&records, &system, sim);

    // A rotation snapshot as an old server wrote it: no `tenants` /
    // `tenant_of` in the session state, no `tenant_waits` in metrics.
    let snap = strip_keys(
        &snapshot_json(&system, &session, &metrics, None),
        &["tenants", "tenant_of", "tenant_waits"],
    );
    let dir = fresh_dir("presnap");
    std::fs::write(snapshot_path(&dir, 1), snap).expect("write snapshot");

    let jc = JournalConfig::new(dir.clone());
    let recovered = recover(&serve_config(&system, sim), &jc).expect("recover");
    assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
    assert_eq!(recovered.replayed, 0, "snapshot-only recovery");
    assert_eq!(recovered.session.save_state(), session.save_state());
    assert_eq!(
        serde_json::to_string(&recovered.metrics).unwrap(),
        serde_json::to_string(&metrics).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The full durable path: append + rotate under `FsyncPolicy::Always`
/// (which also fsyncs the journal *directory* on segment creation and
/// rotation, so the files themselves survive a crash, not just their
/// contents) and recover byte-identically from what is on disk.
#[test]
fn rotation_under_fsync_always_recovers_byte_identically() {
    let system = tiny_system(100);
    let sim = SimConfig::default();
    let records = fixture_records(&system, sim);
    let dir = fresh_dir("fsync-always");

    let mut jc = JournalConfig::new(dir.clone());
    jc.fsync = FsyncPolicy::Always;
    jc.snapshot_every = 5;
    let (session, metrics, final_seq) = serve_with_rotation(&jc, &system, sim, &records, |_| false);
    assert!(final_seq > 1, "rotation must have happened");

    // Every segment and snapshot the rotation chain created is on disk.
    for seq in 0..=final_seq {
        assert!(
            segment_path(&dir, seq).exists(),
            "segment {seq} of {final_seq} missing"
        );
        if seq > 0 {
            assert!(
                snapshot_path(&dir, seq).exists(),
                "snapshot {seq} of {final_seq} missing"
            );
        }
    }
    let recovered = recover(&serve_config(&system, sim), &jc).expect("recover");
    assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
    assert_eq!(recovered.session.save_state(), session.save_state());
    assert_eq!(
        serde_json::to_string(&recovered.metrics).unwrap(),
        serde_json::to_string(&metrics).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---- snapshot chains: a base and increments --------------------------

/// A directory as a server left it that rotated every five records and,
/// from rotation `first_mark` on, wrote increments; plus the state that
/// server held when it stopped, which every recovery must land on.
struct Chained {
    jc: JournalConfig,
    system: SystemSpec,
    sim: SimConfig,
    session: SimSession,
    metrics: LiveMetrics,
    /// The active segment: snapshots 1..=last exist.
    last: u64,
}

fn chained_dir(tag: &str, first_mark: u64) -> Chained {
    let system = tiny_system(100);
    let sim = SimConfig::default();
    let mut jc = JournalConfig::new(fresh_dir(tag));
    jc.fsync = FsyncPolicy::Never;
    jc.snapshot_every = 5;
    let records = fixture_records(&system, sim);
    let (session, metrics, last) =
        serve_with_rotation(&jc, &system, sim, &records, |seq| seq >= first_mark);
    assert!(last >= 5, "the fixture rotates five times, got {last}");
    Chained {
        jc,
        system,
        sim,
        session,
        metrics,
        last,
    }
}

impl Chained {
    /// `Some(prev)` for an increment, `None` for a complete snapshot.
    fn prev_of(&self, seq: u64) -> Option<u64> {
        match read_snapshot(&self.jc.dir, seq)
            .expect("read snapshot")
            .body
        {
            SnapshotBody::Base(_) => None,
            SnapshotBody::Delta { prev, .. } => Some(prev),
        }
    }

    fn corrupt(&self, seq: u64) {
        let path = snapshot_path(&self.jc.dir, seq);
        let text = std::fs::read_to_string(&path).expect("read snapshot");
        std::fs::write(&path, &text[..text.len() / 2]).expect("tear snapshot");
    }

    /// Recovers and requires the never-crashed state, a start from
    /// snapshot `from` (0: from nothing) with exactly the segments after
    /// it replayed, the saved mark left there, and one warning per
    /// `warned` entry, holding it.
    fn recover_from(&self, from: u64, warned: &[&str]) {
        let recovered = recover(&serve_config(&self.system, self.sim), &self.jc).expect("recover");
        assert_eq!(
            recovered.warnings.len(),
            warned.len(),
            "{:?}",
            recovered.warnings
        );
        for (warning, needle) in recovered.warnings.iter().zip(warned) {
            assert!(warning.contains(needle), "`{warning}` lacks `{needle}`");
        }
        let tail: usize = (from..=self.last)
            .map(|seq| {
                let segment = read_segment(&segment_path(&self.jc.dir, seq)).expect("segment");
                mutations_in_prefix(&segment.records, segment.records.len()) as usize
            })
            .sum();
        assert_eq!(recovered.replayed, tail as u64);
        assert_eq!(recovered.session.save_state(), self.session.save_state());
        assert_eq!(
            serde_json::to_string(&recovered.metrics).unwrap(),
            serde_json::to_string(&self.metrics).unwrap()
        );
        let mark = recovered.session.save_delta().map(|(since, _)| since);
        assert_eq!(mark, (from > 0).then_some(from));
        std::fs::remove_dir_all(&self.jc.dir).ok();
    }
}

/// The complete snapshot as it has always been derived: four keys in
/// this order. What a session never marked saved must keep writing, byte
/// for byte — older directories hold nothing else.
#[derive(serde::Serialize)]
struct CompleteSnapshot {
    system: SystemSpec,
    state: lumos_sim::SessionState,
    metrics: LiveMetrics,
    predictor: Option<lumos_serve::Predictor>,
}

#[test]
fn a_session_never_marked_writes_the_complete_snapshot_as_before() {
    let system = tiny_system(100);
    let sim = SimConfig::default();
    let (session, metrics) = replay_expected(&fixture_records(&system, sim), &system, sim);
    let derived = serde_json::to_string(&CompleteSnapshot {
        system: system.clone(),
        state: session.save_state(),
        metrics: metrics.clone(),
        predictor: None,
    })
    .unwrap();
    assert_eq!(snapshot_json(&system, &session, &metrics, None), derived);
}

#[test]
fn a_chain_of_increments_recovers_from_its_newest_link() {
    let c = chained_dir("chain", 1);
    assert_eq!(c.prev_of(1), None, "the first rotation writes the base");
    for seq in 2..=c.last {
        assert_eq!(c.prev_of(seq), Some(seq - 1));
    }
    c.recover_from(c.last, &[]);
}

#[test]
fn a_corrupt_newest_increment_falls_back_one_link() {
    let c = chained_dir("chain-newest", 1);
    c.corrupt(c.last);
    let newest = format!("snapshot-{:06}.json: corrupt", c.last);
    c.recover_from(c.last - 1, &[&newest]);
}

#[test]
fn a_corrupt_middle_increment_costs_every_snapshot_chained_on_it() {
    let c = chained_dir("chain-middle", 1);
    c.corrupt(3);
    // One warning: the snapshots between the newest and the broken link
    // are known to chain through it and are not read again.
    let broken = format!(
        "snapshot-{:06}.json: its chain breaks at snapshot-000003.json: corrupt",
        c.last
    );
    c.recover_from(2, &[&broken]);
}

#[test]
fn a_missing_link_costs_every_snapshot_chained_on_it() {
    let c = chained_dir("chain-missing", 1);
    std::fs::remove_file(snapshot_path(&c.jc.dir, 2)).expect("remove a link");
    c.recover_from(1, &["breaks at snapshot-000002.json: unreadable"]);
}

#[test]
fn a_missing_base_costs_the_whole_chain_and_replays_from_nothing() {
    let c = chained_dir("chain-base", 1);
    std::fs::remove_file(snapshot_path(&c.jc.dir, 1)).expect("remove the base");
    c.recover_from(0, &["breaks at snapshot-000001.json: unreadable"]);
}

/// A directory begun by a server that wrote a complete snapshot at every
/// rotation and continued by one that writes increments: the last
/// complete snapshot is the chain's base.
#[test]
fn complete_snapshots_continued_with_increments_recover() {
    let c = chained_dir("chain-old", 3);
    assert_eq!(
        (1..=c.last).map(|seq| c.prev_of(seq)).collect::<Vec<_>>()[..4],
        [None, None, None, Some(3)]
    );
    // Damage below the base the chain ends on is never read.
    c.corrupt(2);
    c.recover_from(c.last, &[]);
}

/// What increments are for, as a count: on a steady stream a snapshot
/// holds the live set and one segment's worth of history, so the twelfth
/// is about the size of the fourth. (Complete snapshots grow with every
/// rotation: the twelfth would be some three times the fourth.)
#[test]
fn increments_stay_flat_on_a_steady_stream() {
    let system = tiny_system(100);
    let sim = SimConfig::default();
    let mut jc = JournalConfig::new(fresh_dir("flat"));
    jc.fsync = FsyncPolicy::Never;
    jc.snapshot_every = 40;
    let mut records = fixture_records(&system, sim)[..1].to_vec();
    records.extend((0..12 * 40u64).map(|i| JournalRecord::Submit {
        now: i as i64 * 10,
        job: SubmitSpec {
            id: i,
            procs: 1 + i % 9,
            runtime: 150 + (i % 7) as i64 * 20,
            walltime: Some(400),
            user: Some((i % 3) as u32),
            submit: Some(i as i64 * 10),
            virtual_cluster: None,
            tenant: None,
        },
    }));
    let (session, _, last) = serve_with_rotation(&jc, &system, sim, &records, |_| true);
    assert_eq!(last, 12);
    let size = |seq| {
        std::fs::metadata(snapshot_path(&jc.dir, seq))
            .expect("snapshot")
            .len()
    };
    assert!(
        size(12) * 2 <= size(4) * 3,
        "snapshot 4 has {} bytes, snapshot 12 has {}",
        size(4),
        size(12)
    );
    let recovered = recover(&serve_config(&system, sim), &jc).expect("recover");
    assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
    assert_eq!(recovered.session.save_state(), session.save_state());
    std::fs::remove_dir_all(&jc.dir).ok();
}

/// A segment beyond a gap is quarantined (renamed `*.log.orphaned`, with
/// the rename fsynced into the directory) and stays quarantined: a second
/// recovery neither resurrects nor replays it.
#[test]
fn quarantined_segments_stay_orphaned_across_recoveries() {
    let system = tiny_system(100);
    let sim = SimConfig::default();
    let records = fixture_records(&system, sim);
    let dir = fresh_dir("quarantine");
    write_segment(&dir, &records);
    // A future segment with no predecessor: not linear history.
    let stray = records[..2].iter().map(encode_record).collect::<String>();
    std::fs::write(segment_path(&dir, 2), &stray).expect("write stray segment");

    let jc = JournalConfig::new(dir.clone());
    let recovered = recover(&serve_config(&system, sim), &jc).expect("recover");
    assert!(
        recovered.warnings.iter().any(|w| w.contains("quarantined")),
        "{:?}",
        recovered.warnings
    );
    let orphan = segment_path(&dir, 2).with_extension("log.orphaned");
    assert!(orphan.exists(), "orphan file missing");
    assert!(!segment_path(&dir, 2).exists(), "original name survived");
    // The quarantined bytes still replay only the linear history.
    let (expected_session, _) = replay_expected(&records, &system, sim);
    assert_eq!(
        recovered.session.save_state(),
        expected_session.save_state()
    );
    drop(recovered);

    let again = recover(&serve_config(&system, sim), &jc).expect("recover again");
    assert!(
        again.warnings.iter().all(|w| !w.contains("quarantined")),
        "second recovery re-quarantined: {:?}",
        again.warnings
    );
    assert!(orphan.exists(), "orphan vanished on second recovery");
    assert_eq!(again.session.save_state(), expected_session.save_state());
    std::fs::remove_dir_all(&dir).ok();
}

/// Mutating (non-header) records among the first `n` fixture records.
fn mutations_in_prefix(records: &[JournalRecord], n: usize) -> u64 {
    records[..n]
        .iter()
        .filter(|r| !matches!(r, JournalRecord::Config { .. }))
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating the segment at *any* byte offset recovers exactly the
    /// records wholly before the cut, warns unless the cut lies on a
    /// record boundary, and repairs the file so a second recovery is
    /// clean.
    #[test]
    fn any_truncation_point_recovers_the_intact_prefix(cut_fraction in 0.0f64..1.0) {
        let system = tiny_system(100);
        let sim = SimConfig::default();
        let records = fixture_records(&system, sim);
        let lines: Vec<String> = records.iter().map(encode_record).collect();
        let full: String = lines.concat();
        let cut = (full.len() as f64 * cut_fraction) as usize;

        let dir = fresh_dir("truncate");
        std::fs::write(segment_path(&dir, 0), &full.as_bytes()[..cut]).unwrap();

        let jc = JournalConfig::new(dir.clone());
        let recovered = recover(&serve_config(&system, sim), &jc).expect("recover");

        // How many records end at or before the cut?
        let mut end = 0usize;
        let mut whole = 0usize;
        for line in &lines {
            if end + line.len() <= cut {
                end += line.len();
                whole += 1;
            } else {
                break;
            }
        }
        prop_assert_eq!(recovered.replayed, mutations_in_prefix(&records, whole));
        let on_boundary = end == cut;
        prop_assert_eq!(
            recovered.warnings.is_empty(),
            on_boundary,
            "cut {} (boundary: {}): warnings {:?}",
            cut,
            on_boundary,
            &recovered.warnings
        );
        let (expected_session, _) = replay_expected(&records[..whole], &system, sim);
        prop_assert_eq!(recovered.session.save_state(), expected_session.save_state());
        drop(recovered);

        // The tear was truncated away: recovery is now warning-free.
        let again = recover(&serve_config(&system, sim), &jc).expect("recover again");
        prop_assert!(again.warnings.is_empty(), "{:?}", &again.warnings);
        prop_assert_eq!(again.session.save_state(), expected_session.save_state());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Appending records in *batches* (group commit) writes byte-for-byte
    /// the same segment as appending them one at a time, for any partition
    /// of the stream into batches — recovery and replication cannot tell a
    /// batched journal from an unbatched one.
    #[test]
    fn group_commit_batches_are_byte_identical(
        sizes in proptest::collection::vec(1usize..8, 1..24),
    ) {
        let system = tiny_system(100);
        let sim = SimConfig::default();
        let records = fixture_records(&system, sim);

        let dir_single = fresh_dir("batch-single");
        write_segment(&dir_single, &records);
        let single = std::fs::read(segment_path(&dir_single, 0)).unwrap();

        let dir_batch = fresh_dir("batch-grouped");
        let mut jc = JournalConfig::new(dir_batch.clone());
        jc.fsync = FsyncPolicy::Never;
        jc.snapshot_every = 0;
        let mut journal = Journal::open_segment(jc, 0, 0).expect("open segment");
        let mut i = 0usize;
        for take in sizes.iter().cycle() {
            if i >= records.len() {
                break;
            }
            let take = (*take).min(records.len() - i);
            journal.append_batch(&records[i..i + take]).expect("append batch");
            i += take;
        }
        drop(journal);
        let batched = std::fs::read(segment_path(&dir_batch, 0)).unwrap();
        prop_assert_eq!(single, batched);
        std::fs::remove_dir_all(&dir_single).ok();
        std::fs::remove_dir_all(&dir_batch).ok();
    }

    /// Flipping any byte of any record is caught by the checksum (or the
    /// framing): recovery keeps every record before the damaged one and
    /// never panics.
    #[test]
    fn any_single_byte_corruption_is_detected(
        pos_fraction in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let system = tiny_system(100);
        let sim = SimConfig::default();
        let records = fixture_records(&system, sim);
        let lines: Vec<String> = records.iter().map(encode_record).collect();
        let mut bytes: Vec<u8> = lines.concat().into_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_fraction) as usize;
        bytes[pos] ^= flip;

        // Which record does the damaged byte live in?
        let mut start = 0usize;
        let mut damaged = 0usize;
        for (i, line) in lines.iter().enumerate() {
            if pos < start + line.len() {
                damaged = i;
                break;
            }
            start += line.len();
        }

        let dir = fresh_dir("corrupt");
        std::fs::write(segment_path(&dir, 0), &bytes).unwrap();
        let jc = JournalConfig::new(dir.clone());
        let recovered = recover(&serve_config(&system, sim), &jc).expect("recover");

        prop_assert!(!recovered.warnings.is_empty(), "corruption went unnoticed");
        // Everything before the damaged record survives; the damaged one
        // and anything after it is gone (the tear truncates the file).
        prop_assert_eq!(recovered.replayed, mutations_in_prefix(&records, damaged));
        let (expected_session, _) = replay_expected(&records[..damaged], &system, sim);
        prop_assert_eq!(recovered.session.save_state(), expected_session.save_state());
        std::fs::remove_dir_all(&dir).ok();
    }
}
