//! Write-ahead journaling: the durable command log behind `--journal`.
//!
//! Every state-mutating command the scheduler accepts (submit, cancel,
//! advance — and the implicit drain of a graceful shutdown) is appended to
//! the active journal segment *before* the client sees the acknowledgment.
//! Replaying the log through the deterministic [`lumos_sim::SimSession`]
//! therefore reconstructs the exact pre-crash state; see
//! [`crate::recovery`].
//!
//! # On-disk format
//!
//! A journal directory holds numbered segments and snapshots:
//!
//! ```text
//! journal-000000.log            records 0..  (first segment)
//! snapshot-000001.json          state *before* journal-000001.log
//! journal-000001.log            records appended after the snapshot
//! snapshot-000002.json          what changed since snapshot-000001.json
//! journal-000002.log            ...
//! ```
//!
//! The first snapshot a server writes is complete; each later one is an
//! increment on the one before it, so a snapshot is read together with
//! the chain it names ([`crate::recovery::SnapshotBody`]).
//!
//! Each segment is a sequence of framed NDJSON records, one per line:
//!
//! ```text
//! <len> <crc32> <json>\n
//! ```
//!
//! where `len` is the byte length of `<json>`, `crc32` is the IEEE CRC-32
//! of `<json>` as eight lowercase hex digits, and `<json>` is one
//! [`JournalRecord`] document (JSON string escaping guarantees it contains
//! no raw newline). The frame makes torn writes detectable: a record whose
//! line is incomplete, whose length disagrees, whose checksum fails, or
//! whose JSON does not parse marks the **torn tail** — recovery keeps
//! every record before it, truncates the file at its byte offset with a
//! warning, and never crashes on a damaged journal.
//!
//! Each segment begins with a [`JournalRecord::Config`] header so it is
//! self-describing; replay validates the header against the server's
//! configuration and warns on drift.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use lumos_core::{SystemSpec, Timestamp};
use lumos_predict::PredictorConfig;
use lumos_sim::{SimConfig, TenantTable};
use serde::{Deserialize, Serialize};

use crate::protocol::SubmitSpec;
use crate::store::{Appender, FileStore, Store};

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: no acknowledged command is ever lost.
    Always,
    /// `fsync` at most once per this many milliseconds, measured on the
    /// wall time each serving round carries: bounded loss window,
    /// near-`Never` throughput.
    Interval(u64),
    /// Never `fsync` explicitly; the OS flushes when it pleases. A machine
    /// crash may lose acknowledged commands (a process crash does not:
    /// writes still reach the page cache).
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI syntax: `always`, `never`, or `interval:MS`.
    ///
    /// # Errors
    /// Returns a usage message for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(Self::Always),
            "never" => Ok(Self::Never),
            other => other
                .strip_prefix("interval:")
                .and_then(|ms| ms.parse().ok())
                .map(Self::Interval)
                .ok_or_else(|| {
                    format!(
                        "invalid fsync policy `{other}` (expected always, never, or interval:MS)"
                    )
                }),
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Always => write!(f, "always"),
            Self::Interval(ms) => write!(f, "interval:{ms}"),
            Self::Never => write!(f, "never"),
        }
    }
}

/// Journaling configuration carried inside
/// [`crate::server::ServeConfig`].
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding segments and snapshots (created on demand).
    pub dir: PathBuf,
    /// Durability policy for appended records.
    pub fsync: FsyncPolicy,
    /// Rotate (snapshot + new segment) after this many records per
    /// segment; `0` disables rotation.
    pub snapshot_every: u64,
}

impl JournalConfig {
    /// Defaults: fsync every record, rotate every 4096 records.
    #[must_use]
    pub fn new(dir: PathBuf) -> Self {
        Self {
            dir,
            fsync: FsyncPolicy::Always,
            snapshot_every: 4096,
        }
    }
}

/// One durable record: a state-mutating command, or a segment header.
///
/// Mutating records carry the simulation clock at the moment the live
/// server applied them (`now`), so replay advances to exactly that instant
/// first — which also reproduces the implicit wall-clock advances of
/// `--time-scale` servers. Rejected submissions are *not* journaled: they
/// never mutate the session (the rejection counters are process-local and
/// reset on recovery).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// Segment header: the configuration the session runs under. The
    /// `predictor` field records the walltime-predictor mode (absent both
    /// for predictor-off servers and in pre-predictor journals, which
    /// deserialize with `None`); `tenants` records the tenant table the
    /// same way (absent for tenant-less servers and in pre-tenancy
    /// journals).
    #[allow(missing_docs)]
    Config {
        system: SystemSpec,
        sim: SimConfig,
        predictor: Option<PredictorConfig>,
        tenants: Option<TenantTable>,
    },
    /// An accepted submission, with `job.submit` resolved (never `None`).
    #[allow(missing_docs)]
    Submit { now: Timestamp, job: SubmitSpec },
    /// An accepted cancellation.
    #[allow(missing_docs)]
    Cancel { now: Timestamp, id: u64 },
    /// An explicit `Advance` (or the final drain of a graceful shutdown).
    #[allow(missing_docs)]
    Advance { to: Timestamp },
}

// ---- CRC-32 (IEEE 802.3, reflected) --------------------------------------

/// Slicing-by-8 tables: `[0]` is the classic byte table, and `[k][b]` is
/// the CRC register after byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the register with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 (the zlib/Ethernet polynomial) of `bytes`, eight bytes per
/// step.
#[must_use]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- record framing ------------------------------------------------------

/// Frames one record as a journal line (including the trailing newline).
#[cfg(test)]
#[must_use]
pub(crate) fn encode_record(record: &JournalRecord) -> String {
    let mut line = String::new();
    encode_record_into(record, &mut line);
    line
}

/// Frames one record as a journal line (including the trailing newline),
/// appending into a caller-provided buffer, so batch encoding reuses one
/// allocation across records. Group commit concatenates exactly the lines
/// a per-record append would have written.
///
/// The record streams straight into `out` (no intermediate `Value` tree
/// or per-record `String`); the `<len> <crc>` prefix is computed over
/// the emitted bytes, laid out in a stack buffer and spliced in front of
/// them afterwards.
pub fn encode_record_into(record: &JournalRecord, out: &mut String) {
    let start = out.len();
    serde_json::to_string_into(record, out);
    let json = &out.as_bytes()[start..];
    let (mut len, crc) = (json.len(), crc32(json));
    // Back to front: "<decimal len> <8 hex digits> ", at most 20 + 10.
    let mut prefix = [b' '; 30];
    let mut at = prefix.len() - 1;
    for nibble in 0..8 {
        at -= 1;
        prefix[at] = b"0123456789abcdef"[((crc >> (4 * nibble)) & 0xF) as usize];
    }
    at -= 1;
    loop {
        at -= 1;
        prefix[at] = b'0' + (len % 10) as u8;
        len /= 10;
        if len == 0 {
            break;
        }
    }
    let prefix = std::str::from_utf8(&prefix[at..]).expect("digits and spaces are ASCII");
    out.insert_str(start, prefix);
    out.push('\n');
}

/// Decodes one framed line (without its trailing newline).
///
/// # Errors
/// Describes the first framing, checksum, or JSON problem found.
pub(crate) fn decode_line(line: &[u8]) -> Result<JournalRecord, String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("record is not UTF-8: {e}"))?;
    let (len_field, rest) = text
        .split_once(' ')
        .ok_or("missing length prefix".to_string())?;
    let (crc_field, json) = rest
        .split_once(' ')
        .ok_or("missing checksum field".to_string())?;
    let len: usize = len_field
        .parse()
        .map_err(|_| format!("bad length prefix `{len_field}`"))?;
    let crc = u32::from_str_radix(crc_field, 16)
        .map_err(|_| format!("bad checksum field `{crc_field}`"))?;
    if json.len() != len {
        return Err(format!(
            "length mismatch: prefix says {len} bytes, record has {}",
            json.len()
        ));
    }
    let actual = crc32(json.as_bytes());
    if actual != crc {
        return Err(format!(
            "checksum mismatch: recorded {crc:08x}, computed {actual:08x}"
        ));
    }
    serde_json::from_str(json).map_err(|e| format!("bad record JSON: {e}"))
}

/// Where and why a segment's readable prefix ended early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first damaged record.
    pub offset: u64,
    /// What was wrong with it.
    pub reason: String,
}

/// The readable content of one segment file.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentRecords {
    /// Intact records, in order.
    pub records: Vec<JournalRecord>,
    /// Set when the file ends in a damaged record; everything at and past
    /// `offset` should be discarded.
    pub torn: Option<TornTail>,
}

/// Reads every intact record of a segment, stopping (without error) at the
/// first torn or corrupt one.
///
/// # Errors
/// Only I/O errors reading the file; damage is reported via
/// [`SegmentRecords::torn`].
pub fn read_segment(path: &Path) -> io::Result<SegmentRecords> {
    Ok(parse_segment(&FileStore::read_path(path)?))
}

/// The intact records of a segment's bytes, up to the first torn one.
pub(crate) fn parse_segment(data: &[u8]) -> SegmentRecords {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let torn = loop {
        if offset >= data.len() {
            break None;
        }
        let rest = &data[offset..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            break Some(TornTail {
                offset: offset as u64,
                reason: "truncated record (no trailing newline)".into(),
            });
        };
        match decode_line(&rest[..nl]) {
            Ok(record) => {
                records.push(record);
                offset += nl + 1;
            }
            Err(reason) => {
                break Some(TornTail {
                    offset: offset as u64,
                    reason,
                });
            }
        }
    };
    SegmentRecords { records, torn }
}

// ---- directory layout ----------------------------------------------------

/// File name of segment `seq`.
pub(crate) fn segment_name(seq: u64) -> String {
    format!("journal-{seq:06}.log")
}

/// File name of the snapshot taken before segment `seq` was opened.
pub(crate) fn snapshot_name(seq: u64) -> String {
    format!("snapshot-{seq:06}.json")
}

/// Path of segment `seq` in `dir`.
#[must_use]
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(segment_name(seq))
}

/// Path of the snapshot taken before segment `seq` was opened.
#[must_use]
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(snapshot_name(seq))
}

/// Sorted sequence numbers of `(segments, snapshots)` present in `dir`.
///
/// # Errors
/// Propagates directory-read errors.
pub fn scan_dir(dir: &Path) -> io::Result<(Vec<u64>, Vec<u64>)> {
    scan(&FileStore::new(dir))
}

/// [`scan_dir`] over any store.
pub(crate) fn scan(store: &dyn Store) -> io::Result<(Vec<u64>, Vec<u64>)> {
    let mut segments = Vec::new();
    let mut snapshots = Vec::new();
    for name in store.list()? {
        if let Some(seq) = name
            .strip_prefix("journal-")
            .and_then(|r| r.strip_suffix(".log"))
            .and_then(|r| r.parse().ok())
        {
            segments.push(seq);
        } else if let Some(seq) = name
            .strip_prefix("snapshot-")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|r| r.parse().ok())
        {
            snapshots.push(seq);
        }
    }
    segments.sort_unstable();
    snapshots.sort_unstable();
    Ok((segments, snapshots))
}

// ---- the active journal --------------------------------------------------

/// The open, append-side view of a journal directory: one active segment
/// plus the rotation machinery. Reading and repair live in
/// [`crate::recovery`].
#[derive(Debug)]
pub struct Journal {
    config: JournalConfig,
    store: Arc<dyn Store>,
    file: Box<dyn Appender>,
    seq: u64,
    records_in_segment: u64,
    segment_bytes: u64,
    /// Wall time since the serving shell started, as of the current round
    /// ([`Journal::set_elapsed`]), and as of the last interval sync: what
    /// [`FsyncPolicy::Interval`] measures.
    elapsed: Duration,
    last_sync: Duration,
    /// Reused frame buffer: a batch append encodes every frame into it, a
    /// mirrored line is copied into it with its newline, and either way
    /// one `write_all` follows, so the steady state allocates nothing
    /// beyond each record's JSON serialization.
    scratch: String,
    /// The last write to the active segment failed.
    torn: bool,
}

impl Journal {
    /// Opens segment `seq` for appending (creating it if absent);
    /// `existing_records` is how many intact records it already holds.
    /// Unless the fsync policy is [`FsyncPolicy::Never`], the journal
    /// directory is fsynced so a just-created segment's directory entry
    /// is as durable as its records.
    ///
    /// # Errors
    /// Propagates file-open errors.
    pub fn open_segment(
        config: JournalConfig,
        seq: u64,
        existing_records: u64,
    ) -> io::Result<Self> {
        let store = Arc::new(FileStore::create(&config.dir)?);
        Self::open_in(store, config, seq, existing_records)
    }

    /// [`Journal::open_segment`] in any store.
    pub(crate) fn open_in(
        store: Arc<dyn Store>,
        config: JournalConfig,
        seq: u64,
        existing_records: u64,
    ) -> io::Result<Self> {
        let (file, segment_bytes) = store.append(&segment_name(seq))?;
        if config.fsync != FsyncPolicy::Never {
            store.sync_dir()?;
        }
        Ok(Self {
            config,
            store,
            file,
            seq,
            records_in_segment: existing_records,
            segment_bytes,
            elapsed: Duration::ZERO,
            last_sync: Duration::ZERO,
            scratch: String::new(),
            torn: false,
        })
    }

    /// Sets the journal's clock to `elapsed`, the round's wall time after
    /// the serving shell started.
    pub(crate) fn set_elapsed(&mut self, elapsed: Duration) {
        self.elapsed = elapsed;
    }

    /// Sequence number of the active segment.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Records in the active segment (including its `Config` header).
    #[must_use]
    pub(crate) fn records_in_segment(&self) -> u64 {
        self.records_in_segment
    }

    /// Byte length of the active segment — with [`Journal::seq`], the
    /// journal's replication position.
    #[must_use]
    pub(crate) fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Appends one record and applies the fsync policy. On success the
    /// record is in the OS page cache at minimum; under
    /// [`FsyncPolicy::Always`] it is on stable storage.
    ///
    /// # Errors
    /// Propagates write/sync errors — the caller must treat those as
    /// fatal (fail-stop), because an unjournaled mutation must never be
    /// acknowledged.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Group commit: appends every record in one buffered `write_all` and
    /// applies the fsync policy **once** for the whole batch. The frame
    /// bytes are exactly the concatenation of what per-record
    /// [`Journal::append`] calls would have written, so segment files,
    /// replication streams, and recovery see no difference — only the
    /// number of write and fsync syscalls changes.
    ///
    /// Callers must not acknowledge any record of the batch before this
    /// returns `Ok`: the shared fsync is what makes the whole batch
    /// durable, preserving append-before-ack for every member.
    ///
    /// # Errors
    /// Propagates write/sync errors — fail-stop for the entire batch; on
    /// error none of the batch's records may be acknowledged.
    pub fn append_batch(&mut self, records: &[JournalRecord]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        for record in records {
            encode_record_into(record, &mut self.scratch);
        }
        self.write_scratch(records.len() as u64)
    }

    /// Appends one already-framed line shipped from a replication
    /// primary (`frame` carries no trailing newline), keeping this
    /// journal a byte-for-byte mirror of the primary's. The caller has
    /// verified the frame via [`decode_line`].
    ///
    /// # Errors
    /// Propagates write/sync errors — fail-stop, exactly like
    /// [`Journal::append`]: an unpersisted frame must never be
    /// acknowledged back to the primary.
    pub(crate) fn append_raw_line(&mut self, frame: &str) -> io::Result<()> {
        // One write for frame and newline: the file is unbuffered, and a
        // segment must never end in a whole frame that lacks its newline.
        self.scratch.clear();
        self.scratch.push_str(frame);
        self.scratch.push('\n');
        self.write_scratch(1)
    }

    /// Writes the `records` framed in `scratch` and applies the fsync
    /// policy. A segment a write failed on takes no more: part of that
    /// write may have landed, and a record behind a torn frame is lost
    /// with it.
    fn write_scratch(&mut self, records: u64) -> io::Result<()> {
        if self.torn {
            return Err(io::Error::other("the segment ends in a failed write"));
        }
        self.torn = true;
        self.file.write(self.scratch.as_bytes())?;
        self.torn = false;
        self.records_in_segment += records;
        self.segment_bytes += self.scratch.len() as u64;
        self.apply_fsync_policy()
    }

    fn apply_fsync_policy(&mut self) -> io::Result<()> {
        match self.config.fsync {
            FsyncPolicy::Always => self.file.sync_data()?,
            FsyncPolicy::Interval(ms) => {
                if self.elapsed.saturating_sub(self.last_sync) >= Duration::from_millis(ms) {
                    self.file.sync_data()?;
                    self.last_sync = self.elapsed;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Whether the rotation threshold has been reached.
    #[must_use]
    pub fn wants_rotation(&self) -> bool {
        self.config.snapshot_every > 0 && self.records_in_segment >= self.config.snapshot_every
    }

    /// Rotates: syncs the active segment, opens `journal-(seq+1).log`
    /// starting with the `header` record, and durably writes
    /// `snapshot_json` as `snapshot-(seq+1).json` (via a temp file and
    /// atomic rename). Older segments and snapshots are kept — `journal
    /// inspect` can audit the full history, and a snapshot may be an
    /// increment on older ones — but recovery only replays from the
    /// newest valid snapshot on.
    ///
    /// # Errors
    /// Propagates I/O errors. A failure before the new segment is open
    /// and (unless the policy is [`FsyncPolicy::Never`]) its directory
    /// entry synced leaves the journal where it was, at most with an
    /// empty next segment the next rotation reuses; one after it leaves
    /// the journal on the new segment without its snapshot. Either way
    /// recovery replays every appended record from the newest snapshot
    /// that exists.
    pub fn rotate(&mut self, snapshot_json: &str, header: &JournalRecord) -> io::Result<()> {
        self.rotate_with(snapshot_json, Some(header))
    }

    /// [`Journal::rotate`], with the new segment's `header` optional: a
    /// replication follower writes none, because the primary's header
    /// arrives as the next shipped frame and a local one would break the
    /// byte-for-byte mirror. The segment comes first and the snapshot
    /// last, so no snapshot ever stands in front of a record appended
    /// after it was written.
    ///
    /// # Errors
    /// Propagates I/O errors, like [`Journal::rotate`].
    pub(crate) fn rotate_with(
        &mut self,
        snapshot_json: &str,
        header: Option<&JournalRecord>,
    ) -> io::Result<()> {
        let next = self.seq + 1;
        // The old segment must be durable before the snapshot supersedes it.
        self.file.sync_data()?;
        // The next segment exists already only where a rotation failed to
        // sync its directory entry, and then it is empty.
        let name = segment_name(next);
        let (file, len) = self.store.append(&name)?;
        if len > 0 {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, name));
        }
        // As in `open_in`: no record goes into a segment whose directory
        // entry a power loss could drop.
        if self.config.fsync != FsyncPolicy::Never {
            self.store.sync_dir()?;
        }
        (self.file, self.seq, self.records_in_segment) = (file, next, 0);
        (self.segment_bytes, self.torn) = (0, false);
        if let Some(header) = header {
            self.append(header)?;
        }
        self.store
            .create_durable(&snapshot_name(next), snapshot_json.as_bytes())?;
        // The snapshot's rename must survive a crash too.
        if self.config.fsync != FsyncPolicy::Never {
            self.store.sync_dir()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn record(id: u64) -> JournalRecord {
        JournalRecord::Cancel { now: 42, id }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic zlib check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// One table entry per byte: the oracle the sliced loop is held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Every remainder of the eight-byte step, behind every alignment of
    /// the slice's first byte.
    #[test]
    fn sliced_crc32_matches_the_bytewise_loop_at_every_length_and_offset() {
        let mut rng = lumos_stats::Rng::new(0xC2C);
        let buf: Vec<u8> = (0..208).map(|_| (rng.next_f64() * 256.0) as u8).collect();
        for offset in 0..8 {
            for len in 0..=200 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    fn golden_spec(tenant: Option<&str>, virtual_cluster: Option<u16>) -> SubmitSpec {
        SubmitSpec {
            id: 77,
            procs: 16,
            runtime: 3_600,
            walltime: Some(7_200),
            user: Some(5),
            submit: Some(120),
            virtual_cluster,
            tenant: tenant.map(str::to_owned),
        }
    }

    fn golden_config(predictor: Option<PredictorConfig>, tenants: Option<&str>) -> JournalRecord {
        let mut system = SystemSpec::theta();
        system.name = "golden".into();
        JournalRecord::Config {
            system,
            sim: SimConfig::default(),
            predictor,
            tenants: tenants.map(|t| TenantTable::parse(t).expect("tenant table")),
        }
    }

    /// A header over twenty tenants: a frame with a four-digit length.
    fn golden_wide_config() -> JournalRecord {
        let many: String = (0..20)
            .map(|i| format!("team-{i} {}\n", 1 + i % 3))
            .collect();
        golden_config(None, Some(&many))
    }

    /// The literal frames the commit before the sliced CRC and the
    /// stack-built prefix wrote for one record of each kind.
    #[test]
    fn frames_are_the_bytes_the_format_prefix_wrote() {
        let system = r#"{"id":"Theta","name":"golden","kind":"ClassicHpc","resource":"CpuCores","total_nodes":4392,"units_per_node":64,"total_units":281088,"virtual_clusters":1,"tz_offset":-21600}"#;
        let sim = r#"{"policy":"Fcfs","backfill":"Easy","relax":"Strict","bsld_bound":10,"respect_virtual_clusters":true,"record_timeline":true}"#;
        let tenants = r#"{"tenants":[{"name":"capped","weight":1,"quota":6},{"name":"free","weight":2,"quota":null},{"name":"default","weight":1,"quota":null}]}"#;
        let golden = [
            (
                golden_config(None, None),
                format!(
                    "356 3311297c {{\"Config\":{{\"system\":{system},\"sim\":{sim},\"predictor\":null,\"tenants\":null}}}}\n"
                ),
            ),
            (
                golden_config(
                    Some(PredictorConfig::Last2 { margin: 1.5 }),
                    Some("capped 1 6\nfree 2\n"),
                ),
                format!(
                    "507 588aee11 {{\"Config\":{{\"system\":{system},\"sim\":{sim},\"predictor\":{{\"Last2\":{{\"margin\":1.5}}}},\"tenants\":{tenants}}}}}\n"
                ),
            ),
            (
                JournalRecord::Submit {
                    now: 100,
                    job: golden_spec(None, None),
                },
                concat!(
                    r#"139 c2fc56be {"Submit":{"now":100,"job":{"id":77,"procs":16,"runtime":3600,"#,
                    r#""walltime":7200,"user":5,"submit":120,"virtual_cluster":null,"tenant":null}}}"#,
                    "\n"
                )
                .to_owned(),
            ),
            (
                JournalRecord::Submit {
                    now: 100,
                    job: golden_spec(Some("capped"), Some(3)),
                },
                concat!(
                    r#"140 9f99d732 {"Submit":{"now":100,"job":{"id":77,"procs":16,"runtime":3600,"#,
                    r#""walltime":7200,"user":5,"submit":120,"virtual_cluster":3,"tenant":"capped"}}}"#,
                    "\n"
                )
                .to_owned(),
            ),
            (
                JournalRecord::Cancel { now: 42, id: 7 },
                "28 4c343153 {\"Cancel\":{\"now\":42,\"id\":7}}\n".to_owned(),
            ),
            (
                JournalRecord::Advance { to: 12_345 },
                "24 c91b0e36 {\"Advance\":{\"to\":12345}}\n".to_owned(),
            ),
        ];
        for (record, frame) in &golden {
            assert_eq!(&encode_record(record), frame);
            assert_eq!(&decode_line(frame.trim_end().as_bytes()).unwrap(), record);
        }
        assert!(encode_record(&golden_wide_config()).starts_with("1258 ebe7ffb8 {\"Config\":"));
    }

    /// One frame, three ways: `encode_record`, `encode_record_into` behind
    /// other frames in the buffer, and what `append_batch` leaves on disk
    /// — for lengths of two, three and four digits. A follower fed those
    /// frames line by line mirrors the segment byte for byte.
    #[test]
    fn buffer_batch_and_mirror_hold_the_same_frames() {
        let records = [
            JournalRecord::Advance { to: 12_345 },
            golden_wide_config(),
            JournalRecord::Submit {
                now: 100,
                job: golden_spec(Some("capped"), None),
            },
            record(7),
        ];
        let mut buffer = String::new();
        let mut lines = String::new();
        for record in &records {
            encode_record_into(record, &mut buffer);
            lines.push_str(&encode_record(record));
        }
        assert_eq!(buffer, lines);
        let digits: Vec<usize> = lines
            .lines()
            .map(|line| line.find(' ').expect("a length prefix"))
            .collect();
        assert_eq!(digits, [2, 4, 3, 2]);

        let journal = |store: &MemStore| {
            let mut config = JournalConfig::new(PathBuf::from("unused"));
            (config.fsync, config.snapshot_every) = (FsyncPolicy::Never, 0);
            Journal::open_in(Arc::new(store.clone()), config, 0, 0).unwrap()
        };
        let (primary_store, follower_store) = (MemStore::default(), MemStore::default());
        let mut primary = journal(&primary_store);
        primary.append_batch(&records[..3]).unwrap();
        primary.append(&records[3]).unwrap();
        let on_disk = primary_store.read(&segment_name(0)).unwrap();
        assert_eq!(on_disk, lines.as_bytes());
        assert_eq!(primary.segment_bytes(), on_disk.len() as u64);

        let mut follower = journal(&follower_store);
        for frame in lines.lines() {
            assert!(decode_line(frame.as_bytes()).is_ok());
            follower.append_raw_line(frame).unwrap();
        }
        let mirrored = follower_store.read(&segment_name(0)).unwrap();
        assert_eq!(mirrored, on_disk);
        assert_eq!(follower.segment_bytes(), primary.segment_bytes());
        assert_eq!(follower.records_in_segment(), primary.records_in_segment());
        let read = parse_segment(&mirrored);
        assert_eq!(read.records, records);
        assert_eq!(read.torn, None);
    }

    #[test]
    fn record_round_trips_through_frame() {
        let rec = JournalRecord::Advance { to: 12_345 };
        let line = encode_record(&rec);
        assert!(line.ends_with('\n'));
        assert_eq!(decode_line(line.trim_end().as_bytes()).unwrap(), rec);
    }

    #[test]
    fn decode_rejects_tampering() {
        let line = encode_record(&record(7));
        let line = line.trim_end();
        // Flip one payload byte: checksum must catch it.
        let mut bytes = line.as_bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = decode_line(&bytes).unwrap_err();
        assert!(
            err.contains("checksum mismatch") || err.contains("length mismatch"),
            "unexpected error: {err}"
        );
        // Truncate the payload: length prefix must catch it.
        let err = decode_line(&line.as_bytes()[..line.len() - 3]).unwrap_err();
        assert!(err.contains("length mismatch"), "unexpected error: {err}");
        // Garbage framing.
        assert!(decode_line(b"not a record").is_err());
        assert!(decode_line(b"").is_err());
    }

    /// `Interval(5)` syncs an append once 5 ms of round wall time have
    /// passed since the last sync, and never on the clock of the machine
    /// running the test: the clock is stepped by hand.
    #[test]
    fn interval_fsync_counts_round_time_not_the_machine_clock() {
        let store = MemStore::default();
        let mut config = JournalConfig::new(PathBuf::from("unused"));
        config.fsync = FsyncPolicy::Interval(5);
        let mut journal = Journal::open_in(Arc::new(store.clone()), config, 0, 0).unwrap();
        let mut syncs = Vec::new();
        for ms in [0, 4, 5, 5, 9, 10, 11, 30, 30, 34, 35] {
            journal.set_elapsed(Duration::from_millis(ms));
            journal.append(&record(ms)).unwrap();
            syncs.push(store.syncs());
        }
        assert_eq!(syncs, [0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 4]);
        // A batch is one append: one sync at most, however many records.
        journal.set_elapsed(Duration::from_millis(60));
        journal
            .append_batch(&[record(1), record(2), record(3)])
            .unwrap();
        assert_eq!(store.syncs(), 5);
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("interval:250").unwrap(),
            FsyncPolicy::Interval(250)
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert!(FsyncPolicy::parse("interval:").is_err());
        assert_eq!(FsyncPolicy::Interval(250).to_string(), "interval:250");
    }
}
