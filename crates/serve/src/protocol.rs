//! The NDJSON wire protocol.
//!
//! One JSON document per line in both directions. Requests and responses
//! are externally tagged: struct-carrying commands are single-key objects
//! (`{"submit": {...}}`), argument-less commands are bare strings
//! (`"stats"`). Every request line produces exactly one response line, in
//! order.
//!
//! ```text
//! → {"Submit": {"job": {"id": 1, "procs": 4, "runtime": 120, "walltime": 300}}}
//! ← {"Submitted": {"id": 1, "state": "Waiting"}}
//! → {"Advance": {"to": 500}}
//! ← {"Advanced": {"now": 500}}
//! → "Stats"
//! ← {"Stats": {"stats": {...}}}
//! → "Shutdown"
//! ← {"Bye": {"metrics": {...}}}
//! ```

use std::io::{self, BufRead, Read};

use lumos_core::time::MAX_TIME;
use lumos_core::{Duration, Timestamp};
use lumos_sim::{JobState, SessionSnapshot, SimMetrics, TenantUsage};
use serde::{Deserialize, Serialize};

/// A job submission over the wire. Only `id`, `procs`, and `runtime` are
/// required; the rest default like a trace job would.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitSpec {
    /// Client-chosen job id; must be unique within the session.
    pub id: u64,
    /// Requested resource units.
    pub procs: u64,
    /// True runtime in seconds (this service schedules *simulated* work).
    pub runtime: Duration,
    /// Requested walltime estimate; defaults to the runtime-derived plan.
    pub walltime: Option<Duration>,
    /// Submitting user id.
    pub user: Option<u32>,
    /// Arrival time in simulation seconds; defaults to the current
    /// simulation time. Must not lie in the past.
    pub submit: Option<Timestamp>,
    /// Virtual-cluster binding (Philly-style systems).
    pub virtual_cluster: Option<u16>,
    /// Owning tenant name; requires the server to run with a tenant
    /// table (`--tenants`). Absent means the built-in `default` tenant.
    pub tenant: Option<String>,
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job.
    #[allow(missing_docs)]
    Submit { job: SubmitSpec },
    /// Cancel a pending or waiting job.
    #[allow(missing_docs)]
    Cancel { id: u64 },
    /// Query one job's lifecycle state.
    #[allow(missing_docs)]
    Query { id: u64 },
    /// Advance simulation time (virtual-time servers only).
    #[allow(missing_docs)]
    Advance { to: Timestamp },
    /// Live scheduler metrics.
    Stats,
    /// Raw session counters.
    Snapshot,
    /// Graceful shutdown: drain all queued and running jobs, then stop.
    /// On a follower this stops the process without draining (draining
    /// would journal state the primary never had).
    Shutdown,
    /// Replication handshake from a primary: the follower answers with
    /// its journal position ([`Response::ReplPosition`]) so the stream
    /// resumes from the last locally durable record.
    ReplHello,
    /// Replication stream marker: the primary finished shipping segment
    /// `seq - 1` and every following [`Request::ReplRecord`] belongs to
    /// segment `seq`. The follower rotates its own journal (writing its
    /// own snapshot — byte-identical, because its state is) before
    /// acknowledging.
    #[allow(missing_docs)]
    ReplSegment { seq: u64 },
    /// One raw journal frame (`<len> <crc32> <json>`, no trailing
    /// newline) shipped verbatim from the primary's segment file. The
    /// follower verifies the checksum, appends the identical bytes to
    /// its own journal, applies the record, and acknowledges with its
    /// new position.
    #[allow(missing_docs)]
    ReplRecord { frame: String },
    /// Promote a follower: seal its journal tail and start accepting
    /// writes. Refused by a server that is already the primary.
    Promote,
}

/// Live walltime-prediction accuracy over completed jobs: every finished
/// job is scored against the walltime the scheduler planned with (the
/// predictor's estimate when one is enabled, the client's otherwise).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PredictionStats {
    /// Completed jobs scored so far.
    pub jobs: u64,
    /// Fraction of scored jobs whose planned walltime was below the true
    /// runtime (the dangerous direction; paper §VI.A).
    pub underestimate_rate: f64,
    /// Mean `|planned walltime − true runtime|` in seconds.
    pub mean_abs_error: f64,
}

/// One tenant's row in the `stats` tenants block.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantServeStats {
    /// Static configuration plus live usage accounting from the session
    /// (job counts, outstanding/used units, delivered unit-seconds).
    pub usage: TenantUsage,
    /// Streaming wait-time quantile estimates `(p, seconds)` over this
    /// tenant's started jobs; `null` before any of them started.
    pub wait_quantiles: Vec<(f64, Option<f64>)>,
    /// Mean observed waiting time (s) over this tenant's started jobs.
    pub mean_wait: f64,
}

/// The `stats` tenants block (tenant-enabled servers only).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantsStats {
    /// Jain's fairness index over weight-normalized delivered service
    /// (`served_unit_seconds / weight`) across tenants with at least one
    /// accepted job; `1.0` when nothing has been delivered yet.
    pub fairness: f64,
    /// Per-tenant rows, in tenant-table order.
    pub tenants: Vec<TenantServeStats>,
}

/// The `stats` replication block.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplicationStats {
    /// `"primary"` (shipping the journal) or `"follower"` (applying it).
    pub role: String,
    /// The peer address: the `--replicate-to` target on a primary, the
    /// `--follow` primary on a follower.
    pub peer: String,
    /// Primary: the link to the follower is currently up. Follower: a
    /// primary has completed the replication handshake since startup.
    pub connected: bool,
    /// Primary: segment of the last acknowledged frame. Follower: the
    /// active journal segment.
    pub seq: u64,
    /// Primary: byte offset the follower last acknowledged within `seq`.
    /// Follower: byte length of the active segment.
    pub offset: u64,
    /// Primary: frames acknowledged over the current link. Follower:
    /// frames applied since startup.
    pub records: u64,
}

/// Live metrics reported by `stats`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeStats {
    /// Raw session counters.
    pub snapshot: SessionSnapshot,
    /// Streaming wait-time quantile estimates `(p, seconds)`; `null`
    /// before any job has started.
    pub wait_quantiles: Vec<(f64, Option<f64>)>,
    /// Mean observed waiting time (s) over started jobs.
    pub mean_wait: f64,
    /// Mean bounded slowdown over started jobs.
    pub mean_bsld: f64,
    /// Jobs whose submission was rejected (validation or backpressure).
    pub rejected: u64,
    /// Active walltime predictor (`"last2"` / `"user"`); `null` when off.
    pub predictor: Option<String>,
    /// Planned-walltime accuracy over completed jobs.
    pub prediction: PredictionStats,
    /// Per-tenant usage, waits, and fairness; `null` when the server
    /// runs without a tenant table.
    pub tenants: Option<TenantsStats>,
    /// Replication state: `Some` on a replicating primary and on a
    /// follower; `null` on servers that neither replicate nor follow
    /// (including a promoted follower, which serves exactly like a
    /// plain primary).
    pub replication: Option<ReplicationStats>,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Response {
    /// The job was accepted.
    #[allow(missing_docs)]
    Submitted { id: u64, state: JobState },
    /// The submission was refused (validation failure or backpressure).
    #[allow(missing_docs)]
    Rejected { id: Option<u64>, reason: String },
    /// The submission was refused because it would push its tenant past
    /// its outstanding-units quota. A distinct reply (not a generic
    /// `Rejected`) so clients can back off instead of retrying.
    #[allow(missing_docs)]
    QuotaExceeded {
        id: u64,
        tenant: String,
        requested: u64,
        in_use: u64,
        quota: u64,
    },
    /// Outcome of a cancel request.
    #[allow(missing_docs)]
    Cancelled { id: u64, ok: bool },
    /// Answer to a query.
    #[allow(missing_docs)]
    Job {
        id: u64,
        state: JobState,
        wait: Option<Duration>,
    },
    /// Simulation time after an advance.
    #[allow(missing_docs)]
    Advanced { now: Timestamp },
    /// Live metrics.
    #[allow(missing_docs)]
    Stats { stats: ServeStats },
    /// Raw session counters.
    #[allow(missing_docs)]
    Snapshot { snapshot: SessionSnapshot },
    /// Final word before the server stops: metrics over the whole session
    /// (exactly what a batch replay of the same arrivals would report),
    /// when at least one job ran.
    #[allow(missing_docs)]
    Bye { metrics: Option<SimMetrics> },
    /// A follower's journal position, answering [`Request::ReplHello`]:
    /// the next shipped frame must land at byte `offset` of segment
    /// `seq`.
    #[allow(missing_docs)]
    ReplPosition { seq: u64, offset: u64 },
    /// A follower's acknowledgment of one replicated frame or segment
    /// marker: everything up to `(seq, offset)` is durable locally.
    #[allow(missing_docs)]
    ReplAck { seq: u64, offset: u64 },
    /// The follower accepted promotion and now serves writes.
    #[allow(missing_docs)]
    Promoted { now: Timestamp },
    /// The request could not be handled (parse error, unknown id, ...).
    #[allow(missing_docs)]
    Error { message: String },
}

impl Request {
    /// Parses one request line, including semantic validation (zero
    /// resource units, empty tenant names, times past [`MAX_TIME`]) so
    /// nonsense is refused at the protocol edge with field context
    /// instead of reaching the scheduler.
    ///
    /// # Errors
    /// Returns a human-readable message for malformed JSON, an unknown
    /// command shape, or an invalid field value.
    pub fn parse(line: &str) -> Result<Self, String> {
        // No trim: the parser tolerates surrounding whitespace (incl. a
        // CRLF tail) itself, so error byte offsets stay relative to the
        // original line instead of shifting on leading whitespace.
        let req: Self = serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))?;
        req.validate()?;
        Ok(req)
    }

    /// Semantic validation beyond what deserialization checks. Only wire
    /// parsing goes through this — journal replay applies records that
    /// were already validated when first accepted.
    fn validate(&self) -> Result<(), String> {
        // The scheduler adds these to its clock and to each other.
        let bounded = |field: &str, seconds: Option<i64>| match seconds {
            Some(s) if s > MAX_TIME => Err(format!(
                "{field}: {s} seconds is past the limit of {MAX_TIME}"
            )),
            _ => Ok(()),
        };
        let job = match self {
            Request::Submit { job } => job,
            Request::Advance { to } => return bounded("Advance.to", Some(*to)),
            _ => return Ok(()),
        };
        bounded("Submit.job.runtime", Some(job.runtime))?;
        bounded("Submit.job.walltime", job.walltime)?;
        bounded("Submit.job.submit", job.submit)?;
        if job.procs == 0 {
            return Err(format!(
                "Submit.job.procs: job {} requests zero resource units",
                job.id
            ));
        }
        if let Some(tenant) = &job.tenant {
            if tenant.trim().is_empty() {
                return Err(format!(
                    "Submit.job.tenant: job {} names an empty tenant",
                    job.id
                ));
            }
        }
        Ok(())
    }

    /// Serializes the request as one NDJSON line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.to_line_into(&mut out);
        out
    }

    /// [`Request::to_line`] appended onto a caller-provided buffer (no
    /// trailing newline), so pipelined clients can serialize a stream of
    /// requests without a fresh allocation per line.
    pub fn to_line_into(&self, out: &mut String) {
        serde_json::to_string_into(self, out);
    }
}

/// The longest line a server or a replication sender reads, in bytes,
/// newline excluded. The largest line the test suites send is a
/// replicated journal frame of about 1.3 KB (a segment's `Config` header),
/// so this leaves room for tenant tables hundreds of times larger while a
/// client that never sends a newline costs at most this much memory.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// One line of an NDJSON stream, as [`read_line`] found it.
pub(crate) enum Line<'a> {
    /// A line of at most [`MAX_LINE_BYTES`], its newline included.
    Text(&'a str),
    /// A longer line: read through its newline and dropped.
    TooLong,
}

/// Reads the next line of `reader` into `buf`, holding at most
/// [`MAX_LINE_BYTES`] + 1 bytes of it; `None` at end of stream. A line
/// that is not UTF-8 is an `InvalidData` error, as `BufRead::read_line`
/// makes it.
pub(crate) fn read_line<'a, R: BufRead>(
    reader: &mut R,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<Line<'a>>> {
    buf.clear();
    let limit = MAX_LINE_BYTES + 1;
    if reader.by_ref().take(limit as u64).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.len() == limit && buf.last() != Some(&b'\n') {
        reader.skip_until(b'\n')?;
        return Ok(Some(Line::TooLong));
    }
    let text =
        std::str::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(Some(Line::Text(text)))
}

impl Response {
    /// An `Error` reply saying `message`.
    pub(crate) fn error(message: impl Into<String>) -> Self {
        Self::Error {
            message: message.into(),
        }
    }

    /// Serializes the response as one NDJSON line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.to_line_into(&mut out);
        out
    }

    /// [`Response::to_line`] appended onto a caller-provided buffer (no
    /// trailing newline). The connection writer reuses one buffer across
    /// every reply it coalesces into a single flush.
    pub fn to_line_into(&self, out: &mut String) {
        serde_json::to_string_into(self, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_roundtrips() {
        let req = Request::Submit {
            job: SubmitSpec {
                id: 7,
                procs: 4,
                runtime: 120,
                walltime: Some(300),
                user: None,
                submit: Some(50),
                virtual_cluster: None,
                tenant: Some("alice".into()),
            },
        };
        let line = req.to_line();
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn optional_fields_default() {
        let req = Request::parse(r#"{"Submit":{"job":{"id":1,"procs":2,"runtime":60}}}"#).unwrap();
        match req {
            Request::Submit { job } => {
                assert_eq!(job.id, 1);
                assert_eq!(job.walltime, None);
                assert_eq!(job.submit, None);
                assert_eq!(job.tenant, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn semantic_validation_names_the_field() {
        // Zero resource units is nonsense the protocol layer refuses.
        let err =
            Request::parse(r#"{"Submit":{"job":{"id":9,"procs":0,"runtime":60}}}"#).unwrap_err();
        assert!(err.contains("Submit.job.procs"), "{err}");
        assert!(err.contains("job 9"), "{err}");
        // So is an explicitly empty (or all-whitespace) tenant name.
        for tenant in [r#""""#, r#""  ""#] {
            let line = format!(
                r#"{{"Submit":{{"job":{{"id":3,"procs":1,"runtime":60,"tenant":{tenant}}}}}}}"#
            );
            let err = Request::parse(&line).unwrap_err();
            assert!(err.contains("Submit.job.tenant"), "{err}");
            assert!(err.contains("job 3"), "{err}");
        }
        // A well-formed tenant passes.
        Request::parse(r#"{"Submit":{"job":{"id":3,"procs":1,"runtime":60,"tenant":"a"}}}"#)
            .unwrap();
    }

    #[test]
    fn times_past_the_limit_are_refused_naming_the_field() {
        let submit =
            |fields: &str| format!(r#"{{"Submit":{{"job":{{"id":1,"procs":1,{fields}}}}}}}"#);
        let advance = |to: i64| format!(r#"{{"Advance":{{"to":{to}}}}}"#);
        let far = i64::MAX - 5;
        for (line, field) in [
            (submit(&format!(r#""runtime":{far}"#)), "Submit.job.runtime"),
            (
                submit(&format!(r#""runtime":1,"walltime":{far}"#)),
                "Submit.job.walltime",
            ),
            (
                submit(&format!(r#""runtime":1,"submit":{far}"#)),
                "Submit.job.submit",
            ),
            (advance(MAX_TIME + 1), "Advance.to"),
        ] {
            let err = Request::parse(&line).unwrap_err();
            assert!(err.starts_with(&format!("{field}: ")), "{err}");
        }
        // The limit itself is a time like any other.
        let at = format!(r#""runtime":{MAX_TIME},"walltime":{MAX_TIME},"submit":{MAX_TIME}"#);
        Request::parse(&submit(&at)).unwrap();
        Request::parse(&advance(MAX_TIME)).unwrap();
    }

    #[test]
    fn unit_commands_are_bare_strings() {
        assert_eq!(Request::parse(r#""Stats""#).unwrap(), Request::Stats);
        assert_eq!(Request::parse(r#""Shutdown""#).unwrap(), Request::Shutdown);
        assert_eq!(Request::Stats.to_line(), r#""Stats""#);
    }

    #[test]
    fn replication_requests_round_trip() {
        assert_eq!(
            Request::parse(r#""ReplHello""#).unwrap(),
            Request::ReplHello
        );
        assert_eq!(Request::parse(r#""Promote""#).unwrap(), Request::Promote);
        let seg = Request::ReplSegment { seq: 3 };
        assert_eq!(Request::parse(&seg.to_line()).unwrap(), seg);
        // Frames carry quotes and backslashes; JSON string escaping must
        // round-trip them byte-for-byte.
        let frame = r#"21 0a1b2c3d {"Advance":{"to":42}}"#.to_string();
        let rec = Request::ReplRecord {
            frame: frame.clone(),
        };
        match Request::parse(&rec.to_line()).unwrap() {
            Request::ReplRecord { frame: f } => assert_eq!(f, frame),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_error_without_panicking() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("{").is_err());
        assert!(Request::parse(r#"{"Nope": 1}"#).is_err());
        assert!(Request::parse(r#"{"Submit":{"job":{"id":1}}}"#).is_err());
    }

    #[test]
    fn parse_error_offsets_count_from_the_original_line() {
        // The line used to be trim()ed before parsing, so byte offsets in
        // syntax errors were shifted on lines with leading whitespace.
        let bad = r#"{"Advance":{"to":}}"#;
        let plain = Request::parse(bad).unwrap_err();
        let indented = Request::parse(&format!("   {bad}")).unwrap_err();
        let offset_of = |err: &str| -> usize {
            let (_, tail) = err.rsplit_once("at byte ").expect("offset in error");
            tail.trim_end_matches(|c: char| !c.is_ascii_digit())
                .parse()
                .expect("numeric offset")
        };
        assert_eq!(
            offset_of(&indented),
            offset_of(&plain) + 3,
            "leading whitespace must shift reported offsets: {plain} vs {indented}"
        );
        // Surrounding whitespace (incl. a CRLF tail) still parses fine.
        assert_eq!(Request::parse("  \"Stats\" \r\n").unwrap(), Request::Stats);
    }

    #[test]
    fn parse_errors_name_the_offending_field() {
        // A submit without its required `procs` must say so, not just
        // "bad request" — the server relays this message verbatim (with a
        // line-number prefix) to the client.
        let err = Request::parse(r#"{"Submit":{"job":{"id":1,"runtime":60}}}"#).unwrap_err();
        assert!(err.contains("procs"), "field not named: {err}");
        // A wrong type names the field too.
        let err = Request::parse(r#"{"Cancel":{"id":"seven"}}"#).unwrap_err();
        assert!(
            err.contains("id") || err.contains("integer"),
            "no context: {err}"
        );
    }
}
