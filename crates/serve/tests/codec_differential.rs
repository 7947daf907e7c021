//! Differential tests pinning the direct (streaming) wire codec to the
//! `Value`-tree oracle.
//!
//! The serve hot path serializes with `Serialize::write_json` and parses
//! with `Deserialize::read_json` — both hand-rolled walks that never
//! build a `Value` tree. The `Value` path (`to_value` + `write_value`,
//! `parse_value_complete` + `from_value`) is the semantics oracle. These
//! tests assert, over arbitrary protocol and journal values:
//!
//! 1. serialize: direct bytes == oracle bytes (both directions of the
//!    wire: requests, responses, journal records);
//! 2. deserialize: the streaming path accepts its own canonical bytes
//!    without falling back, and returns the original value — and so does
//!    the oracle;
//! 3. malformed input: `from_json_str` (fast path + fallback) returns
//!    exactly the oracle's verdict *and error string*; and whenever the
//!    raw streaming path accepts a mutated input, the oracle accepts it
//!    with the same value (the dangerous bug class: a lenient fast path
//!    silently diverging from the pinned semantics).

use lumos_core::SystemSpec;
use lumos_serve::protocol::{
    PredictionStats, ReplicationStats, Request, Response, ServeStats, SubmitSpec, TenantServeStats,
    TenantsStats,
};
use lumos_serve::JournalRecord;
use lumos_sim::{
    JobState, SessionSnapshot, SimConfig, SimMetrics, TenantCounts, TenantSpec, TenantTable,
    TenantUsage,
};
use proptest::prelude::*;
use serde::json::Cursor;
use serde::{Deserialize, Serialize};
use serde_json::parse_value_complete;

// ---- differential checkers --------------------------------------------

/// Direct `write_json` bytes must equal the `Value`-oracle rendering.
fn check_serialize<T: Serialize + ?Sized>(v: &T) -> String {
    let mut direct = String::new();
    v.write_json(&mut direct);
    let mut oracle = String::new();
    serde::json::write_value(&mut oracle, &v.to_value(), None, 0);
    assert_eq!(direct, oracle, "direct writer diverges from Value oracle");
    direct
}

/// Full round trip: canonical bytes are accepted by the raw streaming
/// path (no fallback) and by the oracle, both yielding the original.
fn check_round_trip<T>(v: &T)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let text = check_serialize(v);

    let mut cur = Cursor::new(&text);
    let fast = T::read_json(&mut cur)
        .unwrap_or_else(|| panic!("streaming path rejected its own canonical bytes: {text}"));
    assert!(cur.at_end(), "streaming path left trailing input: {text}");
    assert_eq!(&fast, v, "streaming round trip changed the value");

    let value = parse_value_complete(&text).expect("oracle parse of canonical bytes");
    let oracle = T::from_value(&value).expect("oracle from_value of canonical bytes");
    assert_eq!(&oracle, v, "oracle round trip changed the value");
}

/// On arbitrary (typically malformed) input, the public entry point must
/// match the oracle exactly — same accept/reject verdict, same value or
/// error string — and a raw streaming accept must agree with the oracle.
fn check_verdicts<T>(text: &str)
where
    T: Deserialize + PartialEq + std::fmt::Debug,
{
    let oracle: Result<T, serde::Error> =
        parse_value_complete(text).and_then(|v| T::from_value(&v));
    let fast: Result<T, serde::Error> = T::from_json_str(text);
    match (&fast, &oracle) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "accepted values differ on {text:?}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "error strings differ on {text:?}"),
        _ => panic!("verdict mismatch on {text:?}: fast={fast:?} oracle={oracle:?}"),
    }

    // The raw streaming path may bail (None => fallback), but it must
    // never accept something the oracle rejects, or with another value.
    let mut cur = Cursor::new(text);
    if let Some(got) = T::read_json(&mut cur) {
        if cur.at_end() {
            let value = parse_value_complete(text)
                .unwrap_or_else(|e| panic!("fast path accepted unparseable {text:?}: {e}"));
            let want = T::from_value(&value)
                .unwrap_or_else(|e| panic!("fast path accepted rejected shape {text:?}: {e}"));
            assert_eq!(
                got, want,
                "fast path accepted {text:?} with a different value"
            );
        }
    }
}

// ---- strategies -------------------------------------------------------

/// Maps an arbitrary u32 onto a valid scalar value (replacement char on
/// the surrogate gap), so strings cover the whole unicode range.
fn uni_char(raw: u32) -> char {
    char::from_u32(raw % 0x11_0000).unwrap_or('\u{FFFD}')
}

/// JSON-hostile characters: quotes, escapes, control characters,
/// multi-byte unicode, plus structural JSON punctuation (for mutations).
const HOSTILE: &[char] = &[
    'a', '"', '\\', '\n', '\t', '\u{0}', '\u{7f}', 'é', '漢', '🦀', ' ', '{', '}', '[', ']', ':',
    ',', '0', '9', '-', 'n', 't',
];

fn hostile_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0usize..HOSTILE.len()).prop_map(|i| HOSTILE[i]),
        any::<u32>().prop_map(uni_char),
    ]
}

/// Short strings biased toward JSON-hostile content.
fn wire_string() -> impl Strategy<Value = String> {
    prop::collection::vec(hostile_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn submit_spec() -> impl Strategy<Value = SubmitSpec> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<i64>(),
        prop::option::of(any::<i64>()),
        prop::option::of(any::<u32>()),
        prop::option::of(any::<i64>()),
        prop::option::of(any::<u16>()),
        prop::option::of(wire_string()),
    )
        .prop_map(
            |(id, procs, runtime, walltime, user, submit, virtual_cluster, tenant)| SubmitSpec {
                id,
                procs,
                runtime,
                walltime,
                user,
                submit,
                virtual_cluster,
                tenant,
            },
        )
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        submit_spec().prop_map(|job| Request::Submit { job }),
        any::<u64>().prop_map(|id| Request::Cancel { id }),
        any::<u64>().prop_map(|id| Request::Query { id }),
        any::<i64>().prop_map(|to| Request::Advance { to }),
        Just(Request::Stats),
        Just(Request::Snapshot),
        Just(Request::Shutdown),
        Just(Request::ReplHello),
        any::<u64>().prop_map(|seq| Request::ReplSegment { seq }),
        wire_string().prop_map(|frame| Request::ReplRecord { frame }),
        Just(Request::Promote),
    ]
}

fn journal_record() -> impl Strategy<Value = JournalRecord> {
    let config_plain = Just(JournalRecord::Config {
        system: SystemSpec::theta(),
        sim: SimConfig::default(),
        predictor: None,
        tenants: None,
    });
    let config_full = (0.5f64..4.0).prop_map(|margin| JournalRecord::Config {
        system: SystemSpec::theta(),
        sim: SimConfig::default(),
        predictor: Some(lumos_serve::PredictorConfig::Last2 { margin }),
        tenants: Some(
            TenantTable::new(vec![TenantSpec {
                name: "acme".to_string(),
                weight: 2.0,
                quota: Some(64),
            }])
            .expect("valid tenant table"),
        ),
    });
    prop_oneof![
        config_plain,
        config_full,
        (any::<i64>(), submit_spec()).prop_map(|(now, job)| JournalRecord::Submit { now, job }),
        (any::<i64>(), any::<u64>()).prop_map(|(now, id)| JournalRecord::Cancel { now, id }),
        any::<i64>().prop_map(|to| JournalRecord::Advance { to }),
    ]
}

fn job_state() -> impl Strategy<Value = JobState> {
    prop_oneof![
        Just(JobState::Pending),
        Just(JobState::Waiting),
        Just(JobState::Running),
        Just(JobState::Finished),
        Just(JobState::Cancelled),
    ]
}

/// Serialize-only wire direction: every `Response` variant that carries
/// proptest-generatable payloads. The deeply nested `Stats` / `Snapshot`
/// / `Bye` payloads get fixed exemplars in `stats_exemplars`.
fn response() -> impl Strategy<Value = Response> {
    let fin = -1.0e9f64..1.0e9;
    prop_oneof![
        (any::<u64>(), job_state()).prop_map(|(id, state)| Response::Submitted { id, state }),
        (prop::option::of(any::<u64>()), wire_string())
            .prop_map(|(id, reason)| Response::Rejected { id, reason }),
        (
            any::<u64>(),
            wire_string(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(id, tenant, requested, in_use, quota)| Response::QuotaExceeded {
                    id,
                    tenant,
                    requested,
                    in_use,
                    quota,
                }
            ),
        (any::<u64>(), any::<bool>()).prop_map(|(id, ok)| Response::Cancelled { id, ok }),
        (any::<u64>(), job_state(), prop::option::of(any::<i64>()))
            .prop_map(|(id, state, wait)| Response::Job { id, state, wait }),
        any::<i64>().prop_map(|now| Response::Advanced { now }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seq, offset)| Response::ReplPosition { seq, offset }),
        (any::<u64>(), any::<u64>()).prop_map(|(seq, offset)| Response::ReplAck { seq, offset }),
        any::<i64>().prop_map(|now| Response::Promoted { now }),
        wire_string().prop_map(|message| Response::Error { message }),
        fin.prop_map(|w| Response::Bye {
            metrics: Some(SimMetrics {
                jobs: 3,
                mean_wait: w,
                median_wait: 1.5,
                p90_wait: 9.25,
                mean_bsld: 1.0,
                util: 0.5,
                violation: 0.0,
                reserved_jobs: 1,
                violated_jobs: 0,
                makespan: 1000,
            })
        }),
        Just(Response::Bye { metrics: None }),
    ]
}

fn snapshot_exemplar() -> SessionSnapshot {
    SessionSnapshot {
        now: 12_345,
        submitted: 42,
        pending: 1,
        waiting: 2,
        running: 3,
        finished: 35,
        cancelled: 1,
        used_units: 96,
        capacity: 128,
        utilization: 0.75,
    }
}

/// Handcrafted deep `Response` payloads: the full `Stats` tree with every
/// optional block populated and empty, plus `Snapshot`.
fn stats_exemplars() -> Vec<Response> {
    let tenants = TenantsStats {
        fairness: 0.875,
        tenants: vec![TenantServeStats {
            usage: TenantUsage {
                name: "acme".to_string(),
                weight: 2.0,
                quota: Some(64),
                counts: TenantCounts {
                    submitted: 5,
                    pending: 0,
                    waiting: 1,
                    running: 2,
                    finished: 2,
                    cancelled: 0,
                },
                outstanding_units: 24,
                used_units: 16,
                served_unit_seconds: 4_800,
                share: 0.125,
            },
            wait_quantiles: vec![(0.5, Some(3.0)), (0.99, None)],
            mean_wait: 2.5,
        }],
    };
    let replication = ReplicationStats {
        role: "primary".to_string(),
        peer: "127.0.0.1:7400".to_string(),
        connected: true,
        seq: 3,
        offset: 8_192,
        records: 17,
    };
    let full = ServeStats {
        snapshot: snapshot_exemplar(),
        wait_quantiles: vec![(0.25, None), (0.5, Some(1.75)), (0.9, Some(120.0))],
        mean_wait: 17.25,
        mean_bsld: 1.5,
        rejected: 4,
        predictor: Some("last2".to_string()),
        prediction: PredictionStats {
            jobs: 30,
            underestimate_rate: 0.1,
            mean_abs_error: 45.5,
        },
        tenants: Some(tenants),
        replication: Some(replication),
    };
    let bare = ServeStats {
        snapshot: snapshot_exemplar(),
        wait_quantiles: Vec::new(),
        mean_wait: 0.0,
        mean_bsld: 0.0,
        rejected: 0,
        predictor: None,
        prediction: PredictionStats {
            jobs: 0,
            underestimate_rate: 0.0,
            mean_abs_error: 0.0,
        },
        tenants: None,
        replication: None,
    };
    vec![
        Response::Stats { stats: full },
        Response::Stats { stats: bare },
        Response::Snapshot {
            snapshot: snapshot_exemplar(),
        },
    ]
}

// ---- mutation ---------------------------------------------------------

/// One char-level edit of a canonical document, chosen by proptest.
fn mutate(text: &str, op: u8, pos: usize, ch: char) -> String {
    let mut i = pos % (text.len() + 1);
    while i > 0 && !text.is_char_boundary(i) {
        i -= 1;
    }
    let mut out = String::with_capacity(text.len() + 4);
    match op % 3 {
        // truncate
        0 => out.push_str(&text[..i]),
        // insert
        1 => {
            out.push_str(&text[..i]);
            out.push(ch);
            out.push_str(&text[i..]);
        }
        // replace one char (or append when at the end)
        _ => {
            out.push_str(&text[..i]);
            out.push(ch);
            let rest = &text[i..];
            let skip = rest.chars().next().map_or(0, char::len_utf8);
            out.push_str(&rest[skip..]);
        }
    }
    out
}

// ---- tests ------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both serialize directions and round trips for the wire's
    /// deserializable types, over arbitrary values.
    #[test]
    fn direct_codec_matches_value_codec(
        req in request(),
        rec in journal_record(),
        resp in response(),
    ) {
        check_round_trip(&req);
        check_round_trip(&rec);
        check_serialize(&resp); // responses are serialize-only
    }

    /// Identical accept/reject verdicts (and error strings) on mutated
    /// canonical documents, plus fast-accept ⇒ oracle-accept with the
    /// same value.
    #[test]
    fn mutated_input_verdicts_match_oracle(
        req in request(),
        rec in journal_record(),
        op in any::<u8>(),
        pos in any::<usize>(),
        ch in hostile_char(),
    ) {
        let req_text = serde_json::to_string(&req).expect("serialize request");
        check_verdicts::<Request>(&mutate(&req_text, op, pos, ch));
        let rec_text = serde_json::to_string(&rec).expect("serialize record");
        check_verdicts::<JournalRecord>(&mutate(&rec_text, op, pos, ch));
    }

    /// Raw junk never splits the fast path from the oracle.
    #[test]
    fn junk_input_verdicts_match_oracle(text in wire_string()) {
        check_verdicts::<Request>(&text);
        check_verdicts::<SubmitSpec>(&text);
        check_verdicts::<JournalRecord>(&text);
    }
}

/// A tenant name whose high surrogate is followed by an escape that is
/// not a low one: both paths refuse it, in the same words, in a debug
/// and in a release build.
#[test]
fn an_unpaired_surrogate_in_a_tenant_name_is_refused_by_both_paths() {
    let text = r#"{"Submit":{"job":{"id":1,"procs":1,"runtime":5,"tenant":"\ud800\u0041"}}}"#;
    check_verdicts::<Request>(text);
    let refusal = Request::from_json_str(text).expect_err("a lone surrogate");
    assert_eq!(refusal.to_string(), "lone surrogate in string");
}

/// The deep serialize-only payloads (`Stats`, `Snapshot`): direct writer
/// vs `Value` oracle, byte for byte.
#[test]
fn stats_responses_serialize_identically() {
    for resp in stats_exemplars() {
        check_serialize(&resp);
    }
}
