//! The one table of workloads and metrics. `--list` prints it,
//! `--emit-manifest` writes `BENCHMARK.json` from it, and a test fails
//! when the committed file differs.

/// Seconds one run measures for (`run_seconds` of the manifest).
pub const RUN_SECONDS: u32 = 10;

pub struct Workload {
    pub name: &'static str,
    /// Why it is in the benchmark: which layers do its work.
    pub why: &'static str,
    /// What one op is, and the work unit of `work_per_s`.
    pub op: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim-shallow",
        why: "Helios, 4 days, queue almost always empty: event loop, session bookkeeping and \
              metrics do the work and backfilling none, so any per-event cost shows here",
        op: "one simulate(); a repetition cycles none, EASY, EASY+adaptive, conservative; unit = job",
    },
    Workload {
        name: "sim-deep",
        why: "Blue Waters, 1 day, thousands running and a standing queue of thousands: policy \
              order, backfill scans and in-place profile queries do the work (the Table II pair)",
        op: "one simulate(); a repetition runs strict EASY, then adaptive-relaxed EASY; unit = job",
    },
    Workload {
        name: "sim-conservative",
        why: "conservative backfill on the Blue Waters prefix up to 1000 jobs past the onset of \
              queueing, and on Philly: the profile is copied and written per waiting job per pass",
        op: "one simulate(); a repetition runs conservative on the prefix, then on Philly; unit = job",
    },
    Workload {
        name: "paper-characterize",
        why: "the reproduction pipeline without the simulator: every trace analysis and the \
              Fig. 12 predictor grid on a one-day suite; predictors and the KDE do the work",
        op: "one system characterized; a repetition passes over the five systems; unit = job",
    },
    Workload {
        name: "serve-firehose",
        why: "a served Helios stream, one pipelined connection, journal on, no fsync, no \
              rotation: parse, round hand-off, session apply, journal write and socket do the work",
        op: "one command (ack latency), a fresh server per repetition; unit = command",
    },
    Workload {
        name: "serve-longrun",
        why: "120 k commands of a firehose stream with default rotation: snapshots hold every job \
              ever submitted, so bytes and stalls grow with uptime and the hot path is noise",
        op: "one command (ack latency), a fresh server per repetition; unit = command",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for a per-layer metric, which is reported and not gated.
    pub bound: Option<f64>,
    /// The crate or module measured.
    pub layer: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "end to end",
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    // ---- end to end: every workload reports all of them -----------------
    gated("work_per_s", "1/s", Higher, 0.25,
        "work units per wall second of the fastest repetition"),
    gated("op_p50_ms", "ms", Lower, 0.25,
        "median wall time of one op (a replay, a system, an ack) within a repetition, of the \
         repetition where it was lowest"),
    gated("cpu_s", "s", Lower, 0.25,
        "process user+sys CPU seconds of the repetition that took the least"),
    gated("peak_rss_mb", "MB", Lower, 0.15,
        "VmHWM after the first repetition: what one set-up and one repetition need \
         (paper-characterize: both on one thread)"),
    gated("setup_s", "s", Lower, 0.25,
        "median wall time of one set-up round: generation, perturbation, prefixes, streams"),
    // ---- per layer: measured by the traced run; 0 where a workload does
    // ---- not enter the layer ---------------------------------------------
    layer("traces.generate_jobs_per_s", "1/s", Higher, "lumos-traces",
        "setup_s everywhere"),
    layer("analysis.trace_only_s", "s", Lower, "lumos-analysis",
        "paper-characterize work_per_s, cpu_s"),
    layer("analysis.replayed_s", "s", Lower, "lumos-analysis",
        "paper-characterize work_per_s, cpu_s"),
    layer("analysis.kde_s", "s", Lower, "lumos-stats (runtime_geometry)",
        "paper-characterize work_per_s, cpu_s"),
    layer("predict.dataset_s", "s", Lower, "lumos-predict Dataset::from_trace",
        "paper-characterize work_per_s"),
    layer("predict.evaluate_s", "s", Lower, "lumos-predict evaluate_trace",
        "paper-characterize work_per_s (dominant); nothing on sim-* or serve-*"),
    layer("predict.instances_per_s", "1/s", Higher, "lumos-predict",
        "paper-characterize work_per_s"),
    layer("sim.none.jobs_per_s", "1/s", Higher, "lumos-sim simulate(), no backfill",
        "sim-shallow work_per_s"),
    layer("sim.easy.jobs_per_s", "1/s", Higher, "lumos-sim simulate(), strict EASY",
        "sim-shallow and sim-deep work_per_s"),
    layer("sim.adaptive.jobs_per_s", "1/s", Higher, "lumos-sim simulate(), adaptive EASY",
        "sim-shallow and sim-deep work_per_s"),
    layer("sim.conservative.jobs_per_s", "1/s", Higher, "lumos-sim simulate(), conservative",
        "sim-conservative and sim-shallow work_per_s"),
    layer("sim.session.submit_ns_per_job", "ns", Lower, "lumos-sim SimSession::submit",
        "sim-shallow work_per_s"),
    layer("sim.session.advance_ns_per_event", "ns", Lower, "lumos-sim SimSession::advance_to",
        "every sim-* work_per_s; serve-firehose cpu_s through serve.session.apply"),
    layer("sim.session.result_s", "s", Lower, "lumos-sim SimSession::into_result",
        "sim-shallow work_per_s"),
    layer("sim.profile.points", "count", Lower, "lumos-sim CapacityProfile",
        "size of the profile the next three are timed on"),
    layer("sim.profile.earliest_fit_ns", "ns", Lower, "lumos-sim CapacityProfile::earliest_fit",
        "sim-deep work_per_s"),
    layer("sim.profile.reserve_ns", "ns", Lower, "lumos-sim CapacityProfile::reserve",
        "sim-conservative work_per_s"),
    layer("sim.profile.clone_from_ns", "ns", Lower, "lumos-sim CapacityProfile::clone_from",
        "sim-conservative work_per_s"),
    layer("sim.events_per_job", "count", Lower, "lumos-sim",
        "an invariant (2): a speed-only change leaves it"),
    layer("sim.mean_wait_s", "s", Lower, "lumos-sim",
        "a simulated statistic: a speed-only change leaves it"),
    layer("sim.util", "count", Higher, "lumos-sim",
        "a simulated statistic: a speed-only change leaves it"),
    layer("sim.waits_digest", "count", Lower, "lumos-sim",
        "low 32 bits of the digest of all waits: a speed-only change leaves it"),
    layer("sim.session.save_state_ms", "ms", Lower, "lumos-sim SimSession::save_state",
        "serve-longrun cpu_s through serve.journal.rotate_ms"),
    layer("sim.session.restore_ms", "ms", Lower, "lumos-sim SimSession::restore",
        "serve-longrun serve.recovery.restart_s"),
    layer("serve.protocol.parse_ns_per_cmd", "ns", Lower, "lumos-serve protocol",
        "serve-firehose work_per_s, cpu_s; nothing on serve.durable.*"),
    layer("serve.protocol.serialize_ns_per_reply", "ns", Lower, "lumos-serve protocol",
        "serve-firehose work_per_s, cpu_s; nothing on serve.durable.*"),
    layer("serve.session.apply_ns_per_cmd", "ns", Lower, "lumos-sim under lumos-serve",
        "serve-firehose work_per_s, cpu_s"),
    layer("serve.metrics.absorb_ns_per_event", "ns", Lower, "lumos-serve metrics",
        "serve-firehose cpu_s"),
    layer("serve.metrics.report_ms", "ms", Lower, "lumos-serve metrics (one Stats)",
        "serve-firehose serve.read_ack_p50_ms"),
    layer("serve.journal.encode_ns_per_record", "ns", Lower, "lumos-serve journal",
        "serve-firehose cpu_s (inside append)"),
    layer("serve.journal.append_ns_per_record", "ns", Lower,
        "lumos-serve journal, batches of 64, no fsync",
        "serve-firehose work_per_s, cpu_s"),
    layer("serve.journal.bytes_per_record", "B", Lower, "lumos-serve journal",
        "serve-firehose serve.journal.disk_bytes_per_op"),
    layer("serve.journal.fsync_ms", "ms", Lower, "lumos-serve journal, one record, fsync always",
        "serve.durable.wall.ack_p50_ms, serve.durable.wall.cmds_per_s"),
    layer("serve.journal.rotate_ms", "ms", Lower, "lumos-serve journal + recovery snapshot",
        "serve-longrun cpu_s, serve.op_p99_ms"),
    layer("serve.journal.rotations", "count", Lower, "lumos-serve journal",
        "serve-longrun serve.journal.disk_bytes_per_op"),
    layer("serve.journal.snapshot_bytes_last", "B", Lower, "lumos-serve recovery snapshot",
        "serve-longrun serve.journal.disk_bytes_per_op"),
    layer("serve.journal.disk_bytes_per_op", "B", Lower, "lumos-serve journal directory",
        "write amplification of a served run: bytes on disk over journaled commands"),
    layer("serve.recovery.snapshot_load_ms", "ms", Lower, "lumos-serve recovery",
        "serve-longrun serve.recovery.restart_s"),
    layer("serve.recovery.replay_records_per_s", "1/s", Higher, "lumos-serve recovery",
        "serve.recovery.restart_s of a rotation-free journal"),
    layer("serve.recovery.restart_s", "s", Lower, "lumos-serve recover()",
        "time back to service on the directory the served run left"),
    layer("serve.read_ack_p50_ms", "ms", Lower, "lumos-serve, Query/Stats/Snapshot acks",
        "serve-* op_p50_ms"),
    layer("serve.write_ack_p50_ms", "ms", Lower, "lumos-serve, Submit/Advance acks",
        "serve-* op_p50_ms"),
    layer("serve.op_p99_ms", "ms", Lower, "lumos-serve, all acks",
        "tail of op_p50_ms; rotation stalls on serve-longrun"),
    layer("serve.wall.cmds_per_s", "1/s", Higher, "lumos-serve, served run",
        "work_per_s of the serve-* workload, as seen inside the traced run"),
    layer("serve.server.cpu_ns_per_cmd", "ns", Lower, "lumos-serve, served run",
        "serve-* cpu_s: process CPU per command, the in-process client included"),
    layer("serve.server.layers_ns_per_cmd", "ns", Lower, "lumos-serve, layer replay",
        "CPU of the replayed layers: server rounds through public functions, per command"),
    layer("serve.server.residual_ns_per_cmd", "ns", Lower, "lumos-serve server",
        "cpu_ns_per_cmd minus the replayed layers: sockets, queue and thread hand-off, client"),
    layer("serve.durable.wall.cmds_per_s", "1/s", Higher,
        "lumos-serve, fsync always, two lockstep connections (probe in serve-firehose)",
        "nothing gated: the disk's figure; an fsync-path change moves only this"),
    layer("serve.durable.wall.ack_p50_ms", "ms", Lower, "lumos-serve, durable probe",
        "nothing gated; follows serve.journal.fsync_ms"),
    layer("serve.durable.wall.ack_p99_ms", "ms", Lower, "lumos-serve, durable probe",
        "nothing gated; rotation under fsync always shows here"),
    layer("serve.durable.disk_bytes_per_op", "B", Lower, "lumos-serve, durable probe",
        "write amplification with default rotation at short uptime"),
    layer("trace.overhead_frac", "count", Lower, "benchmark",
        "share of the traced time spent tracing: spans taken x cost of a span / time under spans"),
];

pub fn end_to_end() -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(|m| m.bound.is_some())
}

pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(|m| m.bound.is_none())
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The body of `BENCHMARK.json`.
pub fn manifest() -> String {
    fn join(items: Vec<String>) -> String {
        items.join(",\n")
    }
    let workloads = join(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let gated = join(
        end_to_end()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.word(),
                    m.bound.expect("gated")
                )
            })
            .collect(),
    );
    let layers = join(
        per_layer()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.word()
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{gated}\n  ],\n  \
         \"per_layer\": [\n{layers}\n  ]\n}}\n"
    )
}

/// `--list`: every workload and metric with what it is for.
pub fn listing() -> String {
    let mut out = String::from("workloads\n");
    for w in WORKLOADS {
        out.push_str(&format!(
            "  {}\n    why: {}\n    op:  {}\n",
            w.name, w.why, w.op
        ));
    }
    out.push_str("end-to-end metrics (gated)\n");
    for m in end_to_end() {
        out.push_str(&format!(
            "  {:<14} {:<5} {} is better, bound {}: {}\n",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.expect("gated"),
            m.moves
        ));
    }
    out.push_str("per-layer metrics (traced run, not gated)\n");
    for m in per_layer() {
        out.push_str(&format!(
            "  {:<38} {:<5} {} is better; {}; moves: {}\n",
            m.name,
            m.unit,
            m.better.word(),
            m.layer,
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let allowed = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(allowed)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn committed_manifest_is_the_emitted_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `--emit-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn table_meets_the_manifest_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&end_to_end().count()));
        assert!((1..=128).contains(&per_layer().count()));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(METRICS.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "every name is used once");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(!w.why.contains('"') && !w.why.contains('\\'));
        }
        for m in METRICS {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
                "{}",
                m.name
            );
        }
        for m in end_to_end() {
            let bound = m.bound.expect("gated");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        let widest = end_to_end()
            .map(|m| m.bound.expect("gated"))
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "set-up has the widest bound");
        assert!(manifest().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
