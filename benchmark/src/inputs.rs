//! Inputs: base traces, the per-seed perturbation, command streams and
//! the onset prefix.
//!
//! **Why the seed perturbs a fixed base instead of seeding the generator.**
//! The generators draw a heavy-tailed user pool from their seed, so the
//! same system and span give 31 k to 216 k jobs (Helios, 4 days, seeds
//! 1–10) and an EASY replay of one Blue Waters day takes 1.2 s to 4.2 s.
//! Metrics that have to agree across seeds to within a tenth cannot sit on
//! inputs that differ fivefold. Every workload therefore generates its
//! base traces from [`BASE_SEED`] and lets `--seed` move each arrival by
//! up to [`JITTER_S`] seconds: another scheduling instance (neighbours
//! swap, queues and backfill choices differ, every digest changes) of the
//! same size and load.

use lumos_core::{Job, JobStatus, SystemId, Trace};
use lumos_serve::{Request, SubmitSpec};
use lumos_sim::{simulate, Backfill, Relax, SimConfig};
use lumos_stats::Rng;
use lumos_traces::{systems, Generator, GeneratorConfig};

/// Seed of every base trace.
pub const BASE_SEED: u64 = 2024;

/// Largest shift of one arrival, in seconds.
pub const JITTER_S: u64 = 30;

/// Jobs kept past the onset of queueing in the conservative prefix.
pub const ONSET_EXTRA: usize = 1_000;

/// The base trace of `id` over `days`, as the CLI would generate it.
pub fn base_trace(id: SystemId, days: u32) -> Trace {
    Generator::new(
        systems::profile_for(id),
        GeneratorConfig {
            seed: BASE_SEED,
            span_days: days,
            ..GeneratorConfig::default()
        },
    )
    .generate()
}

/// Moves every arrival of `base` forward by `0..=JITTER_S` seconds drawn
/// from `seed`. Job count, sizes, runtimes and offered load are kept.
pub fn perturb(base: &Trace, seed: u64) -> Trace {
    let mut rng = Rng::new(seed).fork(base.system.id as u64);
    let jobs = base
        .jobs()
        .iter()
        .map(|job| {
            let mut job = job.clone();
            job.submit += rng.next_below(JITTER_S + 1) as i64;
            job
        })
        .collect();
    Trace::new(base.system.clone(), jobs).expect("a shifted trace stays valid")
}

/// A replay configuration without the utilization timeline.
pub fn sim_config(backfill: Backfill, relax: Relax) -> SimConfig {
    SimConfig {
        backfill,
        relax,
        record_timeline: false,
        ..SimConfig::default()
    }
}

/// Index of the first job that has to wait under FCFS + strict EASY, or
/// `None` when no job of the trace ever queues.
///
/// Whether a job starts on arrival depends only on the jobs before it, so
/// replaying growing prefixes finds the same index as replaying the whole
/// trace, at a fraction of the cost on a trace that is contended later.
pub fn queueing_onset(trace: &Trace) -> Option<usize> {
    let config = sim_config(Backfill::Easy, Relax::Strict);
    let mut len = 4_096.min(trace.len());
    loop {
        let prefix = prefix_of(trace, len);
        let replay = simulate(&prefix, &config);
        if let Some(first) = replay.jobs.iter().position(|j| j.wait.unwrap_or(0) > 0) {
            return Some(first);
        }
        if len == trace.len() {
            return None;
        }
        len = (len * 2).min(trace.len());
    }
}

/// The first `len` jobs of `trace`.
pub fn prefix_of(trace: &Trace, len: usize) -> Trace {
    Trace::new(trace.system.clone(), trace.jobs()[..len].to_vec()).expect("a prefix stays valid")
}

/// Jobs `[0, onset + ONSET_EXTRA)`: the stretch over which conservative
/// backfill first meets a standing queue. A fixed count would be a
/// knife-edge (the queue either has not formed or has run away); this
/// cut follows the queue wherever the trace puts it.
pub fn onset_prefix(trace: &Trace) -> Trace {
    let onset = queueing_onset(trace).unwrap_or(0);
    prefix_of(trace, (onset + ONSET_EXTRA).min(trace.len()))
}

/// What a command asks for; the reply must be of the matching kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Submit,
    Advance,
    Query,
    Stats,
    Snapshot,
}

impl Kind {
    /// How the one acceptable reply begins on the wire.
    pub fn reply_prefix(self) -> &'static [u8] {
        match self {
            Kind::Submit => b"{\"Submitted\"",
            Kind::Advance => b"{\"Advanced\"",
            Kind::Query => b"{\"Job\"",
            Kind::Stats => b"{\"Stats\"",
            Kind::Snapshot => b"{\"Snapshot\"",
        }
    }

    pub fn is_read(self) -> bool {
        matches!(self, Kind::Query | Kind::Stats | Kind::Snapshot)
    }
}

/// NDJSON request lines in one buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    text: String,
    /// End offset of each line in `text` (the newline excluded).
    ends: Vec<usize>,
    kinds: Vec<Kind>,
    pub submits: usize,
}

impl Stream {
    fn new() -> Self {
        Self {
            text: String::new(),
            ends: Vec::new(),
            kinds: Vec::new(),
            submits: 0,
        }
    }

    fn push(&mut self, request: &Request, kind: Kind) {
        request.to_line_into(&mut self.text);
        self.ends.push(self.text.len());
        self.text.push('\n');
        self.kinds.push(kind);
        self.submits += usize::from(kind == Kind::Submit);
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1] + 1
        }
    }

    pub fn line(&self, i: usize) -> &str {
        &self.text[self.start(i)..self.ends[i]]
    }

    /// Line `i` with its newline, as it goes on the wire.
    pub fn wire(&self, i: usize) -> &[u8] {
        &self.text.as_bytes()[self.start(i)..=self.ends[i]]
    }

    pub fn kind(&self, i: usize) -> Kind {
        self.kinds[i]
    }

    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let mut d = crate::util::Digest::new();
        d.bytes(self.text.as_bytes());
        d.0
    }
}

/// The wire form of `job`; `explicit_submit` pins its arrival time.
pub fn spec_of(job: &Job, explicit_submit: bool) -> SubmitSpec {
    SubmitSpec {
        id: job.id,
        procs: job.procs,
        runtime: job.runtime,
        walltime: job.walltime,
        user: Some(job.user),
        submit: explicit_submit.then_some(job.submit),
        virtual_cluster: job.virtual_cluster,
        tenant: None,
    }
}

/// The job the server builds from a wire submission (its private
/// `job_from_spec`); `now_floor` stands in for a missing arrival time.
pub fn job_from_spec(spec: &SubmitSpec, now_floor: i64) -> Job {
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

/// What `job` is once it has gone over the wire with its arrival time:
/// what a batch replay has to be fed to compare with the served run.
pub fn job_as_served(job: &Job) -> Job {
    job_from_spec(&spec_of(job, true), 0)
}

/// A sim time no job of a benchmark trace outlives.
const DRAINED: i64 = 4_000_000_000;

/// Ends a stream: run the machine dry, then read the counters that the
/// journal has to reproduce after a restart.
fn push_drain(stream: &mut Stream) {
    stream.push(&Request::Advance { to: DRAINED }, Kind::Advance);
    stream.push(&Request::Snapshot, Kind::Snapshot);
}

/// `trace` as a client would replay it: every job a `Submit` at its own
/// arrival time, an `Advance` whenever the arrivals have moved a minute
/// past the server's clock, a `Query` after every 8th job and a `Stats`
/// after every 1024th. `max_commands` cuts the stream short (the drain
/// comes on top).
pub fn firehose_stream(trace: &Trace, max_commands: usize) -> Stream {
    let mut stream = Stream::new();
    let mut clock = 0i64;
    for (i, job) in trace.jobs().iter().enumerate() {
        if stream.len() >= max_commands {
            break;
        }
        if job.submit >= clock + 60 {
            clock = job.submit;
            stream.push(&Request::Advance { to: clock }, Kind::Advance);
        }
        stream.push(
            &Request::Submit {
                job: spec_of(job, true),
            },
            Kind::Submit,
        );
        if (i + 1) % 8 == 0 {
            stream.push(&Request::Query { id: job.id }, Kind::Query);
        }
        if (i + 1) % 1024 == 0 {
            stream.push(&Request::Stats, Kind::Stats);
        }
    }
    push_drain(&mut stream);
    stream
}

/// Sim seconds the durable stream's clock moves per `Advance`: 62 jobs
/// arrive between two of them, Helios' own density.
const DURABLE_ADVANCE_S: i64 = 240;

/// The two lockstep streams of the durable workload, `per_connection`
/// commands each: jobs without an arrival time (they arrive at the
/// server's clock), and on the first connection an `Advance` as every
/// 32nd command. The first stream ends with the drain.
pub fn durable_streams(trace: &Trace, per_connection: usize) -> [Stream; 2] {
    let mut jobs = trace.jobs().iter();
    let mut streams = [Stream::new(), Stream::new()];
    let mut clock = 0i64;
    for i in 0..per_connection {
        for (c, stream) in streams.iter_mut().enumerate() {
            if c == 0 && (i + 1) % 32 == 0 {
                clock += DURABLE_ADVANCE_S;
                stream.push(&Request::Advance { to: clock }, Kind::Advance);
            } else {
                let job = jobs.next().expect("trace outlasts the durable stream");
                stream.push(
                    &Request::Submit {
                        job: spec_of(job, false),
                    },
                    Kind::Submit,
                );
            }
        }
    }
    push_drain(&mut streams[0]);
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::SystemSpec;

    fn helios_day() -> Trace {
        base_trace(SystemId::Helios, 1)
    }

    #[test]
    fn perturbation_keeps_size_and_load_and_follows_the_seed() {
        let base = helios_day();
        let a = perturb(&base, 7);
        let b = perturb(&base, 7);
        let c = perturb(&base, 8);
        assert_eq!(a, b, "same seed, same inputs");
        assert_ne!(a, c, "another seed, another instance");
        assert_eq!(a.len(), base.len());
        let work = |t: &Trace| {
            t.jobs()
                .iter()
                .map(|j| j.procs as i64 * j.runtime)
                .sum::<i64>()
        };
        assert_eq!(work(&a), work(&base));
        let mut by_id: Vec<&Job> = a.jobs().iter().collect();
        by_id.sort_by_key(|j| j.id);
        for (moved, original) in by_id.iter().zip(base.jobs()) {
            let shift = moved.submit - original.submit;
            assert!((0..=JITTER_S as i64).contains(&shift));
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let base = helios_day();
        let one = firehose_stream(&perturb(&base, 3), 5_000);
        let same = firehose_stream(&perturb(&base, 3), 5_000);
        let other = firehose_stream(&perturb(&base, 4), 5_000);
        assert_eq!(one, same);
        assert_eq!(one.digest(), same.digest());
        assert_ne!(one.digest(), other.digest());
        let [a, b] = durable_streams(&perturb(&base, 3), 200);
        let [a2, b2] = durable_streams(&perturb(&base, 3), 200);
        assert_eq!((a.digest(), b.digest()), (a2.digest(), b2.digest()));
    }

    #[test]
    fn firehose_stream_has_the_stated_mix_and_parses() {
        let stream = firehose_stream(&helios_day(), 9_000);
        // Cut at 9 000, at most a Submit/Query/Stats over, plus the drain.
        assert!((9_002..=9_005).contains(&stream.len()), "{}", stream.len());
        let count = |k: Kind| (0..stream.len()).filter(|&i| stream.kind(i) == k).count();
        assert_eq!(count(Kind::Submit), stream.submits);
        assert_eq!(count(Kind::Query), stream.submits / 8);
        assert_eq!(count(Kind::Stats), stream.submits / 1024);
        assert_eq!(count(Kind::Snapshot), 1);
        let mut clock = 0;
        for i in 0..stream.len() {
            match Request::parse(stream.line(i)).expect("every line parses") {
                Request::Advance { to } => {
                    assert!(to >= clock + 60, "an Advance only when a minute has passed");
                    clock = to;
                }
                Request::Submit { job } => {
                    let at = job.submit.expect("arrival time is explicit");
                    assert!(at >= clock, "no arrival in the server's past");
                    assert!(at < clock + 60);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn durable_streams_advance_on_one_connection_only() {
        let [a, b] = durable_streams(&helios_day(), 64);
        assert_eq!(a.len(), 64 + 2);
        assert_eq!(b.len(), 64);
        assert_eq!(a.kind(31), Kind::Advance);
        assert_eq!(a.kind(63), Kind::Advance);
        assert!((0..b.len()).all(|i| b.kind(i) == Kind::Submit));
        assert!(b.line(0).contains("\"submit\":null"));
    }

    /// A 10-unit machine and hand-made jobs: job 3 is the first to queue.
    fn tiny_trace(extra: usize) -> Trace {
        let mut system = SystemSpec::theta();
        system.total_nodes = 10;
        system.units_per_node = 1;
        system.total_units = 10;
        let mut jobs = vec![
            Job::basic(0, 1, 0, 100, 4),
            Job::basic(1, 1, 1, 100, 4),
            Job::basic(2, 1, 2, 5, 2),
            Job::basic(3, 1, 10, 50, 8),
        ];
        for i in 0..extra {
            jobs.push(Job::basic(4 + i as u64, 1, 1_000 + i as i64 * 1_000, 10, 1));
        }
        Trace::new(system, jobs).unwrap()
    }

    #[test]
    fn onset_is_the_first_job_that_waits() {
        assert_eq!(queueing_onset(&tiny_trace(0)), Some(3));
        // Jobs after the onset do not move it, however many prefixes the
        // search replays.
        assert_eq!(queueing_onset(&tiny_trace(9_000)), Some(3));
        let calm = prefix_of(&tiny_trace(0), 3);
        assert_eq!(queueing_onset(&calm), None);
    }

    #[test]
    fn onset_prefix_keeps_a_fixed_stretch_past_the_onset() {
        let long = tiny_trace(9_000);
        assert_eq!(onset_prefix(&long).len(), 3 + ONSET_EXTRA);
        let short = tiny_trace(5);
        assert_eq!(
            onset_prefix(&short).len(),
            short.len(),
            "capped at the trace"
        );
        // Equal to the rule applied to a full replay.
        let full = simulate(&long, &sim_config(Backfill::Easy, Relax::Strict));
        let first = full.jobs.iter().position(|j| j.wait.unwrap_or(0) > 0);
        assert_eq!(first, queueing_onset(&long));
    }
}
