//! The three `sim-*` workloads: batch replays through `lumos_sim`.

use std::hint::black_box;
use std::time::Instant;

use lumos_core::{SystemId, Trace};
use lumos_sim::profile::CapacityProfile;
use lumos_sim::{simulate, Backfill, Relax, SimConfig, SimResult, SimSession};

use crate::inputs::{base_trace, onset_prefix, perturb, sim_config};
use crate::outcome::Outcome;
use crate::span::Tracer;
use crate::util::{best, median, median_seconds, repeat, Digest, Setup};

/// One `simulate()` call of an op.
struct Pass {
    /// Span around the replay, named after the backfill discipline.
    span: &'static str,
    /// The per-layer rate this replay counts towards, if any.
    rate: Option<&'static str>,
    trace: usize,
    config: SimConfig,
}

struct Inputs {
    traces: Vec<Trace>,
    /// The op: these replays, in this order.
    passes: Vec<Pass>,
    /// Replays only the traced run adds, to set a pass against.
    reference_passes: Vec<Pass>,
    /// `(system, days)` of every generated base trace.
    generated: Vec<(SystemId, u32)>,
}

fn pass(discipline: &str, trace: usize) -> Pass {
    let (span, rate, backfill, relax) = match discipline {
        "none" => (
            "sim.simulate.none",
            "sim.none.jobs_per_s",
            Backfill::None,
            Relax::Strict,
        ),
        "easy" => (
            "sim.simulate.easy",
            "sim.easy.jobs_per_s",
            Backfill::Easy,
            Relax::Strict,
        ),
        "adaptive" => (
            "sim.simulate.adaptive",
            "sim.adaptive.jobs_per_s",
            Backfill::Easy,
            Relax::Adaptive { base: 0.1 },
        ),
        "conservative" => (
            "sim.simulate.conservative",
            "sim.conservative.jobs_per_s",
            Backfill::Conservative,
            Relax::Strict,
        ),
        other => unreachable!("no discipline `{other}`"),
    };
    Pass {
        span,
        rate: Some(rate),
        trace,
        config: sim_config(backfill, relax),
    }
}

fn build(workload: &str, seed: u64) -> Inputs {
    match workload {
        "sim-shallow" => Inputs {
            traces: vec![perturb(&base_trace(SystemId::Helios, 4), seed)],
            passes: ["none", "easy", "adaptive", "conservative"]
                .map(|d| pass(d, 0))
                .into(),
            reference_passes: Vec::new(),
            generated: vec![(SystemId::Helios, 4)],
        },
        "sim-deep" => Inputs {
            traces: vec![perturb(&base_trace(SystemId::BlueWaters, 1), seed)],
            passes: vec![pass("easy", 0), pass("adaptive", 0)],
            reference_passes: Vec::new(),
            generated: vec![(SystemId::BlueWaters, 1)],
        },
        "sim-conservative" => Inputs {
            traces: vec![
                onset_prefix(&perturb(&base_trace(SystemId::BlueWaters, 1), seed)),
                perturb(&base_trace(SystemId::Philly, 8), seed),
            ],
            // The per-layer rates set conservative against EASY on the
            // prefix, so the Philly replay stays out of them.
            passes: vec![
                pass("conservative", 0),
                Pass {
                    rate: None,
                    ..pass("conservative", 1)
                },
            ],
            reference_passes: vec![pass("easy", 0)],
            generated: vec![(SystemId::BlueWaters, 1), (SystemId::Philly, 8)],
        },
        other => unreachable!("no sim workload `{other}`"),
    }
}

/// Digest of every job's id and wait, in result order.
fn waits_digest(result: &SimResult) -> u64 {
    let mut d = Digest::new();
    for job in &result.jobs {
        d.i64(job.id as i64);
        d.i64(job.wait.unwrap_or(-1));
    }
    d.0
}

/// Checks one replay against the engine's invariants and the digest the
/// same pass gave before; returns whether it holds.
fn verify(result: &SimResult, trace: &Trace, reference: &mut Option<u64>) -> bool {
    let digest = waits_digest(result);
    let repeats = *reference.get_or_insert(digest) == digest;
    repeats
        && result.jobs.len() == trace.len()
        && result.events == 2 * trace.len() as u64
        && result.jobs.iter().all(|j| j.wait.is_some())
}

fn jobs_per_op(inputs: &Inputs) -> usize {
    inputs
        .passes
        .iter()
        .map(|p| inputs.traces[p.trace].len())
        .sum()
}

pub fn run(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut build = || build(workload, seed);
    let (setup, inputs) = Setup::first(&mut build);
    let mut out = Outcome::default();
    let mut references = vec![None; inputs.passes.len()];
    let mut op_p50_ms = Vec::new();
    let reps = repeat(seconds, |_, stopwatch| {
        let mut ops_ms = Vec::with_capacity(inputs.passes.len());
        stopwatch.measure(|| {
            for (pass, reference) in inputs.passes.iter().zip(&mut references) {
                let trace = &inputs.traces[pass.trace];
                let t0 = Instant::now();
                let result = simulate(black_box(trace), &pass.config);
                ops_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.attempted += 1;
                out.failed += u64::from(!verify(&result, trace, reference));
            }
        });
        op_p50_ms.push(median(&mut ops_ms));
        true
    });
    let (setup_s, rounds) = setup.finish(&mut build);
    out.note(format!(
        "{} replays over {} jobs per repetition; {} repetitions; set-up median of {rounds} rounds",
        inputs.passes.len(),
        jobs_per_op(&inputs),
        reps.wall.len(),
    ));
    out.set_end_to_end(
        jobs_per_op(&inputs) as f64,
        &reps,
        best(&op_p50_ms),
        setup_s,
    );
    out
}

/// Drives a session the way `simulate()` does, one span per call group:
/// every job submitted up front, then the clock advanced arrival block
/// by arrival block with the event log drained after each, then the
/// result folded.
fn session_replay(trace: &Trace, config: &SimConfig, tracer: &mut Tracer) -> SimResult {
    let mut session = SimSession::new(&trace.system, *config);
    for (block, jobs) in trace.jobs().chunks(256).enumerate() {
        let open = tracer.begin("sim.session.submit", block as u32);
        for job in jobs {
            session
                .submit(job.clone())
                .expect("trace jobs are valid and unique");
        }
        tracer.end(open, jobs.len() as u32);
    }
    let targets = trace
        .jobs()
        .chunks(1024)
        .map(|jobs| jobs.last().expect("chunks are non-empty").submit)
        .chain(std::iter::once(i64::MAX));
    for (block, target) in targets.enumerate() {
        let before = session.events_processed();
        let open = tracer.begin("sim.session.advance", block as u32);
        if target == i64::MAX {
            session.advance_to_completion();
        } else {
            session.advance_to(target);
        }
        tracer.end(open, (session.events_processed() - before) as u32);
        let open = tracer.begin("sim.session.drain", block as u32);
        let events = session.drain_events();
        tracer.end(open, black_box(events.len()) as u32);
    }
    let open = tracer.begin("sim.session.result", 0);
    let result = session.into_result();
    tracer.end(open, 1);
    result
}

/// Mean nanoseconds of one call, over `calls` calls in `elapsed`.
fn ns_per(elapsed: std::time::Duration, calls: usize) -> f64 {
    elapsed.as_nanos() as f64 / calls.max(1) as f64
}

/// Times `CapacityProfile` on the machine state halfway through the
/// arrivals of `result`: in-place queries as EASY issues them, and the
/// copy-then-carve cycle conservative backfill runs per pass.
fn profile_probe(trace: &Trace, result: &SimResult, out: &mut Outcome) {
    let jobs = &result.jobs;
    let now = (trace.start_time() + trace.end_time()) / 2;
    let start_of = |j: &lumos_core::Job| j.submit + j.wait.expect("replayed");
    let running: Vec<(i64, u64)> = jobs
        .iter()
        .filter(|j| start_of(j) <= now && now < start_of(j) + j.runtime)
        .map(|j| ((start_of(j) + j.planning_walltime()).max(now + 1), j.procs))
        .collect();
    let capacity = trace.system.total_units;
    let profile = CapacityProfile::from_running(now, capacity, &running);
    // What the scheduler would be asked next: the jobs queued at `now`,
    // then the arrivals after it.
    let queries: Vec<(u64, i64)> = jobs
        .iter()
        .filter(|j| j.submit <= now && now < start_of(j))
        .chain(jobs.iter().filter(|j| j.submit > now))
        .take(256)
        .map(|j| (j.procs.min(capacity), j.planning_walltime().max(1)))
        .collect();
    out.set("sim.profile.points", profile.len() as f64);
    if queries.is_empty() {
        return;
    }

    const FIT_CALLS: usize = 20_000;
    let t0 = Instant::now();
    for &(procs, duration) in queries.iter().cycle().take(FIT_CALLS) {
        black_box(profile.earliest_fit(black_box(now), procs, duration));
    }
    out.set(
        "sim.profile.earliest_fit_ns",
        ns_per(t0.elapsed(), FIT_CALLS),
    );

    // The reservations one conservative pass would carve, found once so
    // that the timed rounds replay exactly these and nothing else.
    let mut scratch = profile.clone();
    let mut carved = Vec::new();
    for &(procs, duration) in &queries {
        if let Some(from) = scratch.earliest_fit(now, procs, duration) {
            scratch.reserve(from, from + duration, procs);
            carved.push((from, from + duration, procs));
        }
    }
    const ROUNDS: usize = 50;
    let (mut copying, mut carving) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        scratch.clone_from(black_box(&profile));
        copying += t0.elapsed();
        let t0 = Instant::now();
        for &(from, to, procs) in &carved {
            scratch.reserve(from, to, procs);
        }
        carving += t0.elapsed();
        black_box(scratch.len());
    }
    out.set("sim.profile.clone_from_ns", ns_per(copying, ROUNDS));
    out.set(
        "sim.profile.reserve_ns",
        ns_per(carving, ROUNDS * carved.len()),
    );
}

/// Times checkpointing a session halfway through the arrivals: what a
/// rotation snapshot and a restart pay in the engine.
fn checkpoint_probe(trace: &Trace, config: &SimConfig, out: &mut Outcome) {
    let mut session = SimSession::new(&trace.system, *config);
    for job in trace.jobs() {
        session.submit(job.clone()).expect("valid job");
    }
    session.advance_to((trace.start_time() + trace.end_time()) / 2);
    let (mut saving, mut restoring) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let state = black_box(session.save_state());
        saving.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let restored = SimSession::restore(&trace.system, state).expect("own state restores");
        restoring.push(t0.elapsed().as_secs_f64() * 1e3);
        black_box(restored.now());
    }
    out.set("sim.session.save_state_ms", median(&mut saving));
    out.set("sim.session.restore_ms", median(&mut restoring));
}

/// Jobs per second of trace generation over the workload's base traces.
pub fn generation_rate(generated: &[(SystemId, u32)]) -> f64 {
    let mut jobs = 0;
    let seconds = median_seconds(f64::INFINITY, 3, || {
        jobs = generated
            .iter()
            .map(|&(id, days)| black_box(base_trace(id, days)).len())
            .sum();
    });
    jobs as f64 / seconds
}

pub fn run_traced(workload: &str, seed: u64, seconds: f64) -> (Outcome, Tracer) {
    let inputs = build(workload, seed);
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true);
    let all_passes: Vec<&Pass> = inputs
        .passes
        .iter()
        .chain(&inputs.reference_passes)
        .collect();
    let mut references = vec![None; all_passes.len()];
    let mut first_result = None;

    // The op with a span around every replay.
    let mut pass_seconds: Vec<Vec<f64>> = vec![Vec::new(); all_passes.len()];
    let begun = Instant::now();
    let mut op = 0u32;
    while op < 2 || begun.elapsed().as_secs_f64() < seconds / 2.0 {
        let whole = tracer.begin("sim.op", op);
        for (i, pass) in all_passes.iter().enumerate() {
            let trace = &inputs.traces[pass.trace];
            let t0 = Instant::now();
            let open = tracer.begin(pass.span, op);
            let result = simulate(black_box(trace), &pass.config);
            tracer.end(open, trace.len() as u32);
            pass_seconds[i].push(t0.elapsed().as_secs_f64());
            out.attempted += 1;
            out.failed += u64::from(!verify(&result, trace, &mut references[i]));
            first_result.get_or_insert(result);
        }
        tracer.end(whole, 1);
        op += 1;
    }
    for (pass, timings) in all_passes.iter().zip(&pass_seconds) {
        if let Some(rate) = pass.rate {
            let jobs = inputs.traces[pass.trace].len() as f64;
            out.set(rate, jobs / median(&mut timings.clone()));
        }
    }

    // The engine's own calls, on the op's first replay.
    let first = &inputs.passes[0];
    let trace = &inputs.traces[first.trace];
    let reference = first_result.expect("at least one op ran");
    let driven = session_replay(trace, &first.config, &mut tracer);
    out.attempted += 1;
    let same = waits_digest(&driven) == waits_digest(&reference)
        && driven.metrics == reference.metrics
        && driven.events == reference.events;
    out.failed += u64::from(!same);
    out.check(same, || {
        "the session driven call by call gave another schedule than simulate()".into()
    });
    let stats = tracer.stats();
    out.set(
        "sim.session.submit_ns_per_job",
        stats["sim.session.submit"].self_ns_per_unit(),
    );
    out.set(
        "sim.session.advance_ns_per_event",
        stats["sim.session.advance"].self_ns_per_unit(),
    );
    out.set(
        "sim.session.result_s",
        stats["sim.session.result"].total_ns as f64 / 1e9,
    );
    let driven_s = [
        "sim.session.submit",
        "sim.session.advance",
        "sim.session.drain",
        "sim.session.result",
    ]
    .iter()
    .map(|call| stats[call].total_ns)
    .sum::<u64>() as f64
        / 1e9;
    out.note(format!(
        "session driven call by call: {:.4} s (submit + advance + drain + result) against \
         {:.4} s for the same replay through simulate()",
        driven_s,
        median(&mut pass_seconds[0].clone())
    ));

    profile_probe(trace, &reference, &mut out);
    checkpoint_probe(trace, &first.config, &mut out);
    out.set(
        "sim.events_per_job",
        reference.events as f64 / trace.len() as f64,
    );
    out.set("sim.mean_wait_s", reference.metrics.mean_wait);
    out.set("sim.util", reference.metrics.util);
    // The low 32 bits are exact in an f64; a speed-only change must
    // leave them as they are.
    out.set(
        "sim.waits_digest",
        (waits_digest(&reference) & 0xffff_ffff) as f64,
    );
    out.set(
        "traces.generate_jobs_per_s",
        generation_rate(&inputs.generated),
    );
    out.set("trace.overhead_frac", tracer.overhead_frac());
    (out, tracer)
}
