//! `paper-characterize`: every trace analysis and the Fig. 12 predictor
//! grid over a one-day suite; the simulator only runs in set-up.

use std::hint::black_box;
use std::time::Instant;

use lumos_analysis::{
    domination, failures, geometry, periodicity, report, submission, user_failures, user_groups,
    waiting,
};
use lumos_core::{SystemId, Trace};
use lumos_predict::{evaluate_trace, Dataset};
use lumos_sim::{simulate, SimConfig};
use rayon::prelude::*;
use serde::Serialize;

use crate::inputs::{base_trace, perturb};
use crate::outcome::Outcome;
use crate::span::Tracer;
use crate::util::{best, median, median_seconds, peak_rss_mb, repeat, Digest, Setup};

/// Days of the suite. One day of Blue Waters is what a set-up round can
/// afford to replay (1.3 s); two take 3.5 s.
const SUITE_DAYS: u32 = 1;
/// The elapsed points of Fig. 12: 1/8, 1/4 and 1/2 of the mean runtime.
const ELAPSED_FRACS: [f64; 3] = [0.125, 0.25, 0.5];
/// Cap on instances per system for Fig. 12. The CLI uses 20 000, which
/// makes a pass 5 s; 5 000 keeps five passes inside a ten-second run.
const MAX_INSTANCES: usize = 5_000;
/// Systems whose trace is large enough for every Fig. 12 row.
const LARGE: [SystemId; 3] = [SystemId::BlueWaters, SystemId::Philly, SystemId::Helios];

struct Inputs {
    suite: Vec<Trace>,
    /// Each trace with the waits a default replay observed.
    replayed: Vec<Trace>,
}

/// The five paper systems, generated in parallel as
/// `lumos_traces::generate_paper_suite` does, each from the base seed
/// itself so that Blue Waters is the day `sim-deep` replays.
fn base_suite() -> Vec<Trace> {
    SystemId::PAPER_SYSTEMS
        .par_iter()
        .map(|&id| base_trace(id, SUITE_DAYS))
        .collect()
}

fn build(seed: u64) -> Inputs {
    let suite: Vec<Trace> = base_suite()
        .iter()
        .map(|base| perturb(base, seed))
        .collect();
    // In parallel, as `lumos_analysis::analyze_suite` replays them.
    let replayed = suite
        .par_iter()
        .map(|trace| {
            let replay = simulate(trace, &SimConfig::default());
            Trace::new(trace.system.clone(), replay.jobs).expect("a replay keeps the trace valid")
        })
        .collect();
    Inputs { suite, replayed }
}

fn absorb(digest: &mut Digest, output: &impl Serialize) {
    let json = serde_json::to_string(output).expect("analysis outputs serialize");
    digest.bytes(black_box(json).as_bytes());
}

/// What one full pass gave.
struct PassResult {
    /// Digest of every output.
    digest: u64,
    /// Whether the large systems got their Fig. 12 rows.
    fig12_complete: bool,
    /// Wall ms of each system's characterization: the ops of the pass.
    ops_ms: Vec<f64>,
}

fn pass(inputs: &Inputs, tracer: &mut Tracer, op: u32) -> PassResult {
    let mut digest = Digest::new();
    let mut fig12_complete = true;
    let mut ops_ms = Vec::with_capacity(inputs.suite.len());
    for (trace, replayed) in inputs.suite.iter().zip(&inputs.replayed) {
        let t0 = Instant::now();
        let open = tracer.begin("analysis.trace_only", op);
        absorb(&mut digest, &report::overview(trace));
        let kde = tracer.begin("analysis.kde", op);
        absorb(&mut digest, &geometry::runtime_geometry(trace));
        tracer.end(kde, 1);
        absorb(&mut digest, &geometry::arrival_geometry(trace));
        absorb(&mut digest, &geometry::resource_geometry(trace));
        absorb(&mut digest, &domination::domination(trace));
        absorb(&mut digest, &failures::failure_analysis(trace));
        absorb(&mut digest, &failures::failure_correlations(trace));
        absorb(&mut digest, &periodicity::periodicity(trace));
        absorb(&mut digest, &user_groups::group_curve(trace, 20));
        absorb(&mut digest, &user_failures::top_user_violins(trace, 3));
        tracer.end(open, 1);

        let open = tracer.begin("analysis.replayed", op);
        absorb(&mut digest, &waiting::waiting_analysis(replayed));
        absorb(&mut digest, &submission::submission_behaviour(replayed));
        tracer.end(open, 1);

        let open = tracer.begin("predict.evaluate", op);
        let rows = evaluate_trace(trace, &ELAPSED_FRACS, MAX_INSTANCES);
        tracer.end(open, trace.len().min(MAX_INSTANCES) as u32);
        if LARGE.contains(&trace.system.id) {
            fig12_complete &= !rows.is_empty();
        }
        absorb(&mut digest, &rows);
        ops_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    PassResult {
        digest: digest.0,
        fig12_complete,
        ops_ms,
    }
}

fn suite_jobs(inputs: &Inputs) -> usize {
    inputs.suite.iter().map(Trace::len).sum()
}

/// Runs `pass` and counts its ops; they fail when the digest differs
/// from the first pass's or a large system came back without Fig. 12
/// rows. Returns the median op of the pass in ms.
fn checked_pass(
    inputs: &Inputs,
    tracer: &mut Tracer,
    op: u32,
    reference: &mut Option<u64>,
    out: &mut Outcome,
) -> f64 {
    let mut result = pass(inputs, tracer, op);
    let ops = result.ops_ms.len() as u64;
    out.attempted += ops;
    let repeats = *reference.get_or_insert(result.digest) == result.digest;
    if !(repeats && result.fig12_complete) {
        out.failed += ops;
    }
    median(&mut result.ops_ms)
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    // Set-up and a first, untimed pass run on the calling thread alone, and
    // the peak RSS is read after them. The pool starts fresh workers for
    // every parallel call, and which malloc arena a worker gets, and what
    // that arena has kept from the worker before it, follows their timing:
    // with two workers the same inputs peaked at 33.6 MB or at 41.8 MB,
    // depending on the host's load. On one thread they peak at 29.1 MB to
    // 29.8 MB. The timed repetitions use the pool at its default size.
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool is configuration only");
    let mut build = || one_thread.install(|| build(seed));
    let (setup, inputs) = Setup::first(&mut build);
    let mut out = Outcome::default();
    let mut untraced = Tracer::new(false);
    let mut reference = None;
    one_thread.install(|| checked_pass(&inputs, &mut untraced, 0, &mut reference, &mut out));
    let peak_rss_mb = peak_rss_mb();
    let mut op_p50_ms = Vec::new();
    let mut reps =
        repeat(seconds, |op, stopwatch| {
            op_p50_ms.push(stopwatch.measure(|| {
                checked_pass(&inputs, &mut untraced, op as u32, &mut reference, &mut out)
            }));
            true
        });
    reps.peak_rss_mb = peak_rss_mb;
    let (setup_s, rounds) = setup.finish(&mut build);
    out.note(format!(
        "{} systems, {} jobs per repetition; one pass on one thread, then {} repetitions on {} \
         worker threads; set-up on one thread, median of {rounds} rounds",
        inputs.suite.len(),
        suite_jobs(&inputs),
        reps.wall.len(),
        rayon::current_num_threads(),
    ));
    out.set_end_to_end(suite_jobs(&inputs) as f64, &reps, best(&op_p50_ms), setup_s);
    out
}

pub fn run_traced(seed: u64, seconds: f64) -> (Outcome, Tracer) {
    let inputs = build(seed);
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true);
    let mut reference = None;
    let begun = Instant::now();
    let mut op = 0u32;
    while op < 2 || begun.elapsed().as_secs_f64() < seconds / 2.0 {
        let whole = tracer.begin("paper.op", op);
        checked_pass(&inputs, &mut tracer, op, &mut reference, &mut out);
        tracer.end(whole, 1);
        op += 1;
    }

    // Seconds of one pass spent under each span name: the five systems'
    // spans of one op summed, then the median over ops.
    let systems = inputs.suite.len();
    let per_pass = |name: &str| {
        let mut sums: Vec<f64> = tracer
            .seconds_of(name)
            .chunks(systems)
            .map(|op| op.iter().sum())
            .collect();
        median(&mut sums)
    };
    let kde_s = per_pass("analysis.kde");
    out.set("analysis.kde_s", kde_s);
    out.set(
        "analysis.trace_only_s",
        per_pass("analysis.trace_only") - kde_s,
    );
    out.set("analysis.replayed_s", per_pass("analysis.replayed"));
    let evaluate_s = per_pass("predict.evaluate");
    out.set("predict.evaluate_s", evaluate_s);
    let instances: usize = inputs
        .suite
        .iter()
        .map(|t| t.len().min(MAX_INSTANCES))
        .sum();
    out.set("predict.instances_per_s", instances as f64 / evaluate_s);

    // `evaluate_trace` builds its dataset inside; timed apart here.
    let dataset_s = median_seconds(f64::INFINITY, 3, || {
        for trace in &inputs.suite {
            let open = tracer.begin("predict.dataset", 0);
            black_box(Dataset::from_trace(trace).len());
            tracer.end(open, trace.len() as u32);
        }
    });
    out.set("predict.dataset_s", dataset_s);
    let generate_s = median_seconds(f64::INFINITY, 3, || {
        black_box(base_suite().len());
    });
    out.set(
        "traces.generate_jobs_per_s",
        suite_jobs(&inputs) as f64 / generate_s,
    );
    out.set("trace.overhead_frac", tracer.overhead_frac());
    (out, tracer)
}
