//! What a session's scheduling passes report through
//! `SimSession::counts`: counts that add up to the schedule, that leave
//! it as batch replay makes it, and that a restore starts over.

use lumos_core::{Job, SystemId, SystemSpec, Trace};
use lumos_sim::{simulate, Backfill, PassCounts, Policy, Relax, SimConfig, SimSession};
use lumos_traces::{systems, Generator, GeneratorConfig};

/// 64 units.
fn system() -> SystemSpec {
    let mut s = SystemSpec::theta();
    s.name = "counts".into();
    s.total_nodes = 64;
    s.units_per_node = 1;
    s.total_units = 64;
    s
}

/// 600 jobs arriving every few seconds into 64 units, each finishing
/// before its walltime: a standing queue, and plans that an early
/// completion diverges again and again.
fn contended() -> Trace {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut draw = |below: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) % below
    };
    let mut submit = 0;
    let jobs = (0..600)
        .map(|id| {
            submit += draw(20) as i64;
            let runtime = 30 + draw(600) as i64;
            let mut job = Job::basic(id, (id % 7) as u32, submit, runtime, 1 + draw(48));
            job.walltime = Some(runtime + draw(900) as i64);
            job
        })
        .collect();
    Trace::new(system(), jobs).unwrap()
}

fn config(backfill: Backfill, relax: Relax) -> SimConfig {
    SimConfig {
        policy: Policy::Fcfs,
        backfill,
        relax,
        ..SimConfig::default()
    }
}

/// `trace` replayed through an indexed session, and what it counted.
fn replay(trace: &Trace, config: SimConfig) -> (SimSession, PassCounts) {
    let mut session = SimSession::new(&trace.system, config);
    assert_eq!(session.counts(), PassCounts::default());
    for job in trace.jobs() {
        session.submit(job.clone()).unwrap();
    }
    session.advance_to_completion();
    let counts = session.counts();
    (session, counts)
}

#[test]
fn conservative_counts_add_up_to_the_schedule() {
    let trace = contended();
    let config = config(Backfill::Conservative, Relax::Strict);
    let (session, c) = replay(&trace, config);
    // Every job started once: from the head, or behind it.
    assert_eq!(c.heads_started + c.backfills, trace.len() as u64);
    assert!(c.backfills > 0 && c.passes > 0);
    // Pairs, the forced among them, the breakpoints their fits read.
    assert!(c.pairs >= c.forced_pairs && c.forced_pairs > 0, "{c:?}");
    assert!(c.breakpoints_walked > 0, "{c:?}");
    // One partition, built once from nothing and rebuilt after early
    // completions; some passes stop short of the queue's tail.
    let r = c.rebuilds;
    assert_eq!(r.fresh, 1);
    assert!(r.completion > 0 && r.total() > r.completion, "{r:?}");
    assert_eq!((r.cancel, r.resort, r.overrun), (0, 0, 0), "{r:?}");
    assert!(c.horizon_cuts > 0, "{c:?}");
    assert_eq!(c.relaxation_s, 0, "no relaxation under conservative");
    // Counting leaves the schedule as batch replay makes it.
    let batch = simulate(&trace, &config);
    let result = session.into_result();
    assert_eq!(result.jobs, batch.jobs);
    assert_eq!(result.metrics, batch.metrics);
}

#[test]
fn relaxed_easy_counts_the_seconds_it_spends() {
    let trace = contended();
    let strict = replay(&trace, config(Backfill::Easy, Relax::Strict)).1;
    assert_eq!(strict.relaxation_s, 0);
    let relaxed = replay(&trace, config(Backfill::Easy, Relax::Fixed { factor: 1.0 })).1;
    assert!(relaxed.relaxation_s > 0, "{relaxed:?}");
    for c in [strict, relaxed] {
        assert_eq!(c.heads_started + c.backfills, trace.len() as u64);
        assert_eq!((c.pairs, c.rebuilds.total(), c.horizon_cuts), (0, 0, 0));
    }
}

#[test]
fn a_restore_starts_the_counts_at_zero() {
    let trace = contended();
    let config = config(Backfill::Conservative, Relax::Strict);
    let mut session = SimSession::new(&trace.system, config);
    for job in trace.jobs() {
        session.submit(job.clone()).unwrap();
    }
    let half = trace.jobs()[300].submit;
    session.advance_to(half);
    let before = session.counts();
    assert!(before.pairs > 0);
    let mut restored = SimSession::restore(&trace.system, session.save_state()).unwrap();
    assert_eq!(restored.counts(), PassCounts::default());
    restored.advance_to_completion();
    let after = restored.counts();
    // The restored session builds its plan afresh and counts only the
    // starts it makes itself.
    assert!(after.rebuilds.fresh == 1 && after.pairs > 0, "{after:?}");
    let started = before.heads_started + before.backfills + after.heads_started + after.backfills;
    assert_eq!(started, trace.len() as u64);
}

/// Jobs that complete before the end estimate the scheduler planned
/// with: the ones whose units the release ledger searches its keys for.
fn early(trace: &Trace) -> u64 {
    let early = |j: &&Job| j.runtime < j.planning_walltime().max(1);
    trace.jobs().iter().filter(early).count() as u64
}

#[test]
fn jobs_ending_on_their_estimate_cost_the_ledger_no_search() {
    // The contended trace without walltimes: every job plans with its
    // own runtime, so every completion lands on its estimate.
    let jobs = contended()
        .jobs()
        .iter()
        .map(|j| Job {
            walltime: None,
            ..j.clone()
        })
        .collect();
    let trace = Trace::new(system(), jobs).unwrap();
    assert_eq!(early(&trace), 0);
    for backfill in [Backfill::None, Backfill::Easy, Backfill::Conservative] {
        let c = replay(&trace, config(backfill, Relax::Strict)).1;
        let n = trace.len() as u64;
        assert_eq!(
            (
                c.keys_inserted,
                c.keys_removed_by_search,
                c.keys_released_by_clock
            ),
            (n, 0, n),
            "{backfill:?}"
        );
        // A completion on its estimate is what a kept plan holds, and the
        // job is gone before any pass could see it overrunning.
        let r = c.rebuilds;
        assert_eq!((r.completion, r.overrun), (0, 0), "{backfill:?}: {r:?}");
    }
}

#[test]
fn on_blue_waters_the_ledger_searches_for_the_early_finishers_alone() {
    let trace = Generator::new(
        systems::profile_for(SystemId::BlueWaters),
        GeneratorConfig {
            seed: 7,
            span_days: 1,
            ..GeneratorConfig::default()
        },
    )
    .generate();
    let n = trace.len() as u64;
    let early = early(&trace);
    assert!(0 < early && early < n, "{early} of {n}");
    let c = replay(&trace, config(Backfill::Easy, Relax::Strict)).1;
    assert_eq!(c.keys_inserted, n);
    assert_eq!(c.keys_removed_by_search, early);
    assert_eq!(c.keys_released_by_clock, n - early);
}
