//! Property-based tests for the scheduling simulator: conservation,
//! capacity, and determinism invariants over random workloads.

use lumos_core::{Job, SystemSpec, Trace};
use lumos_sim::profile::CapacityProfile;
use lumos_sim::{
    simulate, Backfill, Policy, Relax, SessionState, SimConfig, SimSession, StateDelta, Submission,
    TenantTable,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn tiny_system(capacity: u64) -> SystemSpec {
    let mut s = SystemSpec::theta();
    s.name = "prop".into();
    s.total_nodes = capacity as u32;
    s.units_per_node = 1;
    s.total_units = capacity;
    s
}

fn arb_jobs(capacity: u64) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec((0i64..5_000, 1i64..2_000, 1..=capacity, 1i64..4_000), 1..60).prop_map(
        |raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (submit, runtime, procs, wall))| {
                    let mut j = Job::basic(i as u64, (i % 5) as u32, submit, runtime, procs);
                    j.walltime = Some(runtime + wall);
                    j
                })
                .collect()
        },
    )
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        prop_oneof![
            Just(Policy::Fcfs),
            Just(Policy::Sjf),
            Just(Policy::Ljf),
            Just(Policy::Saf),
            Just(Policy::Sqf)
        ],
        prop_oneof![
            Just(Backfill::None),
            Just(Backfill::Easy),
            Just(Backfill::Conservative)
        ],
        prop_oneof![
            Just(Relax::Strict),
            Just(Relax::Fixed { factor: 0.1 }),
            Just(Relax::Adaptive { base: 0.1 })
        ],
    )
        .prop_map(|(policy, backfill, relax)| SimConfig {
            policy,
            backfill,
            relax,
            ..SimConfig::default()
        })
}

/// Verifies the fundamental schedule invariants: every job runs exactly
/// once, never before submission, and total occupancy never exceeds
/// capacity at any start instant.
fn check_schedule(trace: &Trace, config: &SimConfig) -> Result<(), TestCaseError> {
    let result = simulate(trace, config);
    prop_assert_eq!(result.jobs.len(), trace.len());

    let mut intervals: Vec<(i64, i64, u64)> = Vec::new();
    for j in &result.jobs {
        let wait = j.wait.expect("every job scheduled");
        prop_assert!(wait >= 0, "job {} started before submission", j.id);
        let start = j.submit + wait;
        intervals.push((start, start + j.runtime, j.procs));
    }
    // Capacity check at every start instant (occupancy only changes there).
    let capacity = trace.system.total_units;
    for &(t, _, _) in &intervals {
        let used: u64 = intervals
            .iter()
            .filter(|&&(s, e, _)| s <= t && t < e)
            .map(|&(_, _, p)| p)
            .sum();
        prop_assert!(
            used <= capacity,
            "capacity exceeded at t={t}: {used} > {capacity}"
        );
    }
    Ok(())
}

/// Replays the trace through a [`SimSession`] with a seed-derived
/// interleaving of `submit` / `advance_to` / read-only calls and checks
/// the outcome is identical to one batch [`simulate`] run.
fn check_incremental_matches_batch(
    trace: &Trace,
    config: &SimConfig,
    seed: u64,
) -> Result<(), TestCaseError> {
    let batch = simulate(trace, config);
    let mut rng = TestRng::new(seed);
    let mut session = SimSession::new(&trace.system, *config);
    for job in trace.jobs() {
        // Sometimes advance part of the way (any target ≤ the next submit
        // keeps the submission valid; past targets are no-ops).
        if rng.next_u64() % 3 == 0 {
            let target = rng.next_u64() as i64 % (job.submit + 1);
            session.advance_to(target.max(0));
        }
        // Read-only observers must never perturb the schedule.
        if rng.next_u64() % 4 == 0 {
            let _ = session.snapshot();
            let _ = session.drain_events();
        }
        session
            .submit(job.clone())
            .map_err(|e| TestCaseError::fail(format!("submit: {e}")))?;
    }
    let online = session.into_result();
    prop_assert_eq!(&online.jobs, &batch.jobs);
    prop_assert_eq!(&online.metrics, &batch.metrics);
    prop_assert_eq!(&online.timeline, &batch.timeline);
    prop_assert_eq!(online.max_queue_len, batch.max_queue_len);
    Ok(())
}

/// Drives a session through a seed-derived interleaving of submits,
/// partial advances and cancels, checking after every operation that the
/// release ledger matches a from-scratch rebuild
/// (`assert_profiles_match_rebuild`). Returns the most jobs seen running
/// at once.
fn check_ledger_matches_rebuild(
    trace: &Trace,
    config: SimConfig,
    seed: u64,
) -> Result<usize, TestCaseError> {
    let mut rng = TestRng::new(seed);
    let mut session = SimSession::new(&trace.system, config);
    session.assert_profiles_match_rebuild();
    let mut submitted: Vec<u64> = Vec::new();
    let mut peak_running = 0;
    for job in trace.jobs() {
        if rng.next_u64() % 3 == 0 {
            let target = rng.next_u64() as i64 % (job.submit + 1);
            session.advance_to(target.max(0));
            session.assert_profiles_match_rebuild();
            peak_running = peak_running.max(session.snapshot().running);
        }
        // Cancels exercise the mid-timeline reschedule path.
        if rng.next_u64() % 5 == 0 {
            if let Some(&victim) = submitted.get(rng.next_u64() as usize % submitted.len().max(1)) {
                session.cancel(victim);
                session.assert_profiles_match_rebuild();
            }
        }
        let id = job.id;
        session
            .submit(job.clone())
            .map_err(|e| TestCaseError::fail(format!("submit: {e}")))?;
        submitted.push(id);
        session.assert_profiles_match_rebuild();
    }
    // Event by event from here, so completions at, before and after the
    // estimate are each checked where they happen.
    while let Some(t) = session.next_event_time() {
        session.advance_to(t);
        session.assert_profiles_match_rebuild();
        peak_running = peak_running.max(session.snapshot().running);
    }
    Ok(peak_running)
}

/// Narrow jobs for a wide machine, so hundreds run at once: arrivals on a
/// 10 s grid and holds on a 50 s grid (end estimates collide and merge
/// into one ledger key), a third of the jobs ending exactly at their
/// estimate, a third running to twice it (overrunning), a third finishing
/// early.
fn arb_wide_jobs() -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec((0i64..30, 1i64..40, 1u64..4, 0u8..3, 1i64..20), 700..900).prop_map(
        |raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (slot, hold, procs, kind, slack))| {
                    let wall = hold * 50;
                    let runtime = match kind {
                        0 => wall,
                        1 => wall * 2,
                        _ => (wall - slack * 2).max(1),
                    };
                    let mut j = Job::basic(i as u64, (i % 5) as u32, slot * 10, runtime, procs);
                    j.walltime = Some(wall);
                    j
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same invariant where the ledger is more than one chunk: a
    /// 1 200-unit machine with at least 500 jobs running at once.
    #[test]
    fn ledger_matches_rebuild_with_hundreds_of_running_jobs(
        jobs in arb_wide_jobs(),
        config in arb_config(),
        seed in any::<u64>(),
    ) {
        let trace = Trace::new(tiny_system(1_200), jobs).unwrap();
        let peak_running = check_ledger_matches_rebuild(&trace, config, seed)?;
        prop_assert!(peak_running >= 500, "only {} jobs ran at once", peak_running);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_session_matches_batch_replay(
        jobs in arb_jobs(50),
        config in arb_config(),
        seed in any::<u64>(),
    ) {
        let trace = Trace::new(tiny_system(50), jobs).unwrap();
        check_incremental_matches_batch(&trace, &config, seed)?;
    }

    /// Arrivals submitted out of order, all before the first advance, take
    /// the pending queue's search branch (a batch replay only appends);
    /// the schedule must be the in-order one. Rows follow submission
    /// order, so waits are compared by id, and the mean, which sums in
    /// row order, is left out.
    #[test]
    fn shuffled_future_submissions_match_in_order_replay(
        jobs in arb_jobs(50),
        config in arb_config(),
        seed in any::<u64>(),
    ) {
        let trace = Trace::new(tiny_system(50), jobs).unwrap();
        let batch = simulate(&trace, &config);
        let mut shuffled: Vec<Job> = trace.jobs().to_vec();
        let mut rng = TestRng::new(seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.next_u64() as usize % (i + 1));
        }
        let mut session = SimSession::new(&trace.system, config);
        for j in shuffled {
            session.submit(j).map_err(|e| TestCaseError::fail(format!("submit: {e}")))?;
        }
        let online = session.into_result();
        let waits = |jobs: &[Job]| {
            let mut by_id: Vec<(u64, Option<i64>)> = jobs.iter().map(|j| (j.id, j.wait)).collect();
            by_id.sort_unstable();
            by_id
        };
        prop_assert_eq!(waits(&online.jobs), waits(&batch.jobs));
        prop_assert_eq!(online.metrics.violated_jobs, batch.metrics.violated_jobs);
        prop_assert_eq!(online.max_queue_len, batch.max_queue_len);
        prop_assert_eq!(online.metrics.median_wait.to_bits(), batch.metrics.median_wait.to_bits());
        prop_assert_eq!(online.metrics.p90_wait.to_bits(), batch.metrics.p90_wait.to_bits());
    }

    /// In a batch replay an id is only a label. Some jobs reuse the id of
    /// the job before them while that one is still live (submitted before
    /// it can finish, possibly in the same second). Relabelling every id
    /// as `2·id + occurrence` makes the ids unique and keeps the `(submit,
    /// id, row)` order, so each row must wait as long as before, and the
    /// metrics, timeline and queue depth must not move.
    #[test]
    fn a_batch_replay_reads_ids_only_as_labels(
        jobs in arb_jobs(50),
        config in arb_config(),
        seed in any::<u64>(),
    ) {
        let mut jobs = jobs;
        let mut rng = TestRng::new(seed);
        for i in (1..jobs.len()).step_by(2) {
            if rng.next_u64() % 2 == 0 {
                let first = jobs[i - 1].clone();
                jobs[i].id = first.id;
                jobs[i].submit = first.submit + (rng.next_u64() % first.runtime as u64) as i64;
            }
        }
        let trace = Trace::new(tiny_system(50), jobs).unwrap();
        let mut seen = std::collections::HashMap::new();
        let relabelled: Vec<Job> = trace
            .jobs()
            .iter()
            .map(|j| {
                let occurrence = seen.entry(j.id).or_insert(0u64);
                let mut j = j.clone();
                j.id = 2 * j.id + *occurrence;
                *occurrence += 1;
                j
            })
            .collect();
        prop_assert!(seen.values().all(|&n| n <= 2));
        let unique = Trace::new(trace.system.clone(), relabelled.clone()).unwrap();
        prop_assert_eq!(unique.jobs(), &relabelled[..], "relabelling kept the row order");

        let (a, b) = (simulate(&trace, &config), simulate(&unique, &config));
        let waits = |r: &lumos_sim::SimResult| r.jobs.iter().map(|j| j.wait).collect::<Vec<_>>();
        prop_assert_eq!(waits(&a), waits(&b));
        prop_assert_eq!(&a.metrics, &b.metrics);
        prop_assert_eq!(&a.timeline, &b.timeline);
        prop_assert_eq!(a.max_queue_len, b.max_queue_len);
        prop_assert_eq!(a.events, b.events);
    }

    /// A session checkpointed (through JSON) and restored at an arbitrary
    /// point mid-stream must finish with exactly the batch outcome — the
    /// invariant crash recovery in `lumos-serve` is built on.
    #[test]
    fn checkpoint_restore_matches_batch(
        jobs in arb_jobs(50),
        config in arb_config(),
        cut_seed in any::<u64>(),
    ) {
        let trace = Trace::new(tiny_system(50), jobs).unwrap();
        let batch = simulate(&trace, &config);
        let all: Vec<Job> = trace.jobs().to_vec();
        let cut = (cut_seed as usize) % (all.len() + 1);
        let mut session = SimSession::new(&trace.system, config);
        for j in &all[..cut] {
            session.submit(j.clone()).map_err(|e| TestCaseError::fail(format!("submit: {e}")))?;
        }
        if cut > 0 {
            session.advance_to(all[cut - 1].submit);
        }
        let json = serde_json::to_string(&session.save_state()).unwrap();
        let state: SessionState = serde_json::from_str(&json).unwrap();
        let mut session = SimSession::restore(&trace.system, state)
            .map_err(|e| TestCaseError::fail(format!("restore: {e}")))?;
        for j in &all[cut..] {
            session.submit(j.clone()).map_err(|e| TestCaseError::fail(format!("submit: {e}")))?;
        }
        let online = session.into_result();
        prop_assert_eq!(&online.jobs, &batch.jobs);
        prop_assert_eq!(&online.metrics, &batch.metrics);
        prop_assert_eq!(&online.timeline, &batch.timeline);
        prop_assert_eq!(online.max_queue_len, batch.max_queue_len);
    }

    /// The three calls the frozen benchmark still makes: a run of
    /// `round_submit`s closed by one `round_flush` must be byte-identical
    /// — per-job verdicts, the event log, and the complete saved state
    /// after every round — to the interleaved `submit` + `advance_to(now)`
    /// sequence they stand for, for any partition of the stream into
    /// rounds and under every policy/backfill/relaxation combination.
    #[test]
    fn submit_batch_matches_sequential_submits(
        jobs in arb_jobs(50),
        config in arb_config(),
        split_seed in any::<u64>(),
    ) {
        let trace = Trace::new(tiny_system(50), jobs).unwrap();
        let all: Vec<Job> = trace.jobs().to_vec();
        let mut rng = TestRng::new(split_seed);
        let mut seq = SimSession::new(&trace.system, config);
        let mut batch = SimSession::new(&trace.system, config);

        let mut i = 0usize;
        while i < all.len() {
            let take = (rng.next_u64() as usize % 7 + 1).min(all.len() - i);
            let chunk = &all[i..i + take];
            i += take;
            // Both sessions observe the chunk at the same instant: the
            // earliest arrival in it (later arrivals stay pending, which
            // both forms must agree on).
            let at = chunk[0].submit;
            seq.advance_to(at);
            batch.advance_to(at);

            let seq_verdicts: Vec<Result<(), String>> = chunk
                .iter()
                .map(|j| {
                    let v = seq.submit(j.clone()).map_err(|e| e.to_string());
                    let now = seq.now();
                    seq.advance_to(now);
                    v
                })
                .collect();
            let batch_verdicts: Vec<Result<(), String>> = chunk
                .iter()
                .map(|j| batch.round_submit(j.clone()).map_err(|e| e.to_string()))
                .collect();
            batch.round_flush();
            prop_assert_eq!(seq_verdicts, batch_verdicts);

            // Same events, in the same order...
            prop_assert_eq!(seq.drain_events(), batch.drain_events());
            // ... and the same complete state, down to reservations and
            // queue-depth watermarks.
            prop_assert_eq!(seq.save_state(), batch.save_state());
        }

        seq.advance_to_completion();
        batch.advance_to_completion();
        let seq_out = seq.into_result();
        let batch_out = batch.into_result();
        prop_assert_eq!(&seq_out.jobs, &batch_out.jobs);
        prop_assert_eq!(&seq_out.metrics, &batch_out.metrics);
        prop_assert_eq!(&seq_out.timeline, &batch_out.timeline);
        prop_assert_eq!(seq_out.max_queue_len, batch_out.max_queue_len);
    }

    #[test]
    fn schedules_are_feasible(jobs in arb_jobs(50), config in arb_config()) {
        let trace = Trace::new(tiny_system(50), jobs).unwrap();
        check_schedule(&trace, &config)?;
    }

    #[test]
    fn simulation_is_deterministic(jobs in arb_jobs(50), config in arb_config()) {
        let trace = Trace::new(tiny_system(50), jobs).unwrap();
        let a = simulate(&trace, &config);
        let b = simulate(&trace, &config);
        prop_assert_eq!(a.jobs, b.jobs);
    }

    #[test]
    fn strict_easy_never_violates(jobs in arb_jobs(50)) {
        let trace = Trace::new(tiny_system(50), jobs).unwrap();
        let r = simulate(&trace, &SimConfig::default());
        prop_assert_eq!(r.metrics.violated_jobs, 0);
    }

    #[test]
    fn utilization_is_a_fraction(jobs in arb_jobs(50), config in arb_config()) {
        let trace = Trace::new(tiny_system(50), jobs).unwrap();
        let r = simulate(&trace, &config);
        prop_assert!(r.metrics.util >= 0.0);
        prop_assert!(r.metrics.util <= 1.0 + 1e-9, "util {}", r.metrics.util);
        prop_assert!(r.metrics.mean_bsld >= 1.0);
    }

    #[test]
    fn capacity_profile_reserve_fits_coherence(
        capacity in 1u64..1_000,
        from in 0i64..1_000,
        len in 1i64..1_000,
        procs in 1u64..1_000,
    ) {
        let mut p = CapacityProfile::new(0, capacity);
        if procs <= capacity {
            prop_assert!(p.fits(from, from + len, procs));
            p.reserve(from, from + len, procs);
            // Remaining capacity inside the window is reduced exactly.
            prop_assert_eq!(p.free_at(from), capacity - procs);
            prop_assert_eq!(p.free_at(from + len), capacity);
            prop_assert!(!p.fits(from, from + len, capacity - procs + 1));
        } else {
            prop_assert!(!p.fits(from, from + len, procs));
        }
    }

    /// After an *arbitrary* interleaving of submits, time advances, and
    /// cancels, every partition's release ledger — as a scheduling pass
    /// would view it — is point-for-point identical to a profile rebuilt
    /// from scratch from the running jobs, under every
    /// policy/backfill/relaxation combination.
    #[test]
    fn incremental_profile_matches_rebuild_over_random_op_sequences(
        jobs in arb_jobs(50),
        config in arb_config(),
        seed in any::<u64>(),
    ) {
        let trace = Trace::new(tiny_system(50), jobs).unwrap();
        check_ledger_matches_rebuild(&trace, config, seed)?;
    }

    /// The profile's reservations against a naive dense-array model: any
    /// sequence of fitting reservations leaves `free_at`, `fits`, and
    /// `earliest_fit` agreeing with brute force everywhere.
    #[test]
    fn profile_ops_match_dense_model(
        ops in prop::collection::vec((0i64..200, 1i64..60, 1u64..40), 1..20),
        queries in prop::collection::vec((0i64..300, 1u64..120, 0i64..80), 1..20),
    ) {
        let capacity = 100u64;
        let horizon = 400usize;
        let mut p = CapacityProfile::new(0, capacity);
        let mut dense = vec![capacity; horizon];
        for (from, len, procs) in ops {
            let to = from + len;
            // Only apply reservations the dense model says fit (mirrors
            // the scheduler, which checks before reserving).
            let fits = dense[from as usize..to as usize].iter().all(|&f| f >= procs);
            prop_assert_eq!(p.fits(from, to, procs), fits);
            if fits {
                p.reserve(from, to, procs);
                for f in &mut dense[from as usize..to as usize] { *f -= procs; }
            }
        }
        for (t, procs, dur) in queries {
            prop_assert_eq!(p.free_at(t), dense[t as usize], "free_at({})", t);
            // Brute-force earliest fit over the dense model.
            let expect = (t..horizon as i64 - dur).find(|&s| {
                dense[s as usize..(s + dur) as usize].iter().all(|&f| f >= procs)
            });
            let got = p.earliest_fit(t, procs, dur);
            // The profile's last segment extends to infinity; the dense
            // model stops at the horizon. Compare within the horizon.
            if let Some(e) = expect {
                prop_assert_eq!(got, Some(e));
            }
        }
    }

    #[test]
    fn earliest_fit_result_actually_fits(
        ends in prop::collection::vec((1i64..500, 1u64..30), 0..10),
        procs in 1u64..100,
        duration in 1i64..100,
    ) {
        let capacity = 100u64;
        let in_use: u64 = ends.iter().map(|&(_, p)| p).sum();
        prop_assume!(in_use <= capacity);
        let p = CapacityProfile::from_running(0, capacity, &ends);
        if let Some(t) = p.earliest_fit(0, procs, duration) {
            prop_assert!(p.fits(t, t + duration, procs));
            // Minimality at breakpoint granularity: no earlier breakpoint fits.
            for (bp, _) in p.points() {
                if bp < t {
                    prop_assert!(!p.fits(bp, bp + duration, procs));
                }
            }
        } else {
            prop_assert!(procs > capacity);
        }
    }

    /// Per-tenant accounting conserves the machine under every policy
    /// (fair-share included): at every observation instant the summed
    /// tenant usage equals the cluster's, the lifecycle counters add up,
    /// and a JSON checkpoint/restore preserves it all exactly.
    #[test]
    fn tenant_accounting_conserves_resources(
        jobs in arb_jobs(50),
        config in arb_tenant_config(),
        tenant_seed in any::<u64>(),
    ) {
        let table = TenantTable::parse("alpha 2.0 120\nbeta 0.5 -\n").unwrap();
        let names = ["alpha", "beta", TenantTable::DEFAULT];
        let mut session = SimSession::new_with_tenants(&tiny_system(50), config, table);

        let mut sorted = jobs;
        sorted.sort_by_key(|j| (j.submit, j.id));
        let mut accepted = 0u64;
        for (i, job) in sorted.into_iter().enumerate() {
            let name = names[((tenant_seed >> (i % 32)) as usize + i) % names.len()];
            let tenant = session.resolve_tenant(Some(name))
                .map_err(|e| TestCaseError::fail(format!("resolve: {e}")))?;
            // alpha's quota may refuse; a refusal must leave no trace,
            // which the conservation checks below would expose.
            let submission = Submission { job, tenant, walltime: None };
            if session.submit(submission).is_ok() {
                accepted += 1;
            }
        }

        let check = |session: &SimSession| -> Result<(), TestCaseError> {
            let snap = session.snapshot();
            let usage = session.tenant_usage().expect("tenancy enabled");
            let used: u64 = usage.iter().map(|u| u.used_units).sum();
            prop_assert_eq!(used, snap.used_units, "used units must conserve");
            let sum = |f: fn(&lumos_sim::TenantCounts) -> u64| -> u64 {
                usage.iter().map(|u| f(&u.counts)).sum()
            };
            prop_assert_eq!(sum(|c| c.submitted), accepted);
            prop_assert_eq!(sum(|c| c.pending), snap.pending as u64);
            prop_assert_eq!(sum(|c| c.waiting), snap.waiting as u64);
            prop_assert_eq!(sum(|c| c.running), snap.running as u64);
            prop_assert_eq!(sum(|c| c.finished), snap.finished as u64);
            for u in &usage {
                prop_assert!(u.share >= 0.0 && u.share <= 1.0, "share {}", u.share);
                prop_assert!(u.used_units <= u.outstanding_units);
                if let Some(q) = u.quota {
                    prop_assert!(u.outstanding_units <= q, "quota violated");
                }
            }
            Ok(())
        };

        // Observe at many instants as the schedule unfolds.
        let mut t = 0i64;
        while t < 12_000 {
            session.advance_to(t);
            check(&session)?;
            t += 977;
        }

        // A JSON round-trip mid-stream preserves the accounting exactly.
        let json = serde_json::to_string(&session.save_state()).unwrap();
        let state: SessionState = serde_json::from_str(&json).unwrap();
        let restored = SimSession::restore(&tiny_system(50), state)
            .map_err(|e| TestCaseError::fail(format!("restore: {e}")))?;
        prop_assert_eq!(restored.tenant_usage(), session.tenant_usage());
        check(&restored)?;

        // Drain: every accepted job ends finished, nothing leaks.
        session.advance_to(1_000_000);
        check(&session)?;
        let usage = session.tenant_usage().unwrap();
        let outstanding: u64 = usage.iter().map(|u| u.outstanding_units).sum();
        prop_assert_eq!(outstanding, 0, "drained sessions hold no units");
    }
}

/// One step of the increment property below.
enum Op {
    Advance(i64),
    /// Through `round_submit` (the flag set: due at the current instant,
    /// scheduled at once) or `submit`.
    Submit(Submission, bool),
    Cancel(u64),
    /// Schedule what is due and drain the event log.
    Drain,
    /// Take a save; the flag says whether it "reaches the disk", i.e.
    /// whether the session is marked saved afterwards.
    Save(bool),
}

fn apply(session: &mut SimSession, op: &Op) {
    match op {
        Op::Advance(t) => session.advance_to(*t),
        // A quota refusal leaves no trace, a cancel that comes too late
        // changes nothing: every outcome is fine here.
        Op::Submit(submission, true) => drop(session.round_submit(submission.clone())),
        Op::Submit(submission, false) => drop(session.submit(submission.clone())),
        Op::Cancel(id) => {
            session.cancel(*id);
        }
        Op::Drain => {
            session.round_flush();
            session.drain_events();
        }
        Op::Save(_) => session.round_flush(),
    }
}

fn through_json<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    serde_json::from_str(&serde_json::to_string(value).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The contract rotation snapshots stand on. A session marked saved
    /// at arbitrary points of an arbitrary submit / advance / cancel /
    /// same-instant-round sequence — two partitions, tenants, overridden
    /// walltimes, the timeline on — emits increments such that the first
    /// full save with every increment that was kept folded over it is
    /// `save_state()`, field for field, at every save; an increment that
    /// was lost (a save without a mark) is covered by the next; and a
    /// session restored from such a fold and marked where the original
    /// was emits the same increments and states from there on.
    #[test]
    fn folded_increments_equal_the_full_state_and_restore_continues(
        jobs in arb_jobs(50),
        config in arb_tenant_config(),
        seed in any::<u64>(),
    ) {
        let mut system = tiny_system(50);
        system.virtual_clusters = 2;
        let table = TenantTable::parse("alpha 2.0 120\nbeta 0.5 -\n").unwrap();
        let mut rng = TestRng::new(seed);
        let mut draw = move |bound: u64| rng.next_u64() % bound;

        // Arrivals in bursts, so that saves fall between changes at one
        // instant: the timeline point a save ends on may still be folded.
        let mut sorted = jobs;
        for job in &mut sorted {
            job.submit -= job.submit % 400;
        }
        sorted.sort_by_key(|j| (j.submit, j.id));
        let mut ops = Vec::new();
        let mut now = 0i64;
        for (i, mut job) in sorted.into_iter().enumerate() {
            if draw(4) == 0 {
                now += draw((job.submit - now) as u64 + 1) as i64;
                ops.push(Op::Advance(now));
            }
            let due = draw(3) != 0;
            if due {
                now = job.submit;
                ops.push(Op::Advance(now));
            }
            job.virtual_cluster = Some((i % 2) as u16);
            let walltime = (draw(3) == 0).then(|| 1 + draw(3_000) as i64);
            let tenant = Some(draw(3) as u16);
            ops.push(Op::Submit(Submission { job, tenant, walltime }, due));
            for _ in 0..draw(3) {
                ops.push(match draw(6) {
                    0 | 1 => Op::Cancel(draw(i as u64 + 1)),
                    2 => Op::Drain,
                    _ => Op::Save(draw(4) != 0),
                });
            }
        }
        ops.extend([Op::Advance(now + 20_000), Op::Save(true), Op::Save(true)]);

        let mut session = SimSession::new_with_tenants(&system, config, table);
        session.advance_to(0);
        // A session restored from a fold part of the way in, then driven
        // alongside the original.
        let mut twin: Option<SimSession> = None;
        let mut base: Option<SessionState> = None;
        let mut kept: Vec<StateDelta> = Vec::new();
        let mut marked_at = 0u64;
        for (at, op) in ops.iter().enumerate() {
            apply(&mut session, op);
            if let Some(twin) = &mut twin {
                apply(twin, op);
            }
            let Op::Save(reaches_disk) = *op else { continue };
            let full = session.save_state();
            let Some(base) = &base else {
                prop_assert_eq!(session.save_delta(), None, "never marked, no increment");
                if reaches_disk {
                    base = Some(through_json(&full));
                    marked_at = at as u64;
                    session.mark_saved(marked_at);
                }
                continue;
            };
            let (since, delta) = session.save_delta().expect("marked sessions emit increments");
            prop_assert_eq!(since, marked_at);
            let delta = through_json(&delta);
            let chain = kept.iter().cloned().chain([delta.clone()]);
            let folded = base.clone().fold(chain)
                .map_err(|e| TestCaseError::fail(format!("fold: {e}")))?;
            prop_assert_eq!(&folded, &full);
            if let Some(twin) = &twin {
                prop_assert_eq!(twin.save_delta(), Some((since, delta.clone())));
                prop_assert_eq!(twin.save_state(), full);
            }
            if reaches_disk {
                kept.push(delta);
                marked_at = at as u64;
                session.mark_saved(marked_at);
                let twin = twin.get_or_insert_with(|| {
                    SimSession::restore(&system, folded).expect("a fold restores")
                });
                twin.mark_saved(marked_at);
            }
        }
        prop_assert!(base.is_some() && twin.is_some(), "the closing saves reach the disk");
    }
}

/// Every policy — the fair-share pair included — over the backfill family.
fn arb_tenant_config() -> impl Strategy<Value = SimConfig> {
    (
        prop_oneof![
            Just(Policy::Fcfs),
            Just(Policy::Sjf),
            Just(Policy::Ljf),
            Just(Policy::Saf),
            Just(Policy::Sqf),
            Just(Policy::MaxMinFair),
            Just(Policy::WeightedFair)
        ],
        prop_oneof![
            Just(Backfill::None),
            Just(Backfill::Easy),
            Just(Backfill::Conservative)
        ],
    )
        .prop_map(|(policy, backfill)| SimConfig {
            policy,
            backfill,
            ..SimConfig::default()
        })
}
