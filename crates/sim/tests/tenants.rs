//! Integration tests for the tenancy subsystem: fair-share policies
//! actually equalize delivered service, quotas refuse without side
//! effects, and tenant accounting survives checkpoint/restore.

use lumos_core::{CoreError, Job, SystemSpec};
use lumos_sim::{JobState, Policy, SimConfig, SimSession, Submission, TenantTable};

fn tiny_system(capacity: u64) -> SystemSpec {
    let mut s = SystemSpec::theta();
    s.name = "tenant-test".into();
    s.total_nodes = capacity as u32;
    s.units_per_node = 1;
    s.total_units = capacity;
    s
}

/// A skewed backlog on an 8-unit machine: 16 `heavy` jobs and 4 `light`
/// jobs, all submitted at t = 0, each 2 units × 400 s — so exactly four
/// run at a time and the policy alone decides whose.
fn skewed_session(policy: Policy, table: &str) -> SimSession {
    let sim = SimConfig {
        policy,
        ..SimConfig::default()
    };
    let table = TenantTable::parse(table).expect("valid table");
    let mut session = SimSession::new_with_tenants(&tiny_system(8), sim, table);
    session.advance_to(0);
    let heavy = session.resolve_tenant(Some("heavy")).unwrap();
    let light = session.resolve_tenant(Some("light")).unwrap();
    for i in 0..16u64 {
        session
            .submit(Submission {
                job: Job::basic(i, 0, 0, 400, 2),
                tenant: heavy,
                walltime: Some(450),
            })
            .unwrap();
    }
    for i in 100..104u64 {
        session
            .submit(Submission {
                job: Job::basic(i, 1, 0, 400, 2),
                tenant: light,
                walltime: Some(450),
            })
            .unwrap();
    }
    session
}

/// Weight-normalized delivered service per tenant with at least one
/// accepted job, at the session's current instant.
fn delivered(session: &SimSession) -> Vec<(String, f64)> {
    session
        .tenant_usage()
        .expect("tenancy enabled")
        .into_iter()
        .filter(|u| u.counts.submitted > 0)
        .map(|u| (u.name, u.served_unit_seconds as f64 / u.weight))
        .collect()
}

#[test]
fn maxmin_interleaves_tenants_where_fcfs_starves() {
    // FCFS: all sixteen heavy jobs (lower ids) start first; at t = 500
    // the light tenant has been delivered nothing.
    let mut fcfs = skewed_session(Policy::Fcfs, "heavy 1\nlight 1\n");
    fcfs.advance_to(500);
    let served = delivered(&fcfs);
    assert_eq!(served[0], ("heavy".into(), 6400.0));
    assert_eq!(served[1], ("light".into(), 0.0));

    // Max-min: each wave alternates tenants until the light backlog is
    // exhausted, so at t = 500 delivered service is exactly equal.
    let mut maxmin = skewed_session(Policy::MaxMinFair, "heavy 1\nlight 1\n");
    maxmin.advance_to(500);
    let served = delivered(&maxmin);
    assert_eq!(served[0], ("heavy".into(), 3200.0));
    assert_eq!(served[1], ("light".into(), 3200.0));

    // Jain's index over the same vectors pins the acceptance bar:
    // max-min is strictly fairer than FCFS on this trace.
    let jain = |s: &[(String, f64)]| {
        lumos_stats::jain_index(&s.iter().map(|(_, x)| *x).collect::<Vec<_>>()).unwrap()
    };
    let (jf, jm) = (jain(&delivered(&fcfs)), jain(&delivered(&maxmin)));
    assert!(jm > jf, "max-min ({jm}) must beat FCFS ({jf})");
    assert!((jf - 0.5).abs() < 1e-12, "FCFS starves light: {jf}");
    assert!((jm - 1.0).abs() < 1e-12, "max-min equalizes: {jm}");
}

#[test]
fn weighted_fair_delivers_in_weight_ratio() {
    // heavy carries weight 3: out of every four slots it is entitled to
    // three. After the first wave (t = 500), delivered raw service is
    // 3:1 — i.e. equal once normalized by weight.
    let mut session = skewed_session(Policy::WeightedFair, "heavy 3\nlight 1\n");
    session.advance_to(500);
    let usage = session.tenant_usage().unwrap();
    assert_eq!(usage[0].name, "heavy");
    assert_eq!(usage[0].served_unit_seconds, 2 * 2400);
    assert_eq!(usage[1].name, "light");
    assert_eq!(usage[1].served_unit_seconds, 2 * 800);
}

#[test]
fn fair_share_without_tenants_degrades_to_fcfs() {
    // The same arrival sequence through an untenanted max-min session
    // and an untenanted FCFS session must schedule identically.
    let run = |policy: Policy| {
        let sim = SimConfig {
            policy,
            ..SimConfig::default()
        };
        let mut session = SimSession::new(&tiny_system(8), sim);
        session.advance_to(0);
        for i in 0..12u64 {
            let procs = 1 + i % 3;
            session
                .submit(Submission {
                    job: Job::basic(i, 0, (i as i64) * 7, 100 + (i as i64) * 31, procs),
                    tenant: None,
                    walltime: Some(600),
                })
                .unwrap();
        }
        session.advance_to(10_000);
        session.drain_events()
    };
    assert_eq!(run(Policy::MaxMinFair), run(Policy::Fcfs));
    assert_eq!(run(Policy::WeightedFair), run(Policy::Fcfs));
}

#[test]
fn quota_rejection_is_stateless() {
    let table = TenantTable::parse("capped 1 4\n").unwrap();
    let mut session = SimSession::new_with_tenants(&tiny_system(8), SimConfig::default(), table);
    session.advance_to(0);
    let capped = session.resolve_tenant(Some("capped")).unwrap();
    session
        .submit(Submission {
            job: Job::basic(1, 0, 0, 100, 3),
            tenant: capped,
            walltime: None,
        })
        .unwrap();
    let before = session.save_state();

    // 3 outstanding + 2 requested > 4: refused with full context...
    let err = session
        .submit(Submission {
            job: Job::basic(2, 0, 0, 100, 2),
            tenant: capped,
            walltime: None,
        })
        .unwrap_err();
    assert_eq!(
        err,
        CoreError::QuotaExceeded {
            tenant: "capped".into(),
            requested: 2,
            in_use: 3,
            quota: 4,
        }
    );
    // ...and without any trace: the refused job never existed.
    assert_eq!(session.save_state(), before);

    // Within quota still works; releasing via completion frees it again.
    session
        .submit(Submission {
            job: Job::basic(3, 0, 0, 100, 1),
            tenant: capped,
            walltime: None,
        })
        .unwrap();
    session.advance_to(200); // both jobs finished
    session
        .submit(Submission {
            job: Job::basic(4, 0, 200, 100, 4),
            tenant: capped,
            walltime: None,
        })
        .unwrap();
}

#[test]
fn unknown_tenants_are_refused() {
    let table = TenantTable::parse("alice 1\n").unwrap();
    let mut with = SimSession::new_with_tenants(&tiny_system(8), SimConfig::default(), table);
    with.advance_to(0);
    assert!(matches!(
        with.resolve_tenant(Some("mallory")),
        Err(CoreError::UnknownTenant { .. })
    ));
    // Untenanted submissions land on the built-in default tenant.
    assert_eq!(with.resolve_tenant(None).unwrap(), None);
    with.submit(Job::basic(1, 0, 0, 10, 1)).unwrap();
    let usage = with.tenant_usage().unwrap();
    let default = usage.iter().find(|u| u.name == "default").unwrap();
    assert_eq!(default.counts.submitted, 1);

    // Naming any tenant on a tenant-less session is an error too.
    let without = SimSession::new(&tiny_system(8), SimConfig::default());
    assert!(matches!(
        without.resolve_tenant(Some("alice")),
        Err(CoreError::UnknownTenant { .. })
    ));
}

#[test]
fn checkpoint_restore_preserves_tenant_accounting() {
    let system = tiny_system(8);
    let mut live = skewed_session(Policy::MaxMinFair, "heavy 1\nlight 1\n");
    // Mid-backlog: running, waiting and finished jobs. Every other state
    // too: a job still pending, one cancelled while pending and one
    // cancelled while waiting.
    live.advance_to(450);
    let tenant = live.resolve_tenant(Some("light")).unwrap();
    for (id, submit) in [(200, 1_000), (201, 1_500)] {
        let job = Job::basic(id, 1, submit, 100, 2);
        let walltime = Some(150);
        live.submit(Submission {
            job,
            tenant,
            walltime,
        })
        .unwrap();
    }
    let waiting = (0..16).find(|&id| live.query(id) == Some(JobState::Waiting));
    assert!(live.cancel(201) && live.cancel(waiting.expect("a heavy job waits")));
    live.drain_events();

    let state = live.save_state();
    let mut restored = SimSession::restore(&system, state.clone()).expect("restore");
    assert_eq!(restored.save_state(), state, "save/restore round-trips");
    assert_eq!(restored.tenant_usage(), live.tenant_usage());
    let usage = live.tenant_usage().unwrap();
    let counts = |name: &str| usage.iter().find(|u| u.name == name).unwrap().counts;
    let (heavy, light) = (counts("heavy"), counts("light"));
    assert!(heavy.waiting > 0 && heavy.running > 0 && heavy.finished > 0);
    assert_eq!((heavy.cancelled, light.pending, light.cancelled), (1, 1, 1));

    // Both sessions must continue identically — accounting included.
    live.advance_to(2_000);
    restored.advance_to(2_000);
    assert_eq!(restored.drain_events(), live.drain_events());
    assert_eq!(restored.tenant_usage(), live.tenant_usage());
    assert_eq!(restored.save_state(), live.save_state());
}

#[test]
fn restore_rejects_inconsistent_tenancy() {
    let system = tiny_system(8);
    let mut session = skewed_session(Policy::MaxMinFair, "heavy 1\nlight 1\n");
    session.advance_to(100);

    // tenant_of must cover every job...
    let mut state = session.save_state();
    state.tenant_of.as_mut().unwrap().pop();
    assert!(SimSession::restore(&system, state).is_err());

    // ...name only in-table tenants...
    let mut state = session.save_state();
    state.tenant_of.as_mut().unwrap()[0] = 999;
    assert!(SimSession::restore(&system, state).is_err());

    // ...and travel together with the table.
    let mut state = session.save_state();
    state.tenants = None;
    assert!(SimSession::restore(&system, state).is_err());
}
