//! Deep-queue schedules pinned across commits.
//!
//! The differential suites hold the engine to a reference model of the
//! same build, and the benchmark compares a digest with the first
//! repetition of the same build; neither notices a commit that moves the
//! model and the engine the same way.
//! These constants were recorded at the commit *before* the EASY pass was
//! rebuilt around inline waiting entries and the release ledger, on the
//! two systems whose queues run thousands deep (Blue Waters) or split
//! across many partitions (Philly). A change that moves one of them has
//! changed a scheduling decision, not only its cost.

use lumos_core::{SystemId, Trace};
use lumos_sim::{
    simulate, Backfill, Policy, Relax, SimConfig, SimResult, SimSession, Submission, TenantId,
    TenantTable,
};
use lumos_traces::{systems, Generator, GeneratorConfig};

/// Blue Waters jobs replayed under conservative backfilling: the whole
/// day takes minutes in a debug build. Queueing sets in near job 15 000
/// at this seed (a 15 000-job prefix never queues and would pin nothing);
/// by 16 000 the queue is 302 deep behind thousands of running jobs, by
/// 17 000 it is 648 deep. The 17 000 rows were recorded at the commit
/// *before* conservative planning moved onto spans laid over the ledger.
/// By 20 000 the queue stands 1 365 deep under FCFS and 557 under SJF:
/// seconds even in a release build, so those rows run in release only
/// ([`blue_waters_deep_conservative_prefix_schedules_are_pinned`]); they
/// were recorded at the commit *before* a conservative pass stopped
/// planning where nothing behind could start.
const BLUE_WATERS_CONSERVATIVE_PREFIXES: [usize; 3] = [16_000, 17_000, 20_000];

fn generate(system: SystemId, days: u32) -> Trace {
    Generator::new(
        systems::profile_for(system),
        GeneratorConfig {
            seed: 2024,
            span_days: days,
            ..GeneratorConfig::default()
        },
    )
    .generate()
}

/// `(label, backfill, relax)` for the four disciplines every system runs.
fn disciplines() -> [(&'static str, Backfill, Relax); 4] {
    [
        ("easy-strict", Backfill::Easy, Relax::Strict),
        (
            "easy-adaptive",
            Backfill::Easy,
            Relax::Adaptive { base: 0.1 },
        ),
        ("easy-fixed", Backfill::Easy, Relax::Fixed { factor: 0.1 }),
        ("conservative", Backfill::Conservative, Relax::Strict),
    ]
}

/// FNV-1a over every `(id, wait)` in result order, then the two
/// observables a schedule-preserving bug could still move.
fn fingerprint(trace: &Trace, result: &SimResult) -> (u64, usize, usize) {
    assert_eq!(result.jobs.len(), trace.len());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for job in &result.jobs {
        let wait = job.wait.expect("every job scheduled");
        for word in [job.id, wait as u64] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (h, result.metrics.violated_jobs, result.max_queue_len)
}

/// Runs each of `disciplines` × {FCFS, SJF} and compares with `golden`,
/// reporting *all* mismatches at once so a re-recording is one run.
/// With `conservative_prefixes` given, conservative replays only the
/// first that-many jobs, once per prefix, labelled `conservative@N`.
fn check(
    system: SystemId,
    days: u32,
    disciplines: &[(&str, Backfill, Relax)],
    conservative_prefixes: &[usize],
    golden: &[(&str, u64, usize, usize)],
) {
    let full = generate(system, days);
    let prefixes: Vec<(usize, Trace)> = conservative_prefixes
        .iter()
        .map(|&n| {
            let jobs = full.jobs()[..n].to_vec();
            let prefix = Trace::new(full.system.clone(), jobs).expect("non-empty prefix");
            (n, prefix)
        })
        .collect();
    let mut actual = Vec::new();
    for &(name, backfill, relax) in disciplines {
        let traces: Vec<(String, &Trace)> =
            if backfill == Backfill::Conservative && !prefixes.is_empty() {
                prefixes
                    .iter()
                    .map(|(n, prefix)| (format!("{name}@{n}"), prefix))
                    .collect()
            } else {
                vec![(name.to_string(), &full)]
            };
        for (label, trace) in &traces {
            for policy in [Policy::Fcfs, Policy::Sjf] {
                let config = SimConfig {
                    policy,
                    backfill,
                    relax,
                    ..SimConfig::default()
                };
                let (digest, violated, max_queue) = fingerprint(trace, &simulate(trace, &config));
                actual.push((
                    format!("{label}/{}", policy.name()),
                    digest,
                    violated,
                    max_queue,
                ));
            }
        }
    }
    assert_pinned(system, actual, golden);
}

fn assert_pinned(
    system: SystemId,
    actual: Vec<(String, u64, usize, usize)>,
    golden: &[(&str, u64, usize, usize)],
) {
    let expected: Vec<_> = golden
        .iter()
        .map(|&(label, d, v, q)| (label.to_string(), d, v, q))
        .collect();
    assert_eq!(
        actual, expected,
        "{system:?} schedules moved (left: this build, right: pinned)"
    );
}

/// Three tenants of unequal weight; jobs are dealt to them by user.
const TENANTS: &str = "astro 1\nbio 2\nclimate 3\n";

/// The fair-share orderings over a tenant table: the queue is re-sorted
/// by live tenant share before every head decision, so it is the one
/// ordering under which the queue is not in static-key order. Driven
/// through a session, since `simulate()` has no tenants. These rows were
/// recorded at the commit *before* the waiting queue was cut into chunks.
fn check_fair_share(system: SystemId, trace: &Trace, golden: &[(&str, u64, usize, usize)]) {
    let mut actual = Vec::new();
    for (name, backfill, relax) in disciplines() {
        if matches!(relax, Relax::Fixed { .. }) {
            continue;
        }
        for policy in [Policy::MaxMinFair, Policy::WeightedFair] {
            let config = SimConfig {
                policy,
                backfill,
                relax,
                ..SimConfig::default()
            };
            let table = TenantTable::parse(TENANTS).expect("valid table");
            let mut session = SimSession::new_with_tenants(&trace.system, config, table);
            for job in trace.jobs() {
                session
                    .submit(Submission {
                        job: job.clone(),
                        tenant: Some((job.user % 3) as TenantId),
                        walltime: None,
                    })
                    .expect("trace jobs are valid and their ids unique");
            }
            let (digest, violated, max_queue) = fingerprint(trace, &session.into_result());
            actual.push((
                format!("{name}/{}", policy.name()),
                digest,
                violated,
                max_queue,
            ));
        }
    }
    assert_pinned(system, actual, golden);
}

#[test]
fn blue_waters_one_day_schedules_are_pinned() {
    check(
        SystemId::BlueWaters,
        1,
        &disciplines(),
        &BLUE_WATERS_CONSERVATIVE_PREFIXES[..2],
        &[
            ("easy-strict/FCFS", 8_823_173_962_105_936_446, 0, 10_406),
            ("easy-strict/SJF", 2_110_315_015_361_688_480, 226, 927),
            ("easy-adaptive/FCFS", 13_534_177_377_632_236_123, 27, 2_727),
            ("easy-adaptive/SJF", 2_110_315_015_361_688_480, 226, 927),
            ("easy-fixed/FCFS", 986_013_565_758_413_590, 38, 2_718),
            ("easy-fixed/SJF", 2_110_315_015_361_688_480, 226, 927),
            (
                "conservative@16000/FCFS",
                14_283_382_093_122_104_620,
                1,
                302,
            ),
            (
                "conservative@16000/SJF",
                15_985_278_352_222_658_561,
                64,
                177,
            ),
            (
                "conservative@17000/FCFS",
                16_580_161_907_472_324_007,
                1,
                648,
            ),
            (
                "conservative@17000/SJF",
                17_914_536_718_403_580_458,
                197,
                366,
            ),
        ],
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; run with --release"
)]
fn blue_waters_deep_conservative_prefix_schedules_are_pinned() {
    check(
        SystemId::BlueWaters,
        1,
        &[("conservative", Backfill::Conservative, Relax::Strict)],
        &BLUE_WATERS_CONSERVATIVE_PREFIXES[2..],
        &[
            (
                "conservative@20000/FCFS",
                4_656_257_651_620_567_324,
                1,
                1_365,
            ),
            (
                "conservative@20000/SJF",
                3_674_063_615_859_763_087,
                507,
                557,
            ),
        ],
    );
}

#[test]
fn philly_two_days_schedules_are_pinned() {
    check(
        SystemId::Philly,
        2,
        &disciplines(),
        &[],
        &[
            ("easy-strict/FCFS", 3_570_526_794_696_353_268, 0, 121),
            ("easy-strict/SJF", 4_491_173_102_907_578_775, 26, 57),
            ("easy-adaptive/FCFS", 11_360_096_541_160_628_226, 5, 123),
            ("easy-adaptive/SJF", 14_680_315_797_083_641_531, 26, 92),
            ("easy-fixed/FCFS", 10_539_680_961_297_645_870, 6, 123),
            ("easy-fixed/SJF", 14_680_315_797_083_641_531, 26, 92),
            ("conservative/FCFS", 10_741_467_860_671_839_948, 0, 121),
            ("conservative/SJF", 4_307_442_710_982_604_845, 245, 57),
        ],
    );
}

#[test]
fn philly_two_days_fair_share_schedules_are_pinned() {
    check_fair_share(
        SystemId::Philly,
        &generate(SystemId::Philly, 2),
        &[
            ("easy-strict/MaxMin", 8_283_997_182_828_108_848, 22, 208),
            ("easy-strict/WFair", 15_788_581_230_197_643_624, 21, 170),
            ("easy-adaptive/MaxMin", 1_399_039_447_813_681_560, 26, 208),
            ("easy-adaptive/WFair", 3_363_584_251_889_934_857, 25, 170),
            ("conservative/MaxMin", 9_828_432_523_961_725_087, 800, 235),
            ("conservative/WFair", 894_267_747_118_420_982, 651, 175),
        ],
    );
}

/// The first 17 000 Blue Waters jobs: past the onset of queueing, so the
/// fair re-sort runs over a queue hundreds deep — several chunks — while
/// a debug build still replays all six rows in seconds.
#[test]
fn blue_waters_prefix_fair_share_schedules_are_pinned() {
    let full = generate(SystemId::BlueWaters, 1);
    let prefix =
        Trace::new(full.system.clone(), full.jobs()[..17_000].to_vec()).expect("non-empty");
    check_fair_share(
        SystemId::BlueWaters,
        &prefix,
        &[
            ("easy-strict/MaxMin", 16_317_423_885_477_303_006, 9, 183),
            ("easy-strict/WFair", 7_612_468_670_042_428_531, 6, 233),
            ("easy-adaptive/MaxMin", 3_932_998_779_094_999_262, 7, 173),
            ("easy-adaptive/WFair", 12_571_466_337_379_188_304, 6, 228),
            ("conservative/MaxMin", 3_549_904_229_992_526_345, 97, 436),
            ("conservative/WFair", 9_755_893_243_035_026_838, 112, 623),
        ],
    );
}
