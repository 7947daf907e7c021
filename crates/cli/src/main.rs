//! `lumos` — regenerate every table and figure of the paper from the
//! synthetic five-system suite (or from SWF traces you supply), or run
//! the online scheduling service.
//!
//! ```text
//! lumos <command> [--seed N] [--days N] [--out DIR] [--swf FILE --system NAME]
//! lumos serve [--addr HOST:PORT] [--system NAME] [--policy P] [--backfill B]
//!             [--queue-cap N] [--time-scale X] [--tenants FILE]
//!             [--journal DIR] [--fsync always|never|interval:MS] [--snapshot-every N]
//!             [--group-commit N] [--replicate-to ADDR | --follow ADDR]
//! lumos journal inspect DIR [--verbose]
//!
//! Commands:
//!   table1      dataset overview (Table I)
//!   fig1        job geometries: runtime / arrival / resources (Fig. 1)
//!   fig2        core-hour domination (Fig. 2)
//!   fig3        system utilization (Fig. 3)
//!   fig4        waiting & turnaround + per-class waits (Figs. 4–5)
//!   fig6        failure distributions + geometry correlations (Figs. 6–7)
//!   fig8        per-user resource-configuration groups (Fig. 8)
//!   fig9        queue-conditioned submission behaviour (Figs. 9–10)
//!   fig11       per-user runtime violins by status (Fig. 11)
//!   fig12       runtime prediction with elapsed time (Fig. 12)
//!   table2      adaptive relaxed backfilling (Table II)
//!   takeaways   evaluate the paper's eight takeaways
//!   all         everything above + JSON report
//!   serve       online scheduling service (NDJSON over TCP + stdin)
//!   journal     audit a serve journal directory (inspect)
//! ```
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use lumos_analysis::SystemAnalysis;
use lumos_bench::{fig12::run_fig12, render, table2::run_table2};

/// CLI failure, split so `main` can exit 2 on bad invocations and 1 on
/// runtime errors.
enum CliError {
    /// The invocation itself is wrong (unknown command/flag, bad value).
    Usage(String),
    /// The invocation is fine but the work failed (I/O, parse, ...).
    Runtime(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

struct Options {
    command: String,
    seed: u64,
    days: u32,
    out: Option<PathBuf>,
    swf: Option<PathBuf>,
    system: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let command = args.next().ok_or_else(usage)?;
    let mut opts = Options {
        command,
        seed: lumos_bench::DEFAULT_SEED,
        days: lumos_bench::DEFAULT_DAYS,
        out: None,
        swf: None,
        system: None,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--days" => {
                opts.days = value("--days")?
                    .parse()
                    .map_err(|e| format!("--days: {e}"))?
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--swf" => opts.swf = Some(PathBuf::from(value("--swf")?)),
            "--system" => opts.system = Some(value("--system")?),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn usage() -> String {
    "usage: lumos <table1|fig1|fig2|fig3|fig4|fig6|fig8|fig9|fig11|fig12|table2|takeaways|all> \
     [--seed N] [--days N] [--out DIR] [--swf FILE --system NAME]\n\
     \x20      lumos serve [--addr HOST:PORT] [--system NAME] [--policy P] [--backfill B] \
     [--queue-cap N] [--time-scale X] [--predictor last2[:MARGIN]|user[:MARGIN]|off] \
     [--tenants FILE] [--journal DIR] [--fsync always|never|interval:MS] [--snapshot-every N] \
     [--group-commit N] [--replicate-to ADDR | --follow ADDR]\n\
     \x20      lumos journal inspect DIR [--verbose]\n\
     \x20      lumos --help | --version"
        .to_string()
}

/// Resolves a `--system` name to its paper spec.
fn system_spec(name: &str) -> Result<lumos_core::SystemSpec, String> {
    match name {
        "mira" => Ok(lumos_core::SystemSpec::mira()),
        "theta" => Ok(lumos_core::SystemSpec::theta()),
        "blue-waters" => Ok(lumos_core::SystemSpec::blue_waters()),
        "philly" => Ok(lumos_core::SystemSpec::philly()),
        "helios" => Ok(lumos_core::SystemSpec::helios()),
        other => Err(format!(
            "unknown --system {other} (expected mira|theta|blue-waters|philly|helios)"
        )),
    }
}

/// Runs `lumos serve`: bind, announce, serve until a Shutdown command.
fn run_serve(mut args: impl Iterator<Item = String>) -> Result<(), CliError> {
    let mut addr = "127.0.0.1:7421".to_string();
    let mut config = lumos_serve::ServeConfig::new(lumos_core::SystemSpec::theta());
    let mut journal_dir: Option<PathBuf> = None;
    let mut fsync: Option<lumos_serve::FsyncPolicy> = None;
    let mut snapshot_every: Option<u64> = None;
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| CliError::Usage(format!("{name} expects a value\n{}", usage())))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--system" => {
                config.system = system_spec(&value("--system")?).map_err(CliError::Usage)?;
            }
            "--policy" => {
                config.sim.policy = match value("--policy")?.as_str() {
                    "fcfs" => lumos_sim::Policy::Fcfs,
                    "sjf" => lumos_sim::Policy::Sjf,
                    "ljf" => lumos_sim::Policy::Ljf,
                    "saf" => lumos_sim::Policy::Saf,
                    "sqf" => lumos_sim::Policy::Sqf,
                    "maxmin" => lumos_sim::Policy::MaxMinFair,
                    "wfair" => lumos_sim::Policy::WeightedFair,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown --policy {other} (expected fcfs|sjf|ljf|saf|sqf|maxmin|wfair)"
                        )))
                    }
                };
            }
            "--backfill" => {
                config.sim.backfill = match value("--backfill")?.as_str() {
                    "none" => lumos_sim::Backfill::None,
                    "easy" => lumos_sim::Backfill::Easy,
                    "conservative" => lumos_sim::Backfill::Conservative,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown --backfill {other} (expected none|easy|conservative)"
                        )))
                    }
                };
            }
            "--queue-cap" => {
                config.queue_capacity = value("--queue-cap")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--queue-cap: {e}")))?;
            }
            "--time-scale" => {
                config.time_scale = value("--time-scale")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--time-scale: {e}")))?;
                if !config.time_scale.is_finite() || config.time_scale < 0.0 {
                    return Err(CliError::Usage(
                        "--time-scale must be a finite value ≥ 0".into(),
                    ));
                }
            }
            "--predictor" => {
                config.predictor = lumos_serve::PredictorConfig::parse(&value("--predictor")?)
                    .map_err(|e| CliError::Usage(format!("--predictor: {e}")))?;
            }
            "--tenants" => {
                let path = PathBuf::from(value("--tenants")?);
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    CliError::Usage(format!("--tenants: reading {}: {e}", path.display()))
                })?;
                let table = lumos_sim::TenantTable::parse(&text)
                    .map_err(|e| CliError::Usage(format!("--tenants: {}: {e}", path.display())))?;
                config.tenants = Some(table);
            }
            "--group-commit" => {
                config.group_commit = value("--group-commit")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--group-commit: {e}")))?;
            }
            "--journal" => journal_dir = Some(PathBuf::from(value("--journal")?)),
            "--replicate-to" => config.replicate_to = Some(value("--replicate-to")?),
            "--follow" => config.follow = Some(value("--follow")?),
            "--fsync" => {
                fsync = Some(
                    lumos_serve::FsyncPolicy::parse(&value("--fsync")?)
                        .map_err(|e| CliError::Usage(format!("--fsync: {e}")))?,
                );
            }
            "--snapshot-every" => {
                snapshot_every = Some(
                    value("--snapshot-every")?
                        .parse()
                        .map_err(|e| CliError::Usage(format!("--snapshot-every: {e}")))?,
                );
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown flag {other}\n{}",
                    usage()
                )))
            }
        }
    }
    if config.replicate_to.is_some() && config.follow.is_some() {
        return Err(CliError::Usage(
            "--replicate-to and --follow are mutually exclusive (a server is \
             either the primary or the follower)"
                .into(),
        ));
    }
    match journal_dir {
        Some(dir) => {
            let mut jc = lumos_serve::JournalConfig::new(dir);
            if let Some(policy) = fsync {
                jc.fsync = policy;
            }
            if let Some(every) = snapshot_every {
                jc.snapshot_every = every;
            }
            config.journal = Some(jc);
        }
        None if fsync.is_some() || snapshot_every.is_some() => {
            return Err(CliError::Usage(
                "--fsync and --snapshot-every require --journal DIR".into(),
            ));
        }
        None if config.replicate_to.is_some() || config.follow.is_some() => {
            return Err(CliError::Usage(
                "--replicate-to and --follow require --journal DIR".into(),
            ));
        }
        None => {}
    }
    let server = lumos_serve::Server::bind(&addr, config)
        .map_err(|e| CliError::Runtime(format!("binding {addr}: {e}")))?;
    let bound = server
        .local_addr()
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    eprintln!("lumos-serve listening on {bound} (NDJSON; also reading stdin)");
    server
        .run(true)
        .map_err(|e| CliError::Runtime(e.to_string()))
}

/// Runs `lumos journal inspect DIR [--verbose]`: audits a serve journal
/// directory — per-segment record counts, snapshot validity, torn tails.
/// Damage is a warning on stderr, not a failure: exit 0 unless the
/// directory itself is unreadable.
fn run_journal(mut args: impl Iterator<Item = String>) -> Result<(), CliError> {
    use lumos_serve::journal;

    let sub = args
        .next()
        .ok_or_else(|| CliError::Usage(format!("journal expects a subcommand\n{}", usage())))?;
    if sub != "inspect" {
        return Err(CliError::Usage(format!(
            "unknown journal subcommand {sub} (expected inspect)"
        )));
    }
    let mut dir: Option<PathBuf> = None;
    let mut verbose = false;
    for arg in args {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument {other}\n{}",
                    usage()
                )))
            }
        }
    }
    let dir = dir.ok_or_else(|| {
        CliError::Usage(format!("journal inspect expects a directory\n{}", usage()))
    })?;

    let (segments, snapshots) = journal::scan_dir(&dir)
        .map_err(|e| CliError::Runtime(format!("reading {}: {e}", dir.display())))?;
    if segments.is_empty() && snapshots.is_empty() {
        println!("{}: no journal segments or snapshots", dir.display());
        return Ok(());
    }

    inspect_snapshots(&dir, &snapshots);

    let mut total = 0usize;
    let mut torn_segments = 0usize;
    for &seq in &segments {
        let path = journal::segment_path(&dir, seq);
        let seg = journal::read_segment(&path)
            .map_err(|e| CliError::Runtime(format!("reading {}: {e}", path.display())))?;
        let mut counts = [0usize; 4]; // config, submit, cancel, advance
        for record in &seg.records {
            counts[match record {
                journal::JournalRecord::Config { .. } => 0,
                journal::JournalRecord::Submit { .. } => 1,
                journal::JournalRecord::Cancel { .. } => 2,
                journal::JournalRecord::Advance { .. } => 3,
            }] += 1;
        }
        println!(
            "journal-{seq:06}.log: {} records ({} config, {} submit, {} cancel, {} advance)",
            seg.records.len(),
            counts[0],
            counts[1],
            counts[2],
            counts[3]
        );
        if verbose {
            for record in &seg.records {
                match record {
                    journal::JournalRecord::Config {
                        system,
                        sim,
                        predictor,
                        tenants,
                    } => {
                        println!(
                            "  config  system={} policy={:?} predictor={} tenants={}",
                            system.name,
                            sim.policy,
                            predictor.map_or("off", |p| p.name()),
                            tenants.as_ref().map_or(0, lumos_sim::TenantTable::len)
                        );
                        if let Some(table) = tenants {
                            for spec in table.iter() {
                                let quota = spec
                                    .quota
                                    .map_or_else(|| "unlimited".into(), |q| q.to_string());
                                println!(
                                    "    tenant  {} weight={} quota={quota}",
                                    spec.name, spec.weight
                                );
                            }
                        }
                    }
                    journal::JournalRecord::Submit { now, job } => {
                        let tenant = job
                            .tenant
                            .as_ref()
                            .map_or(String::new(), |t| format!(" tenant={t}"));
                        println!(
                            "  submit  t={now} job={} procs={}{tenant}",
                            job.id, job.procs
                        );
                    }
                    journal::JournalRecord::Cancel { now, id } => {
                        println!("  cancel  t={now} job={id}");
                    }
                    journal::JournalRecord::Advance { to } => println!("  advance to={to}"),
                }
            }
        }
        if let Some(torn) = &seg.torn {
            torn_segments += 1;
            eprintln!(
                "warning: journal-{seq:06}.log: torn record at byte {}: {}",
                torn.offset, torn.reason
            );
        }
        total += seg.records.len();
    }
    println!(
        "{}: {} segment(s), {} snapshot(s), {total} intact record(s){}",
        dir.display(),
        segments.len(),
        snapshots.len(),
        if torn_segments > 0 {
            format!(", {torn_segments} torn")
        } else {
            String::new()
        }
    );
    Ok(())
}

/// The snapshot half of `journal inspect`: one ascending pass that reads
/// every snapshot once and checks each increment against the snapshot it
/// names — present, valid itself, and ending where the increment starts —
/// then says where recovery would start. A snapshot is `valid` when its
/// whole chain is.
fn inspect_snapshots(dir: &std::path::Path, snapshots: &[u64]) {
    use lumos_serve::recovery::{read_snapshot, SnapshotBody};
    use std::collections::BTreeMap;

    /// What a link has to agree with its predecessor on.
    struct Link {
        prev: Option<u64>,
        jobs: usize,
        violations: usize,
    }
    let mut valid: BTreeMap<u64, Link> = BTreeMap::new();
    for &seq in snapshots {
        let name = format!("snapshot-{seq:06}.json");
        let snap = match read_snapshot(dir, seq) {
            Ok(snap) => snap,
            Err(what) => {
                eprintln!("warning: {name}: {what}");
                continue;
            }
        };
        let bytes =
            std::fs::metadata(lumos_serve::journal::snapshot_path(dir, seq)).map_or(0, |m| m.len());
        let (shape, clock, states, link) = match &snap.body {
            SnapshotBody::Base(state) => (
                "base".to_string(),
                state.clock,
                &state.states,
                Link {
                    prev: None,
                    jobs: state.jobs.len(),
                    violations: state.violations.len(),
                },
            ),
            SnapshotBody::Delta { prev, delta } => {
                let fits = valid
                    .get(prev)
                    .map(|on| on.jobs <= delta.len && on.violations == delta.violations_from);
                match fits {
                    Some(true) => {}
                    Some(false) => {
                        eprintln!(
                            "warning: {name}: broken link: does not continue snapshot-{prev:06}.json"
                        );
                        continue;
                    }
                    None => {
                        eprintln!(
                            "warning: {name}: broken link: snapshot-{prev:06}.json is missing or not valid"
                        );
                        continue;
                    }
                }
                (
                    format!("delta on snapshot-{prev:06}"),
                    delta.clock,
                    &delta.states,
                    Link {
                        prev: Some(*prev),
                        jobs: delta.len,
                        violations: delta.violations_from + delta.violations.len(),
                    },
                )
            }
        };
        let live = states.iter().filter(|s| s.is_live()).count();
        println!(
            "{name}: valid, {shape} ({bytes} bytes, t = {clock}, {} sealed rows, {live} live rows)",
            states.len() - live
        );
        valid.insert(seq, link);
    }
    if let Some(&head) = valid.keys().next_back() {
        let (mut base, mut links) = (head, 1);
        while let Some(prev) = valid[&base].prev {
            (base, links) = (prev, links + 1);
        }
        println!(
            "recovery starts from snapshot-{head:06}.json: a chain of {links} down to base snapshot-{base:06}.json"
        );
    }
}

/// Loads the analysis suite: either the five synthetic systems, or a single
/// SWF trace when `--swf` is given.
fn load_suite(opts: &Options) -> Result<Vec<SystemAnalysis>, String> {
    match &opts.swf {
        None => Ok(lumos_bench::analyzed_suite(opts.seed, opts.days)),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let spec = match opts.system.as_deref() {
                None => lumos_core::SystemSpec::theta(),
                Some(name) => system_spec(name)?,
            };
            let trace = lumos_traces::swf::parse(&text, spec).map_err(|e| e.to_string())?;
            Ok(vec![lumos_analysis::analyze_system(&trace)])
        }
    }
}

fn write_json(opts: &Options, name: &str, json: &str) -> Result<(), String> {
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn run(args: impl Iterator<Item = String>) -> Result<(), CliError> {
    let opts = parse_args(args).map_err(CliError::Usage)?;
    let to_json = |v: &dyn erased::Json| v.to_json();

    match opts.command.as_str() {
        "table1" => {
            let analyses = load_suite(&opts)?;
            let rows: Vec<_> = analyses.iter().map(|a| a.overview.clone()).collect();
            print!("{}", lumos_analysis::report::render_table(&rows));
            write_json(&opts, "table1", &to_json(&rows))?;
        }
        "fig1" => {
            let analyses = load_suite(&opts)?;
            print!("{}", render::fig1(&analyses));
            write_json(&opts, "fig1", &to_json(&analyses))?;
        }
        "fig2" => {
            let analyses = load_suite(&opts)?;
            print!("{}", render::fig2(&analyses));
        }
        "fig3" => {
            let analyses = load_suite(&opts)?;
            print!("{}", render::fig3(&analyses));
        }
        "fig4" | "fig5" => {
            let analyses = load_suite(&opts)?;
            print!("{}", render::fig4_fig5(&analyses));
        }
        "fig6" | "fig7" => {
            let analyses = load_suite(&opts)?;
            print!("{}", render::fig6_fig7(&analyses));
        }
        "fig8" => {
            let analyses = load_suite(&opts)?;
            print!("{}", render::fig8(&analyses));
        }
        "fig9" | "fig10" => {
            let analyses = load_suite(&opts)?;
            print!("{}", render::fig9_fig10(&analyses));
        }
        "fig11" => {
            let analyses = load_suite(&opts)?;
            print!("{}", render::fig11(&analyses));
        }
        "fig12" => {
            let results = run_fig12(opts.seed, opts.days, 20_000);
            print!("{}", render::fig12(&results));
            write_json(&opts, "fig12", &to_json(&results))?;
        }
        "table2" => {
            let rows = run_table2(opts.seed, opts.days, 0.10);
            print!("{}", render::table2(&rows));
            write_json(&opts, "table2", &to_json(&rows))?;
        }
        "takeaways" => {
            let analyses = load_suite(&opts)?;
            print!("{}", render::takeaway_report(&analyses));
        }
        "all" => {
            let analyses = load_suite(&opts)?;
            let rows: Vec<_> = analyses.iter().map(|a| a.overview.clone()).collect();
            println!(
                "== Table I ==\n{}",
                lumos_analysis::report::render_table(&rows)
            );
            println!("== Fig. 1 (geometries) ==\n{}", render::fig1(&analyses));
            println!("== Fig. 2 (domination) ==\n{}", render::fig2(&analyses));
            println!("== Fig. 3 (utilization) ==\n{}", render::fig3(&analyses));
            println!(
                "== Figs. 4–5 (waiting) ==\n{}",
                render::fig4_fig5(&analyses)
            );
            println!(
                "== Figs. 6–7 (failures) ==\n{}",
                render::fig6_fig7(&analyses)
            );
            println!("== Fig. 8 (user groups) ==\n{}", render::fig8(&analyses));
            println!(
                "== Figs. 9–10 (submissions) ==\n{}",
                render::fig9_fig10(&analyses)
            );
            println!("== Fig. 11 (user violins) ==\n{}", render::fig11(&analyses));
            let fig12_results = run_fig12(opts.seed, opts.days, 20_000);
            println!(
                "== Fig. 12 (prediction) ==\n{}",
                render::fig12(&fig12_results)
            );
            let table2_rows = run_table2(opts.seed, opts.days, 0.10);
            println!(
                "== Table II (adaptive backfilling) ==\n{}",
                render::table2(&table2_rows)
            );
            println!("== Takeaways ==\n{}", render::takeaway_report(&analyses));
            write_json(&opts, "suite", &to_json(&analyses))?;
            write_json(&opts, "fig12", &to_json(&fig12_results))?;
            write_json(&opts, "table2", &to_json(&table2_rows))?;
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown command {other}\n{}",
                usage()
            )))
        }
    }
    Ok(())
}

/// Tiny serialization helper so each match arm can serialize its own type.
mod erased {
    pub trait Json {
        fn to_json(&self) -> String;
    }
    impl<T: serde::Serialize> Json for T {
        fn to_json(&self) -> String {
            serde_json::to_string_pretty(self).expect("report types serialize")
        }
    }
}

fn report(result: Result<(), CliError>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("--help" | "-h" | "help") => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Some("--version" | "-V" | "version") => {
            println!("lumos {}", env!("CARGO_PKG_VERSION"));
            ExitCode::SUCCESS
        }
        Some("serve") => {
            args.next();
            report(run_serve(args))
        }
        Some("journal") => {
            args.next();
            report(run_journal(args))
        }
        _ => report(run(args)),
    }
}
