//! `lumos` — regenerate every table and figure of the paper from the
//! synthetic five-system suite (or from SWF traces you supply), or run
//! the online scheduling service. Every experiment is one row of
//! [`EXPERIMENTS`]; single commands, `all` and the usage text below
//! (`lumos --help`; a test holds this copy to it) are read off that table.
//!
//! ```text
//! usage: lumos <experiment> [--seed N] [--days N] [--out DIR] [--swf FILE [--system NAME]]
//!        lumos serve [--addr HOST:PORT] [--system NAME] [--policy P] [--backfill B]
//!                    [--queue-cap N] [--time-scale X] [--tenants FILE]
//!                    [--predictor last2[:MARGIN]|user[:MARGIN]|off]
//!                    [--journal DIR] [--fsync always|never|interval:MS] [--snapshot-every N]
//!                    [--replicate-to ADDR | --follow ADDR]
//!        lumos journal inspect DIR [--verbose]
//!        lumos --help | --version
//!
//! experiments:
//!   table1             Table I
//!   fig1               Fig. 1 (geometries)
//!   fig2               Fig. 2 (domination)
//!   fig3               Fig. 3 (utilization)
//!   fig4 | fig5        Figs. 4–5 (waiting)
//!   fig6 | fig7        Figs. 6–7 (failures)
//!   fig8               Fig. 8 (user groups)
//!   fig9 | fig10       Figs. 9–10 (submissions)
//!   fig11              Fig. 11 (user violins)
//!   fig12              Fig. 12 (prediction)
//!   table2             Table II (adaptive backfilling)
//!   takeaways          Takeaways
//!   all                everything above, + JSON report with --out
//!   ablation-relax     relaxation-factor sweep on Theta, 4 days by default (DESIGN.md §4.2)
//!   ablation-feedback  queue-feedback gradient on Philly (DESIGN.md §4.1)
//!   ablation-walltime  planning walltimes under SJF + EASY on Theta, 10 days by default (paper §VI.A)
//!
//! other commands:
//!   serve              online scheduling service (NDJSON over TCP + stdin)
//!   journal            audit a serve journal directory (inspect)
//! ```
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage error.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use lumos_analysis::SystemAnalysis;
use lumos_cli::{feedback, fig12, render, table2};

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
    /// `--days`; each experiment has its own default window.
    days: Option<u32>,
    out: Option<PathBuf>,
    swf: Option<PathBuf>,
    /// `--system`, the machine the `--swf` trace ran on.
    system: Option<lumos_core::SystemSpec>,
}

impl Options {
    fn days(&self) -> u32 {
        self.days.unwrap_or(lumos_cli::DEFAULT_DAYS)
    }
}

/// What one experiment prints, and the `(file stem, JSON)` that `--out`
/// writes for it.
type Rendered = (String, Option<(&'static str, String)>);

/// What an experiment runs on, with the function that runs it.
enum Run {
    /// The analysed suite: the five synthetic systems, or the `--swf` trace.
    Suite(fn(&[SystemAnalysis]) -> Rendered),
    /// Traces it generates itself from `--seed` and `--days`; `--swf`
    /// cannot feed it.
    Generators(fn(&Options) -> Rendered),
    /// An ablation over generated traces: run by name only, `all` leaves
    /// it out.
    Ablation(fn(&Options) -> Rendered),
}

struct Experiment {
    /// The command, then its aliases.
    names: &'static [&'static str],
    /// Section title under `all`, description in `usage()`.
    title: &'static str,
    run: Run,
}

/// Every experiment `lumos` runs, in the order `all` prints them.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        names: &["table1"],
        title: "Table I",
        run: Run::Suite(|a| {
            let rows: Vec<_> = a.iter().map(|a| a.overview.clone()).collect();
            let text = lumos_analysis::report::render_table(&rows);
            (text, Some(("table1", to_json(&rows))))
        }),
    },
    Experiment {
        names: &["fig1"],
        title: "Fig. 1 (geometries)",
        run: Run::Suite(|a| (render::fig1(a), Some(("fig1", to_json(a))))),
    },
    Experiment {
        names: &["fig2"],
        title: "Fig. 2 (domination)",
        run: Run::Suite(|a| (render::fig2(a), None)),
    },
    Experiment {
        names: &["fig3"],
        title: "Fig. 3 (utilization)",
        run: Run::Suite(|a| (render::fig3(a), None)),
    },
    Experiment {
        names: &["fig4", "fig5"],
        title: "Figs. 4–5 (waiting)",
        run: Run::Suite(|a| (render::fig4_fig5(a), None)),
    },
    Experiment {
        names: &["fig6", "fig7"],
        title: "Figs. 6–7 (failures)",
        run: Run::Suite(|a| (render::fig6_fig7(a), None)),
    },
    Experiment {
        names: &["fig8"],
        title: "Fig. 8 (user groups)",
        run: Run::Suite(|a| (render::fig8(a), None)),
    },
    Experiment {
        names: &["fig9", "fig10"],
        title: "Figs. 9–10 (submissions)",
        run: Run::Suite(|a| (render::fig9_fig10(a), None)),
    },
    Experiment {
        names: &["fig11"],
        title: "Fig. 11 (user violins)",
        run: Run::Suite(|a| (render::fig11(a), None)),
    },
    Experiment {
        names: &["fig12"],
        title: "Fig. 12 (prediction)",
        run: Run::Generators(|o| {
            let results = fig12::run_fig12(o.seed, o.days(), 20_000);
            (render::fig12(&results), Some(("fig12", to_json(&results))))
        }),
    },
    Experiment {
        names: &["table2"],
        title: "Table II (adaptive backfilling)",
        run: Run::Generators(|o| {
            let rows = table2::run_table2(o.seed, o.days(), 0.10);
            (render::table2(&rows), Some(("table2", to_json(&rows))))
        }),
    },
    Experiment {
        names: &["takeaways"],
        title: "Takeaways",
        run: Run::Suite(|a| (render::takeaway_report(a), None)),
    },
    Experiment {
        names: &["ablation-relax"],
        title: "relaxation-factor sweep on Theta, 4 days by default (DESIGN.md §4.2)",
        run: Run::Ablation(|o| {
            let days = o.days.unwrap_or(4);
            let sweep = table2::relax_ablation(lumos_core::SystemId::Theta, o.seed, days);
            (render::relax_ablation(&sweep), None)
        }),
    },
    Experiment {
        names: &["ablation-feedback"],
        title: "queue-feedback gradient on Philly (DESIGN.md §4.1)",
        run: Run::Ablation(|o| {
            let gradient = |on| feedback::minimal_gradient(o.seed, o.days(), on);
            let text = render::feedback_ablation(gradient(true), gradient(false));
            (text, None)
        }),
    },
    Experiment {
        names: &["ablation-walltime"],
        title: "planning walltimes under SJF + EASY on Theta, 10 days by default (paper §VI.A)",
        run: Run::Ablation(|o| {
            let sweep = fig12::walltime_ablation(o.seed, o.days.unwrap_or(10));
            (render::walltime_ablation(&sweep), None)
        }),
    },
];

fn to_json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("report types serialize")
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let command = args.next().ok_or_else(usage)?;
    let mut opts = Options {
        command,
        seed: lumos_cli::DEFAULT_SEED,
        days: None,
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
                let days: u32 = value("--days")?
                    .parse()
                    .map_err(|e| format!("--days: {e}"))?;
                if days == 0 {
                    return Err("--days must be at least 1".into());
                }
                opts.days = Some(days);
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--swf" => opts.swf = Some(PathBuf::from(value("--swf")?)),
            "--system" => opts.system = Some(system_spec(&value("--system")?)?),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if opts.system.is_some() && opts.swf.is_none() {
        return Err(
            "--system names the machine of a --swf trace; without --swf FILE it does nothing"
                .into(),
        );
    }
    Ok(opts)
}

fn usage() -> String {
    let mut out = String::from(
        "usage: lumos <experiment> [--seed N] [--days N] [--out DIR] [--swf FILE [--system NAME]]\n\
         \x20      lumos serve [--addr HOST:PORT] [--system NAME] [--policy P] [--backfill B]\n\
         \x20                  [--queue-cap N] [--time-scale X] [--tenants FILE]\n\
         \x20                  [--predictor last2[:MARGIN]|user[:MARGIN]|off]\n\
         \x20                  [--journal DIR] [--fsync always|never|interval:MS] [--snapshot-every N]\n\
         \x20                  [--replicate-to ADDR | --follow ADDR]\n\
         \x20      lumos journal inspect DIR [--verbose]\n\
         \x20      lumos --help | --version\n\
         \n\
         experiments:\n",
    );
    let mut row = |names: &str, what: &str| {
        let _ = writeln!(out, "  {names:<18} {what}");
    };
    let (ablations, in_all): (Vec<_>, Vec<_>) = EXPERIMENTS
        .iter()
        .partition(|e| matches!(e.run, Run::Ablation(_)));
    for e in in_all {
        row(&e.names.join(" | "), e.title);
    }
    row("all", "everything above, + JSON report with --out");
    for e in ablations {
        row(&e.names.join(" | "), e.title);
    }
    out.push_str(
        "\nother commands:\n\
         \x20 serve              online scheduling service (NDJSON over TCP + stdin)\n\
         \x20 journal            audit a serve journal directory (inspect)",
    );
    out
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
    let (mut replicate_to, mut follow) = (None, None);
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
                // A zero-capacity channel is a rendezvous: a submission
                // would be accepted only while the scheduler sits in `recv`.
                if config.queue_capacity == 0 {
                    return Err(CliError::Usage("--queue-cap must be at least 1".into()));
                }
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
            "--journal" => journal_dir = Some(PathBuf::from(value("--journal")?)),
            "--replicate-to" => replicate_to = Some(value("--replicate-to")?),
            "--follow" => follow = Some(value("--follow")?),
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
    config.replication = match (replicate_to, follow) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--replicate-to and --follow are mutually exclusive (a server is \
                 either the primary or the follower)"
                    .into(),
            ))
        }
        (Some(follower), None) => Some(lumos_serve::Replication::To(follower)),
        (None, Some(primary)) => Some(lumos_serve::Replication::Follow(primary)),
        (None, None) => None,
    };
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
        None if config.replication.is_some() => {
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
/// directory ([`lumos_serve::recovery::inspect`]). Damage is a warning on
/// stderr, not a failure: exit 0 unless the directory itself is
/// unreadable.
fn run_journal(mut args: impl Iterator<Item = String>) -> Result<(), CliError> {
    let usage_error = |what: String| Err(CliError::Usage(format!("{what}\n{}", usage())));
    match args.next() {
        Some(sub) if sub == "inspect" => {}
        Some(sub) => {
            return usage_error(format!(
                "unknown journal subcommand {sub} (expected inspect)"
            ))
        }
        None => return usage_error("journal expects a subcommand".into()),
    }
    let (mut dir, mut verbose) = (None, false);
    for arg in args {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            other if dir.is_none() && !other.starts_with('-') => dir = Some(PathBuf::from(other)),
            other => return usage_error(format!("unexpected argument {other}")),
        }
    }
    let Some(dir) = dir else {
        return usage_error("journal inspect expects a directory".into());
    };
    let (mut out, mut err) = (std::io::stdout().lock(), std::io::stderr());
    lumos_serve::recovery::inspect(&dir, verbose, &mut out, &mut err)
        .map_err(|e| CliError::Runtime(format!("reading {}: {e}", dir.display())))
}

/// Loads the analysis suite: either the five synthetic systems, or a single
/// SWF trace when `--swf` is given.
fn load_suite(opts: &Options) -> Result<Vec<SystemAnalysis>, String> {
    match &opts.swf {
        None => Ok(lumos_cli::analyzed_suite(opts.seed, opts.days())),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let spec = opts
                .system
                .clone()
                .unwrap_or_else(lumos_core::SystemSpec::theta);
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

/// The rows a command runs: the one it names, or under `all` every row
/// that is not an ablation. Empty for a name no row has.
fn select(command: &str) -> Vec<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .filter(|e| match command {
            "all" => !matches!(e.run, Run::Ablation(_)),
            name => e.names.contains(&name),
        })
        .collect()
}

/// Runs the selected experiments: a lone one prints its text; `all` gives
/// each a `== title ==` section and writes `suite.json` in place of the
/// suite-based rows' own files.
fn run(args: impl Iterator<Item = String>) -> Result<(), CliError> {
    let opts = parse_args(args).map_err(CliError::Usage)?;
    let all = opts.command == "all";
    let mut selected = select(&opts.command);
    if selected.is_empty() {
        return Err(CliError::Usage(format!(
            "unknown command {}\n{}",
            opts.command,
            usage()
        )));
    }
    if opts.swf.is_some() {
        let (fed, unfed): (Vec<_>, Vec<_>) = selected
            .into_iter()
            .partition(|e| matches!(e.run, Run::Suite(_)));
        if fed.is_empty() {
            return Err(CliError::Usage(format!(
                "{} generates its own traces from --seed and --days; --swf cannot feed it",
                opts.command
            )));
        }
        if !unfed.is_empty() {
            let names: Vec<_> = unfed.iter().map(|e| e.names[0]).collect();
            eprintln!(
                "--swf: skipping {} (generated from --seed and --days, not from the trace)",
                names.join(", ")
            );
        }
        selected = fed;
    }

    let analyses = if selected.iter().any(|e| matches!(e.run, Run::Suite(_))) {
        load_suite(&opts)?
    } else {
        Vec::new()
    };
    let mut files = Vec::new();
    if all && opts.out.is_some() {
        files.push(("suite", to_json(&analyses)));
    }
    for e in selected {
        let (text, file) = match e.run {
            Run::Suite(run) => {
                let (text, file) = run(&analyses);
                (text, file.filter(|_| !all))
            }
            Run::Generators(run) | Run::Ablation(run) => run(&opts),
        };
        if all {
            println!("== {} ==\n{text}", e.title);
        } else {
            print!("{text}");
        }
        files.extend(file);
    }
    for (stem, json) in files {
        write_json(&opts, stem, &json)?;
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_and_aliases_are_unique() {
        let mut seen = HashSet::from(["all", "serve", "journal"]);
        for e in EXPERIMENTS {
            assert!(!e.names.is_empty(), "{}: a row needs a name", e.title);
            for name in e.names {
                assert!(seen.insert(name), "{name} names two commands");
            }
        }
    }

    #[test]
    fn usage_names_every_row() {
        let usage = usage();
        for e in EXPERIMENTS {
            let listed = format!("  {} ", e.names.join(" | "));
            assert!(usage.contains(&listed), "usage() leaves out {listed:?}");
            assert!(usage.contains(e.title), "usage() leaves out {:?}", e.title);
        }
    }

    #[test]
    fn module_doc_is_the_usage_text() {
        let doc: Vec<&str> = include_str!("main.rs")
            .lines()
            .skip_while(|line| *line != "//! ```text")
            .skip(1)
            .take_while(|line| *line != "//! ```")
            .map(|line| line.strip_prefix("//! ").unwrap_or(""))
            .collect();
        assert_eq!(doc.join("\n"), usage());
    }

    #[test]
    fn all_runs_every_row_that_is_not_an_ablation() {
        let all: Vec<_> = select("all").iter().map(|e| e.names[0]).collect();
        let ablations = ["ablation-relax", "ablation-feedback", "ablation-walltime"];
        let rest: Vec<_> = ablations
            .iter()
            .flat_map(|name| select(name))
            .map(|e| e.names[0])
            .collect();
        assert_eq!(rest, ablations);
        let table: Vec<_> = EXPERIMENTS.iter().map(|e| e.names[0]).collect();
        assert_eq!([all, rest].concat(), table);
        assert_eq!(select("fig5")[0].names[0], "fig4");
        assert!(select("nosuch").is_empty());
    }

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(String::from)
    }

    #[test]
    fn flags_that_cannot_mean_anything_are_usage_errors() {
        for line in [
            "table1 --days 0",
            "table1 --system theta",
            "table1 --system nosuch",
            "table1 --swf x --system nosuch",
            "table1 --seed",
            "table1 --frobnicate",
        ] {
            assert!(parse_args(args(line)).is_err(), "{line} parsed");
        }
        let ok = parse_args(args("fig4 --swf x --system mira --days 3"))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!((ok.days(), ok.system.unwrap().name), (3, "Mira".into()));
    }
}
