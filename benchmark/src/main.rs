//! The repository's benchmark: six workloads over the simulator, the
//! paper pipeline and the server; see `README.md` beside this package.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload, prints every metric by name with its unit, verifies the
//! outputs, and ends with one JSON line. `--workload all` runs each
//! workload in a process of its own.

mod inputs;
mod outcome;
mod paper_wl;
mod serve_wl;
mod sim_wl;
mod span;
mod table;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use outcome::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: lumos-benchmark --workload <name|all> [--seed N] [--seconds S] \
                     [--trace [0|1]] | --list | --emit-manifest";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::BASE_SEED,
        seconds: f64::from(table::RUN_SECONDS),
        trace: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        raw.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--workload" => args.workload = value(&mut i, "--workload")?,
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
            }
            "--trace" => {
                // `--trace 1`, `--trace 0`, or a bare `--trace`.
                args.trace = match raw.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if args.workload != "all" && table::workload(&args.workload).is_none() {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// The package directory: where `out/` lives.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Scratch space for journal directories, removed however the run ends.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> std::io::Result<Self> {
        let dir = package_dir()
            .join("out")
            .join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs every workload in a fresh process, so that each has its own peak
/// RSS and starts on a quiet disk.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut failed = Vec::new();
    for w in table::WORKLOADS {
        println!("== {} ==", w.name);
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("start a workload process");
        if !status.success() {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_one(args: &Args) -> ExitCode {
    let tmp = TempDir::create().expect("create the scratch directory");
    let serve = args.workload.starts_with("serve-");
    let (outcome, tracer): (Outcome, Option<span::Tracer>) =
        match (args.workload.as_str(), args.trace) {
            ("paper-characterize", false) => (paper_wl::run(args.seed, args.seconds), None),
            ("paper-characterize", true) => {
                let (o, t) = paper_wl::run_traced(args.seed, args.seconds);
                (o, Some(t))
            }
            (w, false) if serve => (serve_wl::run(w, args.seed, args.seconds, &tmp.0), None),
            (w, true) if serve => {
                let (o, t) = serve_wl::run_traced(w, args.seed, args.seconds, &tmp.0);
                (o, Some(t))
            }
            (w, false) => (sim_wl::run(w, args.seed, args.seconds), None),
            (w, true) => {
                let (o, t) = sim_wl::run_traced(w, args.seed, args.seconds);
                (o, Some(t))
            }
        };
    drop(tmp);
    if serve {
        // Leave the next run a quiet disk: what the journals dirtied and
        // the removal did not cancel is written back now, not under it.
        let _ = std::process::Command::new("sync").status();
    }
    if let Some(tracer) = tracer {
        let path = package_dir()
            .join("out")
            .join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, tracer.to_json(&args.workload, args.seed)).expect("write the trace");
        println!("trace written to {}", path.display());
    }
    report(args, &outcome)
}

/// Prints the notes, every metric of the run's kind by name and unit, the
/// verdict, and the result line.
fn report(args: &Args, outcome: &Outcome) -> ExitCode {
    let w = table::workload(&args.workload).expect("checked");
    println!(
        "workload {} seed {} {}",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    println!("  op: {}", w.op);
    for note in &outcome.notes {
        println!("  {note}");
    }
    let mut problems = outcome.problems.clone();
    let mut fields = Vec::new();
    let mut not_entered = Vec::new();
    let wanted: Vec<&table::Metric> = if args.trace {
        table::per_layer().collect()
    } else {
        table::end_to_end().collect()
    };
    for m in wanted {
        let measured = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|&(_, v)| v);
        // A layer the workload never enters has spent nothing there.
        let value = match measured {
            Some(v) => v,
            None if args.trace => {
                not_entered.push(m.name);
                0.0
            }
            None => {
                problems.push(format!("{} was not measured", m.name));
                continue;
            }
        };
        if !value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
            continue;
        }
        if measured.is_some() {
            println!("  {:<38} {value:>16.6} {}", m.name, m.unit);
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    for (name, _) in &outcome.metrics {
        assert!(
            table::METRICS.iter().any(|m| m.name == *name),
            "`{name}` is not in the metric table"
        );
    }
    if !not_entered.is_empty() {
        println!(
            "  layers this workload does not enter, reported as 0: {}",
            not_entered.join(" ")
        );
    }
    println!(
        "  attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for p in &problems {
        println!("  FAILED CHECK: {p}");
    }
    let correct = outcome.failed == 0 && problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", table::listing());
            return ExitCode::SUCCESS;
        }
        Some("--emit-manifest") => {
            print!("{}", table::manifest());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
