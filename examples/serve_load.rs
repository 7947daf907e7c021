//! Load generator for `lumos serve`: replays a synthetic trace against a
//! running server over NDJSON/TCP and prints the live stats it reports.
//!
//! ```text
//! # terminal 1
//! cargo run --release -- serve --addr 127.0.0.1:7421 --system theta
//! # terminal 2
//! cargo run --release --example serve_load -- --addr 127.0.0.1:7421 --jobs 500
//! ```
//!
//! With no `--addr`, the example spawns its own in-process virtual-time
//! server on an ephemeral port, so it also works standalone.
//!
//! `--two-tenant` switches to a fairness demo instead: the same skewed
//! two-tenant load (a 9:1 heavy/light submission mix) is replayed
//! against one FIFO server and one max-min fair-share server, and the
//! per-tenant delivered service plus Jain's fairness index of both are
//! printed side by side.
//!
//! The generator targets *virtual-time* servers (`--time-scale 0`, the
//! default): it stamps explicit submit times and drives the clock with
//! `Advance` commands, so every run is deterministic for a given seed.
//!
//! `--firehose` drops the lockstep pacing: submissions are pipelined
//! (up to 256 outstanding) the way the benchmark's `serve-firehose`
//! workload drives the server, and the sustained acknowledged-commands/sec
//! rate plus p50/p99 reply latency are printed — handy for eyeballing
//! group-commit throughput (and codec wins in the tail) against a
//! `--journal --fsync always` server.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

use lumos_core::SystemSpec;
use lumos_serve::{ServeConfig, Server};
use lumos_sim::{Policy, SimConfig, TenantTable};
use lumos_stats::Rng;

struct Options {
    addr: Option<String>,
    jobs: u64,
    seed: u64,
    /// Mean inter-arrival gap in simulation seconds.
    mean_gap: f64,
    /// Run the two-tenant fairness demo instead of the plain load.
    two_tenant: bool,
    /// Pipeline submissions with no pacing and report commands/sec.
    firehose: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        addr: None,
        jobs: 200,
        seed: 42,
        mean_gap: 30.0,
        two_tenant: false,
        firehose: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => opts.addr = Some(value("--addr")?),
            "--jobs" => {
                opts.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--mean-gap" => {
                opts.mean_gap = value("--mean-gap")?
                    .parse()
                    .map_err(|e| format!("--mean-gap: {e}"))?;
            }
            "--two-tenant" => opts.two_tenant = true,
            "--firehose" => opts.firehose = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.two_tenant && opts.addr.is_some() {
        return Err("--two-tenant spawns its own servers; drop --addr".into());
    }
    if opts.two_tenant && opts.firehose {
        return Err("--firehose is the plain-load mode; drop --two-tenant".into());
    }
    Ok(opts)
}

fn roundtrip(writer: &mut impl Write, reader: &mut impl BufRead, request: &str) -> String {
    writeln!(writer, "{request}").expect("write request");
    writer.flush().expect("flush request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    line.trim().to_string()
}

/// Numeric field of a parsed JSON value.
fn num(v: &serde_json::Value) -> f64 {
    match v {
        serde_json::Value::I64(n) => *n as f64,
        serde_json::Value::U64(n) => *n as f64,
        serde_json::Value::F64(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

/// Replays the seeded 9:1 heavy/light backlog against a fresh in-process
/// server under `policy` and returns the `stats` tenants block captured
/// mid-run (a drained run would equalize totals regardless of policy).
fn two_tenant_stats(policy: Policy, opts: &Options) -> serde_json::Value {
    // A deliberately small machine, so a backlog builds and the policy —
    // not spare capacity — decides whose jobs run.
    let mut system = SystemSpec::theta();
    system.name = "fairness-demo".into();
    system.total_nodes = 64;
    system.units_per_node = 1;
    system.total_units = 64;
    let sim = SimConfig {
        policy,
        ..SimConfig::default()
    };
    let config = ServeConfig {
        system,
        sim,
        queue_capacity: 65_536,
        time_scale: 0.0,
        journal: None,
        predictor: None,
        tenants: Some(TenantTable::parse("heavy 1.0 -\nlight 1.0 -\n").expect("valid table")),
        replicate_to: None,
        follow: None,
        group_commit: 64,
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind demo server");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run(false));
    let stream = TcpStream::connect(&addr).expect("connect to demo server");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;

    let mut rng = Rng::new(opts.seed);
    let mut clock: i64 = 0;
    for id in 0..opts.jobs {
        let gap = -(opts.mean_gap / 6.0) * (1.0 - rng.next_f64_open()).ln();
        clock += gap.ceil() as i64;
        let runtime = (60.0 * (0.8 * rng.next_gaussian()).exp() * 10.0).ceil() as i64;
        let procs = 1u64 << rng.next_below(5);
        // The skew: nine heavy submissions for every light one.
        let tenant = if id % 10 == 0 { "light" } else { "heavy" };
        roundtrip(
            &mut writer,
            &mut reader,
            &format!(r#"{{"Advance":{{"to":{clock}}}}}"#),
        );
        roundtrip(
            &mut writer,
            &mut reader,
            &format!(
                r#"{{"Submit":{{"job":{{"id":{id},"procs":{procs},"runtime":{runtime},"walltime":{},"submit":{clock},"tenant":"{tenant}"}}}}}}"#,
                runtime + 120,
            ),
        );
    }
    // Let half the backlog play out, then read the block mid-contention.
    roundtrip(
        &mut writer,
        &mut reader,
        &format!(r#"{{"Advance":{{"to":{}}}}}"#, clock + 2_000),
    );
    let stats = roundtrip(&mut writer, &mut reader, r#""Stats""#);
    roundtrip(&mut writer, &mut reader, r#""Shutdown""#);
    handle.join().expect("demo thread").expect("demo run");

    serde_json::parse_value_complete(&stats)
        .expect("stats JSON")
        .get("Stats")
        .and_then(|v| v.get("stats"))
        .and_then(|v| v.get("tenants"))
        .expect("tenant-enabled stats carry a tenants block")
        .clone()
}

/// The `--firehose` loop: the same workload as the paced mode, but every
/// command is pipelined (up to [`FIREHOSE_WINDOW`] outstanding, well
/// under the server's submission-queue bound) with no per-command
/// lockstep, an `Advance` every 64 commands so completed jobs drain, and
/// the sustained acknowledged rate printed at the end.
fn firehose(opts: &Options, stream: TcpStream, reader: &mut BufReader<TcpStream>) {
    const FIREHOSE_WINDOW: usize = 256;
    let mut writer = BufWriter::new(stream);
    let mut rng = Rng::new(opts.seed);
    let mut clock: i64 = 0;
    let (mut accepted, mut rejected) = (0u64, 0u64);
    let mut in_flight: VecDeque<std::time::Instant> = VecDeque::with_capacity(FIREHOSE_WINDOW);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(opts.jobs as usize);
    let mut line = String::new();
    let mut reap = |reader: &mut BufReader<TcpStream>,
                    line: &mut String,
                    in_flight: &mut VecDeque<std::time::Instant>| {
        let sent = in_flight.pop_front().expect("reply without a command");
        line.clear();
        reader.read_line(line).expect("read reply");
        assert!(!line.is_empty(), "server closed mid-stream");
        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        line.contains("Rejected")
    };

    let start = std::time::Instant::now();
    let mut commands = 0u64;
    for id in 0..opts.jobs {
        if in_flight.len() == FIREHOSE_WINDOW {
            writer.flush().expect("flush before reap");
            if reap(reader, &mut line, &mut in_flight) {
                rejected += 1;
            } else {
                accepted += 1;
            }
        }
        clock += 1;
        let runtime = (60.0 * (0.8 * rng.next_gaussian()).exp() * 10.0).ceil() as i64;
        let procs = 1u64 << rng.next_below(7);
        writeln!(
            writer,
            r#"{{"Submit":{{"job":{{"id":{id},"procs":{procs},"runtime":{runtime},"submit":{clock}}}}}}}"#
        )
        .expect("write submit");
        in_flight.push_back(std::time::Instant::now());
        commands += 1;
        if (id + 1) % 64 == 0 {
            writeln!(writer, r#"{{"Advance":{{"to":{clock}}}}}"#).expect("write advance");
            in_flight.push_back(std::time::Instant::now());
            commands += 1;
        }
    }
    writer.flush().expect("flush tail");
    while !in_flight.is_empty() {
        if reap(reader, &mut line, &mut in_flight) {
            rejected += 1;
        } else {
            accepted += 1;
        }
    }
    let seconds = start.elapsed().as_secs_f64();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let quantile = |q: f64| {
        let idx =
            ((latencies_ms.len() as f64 * q).ceil() as usize).clamp(1, latencies_ms.len()) - 1;
        latencies_ms[idx]
    };
    println!(
        "firehose: {commands} commands acknowledged in {seconds:.3}s — {:.0} cmds/sec \
         ({accepted} accepted, {rejected} rejected)",
        commands as f64 / seconds.max(1e-9),
    );
    println!(
        "firehose: reply latency p50 {:.3} ms, p99 {:.3} ms over {} replies \
         (window {FIREHOSE_WINDOW})",
        quantile(0.5),
        quantile(0.99),
        latencies_ms.len(),
    );
    let stats = roundtrip(&mut writer, reader, r#""Stats""#);
    println!("final stats: {stats}");
    if opts.addr.is_none() {
        let bye = roundtrip(&mut writer, reader, r#""Shutdown""#);
        println!("drained: {bye}");
    } else {
        println!("leaving the external server running (send \"Shutdown\" to stop it)");
    }
}

/// The `--two-tenant` fairness demo: same skewed load, FIFO vs max-min.
fn fairness_demo(opts: &Options) {
    println!(
        "two-tenant fairness demo: {} jobs, 9:1 heavy/light mix, seed {}",
        opts.jobs, opts.seed
    );
    for (label, policy) in [("FIFO", Policy::Fcfs), ("max-min", Policy::MaxMinFair)] {
        let block = two_tenant_stats(policy, opts);
        println!("{label}:");
        for row in block
            .get("tenants")
            .and_then(serde_json::Value::as_array)
            .expect("per-tenant rows")
        {
            let usage = row.get("usage").expect("usage");
            let name = usage
                .get("name")
                .and_then(serde_json::Value::as_str)
                .unwrap();
            let submitted = usage
                .get("counts")
                .and_then(|c| c.get("submitted"))
                .map(num)
                .unwrap();
            if submitted == 0.0 {
                continue;
            }
            println!(
                "  {name:>8}: {submitted:>4} submitted, {:>12} unit-seconds delivered, mean wait {:.1}s",
                usage.get("served_unit_seconds").map(num).unwrap(),
                row.get("mean_wait").map(num).unwrap(),
            );
        }
        println!(
            "  Jain's fairness index: {:.4}",
            block.get("fairness").map(num).unwrap()
        );
    }
    println!("(1.0 = perfectly equal weight-normalized service; 1/n = one tenant hogs it all)");
}

fn main() {
    let opts = match parse_options() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("serve_load: {message}");
            eprintln!(
                "usage: serve_load [--addr HOST:PORT] [--jobs N] [--seed S] [--mean-gap SECS] \
                 [--two-tenant] [--firehose]"
            );
            std::process::exit(2);
        }
    };

    if opts.two_tenant {
        fairness_demo(&opts);
        return;
    }

    // Connect to the given server, or spawn one in-process.
    let (addr, server_thread) = match &opts.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let config = ServeConfig {
                system: SystemSpec::theta(),
                sim: SimConfig::default(),
                queue_capacity: 1024,
                time_scale: 0.0,
                journal: None,
                predictor: None,
                tenants: None,
                replicate_to: None,
                follow: None,
                group_commit: 64,
            };
            let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral server");
            let addr = server.local_addr().expect("local addr").to_string();
            println!("spawned in-process server on {addr}");
            (addr, Some(std::thread::spawn(move || server.run(false))))
        }
    };

    let stream = TcpStream::connect(&addr).expect("connect to server");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));

    if opts.firehose {
        firehose(&opts, stream, &mut reader);
        if let Some(handle) = server_thread {
            handle.join().expect("server thread").expect("server run");
        }
        return;
    }
    let mut writer = stream;

    // Synthetic open-arrival workload: exponential gaps, heavy-tailed
    // runtimes (lognormal), mostly-small power-of-two-ish widths.
    let mut rng = Rng::new(opts.seed);
    let mut clock: i64 = 0;
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for id in 0..opts.jobs {
        let gap = -opts.mean_gap * (1.0 - rng.next_f64_open()).ln();
        clock += gap.ceil() as i64;
        let runtime = (60.0 * (0.8 * rng.next_gaussian()).exp() * 10.0).ceil() as i64;
        let walltime = runtime + 60 + rng.next_below(3_600) as i64;
        let procs = 1u64 << rng.next_below(7);
        let user = rng.next_below(16) as u32;

        // Move time forward to the arrival, then submit at it.
        roundtrip(
            &mut writer,
            &mut reader,
            &format!(r#"{{"Advance":{{"to":{clock}}}}}"#),
        );
        let reply = roundtrip(
            &mut writer,
            &mut reader,
            &format!(
                r#"{{"Submit":{{"job":{{"id":{id},"procs":{procs},"runtime":{runtime},"walltime":{walltime},"user":{user},"submit":{clock}}}}}}}"#
            ),
        );
        if reply.contains("Rejected") {
            rejected += 1;
        } else {
            accepted += 1;
        }

        if (id + 1) % 100 == 0 {
            let stats = roundtrip(&mut writer, &mut reader, r#""Stats""#);
            println!("[{:>6}] after {} submissions: {stats}", clock, id + 1);
        }
    }

    println!("submitted {accepted} jobs ({rejected} rejected) over {clock} sim seconds");
    let stats = roundtrip(&mut writer, &mut reader, r#""Stats""#);
    println!("final stats: {stats}");

    if let Some(handle) = server_thread {
        let bye = roundtrip(&mut writer, &mut reader, r#""Shutdown""#);
        println!("drained: {bye}");
        handle.join().expect("server thread").expect("server run");
    } else {
        println!("leaving the external server running (send \"Shutdown\" to stop it)");
    }
}
