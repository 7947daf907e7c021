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

use std::io::{BufRead, BufReader, Write};
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
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        addr: None,
        jobs: 200,
        seed: 42,
        mean_gap: 30.0,
        two_tenant: false,
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
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.two_tenant && opts.addr.is_some() {
        return Err("--two-tenant spawns its own servers; drop --addr".into());
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
        replication: None,
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
                 [--two-tenant]"
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
            let config = ServeConfig::new(SystemSpec::theta());
            let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral server");
            let addr = server.local_addr().expect("local addr").to_string();
            println!("spawned in-process server on {addr}");
            (addr, Some(std::thread::spawn(move || server.run(false))))
        }
    };

    let stream = TcpStream::connect(&addr).expect("connect to server");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
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
