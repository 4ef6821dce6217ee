//! A million served requests at interactive speed — the scale target of
//! the simulator core (`crates/serve/src/engine/`).
//!
//! Replays the gated `migration_drift` deployment shape — six
//! memory-pressured Taobao regions on four pipelined boards with
//! peer-to-peer graph rehydration (see [`agnn_bench::million`]) — but
//! for **1,000,000 requests** instead of the smoke sweep's 6,000, and
//! reports the simulator's own self-metrics (events processed, host wall
//! clock, events/second) alongside the serving results. On a
//! laptop-class core a single seed finishes in around a second; before
//! the engine rewrite it took an order of magnitude longer.
//!
//! ```text
//! cargo run --release -p agnn-bench --bin million_requests -- \
//!     [REQUESTS] [--seeds 4242,4243,...]
//! ```
//!
//! `--seeds` replays the identical deployment once per seed, one after
//! the other, and prints a per-seed digest table. The runs are fully
//! deterministic in their seeds (the wall-clock self-metrics are the
//! only numbers that vary between hosts), so the printed
//! p99/reconfig/migration figures and every per-seed `trace_digest` are
//! reproducible bit-for-bit.

use std::process::ExitCode;
use std::time::Instant;

use agnn_bench::million;
use agnn_serve::{TrafficReport, TrafficSim};

struct Args {
    requests: u64,
    seeds: Vec<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 1_000_000,
        seeds: vec![million::DEFAULT_SEED],
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .split(',')
                    .map(|s| s.trim().parse::<u64>().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.seeds.is_empty() {
                    return Err("--seeds needs at least one seed".to_string());
                }
            }
            other => {
                args.requests = other
                    .parse::<u64>()
                    .map_err(|_| format!("unknown argument '{other}'"))?;
            }
        }
    }
    Ok(args)
}

/// The original single-seed report: every serving figure plus the
/// simulator's self-metrics.
fn print_report(requests: u64, report: &TrafficReport) {
    let (completed, dropped) = (report.completed(), report.dropped());
    let cache = million::config(million::DEFAULT_SEED, requests).cache;
    println!("requests offered     {requests}");
    println!("completed            {completed}");
    println!("dropped              {dropped}");
    println!("simulated duration   {:>12.1} s", report.duration_secs);
    println!(
        "p50 / p99 latency    {:>12.4} s / {:.4} s",
        report.overall_latency().quantile(0.50),
        report.overall_latency().quantile(0.99),
    );
    println!("reconfigurations     {}", report.reconfigs);
    println!("migrations           {}", report.migrations());
    println!(
        "cache hit-rate       {:>12.1} % ({}, {} coalesced)",
        report.cache.hit_rate() * 100.0,
        cache.name(),
        report.cache.coalesced,
    );
    println!(
        "host / switch bytes  {:.2} GiB / {:.2} GiB",
        report.host_upload_bytes() as f64 / (1u64 << 30) as f64,
        report.switch_bytes() as f64 / (1u64 << 30) as f64,
    );
    println!();
    println!("sim events           {}", report.sim.events);
    println!("sim wall clock       {:>12.3} s", report.sim.wall_secs);
    println!(
        "sim speed            {:>12.2} M events/s",
        report.sim.events_per_sec() / 1e6
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("million_requests: {message}");
            return ExitCode::FAILURE;
        }
    };

    let started = Instant::now();
    let reports: Vec<TrafficReport> = args
        .seeds
        .iter()
        .map(|&seed| {
            TrafficSim::new(million::tenants(), million::config(seed, args.requests)).run()
        })
        .collect();
    let wall = started.elapsed().as_secs_f64();

    if let [report] = reports.as_slice() {
        print_report(args.requests, report);
        return ExitCode::SUCCESS;
    }

    // Multi-seed mode: one digest row per seed, in seed order — the
    // digests are what the determinism contract pins, so they lead.
    println!("{} requests x {} seeds", args.requests, args.seeds.len());
    println!("seed      completed   dropped  p99_secs   reconfigs  trace_digest");
    for (seed, report) in args.seeds.iter().zip(&reports) {
        println!(
            "{:<8} {:>10} {:>9} {:>9.4} {:>11} {:>17}",
            seed,
            report.completed(),
            report.dropped(),
            report.overall_latency().quantile(0.99),
            report.reconfigs,
            format!("{:016x}", report.trace_digest),
        );
    }
    let events: u64 = reports.iter().map(|r| r.sim.events).sum();
    println!();
    println!("sim events           {events}");
    println!("wall clock           {wall:>12.3} s");
    ExitCode::SUCCESS
}
