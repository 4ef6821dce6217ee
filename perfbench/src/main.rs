//! The repository benchmark: two workloads over the AutoGNN
//! reproduction, one on the paper's preprocessing pipeline and one on the
//! serving simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run and writes
//! its spans to `perfbench/out/`. Either way the last line of standard
//! output is one JSON object with the check tally and the metrics. See
//! `perfbench/README.md` for the workloads, the metrics and what each
//! layer metric is expected to move.

mod ledger;
mod preprocess;
mod report;
mod serve;
mod stats;

use std::path::Path;
use std::process::ExitCode;

use ledger::Ledger;
use report::{result_line, Checks, Metrics, END_TO_END, PER_LAYER};

/// Workload names, in the order the manifest lists them.
const WORKLOADS: &[&str] = &["preprocess_convert", "serve_replay"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload; returns the check tally and its metrics.
fn run(args: &Args, ledger: &mut Ledger) -> (Checks, Metrics) {
    let mut checks = Checks::default();
    let (seed, secs) = (args.seed, args.seconds);
    let convert = &preprocess::CONVERT;
    let replay = &serve::REPLAY;
    let metrics = match (args.workload.as_str(), args.trace) {
        ("preprocess_convert", false) => preprocess::run_untraced(convert, seed, secs, &mut checks),
        ("preprocess_convert", true) => {
            preprocess::run_traced(convert, seed, secs, &mut checks, ledger)
        }
        (_, false) => serve::run_untraced(replay, seed, secs, &mut checks),
        (_, true) => serve::run_traced(replay, seed, secs, &mut checks, ledger),
    };
    (checks, metrics)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} (one thread; available_parallelism={})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut ledger = Ledger::new();
    let (checks, metrics) = run(&args, &mut ledger);
    let table = if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        ));
        match ledger.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                ledger.spans().len(),
                path.display()
            ),
            Err(err) => eprintln!("perfbench: could not write spans: {err}"),
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    for &(name, unit) in table {
        if let Some(value) = metrics.get(name) {
            println!("{name:<32} {value:>20.9} {unit}");
        }
    }
    println!("{}", result_line(checks, &metrics, table));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse(&argv(
            "--workload serve_replay --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "serve_replay".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_replay --seed x --seconds 1 --trace 0",
            "--workload serve_replay --seed 1 --seconds 0 --trace 0",
            "--workload serve_replay --seed 1 --seconds 1 --trace 2",
            "--workload serve_replay --seed 1 --seconds 1",
            "--workload serve_replay --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
