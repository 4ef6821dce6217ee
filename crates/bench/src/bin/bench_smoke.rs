//! CI `bench-smoke`: replay the seeded serving sweep plus the
//! `grid_sweep` family, write the `BENCH_serving.json` artifact, and
//! gate the run against the checked-in baseline.
//!
//! ```text
//! # what CI runs (exit code 1 when the run does not reproduce the
//! # baseline byte for byte):
//! cargo run --release -p agnn-bench --bin bench_smoke -- \
//!     --baseline ci/bench_serving_baseline.json --out BENCH_serving.json \
//!     --trace-out BENCH_trace.json --timing-out BENCH_timing.md \
//!     --summary "$GITHUB_STEP_SUMMARY"
//!
//! # refresh the baseline after an intentional change (in the same PR):
//! cargo run --release -p agnn-bench --bin bench_smoke -- \
//!     --write-baseline ci/bench_serving_baseline.json
//! ```
//!
//! `--baseline <file>` re-renders the run in the baseline form
//! ([`serving_smoke::render_baseline_json`]) and compares it with the
//! file byte for byte through [`perfgate::gate`]: each baseline-only row
//! is listed as `- …` and each run-only row as `+ …`. The gate holds no
//! host-timed member; the simulator's speed is judged by the repository
//! benchmark (`perfbench/`).
//!
//! `--timing-out <file>` writes the per-scenario timing table
//! ([`serving_smoke::render_timing_table`]) — CI uploads it next to the
//! metrics artifact so "which scenario got slow" needs no local rebuild.
//!
//! `--summary <file>` appends the gate's verdict as markdown, every
//! mismatch line inside a fenced `diff` block (GitHub renders
//! `$GITHUB_STEP_SUMMARY` on the job page, rows that moved in red and
//! green).
//!
//! `--trace-out <file>` additionally replays the `migration_drift`
//! scenario with a Perfetto trace sink attached
//! ([`serving_smoke::perfetto_trace`]) and writes the
//! `chrome://tracing` / [ui.perfetto.dev] JSON document — the CI job
//! uploads it next to `BENCH_serving.json` so a regressed run's
//! board-resource timeline can be inspected without a local rebuild.
//! The document is sanity-parsed (valid JSON, nonzero `traceEvents`)
//! before it is written: a malformed trace fails the run, never lands
//! as a green artifact.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::process::ExitCode;

use agnn_bench::{perfgate, serving_smoke};

/// The sweep case `--trace-out` replays: the scenario exercising the
/// most machinery at once (pipelined boards, LRU eviction, peer
/// migration), so its trace shows every track the writer knows.
const TRACE_SCENARIO: &str = "migration_drift";

#[derive(Default)]
struct Args {
    out: Option<String>,
    baseline: Option<String>,
    write_baseline: Option<String>,
    summary: Option<String>,
    trace_out: Option<String>,
    timing_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--out" => args.out = Some(value("--out")?),
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--write-baseline" => args.write_baseline = Some(value("--write-baseline")?),
            "--summary" => args.summary = Some(value("--summary")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--timing-out" => args.timing_out = Some(value("--timing-out")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let sweep = serving_smoke::run_all();
    for s in &sweep {
        let overall = s.report.overall_latency();
        let victim = s
            .victim_p99_secs()
            .map_or(String::new(), |p| format!(" victim_p99={p:>9.4} s"));
        let goodput = s
            .victim_goodput_p99_secs()
            .map_or(String::new(), |p| format!(" goodput_p99={p:>7.4} s"));
        println!(
            "{:<28} boards={} placement={:<17} sched={:<4} p99={:>9.4} s reconfigs={:>6} \
             completed={} migrations={:>4} host_gb={:>8.2}{victim}{goodput}",
            s.name,
            s.config.boards,
            s.config.placement.name(),
            s.config.scheduler.name(),
            overall.quantile(0.99),
            s.report.reconfigs,
            s.report.completed(),
            s.report.migrations(),
            s.report.host_upload_bytes() as f64 / 1e9,
        );
    }

    if let Some(path) = &args.timing_out {
        let table = serving_smoke::render_timing_table(&sweep);
        std::fs::write(path, &table).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote timing table {path}");
    }
    if let Some(path) = &args.out {
        let artifact = serving_smoke::render_json(&sweep);
        std::fs::write(path, &artifact).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote artifact {path}");
    }
    let rendered = serving_smoke::render_baseline_json(&sweep);
    if let Some(path) = &args.write_baseline {
        std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote baseline {path}");
    }
    if let Some(path) = &args.trace_out {
        let trace = serving_smoke::perfetto_trace(TRACE_SCENARIO)
            .ok_or_else(|| format!("unknown trace scenario '{TRACE_SCENARIO}'"))?;
        // Sanity-parse before writing: an artifact Perfetto cannot load
        // must fail the run, not land green.
        let doc = perfgate::parse(&trace).map_err(|e| format!("trace does not parse: {e}"))?;
        let events = doc
            .get("traceEvents")
            .and_then(perfgate::Json::as_arr)
            .map_or(0, <[perfgate::Json]>::len);
        if events == 0 {
            return Err("trace parsed but carries no traceEvents".to_string());
        }
        std::fs::write(path, &trace).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote Perfetto trace {path} ({TRACE_SCENARIO}, {events} events)");
    }

    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let mismatches = perfgate::gate(&text, &rendered);
        let mut summary = String::from("\n### Serving perf gate\n\n");
        if mismatches.is_empty() {
            summary += &format!(
                "Passed: {} scenarios reproduce `{path}` byte for byte.\n",
                sweep.len()
            );
        } else {
            summary += &format!("The run does not reproduce `{path}`:\n\n```diff\n");
            for line in &mismatches {
                eprintln!("PERF GATE MISMATCH: {line}");
                summary += &format!("{line}\n");
            }
            summary += "```\n";
        }
        // The verdict lands in the summary before it is returned, so a
        // failing gate still publishes what it found.
        if let Some(summary_path) = &args.summary {
            append_to(summary_path, &summary)
                .map_err(|e| format!("writing summary {summary_path}: {e}"))?;
        }
        if !mismatches.is_empty() {
            return Err(format!(
                "{} line(s) differ from {path} — if the change is intentional, \
                 refresh it with --write-baseline {path}",
                mismatches.len()
            ));
        }
        println!(
            "perf gate passed: {} scenario(s) reproduce {path} byte for byte",
            sweep.len()
        );
    }
    Ok(())
}

/// Appends `content` to the file at `path` (creating it if missing) —
/// `$GITHUB_STEP_SUMMARY` is append-only by contract, and other steps may
/// already have written to it.
fn append_to(path: &str, content: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(content.as_bytes())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_smoke: {message}");
            ExitCode::FAILURE
        }
    }
}
