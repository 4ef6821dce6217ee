//! Metric tables, the check tally and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced run), every one reported by every
/// workload: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): `(name, unit)`. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Preprocessing request path, mean per traced request.
    ("request.traced_ms", "ms"),
    ("request.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("core.profile_us", "us"),
    ("cost.preview_us", "us"),
    ("core.reconfig_us", "us"),
    ("core.ingest_us", "us"),
    ("hw.sort_full_ms", "ms"),
    ("hw.reshape_ms", "ms"),
    ("algo.sample_ms", "ms"),
    ("hw.select_ms", "ms"),
    ("hw.reindex_ms", "ms"),
    ("hw.sort_sub_ms", "ms"),
    ("core.price_us", "us"),
    ("core.compute_us", "us"),
    ("core.residual_ms", "ms"),
    // The same layers as shares of the traced request time.
    ("hw.sort_full_pct", "%"),
    ("hw.reshape_pct", "%"),
    ("algo.sample_pct", "%"),
    ("hw.select_pct", "%"),
    ("hw.reindex_pct", "%"),
    ("hw.sort_sub_pct", "%"),
    ("cost.preview_pct", "%"),
    ("core.ingest_pct", "%"),
    ("core.compute_pct", "%"),
    ("core.residual_pct", "%"),
    // The software reference on the same requests.
    ("algo.reference_ms_p50", "ms"),
    ("algo.convert_ms", "ms"),
    ("algo.ref_sample_ms", "ms"),
    ("algo.build_subgraph_ms", "ms"),
    ("algo.reference_residual_ms", "ms"),
    // Exact work counts over the fixed fingerprint prefix.
    ("algo.selections", "count"),
    ("algo.pool_elements", "count"),
    ("hw.reindex_inputs", "count"),
    ("hw.subgraph_edges", "count"),
    ("hw.upe_passes", "count"),
    ("hw.scr_passes", "count"),
    ("core.reconfigs", "count"),
    // Set-up layers.
    ("graph.generate_ms", "ms"),
    ("core.new_us", "us"),
    ("serve.new_us", "us"),
    // Serving simulator: the run and its component replays.
    ("serve.run_s", "s"),
    ("serve.engine.events", "count"),
    ("serve.engine.ns_per_event", "ns"),
    ("serve.arrivals.ns_per_call", "ns"),
    ("serve.arrivals.share_s", "s"),
    ("serve.queue.ns_per_op", "ns"),
    ("serve.queue.share_s", "s"),
    ("serve.sched.ns_per_op", "ns"),
    ("serve.sched.share_s", "s"),
    ("serve.pool.price_ns_per_call", "ns"),
    ("serve.pool.price_share_s", "s"),
    ("serve.pool.reconfig_ns_per_call", "ns"),
    ("serve.pool.reconfig_share_s", "s"),
    ("cost.choose_config_us", "us"),
    ("cost.choose_config_share_s", "s"),
    ("serve.loop.residual_s", "s"),
    ("serve.trace.overhead_s", "s"),
    ("serve.trace.spans", "count"),
    // Exact counts from the simulator's report.
    ("serve.arrivals", "count"),
    ("serve.completed", "count"),
    ("serve.dropped", "count"),
    ("serve.expired_in_queue", "count"),
    ("serve.aborted", "count"),
    ("serve.hedges", "count"),
    ("serve.reconfigs", "count"),
    ("serve.tenant_drift_buckets", "count"),
    ("serve.migrations", "count"),
    ("serve.evictions", "count"),
    ("serve.host_bytes", "bytes"),
    ("serve.switch_bytes", "bytes"),
    ("serve.cache_lookups", "count"),
];

/// Output checks: how many were made and how many failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check, naming it on standard error when it fails.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The result line: every metric of `table` in table order (0 where the
/// workload did not report it), with its unit.
///
/// # Panics
///
/// Panics if `metrics` holds a name outside `table` or a non-finite
/// value — either is a bug in this benchmark.
pub fn result_line(checks: Checks, metrics: &Metrics, table: &[(&str, &str)]) -> String {
    for name in metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in the table"
        );
    }
    let body: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

/// The process's peak resident set size in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_in_order() {
        let mut metrics = Metrics::new();
        metrics.insert("setup_s", 0.25);
        let line = result_line(Checks::default(), &metrics, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"request_ms_p50\": {\"value\": 0.0, \"unit\": \"ms\"}"));
        let first = line.find("request_ms_p50").unwrap();
        assert!(first < line.find("peak_rss_mb").unwrap());
    }

    #[test]
    fn failed_checks_make_the_result_incorrect() {
        let mut checks = Checks::default();
        checks.check(true, "fine");
        checks.check(false, "broken");
        assert_eq!(
            checks,
            Checks {
                attempted: 2,
                failed: 1
            }
        );
        let line = result_line(checks, &Metrics::new(), END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_is_a_bug() {
        let mut metrics = Metrics::new();
        metrics.insert("nope", 1.0);
        result_line(Checks::default(), &metrics, END_TO_END);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        for table in [END_TO_END, PER_LAYER] {
            for (i, (name, unit)) in table.iter().enumerate() {
                assert!(name.len() <= 64 && unit.len() <= 16);
                assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                assert!(table[..i].iter().all(|(n, _)| n != name), "{name} twice");
            }
        }
    }

    /// The benchmark manifest at the repository root declares exactly
    /// these metrics with these units.
    #[test]
    fn manifest_declares_the_same_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        let declared = manifest.matches("\"name\": \"").count();
        let workloads = manifest.matches("\"why\": \"").count();
        assert_eq!(declared, workloads + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
