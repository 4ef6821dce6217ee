//! Dynamic-graph scenario engine (Figs. 7, 28, 30, 31).

use agnn_cost::optimizer::{search, SearchSpace};
use agnn_devices::fpga::FpgaModel;
use agnn_gnn::models::GnnSpec;
use agnn_graph::datasets::Dataset;
use agnn_graph::dynamic::GrowthModel;
use agnn_hw::shell::IcapModel;
use agnn_hw::shell::ReconfigScope;

use crate::config::EvalSetup;
use crate::systems::{evaluate, SystemContext, SystemKind};

/// One point of the Fig. 7 task-share drift: day index plus the percentage
/// share of each preprocessing task and of inference in the GPU system's
/// end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayShares {
    /// Days since the start of the trace.
    pub day: u32,
    /// Shares in percent: ordering, reshaping, selecting, reindexing,
    /// inference. Sums to 100 unless the GPU OOMs (then all zero).
    pub shares: [f64; 5],
}

/// Fig. 7: the GPU system's latency shares as a dynamic graph grows at its
/// Table II daily rate.
///
/// # Panics
///
/// Panics if the dataset has no recorded growth rate.
pub fn task_share_series(dataset: Dataset, days: u32, step: u32, gnn: GnnSpec) -> Vec<DayShares> {
    let spec = dataset.spec();
    let rate = spec
        .daily_growth_pct
        .expect("dataset has no daily growth rate")
        / 100.0;
    // The trace covers the network's life around its Table II snapshot: the
    // day-0 graph is the early-life version (Table II size reached at the
    // horizon's midpoint), which is what lets Fig. 7 show Selecting
    // dominating young graphs before Reshaping takes over.
    let shrink = (1.0 + rate).powi(days as i32 / 2);
    let e0 = (spec.edges as f64 / shrink).max(1.0) as u64;
    let n0 = (spec.nodes as f64 / shrink).max(1.0) as u64;
    let growth = GrowthModel::new(e0, rate);
    let node_growth = GrowthModel::new(n0, rate);
    let setup = EvalSetup::default();
    let mut series = Vec::new();
    let mut day = 0;
    while day <= days {
        let edges = growth.edges_at(day);
        let nodes = node_growth.edges_at(day);
        let workload = setup.workload(nodes, edges);
        let ctx = SystemContext::new(workload, gnn);
        // Fig. 7 projects task *proportions* over years of growth, past the
        // point any single GPU could hold the graph, so use the ungated
        // time model.
        let p = ctx.gpu.preprocess_secs_unchecked(&workload);
        let inference = ctx.inference.analytic_inference_secs(
            &gnn,
            workload.subgraph_nodes(),
            workload.subgraph_edges(),
        ) + ctx.gpu.upload_secs(&workload);
        let total = p.total() + inference;
        let shares = [
            p.ordering / total * 100.0,
            p.reshaping / total * 100.0,
            p.selecting / total * 100.0,
            p.reindexing / total * 100.0,
            inference / total * 100.0,
        ];
        series.push(DayShares { day, shares });
        day += step;
    }
    series
}

/// One sample of the Fig. 28a throughput time-series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputSample {
    /// Seconds since the scenario start.
    pub time_secs: f64,
    /// Inference throughput, passes per second (0 during reconfiguration).
    pub inferences_per_sec: f64,
}

/// Result of the consecutive-graphs scenario (Fig. 28a).
#[derive(Debug, Clone, PartialEq)]
pub struct ConsecutiveRun {
    /// Throughput samples over the scenario.
    pub series: Vec<ThroughputSample>,
    /// Total preprocessing seconds spent.
    pub total_preprocess_secs: f64,
}

/// Fig. 28a: serve `first` for `switch_at` seconds, then `second` until
/// `duration`; `reconfigurable` systems pay one ICAP event at the switch
/// and then run at the second graph's optimal configuration, while static
/// systems keep the first graph's configuration throughout.
pub fn consecutive_inference(
    first: Dataset,
    second: Dataset,
    switch_at: f64,
    duration: f64,
    reconfigurable: bool,
    gnn: GnnSpec,
) -> ConsecutiveRun {
    let setup = EvalSetup::default();
    let plan = agnn_hw::floorplan::Floorplan::vpk180();
    let mk_ctx = |d: Dataset| {
        let spec = d.spec();
        SystemContext::new(setup.workload(spec.nodes, spec.edges), gnn)
    };
    let ctx_a = mk_ctx(first);
    let ctx_b = mk_ctx(second);
    let config_a = search(&plan, SearchSpace::Full, |c| {
        ctx_a.fpga.analytic_secs(&ctx_a.workload, c)
    });

    // Latency of one pass on each phase.
    let phase_a = evaluate(&ctx_a, SystemKind::DynPre); // optimal for A either way
    let phase_b = if reconfigurable {
        evaluate(&ctx_b, SystemKind::DynPre)
    } else {
        // Static: keep A's configuration on B's workload.
        let report = ctx_b.fpga.analytic_report(&ctx_b.workload, config_a);
        let preprocess = ctx_b.fpga.stage_secs(&report);
        let mut run = evaluate(&ctx_b, SystemKind::DynPre);
        run.preprocess = preprocess;
        run
    };
    let reconfig_stall = if reconfigurable {
        IcapModel::default().reconfig_secs(ReconfigScope::Both)
    } else {
        0.0
    };

    let mut series = Vec::new();
    let mut total_preprocess = 0.0;
    let step = duration / 300.0;
    let mut t = 0.0;
    while t <= duration {
        let (run, stalled) = if t < switch_at {
            (&phase_a, false)
        } else {
            (&phase_b, t < switch_at + reconfig_stall)
        };
        let throughput = if stalled { 0.0 } else { 1.0 / run.total_secs() };
        series.push(ThroughputSample {
            time_secs: t,
            inferences_per_sec: throughput,
        });
        if !stalled {
            // Fraction of this step spent preprocessing.
            let share = (run.preprocess.total() + run.transfer_secs) / run.total_secs();
            total_preprocess += step * share;
        }
        t += step;
    }
    ConsecutiveRun {
        series,
        total_preprocess_secs: total_preprocess,
    }
}

/// Fig. 28b / Fig. 31 graph pairs: `(label, a, b, same_category)`.
pub fn evaluation_pairs() -> Vec<(&'static str, Dataset, Dataset, bool)> {
    use Dataset::*;
    vec![
        ("AX_CL", Arxiv, Collab, true),
        ("YL_FR", Yelp, Fraud, true),
        ("RD_SO", Reddit, StackOverflow, true),
        ("SO_JR", StackOverflow, Journal, true),
        ("PH_RD", Physics, Reddit, false),
        ("AX_JR", Arxiv, Journal, false),
        ("FR_JR", Fraud, Journal, false),
        ("FR_AM", Fraud, Amazon, false),
    ]
}

/// Passes served per graph in the Fig. 28b pair scenario; the one-time
/// reconfiguration stall amortizes over this window.
pub const PAIR_PASSES: u32 = 500;

/// Preprocessing latency of serving graphs `a` then `b` for `PAIR_PASSES`
/// passes each (Fig. 28b): the fixed system keeps `a`'s optimal
/// configuration for both, the dynamic system reconfigures for `b` (paying
/// the ICAP stall once).
pub fn pair_preprocess_secs(a: Dataset, b: Dataset, dynamic: bool, gnn: GnnSpec) -> f64 {
    let setup = EvalSetup::default();
    let plan = agnn_hw::floorplan::Floorplan::vpk180();
    let mk_ctx = |d: Dataset| {
        let spec = d.spec();
        SystemContext::new(setup.workload(spec.nodes, spec.edges), gnn)
    };
    let ctx_a = mk_ctx(a);
    let ctx_b = mk_ctx(b);
    let config_a = search(&plan, SearchSpace::Full, |c| {
        ctx_a.fpga.analytic_secs(&ctx_a.workload, c)
    });
    let per_pass_a = ctx_a.fpga.analytic_secs(&ctx_a.workload, config_a);
    let per_pass_b_fixed = ctx_b.fpga.analytic_secs(&ctx_b.workload, config_a);
    let secs_b = if dynamic {
        let config_b = search(&plan, SearchSpace::Full, |c| {
            ctx_b.fpga.analytic_secs(&ctx_b.workload, c)
        });
        let per_pass_b = ctx_b.fpga.analytic_secs(&ctx_b.workload, config_b);
        let stall = IcapModel::default().reconfig_secs(ReconfigScope::Both);
        let saving = (per_pass_b_fixed - per_pass_b) * f64::from(PAIR_PASSES);
        if config_b != config_a && saving > stall {
            // Reconfigure: the predicted saving repays the ICAP stall.
            f64::from(PAIR_PASSES) * per_pass_b + stall
        } else {
            // The runtime declines the switch (§V-B threshold policy).
            f64::from(PAIR_PASSES) * per_pass_b_fixed
        }
    } else {
        f64::from(PAIR_PASSES) * per_pass_b_fixed
    };
    f64::from(PAIR_PASSES) * per_pass_a + secs_b
}

/// One point of the Fig. 30 long-horizon growth study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthPoint {
    /// Hours since the start.
    pub hour: u32,
    /// GPU end-to-end latency; `None` once the graph no longer fits.
    pub gpu_secs: Option<f64>,
    /// StatPre end-to-end latency (configuration fixed at hour 0).
    pub statpre_secs: f64,
    /// DynPre end-to-end latency (re-optimized as the graph grows).
    pub dynpre_secs: f64,
}

/// Fig. 30: an e-commerce graph whose "edge count and degree increase by
/// 112× and 9.2×" over the horizon; nodes therefore grow by 112/9.2 ≈ 12×.
pub fn growth_study(dataset: Dataset, hours: u32, samples: u32, gnn: GnnSpec) -> Vec<GrowthPoint> {
    assert!(samples > 1, "need at least two samples");
    let spec = dataset.spec();
    let setup = EvalSetup::default();
    let plan = agnn_hw::floorplan::Floorplan::vpk180();
    // Start from a down-scaled instance so the ×112 endpoint lands on the
    // full Table II size.
    let e0 = spec.edges / 112;
    let n0 = (spec.nodes as f64 / 12.2) as u64;
    let edge_rate = (112.0f64).powf(1.0 / f64::from(hours)) - 1.0;
    let node_rate = (12.2f64).powf(1.0 / f64::from(hours)) - 1.0;
    let edges = GrowthModel::new(e0, edge_rate);
    let nodes = GrowthModel::new(n0, node_rate);
    let initial = setup.workload(n0, e0);
    let fpga = FpgaModel::default();
    let stat_config = search(&plan, SearchSpace::Full, |c| {
        fpga.analytic_secs(&initial, c)
    });

    let mut series = Vec::new();
    for i in 0..samples {
        let hour = hours * i / (samples - 1);
        let w = setup.workload(nodes.edges_at(hour), edges.edges_at(hour));
        let ctx = SystemContext::new(w, gnn);
        let gpu_run = evaluate(&ctx, SystemKind::Gpu);
        let stat_report = ctx.fpga.analytic_report(&w, stat_config);
        let stat_base = evaluate(&ctx, SystemKind::DynPre);
        let statpre = ctx.fpga.stage_secs(&stat_report).total()
            + stat_base.transfer_secs
            + stat_base.inference_secs;
        let dynpre = stat_base.total_secs();
        series.push(GrowthPoint {
            hour,
            gpu_secs: (!gpu_run.oom).then(|| gpu_run.total_secs()),
            statpre_secs: statpre,
            dynpre_secs: dynpre,
        });
    }
    series
}

/// Fig. 31: preprocessing latency on a union of two graphs' edges, under
/// the fixed MV-tuned configuration (`StatPre`) vs the reconfigured optimum
/// (`DynPre`). Returns `(statpre_secs, dynpre_secs)`.
pub fn mixed_edges_secs(a: Dataset, b: Dataset, gnn: GnnSpec) -> (f64, f64) {
    let setup = EvalSetup::default();
    let (sa, sb) = (a.spec(), b.spec());
    let mixed = setup.workload(sa.nodes + sb.nodes, sa.edges + sb.edges);
    let ctx = SystemContext::new(mixed, gnn);
    let stat = evaluate(&ctx, SystemKind::StatPre).preprocess.total();
    let dynp = evaluate(&ctx, SystemKind::DynPre).preprocess.total();
    (stat, dynp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gnn() -> GnnSpec {
        GnnSpec::table_iii_default()
    }

    #[test]
    fn task_shares_shift_from_selecting_to_reshaping() {
        // Fig. 7: Selecting dominates early; Reshaping overtakes as the
        // graph grows.
        let series = task_share_series(Dataset::StackOverflow, 2_000, 500, gnn());
        let first = series.first().unwrap().shares;
        let last = series.last().unwrap().shares;
        assert!(last[1] > first[1], "reshaping share grows");
        assert!(last[2] < first[2], "selecting share shrinks");
        assert!(
            last[1] > last[2],
            "reshaping eventually dominates selecting"
        );
    }

    #[test]
    fn task_shares_sum_to_hundred() {
        for point in task_share_series(Dataset::Taobao, 100, 50, gnn()) {
            let sum: f64 = point.shares.iter().sum();
            assert!(
                sum == 0.0 || (sum - 100.0).abs() < 1e-6,
                "day {}",
                point.day
            );
        }
    }

    #[test]
    fn reconfiguration_wins_after_the_switch() {
        // Fig. 28a: MV then SO; DynPre dips during the 0.23 s stall but
        // runs faster afterwards.
        let static_run = consecutive_inference(
            Dataset::Movie,
            Dataset::StackOverflow,
            10.0,
            30.0,
            false,
            gnn(),
        );
        let dynamic_run = consecutive_inference(
            Dataset::Movie,
            Dataset::StackOverflow,
            10.0,
            30.0,
            true,
            gnn(),
        );
        // Both equal during phase A.
        assert_eq!(
            static_run.series[0].inferences_per_sec,
            dynamic_run.series[0].inferences_per_sec
        );
        // The dynamic run has a stall sample.
        assert!(dynamic_run
            .series
            .iter()
            .any(|s| s.inferences_per_sec == 0.0));
        // Steady-state phase B throughput is higher for the dynamic system.
        // The paper reports 2.9x after reconfiguration; our simulator's gap
        // is smaller because large-graph ordering is memory-bound and thus
        // configuration-insensitive (see EXPERIMENTS.md).
        let tail = |run: &ConsecutiveRun| run.series.last().unwrap().inferences_per_sec;
        assert!(tail(&dynamic_run) > tail(&static_run) * 1.05);
        // Total preprocessing time drops (the paper reports 56%).
        assert!(dynamic_run.total_preprocess_secs < static_run.total_preprocess_secs);
    }

    #[test]
    fn different_category_pairs_gain_more_from_reconfiguration() {
        let mut similar_gain = Vec::new();
        let mut different_gain = Vec::new();
        for (_, a, b, same) in evaluation_pairs() {
            let fixed = pair_preprocess_secs(a, b, false, gnn());
            let dynamic = pair_preprocess_secs(a, b, true, gnn());
            let gain = (fixed - dynamic) / fixed;
            if same {
                similar_gain.push(gain);
            } else {
                different_gain.push(gain);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&different_gain) > avg(&similar_gain),
            "Fig. 28b: different-category pairs benefit more: {:?} vs {:?}",
            different_gain,
            similar_gain
        );
    }

    #[test]
    fn growth_study_ooms_the_gpu_eventually() {
        let series = growth_study(Dataset::Taobao, 5_000, 11, gnn());
        assert!(series.first().unwrap().gpu_secs.is_some(), "fits initially");
        assert!(
            series.last().unwrap().gpu_secs.is_none(),
            "OOM at full size"
        );
        // DynPre tracks or beats StatPre throughout (the timing-aware
        // search space includes the hour-0 configuration).
        for p in &series {
            assert!(
                p.dynpre_secs <= p.statpre_secs * 1.001,
                "hour {}: dyn {} stat {}",
                p.hour,
                p.dynpre_secs,
                p.statpre_secs
            );
        }
        // Somewhere along the trajectory reconfiguration visibly pays.
        assert!(
            series.iter().any(|p| p.statpre_secs / p.dynpre_secs > 1.03),
            "DynPre should beat StatPre somewhere on the growth path"
        );
    }

    #[test]
    fn latencies_grow_with_the_graph() {
        let series = growth_study(Dataset::Taobao, 5_000, 6, gnn());
        assert!(series.last().unwrap().dynpre_secs > series.first().unwrap().dynpre_secs * 5.0);
    }

    #[test]
    fn mixed_edges_favour_dynpre() {
        let mut stat_total = 0.0;
        let mut dyn_total = 0.0;
        for (label, a, b, _) in evaluation_pairs() {
            let (stat, dynp) = mixed_edges_secs(a, b, gnn());
            assert!(dynp <= stat * 1.001, "{label}: {dynp} vs {stat}");
            stat_total += stat;
            dyn_total += dynp;
        }
        assert!(dyn_total < stat_total, "reconfiguration wins on aggregate");
    }
}
