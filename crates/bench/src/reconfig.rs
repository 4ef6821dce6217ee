//! Reconfiguration studies: Figs. 22, 23, 24, 28, 30 and 31.

use agnn_core::config::EvalSetup;
use agnn_core::scenario::{
    consecutive_inference, evaluation_pairs, growth_study, mixed_edges_secs, pair_preprocess_secs,
};
use agnn_core::systems::{evaluate, mv_tuned_config, SystemContext, SystemKind};
use agnn_cost::optimizer::{search, SearchSpace};
use agnn_cost::{CostModel, Workload};
use agnn_devices::fpga::FpgaModel;
use agnn_gnn::models::GnnSpec;
use agnn_graph::datasets::Dataset;
use agnn_graph::Vid;
use agnn_hw::engine::AutoGnnEngine;
use agnn_hw::floorplan::Floorplan;
use agnn_hw::{HwConfig, ScrConfig, UpeConfig};

use crate::banner;

fn gnn() -> GnnSpec {
    GnnSpec::table_iii_default()
}

/// Fig. 22: the reconfiguration ablation StatPre → DynArea → DynSCR →
/// DynUPE on AX, SO and AM (preprocessing latency normalized to StatPre).
/// Paper: DynSCR cuts 23 % / 51 % / 15 %, DynUPE another 13–39 %.
pub fn fig22() {
    banner("Fig. 22: dynamic reconfiguration ablation (normalized to StatPre)");
    let setup = EvalSetup::default();
    let fpga = FpgaModel::default();
    let plan = Floorplan::vpk180();
    println!(
        "{:<4} {:>9} {:>9} {:>9} {:>9}",
        "id", "StatPre", "DynArea", "DynSCR", "DynUPE"
    );
    for d in [Dataset::Arxiv, Dataset::StackOverflow, Dataset::Amazon] {
        let spec = d.spec();
        let w = setup.workload(spec.nodes, spec.edges);
        let stat_cfg = mv_tuned_config(&plan);
        let secs = |cfg: HwConfig| fpga.analytic_secs(&w, cfg);
        let stat = secs(stat_cfg);
        let area = secs(search(&plan, SearchSpace::AreaOnly, secs));
        let scr = secs(search(&plan, SearchSpace::ScrOnly, secs));
        let upe = secs(search(&plan, SearchSpace::Full, secs));
        println!(
            "{:<4} {:>8.0}% {:>8.0}% {:>8.0}% {:>8.0}%",
            d.abbrev(),
            100.0,
            area / stat * 100.0,
            scr / stat * 100.0,
            upe / stat * 100.0
        );
    }
    println!("paper: DynSCR -23/-51/-15% on AX/SO/AM; DynUPE a further -13/-39% on SO/AM");
}

/// Fig. 23: optimal hardware configuration — (a) SCR slot/width utilization
/// on AX, (b) UPE width sweep on AM.
pub fn fig23() {
    banner("Fig. 23a: SCR slot utilization vs width on AX");
    let setup = EvalSetup::default();
    let fpga = FpgaModel::default();
    let ax = Dataset::Arxiv.spec();
    let w_ax = setup.workload(ax.nodes, ax.edges);
    println!(
        "{:>6} {:>7} {:>15} {:>12}",
        "slots", "width", "reshaping(ms)", "slot-util"
    );
    for slots in [1usize, 2, 4, 8] {
        for width in [64usize, 256, 1024, 4096] {
            let cfg = HwConfig {
                upe: UpeConfig::new(64, 64),
                scr: ScrConfig::new(slots, width),
            };
            let report = fpga.analytic_report(&w_ax, cfg);
            let secs = fpga.stage_secs(&report).reshaping;
            // Slot utilization: useful target completions per slot-cycle.
            let useful = (w_ax.nodes + 1) as f64;
            let util = useful / (report.cycles.reshaping as f64 * slots as f64);
            println!(
                "{:>6} {:>7} {:>15.3} {:>11.1}%",
                slots,
                width,
                secs * 1e3,
                (util * 100.0).min(100.0)
            );
        }
    }
    println!("paper: for low-degree AX, adding slots beats adding width");

    banner("Fig. 23b: UPE width sweep on AM (constant aggregate throughput)");
    let am = Dataset::Amazon.spec();
    let w_am = setup.workload(am.nodes, am.edges);
    println!(
        "{:>6} {:>7} {:>13} {:>14} {:>11}",
        "count", "width", "ordering(ms)", "selecting(ms)", "total(ms)"
    );
    let library = agnn_cost::BitstreamLibrary::for_floorplan(&Floorplan::vpk180());
    for &upe in library.upe_variants() {
        let cfg = HwConfig {
            upe,
            scr: ScrConfig::new(2, 4096),
        };
        let secs = fpga.stage_secs(&fpga.analytic_report(&w_am, cfg));
        println!(
            "{:>6} {:>7} {:>13.2} {:>14.3} {:>11.2}",
            upe.count,
            upe.width,
            secs.ordering * 1e3,
            secs.selecting * 1e3,
            secs.total() * 1e3
        );
    }
    println!(
        "paper: ordering and selecting pull in opposite directions, giving an interior optimum"
    );
}

/// Fig. 24: cost-model accuracy — Table I estimates vs cycle-level
/// simulation. Paper: 98 % (SCR) and 94 % (UPE) accuracy.
pub fn fig24() {
    banner("Fig. 24: accuracy of the cost model (model vs simulator)");
    let model = CostModel;

    // (a) SCR reshaping cycles across widths on an AX-like scaled graph.
    let ax = Dataset::Arxiv;
    let graph = ax.generate_scaled(ax.scale_for_max_edges(150_000), 3);
    let sorted = agnn_algo::ordering::order_edges_radix(graph.edges());
    let dsts: Vec<Vid> = sorted.iter().map(|e| e.dst).collect();
    println!("(a) SCR (AX-scaled, slots=2): width, simulated, modeled, accuracy");
    let mut accs = Vec::new();
    for width in [64usize, 256, 1024, 4096] {
        let cfg = ScrConfig::new(2, width);
        let sim = agnn_hw::kernel::Reshaper::new(cfg)
            .build_pointers(graph.num_vertices(), &dsts)
            .cycles;
        let est =
            model.reshaping_cycles(graph.num_vertices() as u64, graph.num_edges() as u64, cfg);
        let acc = 100.0 * (1.0 - (est - sim as f64).abs() / sim as f64);
        accs.push(acc);
        println!("  {width:>5} {sim:>10} {est:>10.0} {acc:>7.1}%");
    }
    println!(
        "  mean SCR accuracy {:.1}% (paper 98%)",
        accs.iter().sum::<f64>() / accs.len() as f64
    );

    // (b) UPE ordering+selecting cycles across widths on an AM-like scaled
    // graph, simulated functionally.
    let am = Dataset::Amazon;
    let graph = am.generate_scaled(am.scale_for_max_edges(120_000), 5);
    let batch: Vec<Vid> = (0..50).map(Vid).collect();
    let params = agnn_algo::pipeline::SampleParams::new(10, 2);
    let workload = Workload::new(
        graph.num_vertices() as u64,
        graph.num_edges() as u64,
        50,
        10,
        2,
    );
    println!("(b) UPE (AM-scaled): count x width, simulated, analytic, accuracy");
    let fpga = FpgaModel::default();
    let mut accs = Vec::new();
    for (count, width) in [(32usize, 8usize), (16, 16), (8, 32), (4, 64), (2, 128)] {
        let cfg = HwConfig {
            upe: UpeConfig::new(count, width),
            scr: ScrConfig::new(2, 512),
        };
        let sim = AutoGnnEngine::new(cfg)
            .preprocess(&graph, &batch, &params, 9)
            .report;
        let sim_upe = sim.cycles.ordering + sim.cycles.selecting;
        let est = fpga.analytic_report(&workload, cfg);
        let est_upe = est.cycles.ordering + est.cycles.selecting;
        let acc = 100.0 * (1.0 - (est_upe as f64 - sim_upe as f64).abs() / sim_upe as f64);
        accs.push(acc);
        println!("  {count:>3}x{width:<4} {sim_upe:>10} {est_upe:>10} {acc:>7.1}%");
    }
    println!(
        "  mean UPE accuracy {:.1}% (paper 94%)",
        accs.iter().sum::<f64>() / accs.len() as f64
    );
}

/// Fig. 28: consecutive inference on diverse graphs — (a) the MV→SO
/// throughput time-series, (b) similar vs different dataset pairs.
pub fn fig28() {
    banner("Fig. 28a: consecutive inference MV -> SO (throughput over time)");
    let stat = consecutive_inference(
        Dataset::Movie,
        Dataset::StackOverflow,
        10.0,
        30.0,
        false,
        gnn(),
    );
    let dynp = consecutive_inference(
        Dataset::Movie,
        Dataset::StackOverflow,
        10.0,
        30.0,
        true,
        gnn(),
    );
    println!(
        "{:>8} {:>14} {:>14}",
        "t(s)", "StatPre(inf/s)", "DynPre(inf/s)"
    );
    for i in (0..stat.series.len()).step_by(30) {
        println!(
            "{:>8.1} {:>14.1} {:>14.1}",
            stat.series[i].time_secs,
            stat.series[i].inferences_per_sec,
            dynp.series[i].inferences_per_sec
        );
    }
    let saved = 1.0 - dynp.total_preprocess_secs / stat.total_preprocess_secs;
    println!(
        "total preprocessing time saved by reconfiguration: {:.1}% (paper 56%); \
         post-switch throughput gain {:.2}x (paper 2.9x)",
        saved * 100.0,
        dynp.series.last().unwrap().inferences_per_sec
            / stat.series.last().unwrap().inferences_per_sec
    );

    banner("Fig. 28b: graph pairs (preprocessing latency, FixedPre vs DynPre)");
    println!(
        "{:<6} {:>10} {:>12} {:>11} {:>9}",
        "pair", "category", "Fixed(ms)", "Dyn(ms)", "saved"
    );
    let mut sim_saved = Vec::new();
    let mut diff_saved = Vec::new();
    for (label, a, b, same) in evaluation_pairs() {
        let fixed = pair_preprocess_secs(a, b, false, gnn());
        let dynamic = pair_preprocess_secs(a, b, true, gnn());
        let saved = (1.0 - dynamic / fixed) * 100.0;
        if same {
            sim_saved.push(saved);
        } else {
            diff_saved.push(saved);
        }
        println!(
            "{:<6} {:>10} {:>12.1} {:>11.1} {:>8.1}%",
            label,
            if same { "similar" } else { "different" },
            fixed * 1e3,
            dynamic * 1e3,
            saved
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "average saving: similar {:.1}% (paper 14.6%), different {:.1}% (paper 46.1%)",
        avg(&sim_saved),
        avg(&diff_saved)
    );
}

/// Fig. 30: the Taobao long-horizon growth study (edges ×112, degree ×9.2).
pub fn fig30() {
    banner("Fig. 30: dynamic graph growth (TB, 5000 hours)");
    let series = growth_study(Dataset::Taobao, 5_000, 11, gnn());
    println!(
        "{:>6} {:>10} {:>12} {:>12}",
        "hour", "GPU(ms)", "StatPre(ms)", "DynPre(ms)"
    );
    for p in &series {
        let gpu = p
            .gpu_secs
            .map_or("OOM".to_string(), |s| format!("{:.1}", s * 1e3));
        println!(
            "{:>6} {:>10} {:>12.1} {:>12.1}",
            p.hour,
            gpu,
            p.statpre_secs * 1e3,
            p.dynpre_secs * 1e3
        );
    }
    let last = series.last().unwrap();
    println!(
        "end-of-horizon DynPre vs StatPre: {:.1}% lower (paper 35%); GPU OOMs before the end",
        (1.0 - last.dynpre_secs / last.statpre_secs) * 100.0
    );
}

/// Fig. 31: mixed same-category and cross-category edges, StatPre vs
/// DynPre preprocessing latency.
pub fn fig31() {
    banner("Fig. 31: mixed edges (StatPre vs DynPre preprocessing)");
    println!(
        "{:<6} {:>10} {:>12} {:>11} {:>9}",
        "mix", "category", "Stat(ms)", "Dyn(ms)", "saved"
    );
    let mut sim_saved = Vec::new();
    let mut diff_saved = Vec::new();
    for (label, a, b, same) in evaluation_pairs() {
        let (stat, dynp) = mixed_edges_secs(a, b, gnn());
        let saved = (1.0 - dynp / stat) * 100.0;
        if same {
            sim_saved.push(saved);
        } else {
            diff_saved.push(saved);
        }
        println!(
            "{:<6} {:>10} {:>12.1} {:>11.1} {:>8.1}%",
            label,
            if same { "similar" } else { "different" },
            stat * 1e3,
            dynp * 1e3,
            saved
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "average saving: same-category {:.1}% / cross-category {:.1}% (paper 98.9% / 74.1%)",
        avg(&sim_saved),
        avg(&diff_saved)
    );

    // Context: the headline systems on the mixed workloads' components.
    let setup = EvalSetup::default();
    let spec = Dataset::Fraud.spec();
    let ctx = SystemContext::new(setup.workload(spec.nodes, spec.edges), gnn());
    let run = evaluate(&ctx, SystemKind::DynPre);
    println!(
        "(reference: DynPre on FR alone preprocesses in {:.1} ms)",
        run.preprocess.total() * 1e3
    );
}
