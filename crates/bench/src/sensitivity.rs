//! Sensitivity studies: Figs. 25, 26, 27 and 29.

use agnn_core::config::EvalSetup;
use agnn_core::systems::{evaluate, SystemContext, SystemKind};
use agnn_cost::optimizer::{search, SearchSpace};
use agnn_devices::accel::{self, AccelTarget};
use agnn_devices::boards;
use agnn_devices::fpga::FpgaModel;
use agnn_gnn::models::{GnnModel, GnnSpec};
use agnn_graph::datasets::Dataset;
use agnn_graph::dynamic::{critical_update_ratio, hourly_update_series};

use crate::banner;

/// Fig. 25: sensitivity to the GNN model, layer count and sampling `k` on
/// AM. Paper: GAT still leaves preprocessing at 51 % with DynPre 1.67x over
/// GPU; 1→6 layers raises inference 4.1x and sampling 51.1x; larger k
/// raises DynPre's edge to 2.6x.
pub fn fig25() {
    banner("Fig. 25a: GNN model sweep on AM (GPU vs DynPre, end-to-end ms)");
    let setup = EvalSetup::default();
    let am = Dataset::Amazon.spec();
    println!(
        "{:<8} {:>10} {:>12} {:>10} {:>14}",
        "model", "GPU(ms)", "DynPre(ms)", "speedup", "pre-share(Dyn)"
    );
    for model in GnnModel::ALL {
        let gnn = GnnSpec::new(model, 2, 128, 128);
        let ctx = SystemContext::new(setup.workload(am.nodes, am.edges), gnn);
        let gpu = evaluate(&ctx, SystemKind::Gpu);
        let dynp = evaluate(&ctx, SystemKind::DynPre);
        println!(
            "{:<8} {:>10.1} {:>12.1} {:>9.2}x {:>13.1}%",
            model.name(),
            gpu.total_secs() * 1e3,
            dynp.total_secs() * 1e3,
            gpu.total_secs() / dynp.total_secs(),
            dynp.preprocess_share_pct()
        );
    }

    banner("Fig. 25b: layer-count sweep on AM (DynPre breakdown, ms)");
    println!(
        "{:>7} {:>12} {:>13} {:>12} {:>10}",
        "layers", "convert(ms)", "sampling(ms)", "infer(ms)", "total(ms)"
    );
    let mut first: Option<(f64, f64)> = None;
    for layers in [1u32, 2, 4, 6] {
        let gnn = GnnSpec::new(GnnModel::GraphSage, layers, 128, 128);
        let setup_l = EvalSetup {
            layers,
            gnn,
            ..EvalSetup::default()
        };
        let w = setup_l.workload(am.nodes, am.edges);
        let ctx = SystemContext::new(w, gnn);
        let run = evaluate(&ctx, SystemKind::DynPre);
        let convert = run.preprocess.ordering + run.preprocess.reshaping;
        let sampling = run.preprocess.selecting + run.preprocess.reindexing;
        println!(
            "{:>7} {:>12.1} {:>13.1} {:>12.1} {:>10.1}",
            layers,
            convert * 1e3,
            sampling * 1e3,
            run.inference_secs * 1e3,
            run.total_secs() * 1e3
        );
        if layers == 1 {
            first = Some((sampling, run.inference_secs));
        } else if layers == 6 {
            let (s1, i1) = first.expect("layer 1 recorded");
            println!(
                "1 -> 6 layers: sampling x{:.1} (paper 51.1x), inference x{:.1} (paper 4.1x)",
                sampling / s1,
                run.inference_secs / i1
            );
        }
    }

    banner("Fig. 25c: sampling-k sweep on AM (GPU vs DynPre, ms)");
    println!(
        "{:>5} {:>10} {:>12} {:>9}",
        "k", "GPU(ms)", "DynPre(ms)", "speedup"
    );
    for k in [5usize, 10, 20, 40] {
        let gnn = GnnSpec::table_iii_default();
        let setup_k = EvalSetup {
            k,
            ..EvalSetup::default()
        };
        let w = setup_k.workload(am.nodes, am.edges);
        let ctx = SystemContext::new(w, gnn);
        let gpu = evaluate(&ctx, SystemKind::Gpu);
        let dynp = evaluate(&ctx, SystemKind::DynPre);
        println!(
            "{:>5} {:>10.1} {:>12.1} {:>8.2}x",
            k,
            gpu.total_secs() * 1e3,
            dynp.total_secs() * 1e3,
            gpu.total_secs() / dynp.total_secs()
        );
    }
    println!("paper: DynPre's gain reaches 2.6x at k = 40");
}

/// Fig. 26: cost effectiveness — performance vs LUT count and vs board
/// price. Paper: 400 K → 4 M LUTs lifts the speedup from 1.9x to 9.6x; the
/// 400 K board is GPU price parity.
pub fn fig26() {
    banner("Fig. 26: sensitivity to LUT count and board price (vs GPU)");
    let setup = EvalSetup::default();
    let fpga = FpgaModel::default();
    let gnn = GnnSpec::table_iii_default();
    println!(
        "{:<26} {:>9} {:>9} | {:>7} {:>7} {:>7} | {:>9}",
        "board", "LUTs", "price", "AX", "SO", "AM", "perf/price"
    );
    for board in boards::catalog() {
        let plan = board.floorplan();
        let mut speeds = Vec::new();
        for d in [Dataset::Arxiv, Dataset::StackOverflow, Dataset::Amazon] {
            let spec = d.spec();
            let w = setup.workload(spec.nodes, spec.edges);
            let mut ctx = SystemContext::new(w, gnn);
            ctx.plan = plan;
            let gpu = evaluate(&ctx, SystemKind::Gpu);
            let secs = |c| fpga.analytic_secs(&w, c);
            let pre = secs(search(&plan, SearchSpace::Full, secs));
            let dynp_total = pre
                + evaluate(&ctx, SystemKind::DynPre).transfer_secs
                + evaluate(&ctx, SystemKind::DynPre).inference_secs;
            speeds.push(gpu.total_secs() / dynp_total);
        }
        let geo = (speeds.iter().map(|s| s.ln()).sum::<f64>() / speeds.len() as f64).exp();
        println!(
            "{:<26} {:>9} {:>8.2}x | {:>6.2}x {:>6.2}x {:>6.2}x | {:>8.2}x",
            board.name,
            board.luts,
            board.normalized_price(),
            speeds[0],
            speeds[1],
            speeds[2],
            geo / board.normalized_price()
        );
    }
    println!("paper: 1.9x at 400K LUTs (GPU price parity) rising to 9.6x at 4M; low-end boards win on cost effectiveness");
}

/// Fig. 27: existing single-function accelerators under Pure / +SCR / +Auto
/// configurations vs DynPre. Paper: SCR 1.7x, Auto 3.3x, DynPre 4.5x over
/// Pure.
pub fn fig27() {
    banner("Fig. 27: existing accelerators (end-to-end, normalized to each Pure)");
    let setup = EvalSetup::default();
    let spec = Dataset::Reddit.spec();
    let gnn = GnnSpec::table_iii_default();
    let w = setup.workload(spec.nodes, spec.edges);
    let ctx = SystemContext::new(w, gnn);
    let gpu = evaluate(&ctx, SystemKind::Gpu);
    let fpga_pre = evaluate(&ctx, SystemKind::AutoPre);
    let dynp = evaluate(&ctx, SystemKind::DynPre);

    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>9}",
        "design", "Pure", "+SCR", "+Auto", "DynPre"
    );
    let mut ratios = (Vec::new(), Vec::new(), Vec::new());
    for design in accel::fig27_designs() {
        // Pure: the accelerator handles its one stage; everything else and
        // all transfers follow the external-sampler pattern.
        let accel_pre = design.apply(&gpu.preprocess);
        let handoff = match design.target {
            AccelTarget::Ordering | AccelTarget::Sampling => {
                evaluate(&ctx, SystemKind::FpgaSampler).transfer_secs
            }
        };
        let pure = accel_pre.total() + handoff + gpu.inference_secs;
        // +SCR: reshaping/reindexing move onto AutoGNN's SCR region.
        let mut scr_pre = accel_pre;
        scr_pre.reshaping = fpga_pre.preprocess.reshaping;
        scr_pre.reindexing = fpga_pre.preprocess.reindexing;
        let with_scr = scr_pre.total() + handoff + gpu.inference_secs;
        // +Auto: end-to-end on the FPGA (AutoPre), transfers collapse.
        let with_auto = fpga_pre.total_secs();
        let dyn_total = dynp.total_secs();
        ratios.0.push(pure / with_scr);
        ratios.1.push(pure / with_auto);
        ratios.2.push(pure / dyn_total);
        println!(
            "{:<8} {:>8.1}ms {:>8.1}ms {:>8.1}ms {:>8.1}ms",
            design.name,
            pure * 1e3,
            with_scr * 1e3,
            with_auto * 1e3,
            dyn_total * 1e3
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "average speedup over Pure: +SCR {:.1}x (paper 1.7x), +Auto {:.1}x (paper 3.3x), DynPre {:.1}x (paper 4.5x)",
        avg(&ratios.0),
        avg(&ratios.1),
        avg(&ratios.2)
    );
}

/// Fig. 29: graph-update analysis — (a) the minimum update ratio that
/// perturbs GNN outputs vs layer count, (b) per-hour update-ratio series.
pub fn fig29() {
    banner("Fig. 29a: critical update ratio vs layers");
    println!(
        "{:<4} {:>9} {:>9} {:>9} {:>9}",
        "id", "1-layer", "2-layer", "3-layer", "4-layer"
    );
    for d in [
        Dataset::StackOverflow,
        Dataset::Taobao,
        Dataset::Journal,
        Dataset::Amazon,
    ] {
        let scale = d.scale_for_max_edges(120_000);
        let graph = d.generate_scaled(scale, 13);
        print!("{:<4}", d.abbrev());
        for layers in 1..=4u32 {
            let ratio = critical_update_ratio(&graph, layers, 0.5, 17);
            print!(" {:>8.3}%", ratio * 100.0);
        }
        println!();
    }
    println!("paper: highly connected JR/AM need far smaller updates to perturb most of the graph as layers grow");

    banner("Fig. 29b: per-hour update ratio time-series");
    for (d, mean) in [(Dataset::Taobao, 0.40), (Dataset::StackOverflow, 0.34)] {
        let series = hourly_update_series(mean, 1_500, 23);
        let avg = series.iter().sum::<f64>() / series.len() as f64;
        let max = series.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{}: mean {:.2}%/h, max {:.2}%/h over {} hours (paper: 0.74% per two hours on average)",
            d.abbrev(),
            avg,
            max,
            series.len()
        );
    }
    println!("practical services rebuild once the ratio reaches 0.5% — every couple of hours");
}
