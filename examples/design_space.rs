//! Design-space exploration (the Fig. 23 study): sweep SCR slot/width
//! configurations for a low-degree citation graph and UPE width for a large
//! e-commerce graph, printing where each workload's optimum lands.
//!
//! ```text
//! cargo run --example design_space
//! ```

use agnn_cost::optimizer::{search, SearchSpace};
use agnn_devices::fpga::FpgaModel;
use autognn::prelude::*;

fn main() {
    let setup = EvalSetup::default();
    let fpga = FpgaModel::default();
    let plan = agnn_hw::floorplan::Floorplan::vpk180();
    let library = BitstreamLibrary::for_floorplan(&plan);

    // (a) SCR sweep on AX: small degree -> slot count matters.
    let ax = Dataset::Arxiv.spec();
    let ax_workload = setup.workload(ax.nodes, ax.edges);
    println!("SCR ladder on AX (n = {}, e = {}):", ax.nodes, ax.edges);
    println!("{:>6} {:>7} {:>16}", "slots", "width", "reshaping (ms)");
    let upe = library.upe_variants()[6]; // the width-64 rung
    for &scr in library.scr_variants() {
        let report = fpga.analytic_report(&ax_workload, HwConfig { upe, scr });
        println!(
            "{:>6} {:>7} {:>16.3}",
            scr.slots,
            scr.width,
            fpga.stage_secs(&report).reshaping * 1e3
        );
    }

    // (b) UPE sweep on AM: ordering wants wide UPEs, selecting wants many.
    let am = Dataset::Amazon.spec();
    let am_workload = setup.workload(am.nodes, am.edges);
    println!("\nUPE ladder on AM (n = {}, e = {}):", am.nodes, am.edges);
    println!(
        "{:>6} {:>7} {:>14} {:>15} {:>12}",
        "count", "width", "ordering (ms)", "selecting (ms)", "total (ms)"
    );
    let scr = library.scr_variants()[1];
    for &upe in library.upe_variants() {
        let report = fpga.analytic_report(&am_workload, HwConfig { upe, scr });
        let secs = fpga.stage_secs(&report);
        println!(
            "{:>6} {:>7} {:>14.3} {:>15.3} {:>12.3}",
            upe.count,
            upe.width,
            secs.ordering * 1e3,
            secs.selecting * 1e3,
            secs.total() * 1e3
        );
    }

    let best = search(&plan, SearchSpace::Full, |c| {
        fpga.analytic_secs(&am_workload, c)
    });
    println!(
        "\ntiming-aware optimum for AM: {} UPEs x {}, {} SCR slots x {}",
        best.upe.count, best.upe.width, best.scr.slots, best.scr.width
    );
}
