//! Social-network drift (the Fig. 7 motivation): as a StackOverflow-like
//! graph grows 0.52 %/day, the dominant preprocessing task shifts from
//! Selecting to Reshaping — exactly why a fixed accelerator configuration
//! ages badly and AutoGNN reconfigures.
//!
//! ```text
//! cargo run --example social_drift
//! ```

use agnn_cost::optimizer::{search, SearchSpace};
use autognn::prelude::*;
use autognn::runtime::scenario::task_share_series;

fn main() {
    let gnn = GnnSpec::table_iii_default();
    let series = task_share_series(Dataset::StackOverflow, 2_000, 200, gnn);

    println!("GPU-system latency shares for SO over 2000 days of growth:");
    println!(
        "{:>6} {:>9} {:>10} {:>10} {:>11} {:>10}",
        "day", "ordering", "reshaping", "selecting", "reindexing", "inference"
    );
    let mut crossover = None;
    for point in &series {
        println!(
            "{:>6} {:>8.1}% {:>9.1}% {:>9.1}% {:>10.1}% {:>9.1}%",
            point.day,
            point.shares[0],
            point.shares[1],
            point.shares[2],
            point.shares[3],
            point.shares[4]
        );
        if crossover.is_none() && point.shares[1] > point.shares[2] {
            crossover = Some(point.day);
        }
    }
    match crossover {
        Some(day) => println!(
            "\nReshaping overtakes Selecting by day {day} — the paper observes the \
             same shift (\"after 400 days (SO) … Reshaping becomes increasingly \
             significant\", §III-A)."
        ),
        None => println!("\nReshaping never overtakes Selecting in this horizon."),
    }

    // What the drift means for a deployed AutoGNN: the optimal configuration
    // changes, so the runtime reprograms the device.
    let setup = EvalSetup::default();
    let plan = agnn_hw::floorplan::Floorplan::vpk180();
    let fpga = agnn_devices::fpga::FpgaModel::default();
    let spec = Dataset::StackOverflow.spec();
    let day0 = setup.workload(spec.nodes, spec.edges);
    let grown = setup.workload(spec.nodes * 4, spec.edges * 4);
    let cfg0 = search(&plan, SearchSpace::Full, |c| fpga.analytic_secs(&day0, c));
    let cfg1 = search(&plan, SearchSpace::Full, |c| fpga.analytic_secs(&grown, c));
    println!(
        "\noptimal config day 0:    {} UPEs x {}, {} SCR slots x {}",
        cfg0.upe.count, cfg0.upe.width, cfg0.scr.slots, cfg0.scr.width
    );
    println!(
        "optimal config after 4x: {} UPEs x {}, {} SCR slots x {}",
        cfg1.upe.count, cfg1.upe.width, cfg1.scr.slots, cfg1.scr.width
    );
}
