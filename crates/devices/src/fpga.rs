//! FPGA wall-clock timing: simulator reports → seconds, plus the full-scale
//! analytic report used where functional simulation is infeasible. Its
//! seconds ([`FpgaModel::analytic_secs`]) are the timing score the one
//! bitstream search, [`agnn_cost::optimizer::search`], takes as an
//! alternative to Table I.

use agnn_cost::Workload;
use agnn_hw::engine::{
    ordering_dram_bytes, reindexing_dram_bytes, reshaping_dram_bytes, selecting_dram_bytes,
};
use agnn_hw::kernel::RADIX_STAGES_PER_CYCLE;
use agnn_hw::{HwConfig, HwReport, StageCycles};

use crate::stage::StageSecs;

/// VPK180 timing constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaModel {
    /// Kernel clock, Hz.
    pub clock_hz: f64,
    /// Peak device-DRAM bandwidth, bytes/second.
    pub dram_bandwidth: f64,
}

impl Default for FpgaModel {
    fn default() -> Self {
        FpgaModel {
            clock_hz: 300.0e6,
            dram_bandwidth: 102.4e9,
        }
    }
}

impl FpgaModel {
    /// Converts a report into per-stage seconds: each stage takes the larger
    /// of its compute time and its DRAM-streaming time ("allowing the SCR to
    /// fully saturate the memory interface", §VI-A).
    pub fn stage_secs(&self, report: &HwReport) -> StageSecs {
        let stage = |cycles: u64, bytes: u64| -> f64 {
            (cycles as f64 / self.clock_hz).max(bytes as f64 / self.dram_bandwidth)
        };
        StageSecs {
            ordering: stage(report.cycles.ordering, report.dram_bytes.ordering),
            reshaping: stage(report.cycles.reshaping, report.dram_bytes.reshaping),
            selecting: stage(report.cycles.selecting, report.dram_bytes.selecting),
            reindexing: stage(report.cycles.reindexing, report.dram_bytes.reindexing),
        }
    }

    /// Achieved DRAM bandwidth fraction over the whole preprocessing pass —
    /// the Fig. 18 right-axis metric (59.8 % average, 91.6 % on e-commerce
    /// graphs).
    pub fn bandwidth_utilization(&self, report: &HwReport) -> f64 {
        let total = self.stage_secs(report).total();
        if total <= 0.0 {
            return 0.0;
        }
        (report.total_dram_bytes() as f64 / total / self.dram_bandwidth).min(1.0)
    }

    /// Full-scale analytic report for Table II-scale workloads the
    /// functional simulator cannot materialize. It charges the kinds of
    /// work the engine's accounting charges, from counts estimated out of
    /// the [`Workload`], but it is not the same accounting:
    ///
    /// - ordering sizes its radix keys for the worst case, `32 +
    ///   bits(nodes)` (twice `bits(subgraph nodes)` for the subgraph
    ///   sort), where the engine uses the significant bits of the actual
    ///   maximum key;
    /// - each parallel merge round costs `edges / (half · count)` cycles,
    ///   where the engine charges the makespan of that round's pair jobs;
    /// - reshaping is a closed form, one cycle more than
    ///   `max(nodes / slots, edges / width)`, where the engine simulates
    ///   its comparator window;
    /// - `upe_passes` and `scr_passes` are zero.
    ///
    /// On feasible sizes its total cycles stay within a factor of 2.5 of
    /// the engine's (`tests/cost_accuracy.rs`).
    pub fn analytic_report(&self, workload: &Workload, config: HwConfig) -> HwReport {
        let e = workload.edges;
        let n = workload.nodes;
        let sub_e = workload.subgraph_edges();
        let sub_n = workload.subgraph_nodes();
        let key_bits = 32 + bits_for(n);

        let ordering = analytic_ordering_cycles(e, key_bits, config)
            + analytic_ordering_cycles(sub_e, 2 * bits_for(sub_n), config);
        let reshaping = analytic_reshaping_cycles(n, e, config)
            + analytic_reshaping_cycles(sub_n, sub_e, config);

        // Selection: one cycle per draw plus the final per-pool extraction,
        // spread over the UPEs.
        let s = workload.selections();
        let pools = workload.expanded_parents();
        let extract = (workload.degree() / config.upe.width as f64)
            .ceil()
            .max(1.0);
        let selecting =
            ((s as f64 + pools as f64 * extract) / config.upe.count as f64).ceil() as u64;

        // Reindexing: banked single-cycle lookups plus one insert per
        // unique vertex, the charges of `Reindexer::reindex` applied to the
        // workload's estimated input and unique counts.
        let r = workload.reindex_inputs();
        let uniques = workload.subgraph_nodes();
        let reindexing = r + uniques;

        let dram = StageCycles {
            ordering: ordering_dram_bytes(e as usize, config.upe.width, config.upe.count)
                + ordering_dram_bytes(sub_e as usize, config.upe.width, config.upe.count),
            reshaping: reshaping_dram_bytes(e as usize, n as usize)
                + reshaping_dram_bytes(sub_e as usize, sub_n as usize),
            selecting: selecting_dram_bytes(workload.pool_elements() as usize, s as usize),
            reindexing: reindexing_dram_bytes(r as usize, uniques as usize),
        };
        HwReport {
            cycles: StageCycles {
                ordering,
                reshaping,
                selecting,
                reindexing,
            },
            dram_bytes: dram,
            upe_passes: 0,
            scr_passes: 0,
        }
    }

    /// Wall-clock preprocessing seconds of [`FpgaModel::analytic_report`]
    /// under `config`. It is the timing score of
    /// [`agnn_cost::optimizer::search`], which sees the DRAM terms Table I
    /// cannot, and the per-request price of a serving board.
    pub fn analytic_secs(&self, workload: &Workload, config: HwConfig) -> f64 {
        self.stage_secs(&self.analytic_report(workload, config))
            .total()
    }
}

fn bits_for(n: u64) -> u32 {
    64 - n.max(1).leading_zeros()
}

fn analytic_ordering_cycles(edges: u64, key_bits: u32, config: HwConfig) -> u64 {
    if edges == 0 {
        return 0;
    }
    let w = config.upe.width as u64;
    let count = config.upe.count as u64;
    let chunks = edges.div_ceil(w);
    let chunk_cycles = u64::from(key_bits.div_ceil(RADIX_STAGES_PER_CYCLE));
    let mut cycles = chunks.div_ceil(count) * chunk_cycles;
    // Parallel merge rounds (jobs >= UPE count) stream all edges at w/2 per
    // cycle per UPE; the remaining merge tree runs as a pipelined cascade
    // bounded by the root merger. `agnn_hw::kernel::sort_accounting`
    // charges the same cascade, but each parallel round as the makespan of
    // its pair jobs, and its chunk sorts by the actual maximum key.
    let half = (w / 2).max(1);
    let mut jobs = chunks / 2;
    while jobs >= count && jobs >= 1 {
        cycles += edges.div_ceil(half * count);
        if jobs == 1 {
            break;
        }
        jobs = jobs.div_ceil(2);
    }
    if jobs >= 1 && jobs < count {
        cycles += edges.div_ceil(half);
    }
    cycles
}

fn analytic_reshaping_cycles(nodes: u64, edges: u64, config: HwConfig) -> u64 {
    (nodes.div_ceil(config.scr.slots as u64)).max(edges.div_ceil(config.scr.width as u64)) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_algo::pipeline::SampleParams;
    use agnn_graph::{generate, Vid};
    use agnn_hw::engine::AutoGnnEngine;

    fn config() -> HwConfig {
        HwConfig::vpk180_default()
    }

    // (tests below share this default configuration)

    #[test]
    fn stage_secs_take_the_binding_resource() {
        let model = FpgaModel::default();
        let report = HwReport {
            cycles: StageCycles {
                ordering: 300_000_000, // 1 s of compute
                ..StageCycles::default()
            },
            dram_bytes: StageCycles {
                ordering: 5_120_000,        // ~50 µs of DRAM
                reshaping: 102_400_000_000, // 1 s of DRAM
                ..StageCycles::default()
            },
            upe_passes: 0,
            scr_passes: 0,
        };
        let secs = model.stage_secs(&report);
        assert!((secs.ordering - 1.0).abs() < 1e-6, "compute-bound stage");
        assert!((secs.reshaping - 1.0).abs() < 1e-6, "memory-bound stage");
    }

    #[test]
    fn analytic_report_tracks_functional_simulator() {
        // Run the real engine on a scaled graph and compare the analytic
        // model at the same parameters.
        let coo = generate::power_law(2_000, 40_000, 0.8, 21);
        let batch: Vec<Vid> = (0..50).map(Vid).collect();
        let params = SampleParams::new(10, 2);
        let mut engine = AutoGnnEngine::new(config());
        let run = engine.preprocess(&coo, &batch, &params, 9);

        let workload = Workload::new(2_000, 40_000, 50, 10, 2);
        let analytic = FpgaModel::default().analytic_report(&workload, config());
        let sim = run.report.total_cycles() as f64;
        let est = analytic.total_cycles() as f64;
        let ratio = est / sim;
        assert!(
            (0.3..3.0).contains(&ratio),
            "analytic {est} vs simulated {sim} cycles (ratio {ratio})"
        );
    }

    #[test]
    fn edge_heavy_workloads_saturate_memory() {
        // TB-like: 400M edges, 230K nodes — the 91.6% utilization regime.
        let model = FpgaModel::default();
        let tb = Workload::new(230_000, 400_000_000, 3_000, 10, 2);
        let report = model.analytic_report(&tb, config());
        let util = model.bandwidth_utilization(&report);
        assert!(util > 0.6, "e-commerce graphs are memory-bound, got {util}");
    }

    #[test]
    fn small_workloads_leave_bandwidth_idle() {
        let model = FpgaModel::default();
        let ph = Workload::new(34_500, 495_000, 3_000, 10, 2);
        let report = model.analytic_report(&ph, config());
        let util = model.bandwidth_utilization(&report);
        assert!(util < 0.6, "small graphs are latency-bound, got {util}");
    }

    #[test]
    fn analytic_cycles_scale_with_edges() {
        let model = FpgaModel::default();
        let small =
            model.analytic_report(&Workload::new(100_000, 1_000_000, 3_000, 10, 2), config());
        let large =
            model.analytic_report(&Workload::new(100_000, 64_000_000, 3_000, 10, 2), config());
        assert!(large.cycles.ordering > 10 * small.cycles.ordering);
        assert!(large.cycles.reshaping >= small.cycles.reshaping);
    }

    #[test]
    fn zero_edges_cost_nothing_to_order() {
        assert_eq!(analytic_ordering_cycles(0, 48, config()), 0);
    }
}
