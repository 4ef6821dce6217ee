//! The end-to-end preprocessing engine (Fig. 14).
//!
//! Drives the UPE and SCR kernels through the fully automated workflow:
//! edge ordering → data reshaping → uni-random selection → subgraph
//! reindexing → subgraph conversion. The functional output is bit-identical
//! to [`agnn_algo::pipeline::preprocess`] under the same seed (verified by
//! the integration tests); on top of that the engine produces the per-stage
//! cycle and DRAM-byte report every timing model consumes.

use std::collections::HashMap;

use agnn_algo::pipeline::{
    PreprocessOutput, PreprocessStats, SampleParams, SampledSubgraph, SelectionStrategy,
};
use agnn_graph::{Coo, Csc, Edge, Vid};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::HwConfig;
use crate::floorplan::Floorplan;
use crate::kernel::{self, Fidelity, Reindexer, Reshaper, UpeKernel};
use crate::metrics::HwReport;
use crate::shell::{HwShell, ReconfigScope};

/// On-chip scratchpad capacity in bytes; merge runs below this size never
/// leave the chip (Fig. 12a's shared scratchpad memory — the Versal
/// device's aggregate URAM/BRAM).
pub const SCRATCHPAD_BYTES: u64 = 32 << 20;

/// Result of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// The preprocessing product — identical to the software pipeline's.
    pub output: PreprocessOutput,
    /// Per-stage cycles and DRAM traffic.
    pub report: HwReport,
}

/// A reconfiguration event: which region changed and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigEvent {
    /// Affected region(s).
    pub scope: ReconfigScope,
    /// Wall-clock seconds spent reprogramming.
    pub seconds: f64,
}

/// The AutoGNN accelerator: kernels + shell under one configuration.
#[derive(Debug, Clone)]
pub struct AutoGnnEngine {
    config: HwConfig,
    fidelity: Fidelity,
    upe_kernel: UpeKernel,
    reshaper: Reshaper,
    reindexer: Reindexer,
    shell: HwShell,
}

impl AutoGnnEngine {
    /// Creates an engine in [`Fidelity::Fast`] on the VPK180 floorplan.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not fit the VPK180.
    pub fn new(config: HwConfig) -> Self {
        Self::with_fidelity(config, Fidelity::Fast)
    }

    /// Creates an engine with an explicit fidelity.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not fit the VPK180.
    pub fn with_fidelity(config: HwConfig, fidelity: Fidelity) -> Self {
        Self::with_floorplan(config, Floorplan::vpk180(), fidelity)
    }

    /// Creates an engine on an arbitrary floorplan (Fig. 26 board sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `config` does not fit `plan`.
    pub fn with_floorplan(config: HwConfig, plan: Floorplan, fidelity: Fidelity) -> Self {
        assert!(
            config.fits(&plan),
            "configuration {config:?} exceeds floorplan {plan:?}"
        );
        AutoGnnEngine {
            config,
            fidelity,
            upe_kernel: UpeKernel::with_fidelity(config.upe, fidelity),
            reshaper: Reshaper::with_fidelity(config.scr, fidelity),
            reindexer: Reindexer::with_fidelity(config.scr, fidelity),
            shell: HwShell::new(),
        }
    }

    /// Current kernel configuration.
    pub fn config(&self) -> HwConfig {
        self.config
    }

    /// Simulation fidelity this engine was built with.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// The HW-shell (transfer state and models).
    pub fn shell(&self) -> &HwShell {
        &self.shell
    }

    /// Mutable access to the HW-shell.
    pub fn shell_mut(&mut self) -> &mut HwShell {
        &mut self.shell
    }

    /// Applies a new configuration, reprogramming only the regions that
    /// changed (§V-B), and returns the event.
    pub fn reconfigure(&mut self, new: HwConfig) -> ReconfigEvent {
        let scope = match (self.config.upe != new.upe, self.config.scr != new.scr) {
            (false, false) => ReconfigScope::None,
            (true, false) => ReconfigScope::UpeOnly,
            (false, true) => ReconfigScope::ScrOnly,
            (true, true) => ReconfigScope::Both,
        };
        let seconds = self.shell.icap.reconfig_secs(scope);
        if scope != ReconfigScope::None {
            self.config = new;
            self.upe_kernel = UpeKernel::with_fidelity(new.upe, self.fidelity);
            self.reshaper = Reshaper::with_fidelity(new.scr, self.fidelity);
            self.reindexer = Reindexer::with_fidelity(new.scr, self.fidelity);
        }
        ReconfigEvent { scope, seconds }
    }

    /// Runs the fully automated preprocessing workflow of Fig. 14.
    ///
    /// # Panics
    ///
    /// Panics if a batch node is out of range for `coo`.
    pub fn preprocess(
        &mut self,
        coo: &Coo,
        batch: &[Vid],
        params: &SampleParams,
        seed: u64,
    ) -> EngineRun {
        for b in batch {
            assert!(
                b.index() < coo.num_vertices(),
                "batch node {b} out of range"
            );
        }
        let mut report = HwReport::default();

        // 1–2. Edge ordering (UPE kernel, Fig. 15) and data reshaping (SCR
        // reshaper) on the full graph.
        let csc = self.convert(coo.num_vertices(), coo.edges(), &mut report);

        // 3. Uni-random selection (UPE kernel, Fig. 16). The trace is the
        // shared functional specification; the kernel replays it for cycle
        // accounting (and network verification in structural fidelity,
        // the only reader of the packed pool contents).
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = agnn_algo::pipeline::sample(&csc, batch, params, &mut rng);
        for layer in &trace.layers {
            let pool_values: Vec<Vec<u64>> = match self.fidelity {
                Fidelity::Structural => layer
                    .iter()
                    .map(|record| pool_contents(&csc, params.strategy, &record.parents))
                    .collect(),
                Fidelity::Fast => Vec::new(),
            };
            let select_run = self.upe_kernel.select_layer(layer, &pool_values);
            report.cycles.selecting += select_run.cycles;
            report.upe_passes += select_run.upe_passes;
        }
        report.dram_bytes.selecting += 4 * trace.pool_elements as u64 + 4 * trace.selections as u64;

        // 4. Subgraph reindexing (SCR reindexer, Fig. 13c).
        let reindex_run = self.reindexer.reindex(&trace.node_stream);
        report.cycles.reindexing += reindex_run.cycles;
        report.dram_bytes.reindexing +=
            4 * trace.node_stream.len() as u64 + 8 * reindex_run.result.num_unique() as u64;
        report.scr_passes += reindex_run.scr_passes;

        // 5. Final conversion of the sampled COO (§II-B): edge ordering and
        // data reshaping on the renumbered subgraph, charged to the same
        // stages.
        let old_to_new: HashMap<Vid, Vid> = reindex_run
            .result
            .new_to_old
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, Vid::from_index(new)))
            .collect();
        let sub_edges: Vec<Edge> = trace
            .edges
            .iter()
            .map(|e| Edge::new(old_to_new[&e.src], old_to_new[&e.dst]))
            .collect();
        let sub_csc = self.convert(reindex_run.result.num_unique(), &sub_edges, &mut report);

        let subgraph = SampledSubgraph {
            csc: sub_csc,
            new_to_old: reindex_run.result.new_to_old,
            batch_new: batch.iter().map(|b| old_to_new[b]).collect(),
        };
        let stats = PreprocessStats {
            edges_ordered: coo.num_edges(),
            pointer_entries: coo.num_vertices() + 1,
            selections: trace.selections,
            pool_elements: trace.pool_elements,
            reindex_inputs: trace.node_stream.len(),
            subgraph_edges: subgraph.csc.num_edges(),
            subgraph_nodes: subgraph.csc.num_vertices(),
        };

        EngineRun {
            output: PreprocessOutput { subgraph, stats },
            report,
        }
    }

    /// COO→CSC conversion on the kernels ([`kernel::convert`]), charging
    /// edge ordering and data reshaping, cycles and DRAM bytes, to `report`.
    fn convert(&self, num_vertices: usize, edges: &[Edge], report: &mut HwReport) -> Csc {
        let run = kernel::convert(&self.upe_kernel, &self.reshaper, num_vertices, edges);
        report.cycles.ordering += run.ordering_cycles;
        report.dram_bytes.ordering +=
            ordering_dram_bytes(edges.len(), self.config.upe.width, self.config.upe.count);
        report.upe_passes += run.upe_passes;
        report.cycles.reshaping += run.reshaping_cycles;
        report.dram_bytes.reshaping += reshaping_dram_bytes(edges.len(), num_vertices);
        report.scr_passes += run.scr_passes;
        run.csc
    }
}

/// DRAM traffic of edge ordering. The chunk sort and the merge cascade are
/// fused into a single streaming pass (chunks are sorted in the scratchpad
/// and fed straight into the cascade), so the baseline traffic is one
/// read + one write of the key array. When the parallel merge phase builds
/// runs larger than the scratchpad (roughly `8·e / upe_count` bytes), one
/// additional spill pass is charged.
pub fn ordering_dram_bytes(num_edges: usize, upe_width: usize, upe_count: usize) -> u64 {
    let _ = upe_width; // traffic depends on run sizes, not lane width
    let e = num_edges as u64;
    if e == 0 {
        return 0;
    }
    let pass_bytes = 16 * e; // 8-byte keys, read + write
                             // At the end of the parallel phase each of the `count` runs holds
                             // ~8e/count bytes; only the portion that does not fit the scratchpad
                             // spills (one extra read + write of the overflow).
    let spill_bytes = 2 * (8 * e).saturating_sub(upe_count.max(1) as u64 * SCRATCHPAD_BYTES);
    pass_bytes + spill_bytes
}

/// DRAM traffic of data reshaping: read the destination column, write the
/// pointer array.
pub fn reshaping_dram_bytes(num_edges: usize, num_vertices: usize) -> u64 {
    4 * num_edges as u64 + 4 * (num_vertices as u64 + 1)
}

/// Reconstructs the selection-pool contents for a pool record, packed into
/// the UPE's 64-bit lanes.
fn pool_contents(csc: &Csc, strategy: SelectionStrategy, parents: &[Vid]) -> Vec<u64> {
    match strategy {
        SelectionStrategy::NodeWise => {
            debug_assert_eq!(parents.len(), 1);
            csc.neighbors(parents[0])
                .iter()
                .map(|s| u64::from(s.0))
                .collect()
        }
        SelectionStrategy::LayerWise => parents
            .iter()
            .flat_map(|&parent| {
                csc.neighbors(parent)
                    .iter()
                    .map(move |s| (u64::from(s.0) << 32) | u64::from(parent.0))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ScrConfig, UpeConfig};
    use agnn_graph::generate;

    fn small_config() -> HwConfig {
        HwConfig {
            upe: UpeConfig::new(4, 16),
            scr: ScrConfig::new(2, 32),
        }
    }

    fn workload() -> (Coo, Vec<Vid>, SampleParams) {
        (
            generate::power_law(300, 3_000, 0.9, 11),
            vec![Vid(0), Vid(3), Vid(7)],
            SampleParams::new(5, 2),
        )
    }

    #[test]
    fn engine_output_equals_software_pipeline() {
        let (coo, batch, params) = workload();
        let expected = agnn_algo::pipeline::preprocess(&coo, &batch, &params, 42);
        for fidelity in [Fidelity::Fast, Fidelity::Structural] {
            let mut engine = AutoGnnEngine::with_fidelity(small_config(), fidelity);
            let run = engine.preprocess(&coo, &batch, &params, 42);
            assert_eq!(run.output, expected, "{fidelity:?}");
        }
    }

    #[test]
    fn engine_output_equals_software_pipeline_layer_wise() {
        let coo = generate::power_law(200, 2_000, 0.8, 5);
        let batch = vec![Vid(1), Vid(2)];
        let params = SampleParams::layer_wise(6, 2);
        let expected = agnn_algo::pipeline::preprocess(&coo, &batch, &params, 7);
        let mut engine = AutoGnnEngine::with_fidelity(small_config(), Fidelity::Structural);
        let run = engine.preprocess(&coo, &batch, &params, 7);
        assert_eq!(run.output, expected);
    }

    #[test]
    fn fidelities_agree_on_report() {
        let (coo, batch, params) = workload();
        let fast = AutoGnnEngine::with_fidelity(small_config(), Fidelity::Fast)
            .preprocess(&coo, &batch, &params, 1);
        let structural = AutoGnnEngine::with_fidelity(small_config(), Fidelity::Structural)
            .preprocess(&coo, &batch, &params, 1);
        assert_eq!(fast.report, structural.report);
    }

    #[test]
    fn all_stages_record_cycles_and_bytes() {
        let (coo, batch, params) = workload();
        let run = AutoGnnEngine::new(small_config()).preprocess(&coo, &batch, &params, 2);
        for (name, value) in run.report.cycles.as_pairs() {
            assert!(value > 0, "stage {name} recorded no cycles");
        }
        for (name, value) in run.report.dram_bytes.as_pairs() {
            assert!(value > 0, "stage {name} recorded no DRAM traffic");
        }
    }

    #[test]
    fn bigger_upe_kernel_cuts_ordering_cycles() {
        let (coo, batch, params) = workload();
        let small = AutoGnnEngine::new(small_config()).preprocess(&coo, &batch, &params, 3);
        let big_cfg = HwConfig {
            upe: UpeConfig::new(32, 64),
            scr: ScrConfig::new(2, 32),
        };
        let big = AutoGnnEngine::new(big_cfg).preprocess(&coo, &batch, &params, 3);
        assert!(big.report.cycles.ordering < small.report.cycles.ordering);
        // Functional output does not depend on the configuration.
        assert_eq!(big.output, small.output);
    }

    #[test]
    fn reconfigure_tracks_scope_and_time() {
        let mut engine = AutoGnnEngine::new(small_config());
        let same = engine.reconfigure(small_config());
        assert_eq!(same.scope, ReconfigScope::None);
        assert_eq!(same.seconds, 0.0);

        let upe_only = HwConfig {
            upe: UpeConfig::new(8, 16),
            scr: small_config().scr,
        };
        let event = engine.reconfigure(upe_only);
        assert_eq!(event.scope, ReconfigScope::UpeOnly);
        assert!(event.seconds > 0.0);
        assert_eq!(engine.config(), upe_only);

        let both = HwConfig {
            upe: UpeConfig::new(2, 32),
            scr: ScrConfig::new(4, 16),
        };
        let event = engine.reconfigure(both);
        assert_eq!(event.scope, ReconfigScope::Both);
        assert!((event.seconds - 0.231).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_produces_empty_subgraph() {
        let (coo, _, params) = workload();
        let run = AutoGnnEngine::new(small_config()).preprocess(&coo, &[], &params, 4);
        assert_eq!(run.output.subgraph.csc.num_vertices(), 0);
        assert_eq!(run.output.stats.selections, 0);
        // Conversion still happened.
        assert!(run.report.cycles.ordering > 0);
    }

    #[test]
    #[should_panic(expected = "exceeds floorplan")]
    fn oversized_config_rejected() {
        let cfg = HwConfig {
            upe: UpeConfig::new(100_000, 64),
            scr: ScrConfig::new(1, 64),
        };
        AutoGnnEngine::new(cfg);
    }

    #[test]
    fn dram_bytes_scale_with_graph_size() {
        let params = SampleParams::new(3, 1);
        let small_g = generate::power_law(100, 1_000, 0.8, 6);
        let large_g = generate::power_law(100, 8_000, 0.8, 6);
        let a = AutoGnnEngine::new(small_config()).preprocess(&small_g, &[Vid(0)], &params, 5);
        let b = AutoGnnEngine::new(small_config()).preprocess(&large_g, &[Vid(0)], &params, 5);
        assert!(b.report.dram_bytes.ordering > 4 * a.report.dram_bytes.ordering);
    }
}
