//! The end-to-end preprocessing engine (Fig. 14).
//!
//! Drives the UPE and SCR kernels through the fully automated workflow:
//! edge ordering → data reshaping → uni-random selection → subgraph
//! reindexing → subgraph conversion. The functional output is bit-identical
//! to [`agnn_algo::pipeline::preprocess`] under the same seed (verified by
//! the integration tests); on top of that the engine produces the per-stage
//! cycle and DRAM-byte report every timing model consumes.
//!
//! The simulated accelerator converts the whole graph, and the report
//! charges that conversion in full, but the host builds only what the
//! sampler reads. One counting read of the edges yields everything the
//! conversion's cycles and DRAM bytes depend on. When the sampler may reach
//! fewer than half the vertices, [`FrontierLists`] builds the neighbor
//! lists of each hop's frontier on demand; otherwise [`kernel::convert`]
//! builds the whole CSC, which is cheaper than gathering most of it.
//! [`crate::oracle::preprocess`] runs the same workflow on the structural
//! datapath, and tests hold the engine to it.

use std::collections::HashMap;

use agnn_algo::pipeline::{self, PreprocessOutput, PreprocessStats, SampleParams, SampledSubgraph};
use agnn_graph::{Coo, Edge, Vid};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{HwConfig, UpeConfig};
use crate::floorplan::Floorplan;
use crate::kernel::{self, ConvertCost, Fidelity, FrontierLists, Reindexer, Reshaper, UpeKernel};
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
    upe_kernel: UpeKernel,
    reshaper: Reshaper,
    reindexer: Reindexer,
    shell: HwShell,
}

impl AutoGnnEngine {
    /// Creates an engine on the VPK180 floorplan.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not fit the VPK180.
    pub fn new(config: HwConfig) -> Self {
        let plan = Floorplan::vpk180();
        assert!(
            config.fits(&plan),
            "configuration {config:?} exceeds floorplan {plan:?}"
        );
        AutoGnnEngine {
            config,
            upe_kernel: UpeKernel::new(config.upe),
            reshaper: Reshaper::new(config.scr),
            reindexer: Reindexer::new(config.scr),
            shell: HwShell::new(),
        }
    }

    /// [`AutoGnnEngine::new`]; perfbench is its only caller.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not fit the VPK180.
    pub fn with_fidelity(config: HwConfig, _: Fidelity) -> Self {
        Self::new(config)
    }

    /// Current kernel configuration.
    pub fn config(&self) -> HwConfig {
        self.config
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
        let scope = ReconfigScope::between(self.config, new);
        let seconds = self.shell.icap.reconfig_secs(scope);
        if scope != ReconfigScope::None {
            self.config = new;
            self.upe_kernel = UpeKernel::new(new.upe);
            self.reshaper = Reshaper::new(new.scr);
            self.reindexer = Reindexer::new(new.scr);
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
        // reshaper) on the full graph, charged in full from one counting
        // read of its edges. The host builds the lists step 3 reads: the
        // whole CSC when the sampler may reach half the vertices, otherwise
        // each hop's frontier's lists as the sampler reaches them.
        // 3. Uni-random selection (UPE kernel, Fig. 16). The trace is the
        // shared functional specification; the kernel charges its pools by
        // length and draw count.
        let mut rng = StdRng::seed_from_u64(seed);
        let (num_vertices, edges, upe) = (coo.num_vertices(), coo.edges(), self.config.upe);
        let trace = if may_reach_half(num_vertices, batch.len(), params) {
            let run = kernel::convert(&self.upe_kernel, &self.reshaper, num_vertices, edges);
            charge_conversion(&mut report, upe, num_vertices, edges.len(), run.cost);
            pipeline::sample(&run.csc, batch, params, &mut rng)
        } else {
            let (mut lists, cost) =
                FrontierLists::new(&self.upe_kernel, &self.reshaper, num_vertices, edges, batch);
            charge_conversion(&mut report, upe, num_vertices, edges.len(), cost);
            pipeline::sample_from(&mut lists, batch, params, &mut rng)
        };
        for layer in &trace.layers {
            let select_run = self.upe_kernel.select_layer(layer, &[]);
            report.cycles.selecting += select_run.cycles;
            report.upe_passes += select_run.upe_passes;
        }
        report.dram_bytes.selecting += selecting_dram_bytes(trace.pool_elements, trace.selections);

        // 4. Subgraph reindexing (SCR reindexer, Fig. 13c).
        let reindex_run = self.reindexer.reindex(&trace.node_stream);
        report.cycles.reindexing += reindex_run.cycles;
        report.dram_bytes.reindexing +=
            reindexing_dram_bytes(trace.node_stream.len(), reindex_run.result.num_unique());
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
        let sub_nodes = reindex_run.result.num_unique();
        let sub_run = kernel::convert(&self.upe_kernel, &self.reshaper, sub_nodes, &sub_edges);
        charge_conversion(&mut report, upe, sub_nodes, sub_edges.len(), sub_run.cost);

        let subgraph = SampledSubgraph {
            csc: sub_run.csc,
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
}

/// Whether sampling `batch_len` vertices for `params.layers` hops may read
/// the lists of at least half of `num_vertices`: hop `h` reads at most
/// `batch_len·k^h` lists, so the bound is `batch_len·Σ_{h<layers} k^h ≥
/// num_vertices / 2`. Past it, gathering loses to the full conversion: on
/// the benchmark's 172-vertex TB graph (batch 16, k = 10, 2 hops), where
/// the second hop's frontier holds most vertices, gathering made the
/// median request ~60% slower (2-vCPU x86 host).
fn may_reach_half(num_vertices: usize, batch_len: usize, params: &SampleParams) -> bool {
    let half = (num_vertices as u64).div_ceil(2);
    let mut reach = 0u64;
    let mut hop_lists = batch_len as u64;
    for _ in 0..params.layers {
        reach = reach.saturating_add(hop_lists);
        if reach >= half || hop_lists == 0 {
            break;
        }
        hop_lists = hop_lists.saturating_mul(params.k as u64);
    }
    reach >= half
}

/// Charges a COO→CSC conversion of `num_edges` edges over `num_vertices`
/// vertices to `report`: its [`ConvertCost`] cycles and passes, plus the
/// edge-ordering and data-reshaping DRAM traffic.
pub(crate) fn charge_conversion(
    report: &mut HwReport,
    upe: UpeConfig,
    num_vertices: usize,
    num_edges: usize,
    cost: ConvertCost,
) {
    report.cycles.ordering += cost.ordering_cycles;
    report.dram_bytes.ordering += ordering_dram_bytes(num_edges, upe.width, upe.count);
    report.upe_passes += cost.upe_passes;
    report.cycles.reshaping += cost.reshaping_cycles;
    report.dram_bytes.reshaping += reshaping_dram_bytes(num_edges, num_vertices);
    report.scr_passes += cost.scr_passes;
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

/// DRAM traffic of uni-random selection: read every pool element, write
/// every selection.
pub fn selecting_dram_bytes(pool_elements: usize, selections: usize) -> u64 {
    4 * pool_elements as u64 + 4 * selections as u64
}

/// DRAM traffic of subgraph reindexing: read the node stream, write one
/// `(old, new)` pair per unique vertex.
pub fn reindexing_dram_bytes(inputs: usize, uniques: usize) -> u64 {
    4 * inputs as u64 + 8 * uniques as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ScrConfig, UpeConfig};
    use crate::oracle;
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
        let run = AutoGnnEngine::new(small_config()).preprocess(&coo, &batch, &params, 42);
        assert_eq!(run.output, expected);
        let replayed = oracle::preprocess(small_config(), &coo, &batch, &params, 42);
        assert_eq!(replayed.output, expected);
    }

    #[test]
    fn engine_output_equals_software_pipeline_layer_wise() {
        let coo = generate::power_law(200, 2_000, 0.8, 5);
        let batch = vec![Vid(1), Vid(2)];
        let params = SampleParams::layer_wise(6, 2);
        let expected = agnn_algo::pipeline::preprocess(&coo, &batch, &params, 7);
        let run = AutoGnnEngine::new(small_config()).preprocess(&coo, &batch, &params, 7);
        assert_eq!(run.output, expected);
        // The oracle pushes the layer-wise pool lanes, `(src << 32) |
        // parent`, through one-hot extraction.
        assert_eq!(
            oracle::preprocess(small_config(), &coo, &batch, &params, 7),
            run
        );
    }

    #[test]
    fn reach_bound_keeps_the_full_conversion_for_tiny_graphs() {
        let params = SampleParams::new(10, 2);
        // The benchmark's TB graph (172 vertices) under a batch of 16.
        assert!(may_reach_half(172, 16, &params));
        assert!(!may_reach_half(2_000, 16, &params));
        // `16·(1 + 10) = 176` lists reach exactly half of 352 vertices.
        assert!(may_reach_half(352, 16, &params));
        assert!(!may_reach_half(353, 16, &params));
        // No hop, or no batch, reads nothing.
        assert!(!may_reach_half(10, 16, &SampleParams::new(10, 0)));
        assert!(!may_reach_half(10, 0, &params));
        assert!(may_reach_half(0, 0, &params));
        // Deep sampling saturates instead of overflowing or spinning.
        assert!(may_reach_half(
            usize::MAX,
            1,
            &SampleParams::new(10, u32::MAX)
        ));
        assert!(!may_reach_half(1 << 20, 1, &SampleParams::new(0, u32::MAX)));
    }

    #[test]
    fn engine_equals_software_pipeline_on_both_sides_of_the_reach_bound() {
        // 1,000 vertices, 5,000 of the 8,403 edges on hub 0. Batches of one
        // or two vertices stay below the bound at every depth and build
        // lists hop by hop; 200 vertices at k = 3 reach half the graph
        // from two layers on, which converts it whole.
        let mut pairs: Vec<(u32, u32)> = generate::power_law(1_000, 3_400, 0.8, 21)
            .edges()
            .iter()
            .map(|e| (e.src.0, e.dst.0))
            .collect();
        pairs.extend((0..5_000).map(|i| (i % 997 + 1, 0)));
        // Vertex 1's list leads to the hub at the second hop.
        pairs.extend([(0, 1), (0, 1), (5, 1)]);
        let coo = Coo::from_pairs(1_000, pairs).expect("valid COO");
        let wide: Vec<Vid> = (0..200).map(|i| Vid(i * 5)).collect();
        let requests: [(&[Vid], usize); 4] = [
            (&[Vid(0)], 2), // the batch's list holds the hub
            (&[Vid(1)], 3), // a later frontier's list holds the hub
            (&[Vid(7), Vid(7), Vid(300)], 4),
            (&wide, 3),
        ];
        for layers in 1..=6 {
            for (batch, k) in requests {
                for params in [
                    SampleParams::new(k, layers),
                    SampleParams::layer_wise(k, layers),
                ] {
                    let expected = agnn_algo::pipeline::preprocess(&coo, batch, &params, 5);
                    let run =
                        AutoGnnEngine::new(small_config()).preprocess(&coo, batch, &params, 5);
                    assert_eq!(run.output, expected, "{} vertices, {params:?}", batch.len());
                }
            }
        }
        // The hub requests' reports equal the oracle's full-graph replay.
        for (batch, k) in &requests[..2] {
            let params = SampleParams::new(*k, 3);
            assert!(!may_reach_half(coo.num_vertices(), batch.len(), &params));
            assert_eq!(
                AutoGnnEngine::new(small_config()).preprocess(&coo, batch, &params, 5),
                oracle::preprocess(small_config(), &coo, batch, &params, 5)
            );
        }
        assert!(may_reach_half(
            coo.num_vertices(),
            200,
            &SampleParams::new(3, 2)
        ));
    }

    #[test]
    fn fidelities_agree_on_report() {
        // The engine's accounting against the oracle's structural replay.
        let (coo, batch, params) = workload();
        let engine = AutoGnnEngine::new(small_config()).preprocess(&coo, &batch, &params, 1);
        let oracle = oracle::preprocess(small_config(), &coo, &batch, &params, 1);
        assert_eq!(engine.report, oracle.report);
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
