//! The AGNN-lib analog: a functional AutoGNN service.
//!
//! §V-B "Software architecture": AGNN-lib manages graph I/O, decides
//! hardware reconfiguration from the cost model, and drives the accelerator
//! through preprocessing. This runtime does all three against the
//! *functional* simulator, so every served request returns a real sampled
//! subgraph plus the timing a VPK180 deployment would exhibit.

use agnn_algo::pipeline::{PreprocessOutput, SampleParams, SampledSubgraph};
use agnn_cost::{BitstreamLibrary, CostModel, ReconfigPolicy, Workload};
use agnn_devices::fpga::FpgaModel;
use agnn_devices::StageSecs;
use agnn_graph::{Coo, Vid};
use agnn_hw::engine::{AutoGnnEngine, ReconfigEvent};
use agnn_hw::floorplan::Floorplan;
use agnn_hw::shell::{PcieModel, PcieSwitchModel};
use agnn_hw::HwConfig;

/// The lifecycle stages of one served request (§II-B's staged flow:
/// upload, preprocessing, subgraph hand-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceStage {
    /// Host→device graph-delta upload (DMA-main).
    Ingest,
    /// Fabric preprocessing: ordering, reshaping, selection, reindexing.
    Preprocess,
    /// Subgraph hand-off to the GPU (DMA-bypass) that kicks off inference.
    Compute,
}

impl ServiceStage {
    /// Stable lowercase identifier used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceStage::Ingest => "ingest",
            ServiceStage::Preprocess => "preprocess",
            ServiceStage::Compute => "compute",
        }
    }
}

/// The board resource a lifecycle stage occupies. The PCIe DMA engines and
/// the reconfigurable fabric run independently, so a scheduler can overlap
/// one request's [`StageResource::Dma`] stage with another's
/// [`StageResource::Fabric`] stage on the same board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageResource {
    /// The PCIe DMA engine pair (one transfer in flight at a time).
    Dma,
    /// The reconfigurable fabric (UPE + SCR regions).
    Fabric,
}

impl StageResource {
    /// Stable lowercase identifier used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            StageResource::Dma => "dma",
            StageResource::Fabric => "fabric",
        }
    }
}

/// One completed DMA stage: what ran, on which resource, for how long.
/// [`AutoGnn::ingest`] and [`AutoGnn::compute`] each return one;
/// [`AutoGnn::preprocess`] returns a [`PreprocessRun`] whose
/// `stage_secs.total()` is the fabric occupancy. A serial
/// [`AutoGnn::serve`] is the three stages back to back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRecord {
    /// Which lifecycle stage ran.
    pub stage: ServiceStage,
    /// The board resource it occupied.
    pub resource: StageResource,
    /// Wall-clock seconds it occupied that resource.
    pub secs: f64,
}

/// Result of the [`AutoGnn::preprocess`] stage: the functional product
/// plus the fabric occupancy it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PreprocessRun {
    /// The preprocessing product — identical to the software pipeline's.
    pub output: PreprocessOutput,
    /// Per-task fabric seconds (ordering/reshaping/selecting/reindexing).
    pub stage_secs: StageSecs,
}

/// One served preprocessing request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRecord {
    /// The sampled subgraph and workload counters.
    pub output: PreprocessOutput,
    /// Per-stage preprocessing seconds on the accelerator.
    pub stage_secs: StageSecs,
    /// Host→AutoGNN upload seconds (incremental: only the graph delta).
    pub upload_secs: f64,
    /// AutoGNN→GPU subgraph transfer seconds.
    pub download_secs: f64,
    /// Reconfiguration applied before this request, if any.
    pub reconfig: Option<ReconfigEvent>,
    /// Configuration that served the request.
    pub config: HwConfig,
}

impl ServiceRecord {
    /// Total service-side seconds for this request.
    pub fn total_secs(&self) -> f64 {
        self.stage_secs.total()
            + self.upload_secs
            + self.download_secs
            + self.reconfig.map_or(0.0, |r| r.seconds)
    }
}

/// What the cost model would do with a workload before it is served: the
/// current configuration, the library optimum, and whether the policy
/// clears the reconfiguration threshold. Serving layers (`agnn-serve`) use
/// this to schedule requests *around* reconfigurations instead of paying
/// them blindly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigPreview {
    /// Configuration currently programmed on the accelerator.
    pub current: HwConfig,
    /// Best configuration in the bitstream library for the workload.
    pub best: HwConfig,
    /// Whether [`ReconfigPolicy`] would approve switching to `best`.
    pub would_reconfigure: bool,
}

/// The AutoGNN service: engine + bitstream library + cost model + policy.
#[derive(Debug)]
pub struct AutoGnn {
    engine: AutoGnnEngine,
    library: BitstreamLibrary,
    policy: ReconfigPolicy,
    fpga: FpgaModel,
    params: SampleParams,
}

impl AutoGnn {
    /// A service on the default VPK180 with Table III sampling parameters.
    pub fn new(params: SampleParams) -> Self {
        let plan = Floorplan::vpk180();
        AutoGnn {
            engine: AutoGnnEngine::new(HwConfig::vpk180_default()),
            library: BitstreamLibrary::for_floorplan(&plan),
            policy: ReconfigPolicy::default(),
            fpga: FpgaModel::default(),
            params,
        }
    }

    /// A service with an explicit reconfiguration policy — serving layers
    /// that build board fleets set the deployment threshold in one call.
    pub fn with_policy(params: SampleParams, policy: ReconfigPolicy) -> Self {
        let mut service = Self::new(params);
        service.policy = policy;
        service
    }

    /// A pristine peer board: same sampling parameters and policy, but
    /// factory-fresh hardware state (default bitstream, no resident graph).
    /// Board pools fork one configured runtime into N independent
    /// reconfiguration decision points.
    pub fn fork(&self) -> Self {
        Self::with_policy(self.params, self.policy)
    }

    /// Current hardware configuration.
    pub fn config(&self) -> HwConfig {
        self.engine.config()
    }

    /// The sampling parameters served.
    pub fn params(&self) -> SampleParams {
        self.params
    }

    /// The reconfiguration policy in force.
    pub fn policy(&self) -> ReconfigPolicy {
        self.policy
    }

    /// The pre-compiled bitstream library the cost model searches.
    pub fn library(&self) -> &BitstreamLibrary {
        &self.library
    }

    /// Previews the reconfiguration decision for `workload` without
    /// touching the hardware: what the cost model would pick and whether
    /// the policy would approve the switch.
    pub fn preview(&self, workload: &Workload) -> ReconfigPreview {
        let current = self.engine.config();
        let best = CostModel.choose_config(workload, &self.library);
        ReconfigPreview {
            current,
            best,
            would_reconfigure: self.policy.should_reconfigure(workload, current, best),
        }
    }

    /// Reprograms the accelerator to `config` unconditionally, returning
    /// the event. Scheduling layers that batch same-bitstream requests use
    /// this to reconfigure once per batch instead of once per request.
    pub fn force_reconfigure(&mut self, config: HwConfig) -> ReconfigEvent {
        self.engine.reconfigure(config)
    }

    /// Analytic per-stage preprocessing seconds for `workload` under the
    /// *current* configuration — the price of one request without running
    /// functional preprocessing, so serving simulators can replay hundreds
    /// of thousands of requests cheaply.
    pub fn analytic_stage_secs(&self, workload: &Workload) -> StageSecs {
        let report = self.fpga.analytic_report(workload, self.engine.config());
        self.fpga.stage_secs(&report)
    }

    /// The PCIe link model of this board's shell — upload and hand-off
    /// pricing routes through it per stage.
    pub fn pcie(&self) -> PcieModel {
        self.engine.shell().pcie
    }

    /// The board-to-board PCIe switch model of this board's shell —
    /// cross-board graph migrations price their transfers through it.
    pub fn pcie_switch(&self) -> PcieSwitchModel {
        self.engine.shell().pcie_switch
    }

    /// Device-DRAM bytes available for resident graphs (bitstream staging
    /// is already carved out, §V-B). Board pools bound per-board tenant
    /// residency against this.
    pub fn dram_graph_capacity(&self) -> u64 {
        self.engine.shell().dram.capacity
    }

    /// The cost-model workload `coo` and `batch` present under this
    /// service's sampling parameters — the lightweight profile of §V-B.
    pub fn workload_of(&self, coo: &Coo, batch: &[Vid]) -> Workload {
        Workload::new(
            coo.num_vertices() as u64,
            coo.num_edges() as u64,
            batch.len() as u64,
            self.params.k as u64,
            self.params.layers,
        )
    }

    /// Lifecycle stage 1 — **ingest**: streams the graph delta into device
    /// DRAM over DMA-main (the shell tracks residency, so a warm graph
    /// costs nothing). Occupies the [`StageResource::Dma`] engine only;
    /// the fabric is free to preprocess a previous batch while the delta
    /// lands in the second staging buffer
    /// ([`agnn_hw::shell::DELTA_BUFFERS`]).
    pub fn ingest(&mut self, coo: &Coo) -> StageRecord {
        let (upload_secs, _moved) = self.engine.shell_mut().upload_graph(coo.byte_size());
        StageRecord {
            stage: ServiceStage::Ingest,
            resource: StageResource::Dma,
            secs: upload_secs,
        }
    }

    /// Lifecycle stage 2 — **preprocess**: runs the fully automated
    /// preprocessing workflow on the fabric and returns the functional
    /// output with its per-task timing. Occupies
    /// [`StageResource::Fabric`].
    pub fn preprocess(&mut self, coo: &Coo, batch: &[Vid], seed: u64) -> PreprocessRun {
        let run = self.engine.preprocess(coo, batch, &self.params, seed);
        PreprocessRun {
            output: run.output,
            stage_secs: self.fpga.stage_secs(&run.report),
        }
    }

    /// Lifecycle stage 3 — **compute**: ships the preprocessed subgraph to
    /// the GPU over DMA-bypass, kicking off model inference. Occupies
    /// [`StageResource::Dma`].
    pub fn compute(&mut self, subgraph: &SampledSubgraph) -> StageRecord {
        StageRecord {
            stage: ServiceStage::Compute,
            resource: StageResource::Dma,
            secs: self.engine.shell().download_subgraph(subgraph.byte_size()),
        }
    }

    /// Serves one preprocessing request end to end: profiles the graph,
    /// reconfigures if the cost model predicts a worthwhile gain, then
    /// runs the staged lifecycle ([`ingest`](AutoGnn::ingest) →
    /// [`preprocess`](AutoGnn::preprocess) → [`compute`](AutoGnn::compute))
    /// back to back. This is the serial wrapper: pipelined serving layers
    /// call the stages directly and schedule them against per-board
    /// resources.
    pub fn serve(&mut self, coo: &Coo, batch: &[Vid], seed: u64) -> ServiceRecord {
        // 1. Profile: lightweight metadata only (§V-B).
        let workload = self.workload_of(coo, batch);

        // 2. Cost evaluation + reconfiguration decision.
        let preview = self.preview(&workload);
        let reconfig = preview
            .would_reconfigure
            .then(|| self.engine.reconfigure(preview.best));

        // 3–5. The staged lifecycle, serially.
        let ingest = self.ingest(coo);
        let run = self.preprocess(coo, batch, seed);
        let compute = self.compute(&run.output.subgraph);

        ServiceRecord {
            output: run.output,
            stage_secs: run.stage_secs,
            upload_secs: ingest.secs,
            download_secs: compute.secs,
            reconfig,
            config: self.engine.config(),
        }
    }

    /// Forgets the resident graph (e.g. switching tenants).
    pub fn evict_graph(&mut self) {
        self.engine.shell_mut().evict_graph();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::generate;

    fn batch(n: u32) -> Vec<Vid> {
        (0..n).map(Vid).collect()
    }

    #[test]
    fn serve_returns_software_identical_output() {
        let coo = generate::power_law(400, 5_000, 0.9, 3);
        let mut service = AutoGnn::new(SampleParams::new(5, 2));
        let record = service.serve(&coo, &batch(8), 77);
        let expected =
            agnn_algo::pipeline::preprocess(&coo, &batch(8), &SampleParams::new(5, 2), 77);
        assert_eq!(record.output, expected);
        assert!(record.total_secs() > 0.0);
    }

    #[test]
    fn second_pass_uploads_nothing_new() {
        let coo = generate::power_law(300, 4_000, 0.8, 4);
        let mut service = AutoGnn::new(SampleParams::new(4, 2));
        let first = service.serve(&coo, &batch(4), 1);
        assert!(first.upload_secs > 0.0, "cold start uploads the graph");
        let second = service.serve(&coo, &batch(4), 2);
        assert_eq!(second.upload_secs, 0.0, "resident graph needs no upload");
        // The DRAM graph budget holds a 2M-edge graph with room to spare.
        let workload = Workload::new(100_000, 2_000_000, 3_000, 10, 2);
        assert!(service.dram_graph_capacity() > workload.coo_bytes());
    }

    #[test]
    fn growing_graph_uploads_only_the_delta() {
        let mut coo = generate::power_law(300, 4_000, 0.8, 5);
        let mut service = AutoGnn::new(SampleParams::new(4, 2));
        let first = service.serve(&coo, &batch(4), 1);
        let added = generate::incremental_edges(&coo, 400, 0.5, 9);
        coo.extend_edges(added).unwrap();
        let second = service.serve(&coo, &batch(4), 2);
        assert!(second.upload_secs > 0.0);
        assert!(
            second.upload_secs < first.upload_secs,
            "delta is smaller than the initial upload"
        );
    }

    #[test]
    fn eviction_forces_full_reupload() {
        let coo = generate::power_law(300, 4_000, 0.8, 6);
        let mut service = AutoGnn::new(SampleParams::new(4, 2));
        let first = service.serve(&coo, &batch(4), 1);
        service.evict_graph();
        let again = service.serve(&coo, &batch(4), 2);
        assert!((again.upload_secs - first.upload_secs).abs() < 1e-12);
    }

    #[test]
    fn reconfiguration_happens_at_most_once_for_a_stable_graph() {
        let coo = generate::power_law(500, 20_000, 1.0, 7);
        let mut service = AutoGnn::new(SampleParams::new(10, 2));
        let first = service.serve(&coo, &batch(16), 1);
        let second = service.serve(&coo, &batch(16), 2);
        // Whatever the first decision was, the second pass sees an already
        // optimal configuration.
        assert!(second.reconfig.is_none());
        assert_eq!(first.config, second.config);
    }

    #[test]
    fn fork_yields_a_pristine_peer_with_the_same_policy() {
        let coo = generate::power_law(400, 8_000, 0.9, 9);
        let mut original = AutoGnn::with_policy(
            SampleParams::new(5, 2),
            agnn_cost::ReconfigPolicy { min_gain: 0.42 },
        );
        original.serve(&coo, &batch(8), 1); // dirty: resident graph, maybe reconfigured
        let mut peer = original.fork();
        assert_eq!(peer.policy(), original.policy());
        assert_eq!(peer.params(), original.params());
        assert_eq!(peer.config(), HwConfig::vpk180_default(), "fresh bitstream");
        let first = peer.serve(&coo, &batch(8), 1);
        assert!(first.upload_secs > 0.0, "no resident graph inherited");
    }

    #[test]
    fn staged_lifecycle_reproduces_serve_exactly() {
        let coo = generate::power_law(400, 6_000, 0.9, 12);
        let params = SampleParams::new(5, 2);
        let mut serial = AutoGnn::new(params);
        let record = serial.serve(&coo, &batch(8), 5);

        // Drive the stages by hand on a fresh peer, mirroring serve().
        let mut staged = AutoGnn::new(params);
        let workload = staged.workload_of(&coo, &batch(8));
        let preview = staged.preview(&workload);
        let reconfig = preview
            .would_reconfigure
            .then(|| staged.force_reconfigure(preview.best));
        let ingest = staged.ingest(&coo);
        let run = staged.preprocess(&coo, &batch(8), 5);
        let compute = staged.compute(&run.output.subgraph);

        assert_eq!(run.output, record.output);
        assert_eq!(ingest.secs, record.upload_secs);
        assert_eq!(run.stage_secs, record.stage_secs);
        assert_eq!(compute.secs, record.download_secs);
        assert_eq!(reconfig, record.reconfig);
        let total: f64 = ingest.secs
            + run.stage_secs.total()
            + compute.secs
            + reconfig.map_or(0.0, |r| r.seconds);
        assert!((total - record.total_secs()).abs() < 1e-15);
    }

    #[test]
    fn stage_records_carry_their_resources() {
        let coo = generate::power_law(300, 3_000, 0.8, 13);
        let mut service = AutoGnn::new(SampleParams::new(4, 2));
        let ingest = service.ingest(&coo);
        assert_eq!(ingest.stage, ServiceStage::Ingest);
        assert_eq!(ingest.resource, StageResource::Dma);
        let run = service.preprocess(&coo, &batch(4), 1);
        let compute = service.compute(&run.output.subgraph);
        assert_eq!(compute.stage, ServiceStage::Compute);
        assert_eq!(compute.resource, StageResource::Dma);
        assert_eq!(ServiceStage::Ingest.name(), "ingest");
        assert_eq!(StageResource::Fabric.name(), "fabric");
    }

    #[test]
    fn peer_ingest_is_cheaper_than_a_host_reupload() {
        let coo = generate::power_law(400, 8_000, 0.9, 14);
        let mut host = AutoGnn::new(SampleParams::new(4, 2));
        let cold = host.ingest(&coo);
        assert_eq!(cold.secs, host.pcie().transfer_secs(coo.byte_size()));

        // A peer that held the whole graph rehydrates it over the switch.
        let migrated = host.pcie_switch().transfer_secs(coo.byte_size());
        assert!(
            migrated < cold.secs,
            "switch bandwidth must beat the host link: {} vs {}",
            migrated,
            cold.secs
        );
        assert!(
            host.pcie_switch().bandwidth > host.pcie().bandwidth,
            "the peer path only exists because the switch fabric is faster"
        );
        // The cold upload leaves the graph resident: the next ingest is free.
        assert_eq!(host.ingest(&coo).secs, 0.0);
    }

    #[test]
    fn service_is_deterministic_in_the_seed() {
        let coo = generate::power_law(300, 3_000, 0.8, 8);
        let mk = || {
            let mut s = AutoGnn::new(SampleParams::new(5, 2));
            s.serve(&coo, &batch(6), 42).output
        };
        assert_eq!(mk(), mk());
    }
}
