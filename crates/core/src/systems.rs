//! The seven compared systems (§VI "Compared systems and configurations").
//!
//! - `Cpu`/`Gpu` — DGL preprocessing on the host devices;
//! - `GSamp` — GPU preprocessing with gSampler-accelerated sampling;
//! - `FpgaSampler` — the FPGA-HBM streaming sampler (sampling only; graph
//!   conversion stays on the GPU, adding full-graph handoffs);
//! - `AutoPre` — AutoGNN with the UPE region statically split into an
//!   ordering-only and a selection-only sub-engine (half the LUTs each);
//! - `StatPre` — AutoGNN with the unified, time-multiplexed UPE region at a
//!   fixed MV-tuned configuration;
//! - `DynPre` — `StatPre` plus cost-model-driven partial reconfiguration.

use agnn_cost::optimizer::{search, SearchSpace};
use agnn_cost::Workload;
use agnn_devices::accel;
use agnn_devices::cpu::CpuModel;
use agnn_devices::fpga::FpgaModel;
use agnn_devices::gpu::GpuModel;
use agnn_devices::StageSecs;
use agnn_gnn::models::GnnSpec;
use agnn_gnn::timing::GpuInferenceModel;
use agnn_graph::datasets::Dataset;
use agnn_hw::floorplan::Floorplan;
use agnn_hw::{HwConfig, UpeConfig};

/// The systems of Fig. 18, in figure order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// DGL preprocessing on the 128-core Xeon.
    Cpu,
    /// DGL preprocessing on the RTX 3090.
    Gpu,
    /// GPU preprocessing with gSampler sampling.
    GSamp,
    /// FPGA-HBM streaming sampler (sampling only).
    FpgaSampler,
    /// AutoGNN, statically split UPE region.
    AutoPre,
    /// AutoGNN, unified UPE region, fixed MV-tuned configuration.
    StatPre,
    /// AutoGNN with dynamic partial reconfiguration.
    DynPre,
}

impl SystemKind {
    /// All systems in figure order.
    pub const ALL: [SystemKind; 7] = [
        SystemKind::Cpu,
        SystemKind::Gpu,
        SystemKind::GSamp,
        SystemKind::FpgaSampler,
        SystemKind::AutoPre,
        SystemKind::StatPre,
        SystemKind::DynPre,
    ];

    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Cpu => "CPU",
            SystemKind::Gpu => "GPU",
            SystemKind::GSamp => "GSamp",
            SystemKind::FpgaSampler => "FPGA",
            SystemKind::AutoPre => "AutoPre",
            SystemKind::StatPre => "StatPre",
            SystemKind::DynPre => "DynPre",
        }
    }

    /// Whether this system runs end-to-end preprocessing on AutoGNN.
    pub fn is_autognn(self) -> bool {
        matches!(
            self,
            SystemKind::AutoPre | SystemKind::StatPre | SystemKind::DynPre
        )
    }
}

/// Shared evaluation context: device models plus the workload under test.
#[derive(Debug, Clone)]
pub struct SystemContext {
    /// The workload (full-scale Table II parameters).
    pub workload: Workload,
    /// The GNN model inferred after preprocessing.
    pub gnn: GnnSpec,
    /// GPU baseline model.
    pub gpu: GpuModel,
    /// CPU baseline model.
    pub cpu: CpuModel,
    /// FPGA timing model.
    pub fpga: FpgaModel,
    /// GPU inference timing.
    pub inference: GpuInferenceModel,
    /// Accelerator floorplan.
    pub plan: Floorplan,
    /// Fraction of the graph re-uploaded per pass on AutoGNN systems
    /// (incremental updates; the GPU must re-fetch everything).
    pub update_fraction: f64,
}

impl SystemContext {
    /// Context with default device models for a workload.
    pub fn new(workload: Workload, gnn: GnnSpec) -> Self {
        SystemContext {
            workload,
            gnn,
            gpu: GpuModel::default(),
            cpu: CpuModel::default(),
            fpga: FpgaModel::default(),
            inference: GpuInferenceModel::default(),
            plan: Floorplan::vpk180(),
            update_fraction: 0.07,
        }
    }
}

/// End-to-end latency breakdown of one system on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndBreakdown {
    /// System evaluated.
    pub system: SystemKind,
    /// Per-stage preprocessing seconds.
    pub preprocess: StageSecs,
    /// Host↔accelerator↔GPU transfer seconds.
    pub transfer_secs: f64,
    /// GNN inference seconds (always on the GPU).
    pub inference_secs: f64,
    /// Whether the system ran out of device memory (Fig. 5's TB/GPU case).
    pub oom: bool,
    /// The AutoGNN configuration used, for AutoGNN systems.
    pub fpga_config: Option<HwConfig>,
    /// Achieved DRAM bandwidth fraction, for AutoGNN systems (Fig. 18).
    pub bandwidth_utilization: Option<f64>,
}

impl EndToEndBreakdown {
    /// Total end-to-end seconds. OOM runs report infinity.
    pub fn total_secs(&self) -> f64 {
        if self.oom {
            return f64::INFINITY;
        }
        self.preprocess.total() + self.transfer_secs + self.inference_secs
    }

    /// Preprocessing (including transfers) share of the total, in percent.
    pub fn preprocess_share_pct(&self) -> f64 {
        let total = self.total_secs();
        if !total.is_finite() || total <= 0.0 {
            return 100.0;
        }
        (self.preprocess.total() + self.transfer_secs) / total * 100.0
    }
}

/// The MV-tuned fixed configuration `AutoPre` and `StatPre` use ("the
/// hardware settings of AutoPre and StatPre are fixed and tuned for the MV
/// dataset", §VI).
pub fn mv_tuned_config(plan: &Floorplan) -> HwConfig {
    let setup = crate::config::EvalSetup::default();
    let spec = Dataset::Movie.spec();
    let mv = setup.workload(spec.nodes, spec.edges);
    let fpga = FpgaModel::default();
    search(plan, SearchSpace::Full, |c| fpga.analytic_secs(&mv, c))
}

/// Evaluates one system on the context's workload.
pub fn evaluate(ctx: &SystemContext, kind: SystemKind) -> EndToEndBreakdown {
    let w = &ctx.workload;
    let inference_secs =
        ctx.inference
            .analytic_inference_secs(&ctx.gnn, w.subgraph_nodes(), w.subgraph_edges());
    let pcie = ctx.gpu.pcie_bandwidth;
    let subgraph_upload = w.subgraph_bytes() as f64 / pcie;

    match kind {
        SystemKind::Cpu => EndToEndBreakdown {
            system: kind,
            preprocess: ctx.cpu.preprocess_secs(w),
            transfer_secs: subgraph_upload,
            inference_secs,
            oom: false,
            fpga_config: None,
            bandwidth_utilization: None,
        },
        SystemKind::Gpu | SystemKind::GSamp => {
            let base = ctx.gpu.preprocess_secs(w);
            let oom = base.is_none();
            let mut preprocess = base.unwrap_or_default();
            if kind == SystemKind::GSamp {
                preprocess = accel::gsamp().apply(&preprocess);
            }
            EndToEndBreakdown {
                system: kind,
                preprocess,
                transfer_secs: ctx.gpu.upload_secs(w),
                inference_secs,
                oom,
                fpga_config: None,
                bandwidth_utilization: None,
            }
        }
        SystemKind::FpgaSampler => {
            // Conversion on the GPU, sampling on the external FPGA; the
            // CSC-form graph crosses PCIe to the sampler on top of the
            // host→GPU upload (§VI-A: transfers are 24.7% of end-to-end).
            let base = ctx.gpu.preprocess_secs(w);
            let oom = base.is_none();
            let preprocess = accel::fpga_sampler().apply(&base.unwrap_or_default());
            let csc_bytes = (w.edges * 4 + (w.nodes + 1) * 4) as f64;
            let transfer = ctx.gpu.upload_secs(w) + csc_bytes / pcie + subgraph_upload;
            EndToEndBreakdown {
                system: kind,
                preprocess,
                transfer_secs: transfer,
                inference_secs,
                oom,
                fpga_config: None,
                bandwidth_utilization: None,
            }
        }
        SystemKind::AutoPre | SystemKind::StatPre | SystemKind::DynPre => {
            let config = match kind {
                SystemKind::DynPre => search(&ctx.plan, SearchSpace::Full, |c| {
                    ctx.fpga.analytic_secs(w, c)
                }),
                _ => mv_tuned_config(&ctx.plan),
            };
            // AutoPre forgoes UPE unification: each stage runs on a fixed
            // sub-engine holding half the UPE instances.
            let effective = if kind == SystemKind::AutoPre {
                HwConfig {
                    upe: UpeConfig::new((config.upe.count / 2).max(1), config.upe.width),
                    scr: config.scr,
                }
            } else {
                config
            };
            let report = ctx.fpga.analytic_report(w, effective);
            let preprocess = ctx.fpga.stage_secs(&report);
            let utilization = ctx.fpga.bandwidth_utilization(&report);
            // Incremental update upload + subgraph DMA-bypass to the GPU.
            let update_upload = w.coo_bytes() as f64 * ctx.update_fraction / pcie;
            EndToEndBreakdown {
                system: kind,
                preprocess,
                transfer_secs: update_upload + subgraph_upload,
                inference_secs,
                oom: false,
                fpga_config: Some(config),
                bandwidth_utilization: Some(utilization),
            }
        }
    }
}

/// Per-pass transfer volume in bytes (Fig. 20): what must cross PCIe for
/// one preprocessing + inference pass.
pub fn transfer_bytes(ctx: &SystemContext, kind: SystemKind) -> u64 {
    let w = &ctx.workload;
    let subgraph = w.subgraph_bytes();
    match kind {
        SystemKind::Cpu => subgraph,
        SystemKind::Gpu | SystemKind::GSamp => w.coo_bytes(),
        SystemKind::FpgaSampler => w.coo_bytes() + (w.edges * 4 + (w.nodes + 1) * 4) + subgraph,
        _ => (w.coo_bytes() as f64 * ctx.update_fraction) as u64 + subgraph,
    }
}

/// LUT utilization of an AutoGNN variant (Fig. 21): the time-weighted
/// fraction of device LUTs busy during preprocessing.
pub fn lut_utilization(ctx: &SystemContext, kind: SystemKind) -> f64 {
    assert!(
        kind.is_autognn(),
        "LUT utilization applies to AutoGNN systems"
    );
    let breakdown = evaluate(ctx, kind);
    let secs = breakdown.preprocess;
    let total = secs.total();
    if total <= 0.0 {
        return 0.0;
    }
    let upe_frac = ctx.plan.upe_region_luts() as f64 / ctx.plan.total_luts() as f64;
    let scr_frac = ctx.plan.scr_region_luts() as f64 / ctx.plan.total_luts() as f64;
    let scr_busy = scr_frac * (secs.reshaping + secs.reindexing);
    let upe_busy = match kind {
        // Split sub-engines: each half is busy only during its own stage.
        SystemKind::AutoPre => upe_frac / 2.0 * (secs.ordering + secs.selecting),
        // Unified region: all UPE LUTs busy during both UPE stages.
        _ => upe_frac * (secs.ordering + secs.selecting),
    };
    (upe_busy + scr_busy) / total
}

/// The Table II dataset list with full-scale workloads under the default
/// evaluation setup, in figure order.
pub fn dataset_contexts(gnn: GnnSpec) -> Vec<(Dataset, SystemContext)> {
    let setup = crate::config::EvalSetup::default();
    Dataset::ALL
        .into_iter()
        .map(|d| {
            let spec = d.spec();
            let w = setup.workload(spec.nodes, spec.edges);
            (d, SystemContext::new(w, gnn))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_for(dataset: Dataset) -> SystemContext {
        let spec = dataset.spec();
        let setup = crate::config::EvalSetup::default();
        SystemContext::new(
            setup.workload(spec.nodes, spec.edges),
            GnnSpec::table_iii_default(),
        )
    }

    #[test]
    fn dynpre_beats_gpu_on_every_non_oom_dataset() {
        for d in Dataset::ALL {
            let ctx = ctx_for(d);
            let gpu = evaluate(&ctx, SystemKind::Gpu);
            let dyn_pre = evaluate(&ctx, SystemKind::DynPre);
            assert!(!dyn_pre.oom);
            if !gpu.oom {
                assert!(
                    dyn_pre.total_secs() < gpu.total_secs(),
                    "{d}: DynPre {} vs GPU {}",
                    dyn_pre.total_secs(),
                    gpu.total_secs()
                );
            }
        }
    }

    #[test]
    fn system_ordering_matches_fig18_on_average() {
        // Geometric-mean speedups over CPU across non-OOM datasets must
        // reproduce the Fig. 18 ordering:
        // GPU < FPGA(GSamp ~ FPGA) < AutoPre < StatPre < DynPre.
        let mut logsum = [0.0f64; 7];
        let mut count = 0usize;
        for d in Dataset::ALL {
            let ctx = ctx_for(d);
            let cpu = evaluate(&ctx, SystemKind::Cpu).total_secs();
            let all: Vec<f64> = SystemKind::ALL
                .iter()
                .map(|&k| evaluate(&ctx, k).total_secs())
                .collect();
            if all.iter().any(|t| !t.is_finite()) {
                continue; // skip the TB/GPU OOM row for the average
            }
            for (i, t) in all.iter().enumerate() {
                logsum[i] += (cpu / t).ln();
            }
            count += 1;
        }
        let speedup: Vec<f64> = logsum.iter().map(|s| (s / count as f64).exp()).collect();
        // Indices follow SystemKind::ALL.
        assert!(speedup[1] > 1.5, "GPU speedup {}", speedup[1]);
        assert!(speedup[2] > speedup[1], "GSamp beats GPU");
        assert!(speedup[4] > speedup[3], "AutoPre beats FPGA sampler");
        assert!(speedup[5] > speedup[4], "StatPre beats AutoPre");
        assert!(speedup[6] >= speedup[5], "DynPre beats StatPre");
        assert!(
            speedup[6] / speedup[1] > 1.5,
            "DynPre vs GPU ~2x, got {}",
            speedup[6] / speedup[1]
        );
    }

    #[test]
    fn gpu_ooms_only_on_taobao() {
        for d in Dataset::ALL {
            let ctx = ctx_for(d);
            let gpu = evaluate(&ctx, SystemKind::Gpu);
            assert_eq!(gpu.oom, d == Dataset::Taobao, "{d}");
        }
    }

    #[test]
    fn autognn_transfers_are_an_order_smaller_than_gpu() {
        let ctx = ctx_for(Dataset::Amazon);
        let gpu = transfer_bytes(&ctx, SystemKind::Gpu);
        let auto = transfer_bytes(&ctx, SystemKind::AutoPre);
        let fpga = transfer_bytes(&ctx, SystemKind::FpgaSampler);
        assert!(
            gpu as f64 / auto as f64 > 8.0,
            "Fig. 20: ~13.6x less than GPU, got {}",
            gpu as f64 / auto as f64
        );
        assert!(fpga > gpu, "the external sampler moves the most data");
    }

    #[test]
    fn statpre_utilizes_luts_better_than_autopre() {
        let ctx = ctx_for(Dataset::Movie);
        let auto = lut_utilization(&ctx, SystemKind::AutoPre);
        let stat = lut_utilization(&ctx, SystemKind::StatPre);
        assert!(
            stat / auto > 1.4,
            "Fig. 21: ~1.7x utilization gain, got {}",
            stat / auto
        );
        assert!(stat <= 1.0 && auto > 0.0);
    }

    #[test]
    fn dynpre_gains_most_on_graphs_unlike_mv() {
        // "The gains of DynPre are most pronounced for large or low-degree
        // graphs, which differ substantially from MV" (§VI-A).
        let gain = |d: Dataset| {
            let ctx = ctx_for(d);
            let stat = evaluate(&ctx, SystemKind::StatPre).preprocess.total();
            let dynp = evaluate(&ctx, SystemKind::DynPre).preprocess.total();
            stat / dynp
        };
        let mv_gain = gain(Dataset::Movie);
        let ax_gain = gain(Dataset::Arxiv);
        assert!(
            mv_gain <= ax_gain + 1e-9,
            "MV is already tuned: {mv_gain} vs {ax_gain}"
        );
        assert!((1.0..1.05).contains(&mv_gain), "MV gain ≈ 1, got {mv_gain}");
    }

    #[test]
    fn preprocessing_dominates_end_to_end_on_gpu() {
        // Fig. 5: ~70% average share, growing with graph size.
        let small = evaluate(&ctx_for(Dataset::Physics), SystemKind::Gpu);
        let large = evaluate(&ctx_for(Dataset::Amazon), SystemKind::Gpu);
        assert!(small.preprocess_share_pct() > 30.0);
        assert!(large.preprocess_share_pct() > 85.0);
        assert!(large.preprocess_share_pct() > small.preprocess_share_pct());
    }

    #[test]
    fn bandwidth_utilization_reported_only_for_autognn() {
        let ctx = ctx_for(Dataset::Taobao);
        assert!(evaluate(&ctx, SystemKind::Gpu)
            .bandwidth_utilization
            .is_none());
        let util = evaluate(&ctx, SystemKind::DynPre)
            .bandwidth_utilization
            .expect("AutoGNN reports utilization");
        assert!(util > 0.5, "e-commerce graphs are memory-bound: {util}");
    }

    #[test]
    fn mv_tuned_config_is_deterministic_and_fits() {
        let plan = Floorplan::vpk180();
        let a = mv_tuned_config(&plan);
        assert_eq!(a, mv_tuned_config(&plan));
        assert!(a.fits(&plan));
    }
}
