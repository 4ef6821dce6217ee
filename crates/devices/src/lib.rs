//! Device models for the AutoGNN evaluation.
//!
//! The paper's testbed — a 128-core Xeon, an RTX 3090 running DGL, and the
//! VPK180 accelerator — is not available offline, so this crate provides
//! calibrated analytic models of each device (see the substitution notes
//! in `docs/FIDELITY.md`). All models consume the same [`agnn_cost::Workload`] description
//! or a simulated [`agnn_hw::HwReport`]:
//!
//! - [`gpu`] — the DGL/RTX 3090 preprocessing baseline with its measured
//!   serialized fractions, atomics penalties and 24 GB OOM gate (§III,
//!   Figs. 5–7, 10);
//! - [`cpu`] — the DGL CPU preprocessing baseline;
//! - [`fpga`] — converts simulator reports to wall-clock time
//!   (`max(compute, DRAM)` per stage) and provides the full-scale analytic
//!   report used where functional simulation is infeasible;
//! - [`stage`] — the shared per-stage seconds type;
//! - [`power`] — power/energy accounting (Fig. 19);
//! - [`boards`] — the FPGA board catalog for the LUT/price sweeps (Fig. 26);
//! - [`accel`] — external accelerator baselines: GSamp, the FPGA-HBM
//!   sampler, merge/insertion sorters and FLAG (Figs. 18, 27).

pub mod accel;
pub mod boards;
pub mod cpu;
pub mod fpga;
pub mod gpu;
pub mod power;
pub mod stage;

pub use stage::StageSecs;
