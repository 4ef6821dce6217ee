//! Cycle-level functional simulator of the AutoGNN accelerator.
//!
//! Every block §IV describes is simulated at the level the paper describes
//! it, and its outputs are verified against the `agnn-algo` golden models:
//!
//! - [`upe`] — the Unified Processing Element: a hierarchical-adder
//!   prefix-sum network (Fig. 12b), an AND-mask filter, and a power-of-two
//!   relocation router (Fig. 12c), composed into set-partitioning, chunk
//!   radix sort and one-hot extraction;
//! - [`scr`] — the Single-Cycle Reducer: a comparator array feeding an adder
//!   tree (reshaper flavour) or an OR filter tree carrying `value + hit`
//!   (reindexer flavour) (Fig. 13b);
//! - [`kernel`] — the UPE kernel (controller + scoreboard scheduler,
//!   Fig. 12a) and SCR kernel (reshaper + reindexer with SRAM bank,
//!   Fig. 13a/c): golden functional output plus pure cycle accounting,
//!   exactly as the paper charges it;
//! - [`oracle`] — the same stages replayed on the [`upe`] and [`scr`]
//!   networks, deriving outputs, cycles and passes from what they
//!   evaluate; tests hold the kernels and the engine to it, and nothing on
//!   the simulation path calls it;
//! - [`shell`] — the fixed HW-shell: PCIe DMA-main/DMA-bypass transfer
//!   models and the FPP/ICAP partial-reconfiguration timing model (§IV-B,
//!   §V-B);
//! - [`floorplan`] — LUT accounting for UPE/SCR instances and the 70:30
//!   region split (Fig. 17, §V-B);
//! - [`engine`] — the end-to-end preprocessing workflow of Fig. 14
//!   (ordering → reshaping → selection → reindexing → subgraph conversion),
//!   bit-identical to `agnn_algo::pipeline::preprocess` under the same seed.
//!
//! # Examples
//!
//! ```
//! use agnn_algo::pipeline::SampleParams;
//! use agnn_graph::{generate, Vid};
//! use agnn_hw::{engine::AutoGnnEngine, HwConfig};
//!
//! let coo = generate::power_law(200, 2_000, 0.8, 1);
//! let mut engine = AutoGnnEngine::new(HwConfig::vpk180_default());
//! let run = engine.preprocess(&coo, &[Vid(0)], &SampleParams::new(5, 2), 42);
//! assert!(run.report.total_cycles() > 0);
//! ```

pub mod engine;
pub mod floorplan;
pub mod kernel;
pub mod metrics;
pub mod oracle;
pub mod scr;
pub mod shell;
pub mod upe;

mod config;

pub use config::{HwConfig, ScrConfig, UpeConfig};
pub use metrics::{HwReport, StageCycles};
