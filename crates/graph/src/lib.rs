//! Graph substrate for the AutoGNN reproduction.
//!
//! This crate provides everything the accelerator and its baselines consume:
//!
//! - [`Vid`]/[`Edge`] — vertex identifiers and edges as the paper defines them
//!   (32-bit integer VIDs drawn from a small contiguous range, §IV-A);
//! - [`Coo`] — the coordinate ("edge array") format used for raw and
//!   frequently-updated graphs (§II-A, Fig. 1);
//! - [`Csc`] — compressed sparse column with pointer + index arrays, the
//!   traversal-friendly target of graph conversion (§II-A, Fig. 1);
//! - [`generate`] — seeded synthetic generators (uniform and Chung–Lu
//!   power-law) standing in for the proprietary/open datasets of Table II;
//! - [`datasets`] — the eleven-workload catalog of Table II with full-scale
//!   parameters and deterministic scaled instantiation;
//! - [`dynamic`] — dynamic-graph update streams and the influence analysis
//!   behind Figs. 7, 29 and 30.
//!
//! # Examples
//!
//! ```
//! use agnn_graph::{datasets::Dataset, Csc};
//!
//! let coo = Dataset::Physics.generate_scaled(64, 7);
//! let csc = Csc::from_coo(&coo);
//! assert_eq!(csc.num_edges(), coo.num_edges());
//! ```

mod coo;
mod csc;
mod error;
mod vid;

pub mod datasets;
pub mod dynamic;
pub mod generate;

pub use coo::{map_edges, Coo, DegreeStats};
pub use csc::Csc;
pub use error::GraphError;
pub use vid::{Edge, Vid};
