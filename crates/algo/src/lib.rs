//! Software reference algorithms for the AutoGNN reproduction.
//!
//! Everything the accelerator computes in hardware exists here first as a
//! plain, well-tested software implementation:
//!
//! - [`scan`] — prefix sums, *set-partitioning* (Fig. 8) and *set-counting*
//!   (Fig. 9), the two primitives §IV-A reduces all preprocessing to;
//! - [`sort`] — radix sort and merges (the Table IV `Ordering` baseline);
//! - [`ordering`] — edge ordering: sort edges by (dst, src) (§II-B);
//! - [`reshape`] — data reshaping: CSC pointer-array construction, both the
//!   sequential scan and the set-counting reformulation;
//! - [`select`] — unique random selection: the paper's bitmap/set-partition
//!   sampler plus the hash-set and reservoir-sampling baselines (Table IV);
//! - [`reindex`] — subgraph reindexing: hash-map baseline and the
//!   set-counting two-array scheme (§IV-A);
//! - [`pipeline`] — the complete software preprocessing pipeline
//!   (conversion → sampling → reindexing → subgraph conversion), the golden
//!   model the hardware simulator is verified against.
//!
//! # Examples
//!
//! ```
//! use agnn_algo::pipeline::{preprocess, SampleParams};
//! use agnn_graph::{generate, Vid};
//!
//! let coo = generate::power_law(200, 2_000, 0.8, 1);
//! let params = SampleParams::new(5, 2);
//! let out = preprocess(&coo, &[Vid(0), Vid(1)], &params, 42);
//! assert!(out.subgraph.csc.num_vertices() <= 200);
//! ```

pub mod ordering;
pub mod pipeline;
pub mod reindex;
pub mod reshape;
pub mod scan;
pub mod select;
pub mod sort;
