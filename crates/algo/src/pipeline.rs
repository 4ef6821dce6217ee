//! The complete software GNN preprocessing pipeline.
//!
//! This is the functional specification the hardware simulator is verified
//! against: graph conversion (edge ordering → data reshaping), graph
//! sampling (uni-random selection → subgraph reindexing), and the final
//! conversion of the sampled COO into CSC (§II-B, Fig. 14).

use std::collections::{HashMap, HashSet};

use agnn_graph::{Coo, Csc, Edge, Vid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ordering::order_edges_radix;

/// How neighbors are drawn across a layer (§II-B, Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Each frontier node independently samples `k` of its own neighbors —
    /// "preferred for its higher accuracy".
    #[default]
    NodeWise,
    /// All neighbor arrays of a layer are aggregated and `k` nodes are drawn
    /// from the aggregate — "faster, completing the process in fewer steps".
    LayerWise,
}

/// Sampling hyperparameters (Table III: `k = 10`, 2-layer GraphSAGE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleParams {
    /// Neighbors sampled per node (node-wise) or per layer (layer-wise).
    pub k: usize,
    /// Number of GNN layers (hops).
    pub layers: u32,
    /// Node-wise or layer-wise selection.
    pub strategy: SelectionStrategy,
}

impl SampleParams {
    /// Node-wise parameters with fan-out `k` over `layers` hops.
    pub fn new(k: usize, layers: u32) -> Self {
        SampleParams {
            k,
            layers,
            strategy: SelectionStrategy::NodeWise,
        }
    }

    /// Layer-wise parameters with `k` draws per layer.
    pub fn layer_wise(k: usize, layers: u32) -> Self {
        SampleParams {
            k,
            layers,
            strategy: SelectionStrategy::LayerWise,
        }
    }
}

/// One selection pool as processed by a UPE: its size and the positions
/// drawn from it, in draw order. The hardware simulator replays these
/// through its one-hot extraction network and charges one cycle per draw.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolRecord {
    /// The frontier nodes whose neighbor arrays form the pool: one parent
    /// for node-wise selection, the whole layer frontier for layer-wise.
    pub parents: Vec<Vid>,
    /// Number of candidate elements in the pool.
    pub pool_len: u32,
    /// Drawn positions, in draw order.
    pub positions: Vec<u32>,
}

/// The raw product of graph sampling, still in original VID space.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SampleTrace {
    /// Sampled edges `(src = chosen neighbor, dst = parent)`.
    pub edges: Vec<Edge>,
    /// VIDs in the order they are handed to the reindexer: batch nodes first,
    /// then every selection in draw order (duplicates included — "loops in
    /// the parent-child relationships may lead to repeated vertices").
    pub node_stream: Vec<Vid>,
    /// Total selection draws performed.
    pub selections: usize,
    /// Total neighbor-pool elements examined (drives bandwidth models).
    pub pool_elements: usize,
    /// Per-pool draw records grouped by layer, in processing order.
    pub layers: Vec<Vec<PoolRecord>>,
}

/// A reindexed, CSC-converted sampled subgraph — what AutoGNN ships to the
/// GPU (§V-A).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SampledSubgraph {
    /// The subgraph in CSC form over renumbered VIDs.
    pub csc: Csc,
    /// `new_to_old[new.index()] == old`: the embedding-gather list (Fig. 4b).
    pub new_to_old: Vec<Vid>,
    /// Renumbered ids of the batch nodes, in batch order.
    pub batch_new: Vec<Vid>,
}

impl SampledSubgraph {
    /// Bytes transferred to the GPU: subgraph CSC plus the gather list.
    pub fn byte_size(&self) -> u64 {
        self.csc.byte_size() + self.new_to_old.len() as u64 * 4
    }
}

/// Workload counters used by every timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreprocessStats {
    /// Edges sorted during full-graph edge ordering.
    pub edges_ordered: usize,
    /// Pointer-array entries built during full-graph data reshaping.
    pub pointer_entries: usize,
    /// Selection draws during uni-random selection.
    pub selections: usize,
    /// Neighbor-pool elements examined during selection.
    pub pool_elements: usize,
    /// VIDs pushed through subgraph reindexing.
    pub reindex_inputs: usize,
    /// Edges of the sampled subgraph (sorted again for its CSC).
    pub subgraph_edges: usize,
    /// Unique nodes of the sampled subgraph.
    pub subgraph_nodes: usize,
}

/// Full preprocessing result: the subgraph plus its workload counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PreprocessOutput {
    /// The converted, sampled, reindexed subgraph.
    pub subgraph: SampledSubgraph,
    /// Workload counters for the timing models.
    pub stats: PreprocessStats,
}

/// Graph conversion: edge ordering (radix) followed by data reshaping.
///
/// # Examples
///
/// ```
/// use agnn_algo::pipeline::convert;
/// use agnn_graph::{Coo, Csc};
///
/// let coo = Coo::from_pairs(3, [(2, 0), (0, 1), (1, 0)])?;
/// assert_eq!(convert(&coo), Csc::from_coo(&coo));
/// # Ok::<(), agnn_graph::GraphError>(())
/// ```
pub fn convert(coo: &Coo) -> Csc {
    let ordered = order_edges_radix(coo.edges());
    Csc::from_sorted_edges(coo.num_vertices(), &ordered)
        .expect("radix ordering produces sorted, in-range edges")
}

/// Read access to the neighbor lists the sampler draws from: each
/// destination's in-neighbors (sources), in ascending VID order, as a CSC
/// holds them.
///
/// [`sample_from`] calls [`NeighborLists::prepare`] with each hop's
/// frontier before it reads that frontier's lists, so an implementation may
/// build lists on demand instead of converting the whole graph.
pub trait NeighborLists {
    /// Makes the lists of every vertex in `frontier` readable.
    fn prepare(&mut self, frontier: &[Vid]);

    /// The sources of `v`'s in-edges, ascending. Called only for vertices
    /// of a prepared frontier.
    fn neighbors(&self, v: Vid) -> &[Vid];
}

/// A converted graph holds every list already.
impl NeighborLists for &Csc {
    fn prepare(&mut self, _frontier: &[Vid]) {}

    fn neighbors(&self, v: Vid) -> &[Vid] {
        Csc::neighbors(self, v)
    }
}

/// Graph sampling over a converted graph: `params.layers` hops of uni-random
/// selection starting from `batch`; [`sample_from`] over `csc`'s lists.
///
/// Deterministic in the RNG; the hardware engine consumes the RNG in exactly
/// the same order, so software and hardware traces are bit-identical.
pub fn sample(csc: &Csc, batch: &[Vid], params: &SampleParams, rng: &mut impl Rng) -> SampleTrace {
    sample_from(&mut { csc }, batch, params, rng)
}

/// Graph sampling over any [`NeighborLists`]: `params.layers` hops of
/// uni-random selection starting from `batch`, preparing each hop's
/// frontier before reading its lists. The trace depends only on the lists'
/// contents and the RNG.
pub fn sample_from(
    lists: &mut impl NeighborLists,
    batch: &[Vid],
    params: &SampleParams,
    rng: &mut impl Rng,
) -> SampleTrace {
    let mut trace = SampleTrace {
        node_stream: batch.to_vec(),
        ..SampleTrace::default()
    };
    let mut frontier = dedup_preserving_order(batch);
    for _ in 0..params.layers {
        if frontier.is_empty() {
            break;
        }
        lists.prepare(&frontier);
        let mut layer_records = Vec::new();
        let selected = match params.strategy {
            SelectionStrategy::NodeWise => {
                let mut layer_selected = Vec::new();
                for &parent in &frontier {
                    let pool = lists.neighbors(parent);
                    trace.pool_elements += pool.len();
                    let positions = crate::select::uni_random_positions(pool.len(), params.k, rng);
                    trace.selections += positions.len();
                    for &position in &positions {
                        let src = pool[position];
                        trace.edges.push(Edge::new(src, parent));
                        trace.node_stream.push(src);
                        layer_selected.push(src);
                    }
                    layer_records.push(PoolRecord {
                        parents: vec![parent],
                        pool_len: pool.len() as u32,
                        positions: positions.iter().map(|&p| p as u32).collect(),
                    });
                }
                layer_selected
            }
            SelectionStrategy::LayerWise => {
                // Aggregate every neighbor array of the layer (§V-A).
                let mut pool: Vec<(Vid, Vid)> = Vec::new();
                for &parent in &frontier {
                    for &src in lists.neighbors(parent) {
                        pool.push((src, parent));
                    }
                }
                trace.pool_elements += pool.len();
                let positions = crate::select::uni_random_positions(pool.len(), params.k, rng);
                trace.selections += positions.len();
                let mut layer_selected = Vec::new();
                for &position in &positions {
                    let (src, parent) = pool[position];
                    trace.edges.push(Edge::new(src, parent));
                    trace.node_stream.push(src);
                    layer_selected.push(src);
                }
                layer_records.push(PoolRecord {
                    parents: frontier.clone(),
                    pool_len: pool.len() as u32,
                    positions: positions.iter().map(|&p| p as u32).collect(),
                });
                layer_selected
            }
        };
        trace.layers.push(layer_records);
        frontier = dedup_preserving_order(&selected);
    }
    trace
}

/// Subgraph reindexing + final conversion: renumber the trace into a dense
/// VID space and convert the sampled COO to CSC (§II-B: "subgraph reindexing
/// outputs are initially collected in COO format, then undergo edge ordering
/// and data reshaping").
pub fn build_subgraph(batch: &[Vid], trace: &SampleTrace) -> SampledSubgraph {
    let reindexed = crate::reindex::reindex_hashmap(&trace.node_stream);
    let old_to_new: HashMap<Vid, Vid> = reindexed
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
    let ordered = order_edges_radix(&sub_edges);
    let csc = Csc::from_sorted_edges(reindexed.num_unique(), &ordered)
        .expect("reindexed edges are dense and sorted");
    let batch_new = batch.iter().map(|b| old_to_new[b]).collect();
    SampledSubgraph {
        csc,
        new_to_old: reindexed.new_to_old,
        batch_new,
    }
}

/// End-to-end software preprocessing: conversion → sampling → reindexing →
/// subgraph conversion, deterministic in `seed`.
///
/// # Panics
///
/// Panics if a batch node is out of range for `coo`.
pub fn preprocess(coo: &Coo, batch: &[Vid], params: &SampleParams, seed: u64) -> PreprocessOutput {
    for b in batch {
        assert!(
            b.index() < coo.num_vertices(),
            "batch node {b} out of range"
        );
    }
    let csc = convert(coo);
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = sample(&csc, batch, params, &mut rng);
    let subgraph = build_subgraph(batch, &trace);
    let stats = PreprocessStats {
        edges_ordered: coo.num_edges(),
        pointer_entries: coo.num_vertices() + 1,
        selections: trace.selections,
        pool_elements: trace.pool_elements,
        reindex_inputs: trace.node_stream.len(),
        subgraph_edges: subgraph.csc.num_edges(),
        subgraph_nodes: subgraph.csc.num_vertices(),
    };
    PreprocessOutput { subgraph, stats }
}

fn dedup_preserving_order(vids: &[Vid]) -> Vec<Vid> {
    let mut seen = HashSet::with_capacity(vids.len());
    vids.iter().copied().filter(|v| seen.insert(*v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::generate;

    fn setup() -> (Coo, Vec<Vid>) {
        let coo = generate::power_law(300, 4_000, 0.9, 17);
        (coo, vec![Vid(0), Vid(5), Vid(9)])
    }

    #[test]
    fn convert_matches_counting_sort_reference() {
        let (coo, _) = setup();
        assert_eq!(convert(&coo), Csc::from_coo(&coo));
    }

    #[test]
    fn sample_respects_k_bound_per_parent() {
        let (coo, batch) = setup();
        let csc = convert(&coo);
        let params = SampleParams::new(4, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let trace = sample(&csc, &batch, &params, &mut rng);
        for &parent in &batch {
            let from_parent = trace.edges.iter().filter(|e| e.dst == parent).count();
            assert!(from_parent <= 4);
        }
    }

    #[test]
    fn sampled_edges_exist_in_graph() {
        let (coo, batch) = setup();
        let csc = convert(&coo);
        let params = SampleParams::new(5, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let trace = sample(&csc, &batch, &params, &mut rng);
        for e in &trace.edges {
            assert!(
                csc.neighbors(e.dst).contains(&e.src),
                "sampled edge {e} not in graph"
            );
        }
    }

    #[test]
    fn subgraph_batch_nodes_get_lowest_ids() {
        let (coo, batch) = setup();
        let out = preprocess(&coo, &batch, &SampleParams::new(3, 2), 5);
        // Batch nodes head the reindex stream, so their new ids are 0..batch.
        let expect: Vec<Vid> = (0..batch.len()).map(Vid::from_index).collect();
        assert_eq!(out.subgraph.batch_new, expect);
    }

    #[test]
    fn subgraph_gather_list_is_consistent() {
        let (coo, batch) = setup();
        let out = preprocess(&coo, &batch, &SampleParams::new(3, 2), 6);
        let sub = &out.subgraph;
        assert_eq!(sub.csc.num_vertices(), sub.new_to_old.len());
        // Every subgraph edge maps back to an original edge endpoint pair.
        let orig = convert(&coo);
        for d in 0..sub.csc.num_vertices() {
            for &s in sub.csc.neighbors(Vid::from_index(d)) {
                let old_s = sub.new_to_old[s.index()];
                let old_d = sub.new_to_old[d];
                assert!(orig.neighbors(old_d).contains(&old_s));
            }
        }
    }

    #[test]
    fn preprocess_is_deterministic() {
        let (coo, batch) = setup();
        let p = SampleParams::new(5, 2);
        assert_eq!(
            preprocess(&coo, &batch, &p, 9),
            preprocess(&coo, &batch, &p, 9)
        );
    }

    #[test]
    fn layer_wise_draws_k_per_layer() {
        let (coo, batch) = setup();
        let csc = convert(&coo);
        let params = SampleParams::layer_wise(6, 2);
        let mut rng = StdRng::seed_from_u64(8);
        let trace = sample(&csc, &batch, &params, &mut rng);
        assert!(trace.selections <= 12, "at most k per layer");
    }

    #[test]
    fn zero_layers_yields_batch_only_subgraph() {
        let (coo, batch) = setup();
        let out = preprocess(&coo, &batch, &SampleParams::new(5, 0), 1);
        assert_eq!(out.subgraph.csc.num_edges(), 0);
        assert_eq!(out.subgraph.csc.num_vertices(), batch.len());
        assert_eq!(out.stats.selections, 0);
    }

    #[test]
    fn isolated_batch_node_is_kept() {
        let coo = Coo::from_pairs(4, [(0, 1), (1, 2)]).unwrap();
        let out = preprocess(&coo, &[Vid(3)], &SampleParams::new(5, 2), 1);
        assert_eq!(out.subgraph.csc.num_vertices(), 1);
        assert_eq!(out.subgraph.csc.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_batch_node_panics() {
        let (coo, _) = setup();
        preprocess(&coo, &[Vid(99_999)], &SampleParams::new(2, 1), 0);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (coo, batch) = setup();
        let out = preprocess(&coo, &batch, &SampleParams::new(5, 2), 10);
        let s = out.stats;
        assert_eq!(s.edges_ordered, coo.num_edges());
        assert_eq!(s.pointer_entries, coo.num_vertices() + 1);
        assert_eq!(s.reindex_inputs, batch.len() + s.selections);
        assert_eq!(s.subgraph_nodes, out.subgraph.new_to_old.len());
        assert!(s.subgraph_edges <= s.selections);
    }

    #[test]
    fn node_stream_duplicates_collapse_in_subgraph() {
        // A graph with a 2-cycle guarantees revisits across hops.
        let coo = Coo::from_pairs(2, [(0, 1), (1, 0)]).unwrap();
        let out = preprocess(&coo, &[Vid(0)], &SampleParams::new(1, 4), 2);
        assert_eq!(out.subgraph.csc.num_vertices(), 2);
        assert!(out.stats.reindex_inputs > 2, "revisits feed the reindexer");
    }
}
