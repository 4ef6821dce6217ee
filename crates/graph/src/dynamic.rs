//! Dynamic-graph machinery: growth streams and update-influence analysis.
//!
//! Backs the paper's dynamic-graph studies: task-share drift over days
//! (Fig. 7), critical update ratios and per-hour update series (Fig. 29), and
//! the long-horizon Taobao growth scenario (Fig. 30, edges ×112 over 5 000 h).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generate;
use crate::{Coo, Edge, Vid};

/// Exponential edge-growth model: `edges(t) = e0 · (1 + rate)^t`.
///
/// §III-A measures SO growing 0.52 %/day and TB 0.95 %/day; `rate` is that
/// per-step fraction (e.g. `0.0052`).
///
/// # Examples
///
/// ```
/// use agnn_graph::dynamic::GrowthModel;
///
/// let m = GrowthModel::new(1_000_000, 0.0095);
/// assert_eq!(m.edges_at(0), 1_000_000);
/// assert!(m.edges_at(500) > 100_000_000, "TB grows 112x over ~500 days");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthModel {
    initial_edges: u64,
    rate: f64,
}

impl GrowthModel {
    /// Creates a growth model from an initial edge count and per-step rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn new(initial_edges: u64, rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be non-negative");
        GrowthModel {
            initial_edges,
            rate,
        }
    }

    /// Edge count after `t` steps.
    pub fn edges_at(&self, t: u32) -> u64 {
        (self.initial_edges as f64 * (1.0 + self.rate).powi(t as i32)).round() as u64
    }

    /// Edges added during step `t` (between `t` and `t + 1`).
    pub fn edges_added_at(&self, t: u32) -> u64 {
        self.edges_at(t + 1).saturating_sub(self.edges_at(t))
    }
}

/// A stream of edge-update batches applied to a live graph.
///
/// Produces one batch per step; each batch is deterministic in the seed and
/// biased toward existing hubs (preferential attachment), matching §VI-B's
/// observation that "interactions in a social graph or item purchases in an
/// e-commerce graph are often added over time".
#[derive(Debug)]
pub struct UpdateStream {
    graph: Coo,
    growth: GrowthModel,
    preferential: f64,
    step: u32,
    seed: u64,
}

impl UpdateStream {
    /// Creates a stream over `graph` with the given growth model.
    ///
    /// # Panics
    ///
    /// Panics if `preferential` is not a probability.
    pub fn new(graph: Coo, growth: GrowthModel, preferential: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&preferential));
        UpdateStream {
            graph,
            growth,
            preferential,
            step: 0,
            seed,
        }
    }

    /// The current graph state.
    pub fn graph(&self) -> &Coo {
        &self.graph
    }

    /// The current step index.
    pub fn step(&self) -> u32 {
        self.step
    }

    /// Advances one step, applying the batch to the live graph and returning
    /// the edges that were added.
    pub fn advance(&mut self) -> Vec<Edge> {
        let count = self.growth.edges_added_at(self.step) as usize;
        let batch = generate::incremental_edges(
            &self.graph,
            count,
            self.preferential,
            self.seed ^ u64::from(self.step).wrapping_mul(0x517c_c1b7_2722_0a95),
        );
        self.graph
            .extend_edges(batch.iter().copied())
            .expect("incremental edges are in range");
        self.step += 1;
        batch
    }
}

/// Fraction of vertices whose `layers`-hop GNN neighbourhood is perturbed
/// when `updated` vertices change (Fig. 29a, "critical update ratio").
///
/// A GNN output at vertex `v` depends on every vertex within `layers` hops
/// *upstream* of `v`; an update at `u` therefore influences all vertices
/// reachable from `u` in `layers` forward (src→dst) hops.
///
/// # Examples
///
/// ```
/// use agnn_graph::{Coo, Vid};
/// use agnn_graph::dynamic::influence_ratio;
///
/// // chain 0 -> 1 -> 2 -> 3
/// let g = Coo::from_pairs(4, [(0, 1), (1, 2), (2, 3)])?;
/// assert_eq!(influence_ratio(&g, &[Vid(0)], 1), 0.5);   // {0, 1}
/// assert_eq!(influence_ratio(&g, &[Vid(0)], 3), 1.0);   // whole chain
/// # Ok::<(), agnn_graph::GraphError>(())
/// ```
pub fn influence_ratio(graph: &Coo, updated: &[Vid], layers: u32) -> f64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0.0;
    }
    // Forward adjacency src -> dst.
    let mut offsets = vec![0u32; n + 1];
    for e in graph.edges() {
        offsets[e.src.index() + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut targets = vec![0u32; graph.num_edges()];
    for e in graph.edges() {
        targets[cursor[e.src.index()] as usize] = e.dst.0;
        cursor[e.src.index()] += 1;
    }

    let mut influenced = vec![false; n];
    let mut frontier: Vec<u32> = Vec::new();
    for &v in updated {
        if v.index() < n && !influenced[v.index()] {
            influenced[v.index()] = true;
            frontier.push(v.0);
        }
    }
    for _ in 0..layers {
        let mut next = Vec::new();
        for &v in &frontier {
            let (lo, hi) = (
                offsets[v as usize] as usize,
                offsets[v as usize + 1] as usize,
            );
            for &t in &targets[lo..hi] {
                if !influenced[t as usize] {
                    influenced[t as usize] = true;
                    next.push(t);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    influenced.iter().filter(|&&b| b).count() as f64 / n as f64
}

/// Smallest update ratio (fraction of vertices updated) whose influence at
/// `layers` hops reaches `target_influence` — the quantity Fig. 29a plots.
///
/// Performs a doubling search over update-set sizes with a deterministic
/// vertex choice per trial.
pub fn critical_update_ratio(graph: &Coo, layers: u32, target_influence: f64, seed: u64) -> f64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut size = 1usize;
    loop {
        let updated: Vec<Vid> = (0..size).map(|_| Vid(rng.gen_range(0..n as u32))).collect();
        if influence_ratio(graph, &updated, layers) >= target_influence || size >= n {
            return size as f64 / n as f64;
        }
        size *= 2;
    }
}

/// Per-hour update-ratio series (Fig. 29b): a noisy sample path around the
/// dataset's mean hourly rate, deterministic in the seed.
pub fn hourly_update_series(mean_pct_per_step: f64, steps: u32, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..steps)
        .map(|_| {
            let noise: f64 = rng.gen_range(0.5..1.5);
            mean_pct_per_step * noise
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::power_law;

    #[test]
    fn growth_model_matches_paper_taobao_horizon() {
        // Fig. 30: TB edge count grows 112x; at 0.95%/day that is ~499 days.
        let m = GrowthModel::new(400_000_000, 0.0095);
        let factor = m.edges_at(499) as f64 / m.edges_at(0) as f64;
        assert!((110.0..114.0).contains(&factor), "got {factor}");
    }

    #[test]
    fn growth_zero_rate_is_flat() {
        let m = GrowthModel::new(100, 0.0);
        assert_eq!(m.edges_at(10), 100);
        assert_eq!(m.edges_added_at(3), 0);
    }

    #[test]
    fn update_stream_applies_batches() {
        let base = power_law(256, 5_000, 0.8, 1);
        let mut stream = UpdateStream::new(base, GrowthModel::new(5_000, 0.01), 0.7, 9);
        let before = stream.graph().num_edges();
        let batch = stream.advance();
        assert_eq!(stream.graph().num_edges(), before + batch.len());
        assert_eq!(batch.len(), 50);
        assert!((batch.len() as f64 / before as f64 - 0.01).abs() < 1e-6);
    }

    #[test]
    fn update_stream_is_deterministic() {
        let mk = || {
            let base = power_law(128, 2_000, 0.8, 2);
            let mut s = UpdateStream::new(base, GrowthModel::new(2_000, 0.02), 0.5, 3);
            (s.advance(), s.advance())
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn influence_grows_with_layers() {
        let g = power_law(512, 4_096, 0.7, 5);
        let updated = [Vid(0), Vid(1), Vid(2)];
        let r1 = influence_ratio(&g, &updated, 1);
        let r3 = influence_ratio(&g, &updated, 3);
        assert!(r3 >= r1);
        assert!(r1 > 0.0);
    }

    #[test]
    fn influence_zero_layers_counts_only_updates() {
        let g = power_law(100, 500, 0.5, 6);
        assert!((influence_ratio(&g, &[Vid(3)], 0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn influence_deduplicates_update_set() {
        let g = power_law(100, 500, 0.5, 6);
        let a = influence_ratio(&g, &[Vid(3), Vid(3), Vid(3)], 2);
        let b = influence_ratio(&g, &[Vid(3)], 2);
        assert_eq!(a, b);
    }

    #[test]
    fn critical_ratio_shrinks_for_connected_graphs_with_more_layers() {
        // High-connectivity graphs: a few updates reach most of the graph as
        // layers grow (the JR/AM pattern in Fig. 29a).
        let g = power_law(256, 8_192, 0.4, 7);
        let shallow = critical_update_ratio(&g, 1, 0.5, 11);
        let deep = critical_update_ratio(&g, 4, 0.5, 11);
        assert!(deep <= shallow);
    }

    #[test]
    fn hourly_series_has_requested_mean_scale() {
        let series = hourly_update_series(0.37, 1_000, 13);
        assert_eq!(series.len(), 1_000);
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        assert!((mean - 0.37).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn empty_graph_influence_is_zero() {
        let g = Coo::from_pairs(0, []).unwrap();
        assert_eq!(influence_ratio(&g, &[], 3), 0.0);
        assert_eq!(critical_update_ratio(&g, 2, 0.5, 0), 0.0);
    }
}
