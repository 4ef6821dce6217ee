//! The Table I analytic cost functions.

use agnn_hw::{HwConfig, ScrConfig, UpeConfig};

/// Workload parameters the host collects at runtime: "light-weight graph
/// metadata (e.g., the number of nodes n and edges e) and GNN
/// hyperparameters (e.g., the number of layers l, the max sample count k,
/// and the batch size b)" (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    /// Number of graph nodes `n`.
    pub nodes: u64,
    /// Number of graph edges `e`.
    pub edges: u64,
    /// Batch size `b` (inference nodes per pass).
    pub batch: u64,
    /// Neighbors sampled per node `k`.
    pub k: u64,
    /// GNN layers `l`.
    pub layers: u32,
}

impl Workload {
    /// Creates a workload description.
    pub fn new(nodes: u64, edges: u64, batch: u64, k: u64, layers: u32) -> Self {
        Workload {
            nodes,
            edges,
            batch,
            k,
            layers,
        }
    }

    /// Average degree `e / n`.
    pub fn degree(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.edges as f64 / self.nodes as f64
        }
    }

    /// The neighborhood-expansion model: per hop, only the *newly
    /// discovered* vertices expand (each draws `k` neighbors), and the
    /// number of new discoveries among `d` draws into a pool of `r`
    /// uncovered vertices follows the balls-into-bins expectation
    /// `r · (1 − exp(−d/r))`. This is what keeps deep sampling from
    /// exploding combinatorially: once the multi-hop ball saturates the
    /// graph, draws stop growing ("node explosion" capped by coverage).
    ///
    /// Returns `(total_draws, expanded_parents, covered_vertices)`.
    fn expansion(&self) -> (u64, u64, u64) {
        let n = self.nodes.max(1) as f64;
        let mut covered = (self.batch as f64).min(n);
        let mut new = covered;
        let mut draws_total = 0.0f64;
        let mut expanded = 0.0f64;
        for _ in 0..self.layers {
            if new < 0.5 {
                break;
            }
            let draws = new * self.k as f64;
            draws_total += draws;
            expanded += new;
            let remaining = (n - covered).max(0.0);
            let discovered = if remaining <= 0.5 {
                0.0
            } else {
                remaining * (1.0 - (-draws / remaining).exp())
            };
            new = discovered;
            covered += discovered;
        }
        (
            draws_total.round() as u64,
            expanded.round() as u64,
            covered.round() as u64,
        )
    }

    /// Total selected nodes `s ≈ b·(k^(l+1) − 1)/(k − 1)` (Table I; see
    /// `docs/FIDELITY.md` on the geometric-sum reading — the batch nodes
    /// count as the `1` term), saturated by neighborhood coverage on deep
    /// or small graphs (see the `expansion` model above).
    pub fn selections(&self) -> u64 {
        self.batch + self.expansion().0
    }

    /// VIDs pushed through the reindexer: the batch plus every draw, which
    /// is exactly [`Workload::selections`] (the batch is its `1` term).
    pub fn reindex_inputs(&self) -> u64 {
        self.selections()
    }

    /// Parents expanded across all hops (one neighbor pool each).
    pub fn expanded_parents(&self) -> u64 {
        self.expansion().1
    }

    /// Neighbor-pool elements scanned during selection: every expanded
    /// parent contributes one average-degree pool.
    pub fn pool_elements(&self) -> u64 {
        (self.expanded_parents() as f64 * self.degree()) as u64
    }

    /// Edges of the sampled subgraph (≤ selections).
    pub fn subgraph_edges(&self) -> u64 {
        self.selections()
    }

    /// Unique nodes of the sampled subgraph: the covered vertex set of the
    /// expansion (bounded by draws and by `n`).
    pub fn subgraph_nodes(&self) -> u64 {
        self.expansion()
            .2
            .clamp(self.batch.min(self.nodes), self.nodes)
    }

    /// COO bytes of the full graph (two 32-bit VIDs per edge).
    pub fn coo_bytes(&self) -> u64 {
        self.edges * 8
    }

    /// Bytes of the preprocessed subgraph shipped to the GPU (CSC pointers +
    /// indices + gather list). "This subgraph is much smaller than the
    /// original graph (1230× on average)" (§VI-B).
    pub fn subgraph_bytes(&self) -> u64 {
        (self.subgraph_nodes() + 1) * 4 + self.subgraph_edges() * 4 + self.subgraph_nodes() * 4
    }
}

/// Per-stage cycle estimates produced by the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Edge ordering cycles (Table I row 1).
    pub ordering: f64,
    /// Unique random selection cycles (Table I row 2).
    pub selecting: f64,
    /// Data reshaping cycles (Table I row 3).
    pub reshaping: f64,
}

impl CostEstimate {
    /// Total estimated preprocessing cycles.
    pub fn total(&self) -> f64 {
        self.ordering + self.selecting + self.reshaping
    }
}

/// The Table I cost model. Stateless; "evaluating the cost function …
/// took less than 0.1 ms" (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostModel;

impl CostModel {
    /// Edge-ordering estimate:
    /// `m = log2(e / w_upe) − 1`, `cycles = 2·m·e / (n_upe · w_upe)`.
    pub fn ordering_cycles(&self, edges: u64, upe: UpeConfig) -> f64 {
        if edges == 0 {
            return 0.0;
        }
        let e = edges as f64;
        let w = upe.width as f64;
        let merge_rounds = ((e / w).log2() - 1.0).max(0.0);
        2.0 * merge_rounds * e / (upe.count as f64 * w)
    }

    /// Uni-random selection estimate: `cycles = s / n_upe`.
    pub fn selecting_cycles(&self, workload: &Workload, upe: UpeConfig) -> f64 {
        workload.selections() as f64 / upe.count as f64
    }

    /// Data reshaping estimate: `cycles = max(n / n_scr, e / w_scr)`.
    pub fn reshaping_cycles(&self, nodes: u64, edges: u64, scr: ScrConfig) -> f64 {
        let by_targets = nodes as f64 / scr.slots as f64;
        let by_window = edges as f64 / scr.width as f64;
        by_targets.max(by_window)
    }

    /// Full estimate for a workload under a configuration, covering both the
    /// full-graph conversion and the subgraph's second conversion.
    pub fn estimate(&self, workload: &Workload, config: HwConfig) -> CostEstimate {
        let sub_e = workload.subgraph_edges();
        let sub_n = workload.subgraph_nodes();
        CostEstimate {
            ordering: self.ordering_cycles(workload.edges, config.upe)
                + self.ordering_cycles(sub_e, config.upe),
            selecting: self.selecting_cycles(workload, config.upe),
            reshaping: self.reshaping_cycles(workload.nodes, workload.edges, config.scr)
                + self.reshaping_cycles(sub_n, sub_e, config.scr),
        }
    }

    /// Picks the configuration with the lowest estimated total cycles out of
    /// the library's full cross-product (the `DynPre` policy): the
    /// [`SearchSpace::Full`](crate::SearchSpace::Full) loop of
    /// [`crate::optimizer::search`] under the Table I score.
    pub fn choose_config(
        &self,
        workload: &Workload,
        library: &crate::BitstreamLibrary,
    ) -> HwConfig {
        crate::optimizer::full(library, |config| self.estimate(workload, config).total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_iii_workload(nodes: u64, edges: u64) -> Workload {
        Workload::new(nodes, edges, 3_000, 10, 2)
    }

    #[test]
    fn selections_track_the_geometric_sum_on_large_graphs() {
        // On a graph much larger than the sampled ball, coverage effects
        // are negligible and s ≈ b·(1 + k + k²).
        let w = Workload::new(1_000_000_000, 10_000_000_000, 3_000, 10, 2);
        let geometric = 3_000 * 111;
        let s = w.selections();
        let rel = (s as f64 - geometric as f64).abs() / geometric as f64;
        assert!(rel < 0.02, "s = {s} vs geometric {geometric}");
        assert_eq!(w.reindex_inputs(), s);
    }

    #[test]
    fn deep_layers_saturate_at_coverage() {
        // A 4-node graph cannot expand geometrically: draws per layer are
        // bounded by the covered set expanding ~4 parents × k.
        let w = Workload::new(4, 12, 2, 10, 4);
        assert!(w.selections() <= 2 + 4 * 4 * 10);
        assert_eq!(w.subgraph_nodes(), 4, "the whole graph is covered");
        let uncapped = Workload::new(1_000_000_000, 12, 2, 10, 4);
        assert!(uncapped.selections() > w.selections());
    }

    #[test]
    fn layer_sweep_saturates_like_the_paper() {
        // Fig. 25b: 1 -> 6 layers grows sampling work by tens of times, not
        // by the raw geometric 10^5.
        let one = Workload::new(2_450_000, 123_000_000, 3_000, 10, 1).selections();
        let six = Workload::new(2_450_000, 123_000_000, 3_000, 10, 6).selections();
        let factor = six as f64 / one as f64;
        assert!(
            (10.0..2_000.0).contains(&factor),
            "sampling growth factor {factor}"
        );
    }

    #[test]
    fn ordering_cycles_follow_table_i() {
        let model = CostModel;
        let upe = UpeConfig::new(240, 64);
        // e = 2^20, w = 64 -> m = log2(2^14) - 1 = 13.
        let cycles = model.ordering_cycles(1 << 20, upe);
        let expected = 2.0 * 13.0 * (1u64 << 20) as f64 / (240.0 * 64.0);
        assert!((cycles - expected).abs() < 1e-9);
        assert_eq!(model.ordering_cycles(0, upe), 0.0);
    }

    #[test]
    fn reshaping_cycles_take_the_binding_term() {
        let model = CostModel;
        // Node-bound: many vertices, few edges.
        let node_bound = model.reshaping_cycles(1_000_000, 10_000, ScrConfig::new(2, 1024));
        assert_eq!(node_bound, 500_000.0);
        // Edge-bound: few vertices, many edges (the MV/TB shape).
        let edge_bound = model.reshaping_cycles(1_000, 10_000_000, ScrConfig::new(2, 1024));
        assert!((edge_bound - 10_000_000.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_total_sums_stages() {
        let w = table_iii_workload(100_000, 1_000_000);
        let config = agnn_hw::HwConfig::vpk180_default();
        let est = CostModel.estimate(&w, config);
        assert!((est.total() - (est.ordering + est.selecting + est.reshaping)).abs() < 1e-9);
        assert!(est.ordering > 0.0 && est.selecting > 0.0 && est.reshaping > 0.0);
    }

    #[test]
    fn more_upes_cut_ordering_and_selecting() {
        let w = table_iii_workload(100_000, 10_000_000);
        let model = CostModel;
        let few = UpeConfig::new(10, 64);
        let many = UpeConfig::new(100, 64);
        assert!(model.ordering_cycles(w.edges, many) < model.ordering_cycles(w.edges, few));
        assert!(model.selecting_cycles(&w, many) < model.selecting_cycles(&w, few));
    }

    #[test]
    fn degree_and_bytes() {
        let w = table_iii_workload(1_000, 50_000);
        assert!((w.degree() - 50.0).abs() < 1e-12);
        assert_eq!(w.coo_bytes(), 400_000);
        // At evaluation scale the subgraph is orders of magnitude smaller
        // than the input graph ("1230x on average", §VI-B).
        let am = table_iii_workload(2_450_000, 123_000_000);
        assert!(am.subgraph_bytes() * 100 < am.coo_bytes());
    }

    #[test]
    fn k_equal_one_does_not_divide_by_zero() {
        let w = Workload::new(10_000, 100_000, 100, 1, 3);
        // ~100 draws per layer minus slight coverage overlap.
        assert!((390..=400).contains(&w.selections()), "{}", w.selections());
        assert!(w.pool_elements() > 0);
    }
}
