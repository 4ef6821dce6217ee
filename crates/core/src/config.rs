//! Evaluation setup constants (Table III).

use agnn_algo::pipeline::SampleParams;
use agnn_gnn::models::GnnSpec;

/// The Table III software configuration: DGL 2.3.0 semantics, 2-layer
/// GraphSAGE, `k = 10`, 3000 inference nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSetup {
    /// Neighbors sampled per node.
    pub k: usize,
    /// GNN layers.
    pub layers: u32,
    /// Inference (batch) nodes per pass.
    pub batch: usize,
    /// The GNN model under test.
    pub gnn: GnnSpec,
}

impl Default for EvalSetup {
    fn default() -> Self {
        EvalSetup {
            k: 10,
            layers: 2,
            batch: 3_000,
            gnn: GnnSpec::table_iii_default(),
        }
    }
}

impl EvalSetup {
    /// The sampling parameters this setup induces.
    pub fn sample_params(&self) -> SampleParams {
        SampleParams::new(self.k, self.layers)
    }

    /// Workload description for a graph of `nodes`/`edges`.
    pub fn workload(&self, nodes: u64, edges: u64) -> agnn_cost::Workload {
        agnn_cost::Workload::new(nodes, edges, self.batch as u64, self.k as u64, self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_gnn::models::GnnModel;

    #[test]
    fn defaults_match_table_iii() {
        let setup = EvalSetup::default();
        assert_eq!(setup.k, 10);
        assert_eq!(setup.layers, 2);
        assert_eq!(setup.batch, 3_000);
        assert_eq!(setup.gnn.model, GnnModel::GraphSage);
        assert_eq!(setup.gnn.layers, 2);
    }

    #[test]
    fn workload_carries_the_setup() {
        let w = EvalSetup::default().workload(1_000, 10_000);
        assert_eq!(w.batch, 3_000);
        assert_eq!(w.k, 10);
        assert_eq!(w.layers, 2);
    }
}
