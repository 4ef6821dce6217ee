//! Node-embedding tables and the subgraph gather step.
//!
//! The original embedding table is "ordered by VIDs"; after sampling, "a new
//! embedding table [is generated] by extracting the embeddings of the
//! sampled vertices" through the reindexer's mapping (§II-B, Fig. 4b).

use agnn_graph::Vid;

use crate::tensor::Matrix;

/// A full-graph node-embedding table (one row per vertex).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureTable {
    features: Matrix,
}

impl FeatureTable {
    /// A deterministic random table for `num_vertices` nodes of `dim`
    /// features.
    pub fn random(num_vertices: usize, dim: usize, seed: u64) -> Self {
        FeatureTable {
            features: Matrix::random(num_vertices, dim, seed),
        }
    }

    /// Wraps an existing matrix as a feature table.
    pub fn from_matrix(features: Matrix) -> Self {
        FeatureTable { features }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.features.rows()
    }

    /// The backing matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.features
    }

    /// Builds the sampled-subgraph embedding table: row `new` holds the
    /// features of original vertex `new_to_old[new]`.
    ///
    /// # Panics
    ///
    /// Panics if a mapped vertex is out of range.
    pub fn gather(&self, new_to_old: &[Vid]) -> Matrix {
        let indices: Vec<usize> = new_to_old.iter().map(|v| v.index()).collect();
        self.features.gather_rows(&indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_reorders_rows() {
        let table = FeatureTable::random(10, 4, 3);
        let gathered = table.gather(&[Vid(7), Vid(0), Vid(7)]);
        assert_eq!(gathered.rows(), 3);
        assert_eq!(gathered.row(0), table.matrix().row(7));
        assert_eq!(gathered.row(1), table.matrix().row(0));
        assert_eq!(gathered.row(0), gathered.row(2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rejects_bad_vids() {
        FeatureTable::random(4, 2, 0).gather(&[Vid(9)]);
    }

    #[test]
    fn dimensions_are_exposed() {
        let table = FeatureTable::random(5, 8, 2);
        assert_eq!(table.dim(), 8);
        assert_eq!(table.num_vertices(), 5);
    }
}
