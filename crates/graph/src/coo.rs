//! Coordinate (COO) edge-array format.

use crate::{Edge, GraphError};

/// A graph in coordinate format: an unsorted edge array plus a vertex count.
///
/// COO is how "raw or application-specific graphs are often stored … for
/// storage efficiency and graph update flexibility" (§II-A); it is the input
/// to the preprocessing pipeline and the intermediate form of sampled
/// subgraphs before their final conversion (§II-B).
///
/// # Examples
///
/// ```
/// use agnn_graph::{Coo, Edge, Vid};
///
/// let coo = Coo::from_pairs(4, [(0, 1), (2, 1), (3, 0)])?;
/// assert_eq!(coo.num_edges(), 3);
/// assert_eq!(coo.edges()[1], Edge::new(Vid(2), Vid(1)));
/// # Ok::<(), agnn_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Coo {
    num_vertices: usize,
    edges: Vec<Edge>,
}

impl Coo {
    /// Creates a COO graph, validating that every endpoint is in range.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any edge references a
    /// vertex `>= num_vertices`.
    pub fn new(num_vertices: usize, edges: Vec<Edge>) -> Result<Self, GraphError> {
        for e in &edges {
            for vid in [e.src, e.dst] {
                if vid.index() >= num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vid: vid.0,
                        num_vertices,
                    });
                }
            }
        }
        Ok(Coo {
            num_vertices,
            edges,
        })
    }

    /// Creates a COO graph from `(src, dst)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] on an out-of-range endpoint.
    pub fn from_pairs<I>(num_vertices: usize, pairs: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        Self::new(num_vertices, pairs.into_iter().map(Edge::from).collect())
    }

    /// Number of vertices (the contiguous VID range `0..num_vertices`).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge array.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Appends edges in place (dynamic-graph updates, §VI-B "Graph update").
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] on an out-of-range endpoint;
    /// no edges are appended in that case.
    pub fn extend_edges<I>(&mut self, new_edges: I) -> Result<(), GraphError>
    where
        I: IntoIterator<Item = Edge>,
    {
        let staged: Vec<Edge> = new_edges.into_iter().collect();
        for e in &staged {
            for vid in [e.src, e.dst] {
                if vid.index() >= self.num_vertices {
                    return Err(GraphError::VertexOutOfRange {
                        vid: vid.0,
                        num_vertices: self.num_vertices,
                    });
                }
            }
        }
        self.edges.extend(staged);
        Ok(())
    }

    /// Returns whether the edge array is sorted by `(dst, src)`.
    pub fn is_sorted_by_dst_src(&self) -> bool {
        self.edges
            .windows(2)
            .all(|w| w[0].sort_key() <= w[1].sort_key())
    }

    /// In-memory size of the edge array in bytes (two 32-bit VIDs per edge),
    /// the quantity that drives every transfer model.
    #[inline]
    pub fn byte_size(&self) -> u64 {
        self.edges.len() as u64 * 8
    }

    /// Per-destination in-degrees (index = destination VID).
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for e in &self.edges {
            deg[e.dst.index()] += 1;
        }
        deg
    }

    /// Degree statistics over destination vertices.
    pub fn degree_stats(&self) -> DegreeStats {
        DegreeStats::from_degrees(&self.in_degrees())
    }

    /// Average degree `e / n` as Table II reports it.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.edges.len() as f64 / self.num_vertices as f64
        }
    }

    /// Iterates over edges.
    pub fn iter(&self) -> std::slice::Iter<'_, Edge> {
        self.edges.iter()
    }
}

impl<'a> IntoIterator for &'a Coo {
    type Item = &'a Edge;
    type IntoIter = std::slice::Iter<'a, Edge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

/// Summary statistics of a degree distribution.
///
/// # Examples
///
/// ```
/// use agnn_graph::DegreeStats;
///
/// let stats = DegreeStats::from_degrees(&[1, 3, 0, 4]);
/// assert_eq!(stats.max, 4);
/// assert_eq!(stats.mean, 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegreeStats {
    /// Mean degree.
    pub mean: f64,
    /// Maximum degree.
    pub max: u32,
    /// Number of zero-degree vertices.
    pub isolated: usize,
}

impl DegreeStats {
    /// Computes statistics from a degree array.
    pub fn from_degrees(degrees: &[u32]) -> Self {
        if degrees.is_empty() {
            return DegreeStats::default();
        }
        let total: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
        DegreeStats {
            mean: total as f64 / degrees.len() as f64,
            max: degrees.iter().copied().max().unwrap_or(0),
            isolated: degrees.iter().filter(|&&d| d == 0).count(),
        }
    }
}

/// Remaps every edge of `coo` through `f`, keeping the vertex count.
///
/// Used by the scenario engine to mix edges from two graphs into one VID
/// space (Fig. 31).
pub fn map_edges(coo: &Coo, num_vertices: usize, mut f: impl FnMut(Edge) -> Edge) -> Coo {
    let edges = coo.edges().iter().map(|&e| f(e)).collect();
    Coo::new(num_vertices, edges).expect("edge mapping produced out-of-range vertex")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vid;

    fn small() -> Coo {
        Coo::from_pairs(4, [(0, 1), (2, 1), (3, 0), (1, 3)]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let g = small();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.byte_size(), 32);
        assert_eq!(g.iter().count(), 4);
        assert_eq!((&g).into_iter().count(), 4);
    }

    #[test]
    fn rejects_out_of_range_src_and_dst() {
        assert!(matches!(
            Coo::from_pairs(2, [(0, 2)]),
            Err(GraphError::VertexOutOfRange { vid: 2, .. })
        ));
        assert!(matches!(
            Coo::from_pairs(2, [(5, 0)]),
            Err(GraphError::VertexOutOfRange { vid: 5, .. })
        ));
    }

    #[test]
    fn extend_edges_validates_atomically() {
        let mut g = small();
        let err = g.extend_edges([Edge::new(Vid(0), Vid(1)), Edge::new(Vid(9), Vid(0))]);
        assert!(err.is_err());
        assert_eq!(g.num_edges(), 4, "failed extend must not mutate");
        g.extend_edges([Edge::new(Vid(0), Vid(0))]).unwrap();
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn in_degrees_and_stats() {
        let g = small();
        assert_eq!(g.in_degrees(), vec![1, 2, 0, 1]);
        let stats = g.degree_stats();
        assert_eq!(stats.max, 2);
        assert_eq!(stats.isolated, 1);
        assert!((stats.mean - 1.0).abs() < 1e-12);
        assert!((g.average_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sortedness_check() {
        let unsorted = small();
        assert!(!unsorted.is_sorted_by_dst_src());
        let sorted = Coo::from_pairs(3, [(0, 0), (1, 0), (0, 1), (2, 2)]).unwrap();
        assert!(sorted.is_sorted_by_dst_src());
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let g = Coo::from_pairs(0, []).unwrap();
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.degree_stats(), DegreeStats::default());
    }

    #[test]
    fn map_edges_reverses() {
        let g = small();
        let reversed = map_edges(&g, 4, |e| Edge::new(e.dst, e.src));
        assert_eq!(reversed.edges()[0], Edge::new(Vid(1), Vid(0)));
        assert_eq!(reversed.num_edges(), g.num_edges());
    }
}
