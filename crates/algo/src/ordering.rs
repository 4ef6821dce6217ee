//! Edge ordering: sort the COO edge array by (destination, source).
//!
//! "Edge ordering … begins by sorting edges primarily by their destination
//! VIDs and then secondarily by their source VIDs … this sorted edge array
//! serves as a foundational structure for the CSC format" (§II-B, Fig. 3a).

use agnn_graph::Edge;

use crate::sort::radix_sorted_by_key;

/// Orders edges using the standard-library comparison sort (reference
/// implementation).
///
/// # Examples
///
/// ```
/// use agnn_algo::ordering::order_edges_std;
/// use agnn_graph::{Edge, Vid};
///
/// let sorted = order_edges_std(&[Edge::new(Vid(1), Vid(2)), Edge::new(Vid(0), Vid(1))]);
/// assert_eq!(sorted[0].dst, Vid(1));
/// ```
pub fn order_edges_std(edges: &[Edge]) -> Vec<Edge> {
    let mut out = edges.to_vec();
    out.sort_by_key(|e| e.sort_key());
    out
}

/// Orders edges with radix sort over the concatenated 64-bit keys — the
/// Table IV `Ordering` algorithm and the workload the UPE accelerates.
///
/// The key concatenation mirrors the UPE controller workflow of Fig. 15
/// (concatenate → sort → deconcatenate); the sort reads each edge's key
/// on the fly, so the sorted edges are the only array it allocates.
pub fn order_edges_radix(edges: &[Edge]) -> Vec<Edge> {
    radix_sorted_by_key(edges, |e| e.sort_key())
}

/// Returns whether `edges` is ordered by (dst, src).
pub fn is_ordered(edges: &[Edge]) -> bool {
    edges.windows(2).all(|w| w[0].sort_key() <= w[1].sort_key())
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::{generate, Vid};
    use proptest::prelude::*;

    #[test]
    fn std_and_radix_agree_on_generated_graph() {
        let g = generate::power_law(100, 2_000, 0.9, 3);
        let a = order_edges_std(g.edges());
        let b = order_edges_radix(g.edges());
        assert_eq!(a, b);
        assert!(is_ordered(&a));
    }

    #[test]
    fn ordering_groups_shared_destinations() {
        let edges = [
            Edge::new(Vid(5), Vid(1)),
            Edge::new(Vid(2), Vid(0)),
            Edge::new(Vid(1), Vid(1)),
        ];
        let sorted = order_edges_radix(&edges);
        assert_eq!(
            sorted,
            vec![
                Edge::new(Vid(2), Vid(0)),
                Edge::new(Vid(1), Vid(1)),
                Edge::new(Vid(5), Vid(1)),
            ]
        );
    }

    #[test]
    fn empty_input() {
        assert!(order_edges_radix(&[]).is_empty());
        assert!(is_ordered(&[]));
    }

    proptest! {
        #[test]
        fn prop_radix_ordering_is_sorted_permutation(
            pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..300),
        ) {
            let edges: Vec<Edge> = pairs.iter().map(|&p| Edge::from(p)).collect();
            let sorted = order_edges_radix(&edges);
            prop_assert!(is_ordered(&sorted));
            let mut a: Vec<u64> = edges.iter().map(|e| e.sort_key()).collect();
            let mut b: Vec<u64> = sorted.iter().map(|e| e.sort_key()).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}
