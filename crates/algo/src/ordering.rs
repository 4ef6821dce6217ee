//! Edge ordering: sort the COO edge array by (destination, source).
//!
//! "Edge ordering … begins by sorting edges primarily by their destination
//! VIDs and then secondarily by their source VIDs … this sorted edge array
//! serves as a foundational structure for the CSC format" (§II-B, Fig. 3a).
//!
//! Three orderings produce the same array and serve different consumers:
//!
//! - [`order_edges_std`], a comparison sort, is the test oracle;
//! - [`order_edges_radix`] is the Table IV `Ordering` baseline, the CPU
//!   algorithm [`crate::pipeline::convert`] runs;
//! - [`order_edges_counting`], a COO→CSC transposition in O(E + V), is the
//!   engine's: the UPE kernel's `sort_edges` charges cycles from chunk runs
//!   alone, so its host-side sort only has to be fast. The kernel finds the
//!   largest VID in the same scan that reads the chunk runs and hands it to
//!   [`order_edges_counting_with_max`].

use agnn_graph::{Edge, Vid};

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

/// Orders edges with two stable counting passes — the textbook COO→CSC
/// transposition, O(E + V) for V vertices.
///
/// After a read for the largest VID, one read counts the edges of each
/// source and each destination. A stable scatter writes the destinations
/// into a `u32` scratch grouped by source; a walk over the sources in order
/// then writes each `(src, dst)` to its destination's next slot in the
/// result, so every destination's edges arrive in source order. Beside the
/// result it allocates the scratch (half an edge array) and two `u32` count
/// arrays of V + 1.
///
/// Equal keys are equal edges, so the result equals every other ordering's.
/// When the largest VID would make the count arrays larger than the edge
/// array (sparse VIDs), or the edge count does not fit a `u32` offset, it
/// falls back to [`order_edges_radix`].
///
/// # Examples
///
/// ```
/// use agnn_algo::ordering::{order_edges_counting, order_edges_std};
/// use agnn_graph::{Edge, Vid};
///
/// let edges = [
///     Edge::new(Vid(2), Vid(1)),
///     Edge::new(Vid(0), Vid(2)),
///     Edge::new(Vid(1), Vid(1)),
/// ];
/// assert_eq!(order_edges_counting(&edges), order_edges_std(&edges));
/// ```
pub fn order_edges_counting(edges: &[Edge]) -> Vec<Edge> {
    order_edges_counting_with_max(edges, largest_vid(edges))
}

/// [`order_edges_counting`] for a caller that already knows the largest
/// VID in `edges` (`None` when `edges` is empty), which saves the read that
/// finds it.
///
/// # Panics
///
/// Panics in debug builds if `max_vid` is not the largest VID in `edges`.
///
/// # Examples
///
/// ```
/// use agnn_algo::ordering::{order_edges_counting_with_max, order_edges_std};
/// use agnn_graph::{Edge, Vid};
///
/// let edges = [Edge::new(Vid(2), Vid(1)), Edge::new(Vid(0), Vid(2))];
/// let sorted = order_edges_counting_with_max(&edges, Some(Vid(2)));
/// assert_eq!(sorted, order_edges_std(&edges));
/// ```
pub fn order_edges_counting_with_max(edges: &[Edge], max_vid: Option<Vid>) -> Vec<Edge> {
    debug_assert_eq!(
        max_vid,
        largest_vid(edges),
        "max_vid is not the largest VID"
    );
    match counting_vertices(edges.len(), max_vid) {
        Some(vertices) => transpose(edges, vertices),
        None => order_edges_radix(edges),
    }
}

/// The largest VID in `edges`, or `None` when it is empty.
fn largest_vid(edges: &[Edge]) -> Option<Vid> {
    edges.iter().map(|e| e.src.max(e.dst)).max()
}

/// The vertex count the counting passes size their arrays by for `len`
/// edges whose largest VID is `max_vid`, or `None` when
/// [`order_edges_counting`] must take the radix fallback.
fn counting_vertices(len: usize, max_vid: Option<Vid>) -> Option<usize> {
    let vertices = max_vid.map_or(0, |v| u64::from(v.0) + 1);
    let fits = vertices <= len as u64 && u32::try_from(len).is_ok();
    fits.then_some(vertices as usize)
}

/// The counting passes of [`order_edges_counting`] over VIDs below
/// `vertices`.
fn transpose(edges: &[Edge], vertices: usize) -> Vec<Edge> {
    // Counts land one slot up, so the in-place prefix sums below turn them
    // into each vertex's first offset.
    let mut src_heads = vec![0u32; vertices + 1];
    let mut dst_heads = vec![0u32; vertices + 1];
    for e in edges {
        src_heads[e.src.index() + 1] += 1;
        dst_heads[e.dst.index() + 1] += 1;
    }
    for heads in [&mut src_heads, &mut dst_heads] {
        for v in 1..heads.len() {
            heads[v] += heads[v - 1];
        }
    }
    let mut dsts_by_src = vec![0u32; edges.len()];
    for e in edges {
        let head = &mut src_heads[e.src.index()];
        dsts_by_src[*head as usize] = e.dst.0;
        *head += 1;
    }
    // Each source's head now sits at its end, which is the next source's
    // start.
    let mut sorted = vec![Edge::default(); edges.len()];
    let mut start = 0;
    for (src, &end) in src_heads[..vertices].iter().enumerate() {
        for &dst in &dsts_by_src[start as usize..end as usize] {
            let head = &mut dst_heads[dst as usize];
            sorted[*head as usize] = Edge::new(Vid(src as u32), Vid(dst));
            *head += 1;
        }
        start = end;
    }
    sorted
}

/// Returns whether `edges` is ordered by (dst, src).
pub fn is_ordered(edges: &[Edge]) -> bool {
    edges.windows(2).all(|w| w[0].sort_key() <= w[1].sort_key())
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::generate;
    use proptest::prelude::*;

    fn edges_of(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&p| Edge::from(p)).collect()
    }

    fn vertices_of(edges: &[Edge]) -> Option<usize> {
        counting_vertices(edges.len(), largest_vid(edges))
    }

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
        assert!(order_edges_counting(&[]).is_empty());
        assert!(is_ordered(&[]));
    }

    #[test]
    fn counting_handles_single_edge() {
        // Only (0, 0) fits one count slot per edge; the others fall back.
        for edge in [(0, 0), (0, 1), (7, 3)] {
            let one = edges_of(&[edge]);
            assert_eq!(order_edges_counting(&one), one);
        }
    }

    #[test]
    fn counting_takes_radix_fallback_only_for_sparse_vids() {
        let dense = edges_of(&[(1, 0), (0, 2), (2, 1)]);
        assert_eq!(vertices_of(&dense), Some(3));
        assert_eq!(vertices_of(&[]), Some(0));
        // VID 3 needs four count slots for three edges.
        let sparse = edges_of(&[(1, 0), (0, 3), (2, 1)]);
        assert_eq!(vertices_of(&sparse), None);
        let top = edges_of(&[(u32::MAX, 0), (5, u32::MAX - 1), (0, 0)]);
        assert_eq!(vertices_of(&top), None);
        assert_eq!(order_edges_counting(&top), order_edges_std(&top));
    }

    proptest! {
        #[test]
        fn prop_counting_matches_std_on_dense_pairs(
            pairs in proptest::collection::vec((0u32..64, 0u32..64), 64..600),
        ) {
            let edges = edges_of(&pairs);
            prop_assert!(vertices_of(&edges).is_some());
            prop_assert_eq!(order_edges_counting(&edges), order_edges_std(&edges));
        }

        #[test]
        fn prop_counting_matches_std_on_hub_heavy_pairs(
            pairs in proptest::collection::vec((0u32..200, 0u32..200, 0u32..10), 200..800),
        ) {
            // Eight in ten edges point at one of three hub destinations.
            let edges: Vec<Edge> = pairs
                .iter()
                .map(|&(src, dst, pick)| Edge::from((src, if pick < 8 { dst % 3 } else { dst })))
                .collect();
            prop_assert!(vertices_of(&edges).is_some());
            prop_assert_eq!(order_edges_counting(&edges), order_edges_std(&edges));
        }

        #[test]
        fn prop_counting_matches_std_with_duplicates(
            pairs in proptest::collection::vec((0u32..40, 0u32..40, 1usize..5), 40..200),
        ) {
            let edges: Vec<Edge> = pairs
                .iter()
                .flat_map(|&(src, dst, copies)| std::iter::repeat_n(Edge::from((src, dst)), copies))
                .collect();
            prop_assert!(vertices_of(&edges).is_some());
            prop_assert_eq!(order_edges_counting(&edges), order_edges_std(&edges));
        }

        #[test]
        fn prop_counting_matches_std_on_single_edge(src in any::<u32>(), dst in any::<u32>()) {
            let one = [Edge::from((src, dst))];
            prop_assert_eq!(order_edges_counting(&one), one.to_vec());
        }

        #[test]
        fn prop_counting_matches_std_on_sparse_vids(
            pairs in proptest::collection::vec(
                (u32::MAX - 1_000..=u32::MAX, u32::MAX - 1_000..=u32::MAX),
                0..300,
            ),
        ) {
            let edges = edges_of(&pairs);
            prop_assert_eq!(order_edges_counting(&edges), order_edges_std(&edges));
        }

        #[test]
        fn prop_counting_with_max_matches_std(
            shape in 0u32..4,
            raw in proptest::collection::vec((any::<u32>(), any::<u32>(), 0u32..10), 1..600),
        ) {
            // Dense and hub-heavy edges keep every VID below the edge
            // count, so the counting passes run; sparse VIDs near
            // `u32::MAX` take the radix fallback; the last shape is empty.
            let n = raw.len() as u32;
            let edges: Vec<Edge> = match shape {
                0 => raw.iter().map(|&(src, dst, _)| Edge::from((src % n, dst % n))).collect(),
                1 => raw
                    .iter()
                    .map(|&(src, dst, pick)| {
                        let dst = if pick < 8 { dst % 3 } else { dst % n };
                        Edge::from((src % n, dst.min(n - 1)))
                    })
                    .collect(),
                2 => raw
                    .iter()
                    .map(|&(src, dst, _)| {
                        Edge::from((u32::MAX - src % 1_000, u32::MAX - dst % 1_000))
                    })
                    .collect(),
                _ => Vec::new(),
            };
            let max_vid = edges.iter().flat_map(|e| [e.src, e.dst]).max();
            prop_assert_eq!(vertices_of(&edges).is_some(), shape != 2);
            prop_assert_eq!(
                order_edges_counting_with_max(&edges, max_vid),
                order_edges_std(&edges)
            );
        }

        #[test]
        fn prop_radix_ordering_is_sorted_permutation(
            pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..300),
        ) {
            let edges = edges_of(&pairs);
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
