//! Seeded synthetic graph generators.
//!
//! The paper evaluates on eleven real-world datasets (Table II). Those exact
//! datasets (OGB/DGL/SNAP/Taobao dumps, up to 400 M edges) are not available
//! offline, so this module provides deterministic generators that hit the
//! same *structural parameters* preprocessing cost depends on — vertex count,
//! edge count and degree skew. See `docs/FIDELITY.md` for the substitution
//! note.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Coo, Edge, Vid};

/// Uniform (Erdős–Rényi style) multigraph: both endpoints of every edge are
/// drawn uniformly at random.
///
/// # Examples
///
/// ```
/// use agnn_graph::generate::uniform;
///
/// let g = uniform(100, 500, 42);
/// assert_eq!(g.num_vertices(), 100);
/// assert_eq!(g.num_edges(), 500);
/// ```
///
/// # Panics
///
/// Panics if `num_vertices == 0` while `num_edges > 0`.
pub fn uniform(num_vertices: usize, num_edges: usize, seed: u64) -> Coo {
    assert!(
        num_vertices > 0 || num_edges == 0,
        "cannot place edges in an empty vertex set"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = (0..num_edges)
        .map(|_| {
            Edge::new(
                Vid(rng.gen_range(0..num_vertices as u32)),
                Vid(rng.gen_range(0..num_vertices as u32)),
            )
        })
        .collect();
    Coo::new(num_vertices, edges).expect("generated endpoints are in range")
}

/// Recursive-matrix (R-MAT) generator.
///
/// Standard in architecture evaluations for producing realistic skewed
/// graphs: each edge recursively descends a 2×2 partition of the adjacency
/// matrix with probabilities `(a, b, c, d)`, `d = 1 − a − b − c`.
///
/// # Examples
///
/// ```
/// use agnn_graph::generate::rmat;
///
/// let g = rmat(8, 2000, (0.57, 0.19, 0.19), 7);
/// assert_eq!(g.num_vertices(), 256);
/// assert_eq!(g.num_edges(), 2000);
/// ```
///
/// # Panics
///
/// Panics if the probabilities are not in `(0, 1)` or sum to ≥ 1, or if
/// `scale` is 0 or exceeds 31.
pub fn rmat(scale: u32, num_edges: usize, (a, b, c): (f64, f64, f64), seed: u64) -> Coo {
    assert!(
        a > 0.0 && b > 0.0 && c > 0.0 && a + b + c < 1.0,
        "RMAT probabilities must be positive and sum below 1"
    );
    assert!(scale > 0 && scale <= 31, "scale must be in 1..=31");
    let n = 1usize << scale;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let (mut row, mut col) = (0u32, 0u32);
        for level in (0..scale).rev() {
            let r: f64 = rng.gen();
            let (dr, dc) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            row |= dr << level;
            col |= dc << level;
        }
        edges.push(Edge::new(Vid(row), Vid(col)));
    }
    Coo::new(n, edges).expect("RMAT endpoints are in range")
}

/// Chung–Lu power-law generator: endpoint `i` is drawn with probability
/// proportional to `(i + 1)^(-alpha)` for destinations and uniformly for
/// sources, yielding the hub-dominated in-degree distributions interaction
/// and e-commerce graphs exhibit (Table II: MV deg 3052, TB deg 1744).
///
/// # Examples
///
/// ```
/// use agnn_graph::generate::power_law;
///
/// let g = power_law(50, 1000, 1.2, 3);
/// let stats = g.degree_stats();
/// assert!(stats.max as f64 > 3.0 * stats.mean, "hubs dominate");
/// ```
///
/// # Panics
///
/// Panics if `alpha < 0` or the vertex set is empty while edges are requested.
pub fn power_law(num_vertices: usize, num_edges: usize, alpha: f64, seed: u64) -> Coo {
    assert!(alpha >= 0.0, "alpha must be non-negative");
    assert!(
        num_vertices > 0 || num_edges == 0,
        "cannot place edges in an empty vertex set"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Cumulative weights for inverse-transform sampling of destinations.
    let mut cumulative = Vec::with_capacity(num_vertices);
    let mut total = 0.0f64;
    for i in 0..num_vertices {
        total += ((i + 1) as f64).powf(-alpha);
        cumulative.push(total);
    }
    let edges = (0..num_edges)
        .map(|_| {
            let target: f64 = rng.gen_range(0.0..total);
            let dst = cumulative.partition_point(|&c| c <= target);
            let src = rng.gen_range(0..num_vertices as u32);
            Edge::new(Vid(src), Vid(dst.min(num_vertices - 1) as u32))
        })
        .collect();
    Coo::new(num_vertices, edges).expect("generated endpoints are in range")
}

/// Draws `count` fresh edges consistent with an existing graph's skew, for
/// dynamic-update streams (Figs. 7, 29, 30).
///
/// Destinations are biased toward existing high-degree vertices with
/// probability `preferential`, mimicking preferential attachment in social
/// and e-commerce networks (§III-A "Considering graph dynamics").
pub fn incremental_edges(base: &Coo, count: usize, preferential: f64, seed: u64) -> Vec<Edge> {
    assert!(
        (0.0..=1.0).contains(&preferential),
        "preferential must be a probability"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let n = base.num_vertices();
    if n == 0 || count == 0 {
        return Vec::new();
    }
    // Preferential attachment: picking a uniform *edge endpoint* selects a
    // vertex proportionally to its degree.
    let edges = base.edges();
    (0..count)
        .map(|_| {
            let dst = if !edges.is_empty() && rng.gen_bool(preferential) {
                edges[rng.gen_range(0..edges.len())].dst
            } else {
                Vid(rng.gen_range(0..n as u32))
            };
            Edge::new(Vid(rng.gen_range(0..n as u32)), dst)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_per_seed() {
        assert_eq!(uniform(64, 256, 1), uniform(64, 256, 1));
        assert_ne!(
            uniform(64, 256, 1).edges(),
            uniform(64, 256, 2).edges(),
            "different seeds should differ"
        );
    }

    #[test]
    fn uniform_empty_edgeless() {
        let g = uniform(0, 0, 9);
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    #[should_panic(expected = "empty vertex set")]
    fn uniform_rejects_edges_without_vertices() {
        uniform(0, 10, 0);
    }

    #[test]
    fn rmat_skews_toward_low_ids() {
        let g = rmat(10, 20_000, (0.57, 0.19, 0.19), 11);
        let deg = g.in_degrees();
        let low: u64 = deg[..64].iter().map(|&d| u64::from(d)).sum();
        let high: u64 = deg[deg.len() - 64..].iter().map(|&d| u64::from(d)).sum();
        assert!(low > 4 * high, "RMAT favours the top-left quadrant");
    }

    #[test]
    #[should_panic(expected = "sum below 1")]
    fn rmat_rejects_bad_probabilities() {
        rmat(4, 10, (0.5, 0.5, 0.2), 0);
    }

    #[test]
    fn power_law_degree_skew_grows_with_alpha() {
        let flat = power_law(256, 10_000, 0.0, 5);
        let steep = power_law(256, 10_000, 1.5, 5);
        assert!(steep.degree_stats().max > 2 * flat.degree_stats().max);
    }

    #[test]
    fn power_law_exact_counts() {
        let g = power_law(100, 1234, 0.8, 2);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 1234);
    }

    #[test]
    fn incremental_edges_are_in_range_and_deterministic() {
        let base = power_law(128, 1000, 1.0, 3);
        let a = incremental_edges(&base, 200, 0.8, 4);
        let b = incremental_edges(&base, 200, 0.8, 4);
        assert_eq!(a, b);
        assert!(a.iter().all(|e| e.src.index() < 128 && e.dst.index() < 128));
    }

    #[test]
    fn incremental_preferential_hits_hubs() {
        let base = power_law(512, 20_000, 1.4, 6);
        let hub = {
            let deg = base.in_degrees();
            Vid((0..deg.len()).max_by_key(|&i| deg[i]).unwrap() as u32)
        };
        let pref = incremental_edges(&base, 2_000, 1.0, 7);
        let unif = incremental_edges(&base, 2_000, 0.0, 7);
        let count = |edges: &[Edge]| edges.iter().filter(|e| e.dst == hub).count();
        assert!(count(&pref) > count(&unif));
    }

    #[test]
    fn incremental_empty_base() {
        let base = uniform(0, 0, 0);
        assert!(incremental_edges(&base, 10, 0.5, 0).is_empty());
    }
}
