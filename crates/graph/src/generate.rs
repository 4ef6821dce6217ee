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
