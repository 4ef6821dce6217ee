//! Unique random selection (uni-random selection).
//!
//! Sampling draws `k` unique neighbors per node (node-wise) or per layer
//! (layer-wise) (§II-B, Fig. 4a). Three implementations:
//!
//! - [`uni_random_bitmap`] — the paper's redesigned algorithm (§IV-A,
//!   Fig. 16): partition the pool into sampled/unsampled buckets and draw
//!   only from the unsampled bucket, "guaranteeing uniqueness without a
//!   full-space scan". This is the exact procedure the UPE kernel executes,
//!   so the hardware simulator reuses it for functional equivalence.
//! - [`uni_random_hashset`] — the conventional baseline: draw, check a
//!   synchronized dictionary, retry on duplicates (§II-B).
//! - [`reservoir_sample`] — Vitter's Algorithm R, the Table IV `Selecting`
//!   baseline.
//!
//! Selection is *positional*: the pool is an index array over a neighbor
//! list, so a VID that appears twice in the pool (multi-edge) may be chosen
//! once per occurrence, exactly as in the hardware's index-array scheme.

use std::collections::HashSet;

use rand::Rng;

/// Draws `min(k, pool.len())` unique positions from `pool` using the
/// bitmap/set-partition scheme of Fig. 16, returning the selected elements
/// in selection order.
///
/// # Examples
///
/// ```
/// use agnn_algo::select::uni_random_bitmap;
/// use agnn_graph::Vid;
/// use rand::SeedableRng;
///
/// let pool: Vec<Vid> = (0..10).map(Vid).collect();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let picked = uni_random_bitmap(&pool, 4, &mut rng);
/// assert_eq!(picked.len(), 4);
/// ```
pub fn uni_random_bitmap<T: Copy>(pool: &[T], k: usize, rng: &mut impl Rng) -> Vec<T> {
    uni_random_positions(pool.len(), k, rng)
        .into_iter()
        .map(|position| pool[position])
        .collect()
}

/// Position-level variant of [`uni_random_bitmap`]: returns the drawn pool
/// *positions* in draw order.
///
/// The hardware simulator replays these positions through the UPE's one-hot
/// extraction network, so the two functions must consume the RNG
/// identically; `uni_random_bitmap` is implemented on top of this one to
/// guarantee it.
pub fn uni_random_positions(pool_len: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
    // The unsampled bucket is the pool minus the positions taken so far, in
    // pool order, as the UPE's set-partition extraction preserves relative
    // order. Each draw picks its `slot`-th element: start at `slot` and step
    // past every taken position at or below the candidate, in ascending
    // order, so a draw costs O(k) whatever the pool length.
    let take = k.min(pool_len);
    let mut taken: Vec<usize> = Vec::with_capacity(take);
    let mut positions = Vec::with_capacity(take);
    for drawn in 0..take {
        let slot = rng.gen_range(0..pool_len - drawn);
        let mut position = slot;
        let mut rank = 0;
        while rank < taken.len() && taken[rank] <= position {
            position += 1;
            rank += 1;
        }
        taken.insert(rank, position);
        positions.push(position);
    }
    positions
}

/// Conventional draw-and-check selection against a dictionary of already
/// sampled positions; retries on collisions (§II-B "checking a synchronized
/// dictionary to track selected nodes").
pub fn uni_random_hashset<T: Copy>(pool: &[T], k: usize, rng: &mut impl Rng) -> Vec<T> {
    let take = k.min(pool.len());
    let mut seen: HashSet<usize> = HashSet::with_capacity(take);
    let mut selected = Vec::with_capacity(take);
    while selected.len() < take {
        let position = rng.gen_range(0..pool.len());
        if seen.insert(position) {
            selected.push(pool[position]);
        }
    }
    selected
}

/// Vitter's reservoir sampling (Algorithm R): one pass over the pool keeping
/// a uniformly random `k`-subset (Table IV).
pub fn reservoir_sample<T: Copy>(pool: &[T], k: usize, rng: &mut impl Rng) -> Vec<T> {
    let take = k.min(pool.len());
    let mut reservoir: Vec<T> = pool[..take].to_vec();
    for (position, &item) in pool.iter().enumerate().skip(take) {
        let j = rng.gen_range(0..=position);
        if j < take {
            reservoir[j] = item;
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;
    use agnn_graph::Vid;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool(n: u32) -> Vec<Vid> {
        (0..n).map(Vid).collect()
    }

    #[test]
    fn bitmap_selection_is_unique_and_bounded() {
        let p = pool(20);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = uni_random_bitmap(&p, 8, &mut rng);
        assert_eq!(sel.len(), 8);
        let distinct: HashSet<_> = sel.iter().collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn k_larger_than_pool_returns_whole_pool() {
        let p = pool(3);
        let mut rng = StdRng::seed_from_u64(2);
        for f in [
            uni_random_bitmap as fn(&[Vid], usize, &mut StdRng) -> Vec<Vid>,
            uni_random_hashset,
            reservoir_sample,
        ] {
            let sel = f(&p, 10, &mut rng);
            let mut sorted: Vec<u32> = sel.iter().map(|v| v.0).collect();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
        }
    }

    #[test]
    fn empty_pool_selects_nothing() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(uni_random_bitmap::<Vid>(&[], 5, &mut rng).is_empty());
        assert!(uni_random_hashset::<Vid>(&[], 5, &mut rng).is_empty());
        assert!(reservoir_sample::<Vid>(&[], 5, &mut rng).is_empty());
    }

    #[test]
    fn bitmap_selection_is_deterministic_per_seed() {
        let p = pool(50);
        let a = uni_random_bitmap(&p, 10, &mut StdRng::seed_from_u64(9));
        let b = uni_random_bitmap(&p, 10, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn selection_is_roughly_uniform() {
        // Over many trials every position should be picked a similar number
        // of times ("randomness improves inference accuracy", §II-B).
        let p = pool(10);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0u32; 10];
        for _ in 0..2_000 {
            for v in uni_random_bitmap(&p, 3, &mut rng) {
                counts[v.index()] += 1;
            }
        }
        let expected = 2_000.0 * 3.0 / 10.0;
        for &c in &counts {
            assert!(
                (f64::from(c) - expected).abs() < expected * 0.25,
                "count {c} vs expected {expected}"
            );
        }
    }

    /// The unsampled bucket as a materialized `0..pool_len` array with one
    /// `Vec::remove` per draw: the reference [`uni_random_positions`] must
    /// reproduce draw for draw.
    fn uni_random_positions_by_removal(
        pool_len: usize,
        k: usize,
        rng: &mut impl Rng,
    ) -> Vec<usize> {
        let mut unsampled: Vec<usize> = (0..pool_len).collect();
        let take = k.min(pool_len);
        let mut positions = Vec::with_capacity(take);
        for _ in 0..take {
            let slot = rng.gen_range(0..unsampled.len());
            positions.push(unsampled.remove(slot));
        }
        positions
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_positions_match_removal_reference(
            drawn_len in 0usize..2_000,
            small in any::<bool>(),
            k in 0usize..64,
            seed in any::<u64>(),
        ) {
            // Half the pools are shorter than most draw counts.
            let pool_len = if small { drawn_len % 48 } else { drawn_len };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference_rng = StdRng::seed_from_u64(seed);
            prop_assert_eq!(
                uni_random_positions(pool_len, k, &mut rng),
                uni_random_positions_by_removal(pool_len, k, &mut reference_rng)
            );
            // Both consumed the RNG identically.
            prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
        }
    }

    proptest! {
        #[test]
        fn prop_all_selectors_return_unique_pool_members(
            n in 1u32..60,
            k in 0usize..80,
            seed in any::<u64>(),
        ) {
            let p = pool(n);
            for f in [
                uni_random_bitmap as fn(&[Vid], usize, &mut StdRng) -> Vec<Vid>,
                uni_random_hashset,
                reservoir_sample,
            ] {
                let mut rng = StdRng::seed_from_u64(seed);
                let sel = f(&p, k, &mut rng);
                prop_assert_eq!(sel.len(), k.min(p.len()));
                let distinct: HashSet<_> = sel.iter().collect();
                prop_assert_eq!(distinct.len(), sel.len());
                prop_assert!(sel.iter().all(|v| v.index() < n as usize));
            }
        }
    }
}
