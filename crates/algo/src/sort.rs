//! Radix sort and merge primitives.
//!
//! Table IV lists radix sort as the `Ordering` baseline algorithm; §IV-A
//! notes its "digit-wise passes are precisely set-partitioning", the insight
//! the UPE exploits. The merge routines implement the software analogue of
//! Algorithm 1 (merge sorting using UPE).

/// Sorts `u64` keys with [`radix_sorted_by_key`], which skips every 8-bit
/// digit that is constant across the input.
///
/// # Examples
///
/// ```
/// use agnn_algo::sort::radix_sort_u64;
///
/// let mut keys = vec![9, 2, 7, 2, 0];
/// radix_sort_u64(&mut keys);
/// assert_eq!(keys, vec![0, 2, 2, 7, 9]);
/// ```
pub fn radix_sort_u64(keys: &mut Vec<u64>) {
    *keys = radix_sorted_by_key(keys, |&k| k);
}

/// Most-significant-digit radix sort of `items` by a `u64` key into a new
/// vector. The result is the only buffer it allocates, so sorting costs the
/// caller no scratch memory beyond the output.
///
/// One read finds the bits that vary across the input; 8-bit digits
/// without such bits take no pass. The highest varying digit scatters the
/// items into the result; every lower varying digit permutes each bucket
/// in place by cycling items to their sub-buckets (American flag sort),
/// and buckets of at most 128 items fall back to a comparison sort. Edge
/// sort keys (`dst << 32 | src` over small VIDs) leave the high digits of
/// both halves constant, so they take one scatter and then in-place passes
/// over ever smaller buckets.
///
/// Not stable: items with equal keys may change order.
///
/// # Examples
///
/// ```
/// use agnn_algo::sort::radix_sorted_by_key;
///
/// let pairs = [(3u32, 'c'), (1, 'a'), (2, 'b')];
/// let sorted = radix_sorted_by_key(&pairs, |&(k, _)| u64::from(k));
/// assert_eq!(sorted, vec![(1, 'a'), (2, 'b'), (3, 'c')]);
/// ```
pub fn radix_sorted_by_key<T: Copy, F: Fn(&T) -> u64>(items: &[T], key: F) -> Vec<T> {
    let Some(first) = items.first().map(&key) else {
        return Vec::new();
    };
    let varying = items.iter().fold(0, |acc, item| acc | (key(item) ^ first));
    let Some(digit) = highest_digit(varying) else {
        return items.to_vec();
    };
    let buckets = Buckets::count(items, &key, digit);
    let mut heads = buckets.starts();
    let mut sorted = vec![items[0]; items.len()];
    for item in items {
        let b = buckets.of(key(item));
        sorted[heads[b]] = *item;
        heads[b] += 1;
    }
    buckets.sort_each(&mut sorted, &key, varying);
    sorted
}

const DIGIT_BITS: u32 = 8;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Buckets of at most this many items are sorted by comparison rather than
/// by another radix pass.
const SMALL_SORT: usize = 128;

/// Index of the digit holding the highest set bit of `bits`.
fn highest_digit(bits: u64) -> Option<u32> {
    (bits != 0).then(|| (63 - bits.leading_zeros()) / DIGIT_BITS)
}

/// The buckets of one digit over a slice, as end offsets.
struct Buckets {
    shift: u32,
    ends: [usize; BUCKETS],
}

impl Buckets {
    fn count<T, F: Fn(&T) -> u64>(items: &[T], key: &F, digit: u32) -> Self {
        let mut buckets = Buckets {
            shift: digit * DIGIT_BITS,
            ends: [0; BUCKETS],
        };
        for item in items {
            buckets.ends[buckets.of(key(item))] += 1;
        }
        let mut acc = 0;
        for end in buckets.ends.iter_mut() {
            acc += *end;
            *end = acc;
        }
        buckets
    }

    /// The bucket of key `k`.
    fn of(&self, k: u64) -> usize {
        ((k >> self.shift) as usize) & (BUCKETS - 1)
    }

    /// Offset of each bucket's first item.
    fn starts(&self) -> [usize; BUCKETS] {
        let mut starts = [0; BUCKETS];
        starts[1..].copy_from_slice(&self.ends[..BUCKETS - 1]);
        starts
    }

    /// Sorts every bucket of `items`, laid out by this digit, on the
    /// varying digits below it.
    fn sort_each<T: Copy, F: Fn(&T) -> u64>(&self, items: &mut [T], key: &F, varying: u64) {
        let Some(digit) = highest_digit(varying & ((1 << self.shift) - 1)) else {
            return;
        };
        let mut start = 0;
        for &end in &self.ends {
            if end - start > 1 {
                sort_digit(&mut items[start..end], key, varying, digit);
            }
            start = end;
        }
    }
}

/// Sorts `items` in place on `digit` and every lower varying digit.
fn sort_digit<T: Copy, F: Fn(&T) -> u64>(items: &mut [T], key: &F, varying: u64, digit: u32) {
    if items.len() <= SMALL_SORT {
        items.sort_unstable_by_key(key);
        return;
    }
    let buckets = Buckets::count(items, key, digit);
    let mut heads = buckets.starts();
    for b in 0..BUCKETS {
        while heads[b] < buckets.ends[b] {
            // Carry the item at bucket b's head to its own bucket's head,
            // picking up the item found there, until one belongs in b.
            let mut item = items[heads[b]];
            let mut target = buckets.of(key(&item));
            while target != b {
                std::mem::swap(&mut item, &mut items[heads[target]]);
                heads[target] += 1;
                target = buckets.of(key(&item));
            }
            items[heads[b]] = item;
            heads[b] += 1;
        }
    }
    buckets.sort_each(items, key, varying);
}

/// Merges two sorted slices into one sorted vector (stable: ties take from
/// `a` first).
///
/// # Examples
///
/// ```
/// use agnn_algo::sort::merge_sorted;
///
/// assert_eq!(merge_sorted(&[1, 4, 6], &[2, 4, 9]), vec![1, 2, 4, 4, 6, 9]);
/// ```
pub fn merge_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Merges `chunks` (each sorted) pairwise round by round until one sorted
/// array remains — the software model of the UPE merge tree (Fig. 15).
/// Returns the merged array and the number of merge rounds performed
/// (Table I's `m`).
pub fn tree_merge(mut chunks: Vec<Vec<u64>>) -> (Vec<u64>, u32) {
    if chunks.is_empty() {
        return (Vec::new(), 0);
    }
    let mut rounds = 0;
    while chunks.len() > 1 {
        rounds += 1;
        let mut next = Vec::with_capacity(chunks.len().div_ceil(2));
        let mut iter = chunks.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge_sorted(&a, &b)),
                None => next.push(a),
            }
        }
        chunks = next;
    }
    (chunks.pop().expect("one chunk remains"), rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn radix_handles_trivial_inputs() {
        let mut empty: Vec<u64> = vec![];
        radix_sort_u64(&mut empty);
        assert!(empty.is_empty());

        let mut single = vec![42];
        radix_sort_u64(&mut single);
        assert_eq!(single, vec![42]);

        let mut zeros = vec![0, 0, 0];
        radix_sort_u64(&mut zeros);
        assert_eq!(zeros, vec![0, 0, 0]);
    }

    #[test]
    fn radix_sorts_full_width_keys() {
        let mut keys = vec![u64::MAX, 0, u64::MAX - 1, 1, 1 << 63];
        radix_sort_u64(&mut keys);
        assert_eq!(keys, vec![0, 1, 1 << 63, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn radix_skips_constant_digits() {
        // Bits 16..24 are zero in every key, so no pass looks at them. Bits
        // 24..32 vary across the input but are constant within each of the
        // four first-digit buckets (bits 40..48), each bucket large enough
        // for radix passes of its own: that digit's pass finds one bucket
        // and moves nothing, and the low 16 bits still sort.
        let mut keys: Vec<u64> = (0..2_000u64)
            .map(|i| {
                let high = i % 4;
                let low = (i * 7_919) % 65_536;
                (high << 40) | ((0xA0 + high) << 24) | low
            })
            .collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        radix_sort_u64(&mut keys);
        assert_eq!(keys, expected);
    }

    #[test]
    fn merge_with_empty_sides() {
        assert_eq!(merge_sorted(&[], &[1, 2]), vec![1, 2]);
        assert_eq!(merge_sorted(&[1, 2], &[]), vec![1, 2]);
        assert!(merge_sorted(&[], &[]).is_empty());
    }

    #[test]
    fn tree_merge_counts_rounds() {
        let chunks = vec![vec![4, 8], vec![1, 9], vec![2, 3], vec![5, 7]];
        let (merged, rounds) = tree_merge(chunks);
        assert_eq!(merged, vec![1, 2, 3, 4, 5, 7, 8, 9]);
        assert_eq!(rounds, 2, "4 chunks need log2(4) rounds");
    }

    #[test]
    fn tree_merge_odd_chunk_count() {
        let (merged, rounds) = tree_merge(vec![vec![3], vec![1], vec![2]]);
        assert_eq!(merged, vec![1, 2, 3]);
        assert_eq!(rounds, 2);
    }

    #[test]
    fn tree_merge_empty_and_single() {
        assert_eq!(tree_merge(vec![]), (vec![], 0));
        assert_eq!(tree_merge(vec![vec![5, 6]]), (vec![5, 6], 0));
    }

    proptest! {
        #[test]
        fn prop_radix_equals_std_sort(mut v in proptest::collection::vec(any::<u64>(), 0..500)) {
            let mut expected = v.clone();
            expected.sort_unstable();
            radix_sort_u64(&mut v);
            prop_assert_eq!(v, expected);
        }

        #[test]
        fn prop_radix_sorts_edge_keys(
            edges in proptest::collection::vec((0u64..20_000, 0u64..20_000), 0..500),
        ) {
            // Edge-shaped keys (`dst << 32 | src` over small VIDs) leave the
            // high digits of both halves constant.
            let mut keys: Vec<u64> = edges.iter().map(|&(dst, src)| (dst << 32) | src).collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            radix_sort_u64(&mut keys);
            prop_assert_eq!(keys, expected);
        }

        #[test]
        fn prop_radix_sorts_hub_heavy_edge_keys(
            edges in proptest::collection::vec((0u64..3, any::<u32>()), 0..2_000),
        ) {
            // A few destinations own every edge, as hubs do in power-law
            // graphs: their buckets outgrow the comparison-sort cutoff and
            // take in-place passes over the source digits.
            let mut keys: Vec<u64> =
                edges.iter().map(|&(dst, src)| (dst << 32) | u64::from(src)).collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            radix_sort_u64(&mut keys);
            prop_assert_eq!(keys, expected);
        }

        #[test]
        fn prop_radix_sorted_by_key_orders_a_permutation(
            items in proptest::collection::vec((0u64..1_000, 0u32..256), 0..1_000),
        ) {
            // Keys repeat, so only the key order and the multiset are fixed.
            let sorted = radix_sorted_by_key(&items, |&(key, _)| key << 20);
            prop_assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
            let (mut got, mut want) = (sorted, items);
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_merge_equals_sorted_concat(
            mut a in proptest::collection::vec(any::<u64>(), 0..100),
            mut b in proptest::collection::vec(any::<u64>(), 0..100),
        ) {
            a.sort_unstable();
            b.sort_unstable();
            let merged = merge_sorted(&a, &b);
            let mut expected = a.clone();
            expected.extend(&b);
            expected.sort_unstable();
            prop_assert_eq!(merged, expected);
        }

        #[test]
        fn prop_tree_merge_sorts_chunks(
            chunks in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 0..50), 0..16),
        ) {
            let sorted_chunks: Vec<Vec<u64>> = chunks.iter().map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            }).collect();
            let mut expected: Vec<u64> = chunks.concat();
            expected.sort_unstable();
            let (merged, _) = tree_merge(sorted_chunks);
            prop_assert_eq!(merged, expected);
        }
    }
}
