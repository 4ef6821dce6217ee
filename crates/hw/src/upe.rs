//! The Unified Processing Element (UPE).
//!
//! Fig. 12: each UPE integrates a *prefix-sum logic* — a hierarchical adder
//! network producing the displacement array in `O(log n)` layers — an
//! AND-gate mask clearing condition-failing elements, and a *relocation
//! logic* of `O(log n)` routing layers whose 2:1 muxes shift elements
//! leftward by power-of-two distances. Composed, these execute one
//! set-partitioning pass per cycle, which §IV-C builds radix sort, merging
//! and uni-random extraction on.
//!
//! The simulation is structural: every layer of every network is evaluated
//! explicitly, and the router asserts the paper's implicit claim that
//! compaction displacements never make two elements contend for one mux.

/// One UPE instance of a fixed width (a power of two).
///
/// # Examples
///
/// ```
/// use agnn_hw::upe::Upe;
///
/// let upe = Upe::new(8);
/// let values = [10, 11, 12, 13, 14, 15, 16, 17];
/// let cond = [false, true, false, false, true, true, false, false];
/// assert_eq!(upe.set_partition(&values, &cond), vec![11, 14, 15]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Upe {
    width: usize,
}

impl Upe {
    /// Creates a UPE.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two ≥ 2.
    pub fn new(width: usize) -> Self {
        assert!(
            width >= 2 && width.is_power_of_two(),
            "UPE width must be a power of two >= 2, got {width}"
        );
        Upe { width }
    }

    /// Elements processed per pass.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of adder / routing layers (`log2(width)`).
    pub fn depth(&self) -> u32 {
        self.width.trailing_zeros()
    }

    /// The prefix-sum logic (Fig. 12b): inclusive prefix sums of the boolean
    /// condition array, evaluated as `log2(w)` explicit adder layers
    /// (Hillis–Steele: layer `j` adds the value `2^j` lanes to the left).
    ///
    /// # Panics
    ///
    /// Panics if `cond` exceeds the UPE width.
    pub fn prefix_sum_network(&self, cond: &[bool]) -> Vec<u32> {
        assert!(cond.len() <= self.width, "input exceeds UPE width");
        let mut sums: Vec<u32> = cond.iter().map(|&c| u32::from(c)).collect();
        let mut stride = 1;
        while stride < self.width {
            // High lanes first, so each lane still reads the previous
            // layer's value `stride` lanes to its left.
            for lane in (stride..sums.len()).rev() {
                sums[lane] += sums[lane - stride];
            }
            stride <<= 1;
        }
        sums
    }

    /// The full set-partition pass: prefix-sum network → AND mask →
    /// relocation router. Returns the condition-true elements compacted to
    /// the front, in input order.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or exceed the UPE width.
    pub fn set_partition(&self, values: &[u64], cond: &[bool]) -> Vec<u64> {
        assert_eq!(values.len(), cond.len(), "condition array length mismatch");
        let inclusive = self.prefix_sum_network(cond);
        let kept = inclusive.last().copied().unwrap_or(0) as usize;

        // AND-gate mask + displacement per lane: a kept element at lane `i`
        // with rank `inclusive[i] - 1` must shift left by `i - rank`.
        let mut lanes: Vec<Option<(u64, usize)>> = values
            .iter()
            .zip(cond)
            .enumerate()
            .map(|(lane, (&value, &keep))| {
                keep.then(|| (value, lane - (inclusive[lane] as usize - 1)))
            })
            .collect();

        // Relocation router (Fig. 12c): one layer per displacement bit, LSB
        // first; each mux lane accepts at most one element per layer.
        let mut next: Vec<Option<(u64, usize)>> = vec![None; lanes.len()];
        for layer in 0..self.depth() {
            let shift = 1usize << layer;
            next.fill(None);
            for (lane, slot) in lanes.iter().enumerate() {
                if let Some((value, disp)) = *slot {
                    let (target, rest) = if disp & shift != 0 {
                        (lane - shift, disp & !shift)
                    } else {
                        (lane, disp)
                    };
                    assert!(
                        next[target].is_none(),
                        "relocation mux contention at lane {target}"
                    );
                    next[target] = Some((value, rest));
                }
            }
            std::mem::swap(&mut lanes, &mut next);
        }

        lanes[..kept]
            .iter()
            .map(|lane| lane.expect("compacted lane populated").0)
            .collect()
    }

    /// Extracts the single element at `position` via a one-hot condition —
    /// the uni-random selection datapath ("draws a new random index … to
    /// create a one-hot condition for that index, and let the UPEs run
    /// set-partitioning to extract the chosen element in a single cycle",
    /// §V-A, Fig. 16).
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of bounds.
    pub fn extract_one_hot(&self, values: &[u64], position: usize) -> u64 {
        assert!(position < values.len(), "one-hot position out of bounds");
        let cond: Vec<bool> = (0..values.len()).map(|lane| lane == position).collect();
        let extracted = self.set_partition(values, &cond);
        extracted[0]
    }

    /// Sorts one chunk (≤ width elements) by binary LSD radix using one
    /// set-partition pass per significant key bit: zeros are compacted to
    /// the front and ones appended, preserving stability (§IV-A: radix
    /// sort's "digit-wise passes are precisely set-partitioning").
    ///
    /// Returns the sorted chunk and the number of partition passes (cycles).
    pub fn radix_sort_chunk(&self, chunk: &[u64]) -> (Vec<u64>, u64) {
        assert!(chunk.len() <= self.width, "chunk exceeds UPE width");
        if chunk.len() <= 1 {
            return (chunk.to_vec(), 0);
        }
        let max = chunk.iter().copied().max().expect("non-empty");
        let significant_bits = 64 - max.leading_zeros();
        let mut keys = chunk.to_vec();
        let mut passes = 0u64;
        for bit in 0..significant_bits {
            let zero_cond: Vec<bool> = keys.iter().map(|k| (k >> bit) & 1 == 0).collect();
            let one_cond: Vec<bool> = zero_cond.iter().map(|&z| !z).collect();
            let mut next = self.set_partition(&keys, &zero_cond);
            next.extend(self.set_partition(&keys, &one_cond));
            keys = next;
            passes += 1;
        }
        (keys, passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prefix_network_equals_scan() {
        let upe = Upe::new(16);
        let cond = [
            true, false, true, true, false, false, true, false, true, true, true, false, false,
            true, false, true,
        ];
        let flags: Vec<u32> = cond.iter().map(|&c| u32::from(c)).collect();
        assert_eq!(
            upe.prefix_sum_network(&cond),
            agnn_algo::scan::inclusive_prefix_sum(&flags)
        );
    }

    #[test]
    fn prefix_network_handles_partial_input() {
        let upe = Upe::new(8);
        assert_eq!(upe.prefix_sum_network(&[true, true, false]), vec![1, 2, 2]);
        assert!(upe.prefix_sum_network(&[]).is_empty());
    }

    #[test]
    fn partition_all_and_none() {
        let upe = Upe::new(4);
        let values = [7, 8, 9, 10];
        assert_eq!(upe.set_partition(&values, &[true; 4]), vec![7, 8, 9, 10]);
        assert!(upe.set_partition(&values, &[false; 4]).is_empty());
    }

    #[test]
    fn one_hot_extraction_returns_each_position() {
        let upe = Upe::new(8);
        let values = [50, 51, 52, 53, 54];
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(upe.extract_one_hot(&values, i), v);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn one_hot_out_of_bounds_panics() {
        Upe::new(4).extract_one_hot(&[1, 2], 2);
    }

    #[test]
    fn radix_chunk_sorts_and_counts_passes() {
        let upe = Upe::new(8);
        let chunk = [6u64, 1, 7, 3, 0, 5, 2, 4];
        let (sorted, passes) = upe.radix_sort_chunk(&chunk);
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(passes, 3, "max key 7 has 3 significant bits");
    }

    #[test]
    fn radix_chunk_trivial_inputs() {
        let upe = Upe::new(8);
        assert_eq!(upe.radix_sort_chunk(&[]), (vec![], 0));
        assert_eq!(upe.radix_sort_chunk(&[9]), (vec![9], 0));
        assert_eq!(upe.radix_sort_chunk(&[0, 0, 0]), (vec![0, 0, 0], 0));
    }

    #[test]
    fn radix_chunk_is_stable_on_equal_keys() {
        // Stability is what makes LSD radix correct; equal keys cannot be
        // distinguished in the output, but the multi-bit path must still
        // sort correctly with duplicates present.
        let upe = Upe::new(8);
        let chunk = [5u64, 3, 5, 3, 1];
        let (sorted, _) = upe.radix_sort_chunk(&chunk);
        assert_eq!(sorted, vec![1, 3, 3, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_width() {
        Upe::new(12);
    }

    #[test]
    #[should_panic(expected = "exceeds UPE width")]
    fn rejects_oversized_chunk() {
        Upe::new(4).radix_sort_chunk(&[1, 2, 3, 4, 5]);
    }

    proptest! {
        #[test]
        fn prop_partition_network_equals_software_filter(
            values in proptest::collection::vec(any::<u64>(), 0..64),
            mask in any::<u64>(),
        ) {
            let upe = Upe::new(64);
            let cond: Vec<bool> = (0..values.len()).map(|i| mask >> i & 1 == 1).collect();
            let expected: Vec<u64> = values
                .iter()
                .zip(&cond)
                .filter(|(_, &c)| c)
                .map(|(&v, _)| v)
                .collect();
            prop_assert_eq!(upe.set_partition(&values, &cond), expected);
        }

        #[test]
        fn prop_radix_chunk_equals_std_sort(
            chunk in proptest::collection::vec(any::<u64>(), 0..32),
        ) {
            let upe = Upe::new(32);
            let (sorted, _) = upe.radix_sort_chunk(&chunk);
            let mut expected = chunk.clone();
            expected.sort_unstable();
            prop_assert_eq!(sorted, expected);
        }

        #[test]
        fn prop_prefix_network_matches_scan(
            cond in proptest::collection::vec(any::<bool>(), 0..128),
        ) {
            let upe = Upe::new(128);
            let flags: Vec<u32> = cond.iter().map(|&c| u32::from(c)).collect();
            prop_assert_eq!(
                upe.prefix_sum_network(&cond),
                agnn_algo::scan::inclusive_prefix_sum(&flags)
            );
        }
    }
}
