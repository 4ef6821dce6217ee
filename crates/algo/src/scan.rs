//! Prefix sums and set-partitioning.
//!
//! §IV-A observes that every GNN preprocessing task reduces to one of two
//! primitives: **set-partitioning** ("divides a given array … into two
//! disjoint subsets by evaluating each element", implemented by relocating
//! elements according to prefix-sum results, Fig. 8) and **set-counting**
//! ("examines all elements in a set against a specified condition and counts
//! the number that satisfy it", Fig. 9). Set-counting has no standalone
//! routine: [`crate::reshape::pointer_array_set_counting`] and
//! [`crate::reindex::reindex_set_counting`] apply it where it is used.

/// Inclusive prefix sum: `out[i] = in[0] + … + in[i]`.
///
/// # Examples
///
/// ```
/// use agnn_algo::scan::inclusive_prefix_sum;
///
/// assert_eq!(inclusive_prefix_sum(&[1, 0, 1, 1]), vec![1, 1, 2, 3]);
/// ```
pub fn inclusive_prefix_sum(values: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0u32;
    for &v in values {
        acc += v;
        out.push(acc);
    }
    out
}

/// Stable set-partition: splits `items` into (condition-true, condition-false)
/// subsets, each preserving input order — the semantics of one UPE pass.
///
/// # Examples
///
/// ```
/// use agnn_algo::scan::set_partition;
///
/// let (even, odd) = set_partition(&[1, 2, 3, 4], |&x| x % 2 == 0);
/// assert_eq!(even, vec![2, 4]);
/// assert_eq!(odd, vec![1, 3]);
/// ```
pub fn set_partition<T: Copy>(items: &[T], mut cond: impl FnMut(&T) -> bool) -> (Vec<T>, Vec<T>) {
    let mut yes = Vec::new();
    let mut no = Vec::new();
    for &item in items {
        if cond(&item) {
            yes.push(item);
        } else {
            no.push(item);
        }
    }
    (yes, no)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prefix_sums_of_empty_are_empty() {
        assert!(inclusive_prefix_sum(&[]).is_empty());
    }

    #[test]
    fn partition_keeps_relative_order() {
        let (yes, no) = set_partition(&[5, 1, 4, 2, 3], |&x| x >= 3);
        assert_eq!(yes, vec![5, 4, 3]);
        assert_eq!(no, vec![1, 2]);
    }

    proptest! {
        #[test]
        fn prop_prefix_sum_total_equals_sum(v in proptest::collection::vec(0u32..100, 0..200)) {
            let inc = inclusive_prefix_sum(&v);
            let total: u32 = v.iter().sum();
            prop_assert_eq!(inc.last().copied().unwrap_or(0), total);
        }

        #[test]
        fn prop_partition_is_a_permutation(
            v in proptest::collection::vec(0u64..1000, 0..200),
            threshold in 0u64..1000,
        ) {
            let (yes, no) = set_partition(&v, |&x| x < threshold);
            let mut recombined = yes.clone();
            recombined.extend(&no);
            let mut sorted_in = v.clone();
            sorted_in.sort_unstable();
            recombined.sort_unstable();
            prop_assert_eq!(recombined, sorted_in);
            prop_assert!(yes.iter().all(|&x| x < threshold));
            prop_assert!(no.iter().all(|&x| x >= threshold));
        }
    }
}
