//! The Single-Cycle Reducer (SCR).
//!
//! Fig. 13b: an SCR pairs a comparator array — one 32-bit comparator per
//! lane, evaluating every element of the input window against a single
//! target — with a reducer tree. For the *reshaper* the reducer is an adder
//! tree collapsing the 1-bit comparator outputs into a count; for the
//! *reindexer* it is a filter tree of OR gates carrying `value + hit`
//! (32 + 1 bits) so a matching mapping entry survives to the root.
//!
//! Both trees are simulated layer by layer.

/// One SCR slot of a fixed comparator width.
///
/// # Examples
///
/// ```
/// use agnn_hw::scr::Scr;
///
/// let scr = Scr::new(8);
/// assert_eq!(scr.count_less_than(&[1, 4, 9, 4], 5), 3);
/// assert_eq!(scr.filter_lookup(&[(7, 0), (9, 1)], 9), Some(1));
/// assert_eq!(scr.filter_lookup(&[(7, 0), (9, 1)], 8), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scr {
    width: usize,
}

impl Scr {
    /// Creates an SCR slot.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two ≥ 2.
    pub fn new(width: usize) -> Self {
        assert!(
            width >= 2 && width.is_power_of_two(),
            "SCR width must be a power of two >= 2, got {width}"
        );
        Scr { width }
    }

    /// Comparators per window.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reshaper datapath: count window elements strictly below `target`.
    ///
    /// "The comparator subtracts the target from each element … the reducer,
    /// implemented as an adder tree, aggregates these results into one value
    /// that populates the pointer array" (§IV-C). The paper's comparator
    /// flags `element − target ≥ 0`; counting the complement (strictly
    /// smaller) is the quantity `pointer[v]` needs.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the comparator width.
    pub fn count_less_than(&self, window: &[u32], target: u32) -> u32 {
        self.count_less_than_in(window.iter().copied(), target, &mut Vec::new())
    }

    /// [`count_less_than`](Scr::count_less_than) reducing in `lanes`, a
    /// buffer the caller reuses across calls (its contents are replaced).
    pub(crate) fn count_less_than_in(
        &self,
        window: impl ExactSizeIterator<Item = u32>,
        target: u32,
        lanes: &mut Vec<u32>,
    ) -> u32 {
        assert!(window.len() <= self.width, "window exceeds SCR width");
        // Comparator array: one bit per lane.
        lanes.clear();
        lanes.extend(window.map(|e| u32::from(e < target)));
        // Adder tree: log2 layers of pairwise sums (width up to log n bits).
        reduce_tree(lanes, |a, b| a + b).unwrap_or(0)
    }

    /// Reindexer datapath: search the `(original, renumbered)` mapping
    /// window for `target`, returning the renumbered VID on a hit.
    ///
    /// "The reducer adopts a filter tree (OR gates) instead of an adder
    /// tree … the filter tree's bit width must match that of each element
    /// being filtered plus one (32+1 bits)" (§IV-C).
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the comparator width.
    pub fn filter_lookup(&self, window: &[(u32, u32)], target: u32) -> Option<u32> {
        self.filter_lookup_in(window, target, &mut Vec::new())
    }

    /// [`filter_lookup`](Scr::filter_lookup) reducing in `lanes`, a buffer
    /// the caller reuses across calls (its contents are replaced).
    pub(crate) fn filter_lookup_in(
        &self,
        window: &[(u32, u32)],
        target: u32,
        lanes: &mut Vec<(bool, u32)>,
    ) -> Option<u32> {
        assert!(window.len() <= self.width, "window exceeds SCR width");
        // Comparator array: lane carries (hit, value) — value gated to 0 on miss.
        lanes.clear();
        lanes.extend(window.iter().map(|&(original, renumbered)| {
            let hit = original == target;
            (hit, if hit { renumbered } else { 0 })
        }));
        // Filter tree: OR both the hit bit and the gated value.
        match reduce_tree(lanes, |(h, v), (ph, pv)| (h | ph, v | pv)) {
            Some((true, value)) => Some(value),
            _ => None,
        }
    }
}

/// Collapses `lanes` one tree level at a time, in place: lane `i` of the
/// next level combines lanes `2i` and `2i + 1` of this one, and an odd
/// last lane passes through. Returns the root (`None` for no lanes).
fn reduce_tree<T: Copy>(lanes: &mut Vec<T>, combine: impl Fn(T, T) -> T) -> Option<T> {
    while lanes.len() > 1 {
        let next = lanes.len().div_ceil(2);
        for i in 0..next {
            // Reads lanes 2i and 2i + 1 before writing lane i <= 2i.
            lanes[i] = match lanes.get(2 * i + 1) {
                Some(&right) => combine(lanes[2 * i], right),
                None => lanes[2 * i],
            };
        }
        lanes.truncate(next);
    }
    lanes.first().copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn count_boundaries() {
        let scr = Scr::new(8);
        assert_eq!(scr.count_less_than(&[], 5), 0);
        assert_eq!(scr.count_less_than(&[5, 5, 5], 5), 0, "strictly less");
        assert_eq!(scr.count_less_than(&[4, 5, 6], 5), 1);
        assert_eq!(scr.count_less_than(&[0; 8], 1), 8);
    }

    #[test]
    fn count_full_width_window() {
        let scr = Scr::new(4);
        assert_eq!(scr.count_less_than(&[1, 2, 3, 4], 10), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds SCR width")]
    fn oversized_window_panics() {
        Scr::new(2).count_less_than(&[1, 2, 3], 4);
    }

    #[test]
    fn lookup_hit_returns_mapped_value() {
        let scr = Scr::new(8);
        let window = [(10, 0), (20, 1), (30, 2)];
        assert_eq!(scr.filter_lookup(&window, 20), Some(1));
        assert_eq!(scr.filter_lookup(&window, 30), Some(2));
        assert_eq!(scr.filter_lookup(&window, 40), None);
        assert_eq!(scr.filter_lookup(&[], 1), None);
    }

    #[test]
    fn lookup_value_zero_is_distinguished_from_miss() {
        // The hit bit, not the value, signals success ("an indication of a
        // search hit", §IV-C).
        let scr = Scr::new(4);
        assert_eq!(scr.filter_lookup(&[(99, 0)], 99), Some(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_width() {
        Scr::new(3);
    }

    proptest! {
        #[test]
        fn prop_adder_tree_equals_filter_count(
            window in proptest::collection::vec(0u32..100, 0..64),
            target in 0u32..100,
        ) {
            let scr = Scr::new(64);
            let expected = window.iter().filter(|&&e| e < target).count() as u32;
            prop_assert_eq!(scr.count_less_than(&window, target), expected);
        }

        #[test]
        fn prop_filter_tree_finds_unique_entry(
            originals in proptest::collection::hash_set(0u32..1000, 0..32),
            target in 0u32..1000,
        ) {
            // Mapping windows hold unique originals by construction (the
            // reindexer only inserts on a miss).
            let window: Vec<(u32, u32)> = originals
                .iter()
                .enumerate()
                .map(|(i, &o)| (o, i as u32))
                .collect();
            let scr = Scr::new(32);
            let expected = window.iter().find(|&&(o, _)| o == target).map(|&(_, r)| r);
            prop_assert_eq!(scr.filter_lookup(&window, target), expected);
        }
    }
}
