//! The event queue.
//!
//! A `BinaryHeap` popping the earliest `(time, seq)` pair, where `seq`
//! is a monotone counter assigned at push, so same-timestamp events
//! replay in push order and every trace digest is bit-stable. The
//! serving runs hold about ten pending events at a time, so a plain
//! binary heap's `O(log n)` sifts cost a few nanoseconds per operation.
//!
//! # The key
//!
//! Each entry carries one `u128` key, `(time.to_bits() << 64) | seq`.
//! For finite, sign-positive `f64`s the IEEE-754 bit pattern orders
//! like the value (and like `f64::total_cmp`), so comparing keys
//! compares times first and push order second. [`EventQueue::push`]
//! rejects every other time (NaN, the infinities, negatives and `-0.0`).
//!
//! The same-timestamp contract — equal `time`, lower `seq` pops first —
//! is pinned by `tests::same_timestamp_events_pop_in_push_order` and a
//! proptest against a linear-scan oracle.
//!
//! # Deferred root removal
//!
//! Almost every event the simulator pops schedules at least one more, so
//! [`EventQueue::pop`] copies the root out and leaves it in place: the
//! next [`push`](EventQueue::push) overwrites it and sifts the new entry
//! down once, instead of a pop's sift plus a push's. A second pop with no
//! push between removes the stale root first. Keys are unique, so the
//! pop order is the `(time, seq)` order whatever the heap's shape.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event: the packed `(time, seq)` key and the caller's
/// payload.
#[derive(Debug)]
struct Entry<K> {
    key: u128,
    kind: K,
}

// Reversed on the key: `BinaryHeap` is a max-heap, and the earliest key
// must pop first. The payload never takes part in the order.
impl<K> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<K> Eq for Entry<K> {}

/// A priority queue popping events in exact global `(time, seq)` order,
/// where `seq` is assigned monotonically at [`push`](EventQueue::push)
/// (see the [module docs](self)).
#[derive(Debug)]
pub struct EventQueue<K> {
    heap: BinaryHeap<Entry<K>>,
    /// Next sequence number (total pushes so far).
    seq: u64,
    /// The heap's root was already returned by `pop` and awaits removal
    /// (see the [module docs](self)).
    popped_root: bool,
}

impl<K: Copy> Default for EventQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> EventQueue<K> {
    /// Bytes of one queued entry: the 16-byte key plus the payload, padded
    /// to the key's alignment. Every sift moves whole entries, so callers
    /// pin their payload's footprint against this.
    pub(crate) const ENTRY_BYTES: usize = std::mem::size_of::<Entry<K>>();

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.popped_root)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Copy> EventQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            popped_root: false,
        }
    }

    /// An empty queue; `width` is unused. Kept for callers written
    /// against the earlier calendar queue, which sized its buckets with it.
    pub fn with_width(_width: f64) -> Self {
        Self::new()
    }

    /// Schedules `kind` at `time`, assigning the next sequence number —
    /// among equal timestamps, earlier pushes pop earlier.
    ///
    /// # Panics
    ///
    /// Panics unless `time` is finite and sign-positive (`-0.0` is
    /// rejected): the packed key orders only those times correctly.
    pub fn push(&mut self, time: f64, kind: K) {
        assert!(
            time.is_finite() && time.is_sign_positive(),
            "event time {time} is not finite and sign-positive"
        );
        let key = (u128::from(time.to_bits()) << 64) | u128::from(self.seq);
        self.seq += 1;
        let entry = Entry { key, kind };
        if self.popped_root {
            self.popped_root = false;
            // `PeekMut` sifts the overwritten root down when it drops.
            *self.heap.peek_mut().expect("a popped root is still held") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// Removes and returns the earliest event as `(time, kind)` — exact
    /// global `(time, seq)` order, ties in push order.
    pub fn pop(&mut self) -> Option<(f64, K)> {
        if self.popped_root {
            self.popped_root = false;
            self.heap.pop();
        }
        let &Entry { key, kind } = self.heap.peek()?;
        self.popped_root = true;
        Some((f64::from_bits((key >> 64) as u64), kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The ordering oracle: pending `(time, seq, kind)` triples in a
    /// `Vec`, popped by a linear scan for the minimum
    /// `(time.total_cmp, seq)`.
    #[derive(Default)]
    struct LinearScan {
        pending: Vec<(f64, u64, usize)>,
        seq: u64,
    }

    impl LinearScan {
        fn push(&mut self, time: f64, kind: usize) {
            self.pending.push((time, self.seq, kind));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(f64, usize)> {
            let at = (0..self.pending.len()).min_by(|&a, &b| {
                let (ta, sa, _) = self.pending[a];
                let (tb, sb, _) = self.pending[b];
                ta.total_cmp(&tb).then(sa.cmp(&sb))
            })?;
            let (time, _, kind) = self.pending.swap_remove(at);
            Some((time, kind))
        }
    }

    /// Pops both queues and asserts they agree bit for bit; returns the
    /// popped time.
    fn pop_both(q: &mut EventQueue<usize>, oracle: &mut LinearScan) -> Option<f64> {
        let want = oracle.pop();
        assert_eq!(
            q.pop().map(|(t, k)| (t.to_bits(), k)),
            want.map(|(t, k)| (t.to_bits(), k))
        );
        want.map(|(t, _)| t)
    }

    #[test]
    fn same_timestamp_events_pop_in_push_order() {
        let mut q = EventQueue::new();
        q.push(1.0, "a");
        q.push(1.0, "b");
        q.push(0.5, "early");
        q.push(1.0, "c");
        assert_eq!(q.pop(), Some((0.5, "early")));
        // A tie pushed while draining still pops in push order.
        q.push(1.0, "d");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((1.0, "b")));
        assert_eq!(q.pop(), Some((1.0, "c")));
        assert_eq!(q.pop(), Some((1.0, "d")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn a_popped_root_is_replaced_or_removed() {
        let mut q = EventQueue::new();
        for (time, kind) in [(3.0, 'c'), (1.0, 'a'), (2.0, 'b')] {
            q.push(time, kind);
        }
        assert_eq!(q.pop(), Some((1.0, 'a')));
        assert_eq!(q.len(), 2);
        // The next push overwrites the popped root, even when it is the
        // new minimum.
        q.push(0.5, 'z');
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((0.5, 'z')));
        // Two pops in a row remove the stale root in between.
        assert_eq!(q.pop(), Some((2.0, 'b')));
        assert_eq!(q.pop(), Some((3.0, 'c')));
        assert_eq!(q.len(), 0);
        q.push(4.0, 'd');
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((4.0, 'd')));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::<u32>::new();
        assert!(q.is_empty());
        for i in 0..100 {
            q.push(i as f64 * 3.0, i);
        }
        assert_eq!(q.len(), 100);
        for _ in 0..40 {
            q.pop();
        }
        assert_eq!(q.len(), 60);
    }

    #[test]
    fn push_rejects_times_that_are_not_finite_and_sign_positive() {
        for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.0] {
            let rejected = std::panic::catch_unwind(|| EventQueue::new().push(time, ()));
            assert!(rejected.is_err(), "push accepted {time}");
        }
        let mut q = EventQueue::new();
        q.push(0.0, ());
        q.push(f64::MIN_POSITIVE / 2.0, ()); // subnormal
        q.push(f64::MAX, ());
        assert_eq!(q.len(), 3);
    }

    proptest! {
        /// On random streams — heavy same-timestamp ties, ties pushed
        /// while draining, pops interleaved with pushes — the queue pops
        /// bit for bit the linear-scan oracle's `(time, seq)` order.
        #[test]
        fn pops_the_linear_scan_minimum_on_random_streams(
            seed in proptest::any::<u64>(),
            pops_permille in 100usize..1500,
            n in 1usize..400,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pops_per_push = pops_permille as f64 / 1000.0;
            let mut q = EventQueue::new();
            let mut oracle = LinearScan::default();
            // Pushes land at or after the latest pop, as in the simulator.
            let mut now = 0.0f64;
            for i in 0..n {
                let delta = match rng.gen_range(0..8u32) {
                    0..=3 => 0.0,                         // tie with `now`
                    4 => rng.gen_range(1..4u32) as f64,   // tie among pushes
                    5 => rng.gen::<f64>() * 1e-9,         // near-tie
                    _ => rng.gen::<f64>() * 100.0,
                };
                q.push(now + delta, i);
                oracle.push(now + delta, i);
                if rng.gen::<f64>() < pops_per_push {
                    if let Some(t) = pop_both(&mut q, &mut oracle) {
                        now = t;
                    }
                }
            }
            while pop_both(&mut q, &mut oracle).is_some() {}
            prop_assert!(q.is_empty());
        }
    }
}
