//! Shared min-first ordering wrapper for `std::collections::BinaryHeap`.
//!
//! Several places in the workspace want a *min*-heap with deterministic
//! tie-breaking out of the standard library's *max*-heap: the ladder
//! queue's far-future tier orders by `(VirtualTime, seq)` (the runtime's
//! [`crate::EventQueue`] is a radix heap and stores no `seq`), the
//! Buchberger driver in `earth-algebra` orders critical pairs by
//! `(degree, lcm)`, the distributed Gröbner app keeps a per-node copy of
//! the same order, and `tests/queue_diff.rs` builds its reference heap
//! from it. Each used to hand-roll the reversed `Ord` boilerplate;
//! [`MinEntry`] is the one shared inversion.
//!
//! Ordering is by `(key, seq)` — smallest key first, smallest sequence
//! number among equal keys — and deliberately ignores `item`, so the
//! payload type needs no `Ord` (or even `Eq`) implementation.

use std::cmp::Ordering;

/// A `(key, seq, item)` triple whose `Ord` is reversed so that a
/// `BinaryHeap<MinEntry<K, T>>` pops the smallest `(key, seq)` first.
///
/// `seq` is a caller-assigned monotone counter that makes the order
/// total and reproducible: equal keys pop in insertion order.
#[derive(Clone, Copy, Debug)]
pub struct MinEntry<K, T> {
    /// Primary sort key (popped smallest-first).
    pub key: K,
    /// Insertion sequence number; breaks ties among equal keys.
    pub seq: u64,
    /// Carried payload; ignored by the ordering.
    pub item: T,
}

impl<K, T> MinEntry<K, T> {
    /// Wrap a payload with its sort key and tie-breaking sequence.
    pub fn new(key: K, seq: u64, item: T) -> Self {
        MinEntry { key, seq, item }
    }
}

impl<K: Ord, T> PartialEq for MinEntry<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}

impl<K: Ord, T> Eq for MinEntry<K, T> {}

impl<K: Ord, T> PartialOrd for MinEntry<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, T> Ord for MinEntry<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest first.
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn heap_pops_smallest_key_first() {
        let mut h = BinaryHeap::new();
        h.push(MinEntry::new(30u64, 0, "c"));
        h.push(MinEntry::new(10u64, 1, "a"));
        h.push(MinEntry::new(20u64, 2, "b"));
        assert_eq!(h.pop().map(|e| e.item), Some("a"));
        assert_eq!(h.pop().map(|e| e.item), Some("b"));
        assert_eq!(h.pop().map(|e| e.item), Some("c"));
    }

    #[test]
    fn equal_keys_pop_in_seq_order() {
        let mut h = BinaryHeap::new();
        for seq in 0..50u64 {
            h.push(MinEntry::new((7u64, 7u64), seq, seq));
        }
        for seq in 0..50u64 {
            assert_eq!(h.pop().map(|e| e.item), Some(seq));
        }
    }

    #[test]
    fn ordering_ignores_item() {
        // The item type implements neither Ord nor Eq.
        struct Opaque;
        let a = MinEntry::new(1u64, 0, Opaque);
        let b = MinEntry::new(2u64, 1, Opaque);
        assert!(a > b, "smaller key must rank higher in the max-heap");
    }
}
