//! Timestamped event queue with a total, reproducible order.
//!
//! `BinaryHeap` alone is not enough for a deterministic simulator: two
//! events at the same virtual instant would pop in an unspecified order.
//! Every pushed event therefore carries a monotonically increasing sequence
//! number, and the queue orders by `(time, seq)` — earliest time first,
//! insertion order among ties. This makes whole-simulation traces a pure
//! function of (program, seed).
//!
//! This is the runtime's only event queue, and the oracle that the ladder
//! queue in [`crate::ladder`] is differentially checked against. The heap
//! beats the ladder on the runtime's own event streams, where most pushes
//! land near "now" and the ladder pays a sorted `Vec::insert` for each;
//! [`crate::ladder`] has the measurements.

use crate::order::MinEntry;
use crate::time::VirtualTime;
use std::collections::BinaryHeap;

/// A deterministic priority queue of `(VirtualTime, E)` pairs.
pub struct EventQueue<E> {
    heap: BinaryHeap<MinEntry<VirtualTime, E>>,
    next_seq: u64,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            peak: 0,
        }
    }

    /// Schedule `event` at `time`. Events pushed at equal times pop in
    /// push order.
    pub fn push(&mut self, time: VirtualTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(MinEntry::new(time, seq, event));
        if self.heap.len() > self.peak {
            self.peak = self.heap.len();
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        self.heap.pop().map(|e| (e.key, e.item))
    }

    /// Timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|e| e.key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of events ever pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualDuration;

    fn t(us: u64) -> VirtualTime {
        VirtualTime::ZERO + VirtualDuration::from_us(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(10), 1);
        q.push(t(5), 0);
        assert_eq!(q.pop(), Some((t(5), 0)));
        q.push(t(7), 2);
        assert_eq!(q.pop(), Some((t(7), 2)));
        assert_eq!(q.pop(), Some((t(10), 1)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(9), ());
        q.push(t(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(3)));
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.push(t(1), 0);
        q.push(t(2), 1);
        q.push(t(3), 2);
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        q.push(t(4), 3);
        // Depth never exceeded 3 again.
        assert_eq!(q.peak_len(), 3);
    }
}
