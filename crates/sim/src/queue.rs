//! Timestamped event queue with a total, reproducible order.
//!
//! Events pop earliest time first and, among equal times, in push order.
//! That order makes whole-simulation traces a pure function of (program,
//! seed), and every report and golden depends on it alone.
//!
//! The queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin and
//! Tarjan, "Faster algorithms for the shortest path problem", JACM 1990)
//! keyed on the event time in ns. `last` is the time of the last pop:
//!
//! * `now` holds the events at exactly `last`, as a FIFO;
//! * `later[k]` holds the events whose highest bit that differs from
//!   `last` is bit `k`. All of them are later than every event in
//!   `later[j]` for `j < k`, and one bit of `occupied` per bucket finds
//!   the lowest non-empty one.
//!
//! A pop takes the front of `now`. When `now` is empty, it first moves
//! the lowest non-empty bucket's minimum into `last` and redistributes
//! that bucket around it; each entry lands in `now` or in a lower bucket,
//! and the buckets above keep their index. Events with equal times always
//! share a bucket, and every bucket keeps push order, so ties pop in push
//! order without a stored sequence number: an entry is `(time, event)`,
//! 24 bytes for the runtime's 16-byte `Event`.
//!
//! The runtime never pushes earlier than its last pop. Other callers may:
//! such a push takes a cold path that re-buckets every queued event
//! around the new, earlier `last`, in time linear in the queue's length.
//! So the queue pops exactly what a `(time, seq)` binary heap pops for
//! any push sequence (`tests/queue_diff.rs` checks that, and checks the
//! ladder queue in [`crate::ladder`] against the same heap). Drained
//! buckets keep their allocations: freeing them costs more time than
//! the memory is worth.

use crate::time::VirtualTime;
use std::collections::VecDeque;

/// A deterministic priority queue of `(VirtualTime, E)` pairs.
pub struct EventQueue<E> {
    /// The events at exactly `last`, in push order.
    now: VecDeque<(VirtualTime, E)>,
    /// `later[k]`: the events whose time's highest bit differing from
    /// `last` is bit `k`, in push order among equal times.
    later: [Vec<(VirtualTime, E)>; 64],
    /// Bit `k` is set exactly when `later[k]` is non-empty.
    occupied: u64,
    /// Time of the last pop (or of the earliest past-time push since).
    last: VirtualTime,
    len: usize,
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
            now: VecDeque::new(),
            later: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: VirtualTime::ZERO,
            len: 0,
            peak: 0,
        }
    }

    /// Schedule `event` at `time`. Events pushed at equal times pop in
    /// push order.
    pub fn push(&mut self, time: VirtualTime, event: E) {
        if time < self.last {
            self.rebase(time);
        }
        self.place(time, event);
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        if self.now.is_empty() {
            self.refill();
        }
        let e = self.now.pop_front()?;
        self.len -= 1;
        Some(e)
    }

    /// Timestamp of the earliest event without removing it. When no
    /// event sits at the last popped time this scans one bucket.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        if !self.now.is_empty() {
            return Some(self.last);
        }
        let k = self.lowest()?;
        self.later[k].iter().map(|e| e.0).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of events ever pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Append `event` to the bucket of `time`, which is not before `last`.
    fn place(&mut self, time: VirtualTime, event: E) {
        let diff = time.as_ns() ^ self.last.as_ns();
        if diff == 0 {
            self.now.push_back((time, event));
        } else {
            let k = diff.ilog2() as usize;
            self.later[k].push((time, event));
            self.occupied |= 1 << k;
        }
    }

    /// Index of the lowest non-empty `later` bucket.
    fn lowest(&self) -> Option<usize> {
        (self.occupied != 0).then(|| self.occupied.trailing_zeros() as usize)
    }

    /// `now` is empty: make the lowest bucket's minimum the new `last`
    /// and spread that bucket around it, in its own order.
    fn refill(&mut self) {
        let Some(k) = self.lowest() else {
            return;
        };
        self.occupied &= !(1 << k);
        let mut bucket = std::mem::take(&mut self.later[k]);
        self.last = bucket
            .iter()
            .map(|e| e.0)
            .min()
            .expect("occupied bucket is empty");
        for (time, event) in bucket.drain(..) {
            self.place(time, event);
        }
        self.later[k] = bucket;
    }

    /// A push at `time`, before `last`: make `time` the new `last` and
    /// re-bucket every queued event around it. Each bucket moves whole
    /// and in order, and equal times share a bucket, so push order among
    /// ties survives.
    #[cold]
    #[inline(never)]
    fn rebase(&mut self, time: VirtualTime) {
        let mut all: Vec<(VirtualTime, E)> = self.now.drain(..).collect();
        for bucket in &mut self.later {
            all.append(bucket);
        }
        self.occupied = 0;
        self.last = time;
        for (t, event) in all {
            self.place(t, event);
        }
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
