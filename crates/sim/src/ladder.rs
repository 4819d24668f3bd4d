//! Ladder event queue, kept only for the benchmark's queue-hold probe.
//!
//! The runtime does not schedule on this queue: it runs on
//! [`EventQueue`], now a monotone radix heap. On the simulator's own
//! event streams the ladder lost to the binary heap before it. Most
//! runtime pushes land inside the active slice and binary-insert into
//! the sorted `bottom` tier, so each one shifts hundreds of 96-byte
//! entries (Katsura-3 on 1024 nodes: 2.91M of 3.31M pushes, 314 entries
//! shifted on average), and every rung bucket keeps a `bottom`-sized
//! allocation after its swap. The heap pops the same events in the same
//! order, and perfbench's `scale_1024` workload runs 4× faster on it.
//!
//! [`LadderQueue`] stays public because perfbench's `sim.hold_ns_per_op`
//! probe names it. It goes, together with its differential suite, once
//! that probe times [`EventQueue`] instead.
//!
//! Three tiers:
//!
//! * **bottom** — the events of the currently active slice, sorted by
//!   `(time, seq)` (stored in descending order so `pop` is a `Vec::pop`
//!   from the tail). Pushes that land inside the active slice
//!   binary-insert here; because new events carry the largest sequence
//!   number, they slot in right next to the tail for same-instant
//!   bursts, so the common "wake myself at `now`" push is O(1).
//! * **rung** — `NUM_BUCKETS` unsorted buckets spanning the window
//!   `[win_lo, win_hi)`, each `bucket_w` ns wide. Near-future pushes
//!   append to a bucket in O(1). When the bottom drains, the next
//!   non-empty bucket is sorted once and *becomes* the bottom (a
//!   `mem::swap`, reusing both allocations).
//! * **top** — a `BinaryHeap` holding far-future events (`t >= win_hi`).
//!   When bottom and rung are both empty, the next `SPAN_TARGET`
//!   events (plus all ties with the last timestamp) are pulled out of
//!   the heap to build a fresh window.
//!
//! Determinism: every tier orders by `(time, seq)`, which is the order
//! [`EventQueue`] pops in (earliest time, then push order), and the tier
//! boundaries only ever separate events whose keys already order them
//! (an event in the rung at `t < win_hi` precedes every heap event at
//! `t >= win_hi`; ties at a saturated `win_hi` are resolved by `seq`,
//! and later pushes always have larger `seq`). The differential suite in
//! `tests/queue_diff.rs` checks both queues pop for pop against a
//! reference `(time, seq)` binary heap on adversarial workloads.

use crate::order::MinEntry;
#[cfg(doc)]
use crate::queue::EventQueue;
use crate::time::VirtualTime;
use std::collections::BinaryHeap;

/// Number of rung buckets per window.
const NUM_BUCKETS: usize = 64;

/// Events pulled from the far-future heap per re-span.
const SPAN_TARGET: usize = 2048;

type Entry<E> = MinEntry<VirtualTime, E>;

/// Ceiling division without the `a + b - 1` overflow hazard.
fn div_ceil(a: u64, b: u64) -> u64 {
    a / b + u64::from(!a.is_multiple_of(b))
}

/// A deterministic ladder/calendar queue, pop-for-pop identical to
/// [`EventQueue`].
pub struct LadderQueue<E> {
    /// Active slice, sorted by `(time, seq)` descending; popped from
    /// the tail.
    bottom: Vec<Entry<E>>,
    /// Unsorted buckets covering `[win_lo, win_hi)`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Total events currently in the rung buckets.
    rung_len: usize,
    /// Next bucket index to activate.
    cursor: usize,
    win_lo: u64,
    /// Exclusive upper bound of the rung window.
    win_hi: u64,
    bucket_w: u64,
    /// Exclusive bound of the bottom band: pushes below it must
    /// binary-insert into `bottom` to keep the pop order total.
    active_hi: u64,
    has_window: bool,
    /// Far-future events (`t >= win_hi`).
    top: BinaryHeap<Entry<E>>,
    /// Re-span scratch; kept to reuse its allocation.
    staging: Vec<Entry<E>>,
    next_seq: u64,
    len: usize,
    peak: usize,
}

impl<E> Default for LadderQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LadderQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        LadderQueue {
            bottom: Vec::new(),
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            rung_len: 0,
            cursor: 0,
            win_lo: 0,
            win_hi: 0,
            bucket_w: 1,
            active_hi: 0,
            has_window: false,
            top: BinaryHeap::new(),
            staging: Vec::new(),
            next_seq: 0,
            len: 0,
            peak: 0,
        }
    }

    /// Schedule `event` at `time`. Events pushed at equal times pop in
    /// push order.
    pub fn push(&mut self, time: VirtualTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
        let t = time.as_ns();
        let e = MinEntry::new(time, seq, event);
        if self.has_window && t < self.active_hi {
            // The new entry has the largest seq, so within its time
            // class it pops last — in the descending bottom order it
            // goes before the suffix of equal-or-earlier times.
            let idx = self.bottom.partition_point(|x| x.key.as_ns() > t);
            self.bottom.insert(idx, e);
        } else if self.has_window && t < self.win_hi {
            let b = (((t - self.win_lo) / self.bucket_w) as usize).min(NUM_BUCKETS - 1);
            debug_assert!(b >= self.cursor.min(NUM_BUCKETS - 1));
            self.buckets[b].push(e);
            self.rung_len += 1;
        } else {
            self.top.push(e);
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        self.settle();
        let e = self.bottom.pop()?;
        self.len -= 1;
        Some((e.key, e.item))
    }

    /// Timestamp of the earliest event without removing it. Takes
    /// `&mut self` because it may promote events between tiers (the
    /// observable state is unchanged).
    pub fn peek_time(&mut self) -> Option<VirtualTime> {
        self.settle();
        self.bottom.last().map(|e| e.key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of events ever pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Drop all pending events; `total_scheduled` and `peak_len` keep
    /// counting across the clear, like the reference queue.
    pub fn clear(&mut self) {
        self.bottom.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.rung_len = 0;
        self.cursor = 0;
        self.has_window = false;
        self.top.clear();
        self.staging.clear();
        self.len = 0;
    }

    /// Ensure the earliest pending event (if any) sits at the tail of
    /// `bottom`, activating buckets / re-spanning as needed.
    fn settle(&mut self) {
        while self.bottom.is_empty() {
            if self.rung_len > 0 {
                self.activate_next_bucket();
            } else if !self.top.is_empty() {
                self.respan();
            } else {
                return;
            }
        }
    }

    /// Sort the next non-empty bucket and make it the bottom slice.
    fn activate_next_bucket(&mut self) {
        debug_assert!(self.bottom.is_empty() && self.rung_len > 0);
        while self.buckets[self.cursor].is_empty() {
            self.cursor += 1;
        }
        let idx = self.cursor;
        self.cursor += 1;
        self.rung_len -= self.buckets[idx].len();
        // `bottom` is empty: the swap hands its spare capacity back to
        // the bucket for the next window — no allocation either way.
        std::mem::swap(&mut self.bottom, &mut self.buckets[idx]);
        // Descending (time, seq): seqs are unique, so unstable is fine.
        self.bottom
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.key, e.seq)));
        // Saturating throughout: a window spanning nearly the full time
        // axis (e.g. a near-zero event plus a MAX sentinel) makes
        // `bucket_w` large enough that `cursor * bucket_w` alone can
        // exceed u64; the `min(win_hi)` clamp makes saturation exact.
        self.active_hi = self
            .win_lo
            .saturating_add((self.cursor as u64).saturating_mul(self.bucket_w))
            .min(self.win_hi);
    }

    /// Build a fresh window from the far-future heap.
    fn respan(&mut self) {
        debug_assert!(self.bottom.is_empty() && self.rung_len == 0);
        debug_assert!(self.staging.is_empty() && !self.top.is_empty());
        while self.staging.len() < SPAN_TARGET {
            match self.top.pop() {
                Some(e) => self.staging.push(e),
                None => break,
            }
        }
        // Keep whole time classes together: pull every remaining tie
        // with the last timestamp so the window boundary never splits
        // equal times (heap pops ties in seq order).
        let last = self.staging.last().expect("respan pulled events").key;
        while self.top.peek().is_some_and(|e| e.key == last) {
            let e = self.top.pop().expect("peeked entry");
            self.staging.push(e);
        }
        let lo = self
            .staging
            .first()
            .expect("respan pulled events")
            .key
            .as_ns();
        self.win_lo = lo;
        self.win_hi = last.as_ns().saturating_add(1);
        let span = (self.win_hi - lo).max(1);
        self.bucket_w = div_ceil(span, NUM_BUCKETS as u64).max(1);
        self.cursor = 0;
        self.active_hi = self.win_lo;
        self.has_window = true;
        for e in self.staging.drain(..) {
            let b = (((e.key.as_ns() - lo) / self.bucket_w) as usize).min(NUM_BUCKETS - 1);
            self.buckets[b].push(e);
            self.rung_len += 1;
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
        let mut q = LadderQueue::new();
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
        let mut q = LadderQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = LadderQueue::new();
        q.push(t(10), 1);
        q.push(t(5), 0);
        assert_eq!(q.pop(), Some((t(5), 0)));
        q.push(t(7), 2);
        assert_eq!(q.pop(), Some((t(7), 2)));
        assert_eq!(q.pop(), Some((t(10), 1)));
    }

    #[test]
    fn past_time_push_pops_first() {
        let mut q = LadderQueue::new();
        for i in 0..10 {
            q.push(t(100 + i), i);
        }
        assert_eq!(q.pop(), Some((t(100), 0)));
        // A push earlier than everything already windowed.
        q.push(t(1), 99);
        assert_eq!(q.pop(), Some((t(1), 99)));
        assert_eq!(q.pop(), Some((t(101), 1)));
    }

    #[test]
    fn same_instant_burst_into_active_slice() {
        let mut q = LadderQueue::new();
        q.push(t(10), 0);
        q.push(t(20), 1);
        assert_eq!(q.pop(), Some((t(10), 0)));
        // Burst at the already-activated instant 10.
        for i in 2..20 {
            q.push(t(10), i);
        }
        for i in 2..20 {
            assert_eq!(q.pop(), Some((t(10), i)));
        }
        assert_eq!(q.pop(), Some((t(20), 1)));
    }

    #[test]
    fn survives_many_respans() {
        // More events than one SPAN_TARGET window, spread widely so
        // multiple re-spans and bucket activations happen.
        let mut q = LadderQueue::new();
        let n = 3 * SPAN_TARGET as u64;
        for i in 0..n {
            // Deterministic shuffle of the time axis.
            let time = (i * 2_654_435_761) % 100_000;
            q.push(t(time), i);
        }
        let mut prev = (VirtualTime::ZERO, 0u64);
        let mut popped = 0;
        while let Some((time, _)) = q.pop() {
            assert!(time >= prev.0);
            prev = (time, prev.1);
            popped += 1;
        }
        assert_eq!(popped, n);
    }

    #[test]
    fn max_time_sentinel_orders_after_everything() {
        let mut q = LadderQueue::new();
        q.push(VirtualTime::MAX, "idle-forever");
        q.push(t(1), "real");
        assert_eq!(q.pop(), Some((t(1), "real")));
        // A second MAX push while the first is windowed: seq order.
        q.push(VirtualTime::MAX, "idle-later");
        assert_eq!(q.pop(), Some((VirtualTime::MAX, "idle-forever")));
        assert_eq!(q.pop(), Some((VirtualTime::MAX, "idle-later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_axis_respan_window_does_not_overflow() {
        // Regression: t=0 and a MAX sentinel in the same re-span make
        // the window span the whole time axis (bucket_w = 2^58), and
        // activating the last bucket used to compute
        // `64 * bucket_w = 2^64`, overflowing u64 (debug panic,
        // release wrap corrupting `active_hi`).
        let mut q = LadderQueue::new();
        q.push(VirtualTime::ZERO, "now");
        q.push(VirtualTime::MAX, "idle-forever");
        assert_eq!(q.pop(), Some((VirtualTime::ZERO, "now")));
        // In-window push after the overflow-prone bucket activation
        // must still order correctly.
        q.push(t(5), "late");
        assert_eq!(q.pop(), Some((t(5), "late")));
        assert_eq!(q.pop(), Some((VirtualTime::MAX, "idle-forever")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_len_clear_and_counters() {
        let mut q = LadderQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(9), ());
        q.push(t(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(3)));
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.peak_len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.peak_len(), 2);
        // Still usable after clear.
        q.push(t(1), ());
        assert_eq!(q.pop(), Some((t(1), ())));
    }
}
