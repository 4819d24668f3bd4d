//! Differential property suite: the runtime's `EventQueue` (a radix
//! heap that stores no sequence number) and `LadderQueue` must each pop
//! in *exactly* the order of a reference binary heap over `(time, seq)`
//! on generated workloads — heavy ties, same-instant bursts, interleaved
//! push/pop, past-time pushes, far-future sentinels, and bursts that
//! straddle a radix bucket's redistribution. The ladder is kept only
//! because perfbench's queue-hold probe times it, and this suite keeps
//! it honest until that probe moves.

use earth_sim::{EventQueue, LadderQueue, MinEntry, Rng, VirtualTime};
use std::collections::BinaryHeap;

fn t(ns: u64) -> VirtualTime {
    VirtualTime::from_ns(ns)
}

/// The oracle: a min-heap over `(time, push sequence)`, which pops the
/// earliest time first and equal times in push order by construction.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<MinEntry<VirtualTime, u64>>,
    next_seq: u64,
    peak: usize,
}

impl Reference {
    fn push(&mut self, time: VirtualTime, item: u64) {
        self.heap.push(MinEntry::new(time, self.next_seq, item));
        self.next_seq += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    fn pop(&mut self) -> Option<(VirtualTime, u64)> {
        self.heap.pop().map(|e| (e.key, e.item))
    }

    fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|e| e.key)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One generated operation of a queue workload.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push(u64),
    Pop,
}

/// Pop once from each queue if `pop`, then compare what each one shows:
/// the popped entry, `len`, `is_empty` and `peek_time`.
fn compare(
    label: &str,
    step: usize,
    pop: bool,
    reference: &mut Reference,
    radix: &mut EventQueue<u64>,
    ladder: &mut LadderQueue<u64>,
) {
    if pop {
        let want = reference.pop();
        assert_eq!(radix.pop(), want, "{label} step {step}: radix pop");
        assert_eq!(ladder.pop(), want, "{label} step {step}: ladder pop");
    }
    let (len, peek) = (reference.len(), reference.peek_time());
    assert_eq!(radix.len(), len, "{label} step {step}: radix len");
    assert_eq!(ladder.len(), len, "{label} step {step}: ladder len");
    assert_eq!(radix.is_empty(), len == 0, "{label} step {step}: is_empty");
    assert_eq!(radix.peek_time(), peek, "{label} step {step}: radix peek");
    assert_eq!(ladder.peek_time(), peek, "{label} step {step}: ladder peek");
}

/// Run the same op sequence against the reference heap, `EventQueue` and
/// `LadderQueue`, asserting pop-for-pop and observable-state equality at
/// every step.
fn check_equivalent(label: &str, ops: &[Op]) {
    let mut reference = Reference::default();
    let mut radix = EventQueue::new();
    let mut ladder = LadderQueue::new();
    let mut payload = 0u64;
    for (step, op) in ops.iter().enumerate() {
        if let Op::Push(ns) = *op {
            reference.push(t(ns), payload);
            radix.push(t(ns), payload);
            ladder.push(t(ns), payload);
            payload += 1;
        }
        let pop = matches!(op, Op::Pop);
        compare(label, step, pop, &mut reference, &mut radix, &mut ladder);
    }
    // Drain whatever is left, one pop past empty; the tails must match too.
    for step in ops.len()..=ops.len() + reference.len() {
        compare(label, step, true, &mut reference, &mut radix, &mut ladder);
    }
    assert_eq!(radix.peak_len(), reference.peak, "{label}: radix peak");
    assert_eq!(ladder.peak_len(), reference.peak, "{label}: ladder peak");
    assert_eq!(ladder.total_scheduled(), payload, "{label}: pushes");
}

#[test]
fn heavy_ties_pop_identically() {
    // 2000 events over just 7 distinct instants.
    let mut rng = Rng::new(0x7135);
    let instants = [0u64, 1, 5, 5, 100, 10_000, u64::MAX];
    let mut ops = Vec::new();
    for _ in 0..2000 {
        let ns = instants[rng.gen_range(instants.len() as u64) as usize];
        ops.push(Op::Push(ns));
    }
    for _ in 0..2000 {
        ops.push(Op::Pop);
    }
    check_equivalent("heavy_ties", &ops);
}

#[test]
fn same_instant_bursts_after_partial_drain() {
    // Drain into an instant, then burst more events at that instant —
    // the ladder must weave them into its active slice by seq.
    let mut ops = Vec::new();
    for i in 0..50 {
        ops.push(Op::Push(10 * i));
    }
    for _ in 0..25 {
        ops.push(Op::Pop);
    }
    for _ in 0..40 {
        ops.push(Op::Push(240)); // exactly the frontier instant
    }
    for _ in 0..30 {
        ops.push(Op::Pop);
    }
    for _ in 0..20 {
        ops.push(Op::Push(240));
        ops.push(Op::Pop);
    }
    check_equivalent("same_instant_bursts", &ops);
}

#[test]
fn interleaved_push_pop_random_walk() {
    // A simulator-shaped workload: times drift forward from a moving
    // "now", with occasional far-future and past-time pushes.
    let mut rng = Rng::new(0xEA12_7001);
    let mut ops = Vec::new();
    let mut now = 0u64;
    for _ in 0..30_000 {
        match rng.gen_range(10) {
            0..=5 => {
                let ahead = rng.gen_range(5_000);
                ops.push(Op::Push(now + ahead));
            }
            6 => {
                let far = rng.gen_range(10_000_000);
                ops.push(Op::Push(now + 1_000_000 + far));
            }
            7 => {
                let back = rng.gen_range(now.max(1));
                ops.push(Op::Push(now - back.min(now)));
            }
            _ => {
                ops.push(Op::Pop);
                now += rng.gen_range(200);
            }
        }
    }
    check_equivalent("random_walk", &ops);
}

#[test]
fn multi_respan_wide_spread() {
    // Far more events than one re-span window, spread over a huge time
    // range, popped in large batches to force repeated re-spans.
    let mut rng = Rng::new(42);
    let mut ops = Vec::new();
    for round in 0..6 {
        for _ in 0..3000 {
            ops.push(Op::Push(rng.gen_range(1 << 40)));
        }
        for _ in 0..(1500 + round * 300) {
            ops.push(Op::Pop);
        }
    }
    check_equivalent("multi_respan", &ops);
}

#[test]
fn pop_from_empty_then_refill() {
    let mut ops = vec![Op::Pop, Op::Pop];
    for i in 0..10 {
        ops.push(Op::Push(i * 100));
    }
    for _ in 0..12 {
        ops.push(Op::Pop);
    }
    for i in 0..10 {
        ops.push(Op::Push(i * 7));
    }
    for _ in 0..10 {
        ops.push(Op::Pop);
    }
    check_equivalent("empty_refill", &ops);
}

#[test]
fn idle_forever_sentinels_mix_with_real_events() {
    // VirtualTime::MAX sentinels are part of the queue's supported
    // input domain (today only tests exercise them); sentinels and
    // real events must interleave identically.
    let mut rng = Rng::new(99);
    let mut ops = Vec::new();
    for _ in 0..500 {
        if rng.gen_range(4) == 0 {
            ops.push(Op::Push(u64::MAX));
        } else {
            ops.push(Op::Push(rng.gen_range(1000)));
        }
        if rng.gen_range(3) == 0 {
            ops.push(Op::Pop);
        }
    }
    check_equivalent("idle_sentinels", &ops);
}

#[test]
fn full_axis_window_with_max_sentinel() {
    // Regression: a near-zero event and a MAX sentinel in the same
    // re-span make bucket_w = 2^58, and activating the last bucket
    // used to overflow computing `64 * bucket_w`. Deterministic ops —
    // no RNG — so the overflow window is always constructed.
    let ops = [
        Op::Push(0),
        Op::Push(u64::MAX),
        Op::Pop,
        Op::Push(62), // in-window push after the first activation
        Op::Pop,
        Op::Pop,
        Op::Push(u64::MAX), // sentinel alone, then refill near zero
        Op::Pop,
        Op::Push(1),
        Op::Pop,
        Op::Pop,
    ];
    check_equivalent("full_axis_window", &ops);
}

#[test]
fn heap_and_ladder_agree_on_random_workload() {
    let mut rng = Rng::new(0xD1FF);
    let mut ops = Vec::new();
    for _ in 0..10_000 {
        if rng.gen_range(3) < 2 {
            ops.push(Op::Push(rng.gen_range(1 << 30)));
        } else {
            ops.push(Op::Pop);
        }
    }
    check_equivalent("random_workload", &ops);
}

#[test]
fn equal_time_bursts_straddle_a_redistribution() {
    // Ties at 1000 are pushed while they share a high radix bucket with
    // 999 and 1001, then more after popping 999 has spread that bucket
    // into a lower one, then more again once 1000 is the last popped
    // time. Every tie must still pop in push order across each spread,
    // and so must the ties at 1001.
    let mut ops = Vec::new();
    for round in 0..3u64 {
        let base = round * 4096;
        ops.push(Op::Push(base + 999));
        for _ in 0..40 {
            ops.push(Op::Push(base + 1000));
            ops.push(Op::Push(base + 1001));
        }
        ops.push(Op::Pop); // pops base + 999 and spreads its bucket
        for _ in 0..30 {
            ops.push(Op::Push(base + 1000));
            ops.push(Op::Push(base + 1001));
        }
        for _ in 0..50 {
            ops.push(Op::Pop); // into the ties at base + 1000
        }
        for _ in 0..10 {
            ops.push(Op::Push(base + 1000));
            ops.push(Op::Push(base + 1001));
            ops.push(Op::Pop);
        }
    }
    check_equivalent("bursts_straddle_redistribution", &ops);
}

#[test]
fn times_differing_only_in_bit_63() {
    // `TOP | low` differs from `low` only in bit 63, so it waits in the
    // top radix bucket until the low times have popped; spreading that
    // bucket must keep the ties at `TOP | 5` and `u64::MAX` in push order.
    const TOP: u64 = 1 << 63;
    let mut ops = Vec::new();
    for low in [0u64, 1, 5, 5, u64::MAX >> 1] {
        ops.push(Op::Push(TOP | low));
        ops.push(Op::Push(low));
        ops.push(Op::Push(TOP | low));
    }
    ops.push(Op::Push(u64::MAX));
    for _ in 0..8 {
        ops.push(Op::Pop);
    }
    ops.push(Op::Push(TOP | 5));
    ops.push(Op::Push(TOP));
    for _ in 0..10 {
        ops.push(Op::Pop);
    }
    check_equivalent("bit_63", &ops);
}

#[test]
fn past_time_push_lands_between_equal_time_ties() {
    // A push earlier than the last pop re-buckets the whole queue; ties
    // queued before it and ties pushed after it must keep one push order,
    // both at the last popped instant and further out.
    let mut ops = vec![Op::Push(10), Op::Push(10), Op::Push(10)];
    for _ in 0..4 {
        ops.push(Op::Push(100));
    }
    ops.push(Op::Pop); // last = 10, two ties left at 10
    ops.push(Op::Push(3)); // past: before the last pop
    ops.push(Op::Push(10));
    for _ in 0..4 {
        ops.push(Op::Push(100));
    }
    ops.push(Op::Pop); // the past-time push
    ops.push(Op::Push(1)); // past again: ties at 10 on both sides of it
    ops.push(Op::Push(10));
    ops.push(Op::Push(100));
    for _ in 0..16 {
        ops.push(Op::Pop);
    }
    check_equivalent("past_between_ties", &ops);
}
