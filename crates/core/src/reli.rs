//! The reliability layer: exactly-once delivery over a faulty network.
//!
//! Only instantiated when a fault plan is installed (fault-free runs
//! never allocate or consult any of this). The design mirrors what the
//! EARTH NIC would do in hardware:
//!
//! * every reliable message carries an 8-byte envelope (sequence number
//!   per ordered `src → dst` pair);
//! * the receiving NIC acknowledges *every* copy it sees (a lost ack
//!   must be recoverable) and suppresses duplicates with a cumulative
//!   watermark plus an ahead-of-watermark set, so the runtime proper
//!   observes each sequence number exactly once;
//! * the sender keeps unacknowledged messages and retransmits them from
//!   the polling watchdog once their deadline passes, with exponential
//!   backoff (`rto << min(attempts, 6)`, so at most 64 × `rto`).
//!   Deadlines anchor at the network's *expected* arrival (link queueing
//!   and the sender's fail-slow factor included) plus an ack-return
//!   estimate, so spurious retransmits stay rare while real drops are
//!   detected in a few round trips.
//!
//! Acks themselves are unreliable: a dropped ack simply means one more
//! retransmission, which the receiver dedups and re-acks.

use crate::msg::Msg;
use earth_machine::NodeId;
use earth_sim::{VirtualDuration, VirtualTime};
use std::collections::{BTreeMap, BTreeSet};

/// Extra wire bytes every reliable message carries (sequence number).
pub(crate) const ENV_BYTES: u32 = 8;

/// Wire size of an [`Msg::Ack`] — used to estimate the ack return leg
/// when computing retransmission deadlines.
pub(crate) const ACK_WIRE: u32 = crate::msg::MSG_HEADER + 10;

/// Cap on the exponential backoff shift: deadlines grow as
/// `rto << min(attempts, CAP)`, so the multiplier stops at 64 and the
/// left-shift itself can never overflow.
const BACKOFF_CAP: u32 = 6;

/// The envelope a reliable message travels under.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Envelope {
    /// Originating node (where the ack must go).
    pub(crate) src: NodeId,
    /// Sequence number on the `src → receiver` ordered pair.
    pub(crate) seq: u64,
}

/// One unacknowledged message held for possible retransmission.
#[derive(Clone)]
pub(crate) struct Pending {
    pub(crate) msg: Msg,
    /// Dependency-chain length behind the original send.
    pub(crate) cp: VirtualDuration,
    /// Transmissions so far beyond the first (drives backoff).
    pub(crate) attempts: u32,
    /// Retransmit once virtual time reaches this instant.
    pub(crate) deadline: VirtualTime,
    /// Instant of the original send — the ack observed against it is the
    /// round-trip sample the straggler detector's EWMA consumes (only
    /// when `attempts == 0`, so retransmissions never pollute the RTT).
    pub(crate) sent: VirtualTime,
    /// The model's own fault-free round-trip estimate for the original
    /// send (expected arrival plus the ack's return leg). The detector
    /// samples the observed RTT *as a ratio of this*, so payload size
    /// and sender-link queueing — both priced into the estimate — never
    /// masquerade as destination slowness.
    pub(crate) expected_rtt: VirtualDuration,
    /// A hedged copy was already re-sent (hedging fires at most once per
    /// sequence number; receiver-side dedup absorbs the extra copy).
    pub(crate) hedged: bool,
}

/// Per-machine reliability state. All maps are ordered (`BTreeMap` /
/// `BTreeSet`) so iteration — and therefore retransmission order — is
/// deterministic.
pub(crate) struct ReliLayer {
    n: usize,
    /// Next sequence number per ordered `(src, dst)` pair.
    next_seq: Vec<u64>,
    /// Per `(receiver, src)`: all sequence numbers `< cum` were seen.
    recv_cum: Vec<u64>,
    /// Per `(receiver, src)`: sequence numbers seen ahead of the
    /// watermark (holes from reordering/drops keep these small).
    recv_ahead: Vec<BTreeSet<u64>>,
    /// Per sender: `(dst, seq) → Pending`.
    pub(crate) unacked: Vec<BTreeMap<(u16, u64), Pending>>,
    /// Base retransmission timeout margin from the fault plan.
    pub(crate) rto: VirtualDuration,
}

impl ReliLayer {
    pub(crate) fn new(nodes: u16, rto: VirtualDuration) -> Self {
        let n = nodes as usize;
        ReliLayer {
            n,
            next_seq: vec![0; n * n],
            recv_cum: vec![0; n * n],
            recv_ahead: vec![BTreeSet::new(); n * n],
            unacked: vec![BTreeMap::new(); n],
            rto,
        }
    }

    /// Allocate the next sequence number for `src → dst`.
    pub(crate) fn alloc_seq(&mut self, src: NodeId, dst: NodeId) -> u64 {
        let idx = src.index() * self.n + dst.index();
        let seq = self.next_seq[idx];
        self.next_seq[idx] += 1;
        seq
    }

    /// Record that `receiver` saw `seq` from `src`. Returns `true` when
    /// this is the first sighting (deliver to the runtime), `false` for
    /// a duplicate (suppress).
    pub(crate) fn note_received(&mut self, receiver: NodeId, src: NodeId, seq: u64) -> bool {
        let idx = receiver.index() * self.n + src.index();
        let cum = self.recv_cum[idx];
        if seq < cum {
            return false;
        }
        if seq == cum {
            self.recv_cum[idx] = cum + 1;
            // Drain any contiguous run the watermark now reaches.
            while self.recv_ahead[idx].remove(&self.recv_cum[idx]) {
                self.recv_cum[idx] += 1;
            }
            return true;
        }
        self.recv_ahead[idx].insert(seq)
    }

    /// The backoff-scaled deadline margin for a message on its
    /// `attempts`-th retransmission: doubling per attempt up to the
    /// shift cap, then flat at 64 × `rto`.
    pub(crate) fn backoff(&self, attempts: u32) -> VirtualDuration {
        self.rto.times(1u64 << attempts.min(BACKOFF_CAP))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> VirtualDuration {
        VirtualDuration::from_us(n)
    }

    #[test]
    fn seq_numbers_are_per_ordered_pair() {
        let mut r = ReliLayer::new(3, us(100));
        assert_eq!(r.alloc_seq(NodeId(0), NodeId(1)), 0);
        assert_eq!(r.alloc_seq(NodeId(0), NodeId(1)), 1);
        assert_eq!(
            r.alloc_seq(NodeId(1), NodeId(0)),
            0,
            "reverse pair is independent"
        );
        assert_eq!(r.alloc_seq(NodeId(0), NodeId(2)), 0);
    }

    #[test]
    fn dedup_watermark_and_ahead_set() {
        let mut r = ReliLayer::new(2, us(100));
        let (rx, tx) = (NodeId(1), NodeId(0));
        assert!(r.note_received(rx, tx, 0));
        assert!(!r.note_received(rx, tx, 0), "replay below watermark");
        assert!(r.note_received(rx, tx, 2), "ahead of watermark");
        assert!(!r.note_received(rx, tx, 2), "ahead duplicate");
        assert!(r.note_received(rx, tx, 1), "fills the hole");
        // watermark drained through 2, so everything <= 2 is a dup now
        assert!(!r.note_received(rx, tx, 1));
        assert!(!r.note_received(rx, tx, 2));
        assert!(r.note_received(rx, tx, 3));
    }

    #[test]
    fn dedup_is_per_source() {
        let mut r = ReliLayer::new(3, us(100));
        assert!(r.note_received(NodeId(2), NodeId(0), 0));
        assert!(
            r.note_received(NodeId(2), NodeId(1), 0),
            "same seq, other src"
        );
        assert!(!r.note_received(NodeId(2), NodeId(0), 0));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = ReliLayer::new(2, us(250));
        assert_eq!(r.backoff(0), us(250));
        assert_eq!(r.backoff(1), us(500));
        assert_eq!(r.backoff(6), us(250 * 64));
        assert_eq!(r.backoff(40), us(250 * 64), "shift is capped");
    }
}
