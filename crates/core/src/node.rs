//! Per-node runtime state.

use crate::frame::FrameStore;
use crate::memory::Memory;
use crate::msg::{FuncId, Msg};
use crate::payload::Payload;
use crate::report::NodeStats;
use crate::trace::Activity;
use crate::{FrameId, ThreadId};
use earth_sim::{Rng, VirtualDuration, VirtualTime};
use std::any::Any;
use std::collections::VecDeque;

/// A load-balancer token: a deferred threaded-function invocation that any
/// node may pick up. `cp` is the dependency-chain length behind the
/// token's creation (critical-path accounting; never affects scheduling).
pub(crate) struct Token {
    pub(crate) func: FuncId,
    pub(crate) args: Payload,
    pub(crate) cp: VirtualDuration,
}

/// One simulated node's complete runtime state.
pub(crate) struct Node {
    /// Local share of the global address space.
    pub(crate) mem: Memory,
    /// Live frames.
    pub(crate) frames: FrameStore,
    /// Threads whose sync slots have fired, in firing order, each with
    /// the dependency-chain length that made it ready.
    pub(crate) ready: VecDeque<(FrameId, ThreadId, VirtualDuration)>,
    /// Local token queue. New tokens push at the back and pop from the
    /// back locally (LIFO keeps the working set warm); thieves steal from
    /// the front (FIFO gives them the oldest, typically largest work).
    pub(crate) tokens: VecDeque<Token>,
    /// Messages delivered by the network but not yet serviced by the
    /// polling watchdog, each with its sender's dependency-chain length
    /// and its NIC arrival instant (the straggler detector anchors RTT
    /// samples there — service time would fold the *observer's* polling
    /// delay into the remote node's estimate).
    pub(crate) pending: VecDeque<(Msg, VirtualDuration, VirtualTime)>,
    /// Application-defined node-local state (replicated matrices, weight
    /// slices, polynomial caches, ...).
    pub(crate) user: Option<Box<dyn Any>>,
    /// Node-local deterministic RNG (victim selection, app randomness).
    pub(crate) rng: Rng,
    /// True while the node's processor is occupied until a scheduled wake.
    pub(crate) busy: bool,
    /// True when a `Wake` event for this node is already in the queue.
    pub(crate) wake_pending: bool,
    /// True between sending a steal request and receiving its answer.
    pub(crate) stealing: bool,
    /// Consecutive failed steal attempts (drives exponential backoff).
    pub(crate) steal_fails: u32,
    /// Don't attempt another steal before this instant.
    pub(crate) steal_cooldown: VirtualTime,
    /// Counters for the run report.
    pub(crate) stats: NodeStats,
    /// Processor time per activity, written only by `Runtime::charge`.
    /// The report's `NodeStats::busy` and `NodeStats::su_time` and
    /// earth-profile's decomposition are all read from it.
    pub(crate) time: [VirtualDuration; Activity::COUNT],
}

impl Node {
    pub(crate) fn new(mem_limit: usize, rng: Rng) -> Self {
        Node {
            mem: Memory::new(mem_limit),
            frames: FrameStore::default(),
            ready: VecDeque::new(),
            tokens: VecDeque::new(),
            pending: VecDeque::new(),
            user: None,
            rng,
            busy: false,
            wake_pending: false,
            stealing: false,
            steal_fails: 0,
            steal_cooldown: VirtualTime::ZERO,
            stats: NodeStats::default(),
            time: [VirtualDuration::ZERO; Activity::COUNT],
        }
    }

    /// Execution Unit time: every activity but the Synchronization Unit's.
    pub(crate) fn eu_time(&self) -> VirtualDuration {
        self.time.iter().copied().sum::<VirtualDuration>() - self.time[Activity::Su as usize]
    }

    /// True when the node has nothing runnable of its own.
    pub(crate) fn is_workless(&self) -> bool {
        self.ready.is_empty() && self.tokens.is_empty() && self.pending.is_empty()
    }
}
