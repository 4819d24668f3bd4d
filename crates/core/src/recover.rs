//! The checkpoint/recovery plane: crash-stop node failures survived.
//!
//! Armed only when the installed [`FaultPlan`] schedules crash windows
//! (`with_node_crash` / `with_crash_restart`); every other run — fault
//! plan or not — never allocates or consults any of this, keeping the
//! hook provably free when disabled.
//!
//! ## Failure model
//!
//! Nodes fail-stop at scheduling-round boundaries (EARTH threads are
//! non-preemptive, so a crash between rounds is the natural grain). A
//! down node schedules nothing — no polling, no threads, no
//! retransmits — and its NIC discards every arriving message *before*
//! acking it, so the sender's reliability layer keeps retransmitting
//! until the node returns.
//!
//! ## Detection
//!
//! Every node probes its ring successor with [`Msg::Heartbeat`] once
//! per `heartbeat_every`, over the reliable path: the NIC-level ack is
//! the liveness proof, and the polling watchdog's retransmissions of an
//! unacked probe are the detector's repeated probing. Each probe arms a
//! deterministic virtual-time alarm `suspect_after` later; if no ack
//! from the target has arrived since the probe was sent, the monitor
//! declares the target crashed. A declared node's queued tokens re-home
//! to the survivors, the work-stealing balancer stops targeting it, and
//! — for crashes without a scheduled restart — failover-restart begins
//! at the detection instant.
//!
//! ## Checkpoints and recovery
//!
//! Every `checkpoint_every` each live node snapshots its frames,
//! sync-slot counters, memory segments, and queued tokens (buddy
//! checkpointing; `CHECKPOINT_COST` of EU time per capture). Because
//! the receiving NIC logs messages before acking them (pessimistic
//! receiver-side logging) and the simulation is deterministic, a
//! restarted node's replay reconstructs *exactly* the state it held
//! when it crashed: results are bit-identical, only virtual time
//! degrades. The simulator therefore keeps the Rust-side state in
//! place and charges recovery its honest price — `RESTORE_COST` plus
//! re-executing every cycle of work done since the last checkpoint —
//! with the dedup watermarks in `reli` making replayed INVOKE / TOKEN /
//! BLKMOV traffic idempotent.
//!
//! [`FaultPlan`]: earth_machine::FaultPlan
//! [`Msg::Heartbeat`]: crate::msg::Msg::Heartbeat

use earth_machine::{FaultPlan, NodeId};
use earth_sim::{VirtualDuration, VirtualTime};

/// EU time one checkpoint capture costs a node.
pub(crate) const CHECKPOINT_COST: VirtualDuration = VirtualDuration::from_us(20);

/// EU time restoring a checkpoint costs a recovering node, on top of
/// re-executing the work lost since that checkpoint.
pub(crate) const RESTORE_COST: VirtualDuration = VirtualDuration::from_us(200);

/// The probe ring: each node monitors its successor mod the machine
/// size. A free function so the runtime's tick loops can compute targets
/// without holding a borrow of the whole [`RecoverState`].
pub(crate) fn ring_successor(monitor: usize, nodes: usize) -> NodeId {
    NodeId(((monitor + 1) % nodes) as u16)
}

/// Liveness of one node, as simulated (not as suspected).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Health {
    Up,
    Down,
}

/// One planned crash window and its runtime progress.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlannedCrash {
    pub(crate) node: u16,
    pub(crate) down: VirtualTime,
    /// Scheduled restart, or `None` for detector-driven failover.
    pub(crate) up: Option<VirtualTime>,
    /// A `Recover` event for this window is queued or done.
    pub(crate) recovery_scheduled: bool,
    /// The recovery replay completed; once every window is resolved the
    /// periodic probe/checkpoint ticks stand down and the run drains.
    pub(crate) resolved: bool,
}

/// Live crash-plane state inside the runtime: detector timers,
/// suspicion flags, checkpoint accounting, and the planned windows.
pub(crate) struct RecoverState {
    pub(crate) heartbeat_every: VirtualDuration,
    pub(crate) suspect_after: VirtualDuration,
    pub(crate) checkpoint_every: VirtualDuration,
    pub(crate) crashes: Vec<PlannedCrash>,
    pub(crate) health: Vec<Health>,
    /// Crash-detector view: `suspected_dead[i]` keeps the balancer off
    /// node `i` and (for failover crashes) triggers its restart. Named
    /// to stay distinct from the straggler detector's *Suspected-Slow*
    /// state (`slow.rs`): a slow-but-alive node is quarantined, never
    /// declared dead — its NIC still acks, so heartbeats never expire.
    pub(crate) suspected_dead: Vec<bool>,
    /// Per monitor: instant of the last ack received from its ring
    /// successor (the probe target). `ZERO` until the first ack.
    pub(crate) last_ack_from: Vec<VirtualTime>,
    /// EU time accumulated since the node's last checkpoint — the work
    /// a crash right now would force recovery to re-execute.
    pub(crate) busy_since_ckpt: Vec<VirtualDuration>,
    /// Work outstanding at the moment each node crashed (charged to its
    /// recovery replay).
    pub(crate) lost_work: Vec<VirtualDuration>,
    /// Instant each currently-down node crashed.
    pub(crate) down_since: Vec<VirtualTime>,
    /// Ascending indices of nodes currently `Up` — the iteration set for
    /// the periodic probe/checkpoint ticks, maintained incrementally by
    /// [`mark_down`](RecoverState::mark_down) /
    /// [`mark_up`](RecoverState::mark_up) so each round costs O(live)
    /// instead of a skip-by-scan over every node.
    pub(crate) live: Vec<u16>,
}

impl RecoverState {
    pub(crate) fn new(plan: &FaultPlan, nodes: u16) -> Self {
        assert!(
            nodes >= 2,
            "crash windows need at least 2 nodes: detection and re-homing require a survivor"
        );
        for c in &plan.crashes {
            assert!(
                c.node < nodes,
                "crash window targets node {} of a {}-node machine",
                c.node,
                nodes
            );
        }
        let n = nodes as usize;
        RecoverState {
            heartbeat_every: plan.heartbeat_every,
            suspect_after: plan.suspect_after,
            checkpoint_every: plan.checkpoint_every,
            crashes: plan
                .crashes
                .iter()
                .map(|c| PlannedCrash {
                    node: c.node,
                    down: c.down,
                    up: c.up,
                    // Scheduled restarts queue their Recover up front;
                    // failover crashes wait for the detector.
                    recovery_scheduled: c.up.is_some(),
                    resolved: false,
                })
                .collect(),
            health: vec![Health::Up; n],
            suspected_dead: vec![false; n],
            last_ack_from: vec![VirtualTime::ZERO; n],
            busy_since_ckpt: vec![VirtualDuration::ZERO; n],
            lost_work: vec![VirtualDuration::ZERO; n],
            down_since: vec![VirtualTime::ZERO; n],
            live: (0..nodes).collect(),
        }
    }

    /// The ring successor `monitor` probes.
    pub(crate) fn target_of(&self, monitor: usize) -> NodeId {
        ring_successor(monitor, self.health.len())
    }

    /// Record `node` going down: flip its health and drop it from the
    /// live list. The crash plane rejects overlapping windows, so the
    /// node is always present.
    pub(crate) fn mark_down(&mut self, node: usize) {
        self.health[node] = Health::Down;
        let pos = self
            .live
            .binary_search(&(node as u16))
            .expect("downed node missing from live list");
        self.live.remove(pos);
    }

    /// Record `node` coming back up: flip its health and re-insert it in
    /// sorted position, so tick iteration order stays ascending (the
    /// order the old skip-by-scan visited nodes in).
    pub(crate) fn mark_up(&mut self, node: usize) {
        self.health[node] = Health::Up;
        if let Err(pos) = self.live.binary_search(&(node as u16)) {
            self.live.insert(pos, node as u16);
        }
    }

    pub(crate) fn is_down(&self, node: NodeId) -> bool {
        self.health[node.index()] == Health::Down
    }

    /// Every planned crash has completed its recovery: the periodic
    /// ticks stop re-arming and the event queue is free to drain.
    pub(crate) fn all_resolved(&self) -> bool {
        self.crashes.iter().all(|c| c.resolved)
    }

    /// The first unresolved failover crash of `node` awaiting a
    /// detector-triggered recovery, if any.
    pub(crate) fn pending_failover(&self, node: NodeId) -> Option<usize> {
        self.crashes
            .iter()
            .position(|c| c.node == node.0 && !c.resolved && !c.recovery_scheduled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> VirtualTime {
        VirtualTime::from_ns(us * 1000)
    }

    #[test]
    fn scheduled_restarts_preschedule_recovery() {
        let plan = FaultPlan::new()
            .with_crash_restart(1, t(10), t(50))
            .with_node_crash(2, t(30));
        let rec = RecoverState::new(&plan, 4);
        assert!(rec.crashes[0].recovery_scheduled, "restart is pre-queued");
        assert!(!rec.crashes[1].recovery_scheduled, "failover waits");
        assert!(!rec.all_resolved());
        assert_eq!(rec.pending_failover(NodeId(2)), Some(1));
        assert_eq!(rec.pending_failover(NodeId(1)), None);
    }

    #[test]
    fn ring_targets_wrap() {
        let plan = FaultPlan::new().with_node_crash(0, t(1));
        let rec = RecoverState::new(&plan, 3);
        assert_eq!(rec.target_of(0), NodeId(1));
        assert_eq!(rec.target_of(2), NodeId(0));
    }

    #[test]
    fn live_list_tracks_health_transitions_in_order() {
        let plan = FaultPlan::new().with_node_crash(0, t(1));
        let mut rec = RecoverState::new(&plan, 5);
        assert_eq!(rec.live, vec![0, 1, 2, 3, 4]);
        rec.mark_down(3);
        rec.mark_down(0);
        assert_eq!(rec.live, vec![1, 2, 4]);
        assert_eq!(rec.health[0], Health::Down);
        assert_eq!(rec.health[3], Health::Down);
        // Recovery re-inserts in ascending position, and is idempotent.
        rec.mark_up(3);
        rec.mark_up(3);
        assert_eq!(rec.live, vec![1, 2, 3, 4]);
        rec.mark_up(0);
        assert_eq!(rec.live, vec![0, 1, 2, 3, 4]);
        // The live list always mirrors the health vector exactly.
        let scan: Vec<u16> = (0..5u16)
            .filter(|&i| rec.health[i as usize] == Health::Up)
            .collect();
        assert_eq!(rec.live, scan);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn single_node_crash_plans_are_rejected() {
        let plan = FaultPlan::new().with_node_crash(0, t(1));
        let _ = RecoverState::new(&plan, 1);
    }

    #[test]
    #[should_panic(expected = "targets node")]
    fn out_of_range_crash_node_is_rejected() {
        let plan = FaultPlan::new().with_node_crash(9, t(1));
        let _ = RecoverState::new(&plan, 4);
    }
}
