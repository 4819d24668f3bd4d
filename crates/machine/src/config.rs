//! Machine description and communication cost models.
//!
//! Two cost models are central to the paper:
//!
//! * **EARTH native** ([`EarthCosts`]): split-phase operations cost "a few
//!   microseconds ... a few tens of instructions" (§2) on the 50 MHz i860.
//! * **Simulated message passing** ([`MsgPassingCosts`]): for the Fig. 5
//!   study the authors re-ran Gröbner Basis with every communication
//!   artificially inflated to 300/500/1000 µs at both sender and receiver
//!   for synchronous operations, half that at the sender only for
//!   asynchronous ones, plus the cost of copying through a message buffer.
//!   These numbers approximate efficient OS-level messaging and standard
//!   libraries such as MPI on mid-90s hardware.

use crate::topology::{AnyTopology, TopologyKind};
use earth_faults::FaultPlan;
use earth_sim::VirtualDuration;

/// Whether an operation completes one-way (fire and forget) or requires a
/// round trip. Determines which inflated overhead the message-passing cost
/// model charges.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpClass {
    /// One-way: remote store (`DATA_SYNC`), block-move push, remote invoke,
    /// pure sync signal.
    Async,
    /// Round-trip: remote load (`GET_SYNC`), block-move pull, lock
    /// acquisition.
    Sync,
}

/// Native EARTH-MANNA operation overheads (single-processor configuration
/// with the polling watchdog).
#[derive(Clone, Copy, Debug)]
pub struct EarthCosts {
    /// CPU time to issue any split-phase operation (compose + inject).
    pub op_send: VirtualDuration,
    /// CPU time to service an incoming message in the poll loop.
    pub op_recv: VirtualDuration,
    /// Scheduling a thread that became ready (fetch from ready queue,
    /// dispatch).
    pub thread_switch: VirtualDuration,
    /// Creating a frame for a threaded-function invocation.
    pub frame_setup: VirtualDuration,
    /// Enqueueing / dequeueing a load-balancer token.
    pub token_op: VirtualDuration,
}

impl Default for EarthCosts {
    fn default() -> Self {
        // ~ tens of i860 instructions each (20 ns/instruction at 50 MHz).
        EarthCosts {
            op_send: VirtualDuration::from_ns(2_000),
            op_recv: VirtualDuration::from_ns(2_000),
            thread_switch: VirtualDuration::from_ns(600),
            frame_setup: VirtualDuration::from_ns(2_000),
            token_op: VirtualDuration::from_ns(1_500),
        }
    }
}

/// The paper's inflated "message passing" overheads.
#[derive(Clone, Copy, Debug)]
pub struct MsgPassingCosts {
    /// Added at *both* sender and receiver for synchronous operations.
    pub sync_overhead: VirtualDuration,
    /// Added at the sender only for asynchronous operations.
    pub async_overhead: VirtualDuration,
    /// Memory bandwidth for copying to/from the message buffer; charged at
    /// both endpoints on every message.
    pub copy_bytes_per_sec: u64,
}

impl MsgPassingCosts {
    /// Preset with `sync_us` at each synchronous endpoint and `sync_us/2`
    /// at asynchronous senders — the paper's 300/150, 500/250 and
    /// 1000/500 µs configurations.
    pub fn preset(sync_us: u64) -> Self {
        MsgPassingCosts {
            sync_overhead: VirtualDuration::from_us(sync_us),
            async_overhead: VirtualDuration::from_us(sync_us / 2),
            copy_bytes_per_sec: 50_000_000,
        }
    }

    fn copy_cost(&self, bytes: u32) -> VirtualDuration {
        VirtualDuration::from_us_f64(bytes as f64 / self.copy_bytes_per_sec as f64 * 1.0e6)
    }
}

/// Which overhead regime communication operations run under.
#[derive(Clone, Copy, Debug)]
pub enum CommCostModel {
    /// Native EARTH split-phase costs.
    Earth,
    /// The paper's simulated message-passing costs.
    MessagePassing(MsgPassingCosts),
}

impl CommCostModel {
    /// Convenience constructor matching the paper's labels ("300 µs",
    /// "500 µs", "1000 µs").
    pub fn message_passing_us(sync_us: u64) -> Self {
        CommCostModel::MessagePassing(MsgPassingCosts::preset(sync_us))
    }

    /// CPU time charged at the sender when issuing an operation of `class`
    /// carrying `bytes` payload (on top of the base EARTH issue cost).
    pub fn sender_overhead(&self, class: OpClass, bytes: u32) -> VirtualDuration {
        match self {
            CommCostModel::Earth => VirtualDuration::ZERO,
            CommCostModel::MessagePassing(mp) => {
                let base = match class {
                    OpClass::Sync => mp.sync_overhead,
                    OpClass::Async => mp.async_overhead,
                };
                base + mp.copy_cost(bytes)
            }
        }
    }

    /// CPU time charged at the receiver when the message is serviced (on
    /// top of the base EARTH handler cost).
    pub fn receiver_overhead(&self, class: OpClass, bytes: u32) -> VirtualDuration {
        match self {
            CommCostModel::Earth => VirtualDuration::ZERO,
            CommCostModel::MessagePassing(mp) => {
                let base = match class {
                    OpClass::Sync => mp.sync_overhead,
                    // "Messages are assumed to be immediately accepted":
                    // async receivers pay only the buffer copy.
                    OpClass::Async => VirtualDuration::ZERO,
                };
                base + mp.copy_cost(bytes)
            }
        }
    }
}

/// Full description of the simulated machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of nodes.
    pub nodes: u16,
    /// Nodes per first-level crossbar.
    pub cluster_size: u16,
    /// Link bandwidth (50 MB/s on MANNA).
    pub link_bytes_per_sec: u64,
    /// Latency per crossbar traversal.
    pub hop_latency: VirtualDuration,
    /// Fixed wire/NIC latency per message independent of distance.
    pub wire_latency: VirtualDuration,
    /// Relative uniform jitter applied to each message's network latency
    /// (0.0 disables; the indeterminism study uses a few percent).
    pub latency_jitter: f64,
    /// Native EARTH operation costs.
    pub earth: EarthCosts,
    /// Active communication overhead regime.
    pub comm: CommCostModel,
    /// §2's two-processor node configuration: a dedicated Synchronization
    /// Unit services EARTH operations while the Execution Unit runs
    /// application code, so message handling does not steal EU cycles.
    /// All the paper's measurements use the single-processor version
    /// (`false`), which was shown to perform "much the same".
    pub dual_processor: bool,
    /// Optional fault-injection plan. `None` (the default, and what any
    /// trivial plan normalizes to) means the fault plane is absent: the
    /// network takes the exact fault-free code path.
    pub faults: Option<FaultPlan>,
    /// Which interconnect connects the nodes. The default hierarchical
    /// crossbar is provably free: it reproduces the pre-trait hardcoded
    /// hop model byte for byte. Other kinds change hop counts and add
    /// per-stage contention, so message flight times (and thus schedules)
    /// differ.
    pub topology: TopologyKind,
}

impl MachineConfig {
    /// A MANNA machine with `nodes` nodes under native EARTH costs.
    pub fn manna(nodes: u16) -> Self {
        assert!(nodes > 0, "machine needs at least one node");
        MachineConfig {
            nodes,
            cluster_size: 16,
            link_bytes_per_sec: 50_000_000,
            hop_latency: VirtualDuration::from_ns(500),
            wire_latency: VirtualDuration::from_ns(1_000),
            latency_jitter: 0.0,
            earth: EarthCosts::default(),
            comm: CommCostModel::Earth,
            dual_processor: false,
            faults: None,
            topology: TopologyKind::default(),
        }
    }

    /// Enable the two-processor (EU + SU) node configuration.
    pub fn with_dual_processor(mut self) -> Self {
        self.dual_processor = true;
        self
    }

    /// Same machine with message latencies jittered by ±`frac` (uniform),
    /// for the 20-run indeterminism envelopes.
    pub fn with_jitter(mut self, frac: f64) -> Self {
        assert!((0.0..1.0).contains(&frac), "jitter fraction out of range");
        self.latency_jitter = frac;
        self
    }

    /// Same machine under the inflated message-passing cost model.
    pub fn with_message_passing(mut self, sync_us: u64) -> Self {
        self.comm = CommCostModel::message_passing_us(sync_us);
        self
    }

    /// Install a fault-injection plan. A trivial plan (nothing can ever
    /// fire) is normalized to `None`, so `with_faults(FaultPlan::new())`
    /// is byte-identical to never calling this at all.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = if plan.is_trivial() { None } else { Some(plan) };
        self
    }

    /// Same machine wired with the given interconnect.
    /// `TopologyKind::Crossbar` (the default) is byte-identical to never
    /// calling this at all.
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Materialize the configured interconnect for this machine size.
    pub fn interconnect(&self) -> AnyTopology {
        self.topology.build(self.nodes, self.cluster_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manna_defaults() {
        let m = MachineConfig::manna(20);
        assert_eq!(m.nodes, 20);
        assert_eq!(m.cluster_size, 16);
        assert_eq!(m.link_bytes_per_sec, 50_000_000);
        assert!(matches!(m.comm, CommCostModel::Earth));
    }

    #[test]
    fn trivial_fault_plans_normalize_away() {
        let m = MachineConfig::manna(4).with_faults(FaultPlan::new());
        assert!(m.faults.is_none(), "FaultPlan::new() must be provably free");
        let m = MachineConfig::manna(4).with_faults(FaultPlan::new().with_drop(0.01));
        assert!(m.faults.is_some());
    }

    #[test]
    fn earth_model_adds_no_overhead() {
        let c = CommCostModel::Earth;
        assert_eq!(
            c.sender_overhead(OpClass::Sync, 4096),
            VirtualDuration::ZERO
        );
        assert_eq!(
            c.receiver_overhead(OpClass::Async, 4096),
            VirtualDuration::ZERO
        );
    }

    #[test]
    fn message_passing_presets_match_paper() {
        for (sync, asyn) in [(300, 150), (500, 250), (1000, 500)] {
            let c = CommCostModel::message_passing_us(sync);
            let s = c.sender_overhead(OpClass::Sync, 0);
            let a = c.sender_overhead(OpClass::Async, 0);
            assert_eq!(s.as_us(), sync);
            assert_eq!(a.as_us(), asyn);
            // receiver pays sync overhead but nothing extra for async
            assert_eq!(c.receiver_overhead(OpClass::Sync, 0).as_us(), sync);
            assert_eq!(c.receiver_overhead(OpClass::Async, 0).as_us(), 0);
        }
    }

    #[test]
    fn message_passing_charges_copy_cost() {
        let c = CommCostModel::message_passing_us(300);
        let with_bytes = c.sender_overhead(OpClass::Async, 50_000);
        // 50 kB at 50 MB/s = 1 ms copy on top of 150 µs
        assert!(
            (with_bytes.as_us_f64() - 1150.0).abs() < 1.0,
            "{with_bytes}"
        );
    }
}
