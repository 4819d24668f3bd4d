//! Model of the MANNA distributed-memory machine.
//!
//! MANNA (GMD FIRST, 1993–96) was a distributed-memory machine whose nodes
//! each held two Intel i860 XP processors, 32 MB of memory, and a network
//! interface onto a hierarchy of 16×16 crossbars delivering 50 MB/s per
//! link. The paper runs all experiments on the *single-processor* EARTH
//! configuration, where one i860 executes both application code and EARTH
//! operations (with the "polling watchdog" checking the network between
//! threads).
//!
//! This crate models the pieces of that hardware the paper's results
//! depend on:
//!
//! * [`topology`] — node identity and the pluggable interconnects: the
//!   [`Topology`] trait (hop count + per-stage contention) with
//!   hierarchical-crossbar (default), hypercube, 3D torus, and fat-tree
//!   implementations selected via [`TopologyKind`] on the machine config;
//! * [`network`] — message timing: per-hop latency, per-byte serialization
//!   at the sender NIC (which also models back-pressure: a node's link can
//!   only carry one message at a time), and seeded latency jitter used for
//!   the indeterminism study;
//! * [`config`] — the machine description plus the two *communication cost
//!   models* of the paper: the native EARTH microsecond-scale overheads and
//!   the inflated "simulated message passing" overheads (300/500/1000 µs
//!   synchronous, 150/250/500 µs asynchronous, plus buffer-copy cost) used
//!   in the Fig. 5 comparison.

pub mod config;
pub mod network;
pub mod topology;

pub use config::{CommCostModel, EarthCosts, MachineConfig, MsgPassingCosts, OpClass};
pub use network::{Delivery, FaultEvent, LinkSpan, NetFate, Network, NetworkStats, Resolved};
pub use topology::{
    AnyTopology, FatTree, HierCrossbar, Hypercube, NodeId, Topology, TopologyKind, Torus,
};

// Re-export the fault plane so downstream crates (runtime, apps, bench)
// can build `FaultPlan`s without depending on earth-faults directly.
pub use earth_faults::{
    CrashWindow, Fate, FaultKind, FaultPlan, FaultState, LinkProbs, SlowDetector, SlowdownWindow,
};
