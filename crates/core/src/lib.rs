//! # The EARTH runtime
//!
//! EARTH (Efficient Architecture for Running THreads) is the fine-grained
//! multithreaded program-execution model this paper reports experiences
//! with. This crate implements that model faithfully as a Rust library
//! executing on the simulated MANNA machine from `earth-machine`:
//!
//! * **Threaded functions** ([`ThreadedFn`]) — a function body subdivided
//!   into *threads*: non-preemptive code sequences that, once started, run
//!   to completion. A live invocation is a *frame* holding the function's
//!   state and its **sync slots**.
//! * **Sync slots** — dataflow-style synchronization counters. A slot is
//!   initialized with a count and a designated thread (`INIT_SYNC`); every
//!   completion signal decrements it; at zero the designated thread becomes
//!   ready and the counter resets.
//! * **Split-phase transactions** — remote loads ([`Ctx::get_sync`]) and
//!   stores ([`Ctx::data_sync`]) into a global address space
//!   ([`GlobalAddr`]) return immediately; the issuing thread keeps running
//!   and a sync slot fires when the transfer completes. Block moves
//!   ([`Ctx::blkmov`]) are the same mechanism with large payloads.
//! * **Remote function invocation** — `INVOKE` places a frame on an
//!   explicitly named node ([`Ctx::invoke`]); `TOKEN` ([`Ctx::token`])
//!   enqueues the call as a stealable token handled by the runtime's
//!   receiver-initiated dynamic load balancer.
//! * **Polling watchdog** — between threads a node polls its network
//!   interface and services incoming operations, so even the
//!   single-processor EARTH configuration (used for all the paper's
//!   measurements) overlaps communication with computation.
//!
//! All time is *virtual*: application threads charge simulated i860
//! microseconds through [`Ctx::compute`], and every runtime operation
//! charges the calibrated overheads from
//! [`earth_machine::EarthCosts`]. Swapping the machine's
//! [`earth_machine::CommCostModel`] for the message-passing presets
//! reproduces the paper's Fig. 5 overhead study without touching
//! application code.
//!
//! ## Example
//!
//! ```
//! use earth_rt::{ArgsReader, ArgsWriter, Ctx, Runtime, ThreadId, ThreadedFn};
//! use earth_machine::MachineConfig;
//! use earth_sim::VirtualDuration;
//!
//! /// A threaded function with a single thread that just burns CPU.
//! struct Work { us: u64 }
//!
//! impl ThreadedFn for Work {
//!     fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
//!         ctx.compute(VirtualDuration::from_us(self.us));
//!         ctx.end();
//!     }
//! }
//!
//! let mut rt = Runtime::new(MachineConfig::manna(4), 42);
//! let work = rt.register("work", |args: &mut ArgsReader| {
//!     Box::new(Work { us: args.u64() })
//! });
//! // Fan eight tokens out; the load balancer spreads them over the nodes.
//! for _ in 0..8 {
//!     let mut a = ArgsWriter::new();
//!     a.u64(100);
//!     rt.inject_token(work, a.finish());
//! }
//! let report = rt.run();
//! assert!(report.elapsed.as_us() >= 200); // 8 x 100us over 4 nodes
//! ```

pub mod addr;
pub mod args;
pub mod ctx;
pub mod frame;
pub mod memory;
pub mod msg;
pub mod node;
pub mod payload;
pub mod profile;
pub(crate) mod recover;
pub(crate) mod reli;
pub mod report;
pub mod runtime;
pub(crate) mod slow;
pub mod trace;
pub mod traffic;

pub use addr::{FrameId, GlobalAddr, SlotId, SlotRef, ThreadId};
pub use args::{ArgsReader, ArgsWriter};
pub use ctx::Ctx;
pub use frame::ThreadedFn;
pub use msg::FuncId;
pub use payload::Payload;
pub use profile::{ClassCost, NodeProfile, RunProfile};
pub use report::{EventCounts, NodeStats, RunReport};
pub use runtime::Runtime;
pub use trace::{Activity, Span, Trace};
pub use traffic::{
    BreakerPolicy, JobArrival, JobOutcome, JobRecord, OverloadPolicy, RetryPolicy, SloSummary,
    TrafficReport,
};

pub use earth_machine::NodeId;
