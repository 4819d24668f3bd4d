//! The event loop: node scheduling, message handling, and work stealing.
//!
//! The runtime advances a deterministic discrete-event simulation of all
//! nodes. Each node alternates between (a) servicing the messages its
//! polling watchdog found and (b) running one ready thread (or
//! instantiating one token) to completion, charging the calibrated i860
//! costs for every step. A node with no local work asks the dynamic load
//! balancer for a token from a peer (receiver-initiated work stealing with
//! exponential backoff), exactly the division of labor described in §2 of
//! the paper.

use crate::addr::{FrameId, GlobalAddr, SlotRef, ThreadId};
use crate::args::ArgsReader;
use crate::ctx::Ctx;
use crate::frame::{FrameStore, ThreadedFn};
use crate::msg::{FuncId, Msg};
use crate::node::{Node, Token};
use crate::payload::Payload;
use crate::profile::{ProfileState, RunProfile};
use crate::recover::{Health, RecoverState};
use crate::reli::{Envelope, Pending, ReliLayer, ACK_WIRE, ENV_BYTES};
use crate::report::{NodeStats, RunReport};
use crate::slow::{SlowState, SlowTransition};
use crate::trace::{Activity, Span, Trace};
use crate::traffic::{Admission, Discipline, JobArrival, OverloadPolicy, TrafficState};
use earth_machine::{MachineConfig, NetFate, Network, NodeId, OpClass};
use earth_sim::{EventQueue, Rng, VirtualDuration, VirtualTime};

/// Default per-node memory: MANNA's 32 MB.
pub const NODE_MEMORY: usize = 32 << 20;

/// Ceiling on processed events; exceeding it aborts the run (a runaway
/// guard for protocol bugs, far above any legitimate experiment).
pub const DEFAULT_MAX_EVENTS: u64 = 200_000_000;

/// One scheduled occurrence. Every variant fits in 16 bytes, so a heap
/// entry with its `(time, seq)` key is 32; a message body lives in the
/// runtime's [`InFlight`] slab and its `Deliver` carries only the slot.
pub(crate) enum Event {
    /// A message arriving at a node's NIC: index of its [`Arrival`] in
    /// the in-flight slab, emptied when the event pops.
    Deliver(u32),
    Wake(NodeId),
    /// A retransmission deadline on one of `NodeId`'s unacked messages
    /// may have passed; wake it if it is idle (fault plans only).
    RetryCheck(NodeId),
    /// A planned crash window (index into the crash plan) begins: the
    /// node fail-stops at this instant (crash plans only).
    Crash(usize),
    /// A crash window's recovery begins: restore the checkpoint and
    /// re-execute the lost work (crash plans only).
    Recover(usize),
    /// Periodic failure-detector round: every live node probes its ring
    /// successor (crash plans only; stands down once every planned
    /// crash has resolved, so the run can drain).
    ProbeTick,
    /// Periodic checkpoint capture on every live node (crash plans
    /// only; stands down with the detector).
    CkptTick,
    /// The suspicion alarm for one probe `monitor` sent at `sent`: if no
    /// ack from its target has arrived since, declare the target crashed.
    DetectCheck {
        monitor: NodeId,
        sent: VirtualTime,
    },
    /// Job `k` of the installed traffic plan reaches the admission
    /// front-end (traffic plans only; armed at install like the crash
    /// plane, so arrival instants are fixed before execution starts).
    JobArrive(u32),
    /// Job `k` reported completion via [`crate::Ctx::job_done`]. A
    /// scheduled event — not an immediate mutation — because the
    /// reporting thread runs to completion in host order ahead of
    /// virtual time: the freed slot must not admit anyone until the
    /// completion instant actually arrives (traffic plans only).
    JobDone(u32),
    /// A refused job `k` re-presents itself at the front door after its
    /// client's backoff (overload policies with retries only). The
    /// instant was fixed when the refusal happened — capped exponential
    /// backoff plus counter-addressed jitter — so retry storms replay
    /// byte-identically.
    JobRetry(u32),
    /// A hedge timer on `node`'s reliable message `(dst, seq)` fired: if
    /// the first transmission is still unacked and untouched by the
    /// timeout retransmitter, re-send the same envelope now instead of
    /// waiting out the full deadline (straggler defenses only).
    HedgeCheck {
        node: NodeId,
        dst: u16,
        seq: u64,
    },
}

/// The body of one `Deliver` event: the message, its destination, the
/// length of the dependency chain behind it (critical-path accounting)
/// and, under a fault plan, the reliability envelope it travelled with.
struct Arrival {
    dst: NodeId,
    msg: Msg,
    cp: VirtualDuration,
    env: Option<Envelope>,
}

/// The bodies of the `Deliver` events still in the queue. A slot is
/// filled when its event is pushed and emptied when it pops; freed slots
/// are reused last in, first out, so the slab grows only to the most
/// deliveries ever in flight at once. Slot numbers never reach the
/// queue's `(time, seq)` order, so they move host memory only.
#[derive(Default)]
struct InFlight {
    slots: Vec<Option<Arrival>>,
    free: Vec<u32>,
}

impl InFlight {
    fn insert(&mut self, a: Arrival) -> u32 {
        match self.free.pop() {
            Some(k) => {
                self.slots[k as usize] = Some(a);
                k
            }
            None => {
                let k = u32::try_from(self.slots.len()).expect("over 2^32 deliveries in flight");
                self.slots.push(Some(a));
                k
            }
        }
    }

    fn take(&mut self, k: u32) -> Arrival {
        let a = self.slots[k as usize]
            .take()
            .expect("Deliver event popped twice");
        self.free.push(k);
        a
    }
}

type Ctor = Box<dyn Fn(&mut ArgsReader<'_>) -> Box<dyn ThreadedFn>>;

/// The EARTH runtime over a simulated MANNA machine.
pub struct Runtime {
    pub(crate) nodes: Vec<Node>,
    pub(crate) net: Network,
    /// Pending events, popped in `(time, push order)` order. A binary
    /// heap: every event, report and golden is a function of that order
    /// alone, so the queue's layout moves host time and memory only.
    pub(crate) events: EventQueue<Event>,
    /// Message bodies of the queued `Deliver` events.
    in_flight: InFlight,
    funcs: Vec<(String, Ctor)>,
    /// Tokens alive anywhere (queued or in flight); drives steal decisions.
    pub(crate) global_tokens: u64,
    pub(crate) marks: Vec<(String, VirtualTime)>,
    last_activity: VirtualTime,
    processed: u64,
    max_events: u64,
    /// Master switch for the dynamic load balancer.
    pub(crate) stealing_enabled: bool,
    /// Optional execution trace.
    trace: Option<Trace>,
    /// Optional overhead-accounting collector (earth-profile).
    profile: Option<ProfileState>,
    /// Reliability layer — `Some` exactly when the machine has a fault
    /// plan installed; fault-free runs never touch it.
    reli: Option<ReliLayer>,
    /// Crash plane — `Some` exactly when the installed fault plan
    /// schedules crash windows; every other run (fault plan or not)
    /// never allocates a detector, checkpoint, or recovery structure.
    recover: Option<RecoverState>,
    /// Straggler-defense plane — `Some` exactly when the installed fault
    /// plan arms a slow detector or hedging (`has_straggler_defenses`);
    /// every other run never allocates EWMAs or quarantine state.
    slow: Option<SlowState>,
    /// Per-node "was inside a slowdown window last round" flags, sized
    /// only when the plan schedules node slowdowns (empty otherwise, so
    /// clean runs skip the per-round factor query entirely). Drives the
    /// `slow_windows` transition counter.
    slow_flags: Vec<bool>,
    /// Admission front-end — `Some` exactly when a non-empty traffic
    /// plan is installed; plain batch runs never touch it.
    traffic: Option<TrafficState>,
    /// Longest message/thread dependency chain observed so far. Tracked
    /// unconditionally: it is a pure observation and costs no virtual time.
    max_cp: VirtualDuration,
    /// Scratch buffer for steal-victim candidates, reused across rounds
    /// so the hot path stays allocation-free.
    steal_scratch: Vec<NodeId>,
    /// Scratch buffer for due retransmission keys (fault plans only).
    retr_scratch: Vec<(u16, u64)>,
    /// Ascending indices of nodes whose token queue is non-empty — the
    /// steal-victim candidate set, maintained incrementally at every
    /// token-queue mutation (`sync_token_index`) so `try_steal` costs
    /// O(holders) instead of scanning all nodes. `steal_victims_scan`
    /// is the property-tested reference.
    token_holders: Vec<u16>,
    /// Scratch buffer for the periodic probe/checkpoint ticks' live-node
    /// snapshot (crash plans only), reused across rounds.
    tick_scratch: Vec<u16>,
}

impl Runtime {
    /// A runtime over `cfg` with all randomness derived from `seed`.
    pub fn new(cfg: MachineConfig, seed: u64) -> Self {
        let mut master = Rng::new(seed);
        let nodes = (0..cfg.nodes)
            .map(|i| Node::new(NODE_MEMORY, master.fork(i as u64)))
            .collect();
        let net_seed = master.next_u64();
        let net = Network::new(cfg, net_seed);
        let plan = net.config().faults.as_ref();
        let reli = plan.map(|p| ReliLayer::new(net.config().nodes, p.rto, p.rto_cap()));
        let recover = plan
            .filter(|p| p.has_crashes())
            .map(|p| RecoverState::new(p, net.config().nodes));
        let slow = plan
            .filter(|p| p.has_straggler_defenses())
            .map(|p| SlowState::new(p, net.config().nodes));
        let slow_flags = if plan.is_some_and(|p| !p.slowdowns.is_empty()) {
            vec![false; net.config().nodes as usize]
        } else {
            Vec::new()
        };
        let mut events = EventQueue::new();
        if let Some(rec) = recover.as_ref() {
            // Arm the crash plane: planned crashes (and scheduled
            // restarts) at their instants, plus the first detector and
            // checkpoint rounds. The periodic ticks re-arm themselves
            // until every planned crash has resolved, then stand down so
            // the event queue can drain to quiescence.
            for (i, c) in rec.crashes.iter().enumerate() {
                events.push(c.down, Event::Crash(i));
                if let Some(up) = c.up {
                    events.push(up, Event::Recover(i));
                }
            }
            events.push(VirtualTime::ZERO + rec.heartbeat_every, Event::ProbeTick);
            events.push(VirtualTime::ZERO + rec.checkpoint_every, Event::CkptTick);
        }
        Runtime {
            nodes,
            net,
            reli,
            recover,
            slow,
            slow_flags,
            traffic: None,
            events,
            in_flight: InFlight::default(),
            funcs: Vec::new(),
            global_tokens: 0,
            marks: Vec::new(),
            last_activity: VirtualTime::ZERO,
            processed: 0,
            max_events: DEFAULT_MAX_EVENTS,
            stealing_enabled: true,
            trace: None,
            profile: None,
            max_cp: VirtualDuration::ZERO,
            steal_scratch: Vec::new(),
            retr_scratch: Vec::new(),
            token_holders: Vec::new(),
            tick_scratch: Vec::new(),
        }
    }

    /// Start recording per-node activity spans (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::default());
    }

    /// Take the recorded trace (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Trace {
        self.trace.take().unwrap_or_default()
    }

    /// Start earth-profile collection: overhead decomposition per node,
    /// activity trace, and network link occupancy. Free in virtual time —
    /// a profiled run's report is identical to an unprofiled one.
    pub fn enable_profile(&mut self) {
        self.enable_trace();
        self.net.enable_occupancy();
        if self.profile.is_none() {
            self.profile = Some(ProfileState::with_nodes(self.nodes.len()));
        }
    }

    /// Take the collected profile (empty if profiling was never enabled).
    pub fn take_profile(&mut self) -> RunProfile {
        let enabled = self.profile.is_some();
        let st = self.profile.take().unwrap_or_default();
        let mut nodes = st.nodes;
        nodes.resize(self.nodes.len(), Default::default());
        if enabled {
            for (p, n) in nodes.iter_mut().zip(&self.nodes) {
                p.set_activities(&n.time);
            }
        }
        RunProfile {
            nodes,
            trace: self.take_trace(),
            su_spans: st.su_spans,
            links: self.net.take_occupancy(),
            fault_events: self.net.take_fault_events(),
            critical_path: self.max_cp,
        }
    }

    /// Longest chain of message/thread dependencies executed so far —
    /// the run's inherent serial bottleneck.
    pub fn critical_path(&self) -> VirtualDuration {
        self.max_cp
    }

    /// Machine configuration in force.
    pub fn config(&self) -> &MachineConfig {
        self.net.config()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u16 {
        self.nodes.len() as u16
    }

    /// Disable the token load balancer (tokens then run only where they
    /// were created) — used by the load-balancing ablation.
    pub fn set_stealing(&mut self, enabled: bool) {
        self.stealing_enabled = enabled;
    }

    /// Override the runaway-event guard.
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Register a threaded function; the constructor decodes the argument
    /// bytes into a fresh frame.
    pub fn register<F>(&mut self, name: &str, ctor: F) -> FuncId
    where
        F: Fn(&mut ArgsReader<'_>) -> Box<dyn ThreadedFn> + 'static,
    {
        self.funcs.push((name.to_string(), Box::new(ctor)));
        FuncId(self.funcs.len() as u32 - 1)
    }

    /// Host-side setup: allocate `len` bytes on `node`.
    pub fn alloc_on(&mut self, node: NodeId, len: u32) -> GlobalAddr {
        GlobalAddr::new(node, self.nodes[node.index()].mem.alloc(len))
    }

    /// Host-side setup/inspection: write node memory directly (free).
    pub fn write_mem(&mut self, addr: GlobalAddr, bytes: &[u8]) {
        self.nodes[addr.node.index()].mem.write(addr.offset, bytes);
    }

    /// Host-side inspection: read node memory directly (free).
    pub fn read_mem(&self, addr: GlobalAddr, len: u32) -> Vec<u8> {
        self.nodes[addr.node.index()]
            .mem
            .read(addr.offset, len)
            .to_vec()
    }

    /// Attach application state to a node (weight slices, caches, ...).
    pub fn set_state<T: 'static>(&mut self, node: NodeId, state: T) {
        self.nodes[node.index()].user = Some(Box::new(state));
    }

    /// Borrow a node's application state.
    pub fn state<T: 'static>(&self, node: NodeId) -> &T {
        self.nodes[node.index()]
            .user
            .as_ref()
            .expect("node has no application state")
            .downcast_ref()
            .expect("node state has a different type")
    }

    /// Mutably borrow a node's application state.
    pub fn state_mut<T: 'static>(&mut self, node: NodeId) -> &mut T {
        self.nodes[node.index()]
            .user
            .as_mut()
            .expect("node has no application state")
            .downcast_mut()
            .expect("node state has a different type")
    }

    /// Inject an invocation at t=0 (the program's `main`).
    pub fn inject_invoke(&mut self, node: NodeId, func: FuncId, args: impl Into<Payload>) {
        let args = args.into();
        self.push_deliver(
            VirtualTime::ZERO,
            node,
            Msg::Invoke { func, args },
            VirtualDuration::ZERO,
            None,
        );
    }

    /// Inject a token at t=0 on node 0; the load balancer spreads it.
    pub fn inject_token(&mut self, func: FuncId, args: impl Into<Payload>) {
        self.inject_token_on(NodeId(0), func, args);
    }

    /// Inject a token at t=0 on a specific node.
    pub fn inject_token_on(&mut self, node: NodeId, func: FuncId, args: impl Into<Payload>) {
        let args = args.into();
        self.global_tokens += 1;
        self.push_deliver(
            VirtualTime::ZERO,
            node,
            Msg::Token { func, args },
            VirtualDuration::ZERO,
            None,
        );
    }

    /// Install a traffic plan: `jobs` arrive at their scheduled instants
    /// and are admitted up to `concurrency` at a time under `discipline`.
    /// Each admitted job's root token is launched on its (live) home node;
    /// the job must report back with [`Ctx::job_done`] when finished.
    ///
    /// Arrival events are armed here, before the first event pops — the
    /// same pattern as the crash plane — so the stream is fixed up front.
    /// Installing an empty arrival list is a no-op: the runtime stays
    /// byte-identical to one with no traffic plane at all.
    pub fn install_traffic(
        &mut self,
        jobs: Vec<JobArrival>,
        concurrency: u32,
        discipline: Discipline,
    ) {
        self.install_traffic_with(jobs, concurrency, discipline, OverloadPolicy::default());
    }

    /// [`Self::install_traffic`] with an explicit overload-control
    /// policy: bounded queue, deadline shedding, client retries, and the
    /// per-tenant circuit breaker (see [`OverloadPolicy`]). The default
    /// policy is all-off and byte-identical to [`Self::install_traffic`].
    pub fn install_traffic_with(
        &mut self,
        jobs: Vec<JobArrival>,
        concurrency: u32,
        discipline: Discipline,
        policy: OverloadPolicy,
    ) {
        assert!(
            self.traffic.is_none(),
            "a traffic plan is already installed"
        );
        if jobs.is_empty() {
            return;
        }
        for (k, j) in jobs.iter().enumerate() {
            self.events.push(j.arrive, Event::JobArrive(k as u32));
        }
        self.traffic = Some(TrafficState::new(jobs, concurrency, discipline, policy));
    }

    /// Job `k` reaches the front door at `t`: record the arrival and admit
    /// as far as the concurrency limit allows.
    fn job_arrive(&mut self, t: VirtualTime, k: u32) {
        let admission = self
            .traffic
            .as_mut()
            .expect("JobArrive event without a traffic plan")
            .arrive(t, k);
        if let Admission::Retry(at) = admission {
            self.events.push(at, Event::JobRetry(k));
        }
        self.admit_ready(t);
    }

    /// A refused job's client re-presents it at `t` (overload retries
    /// only): same door, same admission path — only the `arrived`
    /// counter, which tracks unique jobs, stays put.
    fn job_retry(&mut self, t: VirtualTime, k: u32) {
        let admission = self
            .traffic
            .as_mut()
            .expect("JobRetry event without a traffic plan")
            .retry_arrive(t, k);
        if let Admission::Retry(at) = admission {
            self.events.push(at, Event::JobRetry(k));
        }
        self.admit_ready(t);
    }

    /// Admit waiting jobs while the concurrency limit has room. Launching
    /// a job is pure control plane: it pushes the same zero-latency token
    /// delivery as [`Runtime::inject_token_on`], consuming no fault fates
    /// and no node randomness — so the traffic plane cannot perturb the
    /// fault/crash planes' streams.
    fn admit_ready(&mut self, t: VirtualTime) {
        // Deadline shedding first: expired waiters are dropped before
        // they can claim the slot a live job needs. Policy-gated — the
        // default policy never reaches the sweep.
        if self.traffic.as_ref().is_some_and(TrafficState::sheds) {
            let mut retries = Vec::new();
            self.traffic
                .as_mut()
                .expect("checked above")
                .shed_expired(t, &mut retries);
            for (at, k) in retries {
                self.events.push(at, Event::JobRetry(k));
            }
        }
        loop {
            let Some(st) = self.traffic.as_mut() else {
                return;
            };
            if !st.can_admit() {
                return;
            }
            let k = st.pick_next();
            st.records[k as usize].admit = Some(t);
            let j = &st.jobs[k as usize];
            let (home, func, args) = (j.home, j.func, j.args.clone());
            // Never hand a root token to a node that is down: its NIC
            // would drop the unreliable delivery and strand the job. Walk
            // to the next live node (deterministic given the plans).
            let home = self.live_home(t, home);
            self.global_tokens += 1;
            self.push_deliver(
                t,
                home,
                Msg::Token { func, args },
                VirtualDuration::ZERO,
                None,
            );
        }
    }

    /// Whether the straggler plane currently quarantines node `i` (false
    /// whenever no defense plane is armed). Pure, like the underlying
    /// predicate, so index-vs-scan equivalence assertions stay valid.
    fn node_quarantined(&self, i: usize, t: VirtualTime) -> bool {
        self.slow.as_ref().is_some_and(|s| s.is_quarantined(i, t))
    }

    /// `home`, or the next node (ascending, wrapping) that is neither
    /// crashed nor quarantined. If *every* live node is quarantined the
    /// second pass settles for merely-live — refusing all placement
    /// would strand the job, and mass quarantine means the relative
    /// outlier test is about to clear somebody anyway.
    fn live_home(&self, t: VirtualTime, home: NodeId) -> NodeId {
        if self.recover.is_none() && self.slow.is_none() {
            return home;
        }
        let n = self.nodes.len();
        let down = |cand: NodeId| self.recover.as_ref().is_some_and(|r| r.is_down(cand));
        (0..n)
            .map(|step| NodeId(((home.index() + step) % n) as u16))
            .find(|&cand| !down(cand) && !self.node_quarantined(cand.index(), t))
            .or_else(|| {
                (0..n)
                    .map(|step| NodeId(((home.index() + step) % n) as u16))
                    .find(|&cand| !down(cand))
            })
            .unwrap_or(home)
    }

    /// [`Ctx::job_done`] landing point: schedule the completion at the
    /// reporting thread's virtual instant. The assertion that the job is
    /// actually in flight happens when the event fires.
    pub(crate) fn traffic_job_done(&mut self, at: VirtualTime, job: u32) {
        assert!(
            self.traffic.is_some(),
            "Ctx::job_done without a traffic plan"
        );
        self.events.push(at, Event::JobDone(job));
    }

    /// An admitted job's completion instant arrived: close its record and
    /// admit the next waiting job into the freed slot.
    fn job_done_at(&mut self, t: VirtualTime, job: u32) {
        self.traffic
            .as_mut()
            .expect("JobDone event without a traffic plan")
            .complete(t, job);
        self.admit_ready(t);
    }

    /// Run to quiescence and report.
    pub fn run(&mut self) -> RunReport {
        while let Some((t, ev)) = self.events.pop() {
            self.processed += 1;
            assert!(
                self.processed <= self.max_events,
                "runaway simulation: {} events processed",
                self.processed
            );
            match ev {
                Event::Deliver(k) => {
                    let a = self.in_flight.take(k);
                    self.deliver(t, a.dst, a.msg, a.cp, a.env);
                }
                Event::Wake(node) => self.wake(t, node),
                Event::RetryCheck(node) => self.retry_check(t, node),
                Event::Crash(i) => self.crash_node(t, i),
                Event::Recover(i) => self.recover_node(t, i),
                Event::ProbeTick => self.probe_tick(t),
                Event::CkptTick => self.ckpt_tick(t),
                Event::DetectCheck { monitor, sent } => self.detect_check(t, monitor, sent),
                Event::JobArrive(k) => self.job_arrive(t, k),
                Event::JobDone(k) => self.job_done_at(t, k),
                Event::JobRetry(k) => self.job_retry(t, k),
                Event::HedgeCheck { node, dst, seq } => self.hedge_check(t, node, dst, seq),
            }
        }
        self.report()
    }

    fn report(&self) -> RunReport {
        let net = self.net.stats();
        RunReport {
            elapsed: self.last_activity.since(VirtualTime::ZERO),
            events: self.processed,
            marks: self.marks.clone(),
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeStats {
                    busy: n.eu_time(),
                    su_time: n.time[Activity::Su as usize],
                    ..n.stats.clone()
                })
                .collect(),
            net_messages: net.messages,
            net_bytes: net.bytes,
            link_waits: net.link_waits,
            net_dropped: net.dropped,
            net_duplicated: net.duplicated,
            net_delayed: net.delayed,
            net_crash_dropped: net.crash_dropped,
            leftover_tokens: self.global_tokens,
            live_frames: self.nodes.iter().map(|n| n.frames.live as u64).sum(),
            peak_queue_depth: self.events.peak_len() as u64,
            traffic: self.traffic.as_ref().map(TrafficState::report),
        }
    }

    // ---- internal machinery -------------------------------------------

    /// Transmit `msg` from `src`, scheduling its delivery. `cp` is the
    /// dependency-chain length behind the send; the delivered message
    /// carries `cp` plus the pure flight latency (serialization + wire,
    /// excluding any sender-link queueing, which is contention rather
    /// than dependency).
    pub(crate) fn transmit(
        &mut self,
        at: VirtualTime,
        src: NodeId,
        dst: NodeId,
        msg: Msg,
        cp: VirtualDuration,
    ) {
        if self.reli.is_some() && src != dst {
            if matches!(msg, Msg::Ack { .. }) {
                // Acks ride the faulty network unprotected: a dropped ack
                // costs one more retransmission, which the receiver dedups
                // and re-acks; a duplicated ack's second removal is a no-op.
                let r = self.net.send_resolved(at, src, dst, msg.wire_size());
                self.nodes[src.index()].stats.msgs_out += 1;
                self.push_fate(r.depart, r.fate, dst, msg, cp, None);
            } else {
                self.transmit_reliable(at, src, dst, msg, cp, None);
            }
            return;
        }
        let d = self.net.send_detailed(at, src, dst, msg.wire_size());
        self.nodes[src.index()].stats.msgs_out += 1;
        self.push_deliver(d.arrive, dst, msg, cp + d.arrive.since(d.depart), None);
    }

    /// Schedule `msg`'s arrival at `dst` at `at`. Every `Deliver` event is
    /// made here, so its body always goes through the in-flight slab.
    fn push_deliver(
        &mut self,
        at: VirtualTime,
        dst: NodeId,
        msg: Msg,
        cp: VirtualDuration,
        env: Option<Envelope>,
    ) {
        let k = self.in_flight.insert(Arrival { dst, msg, cp, env });
        self.events.push(at, Event::Deliver(k));
    }

    /// Schedule the copies of a send that its fault-plane `fate`
    /// delivers: one, none, or the original and then the duplicate. Each
    /// copy's chain grows by its flight time since `depart`, when the
    /// send left its sender link.
    fn push_fate(
        &mut self,
        depart: VirtualTime,
        fate: NetFate,
        dst: NodeId,
        msg: Msg,
        cp: VirtualDuration,
        env: Option<Envelope>,
    ) {
        match fate {
            NetFate::Delivered { arrive } => {
                self.push_deliver(arrive, dst, msg, cp + arrive.since(depart), env);
            }
            NetFate::Dropped => {}
            NetFate::Duplicated { first, second } => {
                self.push_deliver(first, dst, msg.clone(), cp + first.since(depart), env);
                self.push_deliver(second, dst, msg, cp + second.since(depart), env);
            }
        }
    }

    /// Send `msg` under the reliability layer: sequence-numbered envelope,
    /// kept by the sender until acked, retransmitted on deadline. `resend`
    /// is `None` for a fresh send (allocates the sequence number) or
    /// `Some((seq, attempts))` for a retransmission of a held message.
    fn transmit_reliable(
        &mut self,
        at: VirtualTime,
        src: NodeId,
        dst: NodeId,
        msg: Msg,
        cp: VirtualDuration,
        resend: Option<(u64, u32)>,
    ) {
        let r = self
            .net
            .send_resolved(at, src, dst, msg.wire_size() + ENV_BYTES);
        self.nodes[src.index()].stats.msgs_out += 1;
        let (seq, attempts) = match resend {
            Some(sa) => sa,
            None => (self.reli.as_mut().unwrap().alloc_seq(src, dst), 0),
        };
        // Deadline: the fault-free arrival estimate (link queueing and
        // latency spikes included) plus the ack's return-leg transfer time
        // plus the backoff margin. Receiver service time is *not* in the
        // ack path — the NIC acks on arrival — so this stays tight.
        let ack_leg = self.net.transfer_time(dst, src, ACK_WIRE);
        let expected_rtt = r.expected.since(at) + ack_leg;
        let reli = self.reli.as_mut().unwrap();
        let deadline = r.expected + ack_leg + reli.backoff(attempts);
        match reli.unacked[src.index()].entry((dst.0, seq)) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Pending {
                    msg: msg.clone(),
                    cp,
                    attempts,
                    deadline,
                    sent: at,
                    expected_rtt,
                    hedged: false,
                });
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().deadline = deadline;
            }
        }
        if resend.is_none() {
            if let Some(hf) = self.slow.as_ref().and_then(|s| s.hedge_factor) {
                // Hedged retransmit (straggler defenses): arm a timer at
                // this message's expected round trip, scaled by the
                // destination's observed slowness ratio (1.0 before the
                // first sample) and the plan's hedge factor. A
                // straggler's inflated EWMA pushes its hedge point out
                // proportionally, so hedges fire on *unusual* lateness.
                // The delay is floored at the plan's RTO margin: a small
                // message's ack stuck head-of-line behind a bulk
                // transfer is late by an *absolute* amount no ratio
                // threshold can screen out, and hedging those would
                // flood healthy links with duplicate payloads.
                let slowness = self
                    .slow
                    .as_ref()
                    .unwrap()
                    .ewma_permille(dst.index())
                    .unwrap_or(1000);
                let base_ns = expected_rtt.as_ns().saturating_mul(slowness) / 1000;
                let delay = VirtualDuration::from_ns((base_ns as f64 * hf) as u64)
                    .max(self.reli.as_ref().unwrap().rto);
                self.events.push(
                    at + delay,
                    Event::HedgeCheck {
                        node: src,
                        dst: dst.0,
                        seq,
                    },
                );
            }
        }
        let env = Some(Envelope { src, seq });
        self.push_fate(r.depart, r.fate, dst, msg, cp, env);
        self.events.push(deadline, Event::RetryCheck(src));
    }

    fn deliver(
        &mut self,
        t: VirtualTime,
        node: NodeId,
        msg: Msg,
        cp: VirtualDuration,
        env: Option<Envelope>,
    ) {
        // Crash plane: a down node's NIC discards every arrival *before*
        // acking it. Reliable traffic is retransmitted by the sender's
        // watchdog until the node returns; unprotected acks addressed to
        // it are covered by the usual retransmit + dedup cycle.
        if self.recover.as_ref().is_some_and(|r| r.is_down(node)) {
            self.net.note_crash_drop();
            return;
        }
        if let Some(env) = env {
            // NIC-level protocol, costing no EU time (mirrors the EARTH
            // NIC/SU handling hardware-level flow control): ack every copy
            // seen — the ack for an earlier copy may itself have been
            // lost — then suppress duplicates before they reach the
            // runtime. An ack starts a fresh dependency chain: no
            // application event ever waits on one.
            self.transmit(
                t,
                node,
                env.src,
                Msg::Ack {
                    from: node,
                    seq: env.seq,
                },
                VirtualDuration::ZERO,
            );
            let fresh = self
                .reli
                .as_mut()
                .unwrap()
                .note_received(node, env.src, env.seq);
            if !fresh {
                self.nodes[node.index()].stats.dup_suppressed += 1;
                return;
            }
        }
        let n = &mut self.nodes[node.index()];
        n.pending.push_back((msg, cp, t));
        if !n.busy && !n.wake_pending {
            n.wake_pending = true;
            self.events.push(t, Event::Wake(node));
        }
    }

    /// A retransmission deadline for `node` may have passed: wake it if it
    /// is idle so its watchdog can resend. Stale checks (the message was
    /// acked, or an earlier round already resent it) cost nothing.
    fn retry_check(&mut self, t: VirtualTime, node: NodeId) {
        let due = self
            .reli
            .as_ref()
            .is_some_and(|r| r.unacked[node.index()].values().any(|p| p.deadline <= t));
        if due {
            let n = &mut self.nodes[node.index()];
            if !n.busy && !n.wake_pending {
                n.wake_pending = true;
                self.events.push(t, Event::Wake(node));
            }
        }
    }

    /// A hedge timer fired: the first transmission of `(dst, seq)` took
    /// longer than the destination's usual round trip. If it is still
    /// unacked, not yet timeout-retransmitted, and not already hedged,
    /// re-send the same envelope now — the receiver's watermark dedups
    /// whichever copy loses the race, and the timeout retransmitter's
    /// deadline is deliberately left untouched (the hedge is a bet, not
    /// a reschedule). Stale checks cost nothing.
    fn hedge_check(&mut self, t: VirtualTime, node: NodeId, dst: u16, seq: u64) {
        // A down sender hedges nothing; its held messages replay through
        // the ordinary retransmission path after recovery.
        if self.recover.as_ref().is_some_and(|r| r.is_down(node)) {
            return;
        }
        let Some(reli) = self.reli.as_mut() else {
            return;
        };
        let Some(p) = reli.unacked[node.index()].get_mut(&(dst, seq)) else {
            return; // acked in the meantime: the common, free case
        };
        if p.attempts > 0 || p.hedged {
            return; // the timeout path beat us to it, or already hedged
        }
        p.hedged = true;
        let (msg, cp) = (p.msg.clone(), p.cp);
        let cost = self.config().earth.op_send;
        let n = &mut self.nodes[node.index()];
        n.stats.hedges_sent += 1;
        n.stats.msgs_out += 1;
        self.charge(node, t, cost, Activity::Hedge);
        // Re-send under the *same* envelope, bypassing transmit_reliable:
        // the sequence number, attempt counter, and deadline all stay
        // put, so with the plane disabled nothing here ever runs and the
        // retransmission schedule is byte-identical.
        let dst = NodeId(dst);
        let r = self
            .net
            .send_resolved(t + cost, node, dst, msg.wire_size() + ENV_BYTES);
        let env = Some(Envelope { src: node, seq });
        self.push_fate(r.depart, r.fate, dst, msg, cp, env);
    }

    /// A planned crash window begins: the node fail-stops. All of its
    /// Rust-side state stays in place — the recovery replay provably
    /// reconstructs it bit-for-bit (deterministic re-execution from the
    /// last checkpoint with the NIC's pessimistic receive log), so the
    /// simulator models recovery as charging the replay's virtual time
    /// rather than re-materializing identical state.
    fn crash_node(&mut self, t: VirtualTime, i: usize) {
        let Some(rec) = self.recover.as_mut() else {
            return;
        };
        let node = rec.crashes[i].node as usize;
        assert!(
            rec.health[node] == Health::Up,
            "overlapping crash windows on node {node}"
        );
        rec.mark_down(node);
        rec.down_since[node] = t;
        rec.lost_work[node] = rec.busy_since_ckpt[node];
        self.nodes[node].stats.crashes += 1;
    }

    /// A crash window's recovery begins — at its scheduled restart
    /// instant, or at the detection instant for failover crashes. The
    /// node charges `restore_cost` plus a re-execution of everything it
    /// had run since its last checkpoint, then wakes: its NIC accepts
    /// traffic from here on (queued behind the replay), so the senders'
    /// retransmissions drain.
    fn recover_node(&mut self, t: VirtualTime, i: usize) {
        let Some(rec) = self.recover.as_mut() else {
            return;
        };
        if rec.crashes[i].resolved {
            return;
        }
        rec.crashes[i].resolved = true;
        let node = rec.crashes[i].node as usize;
        rec.mark_up(node);
        rec.suspected_dead[node] = false;
        let replay = rec.restore_cost + rec.lost_work[node];
        rec.lost_work[node] = VirtualDuration::ZERO;
        let down_since = rec.down_since[node];
        let nid = NodeId(node as u16);
        let n = &mut self.nodes[node];
        n.stats.recoveries += 1;
        n.stats.downtime += (t + replay).since(down_since);
        n.busy = true;
        n.wake_pending = true;
        self.charge(nid, t, replay, Activity::Recover);
        // The replay ends in crash-time state, freshly re-checkpointed:
        // the meter resets after the charge, so the replay is not lost work.
        self.recover.as_mut().unwrap().busy_since_ckpt[node] = VirtualDuration::ZERO;
        self.events.push(t + replay, Event::Wake(nid));
    }

    /// One failure-detector round: every live node probes its ring
    /// successor over the reliable path and arms a suspicion alarm. The
    /// tick re-arms itself until every planned crash has resolved.
    fn probe_tick(&mut self, t: VirtualTime) {
        let Some(rec) = self.recover.as_ref() else {
            return;
        };
        if rec.all_resolved() {
            return; // stand down; the queue drains and the run ends
        }
        let (every, suspect_after) = (rec.heartbeat_every, rec.suspect_after);
        let cost = self.config().earth.op_send;
        // Hoist the crash-plane borrow: snapshot the live list once into
        // reusable scratch (dead nodes probe no one) instead of
        // re-borrowing `self.recover` and skipping down nodes by scan on
        // every iteration. Ascending order matches the old scan's.
        let mut live = std::mem::take(&mut self.tick_scratch);
        live.clear();
        live.extend_from_slice(&rec.live);
        let total = self.nodes.len();
        for &m in &live {
            let m = m as usize;
            let (monitor, target) = (NodeId(m as u16), crate::recover::ring_successor(m, total));
            self.nodes[m].stats.heartbeats += 1;
            self.charge(monitor, t, cost, Activity::Heartbeat);
            let sent = t + cost;
            // A probe starts a fresh dependency chain: nothing the
            // application does ever waits on one.
            self.transmit(
                sent,
                monitor,
                target,
                Msg::Heartbeat { from: monitor },
                VirtualDuration::ZERO,
            );
            self.events
                .push(sent + suspect_after, Event::DetectCheck { monitor, sent });
        }
        self.tick_scratch = live;
        self.events.push(t + every, Event::ProbeTick);
    }

    /// One checkpoint round: every live node snapshots its frames,
    /// sync-slot counters, memory segments, and queued tokens, resetting
    /// its lost-work meter. Re-arms itself alongside the detector.
    fn ckpt_tick(&mut self, t: VirtualTime) {
        let Some(rec) = self.recover.as_ref() else {
            return;
        };
        if rec.all_resolved() {
            return; // stand down with the detector
        }
        let (every, cost) = (rec.checkpoint_every, rec.checkpoint_cost);
        // Snapshot the live list (down nodes have nothing to capture;
        // recovery re-checkpoints them), charge each capture, then reset
        // the lost-work meters: the capture itself is saved, not lost.
        let mut live = std::mem::take(&mut self.tick_scratch);
        live.clear();
        live.extend_from_slice(&rec.live);
        for &i in &live {
            self.nodes[i as usize].stats.checkpoints += 1;
            if !cost.is_zero() {
                self.charge(NodeId(i), t, cost, Activity::Checkpoint);
            }
        }
        let rec = self.recover.as_mut().unwrap();
        for &i in &live {
            rec.busy_since_ckpt[i as usize] = VirtualDuration::ZERO;
        }
        self.tick_scratch = live;
        self.events.push(t + every, Event::CkptTick);
    }

    /// The suspicion alarm for one probe: if the monitor has seen no ack
    /// from its target since the probe went out, declare the target
    /// crashed — re-home its queued tokens to the survivors and, for a
    /// crash without a scheduled restart, begin failover recovery now.
    fn detect_check(&mut self, t: VirtualTime, monitor: NodeId, sent: VirtualTime) {
        let Some(rec) = self.recover.as_mut() else {
            return;
        };
        let m = monitor.index();
        if rec.health[m] == Health::Down {
            return; // a dead monitor detects nothing
        }
        let target = rec.target_of(m);
        if rec.suspected_dead[target.index()] || rec.last_ack_from[m] > sent {
            return; // already declared, or the target proved alive since
        }
        let actually_down = rec.is_down(target);
        // Straggler guard: a Suspected-Slow node is alive — its acks all
        // arrive, just late — so the crash detector must never escalate
        // it to Suspected-Dead, which would failover-restart a healthy
        // node and re-execute work it never lost. A node that really did
        // crash while also suspected slow still fails over: the crash,
        // not the latency, is what the recovery machinery answers.
        if !actually_down
            && self
                .slow
                .as_ref()
                .is_some_and(|s| s.suspected_slow(target.index()))
        {
            return;
        }
        let rec = self.recover.as_mut().unwrap();
        rec.suspected_dead[target.index()] = true;
        if actually_down {
            if let Some(i) = rec.pending_failover(target) {
                rec.crashes[i].recovery_scheduled = true;
                self.events.push(t, Event::Recover(i));
            }
        }
        self.rehome_tokens(t, monitor, target, false);
    }

    /// Graceful degradation: the monitor adopts the declared node's
    /// queued tokens (recoverable from its buddy checkpoint) and spreads
    /// them round-robin over the surviving nodes, so the work finishes
    /// without the crashed node. With `speculative` the same machinery
    /// serves the straggler plane: a freshly *quarantined* node's queued
    /// tokens are re-homed onto un-quarantined peers — the node is alive
    /// and keeps whatever it is currently running, but work it has not
    /// started yet should not wait out its slowdown.
    fn rehome_tokens(
        &mut self,
        t: VirtualTime,
        monitor: NodeId,
        target: NodeId,
        speculative: bool,
    ) {
        let orphans: Vec<Token> = self.nodes[target.index()].tokens.drain(..).collect();
        self.sync_token_index(target.index());
        if orphans.is_empty() {
            return;
        }
        let rec = self.recover.as_ref();
        let mut survivors: Vec<NodeId> = (0..self.nodes.len())
            .filter(|&i| {
                i != target.index()
                    && rec.is_none_or(|r| r.health[i] == Health::Up && !r.suspected_dead[i])
                    && !self.node_quarantined(i, t)
            })
            .map(|i| NodeId(i as u16))
            .collect();
        if survivors.is_empty() {
            // Pathological mass suspicion: the monitor keeps the work.
            survivors.push(monitor);
        }
        let costs = self.config().earth;
        let mut elapsed = VirtualDuration::ZERO;
        for (k, token) in orphans.into_iter().enumerate() {
            let dst = survivors[k % survivors.len()];
            elapsed += costs.token_op + costs.op_send;
            if speculative {
                // The stat belongs to the quarantined node: "this much of
                // my backlog was speculatively re-executed elsewhere".
                self.nodes[target.index()].stats.speculated += 1;
            } else {
                self.nodes[monitor.index()].stats.rehomed += 1;
            }
            // The re-homed token's chain now includes its adoption cost.
            self.transmit(
                t + elapsed,
                monitor,
                dst,
                Msg::Token {
                    func: token.func,
                    args: token.args,
                },
                token.cp + elapsed,
            );
        }
        self.charge(monitor, t, elapsed, Activity::Recover);
    }

    fn wake(&mut self, t: VirtualTime, node: NodeId) {
        {
            let n = &mut self.nodes[node.index()];
            n.wake_pending = false;
            n.busy = false;
        }
        self.schedule(t, node);
    }

    /// One scheduling round: poll, then run one thread / token, or steal.
    fn schedule(&mut self, t: VirtualTime, node: NodeId) {
        // Crash plane: a down node schedules nothing at all. Its Recover
        // event wakes it when the replay completes; stray wakes (pokes,
        // retry checks, a pre-crash round's end) die here.
        if self.recover.as_ref().is_some_and(|r| r.is_down(node)) {
            return;
        }
        // Planned node pause (fault plans only): the node stalls between
        // rounds — no polling, no threads, no retransmits. Deliveries
        // queue at the NIC; the wake at the window's end rechecks, so
        // overlapping windows chain naturally. A pure stall performs no
        // activity and so never extends the run's `last_activity`.
        if let Some(resume) = self.net.pause_until(node, t) {
            let n = &mut self.nodes[node.index()];
            n.wake_pending = true;
            self.events.push(resume, Event::Wake(node));
            return;
        }
        let costs = self.config().earth;
        let mut elapsed = VirtualDuration::ZERO;

        // Fail-slow plane: inside a planned slowdown window every EU/SU
        // cost this round stretches by the window's factor — the node
        // keeps working, just slower, which is exactly what distinguishes
        // gray failure from the crash plane's fail-stop. The factor is
        // queried through the precompiled-segment cursor (event-loop pop
        // times are globally non-decreasing, so the forward-only cursor
        // is safe here, unlike the network's send path). `slow_flags` is
        // empty unless the plan schedules slowdowns, so clean runs skip
        // the query and `scale` is exact identity (1.0 shortcuts below).
        let slow_factor = if self.slow_flags.is_empty() {
            1.0
        } else {
            let f = self.net.slow_factor(node, t);
            let idx = node.index();
            if f > 1.0 && !self.slow_flags[idx] {
                self.nodes[idx].stats.slow_windows += 1;
            }
            self.slow_flags[idx] = f > 1.0;
            f
        };
        let scale = |d: VirtualDuration| -> VirtualDuration {
            if slow_factor != 1.0 {
                d.scaled(slow_factor)
            } else {
                d
            }
        };

        // Polling watchdog: service everything the NIC has. In the
        // dual-processor configuration the Synchronization Unit does this
        // concurrently, so the Execution Unit's clock does not advance —
        // but the SU's own clock (`su_round`) still does, and the machine
        // is not quiescent until it drains.
        let dual = self.config().dual_processor;
        let mut su_round = VirtualDuration::ZERO;
        while let Some((msg, cp_in, arrived)) = self.nodes[node.index()].pending.pop_front() {
            self.nodes[node.index()].stats.msgs_in += 1;
            let class = msg.op_class();
            let cost = scale(self.handle_msg(t + elapsed, node, msg, cp_in, arrived));
            self.max_cp = self.max_cp.max(cp_in + cost);
            if dual {
                su_round += cost;
            } else {
                elapsed += cost;
            }
            if let Some(prof) = self.profile.as_mut() {
                prof.nodes[node.index()].add_msg(class, cost);
            }
        }
        if !su_round.is_zero() {
            // The SU keeps the node's clock honest: a run whose final
            // activity is SU-side message handling still ends then, not at
            // the EU's last instruction.
            self.charge(node, t, su_round, Activity::Su);
        }
        let after_poll = elapsed;
        if !after_poll.is_zero() {
            self.charge(node, t, after_poll, Activity::Poll);
        }

        // Retransmission service (fault plans only): the polling watchdog
        // doubles as the timeout timer. Resend every held message whose
        // deadline has passed, charging one op_send each on the EU.
        if self.reli.is_some() {
            let mut due = std::mem::take(&mut self.retr_scratch);
            due.clear();
            due.extend(
                self.reli.as_ref().unwrap().unacked[node.index()]
                    .iter()
                    .filter(|(_, p)| p.deadline <= t)
                    .map(|(&key, _)| key),
            );
            for &(dst, seq) in &due {
                let (msg, cp, attempts) = {
                    let p = self.reli.as_mut().unwrap().unacked[node.index()]
                        .get_mut(&(dst, seq))
                        .expect("due entry vanished without an ack");
                    p.attempts += 1;
                    (p.msg.clone(), p.cp, p.attempts)
                };
                self.nodes[node.index()].stats.retransmits += 1;
                elapsed += scale(costs.op_send);
                self.transmit_reliable(
                    t + elapsed,
                    node,
                    NodeId(dst),
                    msg,
                    cp,
                    Some((seq, attempts)),
                );
            }
            self.retr_scratch = due;
        }
        let after_retr = elapsed;
        if after_retr > after_poll {
            self.charge(
                node,
                t + after_poll,
                after_retr - after_poll,
                Activity::Retransmit,
            );
        }

        let mut activity = Activity::Poll;
        if let Some((frame, tid, cp)) = self.nodes[node.index()].ready.pop_front() {
            elapsed += scale(costs.thread_switch);
            elapsed +=
                scale(self.run_thread(t + elapsed, node, frame, tid, cp + costs.thread_switch));
            activity = Activity::Thread;
        } else if let Some(token) = self.nodes[node.index()].tokens.pop_back() {
            self.sync_token_index(node.index());
            self.global_tokens -= 1;
            self.nodes[node.index()].stats.tokens_run += 1;
            elapsed += scale(costs.token_op + costs.frame_setup);
            let cp0 = token.cp + costs.token_op + costs.frame_setup;
            let frame = self.instantiate(node, token.func, &token.args);
            elapsed += scale(self.run_thread(t + elapsed, node, frame, ThreadId(0), cp0));
            activity = Activity::TokenRun;
        } else if self.should_steal(t, node) {
            elapsed += scale(self.try_steal(t, node));
            activity = Activity::Steal;
        }
        if elapsed > after_retr {
            self.charge(node, t + after_retr, elapsed - after_retr, activity);
        }

        let n = &mut self.nodes[node.index()];
        if !elapsed.is_zero() {
            n.busy = true;
            n.wake_pending = true;
            self.events.push(t + elapsed, Event::Wake(node));
        }
        // else: idle; a Deliver or a poke will wake us.
    }

    /// Book `d` of `node`'s processor time, starting at `start`, to
    /// `what`. This is the one writer of the node's per-activity time
    /// (which the report's busy and SU times and earth-profile's
    /// decomposition read), of the run's `last_activity`, of the trace
    /// span (earth-profile's SU span for [`Activity::Su`]) and of the
    /// crash plane's lost-work meter. A zero `d` still moves
    /// `last_activity` to `start`; callers that must not move it guard.
    ///
    /// The meter collects what a crash right now would force recovery to
    /// re-execute: all Execution Unit time since the node's last
    /// checkpoint except heartbeat probes, which the detector sends on
    /// its own clock rather than as part of the application's work. SU
    /// time is not EU time and never enters it.
    fn charge(&mut self, node: NodeId, start: VirtualTime, d: VirtualDuration, what: Activity) {
        self.nodes[node.index()].time[what as usize] += d;
        let end = start + d;
        self.last_activity = self.last_activity.max_of(end);
        if what == Activity::Su {
            if let Some(prof) = self.profile.as_mut() {
                prof.su_spans.push(Span {
                    node,
                    start,
                    end,
                    what,
                });
            }
            return;
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.record(node, start, end, what);
        }
        if what != Activity::Heartbeat {
            if let Some(rec) = self.recover.as_mut() {
                rec.busy_since_ckpt[node.index()] += d;
            }
        }
    }

    /// Re-sync `token_holders` membership for one node after its token
    /// queue changed. Idempotent, O(log nodes) search + O(holders) shift
    /// worst case; callers invoke it at every queue mutation so the set
    /// always equals { i : !nodes[i].tokens.is_empty() }.
    pub(crate) fn sync_token_index(&mut self, idx: usize) {
        let holds = !self.nodes[idx].tokens.is_empty();
        match self.token_holders.binary_search(&(idx as u16)) {
            Ok(pos) if !holds => {
                self.token_holders.remove(pos);
            }
            Err(pos) if holds => {
                self.token_holders.insert(pos, idx as u16);
            }
            _ => {}
        }
    }

    /// Reference steal-victim enumeration: the original full O(nodes)
    /// scan. `try_steal` asserts its indexed fast path against this in
    /// debug builds (the same scan-vs-index proof template as the fault
    /// plane's `pause_until` cursor), and the property suite drives the
    /// two through randomized mutation sequences.
    fn steal_victims_scan(&self, node: NodeId, t: VirtualTime) -> Vec<NodeId> {
        let avoid = |i: usize| {
            self.recover
                .as_ref()
                .is_some_and(|r| r.suspected_dead[i] || r.health[i] == Health::Down)
                || self.node_quarantined(i, t)
        };
        (0..self.nodes.len())
            .filter(|&i| i != node.index() && !self.nodes[i].tokens.is_empty() && !avoid(i))
            .map(|i| NodeId(i as u16))
            .collect()
    }

    fn should_steal(&self, t: VirtualTime, node: NodeId) -> bool {
        let n = &self.nodes[node.index()];
        self.stealing_enabled
            && self.nodes.len() > 1
            && self.global_tokens > 0
            && !n.stealing
            && t >= n.steal_cooldown
            // Quarantine cuts both ways: a Suspected-Slow node also stops
            // *taking* work. A stolen root token pins its frame to the
            // thief, so every steal by a straggler converts movable work
            // into work welded to the slowest node in the machine. It
            // drains what it has and sits out its quarantine instead.
            && !self.node_quarantined(node.index(), t)
    }

    /// Send a steal request to a peer believed to hold tokens. Returns the
    /// CPU time spent.
    fn try_steal(&mut self, t: VirtualTime, node: NodeId) -> VirtualDuration {
        // Graceful degradation: never target a node the crash detector
        // suspects (or one that is actually down) — a request there
        // would only stall in its NIC until recovery — nor one the
        // straggler plane currently quarantines: it would answer, but an
        // EWMA-multiple later than any healthy victim. (Field borrows,
        // not `self`, so the scratch take below stays disjoint.)
        let recover = self.recover.as_ref();
        let slow = self.slow.as_ref();
        let avoid = |i: usize| {
            recover.is_some_and(|r| r.suspected_dead[i] || r.health[i] == Health::Down)
                || slow.is_some_and(|s| s.is_quarantined(i, t))
        };
        let mut victims = std::mem::take(&mut self.steal_scratch);
        victims.clear();
        // token_holders is ascending and holds exactly the nodes with
        // queued tokens, so this enumerates the same candidates in the
        // same order as the reference full scan — only in O(holders).
        victims.extend(
            self.token_holders
                .iter()
                .map(|&i| i as usize)
                .filter(|&i| i != node.index() && !avoid(i))
                .map(|i| NodeId(i as u16)),
        );
        debug_assert_eq!(
            victims,
            self.steal_victims_scan(node, t),
            "token-holder index diverged from the reference scan"
        );
        let chosen = self.nodes[node.index()].rng.choose(&victims).copied();
        self.steal_scratch = victims;
        let Some(victim) = chosen else {
            // All tokens are in flight; a poke will arrive with them.
            return VirtualDuration::ZERO;
        };
        let costs = self.config().earth;
        let cost = costs.token_op + costs.op_send;
        self.nodes[node.index()].stealing = true;
        // A steal request starts a fresh chain: the thief was idle, so
        // nothing it did before depends on this request.
        self.transmit(t + cost, node, victim, Msg::StealReq { thief: node }, cost);
        cost
    }

    /// Wake every idle node so it can contend for freshly created tokens.
    /// (On the real machine idle nodes poll continuously; the simulator
    /// represents that standing poll as an explicit zero-cost wake.)
    pub(crate) fn poke_idle(&mut self, at: VirtualTime) {
        if !self.stealing_enabled || self.global_tokens == 0 {
            return;
        }
        for i in 0..self.nodes.len() {
            let n = &mut self.nodes[i];
            if !n.busy && !n.wake_pending && !n.stealing && n.is_workless() {
                n.wake_pending = true;
                self.events.push(at, Event::Wake(NodeId(i as u16)));
            }
        }
    }

    pub(crate) fn instantiate(&mut self, node: NodeId, func: FuncId, args: &[u8]) -> FrameId {
        let frame = {
            let ctor = &self.funcs[func.0 as usize].1;
            ctor(&mut ArgsReader::new(args))
        };
        self.nodes[node.index()].stats.frames_created += 1;
        self.nodes[node.index()].frames.insert(frame)
    }

    /// Service one message; returns CPU time spent. `cp_in` is the
    /// dependency-chain length behind the message's arrival; every effect
    /// (reply, signal, readied thread) inherits it plus the handling cost
    /// accrued up to that effect. `arrived` is the message's NIC arrival
    /// instant — `at` minus however long it waited for this poll — used
    /// only to anchor the straggler detector's RTT samples.
    fn handle_msg(
        &mut self,
        at: VirtualTime,
        node: NodeId,
        msg: Msg,
        cp_in: VirtualDuration,
        arrived: VirtualTime,
    ) -> VirtualDuration {
        let costs = self.config().earth;
        let comm = self.config().comm;
        let mut cost = costs.op_recv;
        if let Some(class) = msg.op_class() {
            cost += comm.receiver_overhead(class, msg.wire_size());
        }
        match msg {
            Msg::GetReq {
                src_off,
                len,
                reply_to,
                reply_off,
                done,
            } => {
                let data = Payload::from(self.nodes[node.index()].mem.read(src_off, len));
                cost += costs.op_send;
                self.transmit(
                    at + cost,
                    node,
                    reply_to,
                    Msg::GetReply {
                        dst_off: reply_off,
                        data,
                        done,
                    },
                    cp_in + cost,
                );
            }
            Msg::GetReply {
                dst_off,
                data,
                done,
            } => {
                self.nodes[node.index()].mem.write(dst_off, &data);
                self.route_signal(at + cost, node, done, cp_in + cost);
            }
            Msg::Put {
                dst_off,
                data,
                done,
            } => {
                self.nodes[node.index()].mem.write(dst_off, &data);
                if let Some(done) = done {
                    self.route_signal(at + cost, node, done, cp_in + cost);
                }
            }
            Msg::SyncSig { slot } => {
                debug_assert_eq!(slot.node, node, "SyncSig routed to wrong node");
                self.signal_local(node, slot, cp_in + cost);
            }
            Msg::Invoke { func, args } => {
                cost += costs.frame_setup;
                let frame = self.instantiate(node, func, &args);
                self.nodes[node.index()]
                    .ready
                    .push_back((frame, ThreadId(0), cp_in + cost));
            }
            Msg::Token { func, args } => {
                cost += costs.token_op;
                let n = &mut self.nodes[node.index()];
                n.tokens.push_back(Token {
                    func,
                    args,
                    cp: cp_in + cost,
                });
                if n.stealing {
                    // This token answers our steal request.
                    n.stealing = false;
                    n.steal_fails = 0;
                    n.stats.steals_ok += 1;
                }
                self.sync_token_index(node.index());
                self.poke_idle(at + cost);
            }
            Msg::StealReq { thief } => {
                cost += costs.op_send;
                if let Some(token) = self.nodes[node.index()].tokens.pop_front() {
                    self.sync_token_index(node.index());
                    cost += costs.token_op;
                    // The forwarded token depends both on its own creation
                    // chain and on the steal round trip that moved it.
                    let cp = token.cp.max(cp_in + cost);
                    self.transmit(
                        at + cost,
                        node,
                        thief,
                        Msg::Token {
                            func: token.func,
                            args: token.args,
                        },
                        cp,
                    );
                } else {
                    self.nodes[node.index()].stats.steal_nacks += 1;
                    self.transmit(at + cost, node, thief, Msg::StealNack, cp_in + cost);
                }
            }
            Msg::StealNack => {
                let n = &mut self.nodes[node.index()];
                n.stealing = false;
                n.steal_fails = (n.steal_fails + 1).min(7);
                let backoff = VirtualDuration::from_us(10u64 << n.steal_fails);
                n.steal_cooldown = at + cost + backoff;
                if self.global_tokens > 0 && !n.wake_pending && !n.busy {
                    // Schedule the retry ourselves; n.busy is false because
                    // we're inside its own scheduling round, whose busy flag
                    // is set after we return — harmless double wake guard.
                    n.wake_pending = true;
                    let when = n.steal_cooldown;
                    self.events.push(when, Event::Wake(node));
                }
            }
            Msg::Ack { from, seq } => {
                // Release the held message; a stale ack (already released
                // by an earlier copy) removes nothing. The removed entry
                // feeds the straggler plane below, so keep it.
                let acked = self
                    .reli
                    .as_mut()
                    .and_then(|r| r.unacked[node.index()].remove(&(from.0, seq)));
                if let Some(rec) = self.recover.as_mut() {
                    // Failure detector: an ack from our probe target is
                    // its liveness proof; an ack from any live node heals
                    // a false suspicion (e.g. one caused by dropped acks).
                    if rec.target_of(node.index()) == from {
                        let last = &mut rec.last_ack_from[node.index()];
                        *last = last.max_of(at);
                    }
                    if !rec.is_down(from) {
                        rec.suspected_dead[from.index()] = false;
                    }
                }
                // Straggler plane: a first-transmission ack is an RTT
                // sample (retransmitted messages would fold the timeout
                // into the estimate, so they are excluded), taken as a
                // permille ratio of the model's own expected round trip
                // so payload size and sender-link queueing cancel out —
                // only *anomalous* lateness moves the EWMA. The verdict
                // can put `from` into quarantine — count the entry and,
                // if armed, speculatively re-home its backlog.
                if let Some(p) = acked.filter(|p| p.attempts == 0) {
                    if p.hedged {
                        self.nodes[node.index()].stats.hedges_won += 1;
                    }
                    let rtt = arrived.since(p.sent).as_ns();
                    let sample = rtt.saturating_mul(1000) / p.expected_rtt.as_ns().max(1);
                    let entered = self.slow.as_mut().is_some_and(|s| {
                        s.observe_rtt(from.index(), sample, at) == SlowTransition::Entered
                    });
                    if entered {
                        self.nodes[from.index()].stats.quarantines += 1;
                        if self.slow.as_ref().unwrap().speculative {
                            self.rehome_tokens(at, node, from, true);
                        }
                    }
                }
            }
            Msg::Heartbeat { from } => {
                // Liveness is proven by the NIC-level ack this probe
                // already triggered; the probe body needs no service
                // beyond the receive charge.
                debug_assert!(
                    self.recover
                        .as_ref()
                        .is_none_or(|r| r.target_of(from.index()) == node),
                    "heartbeat from {from:?} landed off-ring on {node:?}"
                );
            }
        }
        cost
    }

    /// Deliver a completion signal to a slot that may live anywhere.
    pub(crate) fn route_signal(
        &mut self,
        at: VirtualTime,
        from: NodeId,
        slot: SlotRef,
        cp: VirtualDuration,
    ) {
        if slot.node == from {
            self.signal_local(from, slot, cp);
        } else {
            self.transmit(at, from, slot.node, Msg::SyncSig { slot }, cp);
        }
    }

    /// Decrement a slot on this node; fire its thread if it reaches zero.
    /// The fired thread inherits the longest chain among the signals that
    /// armed it.
    pub(crate) fn signal_local(&mut self, node: NodeId, slot: SlotRef, cp: VirtualDuration) {
        debug_assert_eq!(slot.node, node);
        let n = &mut self.nodes[node.index()];
        match n.frames.get_mut(slot.frame) {
            Some(entry) => {
                FrameStore::ensure_slot(entry, slot.slot);
                if let Some((tid, cp_fire)) = entry.slots[slot.slot.0 as usize].signal_at(cp) {
                    n.ready.push_back((slot.frame, tid, cp_fire));
                }
            }
            None => n.stats.dropped_signals += 1,
        }
    }

    /// Execute one thread to completion; returns its CPU time. `cp0` is
    /// the dependency-chain length at the thread's first instruction.
    fn run_thread(
        &mut self,
        start: VirtualTime,
        node: NodeId,
        frame: FrameId,
        tid: ThreadId,
        cp0: VirtualDuration,
    ) -> VirtualDuration {
        let Some(entry) = self.nodes[node.index()].frames.get_mut(frame) else {
            // Thread fired for a frame that already ended: application
            // protocol bug, surfaced in the report.
            self.nodes[node.index()].stats.dropped_signals += 1;
            return VirtualDuration::ZERO;
        };
        let mut func = entry.func.take().expect("frame is already executing");
        let (elapsed, ended) = {
            let mut ctx = Ctx::new(self, node, frame, start, cp0);
            func.run(&mut ctx, tid);
            ctx.finish()
        };
        self.max_cp = self.max_cp.max(cp0 + elapsed);
        let n = &mut self.nodes[node.index()];
        n.stats.threads += 1;
        if ended {
            n.frames.remove(frame);
        } else if let Some(entry) = n.frames.get_mut(frame) {
            entry.func = Some(func);
        }
        elapsed
    }

    pub(crate) fn comm_sender_overhead(&self, class: OpClass, bytes: u32) -> VirtualDuration {
        self.config().comm.sender_overhead(class, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SlotId;
    use crate::args::ArgsWriter;
    use earth_machine::FaultPlan;
    use earth_testkit::prelude::*;

    #[test]
    fn an_event_is_sixteen_bytes() {
        // Every push and pop moves whole heap entries, so a variant that
        // carries a `Msg` inline (80 bytes) would triple that traffic for
        // every kind of event. Message bodies go in the in-flight slab.
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }

    /// One unit of fan-out work: fetch 8 bytes from node 0, then invoke a
    /// [`Sink`] on the next node, which writes one byte back to node 0.
    struct Fetch {
        src: GlobalAddr,
        sink: FuncId,
    }

    impl ThreadedFn for Fetch {
        fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
            if tid == ThreadId(0) {
                let buf = ctx.alloc(8).offset;
                ctx.init_sync(SlotId(0), 1, 0, ThreadId(1));
                ctx.get_sync(self.src, buf, 8, SlotId(0));
            } else {
                ctx.compute(VirtualDuration::from_us(5));
                let next = NodeId((ctx.node().0 + 1) % ctx.num_nodes());
                let mut a = ArgsWriter::new();
                a.addr(self.src);
                ctx.invoke(next, self.sink, a.finish());
                ctx.end();
            }
        }
    }

    struct Sink {
        dst: GlobalAddr,
    }

    impl ThreadedFn for Sink {
        fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
            ctx.data_sync(&[1], self.dst, None);
            ctx.end();
        }
    }

    /// Run 24 [`Fetch`] tokens on 6 nodes under `plan`, then check that
    /// every delivery handed its in-flight slot back when it popped.
    fn run_and_check_slab(plan: Option<FaultPlan>) -> RunReport {
        let mut cfg = MachineConfig::manna(6);
        if let Some(p) = plan {
            cfg = cfg.with_faults(p);
        }
        let mut rt = Runtime::new(cfg, 11);
        let sink = rt.register("sink", |a: &mut ArgsReader<'_>| {
            Box::new(Sink { dst: a.addr() })
        });
        let fetch = rt.register("fetch", move |a: &mut ArgsReader<'_>| {
            Box::new(Fetch {
                src: a.addr(),
                sink,
            })
        });
        let src = rt.alloc_on(NodeId(0), 8);
        for _ in 0..24 {
            let mut a = ArgsWriter::new();
            a.addr(src);
            rt.inject_token(fetch, a.finish());
        }
        let report = rt.run();
        assert!(report.is_clean(), "{report}");
        assert!(
            rt.in_flight.slots.iter().all(Option::is_none),
            "a delivery's body outlived its event"
        );
        assert_eq!(rt.in_flight.free.len(), rt.in_flight.slots.len());
        report
    }

    #[test]
    fn in_flight_slots_all_free_after_a_clean_run() {
        let r = run_and_check_slab(None);
        assert!(r.net_messages > 0);
    }

    #[test]
    fn in_flight_slots_all_free_after_a_lossy_duplicating_run() {
        let r = run_and_check_slab(Some(FaultPlan::new().with_drop(0.1).with_duplicate(0.1)));
        assert!(r.net_dropped > 0 && r.net_duplicated > 0, "{r}");
        let suppressed: u64 = r.nodes.iter().map(|n| n.dup_suppressed).sum();
        assert!(suppressed > 0, "no duplicate reached the dedup check");
    }

    #[test]
    fn in_flight_slots_all_free_after_a_crash_run() {
        let us = |n| VirtualTime::ZERO + VirtualDuration::from_us(n);
        let plan = FaultPlan::new().with_crash_restart(2, us(20), us(300));
        let r = run_and_check_slab(Some(plan));
        assert!(r.net_crash_dropped > 0, "no delivery hit the crashed NIC");
    }

    /// Drive the token-holder index through randomized queue mutations and
    /// assert the steal-victim enumeration stays byte-identical to the
    /// reference full scan — same template as the fault plane's
    /// `pause_until` cursor-vs-scan proof.
    fn dummy_token() -> Token {
        Token {
            func: FuncId(0),
            args: Payload::from(&[][..]),
            cp: VirtualDuration::ZERO,
        }
    }

    props! {
        #![config(Config::with_cases(40))]

        #[test]
        fn token_holder_index_matches_reference_scan(
            nodes in 2u16..40,
            seed in any::<u64>(),
            ops in collection::vec((any::<u16>(), 0u8..3), 1..200),
        ) {
            let mut rt = Runtime::new(MachineConfig::manna(nodes), seed);
            for &(raw, kind) in &ops {
                let i = (raw % nodes) as usize;
                match kind {
                    // push one token
                    0 => {
                        rt.nodes[i].tokens.push_back(dummy_token());
                        rt.sync_token_index(i);
                    }
                    // pop one end or the other (possibly a no-op)
                    1 => {
                        rt.nodes[i].tokens.pop_back();
                        rt.sync_token_index(i);
                    }
                    _ => {
                        rt.nodes[i].tokens.pop_front();
                        rt.sync_token_index(i);
                    }
                }
                // The index must mirror queue occupancy exactly...
                let holders: Vec<u16> = (0..nodes)
                    .filter(|&j| !rt.nodes[j as usize].tokens.is_empty())
                    .collect();
                prop_assert_eq!(&rt.token_holders, &holders);
                // ...and the victim enumeration every thief sees must
                // match the reference scan from every vantage point.
                for thief in 0..nodes {
                    let thief = NodeId(thief);
                    let fast: Vec<NodeId> = rt
                        .token_holders
                        .iter()
                        .filter(|&&j| j != thief.0)
                        .map(|&j| NodeId(j))
                        .collect();
                    prop_assert_eq!(fast, rt.steal_victims_scan(thief, VirtualTime::ZERO));
                }
            }
        }

        #[test]
        fn token_holder_index_respects_crash_plane_avoidance(
            seed in any::<u64>(),
            downs in collection::vec(0u16..6, 0..4),
            suspects in collection::vec(0u16..6, 0..4),
            holders in collection::vec(0u16..6, 1..6),
        ) {
            // With a crash plane installed, the avoid() filter must apply
            // identically to the indexed path and the scan.
            let plan = FaultPlan::new()
                .with_node_crash(0, VirtualTime::from_ns(1_000_000_000));
            let cfg = MachineConfig::manna(6).with_faults(plan);
            let mut rt = Runtime::new(cfg, seed);
            for &h in &holders {
                rt.nodes[h as usize].tokens.push_back(dummy_token());
                rt.sync_token_index(h as usize);
            }
            let rec = rt.recover.as_mut().expect("crash plan installs plane");
            for &d in &downs {
                if rec.health[d as usize] == Health::Up {
                    rec.mark_down(d as usize);
                }
            }
            for &s in &suspects {
                rec.suspected_dead[s as usize] = true;
            }
            for thief in 0..6u16 {
                let thief = NodeId(thief);
                let scan = rt.steal_victims_scan(thief, VirtualTime::ZERO);
                let fast: Vec<NodeId> = rt
                    .token_holders
                    .iter()
                    .map(|&j| j as usize)
                    .filter(|&j| {
                        j != thief.index()
                            && rt.recover.as_ref().is_none_or(|r| {
                                !r.suspected_dead[j] && r.health[j] == Health::Up
                            })
                    })
                    .map(|j| NodeId(j as u16))
                    .collect();
                prop_assert_eq!(fast, scan);
            }
        }
    }
}
