//! Message timing through the crossbar network.
//!
//! The network model captures the two first-order effects the paper's
//! results hinge on:
//!
//! * **Sender-link serialization.** Each node has one injection link; a
//!   message occupies it for `bytes / bandwidth`. Back-to-back sends from
//!   one node therefore queue — this is what makes the *sequential*
//!   central broadcast in the neural network slower than the *tree*
//!   broadcast, and what the paper means by "broadcasts are assumed to be
//!   sent in sequence".
//! * **Distance latency.** Per-hop crossbar latency (1 hop inside a
//!   16-node cluster, 3 across clusters) plus a fixed wire/NIC latency.
//!
//! Optionally each message's latency is jittered by a seeded uniform
//! factor; this is the controlled non-determinism source behind the
//! min/mean/max envelopes of Figs. 4b and 5.

use crate::config::MachineConfig;
use crate::topology::{AnyTopology, NodeId, Topology};
use earth_faults::{Fate, FaultKind, FaultState};
use earth_sim::{Rng, VirtualDuration, VirtualTime};

/// Aggregate traffic counters, reported in run summaries.
#[derive(Clone, Debug, Default)]
pub struct NetworkStats {
    /// Total messages injected (excluding node-local transfers).
    pub messages: u64,
    /// Total payload bytes carried.
    pub bytes: u64,
    /// Messages that found the sender link busy and had to queue.
    pub link_waits: u64,
    /// Cumulative time messages spent waiting for the sender link.
    pub wait_time: VirtualDuration,
    /// Messages lost in the fabric (fault plane).
    pub dropped: u64,
    /// Messages the fabric delivered twice (fault plane).
    pub duplicated: u64,
    /// Messages held back by a reorder delay (fault plane).
    pub delayed: u64,
    /// Messages a crashed node's NIC discarded before acking (crash
    /// plane; the sender's reliability layer retransmits them).
    pub crash_dropped: u64,
}

/// One fault-plane decision that fired, for the observability layer
/// (earth-profile's faults lane in the Chrome trace). Recorded only when
/// occupancy recording is on; never affects timing.
#[derive(Clone, Copy, Debug)]
pub struct FaultEvent {
    /// Sending node of the afflicted message.
    pub src: NodeId,
    /// Destination node of the afflicted message.
    pub dst: NodeId,
    /// Instant the message hit the wire (fault decided at injection).
    pub at: VirtualTime,
    /// Which fault fired.
    pub kind: FaultKind,
}

/// How the fault plane resolved one injected message.
#[derive(Clone, Copy, Debug)]
pub enum NetFate {
    /// Delivered normally (possibly late, when a reorder delay fired).
    Delivered {
        /// Instant the message is available at the destination NIC.
        arrive: VirtualTime,
    },
    /// Lost in the fabric; it still occupied the sender link.
    Dropped,
    /// Delivered twice: the original copy and a skewed duplicate.
    Duplicated {
        /// Arrival of the original copy.
        first: VirtualTime,
        /// Arrival of the duplicate copy.
        second: VirtualTime,
    },
}

/// A fault-aware delivery: what [`Network::send_resolved`] reports to the
/// runtime's reliability layer.
#[derive(Clone, Copy, Debug)]
pub struct Resolved {
    /// Instant the message started occupying the sender link.
    pub depart: VirtualTime,
    /// Fault-free arrival instant (including the sender's fail-slow
    /// factor, excluding drop/duplicate/delay effects) — the anchor for
    /// retransmission-timeout estimates.
    pub expected: VirtualTime,
    /// What actually happened to the message.
    pub fate: NetFate,
}

/// One message's resolved timing: when it left the sender link and when
/// it becomes available at the destination NIC. The flight time
/// (`arrive - depart`) is the pure dependency latency — it excludes any
/// time the message queued behind earlier traffic on the sender link,
/// which is what critical-path accounting needs.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    /// Instant the message started occupying the sender link.
    pub depart: VirtualTime,
    /// Instant the message is available at the destination NIC.
    pub arrive: VirtualTime,
}

/// One recorded sender-link occupancy interval (earth-profile's network
/// lane): the link of `src` was busy serializing `bytes` towards `dst`
/// from `start` to `end`.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpan {
    /// Sending node (whose injection link was occupied).
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Start of link occupancy.
    pub start: VirtualTime,
    /// End of link occupancy.
    pub end: VirtualTime,
    /// Payload bytes serialized.
    pub bytes: u32,
}

/// The crossbar network: computes delivery times and tracks link occupancy.
pub struct Network {
    cfg: MachineConfig,
    /// The interconnect, materialized once from `cfg.topology` — building
    /// a torus involves factoring the node count, so the per-message path
    /// must not rebuild it.
    topo: AnyTopology,
    /// Earliest instant each node's injection link is free.
    link_free: Vec<VirtualTime>,
    jitter_rng: Rng,
    stats: NetworkStats,
    /// When `Some`, every remote send records its link-occupancy interval
    /// (earth-profile's trace export; never affects timing).
    occupancy: Option<Vec<LinkSpan>>,
    /// The compiled fault plan, when one is installed. `None` means every
    /// send takes the exact fault-free code path.
    faults: Option<FaultState>,
    /// When `Some`, every fault that fires is logged (earth-profile's
    /// faults lane; observational only).
    fault_log: Option<Vec<FaultEvent>>,
}

impl Network {
    /// A quiet network for the given machine. `seed` drives latency jitter
    /// (unused when `cfg.latency_jitter == 0`) and, through a separate
    /// salt, the fault plane's decision stream (when a plan is installed).
    pub fn new(cfg: MachineConfig, seed: u64) -> Self {
        let n = cfg.nodes as usize;
        let faults = cfg.faults.clone().map(|plan| {
            #[allow(clippy::unusual_byte_groupings)] // ascii "faults"
            FaultState::new(plan, seed ^ 0x66_6175_6C74_73u64, cfg.nodes)
        });
        let topo = cfg.interconnect();
        Network {
            cfg,
            topo,
            link_free: vec![VirtualTime::ZERO; n],
            #[allow(clippy::unusual_byte_groupings)] // ascii "network"
            jitter_rng: Rng::new(seed ^ 0x6E65_7477_6F72_6Bu64),
            stats: NetworkStats::default(),
            occupancy: None,
            faults,
            fault_log: None,
        }
    }

    /// Whether a (non-trivial) fault plan is installed.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// Fail-slow EU/SU multiplier for `node` at `t` (1.0 when no plan
    /// or no slowdown window covers `t`).
    pub fn slow_factor(&self, node: NodeId, t: VirtualTime) -> f64 {
        self.faults
            .as_ref()
            .map_or(1.0, |f| f.slow_factor(node.0, t))
    }

    /// Count a message a crashed node's NIC discarded before acking.
    /// The runtime calls this from its delivery path; the fabric itself
    /// already did its work, so only the counter moves.
    pub fn note_crash_drop(&mut self) {
        self.stats.crash_dropped += 1;
    }

    /// Machine configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The materialized interconnect.
    pub fn topology(&self) -> &AnyTopology {
        &self.topo
    }

    /// Pure wire time for `bytes` from `src` to `dst` under the cached
    /// interconnect: fixed wire latency, plus per-hop latency scaled by
    /// the route's contention, plus serialization at link bandwidth; no
    /// queueing or jitter. Zero for a node talking to itself. The
    /// runtime asks on every reliable send to price the expected round
    /// trip.
    pub fn transfer_time(&self, src: NodeId, dst: NodeId, bytes: u32) -> VirtualDuration {
        let h = self.topo.hops(src, dst) as u64 * self.topo.contention(src, dst) as u64;
        if h == 0 {
            return VirtualDuration::ZERO;
        }
        let serialize =
            VirtualDuration::from_us_f64(bytes as f64 / self.cfg.link_bytes_per_sec as f64 * 1.0e6);
        self.cfg.wire_latency + self.cfg.hop_latency.times(h) + serialize
    }

    /// Start recording sender-link occupancy intervals (earth-profile's
    /// network lane). Recording is observational only: timing, jitter
    /// draws, and traffic counters are unchanged.
    pub fn enable_occupancy(&mut self) {
        if self.occupancy.is_none() {
            self.occupancy = Some(Vec::new());
        }
        if self.faults.is_some() && self.fault_log.is_none() {
            self.fault_log = Some(Vec::new());
        }
    }

    /// Take the recorded link-occupancy intervals (empty if recording was
    /// never enabled).
    pub fn take_occupancy(&mut self) -> Vec<LinkSpan> {
        self.occupancy.take().unwrap_or_default()
    }

    /// Take the recorded fault events (empty if recording was never
    /// enabled or no plan is installed).
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        self.fault_log.take().unwrap_or_default()
    }

    /// Inject a `bytes`-byte message from `src` to `dst` at time `now`.
    /// Reports when the message left the sender link and when it is
    /// available at the destination node's NIC, so callers can separate
    /// pure flight latency from link queueing. Local messages
    /// (src == dst) are delivered immediately.
    ///
    /// The sender link is occupied for exactly the serialization time,
    /// and the delivered latency is that same serialization plus the
    /// flight components (wire + hops). Jitter models variability in the
    /// switching fabric, so it applies to the flight components only —
    /// jittering serialization too would make occupancy and delivery
    /// disagree about how long the link was held.
    pub fn send_detailed(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
    ) -> Delivery {
        if src == dst {
            return Delivery {
                depart: now,
                arrive: now,
            };
        }
        self.timed(now, src, dst, bytes, 1.0)
    }

    /// Inject a message under the installed fault plan: same link and
    /// flight math as [`send_detailed`](Network::send_detailed) (with the
    /// sender's fail-slow factor applied to flight), then a fate drawn
    /// from the plan's counter-based stream. Dropped messages still
    /// occupy the sender link and count as injected traffic; duplicates
    /// serialize once but deliver twice.
    ///
    /// Callers must only use this when [`has_faults`](Network::has_faults)
    /// is true — it panics otherwise, because silently falling back would
    /// skip the counter advance and desynchronize the fault schedule.
    pub fn send_resolved(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
    ) -> Resolved {
        if src == dst {
            return Resolved {
                depart: now,
                expected: now,
                fate: NetFate::Delivered { arrive: now },
            };
        }
        // The sender's fail-slow factor stretches flight: a degraded node
        // drains its NIC slowly, so everything it transmits — acks
        // included — leaves late, which is exactly what makes fail-slow
        // observable in ack RTTs. It is 1.0 on a healthy node, so
        // `timed`'s `!= 1.0` guard keeps clean paths bit-exact.
        let factor = self
            .faults
            .as_ref()
            .expect("send_resolved requires an installed fault plan")
            .slow_factor(src.0, now);
        let d = self.timed(now, src, dst, bytes, factor);
        let (net_fate, kind) = match self.faults.as_mut().unwrap().fate(src.0, dst.0) {
            Fate::Deliver => (NetFate::Delivered { arrive: d.arrive }, None),
            Fate::Drop => {
                self.stats.dropped += 1;
                (NetFate::Dropped, Some(FaultKind::Drop))
            }
            Fate::Duplicate { skew } => {
                self.stats.duplicated += 1;
                (
                    NetFate::Duplicated {
                        first: d.arrive,
                        second: d.arrive + skew,
                    },
                    Some(FaultKind::Duplicate),
                )
            }
            Fate::Delay { extra } => {
                self.stats.delayed += 1;
                (
                    NetFate::Delivered {
                        arrive: d.arrive + extra,
                    },
                    Some(FaultKind::Delay),
                )
            }
        };
        if let (Some(kind), Some(log)) = (kind, self.fault_log.as_mut()) {
            log.push(FaultEvent {
                src,
                dst,
                at: d.depart,
                kind,
            });
        }
        Resolved {
            depart: d.depart,
            expected: d.arrive,
            fate: net_fate,
        }
    }

    fn timed(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        factor: f64,
    ) -> Delivery {
        let serialize =
            VirtualDuration::from_us_f64(bytes as f64 / self.cfg.link_bytes_per_sec as f64 * 1.0e6);
        let link_free = self.link_free[src.index()];
        let depart = now.max_of(link_free);
        if link_free > now {
            self.stats.link_waits += 1;
            self.stats.wait_time += link_free.since(now);
        }
        self.link_free[src.index()] = depart + serialize;
        if let Some(spans) = self.occupancy.as_mut() {
            spans.push(LinkSpan {
                src,
                dst,
                start: depart,
                end: depart + serialize,
                bytes,
            });
        }

        // Effective stage count: hops weighted by the route's per-stage
        // contention factor. Conflict-free fabrics (crossbar, hypercube)
        // have contention 1, so this is exactly the pre-trait `hops`
        // product there.
        let hops = self.topo.hops(src, dst) as u64 * self.topo.contention(src, dst) as u64;
        let mut flight = self.cfg.wire_latency + self.cfg.hop_latency.times(hops);
        if self.cfg.latency_jitter > 0.0 {
            let f = 1.0
                + self
                    .jitter_rng
                    .gen_f64_range(-self.cfg.latency_jitter, self.cfg.latency_jitter);
            flight = flight.scaled(f);
        }
        // The fail-slow factor scales flight only; the `!= 1.0` guard keeps
        // the fault-free path bit-exact (no rounding through `scaled`).
        if factor != 1.0 {
            flight = flight.scaled(factor);
        }

        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;
        Delivery {
            depart,
            arrive: depart + serialize + flight,
        }
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: u16) -> Network {
        Network::new(MachineConfig::manna(nodes), 1)
    }

    #[test]
    fn local_send_is_free_and_uncounted() {
        let mut n = net(4);
        let t0 = VirtualTime::ZERO + VirtualDuration::from_us(10);
        assert_eq!(n.send_detailed(t0, NodeId(2), NodeId(2), 100).arrive, t0);
        assert_eq!(n.stats().messages, 0);
    }

    #[test]
    fn remote_send_costs_latency() {
        let mut n = net(4);
        let t = n
            .send_detailed(VirtualTime::ZERO, NodeId(0), NodeId(1), 28)
            .arrive;
        // wire 1us + 1 hop 0.5us + 28B/50MBps = 0.56us  => ~2.06us
        let us = t.since(VirtualTime::ZERO).as_us_f64();
        assert!((us - 2.06).abs() < 0.05, "latency {us}us");
        assert_eq!(n.stats().messages, 1);
        assert_eq!(n.stats().bytes, 28);
    }

    #[test]
    fn sender_link_serializes_back_to_back_sends() {
        let mut n = net(4);
        // 1 MB takes 20 ms on the link
        let t1 = n
            .send_detailed(VirtualTime::ZERO, NodeId(0), NodeId(1), 1_000_000)
            .arrive;
        let t2 = n
            .send_detailed(VirtualTime::ZERO, NodeId(0), NodeId(2), 1_000_000)
            .arrive;
        assert!(t2.since(VirtualTime::ZERO) > t1.since(VirtualTime::ZERO));
        assert!(t2.since(VirtualTime::ZERO).as_ms_f64() >= 40.0);
        assert_eq!(n.stats().link_waits, 1);
        assert!(n.stats().wait_time.as_ms_f64() >= 19.9);
    }

    #[test]
    fn different_senders_do_not_contend() {
        let mut n = net(4);
        let t1 = n.send_detailed(VirtualTime::ZERO, NodeId(0), NodeId(3), 1_000_000);
        let t2 = n.send_detailed(VirtualTime::ZERO, NodeId(1), NodeId(3), 1_000_000);
        assert_eq!(t1.arrive, t2.arrive, "independent injection links");
    }

    #[test]
    fn jitter_varies_latency_but_stays_bounded() {
        let cfg = MachineConfig::manna(4).with_jitter(0.05);
        let mut n = Network::new(cfg, 99);
        // Jitter-free reference flight time (wire + 1 hop), excluding
        // serialization, for the same route.
        let mut quiet = net(4);
        let d0 = quiet.send_detailed(VirtualTime::ZERO, NodeId(0), NodeId(1), 1_000);
        let serialize = VirtualDuration::from_us(20); // 1000 B / 50 MB/s
        let flight = d0.arrive.since(d0.depart) - serialize;
        let mut distinct = std::collections::BTreeSet::new();
        for i in 0..32u64 {
            // Every send shares NodeId(0)'s injection link, so the i-th
            // send departs only once the previous i serializations drain.
            let d = n.send_detailed(VirtualTime::ZERO, NodeId(0), NodeId(1), 1_000);
            assert_eq!(d.depart, VirtualTime::ZERO + serialize.times(i));
            // Jitter applies to the flight components only; serialization
            // is exactly the link-occupancy time.
            let latency = d.arrive.since(d.depart);
            assert!(
                latency >= serialize + flight.scaled(0.95),
                "latency {latency}"
            );
            assert!(
                latency <= serialize + flight.scaled(1.05),
                "latency {latency}"
            );
            distinct.insert(latency.as_ns());
        }
        assert!(distinct.len() > 1, "jitter should vary delivery times");
    }

    #[test]
    fn occupancy_recording_matches_departures_and_never_shifts_timing() {
        let cfg = MachineConfig::manna(4).with_jitter(0.05);
        let mut plain = Network::new(cfg.clone(), 13);
        let mut recorded = Network::new(cfg, 13);
        recorded.enable_occupancy();
        let mut sends = Vec::new();
        for i in 0..10u32 {
            let a = plain
                .send_detailed(
                    VirtualTime::ZERO,
                    NodeId(0),
                    NodeId(1 + (i as u16 % 3)),
                    500 + i,
                )
                .arrive;
            let d = recorded.send_detailed(
                VirtualTime::ZERO,
                NodeId(0),
                NodeId(1 + (i as u16 % 3)),
                500 + i,
            );
            assert_eq!(a, d.arrive, "recording must not shift timing");
            sends.push(d);
        }
        // local sends never occupy a link
        recorded.send_detailed(VirtualTime::ZERO, NodeId(2), NodeId(2), 64);
        let spans = recorded.take_occupancy();
        assert_eq!(spans.len(), 10);
        for (span, d) in spans.iter().zip(&sends) {
            assert_eq!(span.src, NodeId(0));
            assert_eq!(span.start, d.depart);
            assert!(span.end <= d.arrive, "link frees before delivery");
            assert!(span.end > span.start, "serialization takes time");
        }
        // intervals on one link never overlap
        for w in spans.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        // taking drains and disables
        assert!(recorded.take_occupancy().is_empty());
    }

    #[test]
    fn send_resolved_matches_send_detailed_when_no_fault_fires() {
        use earth_faults::FaultPlan;
        // A plan that only has a far-future crash window: non-trivial (so
        // the fault plane installs) but no per-message fault ever fires,
        // so resolved timing must equal the plain path exactly.
        let late = VirtualTime::ZERO + VirtualDuration::from_secs(1_000);
        let plan = FaultPlan::new().with_node_crash(0, late);
        let cfg = MachineConfig::manna(4).with_jitter(0.05);
        let mut plain = Network::new(cfg.clone(), 21);
        let mut faulty = Network::new(cfg.with_faults(plan), 21);
        assert!(faulty.has_faults());
        for i in 0..50u32 {
            let d = plain.send_detailed(VirtualTime::ZERO, NodeId(0), NodeId(1), 100 + i);
            let r = faulty.send_resolved(VirtualTime::ZERO, NodeId(0), NodeId(1), 100 + i);
            assert_eq!(r.depart, d.depart);
            assert_eq!(r.expected, d.arrive);
            match r.fate {
                NetFate::Delivered { arrive } => assert_eq!(arrive, d.arrive),
                other => panic!("unexpected fate {other:?}"),
            }
        }
        assert_eq!(faulty.stats().dropped, 0);
        assert_eq!(faulty.stats().duplicated, 0);
        assert_eq!(faulty.stats().delayed, 0);
    }

    #[test]
    fn send_resolved_counts_faults_and_keeps_traffic_counters() {
        use earth_faults::FaultPlan;
        let plan = FaultPlan::new()
            .with_drop(0.3)
            .with_duplicate(0.2)
            .with_reorder(0.2);
        let mut n = Network::new(MachineConfig::manna(4).with_faults(plan), 5);
        let mut drops = 0;
        let mut dups = 0;
        let mut delays = 0;
        for i in 0..400u32 {
            let r = n.send_resolved(VirtualTime::ZERO, NodeId(0), NodeId(1), 64 + i % 7);
            match r.fate {
                NetFate::Dropped => drops += 1,
                NetFate::Duplicated { first, second } => {
                    assert!(second > first, "duplicate copy lands strictly later");
                    dups += 1;
                }
                NetFate::Delivered { arrive } => {
                    assert!(arrive >= r.expected);
                    if arrive > r.expected {
                        delays += 1;
                    }
                }
            }
        }
        assert!(drops > 0 && dups > 0 && delays > 0);
        assert_eq!(n.stats().dropped, drops);
        assert_eq!(n.stats().duplicated, dups);
        assert_eq!(n.stats().delayed, delays);
        // Every injection — dropped or not — occupied the link and counts.
        assert_eq!(n.stats().messages, 400);
    }

    #[test]
    fn fault_schedule_is_seed_deterministic() {
        use earth_faults::FaultPlan;
        let plan = FaultPlan::new().with_drop(0.25).with_duplicate(0.15);
        let cfg = MachineConfig::manna(4).with_faults(plan);
        let mut a = Network::new(cfg.clone(), 77);
        let mut b = Network::new(cfg, 77);
        for i in 0..300u32 {
            let ra = a.send_resolved(VirtualTime::ZERO, NodeId(i as u16 % 4), NodeId(1), 64);
            let rb = b.send_resolved(VirtualTime::ZERO, NodeId(i as u16 % 4), NodeId(1), 64);
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        }
    }

    #[test]
    fn fault_log_records_only_when_enabled() {
        use earth_faults::FaultPlan;
        let plan = FaultPlan::new().with_drop(0.5);
        let cfg = MachineConfig::manna(2).with_faults(plan);
        let mut quiet = Network::new(cfg.clone(), 3);
        for _ in 0..50 {
            quiet.send_resolved(VirtualTime::ZERO, NodeId(0), NodeId(1), 64);
        }
        assert!(quiet.take_fault_events().is_empty());
        let mut logged = Network::new(cfg, 3);
        logged.enable_occupancy();
        for _ in 0..50 {
            logged.send_resolved(VirtualTime::ZERO, NodeId(0), NodeId(1), 64);
        }
        let events = logged.take_fault_events();
        assert_eq!(events.len() as u64, logged.stats().dropped);
        assert!(events.iter().all(|e| matches!(e.kind, FaultKind::Drop)));
    }

    #[test]
    fn explicit_crossbar_is_byte_identical_to_default() {
        use crate::topology::TopologyKind;
        let mut plain = Network::new(MachineConfig::manna(20).with_jitter(0.05), 42);
        let mut explicit = Network::new(
            MachineConfig::manna(20)
                .with_jitter(0.05)
                .with_topology(TopologyKind::Crossbar),
            42,
        );
        for i in 0..200u32 {
            let (s, d) = (NodeId(i as u16 % 20), NodeId((i as u16 * 7 + 3) % 20));
            let a = plain.send_detailed(VirtualTime::ZERO, s, d, 64 + i);
            let b = explicit.send_detailed(VirtualTime::ZERO, s, d, 64 + i);
            assert_eq!(a.depart, b.depart);
            assert_eq!(a.arrive, b.arrive);
        }
        assert_eq!(
            format!("{:?}", plain.stats()),
            format!("{:?}", explicit.stats())
        );
    }

    #[test]
    fn topologies_change_flight_time() {
        use crate::topology::TopologyKind;
        let t0 = VirtualTime::ZERO;
        let flight_us = |kind: TopologyKind, src: u16, dst: u16| {
            let mut n = Network::new(MachineConfig::manna(64).with_topology(kind), 1);
            let d = n.send_detailed(t0, NodeId(src), NodeId(dst), 0);
            d.arrive.since(d.depart).as_us_f64()
        };
        // Crossbar: 0..63 is cross-cluster, 3 hops → 1 + 3*0.5 = 2.5 µs.
        assert!((flight_us(TopologyKind::Crossbar, 0, 63) - 2.5).abs() < 1e-9);
        // Hypercube: 0..63 differ in 6 bits → 1 + 6*0.5 = 4 µs.
        assert!((flight_us(TopologyKind::Hypercube, 0, 63) - 4.0).abs() < 1e-9);
        // 3D torus (4×4×4): 63 is (3,3,3), one wrap step per ring → 3
        // hops, 3 rings crossed → contention 3 → 1 + 9*0.5 = 5.5 µs.
        assert!((flight_us(TopologyKind::Torus3D, 0, 63) - 5.5).abs() < 1e-9);
        // Fat tree (arity 8, oversub 2): LCA level 2 → 4 hops, contention
        // 2 → 1 + 8*0.5 = 5 µs.
        assert!((flight_us(TopologyKind::FatTree, 0, 63) - 5.0).abs() < 1e-9);
        // Same-cluster / same-subcube routes stay short everywhere.
        for kind in [
            TopologyKind::Crossbar,
            TopologyKind::Hypercube,
            TopologyKind::Torus3D,
            TopologyKind::FatTree,
        ] {
            assert!(
                flight_us(kind, 0, 1) <= flight_us(kind, 0, 63),
                "{kind:?}: neighbor flight exceeds far flight"
            );
        }
    }

    #[test]
    fn transfer_time_scales_with_bytes_and_distance() {
        let n = net(20);
        let local = n.transfer_time(NodeId(3), NodeId(3), 1_000_000);
        assert_eq!(local, VirtualDuration::ZERO);
        let near = n.transfer_time(NodeId(0), NodeId(1), 1_000);
        let far = n.transfer_time(NodeId(0), NodeId(17), 1_000);
        assert!(far > near, "cross-cluster should cost more hops");
        let big = n.transfer_time(NodeId(0), NodeId(1), 1_000_000);
        // 1 MB at 50 MB/s = 20 ms of serialization
        assert!((big.as_ms_f64() - 20.0).abs() < 0.1, "got {big}");
    }

    #[test]
    fn same_seed_same_timing() {
        let cfg = MachineConfig::manna(4).with_jitter(0.05);
        let mut a = Network::new(cfg.clone(), 7);
        let mut b = Network::new(cfg, 7);
        for i in 0..100u32 {
            let ta = a.send_detailed(VirtualTime::ZERO, NodeId(0), NodeId(1), 100 + i);
            let tb = b.send_detailed(VirtualTime::ZERO, NodeId(0), NodeId(1), 100 + i);
            assert_eq!(ta.arrive, tb.arrive);
        }
    }
}
