//! earth-profile: overhead accounting and trace export.
//!
//! When enabled (see [`Runtime::enable_profile`]), the runtime decomposes
//! every node's busy time into its scheduling components — polling-watchdog
//! message service, application thread execution, token instantiation, and
//! load-balancer traffic — plus Synchronization Unit time in the
//! dual-processor configuration, and attributes each serviced message's
//! handling cost to its operation class. The decomposition is *exact*: the
//! activity components and the report's busy and SU times are read from
//! one per-node array that the runtime's single charge path writes, so the
//! EU components sum nanosecond-for-nanosecond to [`NodeStats::busy`], SU
//! time equals [`NodeStats::su_time`], and the per-class message times sum
//! to poll + SU time ([`RunProfile::check`] asserts all three). This is the
//! "where did the microseconds go" presentation of the paper's Table 1,
//! recomputed for any application run.
//!
//! Profiling is free in virtual time: enabling it changes no event
//! timestamps, costs, or random draws, so a profiled run's [`RunReport`]
//! is byte-identical to an unprofiled same-seed run.
//!
//! [`Runtime::enable_profile`]: crate::Runtime::enable_profile
//! [`NodeStats::busy`]: crate::NodeStats::busy
//! [`NodeStats::su_time`]: crate::NodeStats::su_time

use crate::report::RunReport;
use crate::trace::{Activity, Span, Trace};
use earth_machine::{FaultEvent, LinkSpan, OpClass};
use earth_sim::{Breakdown, VirtualDuration};
use std::fmt::Write as _;

/// Message-handling cost attributed to one operation class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCost {
    /// Messages serviced.
    pub msgs: u64,
    /// Total handling time charged (EU in single-processor mode, SU in
    /// dual).
    pub time: VirtualDuration,
}

/// One node's busy-time decomposition.
#[derive(Clone, Debug, Default)]
pub struct NodeProfile {
    /// Polling watchdog: servicing messages on the Execution Unit.
    pub poll: VirtualDuration,
    /// Application thread execution (including the thread switch).
    pub thread: VirtualDuration,
    /// Token instantiation and execution (including frame setup).
    pub token: VirtualDuration,
    /// Load-balancer traffic (issuing steal requests).
    pub steal: VirtualDuration,
    /// Reliability-layer retransmissions issued from the watchdog (fault
    /// plans only; always zero on a fault-free run).
    pub retransmit: VirtualDuration,
    /// Hedged retransmits of still-unacked first transmissions
    /// (straggler defenses only; always zero otherwise).
    pub hedge: VirtualDuration,
    /// Failure-detector probes sent (crash plans only).
    pub heartbeat: VirtualDuration,
    /// Periodic checkpoint captures (crash plans only).
    pub checkpoint: VirtualDuration,
    /// Checkpoint restores, lost-work re-execution, and orphaned-token
    /// re-homing (crash plans only).
    pub recover: VirtualDuration,
    /// Synchronization Unit time (dual-processor nodes only).
    pub su: VirtualDuration,
    /// Handling cost of synchronous-class messages (`GET_SYNC` requests).
    pub sync_msgs: ClassCost,
    /// Handling cost of asynchronous-class messages (puts, signals,
    /// invokes, tokens).
    pub async_msgs: ClassCost,
    /// Handling cost of internal protocol messages (replies, steal
    /// requests and refusals) that carry no cost-model class.
    pub internal_msgs: ClassCost,
}

impl NodeProfile {
    /// Total Execution Unit time — equals `NodeStats::busy` exactly.
    pub fn eu_total(&self) -> VirtualDuration {
        self.poll
            + self.thread
            + self.token
            + self.steal
            + self.retransmit
            + self.hedge
            + self.heartbeat
            + self.checkpoint
            + self.recover
    }

    /// Total message-handling time — equals `poll + su` exactly.
    pub fn msg_time(&self) -> VirtualDuration {
        self.sync_msgs.time + self.async_msgs.time + self.internal_msgs.time
    }

    /// Copy the ten activity fields out of a node's per-activity time.
    pub(crate) fn set_activities(&mut self, time: &[VirtualDuration; Activity::COUNT]) {
        let at = |a: Activity| time[a as usize];
        self.poll = at(Activity::Poll);
        self.thread = at(Activity::Thread);
        self.token = at(Activity::TokenRun);
        self.steal = at(Activity::Steal);
        self.retransmit = at(Activity::Retransmit);
        self.hedge = at(Activity::Hedge);
        self.heartbeat = at(Activity::Heartbeat);
        self.checkpoint = at(Activity::Checkpoint);
        self.recover = at(Activity::Recover);
        self.su = at(Activity::Su);
    }

    pub(crate) fn add_msg(&mut self, class: Option<OpClass>, cost: VirtualDuration) {
        let c = match class {
            Some(OpClass::Sync) => &mut self.sync_msgs,
            Some(OpClass::Async) => &mut self.async_msgs,
            None => &mut self.internal_msgs,
        };
        c.msgs += 1;
        c.time += cost;
    }
}

/// Live collection state inside the runtime. Only the per-class message
/// costs accrue here; the activity fields are copied from the nodes'
/// per-activity time when the profile is taken.
#[derive(Default)]
pub(crate) struct ProfileState {
    pub(crate) nodes: Vec<NodeProfile>,
    pub(crate) su_spans: Vec<Span>,
}

impl ProfileState {
    pub(crate) fn with_nodes(n: usize) -> Self {
        ProfileState {
            nodes: vec![NodeProfile::default(); n],
            su_spans: Vec::new(),
        }
    }
}

/// Everything earth-profile collected over one run.
pub struct RunProfile {
    /// Per-node busy-time decomposition.
    pub nodes: Vec<NodeProfile>,
    /// EU activity spans (the Gantt rows).
    pub trace: Trace,
    /// SU activity spans (dual-processor mode; kept apart from `trace`
    /// because `Trace::busy` accounts EU time only).
    pub su_spans: Vec<Span>,
    /// Sender-link occupancy intervals from the network.
    pub links: Vec<LinkSpan>,
    /// Fault-plane decisions that fired (drops, duplicates, delays), in
    /// injection order. Empty without a fault plan.
    pub fault_events: Vec<FaultEvent>,
    /// Longest chain of message/thread dependencies in the run — the
    /// inherent serial bottleneck no amount of nodes can beat.
    pub critical_path: VirtualDuration,
}

impl RunProfile {
    /// Verify the decomposition against the run report, nanosecond-exact.
    /// Returns the first violated invariant as an error string.
    pub fn check(&self, report: &RunReport) -> Result<(), String> {
        if self.nodes.len() != report.nodes.len() {
            return Err(format!(
                "profile covers {} nodes, report has {}",
                self.nodes.len(),
                report.nodes.len()
            ));
        }
        for (i, (p, s)) in self.nodes.iter().zip(&report.nodes).enumerate() {
            if p.eu_total() != s.busy {
                return Err(format!(
                    "node {i}: poll+thread+token+steal+retransmit+hedge+hb+ckpt+recover = {} but busy = {}",
                    p.eu_total(),
                    s.busy
                ));
            }
            if p.su != s.su_time {
                return Err(format!(
                    "node {i}: profiled SU {} but su_time {}",
                    p.su, s.su_time
                ));
            }
            if p.msg_time() != p.poll + p.su {
                return Err(format!(
                    "node {i}: per-class message time {} but poll+su = {}",
                    p.msg_time(),
                    p.poll + p.su
                ));
            }
        }
        Ok(())
    }

    /// Total work in the run: EU busy time plus SU time across all nodes.
    pub fn total_work(&self, report: &RunReport) -> VirtualDuration {
        report.total_busy() + report.nodes.iter().map(|n| n.su_time).sum()
    }

    /// Average parallelism bound (work / critical path): the speedup
    /// ceiling the dependency structure itself imposes, independent of
    /// node count.
    pub fn parallelism_limit(&self, report: &RunReport) -> f64 {
        if self.critical_path.is_zero() {
            return 0.0;
        }
        self.total_work(report).as_us_f64() / self.critical_path.as_us_f64()
    }

    /// Render the Table-1-style machine-wide overhead breakdown.
    pub fn render(&self, report: &RunReport) -> String {
        let sum = |f: fn(&NodeProfile) -> VirtualDuration| -> f64 {
            self.nodes.iter().map(|p| f(p).as_us_f64()).sum()
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "earth-profile: {} nodes, elapsed {}",
            self.nodes.len(),
            report.elapsed
        );
        let _ = writeln!(out, "where the microseconds went:");
        let mut b = Breakdown::default();
        b.push("thread run", sum(|p| p.thread));
        b.push("token run", sum(|p| p.token));
        b.push("poll service", sum(|p| p.poll));
        b.push("steal traffic", sum(|p| p.steal));
        b.push("retransmit", sum(|p| p.retransmit));
        b.push("hedge", sum(|p| p.hedge));
        b.push("heartbeat", sum(|p| p.heartbeat));
        b.push("checkpoint", sum(|p| p.checkpoint));
        b.push("recovery", sum(|p| p.recover));
        b.push("SU service", sum(|p| p.su));
        out.push_str(&b.render("us"));
        let _ = writeln!(out, "message handling by class:");
        let class = |f: fn(&NodeProfile) -> ClassCost| -> (u64, f64) {
            self.nodes
                .iter()
                .map(&f)
                .fold((0, 0.0), |(n, t), c| (n + c.msgs, t + c.time.as_us_f64()))
        };
        for (label, (msgs, us)) in [
            ("sync ops", class(|p| p.sync_msgs)),
            ("async ops", class(|p| p.async_msgs)),
            ("internal", class(|p| p.internal_msgs)),
        ] {
            let _ = writeln!(out, "  {label:<18} {msgs:>8} msgs {us:>14.3} us");
        }
        let _ = writeln!(
            out,
            "critical path {} => parallelism limit {:.2}x",
            self.critical_path,
            self.parallelism_limit(report)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::NodeStats;

    fn us(n: u64) -> VirtualDuration {
        VirtualDuration::from_us(n)
    }

    fn profile_and_report() -> (RunProfile, RunReport) {
        let mut p = NodeProfile {
            poll: us(10),
            thread: us(70),
            token: us(15),
            steal: us(5),
            su: us(3),
            ..NodeProfile::default()
        };
        p.add_msg(Some(OpClass::Sync), us(4));
        p.add_msg(Some(OpClass::Async), us(6));
        p.add_msg(None, us(3));
        let profile = RunProfile {
            nodes: vec![p],
            trace: Trace::default(),
            su_spans: Vec::new(),
            links: Vec::new(),
            fault_events: Vec::new(),
            critical_path: us(50),
        };
        let report = RunReport {
            elapsed: us(100),
            events: 1,
            marks: Vec::new(),
            nodes: vec![NodeStats {
                busy: us(100),
                su_time: us(3),
                ..NodeStats::default()
            }],
            net_messages: 0,
            net_bytes: 0,
            link_waits: 0,
            net_dropped: 0,
            net_duplicated: 0,
            net_delayed: 0,
            net_crash_dropped: 0,
            leftover_tokens: 0,
            live_frames: 0,
            peak_queue_depth: 0,
            traffic: None,
        };
        (profile, report)
    }

    #[test]
    fn check_accepts_exact_decomposition() {
        let (profile, report) = profile_and_report();
        assert_eq!(profile.check(&report), Ok(()));
        // work = busy 100 + su 3; cp = 50
        assert!((profile.parallelism_limit(&report) - 103.0 / 50.0).abs() < 1e-9);
    }

    #[test]
    fn check_rejects_one_ns_drift() {
        let (mut profile, report) = profile_and_report();
        profile.nodes[0].poll += VirtualDuration::from_ns(1);
        let err = profile.check(&report).unwrap_err();
        assert!(err.contains("busy"), "{err}");
    }

    #[test]
    fn check_rejects_class_mismatch() {
        let (mut profile, report) = profile_and_report();
        profile.nodes[0].internal_msgs.time -= VirtualDuration::from_ns(1);
        let err = profile.check(&report).unwrap_err();
        assert!(err.contains("per-class"), "{err}");
    }

    #[test]
    fn add_msg_routes_by_class() {
        let mut p = NodeProfile::default();
        p.add_msg(Some(OpClass::Sync), us(1));
        p.add_msg(Some(OpClass::Async), us(2));
        p.add_msg(Some(OpClass::Async), us(2));
        p.add_msg(None, us(5));
        assert_eq!(
            p.sync_msgs,
            ClassCost {
                msgs: 1,
                time: us(1)
            }
        );
        assert_eq!(
            p.async_msgs,
            ClassCost {
                msgs: 2,
                time: us(4)
            }
        );
        assert_eq!(
            p.internal_msgs,
            ClassCost {
                msgs: 1,
                time: us(5)
            }
        );
        assert_eq!(p.msg_time(), us(10));
    }

    #[test]
    fn render_mentions_every_component() {
        let (profile, report) = profile_and_report();
        let s = profile.render(&report);
        for needle in [
            "thread run",
            "token run",
            "poll service",
            "steal traffic",
            "retransmit",
            "hedge",
            "heartbeat",
            "checkpoint",
            "recovery",
            "SU service",
            "sync ops",
            "async ops",
            "internal",
            "critical path",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }
}
