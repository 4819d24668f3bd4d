//! Run reports: what a completed simulation tells the experimenter.

use crate::traffic::TrafficReport;
use earth_sim::{VirtualDuration, VirtualTime};
use std::fmt;

/// Per-node activity counters.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Total processor-occupied virtual time.
    pub busy: VirtualDuration,
    /// Threads executed.
    pub threads: u64,
    /// Frames instantiated on this node.
    pub frames_created: u64,
    /// Tokens this node executed (local pops plus stolen ones).
    pub tokens_run: u64,
    /// Tokens obtained by stealing.
    pub steals_ok: u64,
    /// Steal requests this node answered with a refusal.
    pub steal_nacks: u64,
    /// Messages serviced by the polling watchdog.
    pub msgs_in: u64,
    /// Time spent by the Synchronization Unit (dual-processor nodes
    /// only; zero in the single-processor configuration).
    pub su_time: VirtualDuration,
    /// Messages injected into the network.
    pub msgs_out: u64,
    /// Signals addressed to frames that no longer existed (indicates an
    /// application protocol bug; always 0 in a correct program).
    pub dropped_signals: u64,
    /// Messages this node retransmitted after an ack timeout (fault
    /// plans only; always 0 on a fault-free run).
    pub retransmits: u64,
    /// Duplicate deliveries this node's NIC suppressed (fault plans
    /// only; always 0 on a fault-free run).
    pub dup_suppressed: u64,
    /// Failure-detector probes this node sent (crash plans only).
    pub heartbeats: u64,
    /// Periodic checkpoints this node took (crash plans only).
    pub checkpoints: u64,
    /// Crash-stop faults this node suffered (crash plans only).
    pub crashes: u64,
    /// Checkpoint recoveries this node completed (crash plans only).
    pub recoveries: u64,
    /// Orphaned tokens this node re-homed to survivors after declaring
    /// a peer crashed (crash plans only).
    pub rehomed: u64,
    /// Total virtual time this node was unavailable: from each crash to
    /// the end of the matching recovery replay (crash plans only).
    pub downtime: VirtualDuration,
    /// Injected fail-slow windows this node entered (slowdown plans
    /// only; counts 1.0 → >1.0 transitions of its EU factor).
    pub slow_windows: u64,
    /// Hedged retransmits this node sent (hedging armed only).
    pub hedges_sent: u64,
    /// Hedges whose destination acked before any timeout retransmission
    /// — the hedge (or the original it raced) won outright.
    pub hedges_won: u64,
    /// Times the straggler detector put this node into Suspected-Slow
    /// (detector armed only).
    pub quarantines: u64,
    /// Tokens speculatively re-homed *off* this node when it was
    /// quarantined (speculative re-homing armed only).
    pub speculated: u64,
}

/// The events a run processed, by kind, and the outcomes of three kinds
/// that did nothing. Counts only: like
/// [`RunReport::peak_queue_depth`], they stay out of `Display`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Message arrivals at a NIC.
    pub deliver: u64,
    /// Scheduling rounds.
    pub wake: u64,
    /// Retransmission-deadline checks (fault plans only).
    pub retry_check: u64,
    /// Crash-window starts (crash plans only).
    pub crash: u64,
    /// Crash-window recoveries (crash plans only).
    pub recover: u64,
    /// Failure-detector rounds (crash plans only).
    pub probe_tick: u64,
    /// Checkpoint rounds (crash plans only).
    pub ckpt_tick: u64,
    /// Suspicion alarms (crash plans only).
    pub detect_check: u64,
    /// Job arrivals at the admission front-end (traffic plans only).
    pub job_arrive: u64,
    /// Job completions (traffic plans only).
    pub job_done: u64,
    /// Refused jobs presenting again (overload policies only).
    pub job_retry: u64,
    /// Hedge timers (straggler defenses only).
    pub hedge_check: u64,
    /// `Wake` rounds that ran and charged no EU or SU time (a wake on a
    /// down node runs no round).
    pub idle_wakes: u64,
    /// `RetryCheck`s that found no deadline due.
    pub stale_retry_checks: u64,
    /// `HedgeCheck`s that returned without hedging.
    pub stale_hedge_checks: u64,
}

impl EventCounts {
    /// Events of every kind: [`RunReport::events`].
    pub fn total(&self) -> u64 {
        self.deliver
            + self.wake
            + self.retry_check
            + self.crash
            + self.recover
            + self.probe_tick
            + self.ckpt_tick
            + self.detect_check
            + self.job_arrive
            + self.job_done
            + self.job_retry
            + self.hedge_check
    }
}

/// Result of running a simulation to quiescence.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Virtual time at which the last node finished its last activity —
    /// the "parallel runtime" of the paper's speedup computations.
    pub elapsed: VirtualDuration,
    /// Discrete events processed.
    pub events: u64,
    /// Application-recorded `(label, instant)` marks.
    pub marks: Vec<(String, VirtualTime)>,
    /// Per-node counters.
    pub nodes: Vec<NodeStats>,
    /// Network messages carried.
    pub net_messages: u64,
    /// Network payload bytes carried.
    pub net_bytes: u64,
    /// Messages that queued on a busy sender link.
    pub link_waits: u64,
    /// Messages the fault plane dropped (0 without a fault plan).
    pub net_dropped: u64,
    /// Messages the fault plane duplicated (0 without a fault plan).
    pub net_duplicated: u64,
    /// Messages the fault plane delayed (0 without a fault plan).
    pub net_delayed: u64,
    /// Messages discarded at a crashed node's NIC before acking (0
    /// without crash windows; each was later retransmitted).
    pub net_crash_dropped: u64,
    /// Tokens never executed (0 after a clean run).
    pub leftover_tokens: u64,
    /// Frames still live at quiescence (0 after a clean run).
    pub live_frames: u64,
    /// Largest number of events pending in the scheduler's queue at any
    /// instant — the load the event core had to sustain. A pure
    /// observation of the schedule, absent from `Display` so report
    /// goldens are unaffected.
    pub peak_queue_depth: u64,
    /// [`Self::events`] by kind, with the no-op outcomes. Absent from
    /// `Display`, so report goldens are unaffected.
    pub event_counts: EventCounts,
    /// Traffic-plane lifecycle accounting — `Some` exactly when a
    /// non-empty traffic plan was installed (batch runs stay `None` and
    /// render identically to before the plane existed).
    pub traffic: Option<TrafficReport>,
}

impl RunReport {
    /// Virtual instant recorded under `label`, if the application marked it.
    pub fn mark(&self, label: &str) -> Option<VirtualTime> {
        self.marks.iter().find(|(l, _)| l == label).map(|&(_, t)| t)
    }

    /// Total threads executed across all nodes.
    pub fn total_threads(&self) -> u64 {
        self.nodes.iter().map(|n| n.threads).sum()
    }

    /// Total busy time across all nodes (the "work" of the run).
    pub fn total_busy(&self) -> VirtualDuration {
        self.nodes.iter().map(|n| n.busy).sum()
    }

    /// Processor utilization: busy time over `nodes × elapsed`.
    pub fn utilization(&self) -> f64 {
        if self.elapsed.is_zero() || self.nodes.is_empty() {
            return 0.0;
        }
        self.total_busy().as_us_f64() / (self.elapsed.as_us_f64() * self.nodes.len() as f64)
    }

    /// Total retransmissions across all nodes (fault plans only).
    pub fn total_retransmits(&self) -> u64 {
        self.nodes.iter().map(|n| n.retransmits).sum()
    }

    /// Total NIC-suppressed duplicate deliveries across all nodes.
    pub fn total_dup_suppressed(&self) -> u64 {
        self.nodes.iter().map(|n| n.dup_suppressed).sum()
    }

    /// True when the fault plane perturbed this run at all.
    pub fn had_faults(&self) -> bool {
        self.net_dropped + self.net_duplicated + self.net_delayed > 0
    }

    /// Total crash-stop faults across all nodes (crash plans only).
    pub fn total_crashes(&self) -> u64 {
        self.nodes.iter().map(|n| n.crashes).sum()
    }

    /// Total checkpoint recoveries across all nodes.
    pub fn total_recoveries(&self) -> u64 {
        self.nodes.iter().map(|n| n.recoveries).sum()
    }

    /// Total checkpoints taken across all nodes.
    pub fn total_checkpoints(&self) -> u64 {
        self.nodes.iter().map(|n| n.checkpoints).sum()
    }

    /// Total failure-detector probes sent across all nodes.
    pub fn total_heartbeats(&self) -> u64 {
        self.nodes.iter().map(|n| n.heartbeats).sum()
    }

    /// Total tokens re-homed away from crashed nodes.
    pub fn total_rehomed(&self) -> u64 {
        self.nodes.iter().map(|n| n.rehomed).sum()
    }

    /// Total unavailable time summed over all nodes.
    pub fn total_downtime(&self) -> VirtualDuration {
        self.nodes.iter().map(|n| n.downtime).sum()
    }

    /// True when at least one node crash-stopped during the run.
    pub fn had_crashes(&self) -> bool {
        self.total_crashes() > 0
    }

    /// Total injected fail-slow windows entered across all nodes.
    pub fn total_slow_windows(&self) -> u64 {
        self.nodes.iter().map(|n| n.slow_windows).sum()
    }

    /// Total hedged retransmits sent across all nodes.
    pub fn total_hedges_sent(&self) -> u64 {
        self.nodes.iter().map(|n| n.hedges_sent).sum()
    }

    /// Total hedges acked before any timeout retransmission.
    pub fn total_hedges_won(&self) -> u64 {
        self.nodes.iter().map(|n| n.hedges_won).sum()
    }

    /// Total Suspected-Slow quarantine entries across all nodes.
    pub fn total_quarantines(&self) -> u64 {
        self.nodes.iter().map(|n| n.quarantines).sum()
    }

    /// Total tokens speculatively re-homed off quarantined nodes.
    pub fn total_speculated(&self) -> u64 {
        self.nodes.iter().map(|n| n.speculated).sum()
    }

    /// True when the gray-failure plane (injected slowdowns or armed
    /// straggler defenses) did anything observable this run.
    pub fn had_stragglers(&self) -> bool {
        self.total_slow_windows()
            + self.total_hedges_sent()
            + self.total_quarantines()
            + self.total_speculated()
            > 0
    }

    /// True when the run left no dangling work or frames behind.
    pub fn is_clean(&self) -> bool {
        self.leftover_tokens == 0
            && self.live_frames == 0
            && self.nodes.iter().all(|n| n.dropped_signals == 0)
    }

    /// True when a traffic plan was installed and every job that arrived
    /// reached a terminal outcome (completed, rejected, or expired) —
    /// the serving-plane analogue of [`Self::is_clean`]. Without an
    /// overload policy nothing is ever refused, so this degenerates to
    /// "everything completed".
    pub fn traffic_drained(&self) -> bool {
        self.traffic
            .as_ref()
            .is_some_and(|t| t.arrived == t.completed + t.rejected + t.expired && t.is_conserved())
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "elapsed {}  events {}  msgs {} ({} B)  threads {}  util {:.1}%",
            self.elapsed,
            self.events,
            self.net_messages,
            self.net_bytes,
            self.total_threads(),
            self.utilization() * 100.0
        )?;
        // Fault-free runs keep the historical one-line format exactly.
        if self.had_faults() {
            writeln!(
                f,
                "faults: dropped {}  duplicated {}  delayed {}  retransmits {}  dups suppressed {}",
                self.net_dropped,
                self.net_duplicated,
                self.net_delayed,
                self.total_retransmits(),
                self.total_dup_suppressed()
            )?;
        }
        // Likewise, the crash line exists only when a node actually
        // crash-stopped, so crash-free runs render byte-identically.
        if self.had_crashes() {
            writeln!(
                f,
                "crashes: {}  recoveries {}  checkpoints {}  heartbeats {}  rehomed {}  nic-dropped {}  downtime {}",
                self.total_crashes(),
                self.total_recoveries(),
                self.total_checkpoints(),
                self.total_heartbeats(),
                self.total_rehomed(),
                self.net_crash_dropped,
                self.total_downtime()
            )?;
        }
        // The stragglers line exists only when the gray-failure plane
        // acted, so slowdown-free runs render byte-identically.
        if self.had_stragglers() {
            writeln!(
                f,
                "stragglers: slow-windows {}  hedges {}/{} won  quarantines {}  speculated {}",
                self.total_slow_windows(),
                self.total_hedges_won(),
                self.total_hedges_sent(),
                self.total_quarantines(),
                self.total_speculated()
            )?;
        }
        // The traffic line exists only when a plan was installed, so
        // batch runs render byte-identically to the pre-traffic format.
        // Admission is always FIFO; the line still names it.
        if let Some(t) = &self.traffic {
            writeln!(
                f,
                "traffic: fifo  arrived {}  admitted {}  completed {}  in-flight {}  queued {}",
                t.arrived,
                t.admitted,
                t.completed,
                t.in_flight(),
                t.queued()
            )?;
            // The overload line exists only when the overload plane did
            // something, so policy-free (and policy-idle) runs render
            // byte-identically to the pre-overload format.
            if t.had_overload() {
                writeln!(
                    f,
                    "overload: rejected {}  expired {}  retries {}  queue-full {}  breaker-rejected {}  breaker-opens {}  sheds {}",
                    t.rejected,
                    t.expired,
                    t.retries,
                    t.queue_rejections,
                    t.breaker_rejections,
                    t.breaker_opens,
                    t.expirations
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            elapsed: VirtualDuration::from_us(100),
            events: 10,
            marks: vec![("done".into(), VirtualTime::from_ns(5_000))],
            nodes: vec![
                NodeStats {
                    busy: VirtualDuration::from_us(80),
                    threads: 3,
                    ..NodeStats::default()
                },
                NodeStats {
                    busy: VirtualDuration::from_us(40),
                    threads: 2,
                    ..NodeStats::default()
                },
            ],
            net_messages: 4,
            net_bytes: 64,
            link_waits: 0,
            net_dropped: 0,
            net_duplicated: 0,
            net_delayed: 0,
            net_crash_dropped: 0,
            leftover_tokens: 0,
            live_frames: 0,
            peak_queue_depth: 7,
            event_counts: EventCounts::default(),
            traffic: None,
        }
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert_eq!(r.total_threads(), 5);
        assert_eq!(r.total_busy(), VirtualDuration::from_us(120));
        assert!((r.utilization() - 0.6).abs() < 1e-9);
        assert!(r.is_clean());
    }

    #[test]
    fn mark_lookup() {
        let r = report();
        assert_eq!(r.mark("done"), Some(VirtualTime::from_ns(5_000)));
        assert_eq!(r.mark("missing"), None);
    }

    #[test]
    fn display_mentions_faults_only_when_they_fired() {
        let clean = format!("{}", report());
        assert!(!clean.contains("faults"), "{clean}");
        let mut r = report();
        r.net_dropped = 3;
        r.nodes[0].retransmits = 4;
        r.nodes[1].dup_suppressed = 1;
        let s = format!("{r}");
        assert!(s.starts_with(&clean), "base line must stay identical");
        assert!(s.contains("dropped 3"), "{s}");
        assert!(s.contains("retransmits 4"), "{s}");
        assert!(s.contains("dups suppressed 1"), "{s}");
        assert_eq!(r.total_retransmits(), 4);
        assert_eq!(r.total_dup_suppressed(), 1);
        assert!(r.had_faults());
        assert!(r.is_clean(), "fault counters do not dirty a run");
    }

    #[test]
    fn display_mentions_crashes_only_when_they_fired() {
        let clean = format!("{}", report());
        assert!(!clean.contains("crashes"), "{clean}");
        let mut r = report();
        r.nodes[0].crashes = 1;
        r.nodes[0].recoveries = 1;
        r.nodes[0].downtime = VirtualDuration::from_us(900);
        r.nodes[1].checkpoints = 4;
        r.nodes[1].heartbeats = 12;
        r.nodes[1].rehomed = 2;
        let s = format!("{r}");
        assert!(s.starts_with(&clean), "base line must stay identical");
        assert!(s.contains("crashes: 1"), "{s}");
        assert!(s.contains("recoveries 1"), "{s}");
        assert!(s.contains("checkpoints 4"), "{s}");
        assert!(s.contains("rehomed 2"), "{s}");
        assert_eq!(r.total_heartbeats(), 12);
        assert_eq!(r.total_downtime(), VirtualDuration::from_us(900));
        assert!(r.had_crashes());
        assert!(r.is_clean(), "crash counters do not dirty a run");
    }

    /// A counter-consistent traffic report: `completed` finished jobs,
    /// one in flight, the rest still queued, with backing records so the
    /// record-recounting conservation check holds.
    fn traffic_report(arrived: u64, admitted: u64, completed: u64) -> TrafficReport {
        use crate::traffic::{JobOutcome, JobRecord};
        let jobs = (0..arrived)
            .map(|k| {
                let admitted_k = k < admitted;
                let completed_k = k < completed;
                JobRecord {
                    job: k as u32,
                    class: 0,
                    tenant: 0,
                    arrive: VirtualTime::ZERO,
                    deadline: None,
                    admit: admitted_k.then_some(VirtualTime::from_ns(10)),
                    complete: completed_k.then_some(VirtualTime::from_ns(20)),
                    outcome: if completed_k {
                        JobOutcome::Completed
                    } else {
                        JobOutcome::Pending
                    },
                    retries: 0,
                }
            })
            .collect();
        TrafficReport {
            concurrency: 4,
            arrived,
            admitted,
            completed,
            rejected: 0,
            expired: 0,
            retries: 0,
            queue_rejections: 0,
            breaker_rejections: 0,
            breaker_opens: 0,
            expirations: 0,
            peak_waiting: 0,
            jobs,
        }
    }

    #[test]
    fn display_mentions_traffic_only_when_a_plan_ran() {
        let clean = format!("{}", report());
        assert!(!clean.contains("traffic"), "{clean}");
        let mut r = report();
        r.traffic = Some(traffic_report(10, 8, 7));
        let s = format!("{r}");
        assert!(s.starts_with(&clean), "base line must stay identical");
        assert!(s.contains("traffic: fifo"), "{s}");
        assert!(s.contains("arrived 10"), "{s}");
        assert!(s.contains("in-flight 1"), "{s}");
        assert!(s.contains("queued 2"), "{s}");
        assert!(!r.traffic_drained(), "three jobs still outstanding");
        r.traffic = Some(traffic_report(10, 10, 10));
        assert!(r.traffic_drained());
    }

    #[test]
    fn display_mentions_overload_only_when_the_plane_acted() {
        let mut r = report();
        r.traffic = Some(traffic_report(10, 10, 10));
        let idle = format!("{r}");
        assert!(
            !idle.contains("overload"),
            "idle overload plane must stay silent: {idle}"
        );
        let t = r.traffic.as_mut().unwrap();
        t.retries = 5;
        t.queue_rejections = 3;
        t.breaker_opens = 1;
        let s = format!("{r}");
        assert!(s.starts_with(&idle), "traffic line must stay identical");
        assert!(s.contains("overload: rejected 0"), "{s}");
        assert!(s.contains("retries 5"), "{s}");
        assert!(s.contains("queue-full 3"), "{s}");
        assert!(s.contains("breaker-opens 1"), "{s}");
    }

    #[test]
    fn display_mentions_stragglers_only_when_the_plane_acted() {
        let clean = format!("{}", report());
        assert!(!clean.contains("stragglers"), "{clean}");
        let mut r = report();
        r.nodes[0].slow_windows = 2;
        r.nodes[0].quarantines = 1;
        r.nodes[0].speculated = 3;
        r.nodes[1].hedges_sent = 5;
        r.nodes[1].hedges_won = 4;
        let s = format!("{r}");
        assert!(s.starts_with(&clean), "base line must stay identical");
        assert!(s.contains("slow-windows 2"), "{s}");
        assert!(s.contains("hedges 4/5 won"), "{s}");
        assert!(s.contains("quarantines 1"), "{s}");
        assert!(s.contains("speculated 3"), "{s}");
        assert_eq!(r.total_slow_windows(), 2);
        assert_eq!(r.total_hedges_sent(), 5);
        assert_eq!(r.total_hedges_won(), 4);
        assert_eq!(r.total_quarantines(), 1);
        assert_eq!(r.total_speculated(), 3);
        assert!(r.had_stragglers());
        assert!(r.is_clean(), "straggler counters do not dirty a run");
    }

    #[test]
    fn dirty_run_detected() {
        let mut r = report();
        r.leftover_tokens = 1;
        assert!(!r.is_clean());
        let mut r2 = report();
        r2.nodes[0].dropped_signals = 2;
        assert!(!r2.is_clean());
    }
}
