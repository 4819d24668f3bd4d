//! # earth-faults
//!
//! A declarative, seeded fault plane over the simulated MANNA network.
//!
//! The paper's Fig. 5 methodology stresses communication *cost* — every
//! message still arrives exactly once. This crate extends the same
//! deterministic machinery to communication *failure*: a [`FaultPlan`]
//! describes per-message drop / duplicate / reorder probabilities,
//! crash-stop windows and fail-slow node windows, plus the knobs of the
//! runtime's reliability, recovery and straggler planes. `earth-machine`
//! compiles the plan into a [`FaultState`] and consults it on every
//! remote send; `earth-rt` layers sequence numbers, receiver-side dedup,
//! and ack/timeout/retransmit on top so applications still complete with
//! bit-identical results.
//!
//! ## Determinism
//!
//! Every probabilistic decision is drawn from a *counter-based*
//! SplitMix64 stream: the fate of the `k`-th message on link
//! `src → dst` is a pure function of `(seed, src, dst, k)`. No shared
//! generator state exists, so the fate of one link's traffic can never
//! perturb another link's draws, and the fault schedule is independent
//! of cross-link event interleaving. The same `(seed, plan)` therefore
//! always yields the same fault schedule — byte-identical reports,
//! rerun forever.
//!
//! A trivial plan ([`FaultPlan::new`], or any plan whose probabilities
//! and windows are all empty and whose defenses are all off) is
//! normalized away at install time (`MachineConfig::with_faults`), so
//! the hook is provably free when unused: not a single extra branch,
//! draw, or byte differs from a run with no fault plane at all.

use earth_sim::{VirtualDuration, VirtualTime};

/// SplitMix64 finalizer (Steele, Lea & Flood): one round of the standard
/// mixer. Used both to seed the counter-based draws and to expand one
/// key into several independent decision words.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` with 53 bits of precision from one raw word.
#[inline]
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Fault probabilities, applied to every link. All probabilities are
/// per-message and must lie in `[0, 1)` — a probability of exactly 1
/// would make reliable delivery impossible and the simulation
/// non-terminating.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkProbs {
    /// Probability a message is silently lost in the fabric.
    pub drop: f64,
    /// Probability the fabric delivers a second copy of a message.
    pub duplicate: f64,
    /// Probability a message is held back by an extra uniform delay in
    /// `(0, REORDER_WINDOW]`, letting later traffic overtake it.
    pub reorder: f64,
}

impl LinkProbs {
    /// No faults.
    pub const NONE: LinkProbs = LinkProbs {
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
    };

    fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            assert!(
                (0.0..1.0).contains(&p),
                "{name} probability {p} outside [0, 1)"
            );
        }
    }

    fn is_trivial(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.reorder == 0.0
    }
}

/// A crash-stop window: `node` fail-stops at `down` (its NIC drops
/// every arriving message before acking, its scheduler runs nothing)
/// and — when `up` is set — restarts at `up`, replaying its last
/// checkpoint. When `up` is `None` the node stays down until the
/// failure detector declares it and triggers failover-restart at the
/// detection instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashWindow {
    /// The crashing node.
    pub node: u16,
    /// Crash instant (inclusive: the node is down from here on).
    pub down: VirtualTime,
    /// Scheduled restart instant, or `None` for detector-driven
    /// failover-restart.
    pub up: Option<VirtualTime>,
}

/// A fail-slow window: while `start <= now < end`, node `node` runs
/// *degraded* — every EU/SU cost it schedules and the flight latency of
/// every message departing it are multiplied by `factor` (≥ 1.0). The
/// node stays alive and keeps acking, so the crash detector must not
/// fire; this is the gray failure the straggler defenses exist for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowdownWindow {
    /// The degraded node.
    pub node: u16,
    /// Window start (inclusive).
    pub start: VirtualTime,
    /// Window end (exclusive).
    pub end: VirtualTime,
    /// EU/SU and outbound-flight multiplier (≥ 1.0).
    pub factor: f64,
}

/// Knobs for the runtime's deterministic latency-outlier detector: a
/// node whose ack-RTT EWMA exceeds `threshold ×` the nearest-rank
/// median EWMA (with at least `min_samples` observations) is marked
/// *Suspected-Slow* — a state deliberately distinct from the crash
/// detector's *Suspected-Dead*, so a straggler is quarantined, never
/// failover-restarted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowDetector {
    /// EWMA-vs-median multiplier above which a node is suspected slow
    /// (must be > 1.0).
    pub threshold: f64,
    /// Minimum RTT observations of a node before it can be suspected.
    pub min_samples: u32,
}

/// Upper bound of the extra delay drawn for a reordered message and of
/// the skew between a duplicate's two copies.
pub const REORDER_WINDOW: VirtualDuration = VirtualDuration::from_us(20);

/// Declarative description of every fault the network should inject.
///
/// Built with the `with_*` methods; installed with
/// `MachineConfig::with_faults`. A plan where nothing can ever fire
/// ([`FaultPlan::is_trivial`]) is normalized to "no fault plane" at
/// install time.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Fault probabilities applied to every link.
    pub default_probs: LinkProbs,
    /// Crash-stop windows (fail-stop with checkpoint/recovery).
    pub crashes: Vec<CrashWindow>,
    /// Fail-slow windows (per-node EU/SU + outbound-flight multiplier).
    pub slowdowns: Vec<SlowdownWindow>,
    /// Latency-outlier detector knobs; `None` leaves detection off.
    pub slow_detector: Option<SlowDetector>,
    /// Hedged-retransmit delay factor: after `factor ×` the expected
    /// (or EWMA-observed) round trip with no ack, re-send once to the
    /// same destination; dedup rides the existing watermark path.
    /// `None` leaves hedging off.
    pub hedge: Option<f64>,
    /// How long a Suspected-Slow node stays quarantined (skipped by
    /// steal-victim selection and traffic home-routing) after its last
    /// slow observation before normal traffic probes it again. `None`
    /// leaves quarantine off.
    pub quarantine: Option<VirtualDuration>,
    /// Speculatively re-home queued tokens off a node the moment it is
    /// quarantined, reusing the crash plane's orphan re-homing.
    pub speculative_rehoming: bool,
    /// Base retransmission timeout margin used by the runtime's
    /// reliability layer (added on top of the expected round trip,
    /// doubling per attempt up to 64×).
    pub rto: VirtualDuration,
    /// Failure-detector probe period: each node probes its ring
    /// successor this often while crash windows are armed.
    pub heartbeat_every: VirtualDuration,
    /// Suspicion timeout: a monitor declares its target crashed when no
    /// ack has arrived for a probe sent this long ago.
    pub suspect_after: VirtualDuration,
    /// Checkpoint period: every live node snapshots its frames, sync
    /// slots, memory segments, and queued tokens this often while crash
    /// windows are armed.
    pub checkpoint_every: VirtualDuration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing. Installing it is byte-identical
    /// to installing no plan at all.
    pub fn new() -> Self {
        FaultPlan {
            default_probs: LinkProbs::NONE,
            crashes: Vec::new(),
            slowdowns: Vec::new(),
            slow_detector: None,
            hedge: None,
            quarantine: None,
            speculative_rehoming: false,
            rto: VirtualDuration::from_us(250),
            heartbeat_every: VirtualDuration::from_us(1_000),
            suspect_after: VirtualDuration::from_us(4_000),
            checkpoint_every: VirtualDuration::from_us(5_000),
        }
    }

    /// Set the per-message drop probability on every link.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.default_probs.drop = p;
        self.default_probs.validate();
        self
    }

    /// Set the per-message duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.default_probs.duplicate = p;
        self.default_probs.validate();
        self
    }

    /// Set the per-message reorder probability (an extra delay drawn
    /// uniformly from `(0, REORDER_WINDOW]`).
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.default_probs.reorder = p;
        self.default_probs.validate();
        self
    }

    /// Crash `node` at `t` and leave it down until the failure detector
    /// declares it (failover-restart at the detection instant).
    pub fn with_node_crash(mut self, node: u16, t: VirtualTime) -> Self {
        self.crashes.push(CrashWindow {
            node,
            down: t,
            up: None,
        });
        self
    }

    /// Crash `node` at `t_down` and restart it at `t_up`, replaying its
    /// last checkpoint.
    pub fn with_crash_restart(mut self, node: u16, t_down: VirtualTime, t_up: VirtualTime) -> Self {
        assert!(t_up > t_down, "crash window must be non-empty");
        self.crashes.push(CrashWindow {
            node,
            down: t_down,
            up: Some(t_up),
        });
        self
    }

    /// Add a fail-slow window: `node`'s EU/SU costs and outbound flight
    /// latencies are multiplied by `factor` while `start <= now < end`.
    pub fn with_node_slowdown(
        mut self,
        node: u16,
        start: VirtualTime,
        end: VirtualTime,
        factor: f64,
    ) -> Self {
        assert!(end > start, "slowdown window must be non-empty");
        assert!(factor >= 1.0, "slowdown factor must be at least 1.0");
        self.slowdowns.push(SlowdownWindow {
            node,
            start,
            end,
            factor,
        });
        self
    }

    /// Arm the latency-outlier detector: suspect a node slow when its
    /// ack-RTT EWMA exceeds `threshold ×` the median EWMA after at
    /// least `min_samples` observations.
    pub fn with_slow_detector(mut self, threshold: f64, min_samples: u32) -> Self {
        assert!(threshold > 1.0, "outlier threshold must exceed 1.0");
        assert!(min_samples >= 1, "detector needs at least one sample");
        self.slow_detector = Some(SlowDetector {
            threshold,
            min_samples,
        });
        self
    }

    /// Arm hedged retransmits: with no ack after `factor ×` the
    /// expected (or observed-EWMA) round trip, re-send once to the same
    /// destination; receiver-side dedup makes the hedge safe.
    pub fn with_hedging(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "hedge delay factor must be positive");
        self.hedge = Some(factor);
        self
    }

    /// Arm quarantine: keep a Suspected-Slow node off the steal-victim
    /// and traffic home-routing paths until `d` after its last slow
    /// observation, then let normal traffic probe it half-open.
    pub fn with_quarantine(mut self, d: VirtualDuration) -> Self {
        assert!(!d.is_zero(), "quarantine duration must be positive");
        self.quarantine = Some(d);
        self
    }

    /// Arm speculative re-homing: drain a node's queued tokens to
    /// healthy homes the moment it is quarantined.
    pub fn with_speculative_rehoming(mut self) -> Self {
        self.speculative_rehoming = true;
        self
    }

    /// Set the failure-detector probe period.
    pub fn with_heartbeat_every(mut self, d: VirtualDuration) -> Self {
        assert!(!d.is_zero(), "heartbeat period must be positive");
        self.heartbeat_every = d;
        self
    }

    /// Set the failure-detector suspicion timeout.
    pub fn with_suspect_after(mut self, d: VirtualDuration) -> Self {
        assert!(!d.is_zero(), "suspicion timeout must be positive");
        self.suspect_after = d;
        self
    }

    /// Set the checkpoint period.
    pub fn with_checkpoint_every(mut self, d: VirtualDuration) -> Self {
        assert!(!d.is_zero(), "checkpoint period must be positive");
        self.checkpoint_every = d;
        self
    }

    /// Set the base retransmission timeout margin.
    pub fn with_rto(mut self, rto: VirtualDuration) -> Self {
        assert!(!rto.is_zero(), "rto must be positive");
        self.rto = rto;
        self
    }

    /// True when the plan schedules at least one crash-stop window (the
    /// runtime arms the detector/checkpoint plane only then).
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// True when the plan arms any straggler defense (outlier detector
    /// or hedged retransmits — quarantine and speculative re-homing
    /// only act on detector verdicts). The runtime allocates its slow
    /// state only then.
    pub fn has_straggler_defenses(&self) -> bool {
        self.slow_detector.is_some() || self.hedge.is_some()
    }

    /// True when the plan can never inject anything: no probability is
    /// positive and no window exists. Trivial plans are normalized to
    /// "no fault plane installed" so the hook stays provably free.
    pub fn is_trivial(&self) -> bool {
        self.default_probs.is_trivial()
            && self.crashes.is_empty()
            && self.slowdowns.is_empty()
            // Defense knobs install real behavior (the reliability
            // envelope layer, hedge events, quarantine routing), so a
            // defense-only plan is *not* trivial.
            && self.slow_detector.is_none()
            && self.hedge.is_none()
            && self.quarantine.is_none()
            && !self.speculative_rehoming
    }
}

/// What the fault plane decided for one injected message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message.
    Drop,
    /// Deliver the message and a second copy `skew` later.
    Duplicate {
        /// Extra delay of the duplicate copy relative to the original.
        skew: VirtualDuration,
    },
    /// Deliver the message `extra` later than its natural arrival.
    Delay {
        /// The extra holding delay.
        extra: VirtualDuration,
    },
}

/// What kind of fault fired (the fault-event log / Chrome faults lane).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A message was dropped.
    Drop,
    /// A message was duplicated.
    Duplicate,
    /// A message was held back (reorder delay).
    Delay,
}

/// A [`FaultPlan`] compiled against a seed and a node count: the object
/// the network consults on every remote send.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    seed: u64,
    nodes: u16,
    /// Per-link message counters indexing the counter-based stream.
    counters: Vec<u64>,
}

impl FaultState {
    /// Compile `plan` for a `nodes`-node machine. `seed` should come
    /// from the machine's master seed through a dedicated salt so fault
    /// draws never overlap the latency-jitter stream. Panics if a
    /// slowdown window names a node the machine does not have, or if
    /// quarantine or speculative re-homing is armed without the slow
    /// detector whose verdicts they act on.
    pub fn new(plan: FaultPlan, seed: u64, nodes: u16) -> Self {
        for w in &plan.slowdowns {
            assert!(
                w.node < nodes,
                "slowdown window targets node {} of a {}-node machine",
                w.node,
                nodes
            );
        }
        assert!(
            plan.slow_detector.is_some()
                || (plan.quarantine.is_none() && !plan.speculative_rehoming),
            "quarantine and speculative re-homing act only on the slow \
             detector's verdicts: arm with_slow_detector"
        );
        let n = nodes as usize;
        FaultState {
            plan,
            seed,
            nodes,
            counters: vec![0; n * n],
        }
    }

    /// Decide the fate of the next message on `src → dst`. Advances the
    /// link's message counter; every decision is a pure function of
    /// `(seed, src, dst, counter)`.
    pub fn fate(&mut self, src: u16, dst: u16) -> Fate {
        let idx = src as usize * self.nodes as usize + dst as usize;
        let k = self.counters[idx];
        self.counters[idx] += 1;
        let probs = self.plan.default_probs;
        if probs.is_trivial() {
            return Fate::Deliver;
        }
        // Counter-based stream: expand (seed, link, k) into independent
        // decision words with the SplitMix64 finalizer.
        let mut s = self.seed
            ^ (src as u64) << 48
            ^ (dst as u64) << 32
            ^ k.wrapping_mul(0xA24B_AED4_963E_E407);
        let d_drop = splitmix64(&mut s);
        let d_dup = splitmix64(&mut s);
        let d_reorder = splitmix64(&mut s);
        let d_mag = splitmix64(&mut s);
        if unit(d_drop) < probs.drop {
            return Fate::Drop;
        }
        // Magnitude draw in (0, REORDER_WINDOW]: never zero, so a
        // duplicate copy always lands strictly after the original.
        let mag_ns = 1 + (unit(d_mag) * REORDER_WINDOW.as_ns() as f64) as u64;
        let mag = VirtualDuration::from_ns(mag_ns);
        if unit(d_dup) < probs.duplicate {
            return Fate::Duplicate { skew: mag };
        }
        if unit(d_reorder) < probs.reorder {
            return Fate::Delay { extra: mag };
        }
        Fate::Deliver
    }

    /// Fail-slow multiplier for `node`'s EU/SU costs and outbound
    /// flights at `t`: the largest factor among the windows covering
    /// `t`, or 1.0. A linear scan over the plan's windows (a handful on
    /// every workload), valid for queries in any time order.
    pub fn slow_factor(&self, node: u16, t: VirtualTime) -> f64 {
        self.plan
            .slowdowns
            .iter()
            .filter(|w| w.node == node && t >= w.start && t < w.end)
            .map(|w| w.factor)
            .fold(1.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> VirtualTime {
        VirtualTime::from_ns(us * 1000)
    }

    #[test]
    fn none_is_trivial_and_default() {
        assert!(FaultPlan::new().is_trivial());
        assert!(FaultPlan::default().is_trivial());
        assert_eq!(FaultPlan::new(), FaultPlan::default());
        assert!(FaultPlan::new().with_drop(0.0).is_trivial());
        assert!(!FaultPlan::new().with_drop(0.01).is_trivial());
        assert!(FaultPlan::new().with_reorder(0.0).is_trivial());
        assert!(!FaultPlan::new().with_reorder(0.01).is_trivial());
    }

    #[test]
    fn same_seed_plan_same_schedule() {
        let plan = FaultPlan::new()
            .with_drop(0.2)
            .with_duplicate(0.1)
            .with_reorder(0.1);
        let mut a = FaultState::new(plan.clone(), 99, 4);
        let mut b = FaultState::new(plan, 99, 4);
        for i in 0..500u64 {
            let src = (i % 4) as u16;
            let dst = ((i + 1) % 4) as u16;
            assert_eq!(a.fate(src, dst), b.fate(src, dst));
        }
    }

    #[test]
    fn schedule_is_independent_of_link_interleaving() {
        // The k-th message on link 0->1 gets the same fate whether or
        // not other links carried traffic in between.
        let plan = FaultPlan::new().with_drop(0.3).with_duplicate(0.2);
        let mut alone = FaultState::new(plan.clone(), 7, 4);
        let solo: Vec<Fate> = (0..100).map(|_| alone.fate(0, 1)).collect();
        let mut mixed = FaultState::new(plan, 7, 4);
        let mut interleaved = Vec::new();
        for _ in 0..100 {
            let _ = mixed.fate(2, 3);
            interleaved.push(mixed.fate(0, 1));
            let _ = mixed.fate(1, 0);
        }
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn fates_actually_vary() {
        let plan = FaultPlan::new()
            .with_drop(0.25)
            .with_duplicate(0.25)
            .with_reorder(0.25);
        let mut st = FaultState::new(plan, 3, 2);
        let mut drops = 0;
        let mut dups = 0;
        let mut delays = 0;
        let mut ok = 0;
        let mut widest = VirtualDuration::ZERO;
        for _ in 0..2000 {
            match st.fate(0, 1) {
                Fate::Drop => drops += 1,
                Fate::Duplicate { skew } => {
                    assert!(!skew.is_zero());
                    widest = widest.max(skew);
                    dups += 1;
                }
                Fate::Delay { extra } => {
                    assert!(!extra.is_zero());
                    widest = widest.max(extra);
                    delays += 1;
                }
                Fate::Deliver => ok += 1,
            }
        }
        // Draws are conditional (drop, then duplicate, then reorder), so
        // later fates fire at 0.25 of the remaining mass: expected
        // ~500 / ~375 / ~281 out of 2000.
        for (name, n, lo, hi) in [
            ("drop", drops, 400, 620),
            ("dup", dups, 280, 480),
            ("delay", delays, 190, 380),
        ] {
            assert!((lo..hi).contains(&n), "{name} fired {n}/2000");
        }
        assert!(ok > 500, "deliver fired {ok}/2000");
        // Skews and delays fill (0, 20 µs]: the widest of ~650 uniform
        // draws lands within 0.5 µs of the window's top.
        assert!(
            widest <= VirtualDuration::from_us(20) && widest > VirtualDuration::from_ns(19_500),
            "widest skew or delay {widest:?}"
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn probability_of_one_is_rejected() {
        let _ = FaultPlan::new().with_drop(1.0);
    }

    #[test]
    fn crash_windows_arm_the_plan() {
        let p = FaultPlan::new().with_node_crash(3, t(500));
        assert!(!p.is_trivial(), "a crash-only plan must install");
        assert!(p.has_crashes());
        assert_eq!(p.crashes[0].up, None, "crash-stop waits for failover");
        let q = FaultPlan::new().with_crash_restart(1, t(100), t(900));
        assert_eq!(q.crashes[0].up, Some(t(900)));
        assert!(!FaultPlan::new().has_crashes());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_crash_window_is_rejected() {
        let _ = FaultPlan::new().with_crash_restart(0, t(10), t(10));
    }

    #[test]
    fn gray_failure_knobs_make_a_plan_non_trivial() {
        assert!(!FaultPlan::new()
            .with_node_slowdown(1, t(0), t(10), 4.0)
            .is_trivial());
        // Defense-only plans install real behavior (envelopes, hedges,
        // quarantine routing), so they are not trivial either.
        assert!(!FaultPlan::new().with_slow_detector(3.0, 4).is_trivial());
        assert!(!FaultPlan::new().with_hedging(1.5).is_trivial());
        assert!(!FaultPlan::new()
            .with_quarantine(VirtualDuration::from_us(500))
            .is_trivial());
        assert!(!FaultPlan::new().with_speculative_rehoming().is_trivial());
        assert!(!FaultPlan::new().has_straggler_defenses());
        assert!(FaultPlan::new().with_hedging(1.5).has_straggler_defenses());
        assert!(FaultPlan::new()
            .with_slow_detector(3.0, 4)
            .has_straggler_defenses());
    }

    #[test]
    fn slow_factor_is_exact_at_window_edges() {
        let plan = FaultPlan::new()
            .with_node_slowdown(2, t(10), t(20), 2.0)
            .with_node_slowdown(2, t(20), t(30), 4.0)
            .with_node_slowdown(1, t(0), t(50), 2.0)
            .with_node_slowdown(1, t(10), t(20), 8.0);
        let st = FaultState::new(plan, 1, 4);
        assert_eq!(st.slow_factor(2, t(9)), 1.0);
        assert_eq!(st.slow_factor(2, t(19)), 2.0);
        assert_eq!(st.slow_factor(2, t(20)), 4.0, "abutting factors stay split");
        assert_eq!(st.slow_factor(2, t(30)), 1.0, "end is exclusive");
        assert_eq!(st.slow_factor(3, t(15)), 1.0, "other nodes unaffected");
        assert_eq!(st.slow_factor(1, t(15)), 8.0, "overlap takes the largest");
        assert_eq!(st.slow_factor(1, t(25)), 2.0, "the outer window outlives");
    }

    #[test]
    #[should_panic(expected = "slowdown window targets node 70 of a 16-node machine")]
    fn slowdown_window_outside_the_machine_is_rejected() {
        let plan = FaultPlan::new().with_node_slowdown(70, t(0), t(10_000_000), 8.0);
        let _ = FaultState::new(plan, 1, 16);
    }

    #[test]
    #[should_panic(expected = "act only on the slow detector's verdicts")]
    fn quarantine_without_the_slow_detector_is_rejected() {
        let plan = FaultPlan::new().with_quarantine(VirtualDuration::from_ms(20));
        let _ = FaultState::new(plan, 1, 8);
    }

    #[test]
    #[should_panic(expected = "act only on the slow detector's verdicts")]
    fn speculative_rehoming_without_the_slow_detector_is_rejected() {
        let plan = FaultPlan::new().with_speculative_rehoming();
        let _ = FaultState::new(plan, 1, 8);
    }

    #[test]
    #[should_panic(expected = "at least 1.0")]
    fn sub_unit_slowdown_factor_is_rejected() {
        let _ = FaultPlan::new().with_node_slowdown(0, t(0), t(10), 0.5);
    }

    #[test]
    #[should_panic(expected = "must exceed 1.0")]
    fn slow_detector_threshold_of_one_is_rejected() {
        let _ = FaultPlan::new().with_slow_detector(1.0, 4);
    }
}
