//! The straggler-defense plane: deterministic latency-outlier detection
//! and quarantine bookkeeping for *gray* failures.
//!
//! Armed only when the installed [`FaultPlan`] arms a straggler defense
//! (`with_slow_detector` / `with_hedging`); every other run never
//! allocates or consults any of this, keeping the hook provably free
//! when disabled.
//!
//! ## Detection
//!
//! A fail-slow node is alive — its NIC acks everything — so the crash
//! detector (`recover.rs`) must never see it. What *does* betray it is
//! latency: every ack it returns arrives late. Each first-transmission
//! ack yields one sample: the observed round trip as a *permille ratio*
//! of the reliability layer's own fault-free estimate for that send
//! (1000 = exactly as predicted). Ratios, not raw nanoseconds, because
//! raw RTTs are dominated by payload size and sender-link queueing —
//! both already priced into the estimate — which would otherwise make
//! every node serving large transfers look like a straggler. The
//! detector folds each node's ratios through a two-stage filter, all
//! integer arithmetic so replay is exact: the nearest-rank median of
//! the node's last [`WINDOW`] samples (an ack that queued behind one
//! big block transfer on the remote link is a one-off spike — a median
//! ignores it, where a plain mean-style estimator would spend many
//! samples recovering), smoothed by an EWMA (`(3·e + median)/4`) so
//! the verdict can't flap when the median steps. Retransmitted
//! messages are never sampled (they would fold the timeout into the
//! estimate). A node is marked **Suspected-Slow** when its smoothed
//! level exceeds `threshold ×` the nearest-rank median level across
//! sampled nodes, after at least `min_samples` observations — a
//! relative test, so a uniformly slow fabric suspects nobody.
//!
//! Suspected-Slow is deliberately a different state from the crash
//! detector's Suspected-Dead: a straggler is quarantined (steal-victim
//! selection and traffic home-routing route around it) but never
//! failover-restarted, and `Runtime::detect_check` refuses to declare a
//! node dead while it is merely suspected slow.
//!
//! ## Un-quarantine
//!
//! Quarantine extends while slow observations keep arriving; once
//! `probe_after` elapses past the *last* slow observation the node
//! enters half-open probation, mirroring the overload plane's circuit
//! breaker: routing stops avoiding it, so the next regular traffic is
//! itself the probe, and its acks decide the verdict — on-model round
//! trips first outvote the slow ones in the sample window, then the
//! EWMA decays back under threshold (~25% of the gap per sample).
//!
//! [`FaultPlan`]: earth_machine::FaultPlan

use earth_machine::FaultPlan;
use earth_sim::{VirtualDuration, VirtualTime};

/// What one RTT observation did to a node's Suspected-Slow state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SlowTransition {
    /// No state change.
    None,
    /// The node just crossed the outlier threshold.
    Entered,
    /// The node's EWMA fell back under the threshold.
    Cleared,
}

/// Ring size for the per-node sample median. Odd, so a full window has
/// a true middle element; 9 keeps a lone burst (a few consecutive
/// head-of-line-blocked acks) below the rank that decides the median.
const WINDOW: usize = 9;

/// Live straggler-defense state inside the runtime.
pub(crate) struct SlowState {
    /// Per-node EWMA of the windowed sample median, in permille of the
    /// expected round trip (1000 = on model; 0 until sampled).
    ewma: Vec<u64>,
    /// Per-node ring of the last [`WINDOW`] ratio samples (slot
    /// `samples % WINDOW` is overwritten next).
    window: Vec<[u64; WINDOW]>,
    /// Observations folded into each node's estimate so far.
    samples: Vec<u32>,
    /// The detector's verdict: latency outlier, alive but degraded.
    suspected_slow: Vec<bool>,
    /// Instant of each node's most recent slow observation (quarantine
    /// is timed from the *last* one, so it extends while the node stays
    /// slow).
    quarantined_at: Vec<VirtualTime>,
    /// Outlier knobs; `None` when only hedging is armed (EWMAs still
    /// accumulate for hedge delays, but nobody is ever suspected).
    detector: Option<earth_machine::SlowDetector>,
    /// Hedged-retransmit delay factor from the plan, if armed.
    pub(crate) hedge_factor: Option<f64>,
    /// Quarantine duration after the last slow observation, if armed.
    probe_after: Option<VirtualDuration>,
    /// Speculatively re-home a node's queued tokens on quarantine entry.
    pub(crate) speculative: bool,
    /// The EWMAs of every sampled node, ascending (equal values repeat):
    /// each observation swaps its node's old EWMA for the new one, so the
    /// fleet median is one index lookup.
    fleet: Vec<u64>,
}

impl SlowState {
    pub(crate) fn new(plan: &FaultPlan, nodes: u16) -> Self {
        let n = nodes as usize;
        SlowState {
            ewma: vec![0; n],
            window: vec![[0; WINDOW]; n],
            samples: vec![0; n],
            suspected_slow: vec![false; n],
            quarantined_at: vec![VirtualTime::ZERO; n],
            detector: plan.slow_detector,
            hedge_factor: plan.hedge,
            probe_after: plan.quarantine,
            speculative: plan.speculative_rehoming,
            fleet: Vec::with_capacity(n),
        }
    }

    /// The node's observed-slowness EWMA in permille of the expected
    /// round trip, or `None` before its first sample (hedge delays fall
    /// back to a ratio of 1000 — exactly on model — then).
    pub(crate) fn ewma_permille(&self, node: usize) -> Option<u64> {
        (self.samples[node] > 0).then(|| self.ewma[node])
    }

    /// Whether the detector currently suspects `node` of being slow.
    /// This is what gates the crash detector: a Suspected-Slow node is
    /// never declared Suspected-Dead.
    pub(crate) fn suspected_slow(&self, node: usize) -> bool {
        self.suspected_slow[node]
    }

    /// Whether routing should avoid `node` at `now`: suspected slow,
    /// quarantine armed, and still inside `probe_after` of its last slow
    /// observation. Past that the node is half-open — traffic probes it.
    ///
    /// Pure (no cursor, no mutation), so index-vs-scan equivalence
    /// assertions elsewhere stay valid whatever order callers query in.
    pub(crate) fn is_quarantined(&self, node: usize, now: VirtualTime) -> bool {
        self.suspected_slow[node]
            && self
                .probe_after
                .is_some_and(|pa| now < self.quarantined_at[node] + pa)
    }

    /// Fold one first-transmission ack's observed-over-expected round
    /// trip ratio (permille) from `from` into its windowed-median EWMA
    /// and re-evaluate the outlier verdict. Returns the transition, so
    /// the caller can count quarantine entries and trigger speculative
    /// re-homing exactly once per episode.
    pub(crate) fn observe_rtt(
        &mut self,
        from: usize,
        sample: u64,
        now: VirtualTime,
    ) -> SlowTransition {
        self.fold(from, sample);
        let Some(det) = self.detector else {
            return SlowTransition::None;
        };
        // Nearest-rank median over the nodes sampled so far.
        let median = self.fleet[(self.fleet.len() - 1) / 2];
        self.verdict(from, det, median, now)
    }

    /// Fold `sample` into `from`'s windowed-median EWMA and move the
    /// node's entry in the sorted fleet index to the new value.
    fn fold(&mut self, from: usize, sample: u64) {
        self.window[from][self.samples[from] as usize % WINDOW] = sample;
        let filled = (self.samples[from] as usize + 1).min(WINDOW);
        let mut recent = self.window[from];
        recent[..filled].sort_unstable();
        let windowed = recent[(filled - 1) / 2];
        let new = if self.samples[from] == 0 {
            windowed
        } else {
            let old = self.ewma[from];
            let pos = self
                .fleet
                .binary_search(&old)
                .expect("a sampled node's EWMA is in the fleet index");
            self.fleet.remove(pos);
            (3 * old + windowed) / 4
        };
        self.ewma[from] = new;
        let pos = self.fleet.binary_search(&new).unwrap_or_else(|p| p);
        self.fleet.insert(pos, new);
        self.samples[from] = self.samples[from].saturating_add(1);
    }

    /// Judge `from` against the fleet `median` after its latest sample.
    fn verdict(
        &mut self,
        from: usize,
        det: earth_machine::SlowDetector,
        median: u64,
        now: VirtualTime,
    ) -> SlowTransition {
        let slow = self.samples[from] >= det.min_samples
            && (self.ewma[from] as f64) > det.threshold * (median as f64);
        if slow {
            // Every slow observation re-anchors the quarantine clock:
            // the node stays avoided until `probe_after` past its LAST
            // slow ack, not its first.
            self.quarantined_at[from] = now;
            if !self.suspected_slow[from] {
                self.suspected_slow[from] = true;
                return SlowTransition::Entered;
            }
        } else if self.suspected_slow[from] {
            self.suspected_slow[from] = false;
            return SlowTransition::Cleared;
        }
        SlowTransition::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_testkit::prelude::*;

    fn t(us: u64) -> VirtualTime {
        VirtualTime::from_ns(us * 1000)
    }

    /// The sampled nodes' EWMAs by scan and sort: the fleet index's
    /// oracle.
    fn sorted_scan(s: &SlowState) -> Vec<u64> {
        let mut fleet: Vec<u64> = (0..s.ewma.len())
            .filter(|&i| s.samples[i] > 0)
            .map(|i| s.ewma[i])
            .collect();
        fleet.sort_unstable();
        fleet
    }

    /// [`SlowState::observe_rtt`] with the fleet median taken from
    /// [`sorted_scan`] instead of the index.
    fn observe_rtt_scan(
        s: &mut SlowState,
        from: usize,
        sample: u64,
        now: VirtualTime,
    ) -> SlowTransition {
        s.fold(from, sample);
        let Some(det) = s.detector else {
            return SlowTransition::None;
        };
        let fleet = sorted_scan(s);
        s.verdict(from, det, fleet[(fleet.len() - 1) / 2], now)
    }

    /// Ratios drawn from a short list, so EWMAs repeat across nodes and
    /// the index holds equal values side by side.
    const RATIOS: [u64; 6] = [0, 1_000, 1_000, 1_500, 3_000, 80_000];

    props! {
        #![config(Config::with_cases(64))]

        #[test]
        fn fleet_index_matches_the_scan_and_sort_oracle(
            nodes in 1usize..65,
            armed in any::<bool>(),
            threshold in 1.5f64..4.0,
            min_samples in 1u32..4,
            ops in collection::vec((any::<u16>(), 0usize..RATIOS.len(), 0u64..50), 1..400),
        ) {
            let plan = if armed {
                FaultPlan::new()
                    .with_slow_detector(threshold, min_samples)
                    .with_quarantine(VirtualDuration::from_us(100))
            } else {
                FaultPlan::new().with_hedging(1.5)
            };
            let mut s = SlowState::new(&plan, nodes as u16);
            let mut oracle = SlowState::new(&plan, nodes as u16);
            let mut now = 0;
            for &(raw, pick, dt) in &ops {
                let from = raw as usize % nodes;
                now += dt;
                let got = s.observe_rtt(from, RATIOS[pick], t(now));
                let want = observe_rtt_scan(&mut oracle, from, RATIOS[pick], t(now));
                prop_assert_eq!(&s.fleet, &sorted_scan(&s));
                prop_assert_eq!(got, want);
            }
        }
    }

    fn armed(nodes: u16) -> SlowState {
        let plan = FaultPlan::new()
            .with_slow_detector(3.0, 2)
            .with_quarantine(VirtualDuration::from_us(100));
        SlowState::new(&plan, nodes)
    }

    /// Feed every node a baseline RTT so the median is established.
    fn baseline(s: &mut SlowState, nodes: usize, rtt_ns: u64) {
        for i in 0..nodes {
            assert_eq!(s.observe_rtt(i, rtt_ns, t(1)), SlowTransition::None);
            assert_eq!(s.observe_rtt(i, rtt_ns, t(2)), SlowTransition::None);
        }
    }

    #[test]
    fn outlier_enters_and_clears_against_the_median() {
        let mut s = armed(4);
        baseline(&mut s, 4, 10_000);
        // One node's ratios inflate 8×: first the slow samples must
        // outvote the baseline in its median window, then the EWMA
        // steps toward the new level — it crosses 3× the fleet median
        // on the fourth slow sample, never the first (a lone spike is
        // exactly what must NOT trip the detector).
        for k in 0..3 {
            assert_eq!(
                s.observe_rtt(2, 80_000, t(10 + k)),
                SlowTransition::None,
                "slow sample {k} tripped too early"
            );
        }
        assert_eq!(s.observe_rtt(2, 80_000, t(13)), SlowTransition::Entered);
        assert!(s.suspected_slow(2));
        assert_eq!(
            s.observe_rtt(2, 80_000, t(14)),
            SlowTransition::None,
            "already suspected: no second entry"
        );
        // Recovery: healthy ratios outvote the window, then the EWMA
        // decays ~25% of the gap per sample.
        let mut cleared = false;
        for k in 0..12 {
            if s.observe_rtt(2, 10_000, t(20 + k)) == SlowTransition::Cleared {
                cleared = true;
                break;
            }
        }
        assert!(cleared, "estimate must decay back under threshold");
        assert!(!s.suspected_slow(2));
    }

    #[test]
    fn a_lone_spike_never_suspects_a_healthy_node() {
        // One ack stuck behind a big block transfer on the remote link
        // reads as a huge one-off ratio; the windowed median must
        // swallow it without the verdict ever moving.
        let mut s = armed(4);
        baseline(&mut s, 4, 1_000);
        assert_eq!(s.observe_rtt(1, 70_000, t(10)), SlowTransition::None);
        for k in 0..6 {
            assert_eq!(s.observe_rtt(1, 1_000, t(11 + k)), SlowTransition::None);
        }
        assert!(!s.suspected_slow(1));
    }

    #[test]
    fn uniform_slowness_suspects_nobody() {
        // A fabric-wide slowdown moves the fleet median with every
        // node's estimate: the relative test stays quiet. The window
        // median delays the jump identically everywhere and the EWMA's
        // 1/4 gain smooths the rounds where it lands, so even the first
        // node to cross never outruns the still-rising fleet median.
        let mut s = armed(4);
        baseline(&mut s, 4, 10_000);
        for round in 0..10u64 {
            for i in 0..4 {
                assert_eq!(
                    s.observe_rtt(i, 80_000, t(100 + round)),
                    SlowTransition::None,
                    "node {i} round {round}"
                );
            }
        }
    }

    #[test]
    fn quarantine_extends_with_slow_observations_then_goes_half_open() {
        let mut s = armed(4);
        baseline(&mut s, 4, 10_000);
        // Sustained 20× ratios: the third slow sample takes the window
        // median, and one EWMA step from there clears 3× the fleet.
        assert_eq!(s.observe_rtt(1, 200_000, t(5)), SlowTransition::None);
        assert_eq!(s.observe_rtt(1, 200_000, t(7)), SlowTransition::None);
        assert_eq!(s.observe_rtt(1, 200_000, t(10)), SlowTransition::Entered);
        s.observe_rtt(1, 200_000, t(20));
        assert!(s.is_quarantined(1, t(30)));
        // Another slow ack at t=90 re-anchors the clock...
        s.observe_rtt(1, 200_000, t(90));
        assert!(
            s.is_quarantined(1, t(150)),
            "extended past the first window"
        );
        // ...and probe_after (100us) past the LAST slow ack it opens.
        assert!(!s.is_quarantined(1, t(190)), "half-open: traffic probes it");
        assert!(s.suspected_slow(1), "still suspected until acks clear it");
    }

    #[test]
    fn quarantine_off_means_no_routing_avoidance() {
        let plan = FaultPlan::new().with_slow_detector(3.0, 2);
        let mut s = SlowState::new(&plan, 4);
        baseline(&mut s, 4, 10_000);
        s.observe_rtt(3, 200_000, t(10));
        s.observe_rtt(3, 200_000, t(11));
        s.observe_rtt(3, 200_000, t(12));
        assert!(s.suspected_slow(3), "detector still fires");
        assert!(
            !s.is_quarantined(3, t(12)),
            "without the quarantine knob nothing is avoided"
        );
    }

    #[test]
    fn hedge_only_plans_accumulate_ewma_but_never_suspect() {
        let plan = FaultPlan::new().with_hedging(1.5);
        let mut s = SlowState::new(&plan, 2);
        assert_eq!(
            s.ewma_permille(1),
            None,
            "unsampled: hedge assumes on-model"
        );
        for _ in 0..10 {
            assert_eq!(s.observe_rtt(1, 50_000, t(5)), SlowTransition::None);
        }
        assert_eq!(s.ewma_permille(1), Some(50_000));
        assert!(!s.suspected_slow(1));
    }
}
