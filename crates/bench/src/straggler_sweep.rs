//! The gray-failure sweep: `repro stragglers`.
//!
//! Goodput versus fail-slow severity for the straggler defenses, with
//! and without them armed. Every cell pushes the same deadlined job
//! stream through the machine while one node runs its EU and outbound
//! link `factor ×` slower for essentially the whole run — the node is
//! alive, acks everything, and never trips the crash detector, which is
//! exactly what makes gray failure expensive. The `naive` variant takes
//! the hit: jobs homed on (or stolen toward) the straggler grind
//! through their deadlines. The `defended` variant arms the full
//! straggler plane — the latency-outlier detector, hedged retransmits,
//! quarantine-aware placement, and speculative re-homing — so arrivals
//! route around the slow node, its queued tokens evacuate, and goodput
//! holds.
//!
//! The grid sweeps slowdown factor × machine size; the heaviest point
//! is rerun twice more with the defenses on under chaos (see
//! `open_loop.rs`), the crash hitting a *different* node than the
//! stragglers, showing the detector separating fail-slow from
//! fail-stop while both planes are live.

use crate::open_loop::{run_open_loop, sojourn_digest, Point, STREAM_SEED};
use earth_machine::FaultPlan;
use earth_sim::{VirtualDuration, VirtualTime};
use earth_traffic::{SloSummary, TrafficPlan, TrafficRun};
use std::fmt::Write as _;

/// Offered load, jobs per simulated second. Deliberately uncongested:
/// with the machine lightly loaded, every lost percentage point of
/// goodput is the straggler's doing, not queueing's.
const OFFERED_LOAD: f64 = 2_000.0;

/// Per-job relative deadline range, microseconds. Comfortable at clean
/// service, hopeless at the heaviest slowdown factor.
const DEADLINE_LO_US: u64 = 3_500;
const DEADLINE_HI_US: u64 = 12_000;

/// The fail-slow window: opens just after the stream starts and
/// outlives it, so the straggler is degraded for the whole run.
const SLOW_FROM_NS: u64 = 50_000;
const SLOW_UNTIL_NS: u64 = 1_000_000_000;

/// Outlier detector: suspect a node once its ack-RTT EWMA runs 3× the
/// cross-node median for 3 first-transmission samples.
const DETECT_THRESHOLD: f64 = 3.0;
const DETECT_MIN_SAMPLES: u32 = 3;

/// Hedged retransmit delay, as a multiple of the destination's
/// slowness-adjusted expected round trip. Well past the p90 of
/// head-of-line-blocked (but healthy) acks, so hedges stay rare and
/// pay off mainly when a first copy was dropped or badly delayed.
const HEDGE_FACTOR: f64 = 6.0;

/// Quarantine duration past the last slow observation. Long relative to
/// job spacing, so the half-open probe cycle leaks few jobs back onto
/// the straggler while it stays slow.
const QUARANTINE_US: u64 = 20_000;

/// One cell: one (variant, slowdown factor, machine size) point with
/// its goodput and the straggler plane's own accounting.
pub struct StragglerCell {
    /// `naive`, `defended`, `defended_lossy`, or `defended_crashed`.
    pub variant: &'static str,
    /// EU + outbound-link slowdown multiplier on each victim node.
    pub factor: f64,
    /// Simulated machine size for this cell.
    pub nodes: u16,
    /// Outcome split and attainment over the whole stream.
    pub slo: SloSummary,
    /// Fail-slow windows entered (schedule rounds observed inside one).
    pub slow_windows: u64,
    /// Hedged retransmits sent / acked before any timeout retransmit.
    pub hedges_sent: u64,
    pub hedges_won: u64,
    /// Suspected-Slow quarantine entries.
    pub quarantines: u64,
    /// Tokens speculatively re-homed off quarantined nodes.
    pub speculated: u64,
    /// p99 sojourn over completed jobs, microseconds.
    pub p99_us: f64,
    /// Virtual time from first arrival to the machine going idle.
    pub makespan: VirtualDuration,
}

/// The `repro stragglers` sweep result.
pub struct StragglerTable {
    /// Jobs per stream.
    pub jobs: u32,
    /// Slowdown factors swept.
    pub factors: Vec<f64>,
    /// Machine sizes swept (the victims are always the `n/4`-wide
    /// stripe starting at node `n/2`).
    pub node_counts: Vec<u16>,
    /// naive/defended pairs per (factor, nodes) point (factor-major),
    /// then the lossy and crashed chaos variants of the defended plan
    /// at the heaviest point.
    pub cells: Vec<StragglerCell>,
}

/// The full sweep: 96-job streams, slowdown factors 2–8× on 4- and
/// 8-node machines, plus the two chaos variants.
pub fn stragglers_table() -> StragglerTable {
    stragglers_at(96, &[2.0, 4.0, 8.0], &[4, 8])
}

/// The CI-sized sweep: same schema, 48-job streams, two factors, one
/// machine size.
pub fn stragglers_smoke() -> StragglerTable {
    stragglers_at(48, &[2.0, 8.0], &[8])
}

/// The victims: a quarter-machine stripe of stragglers, mid-machine so
/// they are neither the injector's first homes nor the last steal
/// victims scanned. More than one victim is the realistic fail-slow
/// shape (a bad rack, a shared degraded switch) and keeps the sweep's
/// signal well above single-job quantization noise; still a minority,
/// so the detector's fleet median stays anchored on healthy nodes.
fn victims(nodes: u16) -> Vec<u16> {
    let stripe = (nodes / 4).max(1);
    (nodes / 2..nodes / 2 + stripe).collect()
}

/// The shared stream: deadlined, unbounded admission (no overload
/// knobs), so every job completes and goodput is purely the fraction
/// that still landed inside its deadline.
fn stream(jobs: u32) -> TrafficPlan {
    TrafficPlan::new(STREAM_SEED)
        .with_jobs(jobs)
        .with_offered_load(OFFERED_LOAD)
        .with_deadlines(DEADLINE_LO_US, DEADLINE_HI_US)
}

/// The injected gray failure, defense-free: the victim stripe runs
/// `factor ×` slower for the whole run. This is the `naive` plan.
fn naive_plan(nodes: u16, factor: f64) -> FaultPlan {
    victims(nodes).into_iter().fold(FaultPlan::new(), |p, v| {
        p.with_node_slowdown(
            v,
            VirtualTime::from_ns(SLOW_FROM_NS),
            VirtualTime::from_ns(SLOW_UNTIL_NS),
            factor,
        )
    })
}

/// The same injection with the full straggler plane armed.
fn defended_plan(nodes: u16, factor: f64) -> FaultPlan {
    naive_plan(nodes, factor)
        .with_slow_detector(DETECT_THRESHOLD, DETECT_MIN_SAMPLES)
        .with_hedging(HEDGE_FACTOR)
        .with_quarantine(VirtualDuration::from_us(QUARANTINE_US))
        .with_speculative_rehoming()
}

fn cell(p: Point, run: TrafficRun) -> StragglerCell {
    let r = &run.report;
    StragglerCell {
        variant: p.variant,
        factor: p.x,
        nodes: p.nodes,
        slo: run.traffic().slo(None, None),
        slow_windows: r.total_slow_windows(),
        hedges_sent: r.total_hedges_sent(),
        hedges_won: r.total_hedges_won(),
        quarantines: r.total_quarantines(),
        speculated: r.total_speculated(),
        p99_us: sojourn_digest(&run).p99_ns / 1_000.0,
        makespan: r.elapsed,
    }
}

fn stragglers_at(jobs: u32, factors: &[f64], node_counts: &[u16]) -> StragglerTable {
    let grid = factors
        .iter()
        .flat_map(|&x| {
            node_counts.iter().flat_map(move |&nodes| {
                ["naive", "defended"].map(|variant| Point { variant, x, nodes })
            })
        })
        .collect();
    let plans = |p: Point| {
        let faults = match p.variant {
            "naive" => naive_plan(p.nodes, p.x),
            _ => defended_plan(p.nodes, p.x),
        };
        (stream(jobs), faults)
    };
    // Chaos reruns: full defenses at the heaviest point. The crash hits
    // the node after the straggler stripe, so fail-stop and fail-slow
    // arrive at once, each answered by its own machinery: the detector
    // must keep the stragglers quarantined (not failed over) while real
    // recovery runs.
    let crash_node = victims(*node_counts.last().unwrap()).last().unwrap() + 1;
    let chaos = ["defended_lossy", "defended_crashed"];
    StragglerTable {
        jobs,
        factors: factors.to_vec(),
        node_counts: node_counts.to_vec(),
        cells: run_open_loop(grid, plans, chaos, crash_node, cell),
    }
}

impl StragglerTable {
    /// Text rendering: one row per cell.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Stragglers: {}-job deadlined streams (seed {STREAM_SEED}) at {OFFERED_LOAD:.0}/s, \
             deadlines {DEADLINE_LO_US}-{DEADLINE_HI_US}us, a quarter-stripe of nodes slowed for the whole run",
            self.jobs,
        );
        for c in &self.cells {
            let _ = writeln!(
                s,
                "  {:>16} x{:<2.0} on {:>2} nodes: goodput {:>5.1}%  done {:>3}  \
                 slow-windows {:>3}  hedges {:>3}/{:<3}  quarantines {:>2}  \
                 speculated {:>3}  p99 {:>7.0}us  makespan {}",
                c.variant,
                c.factor,
                c.nodes,
                c.slo.goodput() * 100.0,
                c.slo.completed,
                c.slow_windows,
                c.hedges_won,
                c.hedges_sent,
                c.quarantines,
                c.speculated,
                c.p99_us,
                c.makespan,
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'t>(
        t: &'t StragglerTable,
        variant: &str,
        factor: f64,
        nodes: u16,
    ) -> &'t StragglerCell {
        t.cells
            .iter()
            .find(|c| c.variant == variant && c.factor == factor && c.nodes == nodes)
            .unwrap()
    }

    #[test]
    fn smoke_sweep_has_pairs_plus_chaos_variants() {
        let t = stragglers_smoke();
        assert_eq!(t.cells.len(), t.factors.len() * t.node_counts.len() * 2 + 2);
        assert_eq!(t.cells[t.cells.len() - 2].variant, "defended_lossy");
        assert_eq!(t.cells[t.cells.len() - 1].variant, "defended_crashed");
        for c in &t.cells {
            assert_eq!(
                c.slo.jobs, t.jobs as u64,
                "{} cell lost arrivals",
                c.variant
            );
            assert_eq!(
                c.slo.completed, c.slo.jobs,
                "{} cell refused work with no overload policy installed",
                c.variant
            );
            assert!(
                c.slow_windows > 0,
                "{} cell never hit the window",
                c.variant
            );
        }
        let text = t.render();
        assert!(text.contains("defended_crashed"), "{text}");
        assert!(text.contains("goodput"), "{text}");
    }

    #[test]
    fn naive_cells_never_touch_the_defense_plane() {
        let t = stragglers_smoke();
        for f in &t.factors {
            let c = find(&t, "naive", *f, t.node_counts[0]);
            assert_eq!(c.hedges_sent, 0, "naive x{f} hedged");
            assert_eq!(c.quarantines, 0, "naive x{f} quarantined");
            assert_eq!(c.speculated, 0, "naive x{f} speculated");
        }
    }

    #[test]
    fn mild_slowdown_hurts_nobody_much() {
        let t = stragglers_smoke();
        let lo = *t.factors.first().unwrap();
        for variant in ["naive", "defended"] {
            let c = find(&t, variant, lo, t.node_counts[0]);
            assert!(
                c.slo.goodput() >= 0.75,
                "{variant} x{lo} goodput collapsed under a mild straggler: {:.2}",
                c.slo.goodput()
            );
        }
    }

    #[test]
    fn defenses_win_goodput_at_the_heaviest_slowdown() {
        let t = stragglers_smoke();
        let hi = *t.factors.last().unwrap();
        let n = *t.node_counts.last().unwrap();
        let naive = find(&t, "naive", hi, n);
        let defended = find(&t, "defended", hi, n);
        assert!(
            naive.slo.goodput() < 1.0,
            "no straggler pain to defend against: naive goodput {:.2}",
            naive.slo.goodput()
        );
        assert!(
            defended.slo.goodput() > naive.slo.goodput(),
            "defenses lost goodput: {:.2} vs {:.2}",
            defended.slo.goodput(),
            naive.slo.goodput()
        );
        assert!(
            defended.quarantines > 0,
            "the straggler was never quarantined at x{hi}"
        );
    }

    #[test]
    fn chaos_variants_keep_a_goodput_floor() {
        let t = stragglers_smoke();
        let hi = *t.factors.last().unwrap();
        let n = *t.node_counts.last().unwrap();
        let defended = find(&t, "defended", hi, n);
        for variant in ["defended_lossy", "defended_crashed"] {
            let c = find(&t, variant, hi, n);
            assert!(
                c.slo.goodput() >= defended.slo.goodput() * 0.5,
                "{variant} goodput fell through the floor: {:.2} vs clean {:.2}",
                c.slo.goodput(),
                defended.slo.goodput()
            );
        }
    }
}
