//! Straggler smoke: run a deadlined job stream over a machine with a
//! stripe of fail-slow nodes — once defenseless, once with the full
//! straggler plane (latency-outlier detection, hedged retransmits,
//! quarantine-aware placement, speculative re-homing) — and panic
//! unless the defenses strictly win goodput, actually detect the
//! stragglers, and replay byte-identically.
//!
//! ```text
//! cargo run --example straggler_smoke
//! ```
//!
//! This is a fast end-to-end proof of the gray-failure plane: the slow
//! nodes stay alive and ack everything, so the crash detector never
//! fires — yet the outlier detector spots their inflated ack round
//! trips, quarantines them off the steal and home-routing paths,
//! evacuates their queued tokens, and goodput holds.

use earth_manna::machine::{FaultPlan, MachineConfig};
use earth_manna::sim::{VirtualDuration, VirtualTime};
use earth_manna::traffic::{run_traffic_on, TrafficPlan, TrafficRun};

const NODES: u16 = 8;
const SEED: u64 = 42;
const FACTOR: f64 = 8.0;

/// The victim stripe: nodes 4 and 5 of 8, slowed for the whole run.
const VICTIMS: [u16; 2] = [4, 5];

fn stream() -> TrafficPlan {
    TrafficPlan::new(1997)
        .with_jobs(48)
        .with_offered_load(2_000.0)
        .with_deadlines(3_500, 12_000)
}

fn injection() -> FaultPlan {
    VICTIMS.iter().fold(FaultPlan::new(), |p, &v| {
        p.with_node_slowdown(
            v,
            VirtualTime::from_ns(50_000),
            VirtualTime::from_ns(1_000_000_000),
            FACTOR,
        )
    })
}

/// The stream on a `NODES`-node MANNA under `faults`.
fn run(faults: FaultPlan) -> TrafficRun {
    run_traffic_on(
        &stream(),
        MachineConfig::manna(NODES).with_faults(faults),
        SEED,
    )
}

fn main() {
    println!(
        "straggler smoke: 48 jobs at 2000/s on {NODES} nodes, \
         nodes {VICTIMS:?} running {FACTOR}x slow"
    );

    let naive = run(injection());
    let defended_plan = injection()
        .with_slow_detector(3.0, 3)
        .with_hedging(6.0)
        .with_quarantine(VirtualDuration::from_us(20_000))
        .with_speculative_rehoming();
    let defended = run(defended_plan.clone());

    for (label, run) in [("naive", &naive), ("defended", &defended)] {
        let t = run.traffic();
        assert_eq!(t.completed, t.arrived, "{label}: stream did not drain");
        assert!(t.is_conserved(), "{label}: job accounting leak");
        let slo = t.slo(None, None);
        let r = &run.report;
        println!(
            "  {label:>8}: goodput {:>5.1}%  hedges {}/{}  quarantines {}  \
             speculated {}  makespan {}",
            slo.goodput() * 100.0,
            r.total_hedges_won(),
            r.total_hedges_sent(),
            r.total_quarantines(),
            r.total_speculated(),
            r.elapsed,
        );
    }

    let nr = &naive.report;
    assert_eq!(nr.total_hedges_sent(), 0, "naive run must never hedge");
    assert_eq!(nr.total_quarantines(), 0, "naive run has no detector");
    let dr = &defended.report;
    assert!(dr.total_quarantines() > 0, "the stripe was never caught");
    assert!(dr.total_speculated() > 0, "no tokens were evacuated");
    for &v in &VICTIMS {
        assert_eq!(
            dr.nodes[v as usize].recoveries, 0,
            "a slow-but-alive node was failover-restarted"
        );
    }

    let n_good = naive.traffic().slo(None, None).goodput();
    let d_good = defended.traffic().slo(None, None).goodput();
    assert!(
        d_good > n_good,
        "defenses must win goodput under gray failure: {d_good:.2} vs {n_good:.2}"
    );

    // Replay determinism, hedges and quarantine probes included.
    let again = run(defended_plan);
    assert_eq!(
        defended.report.traffic, again.report.traffic,
        "replay diverged"
    );

    println!("straggler smoke: OK");
}
