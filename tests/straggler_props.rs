//! Property tests for the gray-failure plane: replay determinism,
//! trivial-plan normalization ("disabled == absent", byte-for-byte) and
//! hedging dedup safety under real loss, over randomized plans from the
//! testkit's `slow_plan` generator. Plus the separation regression: a
//! slow but alive node is quarantined, never failover-restarted.

use earth_manna::machine::{FaultPlan, MachineConfig};
use earth_manna::sim::{VirtualDuration, VirtualTime};
use earth_manna::traffic::{run_traffic_on, TrafficPlan};
use earth_testkit::domain::{slow_plan, traffic_plan};
use earth_testkit::prelude::*;

props! {
    #![config(Config::with_cases(10))]

    /// Same gray-failure plan + same runtime seed → byte-identical run,
    /// down to the per-node hedge / quarantine / speculation counters.
    #[test]
    fn straggler_replay_is_byte_identical(
        faults in slow_plan(8),
        plan in traffic_plan(10),
        seed in any::<u64>(),
    ) {
        let cfg = MachineConfig::manna(8).with_faults(faults);
        let a = run_traffic_on(&plan, cfg.clone(), seed);
        let b = run_traffic_on(&plan, cfg, seed);
        prop_assert_eq!(a.report.traffic.as_ref(), b.report.traffic.as_ref());
        prop_assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    }

    /// An all-defaults `FaultPlan` is trivial and must normalize to "no
    /// fault plane at all": the run — reliability envelopes, detector,
    /// counters, everything — is byte-identical to a plain run. This is
    /// the "provably free when disabled" guarantee extended to the
    /// straggler knobs.
    #[test]
    fn trivial_plan_is_byte_identical_to_no_plane(
        plan in traffic_plan(10),
        nodes in 2u16..9,
        seed in any::<u64>(),
    ) {
        let bare = run_traffic_on(&plan, MachineConfig::manna(nodes), seed);
        let defaulted = run_traffic_on(
            &plan,
            MachineConfig::manna(nodes).with_faults(FaultPlan::new()),
            seed,
        );
        prop_assert_eq!(
            format!("{:?}", bare.report),
            format!("{:?}", defaulted.report),
            "an all-defaults plan leaked into the run"
        );
    }

    /// Hedged retransmits are a *bet*, never a correctness lever: with
    /// an aggressive hedge point and real loss + duplication underneath,
    /// receiver-side dedup still delivers every job exactly once and the
    /// stream drains completely.
    #[test]
    fn hedging_dedup_is_safe_under_loss(
        faults in slow_plan(8),
        plan in traffic_plan(8),
        seed in any::<u64>(),
        drop in 0.01f64..0.10,
        dup in 0.01f64..0.08,
    ) {
        // Force the hedge point below the expected round trip (the RTO
        // floor still applies) so hedges actually fire alongside the
        // injected duplicates, then let loss stress the dedup watermark.
        let faults = faults
            .with_slow_detector(3.0, 3)
            .with_hedging(0.5)
            .with_drop(drop)
            .with_duplicate(dup)
            .with_rto(VirtualDuration::from_us(100));
        let run = run_traffic_on(&plan, MachineConfig::manna(8).with_faults(faults), seed);
        let t = run.report.traffic.as_ref().expect("non-trivial plan");
        prop_assert!(t.is_conserved());
        prop_assert_eq!(t.completed, t.arrived, "a job was lost or doubled");
        prop_assert_eq!(t.in_flight(), 0);
    }
}

/// The Suspected-Slow / Suspected-Dead separation, as a regression
/// test: one node fail-stops (arming heartbeats, suspicion, and
/// failover restart) while another runs 8× slow with the detector and
/// quarantine live. The slow node keeps acking, so it must end the run
/// quarantined — and with zero recoveries: only the crashed node is
/// ever failover-restarted.
#[test]
fn a_slow_but_alive_node_is_never_failover_restarted() {
    let nodes = 8u16;
    let crashed = 1usize;
    let slow = 5usize;
    let faults = FaultPlan::new()
        .with_node_crash(crashed as u16, VirtualTime::from_ns(400_000))
        .with_node_slowdown(
            slow as u16,
            VirtualTime::from_ns(50_000),
            VirtualTime::from_ns(1_000_000_000),
            8.0,
        )
        .with_slow_detector(3.0, 3)
        .with_quarantine(VirtualDuration::from_us(20_000))
        .with_speculative_rehoming();
    let plan = TrafficPlan::new(1997)
        .with_jobs(48)
        .with_offered_load(2_000.0);
    let run = run_traffic_on(&plan, MachineConfig::manna(nodes).with_faults(faults), 42);
    let t = run.report.traffic.as_ref().expect("non-trivial plan");
    assert_eq!(t.completed, t.arrived, "stream must still drain");
    assert!(
        run.report.nodes[crashed].recoveries >= 1,
        "the fail-stop node must be failover-restarted: {:?}",
        run.report.nodes[crashed]
    );
    assert_eq!(
        run.report.nodes[slow].recoveries, 0,
        "a slow-but-alive node must never be failover-restarted"
    );
    assert!(
        run.report.nodes[slow].quarantines >= 1,
        "the straggler should have been quarantined instead"
    );
    for (i, n) in run.report.nodes.iter().enumerate() {
        if i != crashed {
            assert_eq!(n.recoveries, 0, "node {i} was restarted spuriously");
        }
    }
}

/// Sanity twin for the regression above: the same slowdown *without* a
/// concurrent crash also produces quarantine, no recoveries anywhere —
/// the detector never escalates slowness to death even when heartbeats
/// are idle.
#[test]
fn slowness_alone_never_triggers_recovery() {
    let faults = FaultPlan::new()
        .with_node_slowdown(
            4,
            VirtualTime::from_ns(50_000),
            VirtualTime::from_ns(1_000_000_000),
            8.0,
        )
        .with_slow_detector(3.0, 3)
        .with_quarantine(VirtualDuration::from_us(20_000));
    let plan = TrafficPlan::new(1997)
        .with_jobs(48)
        .with_offered_load(2_000.0);
    let run = run_traffic_on(&plan, MachineConfig::manna(8).with_faults(faults), 42);
    assert_eq!(
        run.report.nodes.iter().map(|n| n.recoveries).sum::<u64>(),
        0,
        "no crash plan, so no recovery may ever run"
    );
    assert!(
        run.report.nodes[4].quarantines >= 1,
        "the straggler was never caught"
    );
}
