//! Queue-equivalence acceptance tests: every application must produce a
//! byte-identical `RunReport` whether the scheduler runs on the ladder
//! queue or on the reference binary heap. The event core is the one
//! component every feature sits on, so these run the full stack —
//! including the fault plane and crash windows — under both
//! [`QueueKind`]s and diff the complete debug rendering of the reports
//! (every counter, every per-node stat, every mark).

use earth_manna::algebra::buchberger::SelectionStrategy;
use earth_manna::algebra::inputs::katsura;
use earth_manna::apps::eigen::{run_eigen_on, FetchMode};
use earth_manna::apps::groebner::{groebner_machine, run_groebner_on};
use earth_manna::apps::neural::{run_neural_on, CommsShape, PassMode};
use earth_manna::linalg::SymTridiagonal;
use earth_manna::machine::{FaultPlan, MachineConfig, QueueKind};
use earth_manna::sim::VirtualTime;

/// Two configurations that differ only in the event-queue implementation.
fn cfg_pair(nodes: u16) -> (MachineConfig, MachineConfig) {
    (
        MachineConfig::manna(nodes).with_queue(QueueKind::Heap),
        MachineConfig::manna(nodes).with_queue(QueueKind::Ladder),
    )
}

/// A seeded lossy plan that reliably fires at these workload sizes.
fn lossy() -> FaultPlan {
    FaultPlan::new().with_drop(0.01).with_duplicate(0.005)
}

#[test]
fn eigen_reports_identical_across_queue_kinds() {
    let m = SymTridiagonal::random_clustered(40, 3, 7);
    let (heap_cfg, ladder_cfg) = cfg_pair(20);
    let heap = run_eigen_on(&m, 1e-6, heap_cfg, 42, FetchMode::Block);
    let ladder = run_eigen_on(&m, 1e-6, ladder_cfg, 42, FetchMode::Block);
    assert_eq!(heap.eigenvalues, ladder.eigenvalues);
    assert_eq!(
        format!("{:?}", heap.report),
        format!("{:?}", ladder.report),
        "ladder queue must replay the heap schedule byte-for-byte"
    );
}

#[test]
fn eigen_reports_identical_across_queue_kinds_under_faults() {
    let m = SymTridiagonal::random_clustered(40, 3, 7);
    let (heap_cfg, ladder_cfg) = cfg_pair(20);
    let heap = run_eigen_on(
        &m,
        1e-6,
        heap_cfg.with_faults(lossy()),
        42,
        FetchMode::Individual,
    );
    let ladder = run_eigen_on(
        &m,
        1e-6,
        ladder_cfg.with_faults(lossy()),
        42,
        FetchMode::Individual,
    );
    assert!(
        heap.report.net_dropped > 0,
        "plan never fired; equivalence run is vacuous"
    );
    assert_eq!(format!("{:?}", heap.report), format!("{:?}", ladder.report));
}

#[test]
fn eigen_reports_identical_across_queue_kinds_with_crash() {
    let m = SymTridiagonal::random_clustered(40, 3, 7);
    // Failover crash: heartbeats, detection, recovery replay — the
    // densest event traffic the runtime generates.
    let plan = FaultPlan::new().with_node_crash(3, VirtualTime::from_ns(400_000_000));
    let (heap_cfg, ladder_cfg) = cfg_pair(20);
    let heap = run_eigen_on(
        &m,
        1e-6,
        heap_cfg.with_faults(plan.clone()),
        42,
        FetchMode::Block,
    );
    let ladder = run_eigen_on(&m, 1e-6, ladder_cfg.with_faults(plan), 42, FetchMode::Block);
    assert_eq!(heap.report.total_crashes(), 1, "the crash never fired");
    assert_eq!(format!("{:?}", heap.report), format!("{:?}", ladder.report));
}

#[test]
fn groebner_reports_identical_across_queue_kinds() {
    let (ring, input) = katsura(3);
    for plan in [None, Some(lossy())] {
        let run = |kind| {
            let mut cfg = groebner_machine(20).with_queue(kind);
            if let Some(p) = &plan {
                cfg = cfg.with_faults(p.clone());
            }
            run_groebner_on(&ring, &input, cfg, 1, SelectionStrategy::Sugar)
        };
        let heap = run(QueueKind::Heap);
        let ladder = run(QueueKind::Ladder);
        assert_eq!(heap.basis, ladder.basis);
        assert_eq!(
            format!("{:?}", heap.report),
            format!("{:?}", ladder.report),
            "plan {:?} diverged across queue kinds",
            plan.is_some()
        );
    }
}

#[test]
fn neural_reports_identical_across_queue_kinds() {
    for shape in [CommsShape::Sequential, CommsShape::Tree] {
        let (heap_cfg, ladder_cfg) = cfg_pair(20);
        let heap = run_neural_on(
            heap_cfg.with_faults(lossy()),
            24,
            24,
            24,
            2,
            21,
            PassMode::ForwardBackward,
            shape,
        );
        let ladder = run_neural_on(
            ladder_cfg.with_faults(lossy()),
            24,
            24,
            24,
            2,
            21,
            PassMode::ForwardBackward,
            shape,
        );
        assert_eq!(heap.outputs, ladder.outputs);
        assert_eq!(format!("{:?}", heap.report), format!("{:?}", ladder.report));
    }
}

/// Manual throughput probe (not a correctness test): prints wall time
/// per queue kind so the ladder's contribution can be isolated from the
/// pooling work inside one binary. Run with
/// `cargo test --release --test ladder_apps -- --ignored --nocapture`.
#[test]
#[ignore]
fn queue_throughput_probe() {
    let m = SymTridiagonal::random_clustered(240, 6, 1997);
    let (ring, input) = earth_manna::algebra::inputs::katsura(4);
    for kind in [QueueKind::Heap, QueueKind::Ladder] {
        let reps = 5;
        let mut eigen_best = f64::INFINITY;
        let mut grob_best = f64::INFINITY;
        for _ in 0..reps {
            let cfg = MachineConfig::manna(20).with_queue(kind);
            let t = std::time::Instant::now();
            let r = run_eigen_on(&m, 1e-6, cfg, 42, FetchMode::Block);
            eigen_best = eigen_best.min(t.elapsed().as_secs_f64() * 1e3);
            assert!(r.report.events > 0);
            let t = std::time::Instant::now();
            let cfg = groebner_machine(20).with_queue(kind);
            let g = run_groebner_on(&ring, &input, cfg, 1, SelectionStrategy::Sugar);
            grob_best = grob_best.min(t.elapsed().as_secs_f64() * 1e3);
            assert!(g.report.events > 0);
        }
        println!("{kind:?}: eigen {eigen_best:.3} ms, groebner {grob_best:.3} ms (best of {reps})");
    }
}

#[test]
fn peak_queue_depth_is_populated_and_queue_invariant() {
    let m = SymTridiagonal::random_clustered(40, 3, 7);
    let (heap_cfg, ladder_cfg) = cfg_pair(20);
    let heap = run_eigen_on(&m, 1e-6, heap_cfg, 42, FetchMode::Block);
    let ladder = run_eigen_on(&m, 1e-6, ladder_cfg, 42, FetchMode::Block);
    assert!(heap.report.peak_queue_depth > 0, "depth never observed");
    assert_eq!(heap.report.peak_queue_depth, ladder.report.peak_queue_depth);
    // The depth is an observation, not part of the stable textual report.
    assert!(!format!("{}", heap.report).contains("peak"));
}
