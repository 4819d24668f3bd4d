//! Golden determinism tests for the traffic-plane sweep: the JSON
//! record must be byte-identical across invocations, carry every
//! schema landmark plots depend on, and the underlying runs must be
//! byte-identical across the two event-queue implementations — the
//! admission front-end lives on the scheduler's critical path, so a
//! queue-kind divergence would surface here first.
//!
//! `golden/traffic_smoke.json` pins the record's bytes as `repro`
//! printed them on x86_64 Linux. Since the traffic generator calls `ln`
//! and `powf`, the fixture also pins that platform's libm. Regenerate
//! it, only for a deliberate change of the record, with
//! `cargo run --release --offline -p earth-bench --bin repro -- --json traffic --smoke > crates/bench/tests/golden/traffic_smoke.json`.

use earth_bench::traffic_smoke;
use earth_machine::{MachineConfig, QueueKind};
use earth_traffic::{run_traffic_on, TrafficPlan};

/// The record's pinned bytes (plus the trailing newline `repro` prints).
const GOLDEN: &str = include_str!("golden/traffic_smoke.json");

#[test]
fn traffic_json_is_byte_identical_across_invocations() {
    let a = traffic_smoke().to_json();
    let b = traffic_smoke().to_json();
    assert_eq!(
        a,
        GOLDEN.trim_end(),
        "traffic sweep moved off its pinned bytes"
    );
    assert_eq!(a, b, "traffic sweep must be deterministic");
    assert!(a.starts_with("{\"experiment\":\"traffic\""));
    assert!(a.ends_with('}'));
    for needle in [
        "\"jobs\":32",
        "\"loads_per_sec\":[1000.000000,4000.000000]",
        "\"nodes\":[8]",
        "\"variant\":\"clean\"",
        "\"variant\":\"lossy\"",
        "\"variant\":\"crashed\"",
        "\"sojourn_us\":{\"n\":32,",
        "\"p50\":",
        "\"p95\":",
        "\"p99\":",
        "\"name\":\"eigen\"",
        "\"name\":\"groebner\"",
        "\"name\":\"neural\"",
        "\"name\":\"search\"",
        "\"p99_us\":",
        "\"makespan_us\":",
        "\"completed\":32",
    ] {
        assert!(a.contains(needle), "missing {needle} in:\n{a}");
    }
}

#[test]
fn traffic_runs_are_byte_identical_across_queue_kinds() {
    let plan = TrafficPlan::new(1997)
        .with_jobs(32)
        .with_offered_load(4_000.0);
    let heap = run_traffic_on(
        &plan,
        MachineConfig::manna(8).with_queue(QueueKind::Heap),
        42,
    );
    let ladder = run_traffic_on(
        &plan,
        MachineConfig::manna(8).with_queue(QueueKind::Ladder),
        42,
    );
    assert_eq!(
        heap.report.traffic, ladder.report.traffic,
        "job records diverged between event-queue implementations"
    );
    assert_eq!(
        format!("{:?}", heap.report),
        format!("{:?}", ladder.report),
        "full run reports diverged between event-queue implementations"
    );
}
