//! Golden determinism tests for the overload-control sweep: the JSON
//! record must be byte-identical across invocations, carry every
//! schema landmark plots depend on, and a fully-defended run (deadline
//! shedding, retries, circuit breaker, all scheduling extra events)
//! must stay byte-identical across the two event-queue implementations.
//!
//! `golden/overload_smoke.json` pins the record's bytes as `repro`
//! printed them on x86_64 Linux. Since the traffic generator calls `ln`
//! and `powf`, the fixture also pins that platform's libm. Regenerate
//! it, only for a deliberate change of the record, with
//! `cargo run --release --offline -p earth-bench --bin repro -- --json overload --smoke > crates/bench/tests/golden/overload_smoke.json`.

use earth_bench::overload_smoke;
use earth_machine::{MachineConfig, QueueKind};
use earth_traffic::{run_traffic_on, TrafficPlan};

/// The record's pinned bytes (plus the trailing newline `repro` prints).
const GOLDEN: &str = include_str!("golden/overload_smoke.json");

#[test]
fn overload_json_is_byte_identical_across_invocations() {
    let a = overload_smoke().to_json();
    let b = overload_smoke().to_json();
    assert_eq!(
        a,
        GOLDEN.trim_end(),
        "overload sweep moved off its pinned bytes"
    );
    assert_eq!(a, b, "overload sweep must be deterministic");
    assert!(a.starts_with("{\"experiment\":\"overload\""));
    assert!(a.ends_with('}'));
    for needle in [
        "\"jobs\":48",
        "\"nodes\":8",
        "\"loads_per_sec\":[2000.000000,32000.000000]",
        "\"variant\":\"naive\"",
        "\"variant\":\"defended\"",
        "\"variant\":\"defended_lossy\"",
        "\"variant\":\"defended_crashed\"",
        "\"goodput\":",
        "\"attained\":",
        "\"rejected\":",
        "\"expired\":",
        "\"retries\":",
        "\"queue_rejections\":",
        "\"breaker_rejections\":",
        "\"breaker_opens\":",
        "\"sheds\":",
        "\"peak_waiting\":",
        "\"p99_us\":",
        "\"makespan_us\":",
    ] {
        assert!(a.contains(needle), "missing {needle} in:\n{a}");
    }
}

#[test]
fn defended_runs_are_byte_identical_across_queue_kinds() {
    let plan = TrafficPlan::new(1997)
        .with_jobs(48)
        .with_offered_load(32_000.0)
        .with_deadlines(1_500, 5_000)
        .with_queue_cap(16)
        .with_retries(3, 200, 1_600)
        .with_deadline_shedding()
        .with_breaker(8, 5, 400);
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
    let t = heap.report.traffic.as_ref().unwrap();
    assert!(t.had_overload(), "the defended plan never had to act");
}
