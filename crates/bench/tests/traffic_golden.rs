//! Golden determinism tests for the traffic-plane sweep: the JSON
//! record must be byte-identical across invocations and carry every
//! schema landmark plots depend on.
//!
//! `golden/traffic_smoke.json` pins the record's bytes as `repro`
//! printed them on x86_64 Linux. Since the traffic generator calls `ln`
//! and `powf`, the fixture also pins that platform's libm. Regenerate
//! it, only for a deliberate change of the record, with
//! `cargo run --release --offline -p earth-bench --bin repro -- --json traffic --smoke > crates/bench/tests/golden/traffic_smoke.json`.

use earth_bench::traffic_smoke;

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
