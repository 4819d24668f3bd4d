//! Golden determinism tests for the overload-control sweep: the JSON
//! record must be byte-identical across invocations and carry every
//! schema landmark plots depend on.
//!
//! `golden/overload_smoke.json` pins the record's bytes as `repro`
//! printed them on x86_64 Linux. Since the traffic generator calls `ln`
//! and `powf`, the fixture also pins that platform's libm. Regenerate
//! it, only for a deliberate change of the record, with
//! `cargo run --release --offline -p earth-bench --bin repro -- --json overload --smoke > crates/bench/tests/golden/overload_smoke.json`.

use earth_bench::overload_smoke;

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
