//! Golden test for the gray-failure sweep: `repro stragglers --smoke
//! --json` must reproduce its pinned record byte for byte.
//!
//! `golden/stragglers_smoke.json` pins the record's bytes as `repro`
//! printed them on x86_64 Linux. Since the traffic generator calls `ln`
//! and `powf`, the fixture also pins that platform's libm. Regenerate
//! it, only for a deliberate change of the record, with
//! `cargo run --release --offline -p earth-bench --bin repro -- --json stragglers --smoke > crates/bench/tests/golden/stragglers_smoke.json`.

use earth_bench::stragglers_smoke;

#[test]
fn stragglers_json_matches_its_pinned_bytes() {
    let golden = include_str!("golden/stragglers_smoke.json");
    assert_eq!(stragglers_smoke().to_json(), golden.trim_end());
}
