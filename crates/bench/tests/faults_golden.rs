//! Golden determinism test for the fault-plane degradation sweep: the
//! same seeded plan must serialise to byte-identical JSON on every
//! invocation, so `repro faults --json` is a diffable artifact.
//!
//! `golden/faults.json` pins the record's bytes as `repro` printed them
//! on x86_64 Linux. Regenerate it, only for a deliberate change of the
//! record, with
//! `cargo run --release --offline -p earth-bench --bin repro -- --json faults > crates/bench/tests/golden/faults.json`.

use earth_bench::experiments::faults_table;

/// The record's pinned bytes (plus the trailing newline `repro` prints).
const GOLDEN: &str = include_str!("golden/faults.json");

#[test]
fn faults_json_is_byte_identical_across_invocations() {
    let a = faults_table().to_json();
    let b = faults_table().to_json();
    assert_eq!(
        a,
        GOLDEN.trim_end(),
        "faults sweep moved off its pinned bytes"
    );
    assert_eq!(a, b, "degradation sweep must be deterministic");
    assert!(a.starts_with("{\"experiment\":\"faults\""));
    assert!(a.ends_with('}'));
    for needle in [
        "\"seed\":42",
        "\"nodes\":[4,8,20]",
        "\"drops\":[0.002000,0.010000,0.050000]",
        "\"baseline_us\":[",
        "\"retransmits\":",
        "\"dropped\":",
        "\"duplicated\":",
        "\"slowdown\":",
    ] {
        assert!(a.contains(needle), "missing {needle} in:\n{a}");
    }
}

#[test]
fn faults_render_shows_every_grid_point() {
    let t = faults_table();
    let s = t.render();
    // 3 baseline rows + 3x3 degraded rows, every drop rate present.
    for needle in ["  drop%", "0.2", "1.0", "5.0", "retransmits"] {
        assert!(s.contains(needle), "missing {needle} in:\n{s}");
    }
    assert_eq!(s.lines().count(), 2 + 3 + 9);
    // degradation is real: the lossiest cell retransmits the most
    let first = &t.cells[0][0];
    let worst = &t.cells[t.drops.len() - 1][t.nodes.len() - 1];
    assert!(worst.retransmits > first.retransmits);
    assert!(worst.retransmits > 0);
}
