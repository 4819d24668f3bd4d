//! Golden determinism test for the availability sweep: the same seeded
//! crash plans must serialise to byte-identical JSON on every
//! invocation, so `repro crashes --json` is a diffable artifact.
//!
//! `golden/crashes.json` pins the record's bytes as `repro` printed
//! them on x86_64 Linux. Regenerate it, only for a deliberate change of
//! the record, with
//! `cargo run --release --offline -p earth-bench --bin repro -- --json crashes > crates/bench/tests/golden/crashes.json`.

use earth_bench::experiments::crashes_table;

/// The record's pinned bytes (plus the trailing newline `repro` prints).
const GOLDEN: &str = include_str!("golden/crashes.json");

#[test]
fn crashes_json_is_byte_identical_across_invocations() {
    let a = crashes_table().to_json();
    let b = crashes_table().to_json();
    assert_eq!(
        a,
        GOLDEN.trim_end(),
        "crashes sweep moved off its pinned bytes"
    );
    assert_eq!(a, b, "availability sweep must be deterministic");
    assert!(a.starts_with("{\"experiment\":\"crashes\""));
    assert!(a.ends_with('}'));
    for needle in [
        "\"seed\":42",
        "\"nodes\":20",
        "\"crash_node\":3",
        "\"baseline_us\":",
        "\"crash_frac\":\"1/4\"",
        "\"crash_frac\":\"1/2\"",
        "\"crash_frac\":\"3/4\"",
        "\"ckpt_us\":1000",
        "\"ckpt_us\":2000",
        "\"ckpt_us\":5000",
        "\"checkpoints\":",
        "\"heartbeats\":",
        "\"rehomed\":",
        "\"downtime_us\":",
        "\"slowdown\":",
    ] {
        assert!(a.contains(needle), "missing {needle} in:\n{a}");
    }
}

#[test]
fn crashes_render_shows_every_grid_point() {
    let t = crashes_table();
    let s = t.render();
    // header + baseline line + column line + 3x3 grid rows
    for needle in ["crash@", "ckpt-ms", "1/4", "1/2", "3/4", "downtime"] {
        assert!(s.contains(needle), "missing {needle} in:\n{s}");
    }
    assert_eq!(s.lines().count(), 3 + 9);
    // Surviving the crash is never free, and the sweep really crashed:
    // every cell slowed down, re-homed work, and paid the detector.
    for row in &t.cells {
        for c in row {
            assert!(c.slowdown > 1.0, "a crash must cost virtual time");
            assert!(c.heartbeats > 0);
            assert!(c.downtime > earth_sim::VirtualDuration::ZERO);
        }
    }
    // Denser checkpoints mean more captures, column by column.
    for row in &t.cells {
        assert!(row[0].checkpoints > row[1].checkpoints);
        assert!(row[1].checkpoints > row[2].checkpoints);
    }
}
