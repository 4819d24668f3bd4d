//! Golden determinism test for the topology scale sweep, plus the
//! provably-free check: selecting the crossbar explicitly must leave
//! every application's run report byte-identical to the default path,
//! so the topology plumbing costs nothing unless a non-default
//! interconnect is asked for.
//!
//! `golden/scale_smoke.json` pins the record's bytes as `repro` printed
//! them on x86_64 Linux. Since the neural app's sigmoid calls `exp`,
//! the fixture also pins that platform's libm. Regenerate it, only for
//! a deliberate change of the record, with
//! `cargo run --release --offline -p earth-bench --bin repro -- --json scale --smoke > crates/bench/tests/golden/scale_smoke.json`.

use earth_algebra::buchberger::SelectionStrategy;
use earth_algebra::inputs::katsura;
use earth_apps::eigen::{run_eigen, run_eigen_on, FetchMode};
use earth_apps::groebner::{groebner_machine, run_groebner, run_groebner_on};
use earth_apps::neural::{run_neural, run_neural_on, CommsShape, PassMode};
use earth_bench::experiments::{scale_smoke, scale_topologies};
use earth_linalg::SymTridiagonal;
use earth_machine::{MachineConfig, TopologyKind};

/// The record's pinned bytes (plus the trailing newline `repro` prints).
const GOLDEN: &str = include_str!("golden/scale_smoke.json");

#[test]
fn scale_json_is_byte_identical_across_invocations() {
    let a = scale_smoke().to_json();
    let b = scale_smoke().to_json();
    assert_eq!(
        a,
        GOLDEN.trim_end(),
        "scale sweep moved off its pinned bytes"
    );
    assert_eq!(a, b, "scale sweep must be deterministic");
    assert!(a.starts_with("{\"experiment\":\"scale\""));
    assert!(a.ends_with('}'));
    for needle in [
        "\"nodes\":[20,64,256]",
        "\"apps\":[\"eigen\",\"groebner\",\"neural\"]",
        "\"topologies\":[\"crossbar\",\"hypercube\",\"torus3d\",\"fattree\"]",
        "\"baseline_us\":[",
        "\"topology\":\"fattree\"",
        "\"elapsed_us\":[",
        "\"speedup\":[",
    ] {
        assert!(a.contains(needle), "missing {needle} in:\n{a}");
    }
}

#[test]
fn scale_render_covers_every_app_and_topology() {
    let t = scale_smoke();
    assert_eq!(t.curves.len(), t.apps.len() * scale_topologies().len());
    let s = t.render();
    for needle in ["eigen", "groebner", "neural", "crossbar", "fattree"] {
        assert!(s.contains(needle), "missing {needle} in:\n{s}");
    }
    // Every curve shows real parallel speedup at its best point.
    for c in &t.curves {
        let best = c.speedups.iter().cloned().fold(0.0, f64::max);
        assert!(best > 2.0, "{}/{} best speedup {best}", c.app, c.topology);
    }
}

#[test]
fn explicit_crossbar_is_provably_free_for_every_app() {
    // 33 nodes: an uneven cluster split, so inter-cluster hops are hit.
    let n = 33;
    let m = SymTridiagonal::random_clustered(40, 2, 5);
    let base = run_eigen(&m, 1e-6, n, 42, FetchMode::Block);
    let cfg = MachineConfig::manna(n).with_topology(TopologyKind::Crossbar);
    let explicit = run_eigen_on(&m, 1e-6, cfg, 42, FetchMode::Block);
    assert_eq!(base.eigenvalues, explicit.eigenvalues);
    assert_eq!(base.elapsed, explicit.elapsed);
    assert_eq!(
        format!("{:?}", base.report),
        format!("{:?}", explicit.report)
    );

    let (ring, input) = katsura(3);
    let gbase = run_groebner(&ring, &input, n, 1, SelectionStrategy::Sugar, None);
    let gcfg = groebner_machine(n).with_topology(TopologyKind::Crossbar);
    let gexp = run_groebner_on(&ring, &input, gcfg, 1, SelectionStrategy::Sugar);
    assert_eq!(gbase.basis, gexp.basis);
    assert_eq!(gbase.elapsed, gexp.elapsed);
    assert_eq!(format!("{:?}", gbase.report), format!("{:?}", gexp.report));

    let nbase = run_neural(24, n, 1, 7, PassMode::Forward, CommsShape::Tree);
    let ncfg = MachineConfig::manna(n).with_topology(TopologyKind::Crossbar);
    let nexp = run_neural_on(ncfg, 24, 24, 24, 1, 7, PassMode::Forward, CommsShape::Tree);
    assert_eq!(nbase.outputs, nexp.outputs);
    assert_eq!(nbase.elapsed, nexp.elapsed);
    assert_eq!(format!("{:?}", nbase.report), format!("{:?}", nexp.report));
}
