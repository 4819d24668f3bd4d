//! Chaos smoke: crash one node mid-run in each paper application —
//! once with a scheduled restart, once leaving the failure detector to
//! drive the failover — and panic unless every result comes back
//! bit-identical to the fault-free golden run.
//!
//! ```text
//! cargo run --example chaos_smoke
//! ```
//!
//! This is the `scripts/ci.sh` chaos stage: a fast end-to-end proof
//! that the checkpoint/recovery plane degrades virtual time only,
//! never the mathematics. Termination is enforced, not assumed: every
//! run executes under the runtime's event bound
//! ([`earth_manna::rt::runtime::DEFAULT_MAX_EVENTS`], the
//! `set_max_events` default), so a livelocked recovery panics this
//! smoke instead of hanging CI.

use earth_manna::algebra::buchberger::{reduce_basis, SelectionStrategy};
use earth_manna::algebra::inputs::katsura;
use earth_manna::apps::eigen::{run_eigen, run_eigen_on, FetchMode};
use earth_manna::apps::groebner::{groebner_machine, run_groebner, run_groebner_on};
use earth_manna::apps::neural::{run_neural, run_neural_on, CommsShape, PassMode};
use earth_manna::linalg::SymTridiagonal;
use earth_manna::machine::{FaultPlan, MachineConfig};
use earth_manna::rt::RunReport;
use earth_manna::sim::{VirtualDuration, VirtualTime};

const NODES: u16 = 20;

fn banner(app: &str, mode: &str, clean: &RunReport, crashed: &RunReport) {
    assert_eq!(crashed.total_crashes(), 1, "{app}: the crash never fired");
    assert_eq!(
        crashed.total_recoveries(),
        1,
        "{app}: the crash never recovered"
    );
    assert!(crashed.is_clean(), "{app}: work leaked: {crashed}");
    println!(
        "  {app:<8} {mode:<9} clean {:>10}  crashed {:>10}  ({} checkpoints, {} heartbeats, downtime {})",
        format!("{}", clean.elapsed),
        format!("{}", crashed.elapsed),
        crashed.total_checkpoints(),
        crashed.total_heartbeats(),
        crashed.total_downtime()
    );
}

fn main() {
    println!("chaos smoke: one node crash-stopped mid-run, {NODES} nodes\n");

    // Eigenvalue bisection — detector-driven failover.
    let m = SymTridiagonal::random_clustered(40, 3, 7);
    let clean = run_eigen(&m, 1e-6, NODES, 42, FetchMode::Block);
    let half = VirtualTime::ZERO + clean.report.elapsed / 2;
    let cfg = MachineConfig::manna(NODES).with_faults(FaultPlan::new().with_node_crash(3, half));
    let crashed = run_eigen_on(&m, 1e-6, cfg, 42, FetchMode::Block);
    assert_eq!(
        clean.eigenvalues, crashed.eigenvalues,
        "eigen: failover changed the eigenvalues"
    );
    banner("eigen", "failover", &clean.report, &crashed.report);

    // Eigenvalue bisection — scheduled crash + restart.
    let up = half + VirtualDuration::from_us(3_000);
    let crash = FaultPlan::new().with_crash_restart(3, half, up);
    let cfg = MachineConfig::manna(NODES).with_faults(crash);
    let restarted = run_eigen_on(&m, 1e-6, cfg, 42, FetchMode::Block);
    assert_eq!(
        clean.eigenvalues, restarted.eigenvalues,
        "eigen: restart changed the eigenvalues"
    );
    banner("eigen", "restart", &clean.report, &restarted.report);

    // Groebner completion — detector-driven failover.
    let (ring, input) = katsura(3);
    let clean = run_groebner(&ring, &input, NODES, 1, SelectionStrategy::Sugar, None);
    let half = VirtualTime::ZERO + clean.report.elapsed / 2;
    let cfg = groebner_machine(NODES).with_faults(FaultPlan::new().with_node_crash(5, half));
    let crashed = run_groebner_on(&ring, &input, cfg, 1, SelectionStrategy::Sugar);
    assert_eq!(
        reduce_basis(&ring, &clean.basis),
        reduce_basis(&ring, &crashed.basis),
        "groebner: failover changed the reduced basis"
    );
    banner("groebner", "failover", &clean.report, &crashed.report);

    // Neural network — scheduled crash + restart.
    let clean = run_neural(
        24,
        NODES,
        2,
        21,
        PassMode::ForwardBackward,
        CommsShape::Tree,
    );
    let half = VirtualTime::ZERO + clean.report.elapsed / 2;
    let up = half + VirtualDuration::from_us(2_000);
    let crash = FaultPlan::new().with_crash_restart(7, half, up);
    let crashed = run_neural_on(
        MachineConfig::manna(NODES).with_faults(crash),
        24,
        24,
        24,
        2,
        21,
        PassMode::ForwardBackward,
        CommsShape::Tree,
    );
    assert_eq!(
        clean.outputs, crashed.outputs,
        "neural: restart changed the outputs"
    );
    banner("neural", "restart", &clean.report, &crashed.report);

    println!("\nchaos smoke: all results bit-identical to fault-free goldens");
}
