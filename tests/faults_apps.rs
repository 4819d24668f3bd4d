//! Acceptance tests for the fault plane: under a seeded plan of dropped
//! and duplicated messages, the reliability layer must make every
//! split-phase operation exactly-once, so all three paper applications
//! complete with results bit-identical to their fault-free runs — only
//! virtual time (and the fault counters) degrade.

use earth_manna::algebra::buchberger::{reduce_basis, SelectionStrategy};
use earth_manna::algebra::inputs::katsura;
use earth_manna::apps::eigen::{run_eigen, run_eigen_on, FetchMode};
use earth_manna::apps::groebner::{groebner_machine, run_groebner, run_groebner_on};
use earth_manna::apps::neural::{run_neural, run_neural_on, CommsShape, PassMode};
use earth_manna::linalg::SymTridiagonal;
use earth_manna::machine::{FaultPlan, MachineConfig};

/// The acceptance plan: 1% drop, 0.5% duplication.
fn lossy() -> FaultPlan {
    FaultPlan::new().with_drop(0.01).with_duplicate(0.005)
}

#[test]
fn eigen_bit_identical_under_lossy_network() {
    let m = SymTridiagonal::random_clustered(40, 3, 7);
    let clean = run_eigen(&m, 1e-6, 20, 42, FetchMode::Block);
    let cfg = MachineConfig::manna(20).with_faults(lossy());
    let faulted = run_eigen_on(&m, 1e-6, cfg, 42, FetchMode::Block);
    assert!(
        faulted.report.net_dropped > 0,
        "plan never fired; acceptance run is vacuous"
    );
    assert!(faulted.report.total_retransmits() > 0);
    assert_eq!(
        clean.eigenvalues, faulted.eigenvalues,
        "drops/dups must not change the mathematics"
    );
}

#[test]
fn groebner_same_reduced_basis_under_lossy_network() {
    let (ring, input) = katsura(3);
    let clean = run_groebner(&ring, &input, 20, 1, SelectionStrategy::Sugar, None);
    let cfg = groebner_machine(20).with_faults(lossy());
    let faulted = run_groebner_on(&ring, &input, cfg, 1, SelectionStrategy::Sugar);
    assert!(faulted.report.net_dropped > 0);
    assert_eq!(
        reduce_basis(&ring, &clean.basis),
        reduce_basis(&ring, &faulted.basis),
        "lossy completion must reach the same reduced Groebner basis"
    );
}

#[test]
fn neural_outputs_bit_identical_under_lossy_network() {
    let clean = run_neural(24, 20, 2, 21, PassMode::ForwardBackward, CommsShape::Tree);
    let faulted = run_neural_on(
        MachineConfig::manna(20).with_faults(lossy()),
        24,
        24,
        24,
        2,
        21,
        PassMode::ForwardBackward,
        CommsShape::Tree,
    );
    assert!(faulted.report.net_dropped > 0);
    assert_eq!(clean.outputs, faulted.outputs);
}

#[test]
fn faulted_runs_are_seed_deterministic() {
    let m = SymTridiagonal::random_clustered(30, 2, 3);
    let cfg = MachineConfig::manna(20).with_faults(lossy());
    let a = run_eigen_on(&m, 1e-6, cfg.clone(), 9, FetchMode::Individual);
    let b = run_eigen_on(&m, 1e-6, cfg, 9, FetchMode::Individual);
    assert_eq!(a.eigenvalues, b.eigenvalues);
    assert_eq!(
        format!("{:?}", a.report),
        format!("{:?}", b.report),
        "same (seed, plan) must replay the same fault schedule"
    );
    assert_eq!(a.elapsed, b.elapsed);
}

#[test]
fn none_plan_is_byte_identical_to_no_fault_plane() {
    // FaultPlan::none() must normalize away entirely: no reliability
    // layer, no envelope bytes, no extra draws — the run is the same
    // run, byte for byte.
    let m = SymTridiagonal::random_clustered(30, 2, 3);
    let plain = run_eigen(&m, 1e-6, 8, 5, FetchMode::Block);
    let cfg = MachineConfig::manna(8).with_faults(FaultPlan::none());
    let none = run_eigen_on(&m, 1e-6, cfg, 5, FetchMode::Block);
    assert_eq!(plain.eigenvalues, none.eigenvalues);
    assert_eq!(format!("{:?}", plain.report), format!("{:?}", none.report));
    assert_eq!(format!("{}", plain.report), format!("{}", none.report));
}

#[test]
fn faults_show_up_in_report_display_only_when_firing() {
    let m = SymTridiagonal::random_clustered(30, 2, 3);
    let clean = run_eigen(&m, 1e-6, 8, 5, FetchMode::Block);
    let cfg = MachineConfig::manna(8).with_faults(lossy());
    let faulted = run_eigen_on(&m, 1e-6, cfg, 5, FetchMode::Block);
    assert!(!format!("{}", clean.report).contains("faults:"));
    let shown = format!("{}", faulted.report);
    assert!(shown.contains("faults:"), "{shown}");
    assert!(shown.contains("retransmits"), "{shown}");
}

// ---------------------------------------------------------------------------
// Crash-stop windows: the checkpoint/recovery plane
// ---------------------------------------------------------------------------

use earth_manna::rt::{ArgsReader, ArgsWriter, Ctx, Runtime, ThreadId, ThreadedFn};
use earth_manna::sim::{VirtualDuration, VirtualTime};
use earth_testkit::domain::crash_plan;
use earth_testkit::prelude::*;

#[test]
fn eigen_bit_identical_with_node_crashed_mid_run() {
    let m = SymTridiagonal::random_clustered(40, 3, 7);
    let clean = run_eigen(&m, 1e-6, 20, 42, FetchMode::Block);
    let half = VirtualTime::ZERO + clean.report.elapsed / 2;
    // Failover: no scheduled restart — the detector drives recovery.
    let crash = FaultPlan::new().with_node_crash(3, half);
    let cfg = MachineConfig::manna(20).with_faults(crash);
    let failover = run_eigen_on(&m, 1e-6, cfg, 42, FetchMode::Block);
    assert_eq!(failover.report.total_crashes(), 1);
    assert_eq!(failover.report.total_recoveries(), 1);
    assert!(failover.report.total_heartbeats() > 0, "detector never ran");
    assert_eq!(
        clean.eigenvalues, failover.eigenvalues,
        "a crash must not change the mathematics"
    );
    assert!(failover.elapsed > clean.elapsed, "surviving is never free");
    // Scheduled restart at a fixed later instant.
    let up = half + VirtualDuration::from_us(3_000);
    let crash = FaultPlan::new().with_crash_restart(3, half, up);
    let cfg = MachineConfig::manna(20).with_faults(crash);
    let restarted = run_eigen_on(&m, 1e-6, cfg, 42, FetchMode::Block);
    assert_eq!(clean.eigenvalues, restarted.eigenvalues);
    assert_eq!(restarted.report.total_recoveries(), 1);
}

#[test]
fn groebner_same_reduced_basis_with_node_crashed() {
    let (ring, input) = katsura(3);
    let clean = run_groebner(&ring, &input, 20, 1, SelectionStrategy::Sugar, None);
    let half = VirtualTime::ZERO + clean.report.elapsed / 2;
    let cfg = groebner_machine(20).with_faults(FaultPlan::new().with_node_crash(5, half));
    let crashed = run_groebner_on(&ring, &input, cfg, 1, SelectionStrategy::Sugar);
    assert_eq!(crashed.report.total_crashes(), 1);
    assert_eq!(
        reduce_basis(&ring, &clean.basis),
        reduce_basis(&ring, &crashed.basis),
        "crashed completion must reach the same reduced Groebner basis"
    );
}

#[test]
fn neural_outputs_bit_identical_with_crash_restart() {
    let clean = run_neural(24, 20, 2, 21, PassMode::ForwardBackward, CommsShape::Tree);
    let half = VirtualTime::ZERO + clean.report.elapsed / 2;
    let up = half + VirtualDuration::from_us(2_000);
    let crashed = run_neural_on(
        MachineConfig::manna(20).with_faults(FaultPlan::new().with_crash_restart(7, half, up)),
        24,
        24,
        24,
        2,
        21,
        PassMode::ForwardBackward,
        CommsShape::Tree,
    );
    assert_eq!(crashed.report.total_crashes(), 1);
    assert_eq!(clean.outputs, crashed.outputs);
}

#[test]
fn checkpoint_interval_only_affects_elapsed_never_results() {
    let m = SymTridiagonal::random_clustered(30, 2, 3);
    let clean = run_eigen(&m, 1e-6, 8, 5, FetchMode::Block);
    let half = VirtualTime::ZERO + clean.report.elapsed / 2;
    let runs: Vec<_> = [500u64, 2_000, 8_000]
        .iter()
        .map(|&ck| {
            let plan = FaultPlan::new()
                .with_node_crash(2, half)
                .with_checkpoint_every(VirtualDuration::from_us(ck));
            let cfg = MachineConfig::manna(8).with_faults(plan);
            run_eigen_on(&m, 1e-6, cfg, 5, FetchMode::Block)
        })
        .collect();
    for r in &runs {
        assert_eq!(
            clean.eigenvalues, r.eigenvalues,
            "checkpoint cadence must never leak into results"
        );
        assert_eq!(r.report.total_crashes(), 1);
    }
    assert!(
        runs[0].report.total_checkpoints() > runs[2].report.total_checkpoints(),
        "denser cadence must take more checkpoints"
    );
}

#[test]
fn crash_free_plans_never_touch_the_crash_machinery() {
    let m = SymTridiagonal::random_clustered(30, 2, 3);
    let cfg = MachineConfig::manna(8).with_faults(lossy());
    let faulted = run_eigen_on(&m, 1e-6, cfg, 5, FetchMode::Block);
    let r = &faulted.report;
    assert_eq!(r.total_crashes() + r.total_recoveries(), 0);
    assert_eq!(r.total_heartbeats() + r.total_checkpoints(), 0);
    assert_eq!(r.net_crash_dropped, 0);
    assert!(!format!("{r}").contains("crashes:"));
}

/// A single-thread token workload for the generated-plan properties.
struct Work {
    us: u64,
}

impl ThreadedFn for Work {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        ctx.compute(VirtualDuration::from_us(self.us));
        ctx.end();
    }
}

fn run_tokens(plan: &FaultPlan, seed: u64) -> String {
    let mut rt = Runtime::new(MachineConfig::manna(6).with_faults(plan.clone()), seed);
    // Termination guard: a livelocked recovery would spin the event
    // queue forever; this bound fails the test instead of hanging it.
    rt.set_max_events(2_000_000);
    let work = rt.register("work", |args: &mut ArgsReader| {
        Box::new(Work { us: args.u64() })
    });
    for _ in 0..24 {
        let mut a = ArgsWriter::new();
        a.u64(150);
        rt.inject_token(work, a.finish());
    }
    let report = rt.run();
    assert!(report.is_clean(), "tokens or frames leaked: {report}");
    assert_eq!(report.total_crashes(), 1, "the planned crash never fired");
    assert_eq!(report.total_recoveries(), 1, "the crash never recovered");
    format!("{report:?}")
}

props! {
    #![config(Config::with_cases(10))]

    #[test]
    fn generated_crash_plans_terminate_and_replay_identically(
        plan in crash_plan(6, 100..3_000),
        seed in any::<u64>(),
    ) {
        // Termination: both failover and scheduled-restart plans drain
        // to a clean report under the event bound. Determinism: the
        // whole report — counters, downtime, elapsed — replays
        // byte-identically for the same (seed, plan).
        prop_assert_eq!(
            run_tokens(&plan, seed),
            run_tokens(&plan, seed),
            "same (seed, crash plan) must replay byte-identically"
        );
    }

    #[test]
    fn checkpoint_cadence_is_invariant_for_generated_plans(
        plan in crash_plan(6, 200..2_000),
        seed in any::<u64>(),
        ck_us in 300u64..4_000,
    ) {
        // The same plan under a different checkpoint interval must
        // reach the same clean terminal state (only time-and-counter
        // fields may move).
        let denser = plan.clone().with_checkpoint_every(VirtualDuration::from_us(ck_us));
        run_tokens(&plan, seed);
        run_tokens(&denser, seed);
    }
}
