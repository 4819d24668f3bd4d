//! earth-profile integration tests: the overhead decomposition must sum
//! nanosecond-exact to the run report's counters, profiling must be free
//! in virtual time, the critical path must bound below the elapsed time,
//! and the dual-processor clock must count SU completions. The first two
//! hold under every fault plane as well as on clean runs.

use earth_machine::{FaultPlan, MachineConfig};
use earth_rt::{
    ArgsReader, ArgsWriter, Ctx, GlobalAddr, NodeId, NodeProfile, RunProfile, RunReport, Runtime,
    SlotId, ThreadId, ThreadedFn,
};
use earth_sim::{VirtualDuration, VirtualTime};

/// A token body that fetches 8 bytes from node 0, computes on them, and
/// pushes a result byte back — exercising sync-class requests, async
/// puts, internal replies, token migration, and steal traffic.
struct Fetcher {
    src: GlobalAddr,
    dst: GlobalAddr,
    scratch: u32,
}

impl ThreadedFn for Fetcher {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        match tid {
            ThreadId(0) => {
                self.scratch = ctx.alloc(8).offset;
                ctx.init_sync(SlotId(0), 1, 0, ThreadId(1));
                ctx.get_sync(self.src, self.scratch, 8, SlotId(0));
            }
            ThreadId(1) => {
                ctx.compute(VirtualDuration::from_us(40));
                ctx.data_sync(&[1u8], self.dst, None);
                ctx.end();
            }
            _ => unreachable!(),
        }
    }
}

fn fetcher_ctor(args: &mut ArgsReader<'_>) -> Box<dyn ThreadedFn> {
    Box::new(Fetcher {
        src: args.addr(),
        dst: args.addr(),
        scratch: 0,
    })
}

fn workload(dual: bool, profile: bool, seed: u64) -> (RunReport, Option<RunProfile>) {
    let cfg = if dual {
        MachineConfig::manna(4)
            .with_jitter(0.05)
            .with_dual_processor()
    } else {
        MachineConfig::manna(4).with_jitter(0.05)
    };
    fetchers(cfg, seed, 12, profile)
}

/// `tokens` fetcher tokens, all injected on node 0, on the machine `cfg`.
fn fetchers(
    cfg: MachineConfig,
    seed: u64,
    tokens: u32,
    profile: bool,
) -> (RunReport, Option<RunProfile>) {
    let mut rt = Runtime::new(cfg, seed);
    if profile {
        rt.enable_profile();
    }
    let src = rt.alloc_on(NodeId(0), 8);
    rt.write_mem(src, &7.5f64.to_le_bytes());
    let dst = rt.alloc_on(NodeId(0), 16);
    let fetcher = rt.register("fetcher", fetcher_ctor);
    for i in 0..tokens {
        let mut a = ArgsWriter::new();
        a.addr(src).addr(dst.plus(i % 16));
        rt.inject_token(fetcher, a.finish());
    }
    let report = rt.run();
    let prof = profile.then(|| rt.take_profile());
    (report, prof)
}

#[test]
fn profiling_never_perturbs_virtual_time() {
    // Profiled and unprofiled same-seed runs must produce byte-identical
    // reports: earth-profile is observation only. Exercised with jitter on
    // (RNG draw order) and in both processor configurations.
    for seed in [1u64, 42] {
        for dual in [false, true] {
            let (plain, _) = workload(dual, false, seed);
            let (profiled, prof) = workload(dual, true, seed);
            assert_eq!(
                format!("{plain:?}"),
                format!("{profiled:?}"),
                "profiling changed the run (seed {seed}, dual {dual})"
            );
            assert!(prof.is_some());
        }
    }
}

#[test]
fn breakdown_sums_ns_exact_single_processor() {
    let (report, prof) = workload(false, true, 3);
    let prof = prof.unwrap();
    prof.check(&report).expect("decomposition must be ns-exact");
    let totals = &prof.nodes;
    assert!(totals.iter().any(|p| !p.poll.is_zero()), "poll time seen");
    assert!(
        totals
            .iter()
            .any(|p| !p.thread.is_zero() || !p.token.is_zero()),
        "application work seen"
    );
    assert!(
        totals.iter().map(|p| p.sync_msgs.msgs).sum::<u64>() > 0,
        "GET_SYNC requests classified"
    );
    assert!(
        totals.iter().map(|p| p.async_msgs.msgs).sum::<u64>() > 0,
        "async ops classified"
    );
    assert!(
        totals.iter().map(|p| p.internal_msgs.msgs).sum::<u64>() > 0,
        "replies/steal protocol classified"
    );
    // Single-processor mode has no SU.
    assert!(totals.iter().all(|p| p.su.is_zero()));
    assert!(prof.su_spans.is_empty());
    // The render is a complete sentence about the run.
    let text = prof.render(&report);
    assert!(text.contains("critical path"), "{text}");
}

#[test]
fn breakdown_sums_ns_exact_dual_processor() {
    let (report, prof) = workload(true, true, 3);
    let prof = prof.unwrap();
    prof.check(&report).expect("decomposition must be ns-exact");
    assert!(
        prof.nodes.iter().any(|p| !p.su.is_zero()),
        "dual mode must account SU time"
    );
    assert!(!prof.su_spans.is_empty());
    let end = earth_sim::VirtualTime::ZERO + report.elapsed;
    for s in &prof.su_spans {
        assert!(s.end > s.start);
        assert!(s.end <= end, "SU span past the run's end");
    }
}

#[test]
fn link_occupancy_is_recorded_within_the_run() {
    let (report, prof) = workload(false, true, 9);
    let prof = prof.unwrap();
    assert!(!prof.links.is_empty(), "remote traffic must occupy links");
    let end = earth_sim::VirtualTime::ZERO + report.elapsed;
    for l in &prof.links {
        assert!(l.end > l.start);
        assert!(l.end <= end, "link busy past the run's end");
        assert!(l.src != l.dst);
        assert!(l.bytes > 0);
    }
}

#[test]
fn critical_path_bounds_the_run() {
    let (report, prof) = workload(false, true, 5);
    let prof = prof.unwrap();
    assert!(!prof.critical_path.is_zero(), "a real run has a real chain");
    // In the single-processor configuration every dependency edge's cost
    // is also real time, so the longest chain cannot exceed the makespan.
    assert!(
        prof.critical_path <= report.elapsed,
        "critical path {} > elapsed {}",
        prof.critical_path,
        report.elapsed
    );
    // 12 independent tokens: the dependency structure permits real
    // parallelism, so the bound must exceed 1.
    assert!(
        prof.parallelism_limit(&report) > 1.0,
        "limit {}",
        prof.parallelism_limit(&report)
    );
}

/// One thread puts to a remote node and ends; the receiving node's only
/// activity is message handling.
struct PutAndEnd {
    dst: GlobalAddr,
}

impl ThreadedFn for PutAndEnd {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        ctx.compute(VirtualDuration::from_us(5));
        ctx.data_sync(&[0xABu8; 4], self.dst, None);
        ctx.mark("sent");
        ctx.end();
    }
}

#[test]
fn dual_mode_elapsed_counts_su_completion() {
    // Regression: the run's elapsed time used to be the EU's last
    // instant, so a run whose final activity is SU-side message handling
    // under-reported (the machine is not quiescent until the SU drains).
    // Here node 1's only activity is receiving a Put: its handling is
    // all-SU in dual mode, so the clock must run past the sender's last
    // EU instant by at least the network flight plus that SU time.
    let run = |dual: bool| {
        let cfg = if dual {
            MachineConfig::manna(2).with_dual_processor()
        } else {
            MachineConfig::manna(2)
        };
        let mut rt = Runtime::new(cfg, 11);
        let dst = rt.alloc_on(NodeId(1), 4);
        let put = rt.register("put", move |r: &mut ArgsReader<'_>| {
            Box::new(PutAndEnd { dst: r.addr() })
        });
        let mut a = ArgsWriter::new();
        a.addr(dst);
        rt.inject_invoke(NodeId(0), put, a.finish());
        rt.run()
    };
    let single = run(false);
    let dual = run(true);
    let su = dual.nodes[1].su_time;
    assert!(su > VirtualDuration::ZERO, "node 1's Put is SU-handled");
    // The sender's mark is the EU's last instant machine-wide (node 1
    // never runs a thread) — exactly what the buggy clock reported.
    let sent = dual
        .mark("sent")
        .unwrap()
        .since(earth_sim::VirtualTime::ZERO);
    assert!(
        dual.elapsed >= sent + su,
        "elapsed {} stops before the SU finishes (EU done {}, SU {})",
        dual.elapsed,
        sent,
        su
    );
    // Offloading must still never slow the run down.
    assert!(dual.elapsed <= single.elapsed);
}

fn at_us(us: u64) -> VirtualTime {
    VirtualTime::ZERO + VirtualDuration::from_us(us)
}

/// Run the fetcher workload under `cfg` plain and profiled: the profile
/// must decompose the report ns-exact, and the two reports must agree
/// byte for byte.
fn profiled_under(name: &str, cfg: MachineConfig) -> (RunReport, RunProfile) {
    let (plain, _) = fetchers(cfg.clone(), 7, 240, false);
    let (report, prof) = fetchers(cfg, 7, 240, true);
    let prof = prof.unwrap();
    assert_eq!(
        format!("{plain:?}"),
        format!("{report:?}"),
        "{name}: profiling changed the run"
    );
    if let Err(e) = prof.check(&report) {
        panic!("{name}: {e}");
    }
    (report, prof)
}

fn some_node(prof: &RunProfile, f: fn(&NodeProfile) -> VirtualDuration) -> bool {
    prof.nodes.iter().any(|p| !f(p).is_zero())
}

#[test]
fn decomposition_is_exact_under_lossy_duplicating_links() {
    let plan = FaultPlan::new().with_drop(0.05).with_duplicate(0.05);
    let (report, prof) = profiled_under("lossy", MachineConfig::manna(8).with_faults(plan));
    assert!(report.net_dropped > 0 && report.net_duplicated > 0);
    assert!(some_node(&prof, |p| p.retransmit), "no retransmit time");
}

#[test]
fn decomposition_is_exact_across_a_crash_and_scheduled_restart() {
    let plan = FaultPlan::new()
        .with_crash_restart(3, at_us(600), at_us(1_200))
        .with_heartbeat_every(VirtualDuration::from_us(100))
        .with_checkpoint_every(VirtualDuration::from_us(200));
    let (report, prof) = profiled_under("crash-restart", MachineConfig::manna(8).with_faults(plan));
    assert_eq!(report.nodes[3].recoveries, 1);
    assert!(some_node(&prof, |p| p.heartbeat), "no heartbeat time");
    assert!(some_node(&prof, |p| p.checkpoint), "no checkpoint time");
    assert!(!prof.nodes[3].recover.is_zero(), "no recovery time");
    // Every capture costs a fixed 20 µs of EU time.
    for (i, (p, n)) in prof.nodes.iter().zip(&report.nodes).enumerate() {
        assert_eq!(
            p.checkpoint,
            VirtualDuration::from_us(20).times(n.checkpoints),
            "node {i}: {} checkpoints",
            n.checkpoints
        );
    }
}

#[test]
fn decomposition_is_exact_across_a_failover_crash() {
    let plan = FaultPlan::new()
        .with_node_crash(5, at_us(600))
        .with_heartbeat_every(VirtualDuration::from_us(100))
        .with_suspect_after(VirtualDuration::from_us(300))
        .with_checkpoint_every(VirtualDuration::from_us(200));
    let (report, prof) = profiled_under("failover", MachineConfig::manna(8).with_faults(plan));
    assert_eq!(report.nodes[5].recoveries, 1);
    assert!(!prof.nodes[5].recover.is_zero(), "no recovery time");
}

#[test]
fn decomposition_is_exact_under_slowdown_with_straggler_defenses() {
    let plan = FaultPlan::new()
        .with_node_slowdown(2, at_us(50), at_us(1_000_000), 8.0)
        .with_slow_detector(3.0, 3)
        .with_hedging(0.5)
        .with_quarantine(VirtualDuration::from_us(2_000))
        .with_speculative_rehoming();
    let (report, prof) = profiled_under("straggler", MachineConfig::manna(8).with_faults(plan));
    assert!(report.nodes.iter().any(|n| n.hedges_sent > 0));
    assert!(some_node(&prof, |p| p.hedge), "no hedge time");
    // Quarantine re-homes a quarantined node's queued tokens, charged
    // as recovery time on the node that re-homes them.
    assert!(report.nodes.iter().any(|n| n.speculated > 0));
    assert!(some_node(&prof, |p| p.recover), "no re-homing time");
}

#[test]
fn decomposition_is_exact_in_dual_processor_mode_under_loss() {
    let plan = FaultPlan::new().with_drop(0.05);
    let cfg = MachineConfig::manna(8)
        .with_dual_processor()
        .with_faults(plan);
    let (_, prof) = profiled_under("dual", cfg);
    assert!(some_node(&prof, |p| p.su), "no SU time");
    assert!(some_node(&prof, |p| p.retransmit), "no retransmit time");
}
