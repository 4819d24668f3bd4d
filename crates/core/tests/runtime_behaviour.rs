//! Behavioural tests of the EARTH runtime: split-phase semantics, sync
//! slots, invocation, load balancing, determinism, and cost-model effects.

use earth_machine::MachineConfig;
use earth_rt::{
    ArgsReader, ArgsWriter, Ctx, GlobalAddr, NodeId, Runtime, SlotId, ThreadId, ThreadedFn,
};
use earth_sim::VirtualDuration;

/// Vadd from Figure 1b of the paper: fetch elements of two remote vectors,
/// add them, store results back, and signal the caller when done.
struct Vadd {
    a: GlobalAddr,
    b: GlobalAddr,
    out: GlobalAddr,
    n: u32,
    done: earth_rt::SlotRef,
    scratch: u32,
}

impl ThreadedFn for Vadd {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        match tid {
            // THREAD_0: issue split-phase fetches of both vectors.
            ThreadId(0) => {
                self.scratch = ctx.alloc(self.n * 16).offset;
                ctx.init_sync(SlotId(0), 2 * self.n as i32, 0, ThreadId(1));
                for i in 0..self.n {
                    ctx.get_sync(self.a.plus(i * 8), self.scratch + i * 16, 8, SlotId(0));
                    ctx.get_sync(self.b.plus(i * 8), self.scratch + i * 16 + 8, 8, SlotId(0));
                }
            }
            // THREAD_1: all elements arrived; compute and store results.
            ThreadId(1) => {
                ctx.init_sync(SlotId(1), self.n as i32, 0, ThreadId(2));
                for i in 0..self.n {
                    let bytes = ctx.read_local(self.scratch + i * 16, 16);
                    let x = f64::from_le_bytes(bytes[0..8].try_into().unwrap());
                    let y = f64::from_le_bytes(bytes[8..16].try_into().unwrap());
                    ctx.compute(VirtualDuration::from_us(1));
                    let done = ctx.slot_ref(SlotId(1));
                    ctx.data_sync_f64(x + y, self.out.plus(i * 8), Some(done));
                }
            }
            // THREAD_2: results stored; RSYNC the caller and terminate.
            ThreadId(2) => {
                ctx.sync(self.done);
                ctx.end();
            }
            _ => unreachable!(),
        }
    }
}

/// Driver frame that owns the "done" slot.
struct Driver {
    vadd: earth_rt::FuncId,
    a: GlobalAddr,
    b: GlobalAddr,
    out: GlobalAddr,
    n: u32,
}

impl ThreadedFn for Driver {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        match tid {
            ThreadId(0) => {
                ctx.init_sync(SlotId(0), 1, 0, ThreadId(1));
                let mut args = ArgsWriter::new();
                args.addr(self.a)
                    .addr(self.b)
                    .addr(self.out)
                    .u32(self.n)
                    .slot(ctx.slot_ref(SlotId(0)));
                ctx.invoke(NodeId(1), self.vadd, args.finish());
            }
            ThreadId(1) => {
                ctx.mark("vadd-done");
                ctx.end();
            }
            _ => unreachable!(),
        }
    }
}

fn vadd_ctor(args: &mut ArgsReader<'_>) -> Box<dyn ThreadedFn> {
    Box::new(Vadd {
        a: args.addr(),
        b: args.addr(),
        out: args.addr(),
        n: args.u32(),
        done: args.slot(),
        scratch: 0,
    })
}

#[test]
fn vadd_split_phase_roundtrip() {
    let mut rt = Runtime::new(MachineConfig::manna(2), 1);
    let n = 8u32;
    let a = rt.alloc_on(NodeId(0), n * 8);
    let b = rt.alloc_on(NodeId(0), n * 8);
    let out = rt.alloc_on(NodeId(0), n * 8);
    for i in 0..n {
        rt.write_mem(a.plus(i * 8), &(i as f64).to_le_bytes());
        rt.write_mem(b.plus(i * 8), &(10.0 * i as f64).to_le_bytes());
    }
    let vadd = rt.register("vadd", vadd_ctor);
    let driver = rt.register("driver", move |r| {
        Box::new(Driver {
            vadd,
            a: r.addr(),
            b: r.addr(),
            out: r.addr(),
            n: r.u32(),
        })
    });
    let mut args = ArgsWriter::new();
    args.addr(a).addr(b).addr(out).u32(n);
    rt.inject_invoke(NodeId(0), driver, args.finish());
    let report = rt.run();

    assert!(report.is_clean(), "leaks: {report:?}");
    assert!(report.mark("vadd-done").is_some());
    for i in 0..n {
        let bytes = rt.read_mem(out.plus(i * 8), 8);
        let v = f64::from_le_bytes(bytes.try_into().unwrap());
        assert_eq!(v, 11.0 * i as f64, "element {i}");
    }
    // 2n get round-trips + n puts + invoke + rsync all crossed the network.
    assert!(report.net_messages >= (3 * n) as u64);
}

// ---------------------------------------------------------------------------

struct Burn {
    us: u64,
}

impl ThreadedFn for Burn {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        ctx.compute(VirtualDuration::from_us(self.us));
        ctx.end();
    }
}

fn burn_ctor(args: &mut ArgsReader<'_>) -> Box<dyn ThreadedFn> {
    Box::new(Burn { us: args.u64() })
}

#[test]
fn tokens_spread_across_nodes() {
    let nodes = 8u16;
    let mut rt = Runtime::new(MachineConfig::manna(nodes), 3);
    let burn = rt.register("burn", burn_ctor);
    let tasks = 64;
    for _ in 0..tasks {
        let mut a = ArgsWriter::new();
        a.u64(500);
        rt.inject_token(burn, a.finish());
    }
    let report = rt.run();
    assert!(report.is_clean());
    let total: u64 = report.nodes.iter().map(|n| n.tokens_run).sum();
    assert_eq!(total, tasks, "every token must run exactly once");
    let participating = report.nodes.iter().filter(|n| n.tokens_run > 0).count();
    assert!(
        participating >= (nodes as usize) - 1,
        "stealing should involve nearly all nodes, got {participating}"
    );
    // near-linear: 64 x 500us over 8 nodes = 4ms ideal; allow 2x overhead
    assert!(
        report.elapsed.as_ms_f64() < 8.0,
        "poor balance: {}",
        report.elapsed
    );
}

#[test]
fn single_node_machine_runs_tokens_locally() {
    let mut rt = Runtime::new(MachineConfig::manna(1), 5);
    let burn = rt.register("burn", burn_ctor);
    for _ in 0..4 {
        let mut a = ArgsWriter::new();
        a.u64(100);
        rt.inject_token(burn, a.finish());
    }
    let report = rt.run();
    assert!(report.is_clean());
    assert_eq!(report.nodes[0].tokens_run, 4);
    assert_eq!(report.net_messages, 0);
}

#[test]
fn identical_seeds_give_identical_traces() {
    let run = |seed| {
        let mut rt = Runtime::new(MachineConfig::manna(6).with_jitter(0.05), seed);
        let burn = rt.register("burn", burn_ctor);
        for i in 0..40 {
            let mut a = ArgsWriter::new();
            a.u64(100 + i * 7);
            rt.inject_token(burn, a.finish());
        }
        let r = rt.run();
        (r.elapsed, r.events, r.net_messages)
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77), run(78), "different seeds should differ somewhere");
}

#[test]
fn peak_queue_depth_is_observed_but_not_displayed() {
    let mut rt = Runtime::new(MachineConfig::manna(8), 3);
    let burn = rt.register("burn", burn_ctor);
    for _ in 0..64 {
        let mut a = ArgsWriter::new();
        a.u64(500);
        rt.inject_token(burn, a.finish());
    }
    let report = rt.run();
    assert!(report.peak_queue_depth > 0, "depth never observed");
    assert!(report.peak_queue_depth <= report.events);
    // The depth is an observation, not part of the stable textual report.
    assert!(!format!("{report}").contains("peak"));
}

// ---------------------------------------------------------------------------

/// Recursive fork-join over TOKENs: each task of depth d spawns two
/// children of depth d-1 and reports to its parent through a sync slot.
struct Fork {
    depth: u32,
    done: earth_rt::SlotRef,
    me: Option<earth_rt::FuncId>,
}

impl ThreadedFn for Fork {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        match tid {
            ThreadId(0) => {
                ctx.compute(VirtualDuration::from_us(50));
                if self.depth == 0 {
                    ctx.sync(self.done);
                    ctx.end();
                    return;
                }
                ctx.init_sync(SlotId(0), 2, 0, ThreadId(1));
                for _ in 0..2 {
                    let mut a = ArgsWriter::new();
                    a.u32(self.depth - 1)
                        .slot(ctx.slot_ref(SlotId(0)))
                        .u32(self.me.unwrap().0);
                    ctx.token(self.me.unwrap(), a.finish());
                }
            }
            ThreadId(1) => {
                ctx.sync(self.done);
                ctx.end();
            }
            _ => unreachable!(),
        }
    }
}

struct ForkRoot {
    fork: earth_rt::FuncId,
    depth: u32,
}

impl ThreadedFn for ForkRoot {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        match tid {
            ThreadId(0) => {
                ctx.init_sync(SlotId(0), 1, 0, ThreadId(1));
                let mut a = ArgsWriter::new();
                a.u32(self.depth)
                    .slot(ctx.slot_ref(SlotId(0)))
                    .u32(self.fork.0);
                ctx.token(self.fork, a.finish());
            }
            ThreadId(1) => {
                ctx.mark("tree-done");
                ctx.end();
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn fork_join_tree_completes_and_balances() {
    let depth = 7u32; // 255 tasks
    let mut rt = Runtime::new(MachineConfig::manna(10), 11);
    let fork = rt.register("fork", |r| {
        let depth = r.u32();
        let done = r.slot();
        let me = earth_rt::FuncId(r.u32());
        Box::new(Fork {
            depth,
            done,
            me: Some(me),
        })
    });
    let root = rt.register("root", move |r| {
        Box::new(ForkRoot {
            fork,
            depth: r.u32(),
        })
    });
    let mut a = ArgsWriter::new();
    a.u32(depth);
    rt.inject_invoke(NodeId(0), root, a.finish());
    let report = rt.run();
    assert!(report.is_clean(), "{report:?}");
    assert!(report.mark("tree-done").is_some());
    let tokens: u64 = report.nodes.iter().map(|n| n.tokens_run).sum();
    assert_eq!(tokens, (1 << (depth + 1)) - 1, "255 tree tasks");
    // work is 255*50us = 12.75ms; on 10 nodes ideal 1.3ms; allow overheads
    assert!(report.elapsed.as_ms_f64() < 4.0, "{}", report.elapsed);
}

// ---------------------------------------------------------------------------

#[test]
fn message_passing_model_inflates_runtime() {
    let run = |mp: Option<u64>| {
        let cfg = match mp {
            None => MachineConfig::manna(4),
            Some(us) => MachineConfig::manna(4).with_message_passing(us),
        };
        let mut rt = Runtime::new(cfg, 2);
        let vadd = rt.register("vadd", vadd_ctor);
        let n = 8u32;
        let a = rt.alloc_on(NodeId(0), n * 8);
        let b = rt.alloc_on(NodeId(0), n * 8);
        let out = rt.alloc_on(NodeId(0), n * 8);
        let driver = rt.register("driver", move |r| {
            Box::new(Driver {
                vadd,
                a: r.addr(),
                b: r.addr(),
                out: r.addr(),
                n: r.u32(),
            })
        });
        let mut args = ArgsWriter::new();
        args.addr(a).addr(b).addr(out).u32(n);
        rt.inject_invoke(NodeId(0), driver, args.finish());
        rt.run().elapsed
    };
    let earth = run(None);
    let mp300 = run(Some(300));
    let mp1000 = run(Some(1000));
    assert!(
        mp300.as_us_f64() > 10.0 * earth.as_us_f64(),
        "300us model should dominate: earth={earth} mp={mp300}"
    );
    assert!(mp1000 > mp300);
}

// ---------------------------------------------------------------------------

struct BadSignaler;

impl ThreadedFn for BadSignaler {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        // Signal our own slot *after* ending: the frame is gone when the
        // signal is routed remotely back to us via another node? Simpler:
        // leave a slot armed and end; then have nobody signal it. Instead
        // test the dropped-signal path: send a sync to a bogus frame.
        let bogus = earth_rt::SlotRef {
            node: NodeId(1),
            frame: earth_rt::FrameId {
                index: 999,
                gen: 42,
            },
            slot: SlotId(0),
        };
        ctx.sync(bogus);
        ctx.end();
    }
}

#[test]
fn signals_to_dead_frames_are_counted_not_fatal() {
    let mut rt = Runtime::new(MachineConfig::manna(2), 1);
    let bad = rt.register("bad", |_| Box::new(BadSignaler));
    rt.inject_invoke(NodeId(0), bad, ArgsWriter::new().finish());
    let report = rt.run();
    assert_eq!(report.nodes[1].dropped_signals, 1);
    assert!(!report.is_clean());
}

// ---------------------------------------------------------------------------

struct Broadcaster {
    dst: Vec<GlobalAddr>,
    payload: u32,
}

impl ThreadedFn for Broadcaster {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        match tid {
            ThreadId(0) => {
                ctx.init_sync(SlotId(0), self.dst.len() as i32, 0, ThreadId(1));
                let src = ctx.alloc(self.payload);
                let zeros = vec![7u8; self.payload as usize];
                ctx.write_local(src.offset, &zeros);
                for &d in &self.dst.clone() {
                    let done = ctx.slot_ref(SlotId(0));
                    ctx.blkmov(src.offset, self.payload, d, Some(done));
                }
            }
            ThreadId(1) => {
                ctx.mark("bcast-done");
                ctx.end();
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn sequential_broadcast_serializes_on_sender_link() {
    // 4 x 100kB from one node: 2ms serialization each => at least 8ms.
    let mut rt = Runtime::new(MachineConfig::manna(5), 4);
    let payload = 100_000u32;
    let dsts: Vec<GlobalAddr> = (1..5).map(|i| rt.alloc_on(NodeId(i), payload)).collect();
    let f = {
        let dsts = dsts.clone();
        rt.register("bcast", move |r| {
            Box::new(Broadcaster {
                dst: dsts.clone(),
                payload: r.u32(),
            })
        })
    };
    let mut a = ArgsWriter::new();
    a.u32(payload);
    rt.inject_invoke(NodeId(0), f, a.finish());
    let report = rt.run();
    assert!(report.mark("bcast-done").is_some());
    assert!(
        report.elapsed.as_ms_f64() >= 8.0,
        "link serialization missing: {}",
        report.elapsed
    );
    assert!(report.link_waits >= 3);
    // every destination actually received the payload
    for d in dsts {
        assert!(rt.read_mem(d, payload).iter().all(|&b| b == 7));
    }
}

// ---------------------------------------------------------------------------

#[test]
fn dual_processor_mode_offloads_message_handling() {
    // §2: EARTH comes in a two-processor configuration (EU + SU) and a
    // single-processor one; the paper found "much the same efficiency".
    // In our model the SU absorbs message-handling time; verify it helps
    // a little but not dramatically at application granularity.
    let run = |dual: bool| {
        let cfg = if dual {
            MachineConfig::manna(4).with_dual_processor()
        } else {
            MachineConfig::manna(4)
        };
        let mut rt = Runtime::new(cfg, 5);
        let burn = rt.register("burn", burn_ctor);
        for _ in 0..64 {
            let mut a = ArgsWriter::new();
            a.u64(300);
            rt.inject_token(burn, a.finish());
        }
        rt.run()
    };
    let single = run(false);
    let dual = run(true);
    assert!(dual.elapsed <= single.elapsed, "SU must not slow things");
    let ratio = single.elapsed.as_us_f64() / dual.elapsed.as_us_f64();
    assert!(
        ratio < 1.3,
        "at this granularity the single-processor version should be competitive \
         (the paper's observation); got {ratio}"
    );
    // The SU did real work in dual mode.
    let su: u64 = dual.nodes.iter().map(|n| n.su_time.as_ns()).sum();
    assert!(su > 0, "SU time must be accounted");
    let su_single: u64 = single.nodes.iter().map(|n| n.su_time.as_ns()).sum();
    assert_eq!(su_single, 0);
}

#[test]
fn trace_records_activity_and_renders_timeline() {
    let mut rt = Runtime::new(MachineConfig::manna(4), 9);
    rt.enable_profile();
    let burn = rt.register("burn", burn_ctor);
    for _ in 0..16 {
        let mut a = ArgsWriter::new();
        a.u64(200);
        rt.inject_token(burn, a.finish());
    }
    let report = rt.run();
    let trace = rt.take_profile().trace;
    assert!(!trace.spans.is_empty());
    // Trace busy time matches the report's per-node busy accounting.
    for (i, ns) in report.nodes.iter().enumerate() {
        let traced = trace.busy(NodeId(i as u16));
        assert_eq!(traced, ns.busy, "node {i} trace/report busy mismatch");
    }
    let gantt = trace.timeline(4, 60);
    assert_eq!(gantt.lines().count(), 5);
    assert!(gantt.contains('t'), "token activity visible:\n{gantt}");
}
