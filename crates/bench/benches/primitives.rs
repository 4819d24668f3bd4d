//! Micro-benchmarks of the runtime primitives (host time of the
//! simulator): a remote-invoke ping-pong, token fan-out through the
//! load balancer, and split-phase gets.

use earth_machine::{MachineConfig, NodeId};
use earth_rt::{ArgsWriter, Ctx, Runtime, SlotId, ThreadId, ThreadedFn};
use earth_sim::VirtualDuration;
use earth_testkit::bench::Bench;

/// Ping-pong over EARTH split-phase stores.
struct Pinger {
    rounds: u32,
    left: u32,
    peer: NodeId,
    me_fn: u32,
}

impl ThreadedFn for Pinger {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        match tid {
            ThreadId(0) => {
                if self.left == 0 {
                    ctx.mark("done");
                    ctx.end();
                    return;
                }
                self.left -= 1;
                let mut a = ArgsWriter::new();
                a.u32(self.rounds)
                    .u32(self.left)
                    .node(ctx.node())
                    .u32(self.me_fn);
                ctx.invoke(self.peer, earth_rt::FuncId(self.me_fn), a.finish());
                ctx.end();
            }
            _ => unreachable!(),
        }
    }
}

fn earth_pingpong(rounds: u32) -> VirtualDuration {
    let mut rt = Runtime::new(MachineConfig::manna(2), 1);
    let f = rt.register("ping", |a| {
        let rounds = a.u32();
        let left = a.u32();
        let peer = a.node();
        let me_fn = a.u32();
        Box::new(Pinger {
            rounds,
            left,
            peer,
            me_fn,
        })
    });
    let mut a = ArgsWriter::new();
    a.u32(rounds).u32(2 * rounds).node(NodeId(1)).u32(f.0);
    rt.inject_invoke(NodeId(0), f, a.finish());
    rt.run().elapsed
}

fn bench_primitives(c: &mut Bench) {
    let mut g = c.benchmark_group("primitives");
    g.bench_function("earth_pingpong_100", |b| b.iter(|| earth_pingpong(100)));
}

/// Token fan-out: cost of dynamic load balancing.
struct Burn;

impl ThreadedFn for Burn {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        ctx.compute(VirtualDuration::from_us(50));
        ctx.end();
    }
}

fn bench_load_balancer(c: &mut Bench) {
    let mut g = c.benchmark_group("load_balancer");
    for nodes in [4u16, 16] {
        g.bench_function(format!("steal_256_tokens_{nodes}nodes"), |b| {
            b.iter_batched(
                || {
                    let mut rt = Runtime::new(MachineConfig::manna(nodes), 3);
                    let f = rt.register("burn", |_| Box::new(Burn));
                    for _ in 0..256 {
                        rt.inject_token(f, ArgsWriter::new().finish());
                    }
                    rt
                },
                |mut rt| rt.run(),
            )
        });
    }
}

/// Split-phase vs blocked transfer shapes (sync-slot machinery cost).
struct Getter {
    src: earth_rt::GlobalAddr,
    n: u32,
}

impl ThreadedFn for Getter {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        match tid {
            ThreadId(0) => {
                let scratch = ctx.alloc(8 * self.n).offset;
                ctx.init_sync(SlotId(0), self.n as i32, 0, ThreadId(1));
                for i in 0..self.n {
                    ctx.get_sync(self.src.plus(8 * i), scratch + 8 * i, 8, SlotId(0));
                }
            }
            ThreadId(1) => {
                ctx.mark("done");
                ctx.end();
            }
            _ => unreachable!(),
        }
    }
}

fn bench_split_phase(c: &mut Bench) {
    c.bench_function("split_phase_256_gets", |b| {
        b.iter_batched(
            || {
                let mut rt = Runtime::new(MachineConfig::manna(2), 1);
                let src = rt.alloc_on(NodeId(1), 8 * 256);
                let f = rt.register("get", move |a| Box::new(Getter { src, n: a.u32() }));
                let mut a = ArgsWriter::new();
                a.u32(256);
                rt.inject_invoke(NodeId(0), f, a.finish());
                rt
            },
            |mut rt| rt.run(),
        )
    });
}

earth_testkit::bench_main!(bench_primitives, bench_load_balancer, bench_split_phase);
