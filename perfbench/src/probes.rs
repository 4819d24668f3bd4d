//! Isolated probes of the event queue, the network flight math and the
//! fault fate draw. Probe cost times the run's count of the same
//! operation estimates that layer's share of a run.

use earth_machine::{MachineConfig, Network, NodeId};
use earth_sim::{stream_word, LadderQueue, VirtualTime};
use std::hint::black_box;
use std::time::Instant;

/// Fixed seed of the probes' inputs: probes time the layer, not the workload.
const PROBE_SEED: u64 = 0x5EED;

/// Host nanoseconds per hold operation (pop the earliest event, push one
/// a random increment later) on a `LadderQueue` kept `depth` events deep.
pub fn sim_hold_ns(depth: usize, ops: usize) -> f64 {
    let depth = depth.max(1);
    // Increments average 1 µs per queued event, so the queue spans a
    // window of about `depth` µs, like a run's pending deliveries.
    let mean_ns = 1_000.0;
    let incr = |k: u64| -> u64 {
        let u = earth_sim::unit_f64(stream_word(PROBE_SEED, 0, k));
        (-(1.0 - u).ln() * mean_ns * depth as f64) as u64 + 1
    };
    let mut q: LadderQueue<u64> = LadderQueue::new();
    for k in 0..depth as u64 {
        q.push(VirtualTime::from_ns(incr(k)), k);
    }
    let steps: Vec<u64> = (0..ops as u64).map(|k| incr(depth as u64 + k)).collect();
    let t = Instant::now();
    for &step in &steps {
        let (at, ev) = q.pop().expect("the hold model keeps the queue full");
        q.push(VirtualTime::from_ns(at.as_ns() + step), black_box(ev));
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(q.len());
    ns / ops.max(1) as f64
}

/// Message endpoints and send instants shared by both send probes, so
/// they time the same sequence.
fn traffic(nodes: u16, msgs: usize) -> Vec<(VirtualTime, NodeId, NodeId)> {
    let n = u64::from(nodes.max(2));
    (0..msgs as u64)
        .map(|k| {
            let src = stream_word(PROBE_SEED, 1, k) % n;
            let dst = (src + 1 + stream_word(PROBE_SEED, 2, k) % (n - 1)) % n;
            // About one send per 100 ns of virtual time across the machine.
            let at = VirtualTime::from_ns(k * 100);
            (at, NodeId(src as u16), NodeId(dst as u16))
        })
        .collect()
}

/// Host nanoseconds per `Network::send_detailed` on `cfg`.
pub fn machine_send_ns(cfg: &MachineConfig, msgs: usize) -> f64 {
    let sends = traffic(cfg.nodes, msgs);
    let mut net = Network::new(cfg.clone(), 1);
    let t = Instant::now();
    for &(at, src, dst) in &sends {
        black_box(net.send_detailed(at, src, dst, black_box(64)));
    }
    t.elapsed().as_nanos() as f64 / msgs.max(1) as f64
}

/// Host nanoseconds per `Network::send_resolved` on `cfg`, whose fault
/// plan must be installed. Minus [`machine_send_ns`] on the same config,
/// this is the fate draw's cost.
pub fn faults_send_ns(cfg: &MachineConfig, msgs: usize) -> f64 {
    let sends = traffic(cfg.nodes, msgs);
    let mut net = Network::new(cfg.clone(), 1);
    assert!(net.has_faults(), "the fate probe needs a fault plan");
    let t = Instant::now();
    for &(at, src, dst) in &sends {
        black_box(net.send_resolved(at, src, dst, black_box(64)));
    }
    t.elapsed().as_nanos() as f64 / msgs.max(1) as f64
}
