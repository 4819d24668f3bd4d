//! The neural-network application (§3.3): unit parallelism on EARTH.
//!
//! The 3-layer fully-connected net is *sliced*: each machine node owns a
//! contiguous range of hidden units and of output units, and holds only
//! those units' weights and biases, cut from one seeded net when the run
//! starts ([`Layer::rows`]). They live in node-local memory for the whole
//! run ("long-term data ... maintained per node"); no node ever reads
//! another node's rows, and the crash and slow planes re-home only
//! tokens. Communication is centralized through node 0, which
//! collects each layer's activations and distributes the next layer's
//! input, organized as a binary tree ("in comparison to an earlier
//! version using sequential communications, speedups increased — for 80
//! units from a maximum of 8 to a maximum of 12"); the sequential shape
//! is kept as an ablation ([`CommsShape::Sequential`]).
//!
//! Per training sample (forward + backward):
//! 1. central broadcasts the input vector; every node computes its hidden
//!    slice and split-phase-stores it into central's buffer;
//! 2. central broadcasts the assembled hidden vector (plus the target for
//!    backprop); every node computes its output slice — and, for
//!    backprop, its output deltas, weight updates, and its *partial*
//!    hidden-error vector (different values for different units: the
//!    costlier backward communication the paper notes);
//! 3. (backward only) central sums the partials and broadcasts the hidden
//!    error; every node updates its hidden slice.
//!
//! The computation is the real `f32` arithmetic of `earth-nn`; forward
//! activations are validated bit-for-bit against the sequential network.

use earth_machine::{MachineConfig, NodeId};
use earth_nn::cost::{backward_slice_cost, error_calc_cost, forward_slice_cost};
use earth_nn::net::{sigmoid_prime, Layer, Mlp};
use earth_nn::slice::{partition, UnitRange};
use earth_rt::{
    ArgsReader, ArgsWriter, Ctx, FuncId, GlobalAddr, Payload, Runtime, SlotId, SlotRef, ThreadId,
    ThreadedFn,
};
use earth_sim::{Rng, VirtualDuration, VirtualTime};

/// Which passes each sample performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PassMode {
    /// Forward only (Fig. 7).
    Forward,
    /// Forward + backpropagation + weight update (Fig. 8).
    ForwardBackward,
}

/// Shape of the central node's collect/distribute communication.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommsShape {
    /// Central sends to every node in sequence (the paper's "earlier
    /// version").
    Sequential,
    /// Binary-tree forwarding (the published configuration).
    Tree,
}

const LEARNING_RATE: f32 = 0.5;

fn f32s_to_bytes(v: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn bytes_to_f32s(b: &[u8]) -> Vec<f32> {
    b.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Node-local state.
struct NeuralState {
    /// This node's hidden units: local unit `u` is unit
    /// `hidden_range.lo + u` of the net.
    hidden: Layer,
    /// This node's output units, numbered the same way.
    output: Layer,
    hidden_range: UnitRange,
    output_range: UnitRange,
    /// Last input received (needed for the hidden weight update).
    last_input: Vec<f32>,
    /// Last full hidden vector received (needed for output-layer math and
    /// the hidden delta).
    last_hidden: Vec<f32>,
    /// Central only: per-sample log of full output vectors.
    outputs_log: Vec<Vec<f32>>,
}

impl NeuralState {
    /// Phase 1: this node's hidden activations on `input`.
    fn hidden_forward(&mut self, input: Vec<f32>) -> Vec<f32> {
        self.last_input = input;
        self.hidden.forward(&self.last_input)
    }

    /// Phase 2: this node's output activations on the full hidden vector.
    fn output_forward(&mut self, hidden: Vec<f32>) -> Vec<f32> {
        self.last_hidden = hidden;
        self.output.forward(&self.last_hidden)
    }

    /// Phase 3: output deltas of this node's activations `out` against
    /// its `target` slice, its output-row update, and its partial hidden
    /// error.
    fn output_backward(&mut self, out: &[f32], target: &[f32]) -> Vec<f32> {
        let delta: Vec<f32> = out
            .iter()
            .zip(target)
            .map(|(&a, &t)| (a - t) * sigmoid_prime(a))
            .collect();
        let n = self.output.units;
        let partial = self.output.backward_partials(0, n, &delta);
        self.output
            .update_slice(0, n, &delta, &self.last_hidden, LEARNING_RATE);
        partial
    }

    /// Phase 4: hidden deltas from this node's slice `err` of the summed
    /// hidden error, and its hidden-row update.
    fn hidden_backward(&mut self, err: &[f32]) {
        let r = self.hidden_range;
        let delta: Vec<f32> = err
            .iter()
            .zip(&self.last_hidden[r.lo..r.hi])
            .map(|(&e, &h)| e * sigmoid_prime(h))
            .collect();
        self.hidden
            .update_slice(0, r.len(), &delta, &self.last_input, LEARNING_RATE);
    }
}

/// Header every phase message carries besides its payload.
struct PhaseHeader {
    phase: u8,
    shape: CommsShape,
    reply_addr: GlobalAddr,
    reply_slot: SlotRef,
    partial_base: GlobalAddr,
}

fn write_header(w: &mut ArgsWriter, h: &PhaseHeader) {
    w.u8(h.phase)
        .u8(match h.shape {
            CommsShape::Sequential => 0,
            CommsShape::Tree => 1,
        })
        .addr(h.reply_addr)
        .slot(h.reply_slot)
        .addr(h.partial_base);
}

fn read_header(r: &mut ArgsReader<'_>) -> PhaseHeader {
    PhaseHeader {
        phase: r.u8(),
        shape: if r.u8() == 0 {
            CommsShape::Sequential
        } else {
            CommsShape::Tree
        },
        reply_addr: r.addr(),
        reply_slot: r.slot(),
        partial_base: r.addr(),
    }
}

/// Transient per-phase worker frame (one per node per phase message).
struct PhaseWork {
    header: PhaseHeader,
    payload: Box<[u8]>,
    me: FuncId,
}

/// One phase message: header, phase function and payload, encoded once
/// and shared by every recipient.
fn phase_message(header: &PhaseHeader, func: FuncId, payload: &[u8]) -> Payload {
    let mut args = ArgsWriter::new();
    write_header(&mut args, header);
    args.u32(func.0);
    args.raw(payload);
    args.finish()
}

impl PhaseWork {
    fn forward_to_children(&self, ctx: &mut Ctx<'_>) {
        if self.header.shape != CommsShape::Tree {
            return;
        }
        let children =
            earth_machine::topology::broadcast_children(NodeId(0), ctx.node(), ctx.num_nodes());
        if children.is_empty() {
            return;
        }
        let msg = phase_message(&self.header, self.me, &self.payload);
        for child in children {
            ctx.invoke(child, self.me, msg.clone());
        }
    }
}

impl ThreadedFn for PhaseWork {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        // Forward down the tree before computing, so the broadcast
        // pipeline overlaps with local work.
        self.forward_to_children(ctx);
        let (hidden_range, output_range, n_in, n_hidden) = {
            let st: &NeuralState = ctx.user();
            (
                st.hidden_range,
                st.output_range,
                st.hidden.fanin,
                st.output.fanin,
            )
        };
        match self.header.phase {
            1 => {
                // Hidden slice on the broadcast input.
                let input = bytes_to_f32s(&self.payload);
                let slice = ctx.user_mut::<NeuralState>().hidden_forward(input);
                ctx.compute(forward_slice_cost(hidden_range.len(), n_in));
                let dst = self.header.reply_addr.plus(4 * hidden_range.lo as u32);
                ctx.data_sync(&f32s_to_bytes(&slice), dst, Some(self.header.reply_slot));
            }
            2 | 3 => {
                // Phase 2: output slice forward; phase 3 adds the
                // backward math (deltas, updates, partial hidden error).
                let backward = self.header.phase == 3;
                let (hidden, target) = self.payload.split_at(4 * n_hidden);
                let slice = ctx
                    .user_mut::<NeuralState>()
                    .output_forward(bytes_to_f32s(hidden));
                ctx.compute(forward_slice_cost(output_range.len(), n_hidden));
                let dst = self.header.reply_addr.plus(4 * output_range.lo as u32);
                ctx.data_sync(&f32s_to_bytes(&slice), dst, Some(self.header.reply_slot));
                if backward {
                    let target = bytes_to_f32s(&target[4 * output_range.lo..4 * output_range.hi]);
                    let partial = ctx
                        .user_mut::<NeuralState>()
                        .output_backward(&slice, &target);
                    ctx.compute(backward_slice_cost(output_range.len(), n_hidden));
                    // Each node owns one region of the partial buffer.
                    let region = self
                        .header
                        .partial_base
                        .plus(4 * n_hidden as u32 * ctx.node().0 as u32);
                    ctx.data_sync(
                        &f32s_to_bytes(&partial),
                        region,
                        Some(self.header.reply_slot),
                    );
                }
            }
            4 => {
                // Hidden-layer backward: receive summed hidden error,
                // compute deltas, update weights.
                let err = bytes_to_f32s(&self.payload[4 * hidden_range.lo..4 * hidden_range.hi]);
                ctx.user_mut::<NeuralState>().hidden_backward(&err);
                ctx.compute(backward_slice_cost(hidden_range.len(), n_in));
                ctx.sync(self.header.reply_slot);
            }
            other => unreachable!("no phase {other}"),
        }
        ctx.end();
    }
}

fn phase_ctor(args: &mut ArgsReader<'_>) -> Box<dyn ThreadedFn> {
    let header = read_header(args);
    let me = FuncId(args.u32());
    Box::new(PhaseWork {
        header,
        payload: args.rest().into(),
        me,
    })
}

/// The driving frame on node 0.
struct Central {
    phase_fn: FuncId,
    mode: PassMode,
    shape: CommsShape,
    samples: Vec<(Vec<f32>, Vec<f32>)>,
    sample: usize,
    n_hidden: usize,
    n_out: usize,
    hidden_buf: GlobalAddr,
    out_buf: GlobalAddr,
    partial_buf: GlobalAddr,
}

const SLOT_HIDDEN: SlotId = SlotId(0);
const SLOT_OUTPUT: SlotId = SlotId(1);
const SLOT_BACK: SlotId = SlotId(2);
const T_HIDDEN_DONE: ThreadId = ThreadId(1);
const T_OUTPUT_DONE: ThreadId = ThreadId(2);
const T_BACK_DONE: ThreadId = ThreadId(3);

impl Central {
    fn broadcast(&self, ctx: &mut Ctx<'_>, header: PhaseHeader, payload_bytes: &[u8]) {
        let n = ctx.num_nodes();
        let targets: Vec<NodeId> = match self.shape {
            CommsShape::Sequential => (1..n).map(NodeId).collect(),
            CommsShape::Tree => {
                earth_machine::topology::broadcast_children(NodeId(0), NodeId(0), n)
            }
        };
        let msg = phase_message(&header, self.phase_fn, payload_bytes);
        for node in targets {
            ctx.invoke(node, self.phase_fn, msg.clone());
        }
    }

    fn finish_sample(&mut self, ctx: &mut Ctx<'_>) {
        self.sample += 1;
        if self.sample < self.samples.len() {
            ctx.spawn(ThreadId(0));
        } else {
            ctx.mark("neural-done");
            ctx.end();
        }
    }
}

impl ThreadedFn for Central {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        let p = ctx.num_nodes() as usize;
        let remote = (p - 1) as i32;
        match tid {
            // Start one sample: broadcast input, compute own hidden slice.
            ThreadId(0) => {
                let input = self.samples[self.sample].0.clone();
                if remote > 0 {
                    ctx.init_sync(SLOT_HIDDEN, remote, remote, T_HIDDEN_DONE);
                    let header = PhaseHeader {
                        phase: 1,
                        shape: self.shape,
                        reply_addr: self.hidden_buf,
                        reply_slot: ctx.slot_ref(SLOT_HIDDEN),
                        partial_base: self.partial_buf,
                    };
                    self.broadcast(ctx, header, &f32s_to_bytes(&input));
                }
                let st = ctx.user_mut::<NeuralState>();
                let (range, fanin) = (st.hidden_range, st.hidden.fanin);
                let slice = st.hidden_forward(input);
                ctx.compute(forward_slice_cost(range.len(), fanin));
                ctx.write_local(
                    self.hidden_buf.offset + 4 * range.lo as u32,
                    &f32s_to_bytes(&slice),
                );
                if remote == 0 {
                    ctx.spawn(T_HIDDEN_DONE);
                }
            }
            // Hidden layer complete: broadcast it (with target for
            // backprop), compute own output slice (and backward math).
            T_HIDDEN_DONE => {
                let backward = self.mode == PassMode::ForwardBackward;
                let mut payload = ctx.read_local(self.hidden_buf.offset, 4 * self.n_hidden as u32);
                let hidden = bytes_to_f32s(&payload);
                let target = &self.samples[self.sample].1;
                if remote > 0 {
                    let signals = if backward { 2 * remote } else { remote };
                    ctx.init_sync(SLOT_OUTPUT, signals, signals, T_OUTPUT_DONE);
                    let phase = if backward {
                        payload.extend_from_slice(&f32s_to_bytes(target));
                        3
                    } else {
                        2
                    };
                    let header = PhaseHeader {
                        phase,
                        shape: self.shape,
                        reply_addr: self.out_buf,
                        reply_slot: ctx.slot_ref(SLOT_OUTPUT),
                        partial_base: self.partial_buf,
                    };
                    self.broadcast(ctx, header, &payload);
                }
                let st = ctx.user_mut::<NeuralState>();
                let (range, fanin) = (st.output_range, st.output.fanin);
                let slice = st.output_forward(hidden);
                ctx.compute(forward_slice_cost(range.len(), fanin));
                ctx.write_local(
                    self.out_buf.offset + 4 * range.lo as u32,
                    &f32s_to_bytes(&slice),
                );
                if backward {
                    let partial = ctx
                        .user_mut::<NeuralState>()
                        .output_backward(&slice, &target[range.lo..range.hi]);
                    ctx.compute(backward_slice_cost(range.len(), fanin));
                    ctx.write_local(self.partial_buf.offset, &f32s_to_bytes(&partial));
                }
                if remote == 0 {
                    ctx.spawn(T_OUTPUT_DONE);
                }
            }
            // Output complete: error calc; for backprop, reduce partials
            // and broadcast the hidden error.
            T_OUTPUT_DONE => {
                let output =
                    bytes_to_f32s(&ctx.read_local(self.out_buf.offset, 4 * self.n_out as u32));
                ctx.compute(error_calc_cost(self.n_out));
                ctx.user_mut::<NeuralState>().outputs_log.push(output);
                if self.mode == PassMode::Forward {
                    self.finish_sample(ctx);
                    return;
                }
                // Sum the partial hidden-error vectors (own + remote).
                let mut err = vec![0.0f32; self.n_hidden];
                for node in 0..p {
                    let region = bytes_to_f32s(&ctx.read_local(
                        self.partial_buf.offset + 4 * self.n_hidden as u32 * node as u32,
                        4 * self.n_hidden as u32,
                    ));
                    for (e, r) in err.iter_mut().zip(&region) {
                        *e += r;
                    }
                }
                ctx.compute(VirtualDuration::from_ns(50 * (p * self.n_hidden) as u64));
                if remote > 0 {
                    ctx.init_sync(SLOT_BACK, remote, remote, T_BACK_DONE);
                    let header = PhaseHeader {
                        phase: 4,
                        shape: self.shape,
                        reply_addr: self.out_buf,
                        reply_slot: ctx.slot_ref(SLOT_BACK),
                        partial_base: self.partial_buf,
                    };
                    self.broadcast(ctx, header, &f32s_to_bytes(&err));
                }
                // Own hidden slice backward.
                let st = ctx.user_mut::<NeuralState>();
                let (r, fanin) = (st.hidden_range, st.hidden.fanin);
                st.hidden_backward(&err[r.lo..r.hi]);
                ctx.compute(backward_slice_cost(r.len(), fanin));
                if remote == 0 {
                    ctx.spawn(T_BACK_DONE);
                }
            }
            T_BACK_DONE => {
                self.finish_sample(ctx);
            }
            other => unreachable!("central has no thread {other:?}"),
        }
    }
}

/// Result of a parallel neural-network run.
pub struct NeuralRun {
    /// Per-sample full output vectors (as observed at the central node).
    pub outputs: Vec<Vec<f32>>,
    /// Mean virtual time per sample.
    pub per_sample: VirtualDuration,
    /// Total elapsed virtual time.
    pub elapsed: VirtualDuration,
    /// Raw runtime report.
    pub report: earth_rt::RunReport,
    /// earth-profile data (filled by [`run_neural_profiled`]).
    pub profile: Option<earth_rt::RunProfile>,
}

/// Run `samples` training samples of a square `units`-wide network over
/// `nodes` simulated nodes (the paper's configuration).
pub fn run_neural(
    units: usize,
    nodes: u16,
    samples: usize,
    seed: u64,
    mode: PassMode,
    shape: CommsShape,
) -> NeuralRun {
    run_neural_inner(
        MachineConfig::manna(nodes),
        [units; 3],
        samples,
        seed,
        mode,
        shape,
        false,
    )
}

/// Like [`run_neural`] with earth-profile collection on; timing is
/// identical to the unprofiled run.
pub fn run_neural_profiled(
    units: usize,
    nodes: u16,
    samples: usize,
    seed: u64,
    mode: PassMode,
    shape: CommsShape,
) -> NeuralRun {
    run_neural_inner(
        MachineConfig::manna(nodes),
        [units; 3],
        samples,
        seed,
        mode,
        shape,
        true,
    )
}

/// Run a network with per-layer widths (the paper's §3.3 closing remark:
/// "the number of units may differ per layer") on a caller-supplied
/// machine: fault plan, crash schedule, dual processors, event queue
/// and interconnect all come from `cfg`. The reliability and recovery
/// planes keep the trained weights and outputs bit-identical to the
/// fault-free run's; only virtual time degrades.
#[allow(clippy::too_many_arguments)]
pub fn run_neural_on(
    cfg: MachineConfig,
    n_in: usize,
    n_hidden: usize,
    n_out: usize,
    samples: usize,
    seed: u64,
    mode: PassMode,
    shape: CommsShape,
) -> NeuralRun {
    let widths = [n_in, n_hidden, n_out];
    run_neural_inner(cfg, widths, samples, seed, mode, shape, false)
}

fn run_neural_inner(
    cfg: MachineConfig,
    [n_in, n_hidden, n_out]: [usize; 3],
    samples: usize,
    seed: u64,
    mode: PassMode,
    shape: CommsShape,
    profile: bool,
) -> NeuralRun {
    assert!(samples >= 1);
    let nodes = cfg.nodes;
    let mut rt = Runtime::new(cfg, seed);
    if profile {
        rt.enable_profile();
    }
    let hidden_ranges = partition(n_hidden, nodes as usize);
    let out_ranges = partition(n_out, nodes as usize);
    let net = Mlp::new(n_in, n_hidden, n_out, seed ^ 0xD1);
    for node in 0..nodes {
        let (h, o) = (hidden_ranges[node as usize], out_ranges[node as usize]);
        rt.set_state(
            NodeId(node),
            NeuralState {
                hidden: net.hidden.rows(h.lo, h.hi),
                output: net.output.rows(o.lo, o.hi),
                hidden_range: h,
                output_range: o,
                last_input: Vec::new(),
                last_hidden: Vec::new(),
                outputs_log: Vec::new(),
            },
        );
    }
    // Buffers on the central node.
    let hidden_buf = rt.alloc_on(NodeId(0), 4 * n_hidden as u32);
    let out_buf = rt.alloc_on(NodeId(0), 4 * n_out as u32);
    let partial_buf = rt.alloc_on(NodeId(0), 4 * n_hidden as u32 * nodes as u32);

    // Seeded sample stream.
    let mut rng = Rng::new(seed ^ 0x5A);
    let sample_set: Vec<(Vec<f32>, Vec<f32>)> = (0..samples)
        .map(|_| {
            let x = (0..n_in)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let t = (0..n_out)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            (x, t)
        })
        .collect();

    let phase_fn = rt.register("nn-phase", phase_ctor);
    let central_samples = sample_set;
    let central_fn = rt.register("nn-central", move |_| {
        Box::new(Central {
            phase_fn,
            mode,
            shape,
            samples: central_samples.clone(),
            sample: 0,
            n_hidden,
            n_out,
            hidden_buf,
            out_buf,
            partial_buf,
        })
    });
    rt.inject_invoke(NodeId(0), central_fn, ArgsWriter::new().finish());
    let report = rt.run();
    assert!(report.is_clean(), "neural run left debris: {report}");
    let done = report.mark("neural-done").expect("run incomplete");
    let elapsed = done.since(VirtualTime::ZERO);
    let outputs = std::mem::take(&mut rt.state_mut::<NeuralState>(NodeId(0)).outputs_log);
    let profile = profile.then(|| rt.take_profile());
    NeuralRun {
        outputs,
        per_sample: elapsed / samples as u64,
        elapsed,
        report,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_sequential_bit_for_bit() {
        let units = 24;
        let run = run_neural(units, 5, 3, 11, PassMode::Forward, CommsShape::Tree);
        // Recreate the reference: same net seed, same sample stream.
        let net = Mlp::square(units, 11 ^ 0xD1);
        let mut rng = Rng::new(11 ^ 0x5A);
        for sample_out in &run.outputs {
            let x: Vec<f32> = (0..units)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let _t: Vec<f32> = (0..units)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            let want = net.forward(&x);
            assert_eq!(sample_out, &want.output, "unit slicing must be exact");
        }
    }

    #[test]
    fn backward_tracks_sequential_training() {
        let units = 16;
        let samples = 4;
        let run = run_neural(
            units,
            4,
            samples,
            7,
            PassMode::ForwardBackward,
            CommsShape::Tree,
        );
        // Sequential reference with identical sample stream.
        let mut net = Mlp::square(units, 7 ^ 0xD1);
        let mut rng = Rng::new(7 ^ 0x5A);
        for sample_out in &run.outputs {
            let x: Vec<f32> = (0..units)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let t: Vec<f32> = (0..units)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            let acts = net.forward(&x);
            for (a, b) in sample_out.iter().zip(&acts.output) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "parallel {a} vs sequential {b} (f32 reduction order)"
                );
            }
            net.train_sample(&x, &t, LEARNING_RATE);
        }
    }

    #[test]
    fn single_node_runs() {
        let run = run_neural(8, 1, 2, 3, PassMode::ForwardBackward, CommsShape::Tree);
        assert_eq!(run.outputs.len(), 2);
        assert_eq!(run.report.net_messages, 0);
    }

    #[test]
    fn tree_beats_sequential_comms_at_scale() {
        let units = 80;
        let seq = run_neural(units, 16, 3, 5, PassMode::Forward, CommsShape::Sequential);
        let tree = run_neural(units, 16, 3, 5, PassMode::Forward, CommsShape::Tree);
        assert!(
            tree.per_sample < seq.per_sample,
            "tree {} vs sequential {}",
            tree.per_sample,
            seq.per_sample
        );
    }

    #[test]
    fn parallel_is_faster_than_one_node() {
        let units = 80;
        let one = run_neural(units, 1, 2, 9, PassMode::Forward, CommsShape::Tree);
        let sixteen = run_neural(units, 16, 2, 9, PassMode::Forward, CommsShape::Tree);
        let speedup = one.per_sample.as_us_f64() / sixteen.per_sample.as_us_f64();
        assert!(speedup > 4.0, "speedup {speedup}");
    }
}

#[cfg(test)]
mod shaped_tests {
    use super::*;

    #[test]
    fn rectangular_forward_is_bit_exact() {
        // 12 inputs, 20 hidden, 6 outputs over 5 nodes.
        let (n_in, n_hidden, n_out) = (12, 20, 6);
        let run = run_neural_on(
            MachineConfig::manna(5),
            n_in,
            n_hidden,
            n_out,
            2,
            13,
            PassMode::Forward,
            CommsShape::Tree,
        );
        let net = Mlp::new(n_in, n_hidden, n_out, 13 ^ 0xD1);
        let mut rng = Rng::new(13 ^ 0x5A);
        for out in &run.outputs {
            let x: Vec<f32> = (0..n_in)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let _t: Vec<f32> = (0..n_out)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            assert_eq!(out, &net.forward(&x).output);
            assert_eq!(out.len(), n_out);
        }
    }

    #[test]
    fn rectangular_backward_tracks_sequential() {
        let (n_in, n_hidden, n_out) = (8, 14, 5);
        let run = run_neural_on(
            MachineConfig::manna(4),
            n_in,
            n_hidden,
            n_out,
            3,
            21,
            PassMode::ForwardBackward,
            CommsShape::Sequential,
        );
        let mut net = Mlp::new(n_in, n_hidden, n_out, 21 ^ 0xD1);
        let mut rng = Rng::new(21 ^ 0x5A);
        for out in &run.outputs {
            let x: Vec<f32> = (0..n_in)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let t: Vec<f32> = (0..n_out)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            let acts = net.forward(&x);
            for (a, b) in out.iter().zip(&acts.output) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
            net.train_sample(&x, &t, LEARNING_RATE);
        }
    }
}

#[cfg(test)]
mod parity_tests {
    use super::*;

    /// Sequential training in the app's own order: per-unit forward and
    /// update, with the hidden error summed per node slice of the output
    /// layer in node order, as central sums the partials it collects.
    /// Returns each sample's output before that sample's update.
    fn sliced_reference(
        [n_in, n_hidden, n_out]: [usize; 3],
        nodes: u16,
        samples: usize,
        seed: u64,
    ) -> Vec<Vec<f32>> {
        let mut net = Mlp::new(n_in, n_hidden, n_out, seed ^ 0xD1);
        let slices = partition(n_out, nodes as usize);
        let mut rng = Rng::new(seed ^ 0x5A);
        (0..samples)
            .map(|_| {
                let x: Vec<f32> = (0..n_in)
                    .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                    .collect();
                let t: Vec<f32> = (0..n_out)
                    .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                    .collect();
                let acts = net.forward(&x);
                let delta: Vec<f32> = acts
                    .output
                    .iter()
                    .zip(&t)
                    .map(|(&a, &t)| (a - t) * sigmoid_prime(a))
                    .collect();
                let mut err = vec![0.0f32; n_hidden];
                for s in &slices {
                    let partial = net.output.backward_partials(s.lo, s.hi, &delta[s.lo..s.hi]);
                    for (e, p) in err.iter_mut().zip(&partial) {
                        *e += p;
                    }
                }
                let hidden_delta: Vec<f32> = acts
                    .hidden
                    .iter()
                    .zip(&err)
                    .map(|(&h, &e)| e * sigmoid_prime(h))
                    .collect();
                net.output
                    .update_slice(0, n_out, &delta, &acts.hidden, LEARNING_RATE);
                net.hidden
                    .update_slice(0, n_hidden, &hidden_delta, &x, LEARNING_RATE);
                acts.output
            })
            .collect()
    }

    fn assert_bit_parity(widths: [usize; 3], nodes: u16, shape: CommsShape) {
        let (samples, seed) = (6, 31);
        let [n_in, n_hidden, n_out] = widths;
        let run = run_neural_on(
            MachineConfig::manna(nodes),
            n_in,
            n_hidden,
            n_out,
            samples,
            seed,
            PassMode::ForwardBackward,
            shape,
        );
        let want = sliced_reference(widths, nodes, samples, seed);
        assert_eq!(run.outputs.len(), samples);
        for (k, (got, want)) in run.outputs.iter().zip(&want).enumerate() {
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{widths:?} on {nodes} nodes, sample {k}");
        }
    }

    #[test]
    fn forward_backward_is_bit_exact_on_a_tree() {
        assert_bit_parity([44; 3], 6, CommsShape::Tree);
    }

    #[test]
    fn rectangular_forward_backward_is_bit_exact_sequentially() {
        assert_bit_parity([13, 29, 11], 4, CommsShape::Sequential);
    }

    #[test]
    fn forward_backward_is_bit_exact_with_empty_slices() {
        assert_bit_parity([7; 3], 8, CommsShape::Tree);
    }
}
