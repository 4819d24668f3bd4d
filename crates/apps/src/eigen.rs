//! The Eigenvalue application (§3.1): bisection search over EARTH TOKENs.
//!
//! The tridiagonal matrix is replicated on every node (host-side setup,
//! as on the real machine); "only interval boundaries need to be
//! communicated". Every search node of the bisection tree becomes one
//! EARTH `TOKEN` — no grouping, exactly as the paper states — whose
//! 28-byte argument record (3 integers + 2 doubles, Table 1) lives in the
//! parent's node memory and is fetched by the child either with five
//! individual split-phase `GET_SYNC`s or with one block move: the two
//! variants of Fig. 2.
//!
//! Tree join: each task signals its parent's sync slot when its subtree
//! completes; leaves additionally deliver their eigenvalues to a
//! collector on node 0. The run ends when node 0 has received all `n`
//! eigenvalues and the root task has joined.

use earth_linalg::bisect::{root_interval, step, Interval, Step};
use earth_linalg::cost::{emit_cost, sturm_cost};
use earth_linalg::SymTridiagonal;
use earth_machine::{MachineConfig, NodeId};
use earth_rt::{
    ArgsReader, ArgsWriter, Ctx, FuncId, GlobalAddr, Runtime, SlotId, SlotRef, ThreadId, ThreadedFn,
};
use earth_sim::{VirtualDuration, VirtualTime};

/// How a task fetches its argument record from the parent's node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FetchMode {
    /// Five individual `GET_SYNC`s (pointer-dereference style; the McCAT
    /// compiler path of the paper).
    Individual,
    /// One 28-byte block move.
    Block,
}

/// Node-local state: the replicated matrix plus (on node 0) the result
/// collector.
struct EigenState {
    matrix: SymTridiagonal,
    tol: f64,
    results: Vec<(f64, usize)>,
    /// The main frame's completion slot (set by `Main` at startup so the
    /// transient collector frames can signal it).
    main_slot: Option<SlotRef>,
}

/// Argument record layout in parent memory (Table 1's 28 bytes):
/// `lo: f64 | hi: f64 | count_lo: u32 | count_hi: u32 | depth: u32`.
/// Public because the traffic plane's eigen-class jobs reuse the same
/// record-passing idiom (child fetches its arguments from parent memory).
pub const REC_BYTES: u32 = 28;

/// Serialize an [`Interval`] into the 28-byte record at local `addr`.
pub fn write_record(ctx: &mut Ctx<'_>, addr: u32, iv: &Interval) {
    let mut bytes = Vec::with_capacity(REC_BYTES as usize);
    bytes.extend_from_slice(&iv.lo.to_le_bytes());
    bytes.extend_from_slice(&iv.hi.to_le_bytes());
    bytes.extend_from_slice(&(iv.count_lo as u32).to_le_bytes());
    bytes.extend_from_slice(&(iv.count_hi as u32).to_le_bytes());
    bytes.extend_from_slice(&iv.depth.to_le_bytes());
    ctx.write_local(addr, &bytes);
}

/// Deserialize the 28-byte record at local `addr` (inverse of
/// [`write_record`]).
pub fn read_record(ctx: &Ctx<'_>, addr: u32) -> Interval {
    let b = ctx.read_local(addr, REC_BYTES);
    Interval {
        lo: f64::from_le_bytes(b[0..8].try_into().unwrap()),
        hi: f64::from_le_bytes(b[8..16].try_into().unwrap()),
        count_lo: u32::from_le_bytes(b[16..20].try_into().unwrap()) as usize,
        count_hi: u32::from_le_bytes(b[20..24].try_into().unwrap()) as usize,
        depth: u32::from_le_bytes(b[24..28].try_into().unwrap()),
    }
}

/// One search task. Token args: parent record address, parent join slot,
/// own function id (for recursion), fetch mode.
struct Task {
    rec: GlobalAddr,
    parent: SlotRef,
    me: FuncId,
    record_fn: FuncId,
    mode: FetchMode,
    scratch: u32,
    children: u32,
}

const SLOT_FETCH: SlotId = SlotId(0);
const SLOT_JOIN: SlotId = SlotId(1);
const T_FETCHED: ThreadId = ThreadId(1);
const T_JOINED: ThreadId = ThreadId(2);

impl ThreadedFn for Task {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        match tid {
            // THREAD_0: fetch the argument record split-phase.
            ThreadId(0) => {
                self.scratch = ctx.alloc(REC_BYTES).offset;
                match self.mode {
                    FetchMode::Individual => {
                        // 5 loads: 2 doubles + 3 ints, each with its own
                        // split-phase transaction.
                        ctx.init_sync(SLOT_FETCH, 5, 0, T_FETCHED);
                        ctx.get_sync(self.rec, self.scratch, 8, SLOT_FETCH);
                        ctx.get_sync(self.rec.plus(8), self.scratch + 8, 8, SLOT_FETCH);
                        ctx.get_sync(self.rec.plus(16), self.scratch + 16, 4, SLOT_FETCH);
                        ctx.get_sync(self.rec.plus(20), self.scratch + 20, 4, SLOT_FETCH);
                        ctx.get_sync(self.rec.plus(24), self.scratch + 24, 4, SLOT_FETCH);
                    }
                    FetchMode::Block => {
                        ctx.init_sync(SLOT_FETCH, 1, 0, T_FETCHED);
                        ctx.get_sync(self.rec, self.scratch, REC_BYTES, SLOT_FETCH);
                    }
                }
            }
            // THREAD_1: record arrived — do the Sturm step.
            T_FETCHED => {
                let iv = read_record(ctx, self.scratch);
                let (n, outcome) = {
                    let st: &EigenState = ctx.user();
                    (st.matrix.n(), step(&st.matrix, iv, st.tol))
                };
                match outcome {
                    Step::Converged {
                        value,
                        multiplicity,
                    } => {
                        ctx.compute(emit_cost());
                        let mut args = ArgsWriter::new();
                        args.f64(value).u32(multiplicity as u32);
                        ctx.invoke(NodeId(0), self.record_fn, args.finish());
                        ctx.sync(self.parent);
                        ctx.end();
                    }
                    Step::Split(children) => {
                        ctx.compute(sturm_cost(n));
                        self.children = children.len() as u32;
                        ctx.init_sync(SLOT_JOIN, children.len() as i32, 0, T_JOINED);
                        for child in children {
                            let rec = ctx.alloc(REC_BYTES);
                            write_record(ctx, rec.offset, &child);
                            let mut args = ArgsWriter::new();
                            args.addr(rec)
                                .slot(ctx.slot_ref(SLOT_JOIN))
                                .u32(self.me.0)
                                .u32(self.record_fn.0)
                                .u8(match self.mode {
                                    FetchMode::Individual => 0,
                                    FetchMode::Block => 1,
                                });
                            ctx.token(self.me, args.finish());
                        }
                    }
                }
            }
            // THREAD_2: both children joined — join our parent.
            T_JOINED => {
                ctx.sync(self.parent);
                ctx.end();
            }
            other => unreachable!("task has no thread {other:?}"),
        }
    }
}

fn task_ctor(args: &mut ArgsReader<'_>) -> Box<dyn ThreadedFn> {
    let rec = args.addr();
    let parent = args.slot();
    let me = FuncId(args.u32());
    let record_fn = FuncId(args.u32());
    let mode = if args.u8() == 0 {
        FetchMode::Individual
    } else {
        FetchMode::Block
    };
    Box::new(Task {
        rec,
        parent,
        me,
        record_fn,
        mode,
        scratch: 0,
        children: 0,
    })
}

/// Collector frame on node 0: appends one leaf's eigenvalues and signals
/// the main frame once per eigenvalue.
struct RecordLeaf {
    value: f64,
    multiplicity: u32,
}

impl ThreadedFn for RecordLeaf {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        ctx.compute(VirtualDuration::from_us(2));
        let (value, mult) = (self.value, self.multiplicity);
        let main_slot = {
            let st = ctx.user_mut::<EigenState>();
            st.results.push((value, mult as usize));
            st.main_slot.expect("main frame registered its slot")
        };
        for _ in 0..mult {
            ctx.sync(main_slot);
        }
        ctx.end();
    }
}

/// Main frame on node 0: computes the root interval, launches the root
/// task, and waits for all `n` eigenvalues plus the tree join.
struct Main {
    task_fn: FuncId,
    record_fn: FuncId,
    mode: FetchMode,
}

const SLOT_ALL: SlotId = SlotId(0);
const T_DONE: ThreadId = ThreadId(1);

impl ThreadedFn for Main {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        match tid {
            ThreadId(0) => {
                let (n, root) = {
                    let st: &EigenState = ctx.user();
                    (st.matrix.n(), root_interval(&st.matrix))
                };
                // Gershgorin bounds: one pass over the matrix.
                ctx.compute(sturm_cost(n));
                // n eigenvalue signals + 1 root-join signal.
                ctx.init_sync(SLOT_ALL, n as i32 + 1, 0, T_DONE);
                let slot = ctx.slot_ref(SLOT_ALL);
                ctx.user_mut::<EigenState>().main_slot = Some(slot);
                let rec = ctx.alloc(REC_BYTES);
                write_record(ctx, rec.offset, &root);
                let mut args = ArgsWriter::new();
                args.addr(rec)
                    .slot(ctx.slot_ref(SLOT_ALL))
                    .u32(self.task_fn.0)
                    .u32(self.record_fn.0)
                    .u8(match self.mode {
                        FetchMode::Individual => 0,
                        FetchMode::Block => 1,
                    });
                ctx.token(self.task_fn, args.finish());
            }
            T_DONE => {
                ctx.mark("eigen-done");
                ctx.end();
            }
            other => unreachable!("main has no thread {other:?}"),
        }
    }
}

/// Everything a parallel eigenvalue run produces.
pub struct EigenRun {
    /// Eigenvalues found (sorted ascending, with multiplicity).
    pub eigenvalues: Vec<f64>,
    /// Virtual time from start to the `eigen-done` mark.
    pub elapsed: VirtualDuration,
    /// The raw runtime report.
    pub report: earth_rt::RunReport,
    /// earth-profile data (filled by [`run_eigen_profiled`]).
    pub profile: Option<earth_rt::RunProfile>,
}

/// Run the parallel bisection eigensolver on `nodes` simulated nodes.
pub fn run_eigen(
    matrix: &SymTridiagonal,
    tol: f64,
    nodes: u16,
    seed: u64,
    mode: FetchMode,
) -> EigenRun {
    run_eigen_inner(matrix, tol, MachineConfig::manna(nodes), seed, mode, false)
}

/// Like [`run_eigen`] with earth-profile collection on; timing is
/// identical to the unprofiled run.
pub fn run_eigen_profiled(
    matrix: &SymTridiagonal,
    tol: f64,
    nodes: u16,
    seed: u64,
    mode: FetchMode,
) -> EigenRun {
    run_eigen_inner(matrix, tol, MachineConfig::manna(nodes), seed, mode, true)
}

/// Run on a caller-supplied machine: fault plan, crash schedule, event
/// queue and interconnect all come from `cfg`. The reliability and
/// recovery planes keep the eigenvalues bit-identical to the fault-free
/// run's; only virtual time and the report's counters degrade.
pub fn run_eigen_on(
    matrix: &SymTridiagonal,
    tol: f64,
    cfg: MachineConfig,
    seed: u64,
    mode: FetchMode,
) -> EigenRun {
    run_eigen_inner(matrix, tol, cfg, seed, mode, false)
}

fn run_eigen_inner(
    matrix: &SymTridiagonal,
    tol: f64,
    cfg: MachineConfig,
    seed: u64,
    mode: FetchMode,
    profile: bool,
) -> EigenRun {
    let nodes = cfg.nodes;
    let mut rt = Runtime::new(cfg, seed);
    if profile {
        rt.enable_profile();
    }
    for node in 0..nodes {
        rt.set_state(
            NodeId(node),
            EigenState {
                matrix: matrix.clone(),
                tol,
                results: Vec::new(),
                main_slot: None,
            },
        );
    }
    let record_fn = rt.register("record-leaf", |args| {
        let value = args.f64();
        let multiplicity = args.u32();
        Box::new(RecordLeaf {
            value,
            multiplicity,
        })
    });
    let task_fn = rt.register("eigen-task", task_ctor);
    let main_fn = rt.register("eigen-main", move |_args| {
        Box::new(Main {
            task_fn,
            record_fn,
            mode,
        })
    });
    let _ = main_fn;
    rt.inject_invoke(NodeId(0), main_fn, ArgsWriter::new().finish());
    let report = rt.run();
    assert!(report.is_clean(), "eigen run left debris: {report}");
    let done = report
        .mark("eigen-done")
        .expect("eigen run did not complete");
    let mut eigenvalues: Vec<f64> = Vec::new();
    for &(v, m) in &rt.state::<EigenState>(NodeId(0)).results {
        for _ in 0..m {
            eigenvalues.push(v);
        }
    }
    eigenvalues.sort_by(|a, b| a.partial_cmp(b).unwrap());
    EigenRun {
        eigenvalues,
        elapsed: done.since(VirtualTime::ZERO),
        report,
        profile: profile.then(|| rt.take_profile()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_linalg::bisect::bisect_all;
    use earth_linalg::cost::sequential_runtime;

    fn check_matches_sequential(matrix: &SymTridiagonal, tol: f64, nodes: u16, mode: FetchMode) {
        let run = run_eigen(matrix, tol, nodes, 42, mode);
        let (seq, _) = bisect_all(matrix, tol);
        assert_eq!(run.eigenvalues.len(), seq.len());
        for (p, s) in run.eigenvalues.iter().zip(&seq) {
            assert!((p - s).abs() <= 2.0 * tol, "parallel {p} vs sequential {s}");
        }
    }

    #[test]
    fn parallel_matches_sequential_individual_fetch() {
        let m = SymTridiagonal::toeplitz(40, -2.0, 1.0);
        check_matches_sequential(&m, 1e-6, 4, FetchMode::Individual);
    }

    #[test]
    fn parallel_matches_sequential_block_fetch() {
        let m = SymTridiagonal::random_clustered(50, 3, 7);
        check_matches_sequential(&m, 1e-6, 6, FetchMode::Block);
    }

    #[test]
    fn single_node_works() {
        let m = SymTridiagonal::toeplitz(20, 0.0, 1.0);
        check_matches_sequential(&m, 1e-8, 1, FetchMode::Block);
    }

    #[test]
    fn speedup_is_near_linear() {
        let m = SymTridiagonal::random_clustered(64, 4, 3);
        let tol = 1e-7;
        let (_, stats) = bisect_all(&m, tol);
        let seq = sequential_runtime(&stats, m.n());
        let r1 = run_eigen(&m, tol, 1, 1, FetchMode::Block);
        let r8 = run_eigen(&m, tol, 8, 1, FetchMode::Block);
        let s1 = seq.as_us_f64() / r1.elapsed.as_us_f64();
        let s8 = seq.as_us_f64() / r8.elapsed.as_us_f64();
        assert!(s1 > 0.85, "1-node efficiency too low: {s1}");
        assert!(s8 > 5.0, "8-node speedup too low: {s8}");
    }

    #[test]
    fn fetch_modes_cost_differently_but_agree() {
        let m = SymTridiagonal::random_clustered(48, 3, 9);
        let tol = 1e-6;
        let a = run_eigen(&m, tol, 4, 5, FetchMode::Individual);
        let b = run_eigen(&m, tol, 4, 5, FetchMode::Block);
        assert_eq!(a.eigenvalues.len(), b.eigenvalues.len());
        // Individual fetch sends 5x the messages for argument records.
        assert!(a.report.net_messages > b.report.net_messages);
        // But the runtime difference is small (the paper found it
        // insignificant): within 25%.
        let ratio = a.elapsed.as_us_f64() / b.elapsed.as_us_f64();
        assert!((0.75..1.25).contains(&ratio), "ratio {ratio}");
    }
}
