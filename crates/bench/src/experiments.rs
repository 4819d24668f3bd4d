//! One function per table/figure of the paper.

use crate::workloads::*;
use earth_algebra::buchberger::{buchberger, SelectionStrategy};
use earth_algebra::inputs::{katsura, table2_inputs};
use earth_algebra::wire::wire_len;
use earth_apps::eigen::{run_eigen, run_eigen_on, run_eigen_profiled, EigenRun, FetchMode};
use earth_apps::groebner::{
    groebner_machine, run_groebner, run_groebner_on, run_groebner_profiled, GroebnerRun,
};
use earth_apps::neural::{run_neural, run_neural_on, CommsShape, PassMode};
use earth_linalg::bisect::bisect_all;
use earth_linalg::SymTridiagonal;
use earth_machine::{FaultPlan, MachineConfig, TopologyKind};
use earth_sim::{Summary, VirtualDuration, VirtualTime};
use std::fmt::Write as _;

/// Table 1: characteristics of the ScaLAPACK Eigenvalue algorithm.
pub struct Table1 {
    /// Matrix dimension.
    pub n: usize,
    /// Sequential virtual runtime.
    pub seq: VirtualDuration,
    /// Search nodes created.
    pub tasks: usize,
    /// Mean virtual time per step.
    pub mean_step: VirtualDuration,
    /// Leaf depth range.
    pub depth: (u32, u32),
}

/// Run the Table 1 characterization.
pub fn table1(scale: Scale) -> Table1 {
    let m = eigen_matrix(scale);
    let tol = eigen_tol(scale);
    let (_, stats) = bisect_all(&m, tol);
    let seq = earth_linalg::cost::sequential_runtime(&stats, m.n());
    Table1 {
        n: m.n(),
        seq,
        tasks: stats.tasks,
        mean_step: seq / stats.tasks as u64,
        depth: (stats.min_leaf_depth, stats.max_leaf_depth),
    }
}

impl Table1 {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Table 1: Eigenvalue characteristics ({0}x{0} matrix)",
            self.n
        );
        let _ = writeln!(
            s,
            "  problem size (sequential)    {:.0} msec   [paper: 7310]",
            self.seq.as_ms_f64()
        );
        let _ = writeln!(
            s,
            "  number of tasks created      {}          [paper: 935]",
            self.tasks
        );
        let _ = writeln!(s, "  argument size                28 bytes    [paper: 28]");
        let _ = writeln!(
            s,
            "  mean computation per step    {:.2} msec  [paper: 7.82]",
            self.mean_step.as_ms_f64()
        );
        let _ = writeln!(
            s,
            "  depth of leafs               {} to {}    [paper: 1 to 22]",
            self.depth.0, self.depth.1
        );
        s
    }
}

/// Figure 2: Eigenvalue speedups, individual-access vs block-move
/// argument fetch.
pub struct Fig2 {
    /// Machine sizes.
    pub nodes: Vec<u16>,
    /// Speedups with five individual GET_SYNCs per task.
    pub individual: Vec<f64>,
    /// Speedups with one 28-byte block move per task.
    pub block: Vec<f64>,
}

/// Run the Figure 2 sweep.
pub fn fig2(scale: Scale) -> Fig2 {
    let m = eigen_matrix(scale);
    let tol = eigen_tol(scale);
    let (_, stats) = bisect_all(&m, tol);
    let seq = earth_linalg::cost::sequential_runtime(&stats, m.n());
    let nodes = fig2_nodes(scale);
    let jobs: Vec<(u16, FetchMode)> = nodes
        .iter()
        .flat_map(|&n| [(n, FetchMode::Individual), (n, FetchMode::Block)])
        .collect();
    let speedups = par_map(jobs, |(n, mode)| {
        let run = run_eigen(&m, tol, n, 42, mode);
        seq.as_us_f64() / run.elapsed.as_us_f64()
    });
    let mut individual = Vec::new();
    let mut block = Vec::new();
    for pair in speedups.chunks(2) {
        individual.push(pair[0]);
        block.push(pair[1]);
    }
    Fig2 {
        nodes,
        individual,
        block,
    }
}

impl Fig2 {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Figure 2: Eigenvalue speedups (paper: close to ideal on 1-20 nodes,"
        );
        let _ = writeln!(
            s,
            "          no significant difference between fetch variants)"
        );
        let _ = writeln!(s, "  nodes   individual   blockmove   ideal");
        for (i, &n) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                s,
                "  {n:5}   {:10.2}   {:9.2}   {n:5}",
                self.individual[i], self.block[i]
            );
        }
        s
    }
}

/// Table 2: characteristics of the Gröbner Basis inputs.
pub struct Table2 {
    /// Per input: name, seq runtime, pairs processed, polys added,
    /// mean step, mean polynomial wire size.
    pub rows: Vec<(String, VirtualDuration, usize, usize, VirtualDuration, f64)>,
}

/// Run the Table 2 characterization (sequential Buchberger).
pub fn table2() -> Table2 {
    let rows = par_map(table2_inputs(), |(name, ring, input)| {
        let (basis, stats) = buchberger(&ring, &input, SelectionStrategy::Sugar);
        let seq = earth_algebra::cost::sequential_runtime(&stats);
        let mean_step = if stats.pairs_processed > 0 {
            seq / stats.pairs_processed as u64
        } else {
            VirtualDuration::ZERO
        };
        let mean_size = basis
            .iter()
            .map(|p| wire_len(p, ring.nvars) as f64)
            .sum::<f64>()
            / basis.len().max(1) as f64;
        (
            name.to_string(),
            seq,
            stats.pairs_processed,
            stats.polys_added,
            mean_step,
            mean_size,
        )
    });
    Table2 { rows }
}

impl Table2 {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Table 2: Groebner Basis characteristics (sequential, total lex order)"
        );
        let _ = writeln!(
            s,
            "  paper:     Lazard 3761ms/141 pairs/27 added/26.7ms/454B"
        );
        let _ = writeln!(s, "             Katsura-4 6373ms/75/15/85ms/439B ; Katsura-5 362750ms/168/26/111.9ms/3243B");
        let _ = writeln!(
            s,
            "  {:<10} {:>12} {:>7} {:>7} {:>12} {:>10}",
            "input", "seq", "pairs", "added", "mean step", "mean size"
        );
        for (name, seq, pairs, added, step, size) in &self.rows {
            let _ = writeln!(
                s,
                "  {name:<10} {:>10.0}ms {pairs:>7} {added:>7} {:>10.1}ms {size:>9.0}B",
                seq.as_ms_f64(),
                step.as_ms_f64()
            );
        }
        s
    }
}

/// One Gröbner speedup curve: per machine size, the [`Summary`] over
/// seeded runs.
pub struct GroebnerCurve {
    /// Input name.
    pub input: String,
    /// Communication overhead label (None = native EARTH).
    pub overhead_us: Option<u64>,
    /// Machine sizes.
    pub nodes: Vec<u16>,
    /// Speedup summaries (mean/min/max over the seeds).
    pub speedups: Vec<Summary>,
}

fn groebner_curve(
    name: &str,
    ring: &earth_algebra::Ring,
    input: &[earth_algebra::Poly],
    seq: VirtualDuration,
    nodes: &[u16],
    runs: u64,
    overhead_us: Option<u64>,
) -> GroebnerCurve {
    let jobs: Vec<(u16, u64)> = nodes
        .iter()
        .flat_map(|&n| (0..runs).map(move |s| (n, s)))
        .collect();
    let all = par_map(jobs, |(n, seed)| {
        let run = run_groebner(ring, input, n, seed, SelectionStrategy::Sugar, overhead_us);
        (n, seq.as_us_f64() / run.elapsed.as_us_f64())
    });
    let speedups = nodes
        .iter()
        .map(|&n| {
            let series: Vec<f64> = all
                .iter()
                .filter(|&&(nn, _)| nn == n)
                .map(|&(_, sp)| sp)
                .collect();
            Summary::of(&series)
        })
        .collect();
    GroebnerCurve {
        input: name.to_string(),
        overhead_us,
        nodes: nodes.to_vec(),
        speedups,
    }
}

/// Figures 4a/4b: Gröbner mean/min/max speedups under native EARTH costs.
pub fn fig4(scale: Scale) -> Vec<GroebnerCurve> {
    let nodes = fig4_nodes(scale);
    let runs = groebner_runs(scale);
    table2_inputs()
        .into_iter()
        .map(|(name, ring, input)| {
            let (_, stats) = buchberger(&ring, &input, SelectionStrategy::Sugar);
            let seq = earth_algebra::cost::sequential_runtime(&stats);
            groebner_curve(name, &ring, &input, seq, &nodes, runs, None)
        })
        .collect()
}

/// Figure 5: the same curves under the 300/500/1000 µs message-passing
/// overheads.
pub fn fig5(scale: Scale) -> Vec<GroebnerCurve> {
    let nodes = fig4_nodes(scale);
    let runs = groebner_runs(scale);
    let mut out = Vec::new();
    for (name, ring, input) in table2_inputs() {
        let (_, stats) = buchberger(&ring, &input, SelectionStrategy::Sugar);
        let seq = earth_algebra::cost::sequential_runtime(&stats);
        for us in FIG5_OVERHEADS_US {
            out.push(groebner_curve(
                name,
                &ring,
                &input,
                seq,
                &nodes,
                runs,
                Some(us),
            ));
        }
    }
    out
}

/// Render a set of Gröbner curves.
pub fn render_groebner_curves(title: &str, curves: &[GroebnerCurve]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    for c in curves {
        let label = match c.overhead_us {
            None => format!("{} (EARTH)", c.input),
            Some(us) => format!("{} ({us}us msg-passing)", c.input),
        };
        let _ = writeln!(s, "  {label}");
        let _ = writeln!(s, "    nodes    mean     min     max");
        for (i, &n) in c.nodes.iter().enumerate() {
            let sp = &c.speedups[i];
            let _ = writeln!(
                s,
                "    {n:5}  {:6.2}  {:6.2}  {:6.2}",
                sp.mean, sp.min, sp.max
            );
        }
    }
    s
}

/// Table 3: neural-network sequential forward-pass characteristics.
pub struct Table3 {
    /// Per size: units, sequential forward runtime, per-unit runtime.
    pub rows: Vec<(usize, VirtualDuration, VirtualDuration)>,
}

/// Run the Table 3 characterization.
pub fn table3(scale: Scale) -> Table3 {
    let rows = nn_sizes(scale)
        .into_iter()
        .map(|units| {
            let seq = earth_nn::cost::sequential_forward(units);
            let per_unit = earth_nn::cost::forward_unit_cost(units);
            (units, seq, per_unit)
        })
        .collect();
    Table3 { rows }
}

impl Table3 {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Table 3: NN forward pass (paper: 80u 5.047ms/32us, 200u 26.96ms/67us, 720u 319.1ms/222us)");
        let _ = writeln!(s, "  units   sequential   runtime/unit");
        for (units, seq, per_unit) in &self.rows {
            let _ = writeln!(
                s,
                "  {units:5}   {:8.3} ms   {:8.1} us",
                seq.as_ms_f64(),
                per_unit.as_us_f64()
            );
        }
        s
    }
}

/// A neural-network speedup curve (one per network size).
pub struct NeuralCurve {
    /// Units per layer.
    pub units: usize,
    /// Machine sizes.
    pub nodes: Vec<u16>,
    /// Speedups against the sequential per-sample time.
    pub speedups: Vec<f64>,
    /// Parallel per-sample times.
    pub per_sample: Vec<VirtualDuration>,
}

fn neural_curves(scale: Scale, mode: PassMode, shape: CommsShape) -> Vec<NeuralCurve> {
    let nodes = fig7_nodes(scale);
    let samples = nn_samples(scale);
    nn_sizes(scale)
        .into_iter()
        .map(|units| {
            let seq = match mode {
                PassMode::Forward => earth_nn::cost::sequential_forward(units),
                PassMode::ForwardBackward => earth_nn::cost::sequential_forward_backward(units),
            };
            let results = par_map(nodes.clone(), |n| {
                let run = run_neural(units, n, samples, 7, mode, shape);
                (run.per_sample, seq.as_us_f64() / run.per_sample.as_us_f64())
            });
            NeuralCurve {
                units,
                nodes: nodes.clone(),
                per_sample: results.iter().map(|r| r.0).collect(),
                speedups: results.iter().map(|r| r.1).collect(),
            }
        })
        .collect()
}

/// Figure 7: forward-pass-only speedups.
pub fn fig7(scale: Scale) -> Vec<NeuralCurve> {
    neural_curves(scale, PassMode::Forward, CommsShape::Tree)
}

/// Figure 8: forward+backward speedups.
pub fn fig8(scale: Scale) -> Vec<NeuralCurve> {
    neural_curves(scale, PassMode::ForwardBackward, CommsShape::Tree)
}

/// §3.3 ablation: sequential vs tree central communication at 80 units
/// (paper: maximum speedup 8 → 12).
pub struct CommsAblation {
    /// Machine sizes.
    pub nodes: Vec<u16>,
    /// Speedups with sequential central sends.
    pub sequential: Vec<f64>,
    /// Speedups with tree-organized sends.
    pub tree: Vec<f64>,
}

/// Run the communication-shape ablation.
pub fn comms_ablation(scale: Scale) -> CommsAblation {
    let units = 80;
    let nodes = fig7_nodes(scale);
    let samples = nn_samples(scale);
    let seq_time = earth_nn::cost::sequential_forward(units);
    let jobs: Vec<(u16, CommsShape)> = nodes
        .iter()
        .flat_map(|&n| [(n, CommsShape::Sequential), (n, CommsShape::Tree)])
        .collect();
    let speedups = par_map(jobs, |(n, shape)| {
        let run = run_neural(units, n, samples, 7, PassMode::Forward, shape);
        seq_time.as_us_f64() / run.per_sample.as_us_f64()
    });
    let mut sequential = Vec::new();
    let mut tree = Vec::new();
    for pair in speedups.chunks(2) {
        sequential.push(pair[0]);
        tree.push(pair[1]);
    }
    CommsAblation {
        nodes,
        sequential,
        tree,
    }
}

impl CommsAblation {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Comms ablation, 80 units (paper: max speedup 8 sequential -> 12 tree)"
        );
        let _ = writeln!(s, "  nodes   sequential   tree");
        for (i, &n) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                s,
                "  {n:5}   {:10.2}   {:4.2}",
                self.sequential[i], self.tree[i]
            );
        }
        s
    }
}

/// Render neural curves.
pub fn render_neural_curves(title: &str, curves: &[NeuralCurve]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = write!(s, "  nodes");
    for c in curves {
        let _ = write!(s, "  {:>6}u  (time)", c.units);
    }
    let _ = writeln!(s);
    for (i, &n) in curves[0].nodes.iter().enumerate() {
        let _ = write!(s, "  {n:5}");
        for c in curves {
            let _ = write!(
                s,
                "  {:6.2}  {:>7}",
                c.speedups[i],
                format!("{}", c.per_sample[i])
            );
        }
        let _ = writeln!(s);
    }
    s
}

/// The §2 configuration check: EARTH's two-processor nodes (a dedicated
/// Synchronization Unit) vs the single-processor version the paper
/// measured on, on the most communication-intensive application.
/// The paper: "Both versions were shown to provide much the same
/// efficiency with the existing smart single-processor implementation."
pub struct DualCheck {
    /// Machine sizes.
    pub nodes: Vec<u16>,
    /// Per-sample time, single-processor configuration.
    pub single: Vec<VirtualDuration>,
    /// Per-sample time, dual-processor (EU+SU) configuration.
    pub dual: Vec<VirtualDuration>,
}

/// Run the dual-processor check at 80 units, forward+backward.
pub fn dual_check(scale: Scale) -> DualCheck {
    let units = 80;
    let nodes = fig7_nodes(scale);
    let samples = nn_samples(scale);
    let jobs: Vec<(u16, bool)> = nodes
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    let times = par_map(jobs, |(n, dual)| {
        let cfg = if dual {
            MachineConfig::manna(n).with_dual_processor()
        } else {
            MachineConfig::manna(n)
        };
        run_neural_on(
            cfg,
            units,
            units,
            units,
            samples,
            7,
            PassMode::ForwardBackward,
            CommsShape::Tree,
        )
        .per_sample
    });
    let mut single = Vec::new();
    let mut dual = Vec::new();
    for pair in times.chunks(2) {
        single.push(pair[0]);
        dual.push(pair[1]);
    }
    DualCheck {
        nodes,
        single,
        dual,
    }
}

impl DualCheck {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Dual-processor check, 80 units fwd+bwd (paper SS2: 'much the same efficiency')"
        );
        let _ = writeln!(s, "  nodes   single-proc      dual EU+SU    dual/single");
        for (i, &n) in self.nodes.iter().enumerate() {
            let ratio = self.dual[i].as_us_f64() / self.single[i].as_us_f64();
            let _ = writeln!(
                s,
                "  {n:5}   {:>11}   {:>11}    {ratio:.3}",
                format!("{}", self.single[i]),
                format!("{}", self.dual[i])
            );
        }
        s
    }
}

/// earth-profile demonstration: the Table-1-style overhead breakdown,
/// utilization timeline and Chrome-trace export for one seeded
/// eigenvalue run and one Gröbner run. Deliberately tiny and fixed-seed
/// (independent of `--quick`) so the output — including the exported
/// trace JSON — is byte-identical on every invocation.
pub struct ProfileDemo {
    /// Profiled eigenvalue run (120×120 quick matrix, 8 nodes, seed 42).
    pub eigen: EigenRun,
    /// Profiled Gröbner run (Lazard input, 8 nodes, seed 1).
    pub groebner: GroebnerRun,
}

/// Run the earth-profile demo workloads.
pub fn profile_demo() -> ProfileDemo {
    let m = eigen_matrix(Scale::Quick);
    let tol = eigen_tol(Scale::Quick);
    let eigen = run_eigen_profiled(&m, tol, 8, 42, FetchMode::Block);
    let (name, ring, input) = table2_inputs().remove(0);
    debug_assert_eq!(name, "Lazard");
    let groebner = run_groebner_profiled(&ring, &input, 8, 1, SelectionStrategy::Sugar, None);
    ProfileDemo { eigen, groebner }
}

impl ProfileDemo {
    /// Text rendering: both breakdowns plus the eigenvalue Gantt.
    pub fn render(&self) -> String {
        let ep = self.eigen.profile.as_ref().expect("profiled run");
        let gp = self.groebner.profile.as_ref().expect("profiled run");
        let mut s = String::new();
        let _ = writeln!(s, "earth-profile: Eigenvalue (8 nodes, seed 42)");
        s.push_str(&ep.render(&self.eigen.report));
        let _ = writeln!(s, "\nutilization timeline:");
        s.push_str(&ep.trace.timeline(8, 72));
        let _ = writeln!(s, "\nearth-profile: Groebner/Lazard (8 nodes, seed 1)");
        s.push_str(&gp.render(&self.groebner.report));
        s
    }

    /// Chrome-trace JSON for the eigenvalue run (Perfetto-loadable).
    pub fn to_json(&self) -> String {
        crate::chrome::chrome_trace_json(self.eigen.profile.as_ref().expect("profiled run"))
    }
}

/// One cell of the fault-plane degradation sweep: the quick eigenvalue
/// workload under one (drop rate, node count) point.
pub struct FaultsCell {
    /// Degraded virtual elapsed time.
    pub elapsed: VirtualDuration,
    /// Elapsed over the fault-free baseline at the same node count.
    pub slowdown: f64,
    /// Reliability-layer retransmissions issued.
    pub retransmits: u64,
    /// Messages the fault plane dropped.
    pub dropped: u64,
    /// Messages the fault plane duplicated.
    pub duplicated: u64,
}

/// Fault-plane degradation sweep (`repro faults`): a fixed-seed
/// eigenvalue workload run under a drop-rate × node-count grid with a
/// fixed duplication rate, against a fault-free baseline per node
/// count. Correctness is asserted inside the sweep — every faulted
/// cell's eigenvalues must equal the baseline's bit-for-bit — so the
/// table reports purely the *cost* of reliability. Deliberately small
/// and fixed-seed (independent of `--quick`) so the output is
/// byte-identical on every invocation.
pub struct FaultsTable {
    /// Node counts swept (columns).
    pub nodes: Vec<u16>,
    /// Message drop probabilities swept (rows).
    pub drops: Vec<f64>,
    /// Duplication probability applied to every faulted cell.
    pub dup: f64,
    /// Fault-free elapsed time per node count.
    pub baseline: Vec<VirtualDuration>,
    /// `cells[drop_idx][node_idx]`.
    pub cells: Vec<Vec<FaultsCell>>,
}

/// Run the fault-plane degradation sweep.
pub fn faults_table() -> FaultsTable {
    let m = SymTridiagonal::random_clustered(60, 3, 11);
    let (tol, seed) = (1e-6, 42);
    let nodes: Vec<u16> = vec![4, 8, 20];
    let drops: Vec<f64> = vec![0.002, 0.01, 0.05];
    let dup = 0.005;
    let mut baseline = Vec::new();
    let mut reference = Vec::new();
    for &n in &nodes {
        let run = run_eigen(&m, tol, n, seed, FetchMode::Block);
        baseline.push(run.elapsed);
        reference.push(run.eigenvalues);
    }
    let cells = drops
        .iter()
        .map(|&drop| {
            let plan = FaultPlan::new().with_drop(drop).with_duplicate(dup);
            nodes
                .iter()
                .enumerate()
                .map(|(ni, &n)| {
                    let cfg = MachineConfig::manna(n).with_faults(plan.clone());
                    let run = run_eigen_on(&m, tol, cfg, seed, FetchMode::Block);
                    assert_eq!(
                        run.eigenvalues, reference[ni],
                        "drop {drop} on {n} nodes changed the eigenvalues"
                    );
                    FaultsCell {
                        elapsed: run.elapsed,
                        slowdown: run.elapsed.as_us_f64() / baseline[ni].as_us_f64(),
                        retransmits: run.report.total_retransmits(),
                        dropped: run.report.net_dropped,
                        duplicated: run.report.net_duplicated,
                    }
                })
                .collect()
        })
        .collect();
    FaultsTable {
        nodes,
        drops,
        dup,
        baseline,
        cells,
    }
}

impl FaultsTable {
    /// Paper-style text rendering: degradation curves, one row per
    /// (drop rate, node count) point.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Fault-plane degradation: Eigenvalue 60x60 seed 42, duplication {:.1}% (results bit-identical to baseline in every cell)",
            self.dup * 100.0
        );
        let _ = writeln!(
            s,
            "  drop%  nodes       elapsed  slowdown  retransmits  dropped  duplicated"
        );
        for (ni, &n) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                s,
                "  {:>5}  {n:>5}  {:>12}  {:>8}  {:>11}  {:>7}  {:>10}",
                "0",
                format!("{}", self.baseline[ni]),
                "1.000x",
                0,
                0,
                0
            );
        }
        for (di, &drop) in self.drops.iter().enumerate() {
            for (ni, &n) in self.nodes.iter().enumerate() {
                let c = &self.cells[di][ni];
                let _ = writeln!(
                    s,
                    "  {:>5.1}  {n:>5}  {:>12}  {:>7.3}x  {:>11}  {:>7}  {:>10}",
                    drop * 100.0,
                    format!("{}", c.elapsed),
                    c.slowdown,
                    c.retransmits,
                    c.dropped,
                    c.duplicated
                );
            }
        }
        s
    }
}

/// One cell of the availability sweep: the quick eigenvalue workload
/// with one node crash-stopped at a fraction of the fault-free runtime,
/// under one checkpoint interval.
pub struct CrashesCell {
    /// Degraded virtual elapsed time.
    pub elapsed: VirtualDuration,
    /// Elapsed over the fault-free baseline.
    pub slowdown: f64,
    /// Checkpoints taken across all nodes.
    pub checkpoints: u64,
    /// Failure-detector probes sent across all nodes.
    pub heartbeats: u64,
    /// Orphaned tokens re-homed to survivors.
    pub rehomed: u64,
    /// Total unavailable time (crash to end of recovery replay).
    pub downtime: VirtualDuration,
}

/// Availability sweep (`repro crashes`): a fixed-seed eigenvalue
/// workload on 20 nodes with node 3 crash-stopped (no scheduled
/// restart — the failure detector drives the failover) at a grid of
/// crash times × checkpoint intervals, against the fault-free
/// baseline. Correctness is asserted inside the sweep — every crashed
/// cell's eigenvalues must equal the baseline's bit-for-bit — so the
/// table reports purely the *cost* of surviving the crash.
/// Deliberately small and fixed-seed (independent of `--quick`) so the
/// output is byte-identical on every invocation.
pub struct CrashesTable {
    /// Crash instants as (numerator, denominator) fractions of the
    /// fault-free baseline (rows).
    pub crash_fracs: Vec<(u64, u64)>,
    /// Checkpoint intervals swept, in microseconds (columns).
    pub ckpt_us: Vec<u64>,
    /// Node that crash-stops in every cell.
    pub crash_node: u16,
    /// Fault-free elapsed time on the same 20 nodes.
    pub baseline: VirtualDuration,
    /// `cells[frac_idx][ckpt_idx]`.
    pub cells: Vec<Vec<CrashesCell>>,
}

/// Run the availability sweep.
pub fn crashes_table() -> CrashesTable {
    let m = SymTridiagonal::random_clustered(60, 3, 11);
    let (tol, seed, nodes, crash_node) = (1e-6, 42, 20, 3);
    let crash_fracs: Vec<(u64, u64)> = vec![(1, 4), (1, 2), (3, 4)];
    let ckpt_us: Vec<u64> = vec![1_000, 2_000, 5_000];
    let base_run = run_eigen(&m, tol, nodes, seed, FetchMode::Block);
    let baseline = base_run.elapsed;
    let reference = base_run.eigenvalues;
    let cells = crash_fracs
        .iter()
        .map(|&(num, den)| {
            let down = VirtualTime::from_ns(baseline.as_ns() * num / den);
            ckpt_us
                .iter()
                .map(|&ck| {
                    let plan = FaultPlan::new()
                        .with_node_crash(crash_node, down)
                        .with_checkpoint_every(VirtualDuration::from_us(ck));
                    let cfg = MachineConfig::manna(nodes).with_faults(plan);
                    let run = run_eigen_on(&m, tol, cfg, seed, FetchMode::Block);
                    assert_eq!(
                        run.eigenvalues, reference,
                        "crash at {num}/{den} with {ck}us checkpoints changed the eigenvalues"
                    );
                    assert_eq!(run.report.total_crashes(), 1);
                    assert_eq!(run.report.total_recoveries(), 1);
                    CrashesCell {
                        elapsed: run.elapsed,
                        slowdown: run.elapsed.as_us_f64() / baseline.as_us_f64(),
                        checkpoints: run.report.total_checkpoints(),
                        heartbeats: run.report.total_heartbeats(),
                        rehomed: run.report.total_rehomed(),
                        downtime: run.report.total_downtime(),
                    }
                })
                .collect()
        })
        .collect();
    CrashesTable {
        crash_fracs,
        ckpt_us,
        crash_node,
        baseline,
        cells,
    }
}

impl CrashesTable {
    /// Paper-style text rendering: availability curves, one row per
    /// (crash time, checkpoint interval) point.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Availability sweep: Eigenvalue 60x60 seed 42 on 20 nodes, node {} crash-stopped, detector-driven failover (results bit-identical to baseline in every cell)",
            self.crash_node
        );
        let _ = writeln!(s, "  baseline (fault-free): {}", self.baseline);
        let _ = writeln!(
            s,
            "  crash@  ckpt-ms       elapsed  slowdown  checkpoints  heartbeats  rehomed      downtime"
        );
        for (fi, &(num, den)) in self.crash_fracs.iter().enumerate() {
            for (ci, &ck) in self.ckpt_us.iter().enumerate() {
                let c = &self.cells[fi][ci];
                let _ = writeln!(
                    s,
                    "  {:>6}  {:>7}  {:>12}  {:>7.3}x  {:>11}  {:>10}  {:>7}  {:>12}",
                    format!("{num}/{den}"),
                    ck / 1_000,
                    format!("{}", c.elapsed),
                    c.slowdown,
                    c.checkpoints,
                    c.heartbeats,
                    c.rehomed,
                    format!("{}", c.downtime)
                );
            }
        }
        s
    }
}

/// The interconnects the scale sweep compares (the default hierarchical
/// crossbar first, so every other curve reads against it).
pub fn scale_topologies() -> [TopologyKind; 4] {
    [
        TopologyKind::Crossbar,
        TopologyKind::Hypercube,
        TopologyKind::Torus3D,
        TopologyKind::FatTree,
    ]
}

/// One speedup-vs-nodes curve of the scale sweep: one application on
/// one interconnect.
pub struct ScaleCurve {
    /// Application name (`eigen`, `groebner`, `neural`).
    pub app: &'static str,
    /// Interconnect label ([`TopologyKind::label`]).
    pub topology: &'static str,
    /// Parallel virtual time per machine size (per-sample time for the
    /// neural network, matching the Fig. 7 convention).
    pub elapsed: Vec<VirtualDuration>,
    /// Speedups against the application's sequential baseline.
    pub speedups: Vec<f64>,
}

/// The `repro scale` sweep: speedup-vs-nodes curves for the three
/// applications across four interconnect topologies, far past the
/// paper's 20-node MANNA into the regime where each application's
/// speedup shape breaks.
pub struct ScaleTable {
    /// Machine sizes swept (the full sweep ends at 1024).
    pub nodes: Vec<u16>,
    /// Applications, in curve order.
    pub apps: Vec<&'static str>,
    /// Sequential baseline per application (same definitions as the
    /// paper figures: analytic sequential runtime of the same workload).
    pub baseline: Vec<VirtualDuration>,
    /// Curves, application-major then topology-minor, matching
    /// [`scale_topologies`] order.
    pub curves: Vec<ScaleCurve>,
}

/// Run the full scale sweep up to 1024 nodes. Fixed-seed and
/// independent of `--quick`, like the fault sweeps, so the JSON record
/// is byte-identical on every invocation of the same build.
pub fn scale_table() -> ScaleTable {
    scale_at(&[20, 64, 256, 1024])
}

/// The CI-sized scale sweep: same workloads, same schema, capped at 256
/// nodes so a debug-build golden test stays cheap.
pub fn scale_smoke() -> ScaleTable {
    scale_at(&[20, 64, 256])
}

fn scale_at(nodes: &[u16]) -> ScaleTable {
    // Deliberately small fixed workloads: by 256 nodes every one of
    // them has less work than the machine has processors, which is the
    // point — the curves show where each speedup shape breaks.
    let m = SymTridiagonal::random_clustered(60, 3, 11);
    let tol = 1e-6;
    let (ring, input) = katsura(3);
    let units = 80;
    let (_, estats) = bisect_all(&m, tol);
    let eigen_seq = earth_linalg::cost::sequential_runtime(&estats, m.n());
    let (_, gstats) = buchberger(&ring, &input, SelectionStrategy::Sugar);
    let groebner_seq = earth_algebra::cost::sequential_runtime(&gstats);
    let neural_seq = earth_nn::cost::sequential_forward(units);
    let apps = vec!["eigen", "groebner", "neural"];
    let baseline = vec![eigen_seq, groebner_seq, neural_seq];
    let topologies = scale_topologies();

    let jobs: Vec<(usize, TopologyKind, u16)> = (0..apps.len())
        .flat_map(|app| {
            topologies
                .iter()
                .flat_map(move |&t| nodes.iter().map(move |&n| (app, t, n)))
        })
        .collect();
    let results = par_map(jobs, |(app, topo, n)| match app {
        0 => {
            let cfg = MachineConfig::manna(n).with_topology(topo);
            let run = run_eigen_on(&m, tol, cfg, 42, FetchMode::Block);
            (run.elapsed, Some(run.eigenvalues))
        }
        1 => {
            let cfg = groebner_machine(n).with_topology(topo);
            let run = run_groebner_on(&ring, &input, cfg, 1, SelectionStrategy::Sugar);
            (run.elapsed, None)
        }
        _ => {
            let cfg = MachineConfig::manna(n).with_topology(topo);
            let run = run_neural_on(
                cfg,
                units,
                units,
                units,
                1,
                7,
                PassMode::Forward,
                CommsShape::Tree,
            );
            (run.per_sample, None)
        }
    });

    // Results are schedule-dependent in *time* but never in *values*:
    // the eigensolver's output is pure math, so every topology must
    // reproduce the crossbar run's eigenvalues bit-for-bit at the same
    // machine size.
    let per_topo = nodes.len();
    for (ti, _) in topologies.iter().enumerate().skip(1) {
        for (ni, &n) in nodes.iter().enumerate() {
            assert_eq!(
                results[ti * per_topo + ni].1,
                results[ni].1,
                "{} on {n} nodes changed the eigenvalues",
                topologies[ti].label()
            );
        }
    }

    let curves = apps
        .iter()
        .enumerate()
        .flat_map(|(ai, &app)| {
            let results = &results;
            let baseline = &baseline;
            topologies.iter().enumerate().map(move |(ti, t)| {
                let base = (ai * topologies.len() + ti) * per_topo;
                let elapsed: Vec<VirtualDuration> =
                    results[base..base + per_topo].iter().map(|r| r.0).collect();
                let speedups = elapsed
                    .iter()
                    .map(|e| baseline[ai].as_us_f64() / e.as_us_f64())
                    .collect();
                ScaleCurve {
                    app,
                    topology: t.label(),
                    elapsed,
                    speedups,
                }
            })
        })
        .collect();
    ScaleTable {
        nodes: nodes.to_vec(),
        apps,
        baseline,
        curves,
    }
}

impl ScaleTable {
    /// Text rendering: one block per application, topologies as columns.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Scale sweep: speedup vs nodes per interconnect (paper Fig. 5 shape, extended past MANNA's 20 nodes)"
        );
        let topos = scale_topologies();
        for (ai, &app) in self.apps.iter().enumerate() {
            let _ = writeln!(
                s,
                "  {app} (sequential baseline {:.2} ms)",
                self.baseline[ai].as_ms_f64()
            );
            let _ = write!(s, "    nodes");
            for t in &topos {
                let _ = write!(s, "  {:>9}", t.label());
            }
            let _ = writeln!(s);
            for (ni, &n) in self.nodes.iter().enumerate() {
                let _ = write!(s, "    {n:5}");
                for (ti, _) in topos.iter().enumerate() {
                    let c = &self.curves[ai * topos.len() + ti];
                    let _ = write!(s, "  {:9.2}", c.speedups[ni]);
                }
                let _ = writeln!(s);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_check_confirms_the_papers_claim() {
        let d = dual_check(Scale::Quick);
        for (i, &n) in d.nodes.iter().enumerate() {
            let ratio = d.dual[i].as_us_f64() / d.single[i].as_us_f64();
            assert!(
                (0.7..=1.001).contains(&ratio),
                "node count {n}: dual/single ratio {ratio} out of 'much the same' band"
            );
        }
        assert!(!d.render().is_empty());
    }

    #[test]
    fn table1_quick_has_sane_shape() {
        let t = table1(Scale::Quick);
        assert_eq!(t.n, 120);
        assert!(t.tasks > t.n / 2);
        assert!(t.depth.1 >= t.depth.0);
        assert!(!t.render().is_empty());
    }

    #[test]
    fn fig2_quick_speedups_scale() {
        let f = fig2(Scale::Quick);
        assert_eq!(f.nodes.len(), f.block.len());
        let last = *f.nodes.last().unwrap() as f64;
        let sp = *f.block.last().unwrap();
        assert!(sp > 0.5 * last, "block speedup {sp} at {last} nodes");
        assert!(!f.render().is_empty());
    }

    #[test]
    fn table3_matches_paper_columns() {
        let t = table3(Scale::Paper);
        assert_eq!(t.rows.len(), 3);
        assert!((t.rows[0].1.as_ms_f64() - 5.047).abs() < 0.2);
        assert!(!t.render().is_empty());
    }

    #[test]
    fn profile_demo_decomposition_is_exact() {
        let d = profile_demo();
        let ep = d.eigen.profile.as_ref().unwrap();
        ep.check(&d.eigen.report).expect("eigen breakdown exact");
        let gp = d.groebner.profile.as_ref().unwrap();
        gp.check(&d.groebner.report)
            .expect("groebner breakdown exact");
        let text = d.render();
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("utilization timeline"), "{text}");
    }

    #[test]
    fn fig7_quick_shows_speedup() {
        let curves = fig7(Scale::Quick);
        for c in &curves {
            let best = c.speedups.iter().cloned().fold(0.0, f64::max);
            assert!(best > 3.0, "{}u best speedup {best}", c.units);
        }
        assert!(!render_neural_curves("fig7", &curves).is_empty());
    }
}
