//! The three workloads: their inputs, sequential references, simulation
//! runs and output checks.
//!
//! * `paper_apps` — the paper's three applications on the 20-node MANNA
//!   with native EARTH costs. Nearly all host time is real application
//!   math; the event core is lightly loaded.
//! * `scale_1024` — Gröbner Katsura-3 on a 1024-node MANNA: trivial math,
//!   over a million basis-broadcast messages, so the time goes to
//!   dispatch, the event queue and the flight math.
//! * `serve_chaos` — an open-loop job stream on 64 nodes with every
//!   plane armed, swept over an offered-load ladder: timer-heavy planes,
//!   fault fates and admission, and no real math.
//!
//! Everything is single-threaded: the benchmark calls the app and traffic
//! entry points directly and never a host-parallel sweep helper.

use crate::span::Tracer;
use earth_algebra::buchberger::SelectionStrategy;
use earth_algebra::inputs::katsura;
use earth_algebra::{buchberger, normal_form, Poly, Ring, Work};
use earth_apps::eigen::{run_eigen, run_eigen_profiled, EigenRun, FetchMode};
use earth_apps::groebner::{run_groebner, run_groebner_profiled, GroebnerRun};
use earth_apps::neural::{run_neural, run_neural_profiled, CommsShape, NeuralRun, PassMode};
use earth_linalg::{bisect_all, SymTridiagonal};
use earth_machine::{FaultPlan, MachineConfig};
use earth_nn::net::sigmoid_prime;
use earth_nn::slice::partition;
use earth_nn::Mlp;
use earth_rt::{JobOutcome, RunProfile, RunReport, Runtime, TrafficReport};
use earth_sim::{nearest_rank, stream_word, Rng, VirtualDuration, VirtualTime};
use earth_traffic::TrafficPlan;
use std::collections::BTreeMap;
use std::time::Instant;

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's applications on the 20-node MANNA.
    PaperApps,
    /// Gröbner Katsura-3 on 1024 nodes.
    Scale1024,
    /// The open-loop serving ladder under chaos.
    ServeChaos,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperApps,
        Workload::Scale1024,
        Workload::ServeChaos,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperApps => "paper_apps",
            Workload::Scale1024 => "scale_1024",
            Workload::ServeChaos => "serve_chaos",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups before each pass of an untraced run; `setup_s` is the
    /// median over all of them. Cheap set-ups repeat more so their median
    /// is as steady as the costly one's.
    pub fn setups_per_pass(self) -> usize {
        match self {
            Workload::PaperApps => 2,
            Workload::Scale1024 => 16,
            Workload::ServeChaos => 8,
        }
    }
}

/// Input sizes: `Full` is the benchmark, `Smoke` a seconds-long copy with
/// the same structure for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Tiny inputs for tests.
    Smoke,
}

// ---------------------------------------------------------------------------
// Fixed parameters

/// The paper's machine.
const PAPER_NODES: u16 = 20;
/// Gröbner runtime seeds of every `paper_apps` pass (speedup is their
/// mean): the first seeds of the paper's figure runs. They are fixed, not
/// drawn from the workload seed, because the runtime seed moves the
/// completion's work by up to a third, which would swamp the host-time
/// metrics across workload seeds; Katsura-5 itself has no random input.
const GROEBNER_SEEDS: [u64; 3] = [0, 1, 2];
/// Table 1's matrix: 1000×1000, 64 tight clusters, tolerance 2e-4.
const EIGEN_N: usize = 1000;
const EIGEN_CLUSTERS: usize = 64;
const EIGEN_WITHIN: f64 = 1e-4;
const EIGEN_TOL: f64 = 2e-4;
/// The largest network of Table 3, trained on enough samples that it
/// takes at least a quarter of the pass.
const NN_UNITS: usize = 720;
const NN_SAMPLES: usize = 240;
/// `earth_apps::neural`'s learning rate, and the seed salts it derives
/// the network and the sample stream with; the reference pass replays
/// both.
const NN_LEARNING_RATE: f32 = 0.5;
const NN_NET_SALT: u64 = 0xD1;
const NN_SAMPLE_SALT: u64 = 0x5A;
/// The parallel output may differ from the sequential pass by f32
/// reduction order; the app's own tests allow this much.
const NN_TOLERANCE: f32 = 1e-4;

/// Paper values behind `apps.paper_gap.*`: the Fig. 4 Katsura-5 plateau
/// on 20 nodes, and "close to optimal" (20 on 20 nodes) for Fig. 2.
pub const PAPER_GROEBNER_SPEEDUP: f64 = 12.5;
pub const PAPER_EIGEN_SPEEDUP: f64 = 20.0;

/// `scale_1024`'s machine.
const SCALE_NODES: u16 = 1024;

/// `serve_chaos`: the machine, the stream and its ladder.
const SERVE_NODES: u16 = 64;
const SERVE_JOBS: u32 = 2000;
const SERVE_TENANTS: u16 = 3;
/// Offered loads (jobs per virtual second), a geometric ladder.
pub const SERVE_LADDER: [f64; 6] = [1000.0, 2000.0, 2828.0, 4000.0, 5657.0, 8000.0];
/// The load the latency and goodput metrics are read at.
pub const SERVE_REFERENCE_LOAD: f64 = 4000.0;
/// `sojourn_tail_ms` limit for `capacity_jobs_per_s`.
pub const SERVE_TAIL_LIMIT_MS: f64 = 8.0;
/// `goodput` floor for `capacity_jobs_per_s`.
pub const SERVE_GOODPUT_FLOOR: f64 = 0.99;
/// Queue waits below this (an eighth of the tail limit) are not a backlog.
const BACKLOG_FLOOR_MS: f64 = 1.0;
/// Completed jobs beyond the tail percentile.
const TAIL_BEYOND: usize = 10;
const SERVE_CONCURRENCY: u32 = 8;
const SERVE_DEADLINE_US: (u64, u64) = (3_500, 12_000);
const SERVE_QUEUE_CAP: u32 = 32;
const SERVE_RETRIES: (u32, u64, u64) = (3, 200, 1_600);
const SERVE_BREAKER: (u32, u32, u64) = (8, 5, 400);
/// One node runs 8× slow for the whole stream; another crashes halfway
/// through it and restarts 5 ms later.
const SLOW_FACTOR: f64 = 8.0;
const CRASH_OUTAGE_NS: u64 = 5_000_000;

/// Seed lanes: each input draws its seed from its own lane of the
/// workload seed.
const LANE_EIGEN_MATRIX: u64 = 2;
const LANE_EIGEN_RT: u64 = 3;
const LANE_NEURAL: u64 = 4;
const LANE_SCALE_RT: u64 = 5;
const LANE_TRAFFIC: u64 = 6;
const LANE_SERVE_RT: u64 = 7;

// ---------------------------------------------------------------------------
// Set-up

/// Everything a workload's passes need: the generated inputs and the
/// sequential references.
pub enum Prepared {
    /// `paper_apps`.
    Paper(Box<PaperSetup>),
    /// `scale_1024`.
    Scale(Box<ScaleSetup>),
    /// `serve_chaos`.
    Serve(Box<ServeSetup>),
}

/// A Gröbner input with its sequential reference.
pub struct GroebnerRef {
    ring: Ring,
    input: Vec<Poly>,
    /// Basis of the sequential completion (the correctness oracle).
    basis: Vec<Poly>,
    /// Modelled sequential runtime (the speedup denominator).
    seq: VirtualDuration,
}

/// `paper_apps` inputs and references.
pub struct PaperSetup {
    nodes: u16,
    groebner: GroebnerRef,
    matrix: SymTridiagonal,
    tol: f64,
    eigen_ref: Vec<f64>,
    eigen_seq: VirtualDuration,
    eigen_tasks: u64,
    eigen_seed: u64,
    units: usize,
    samples: usize,
    nn_seed: u64,
    nn_ref: Vec<Vec<f32>>,
}

/// `scale_1024` inputs and references.
pub struct ScaleSetup {
    nodes: u16,
    groebner: GroebnerRef,
    rt_seed: u64,
}

/// `serve_chaos` plans, and the runtimes installed for the next pass.
pub struct ServeSetup {
    rt_seed: u64,
    ladder: Vec<f64>,
    reference_load: f64,
    points: Vec<(TrafficPlan, MachineConfig)>,
    installed: Vec<Runtime>,
}

impl Prepared {
    /// The machine configuration the probes time: the Gröbner runs' on
    /// the app workloads, the reference load's when serving.
    pub fn probe_config(&self) -> MachineConfig {
        match self {
            Prepared::Paper(p) => MachineConfig::manna(p.nodes).with_jitter(0.03),
            Prepared::Scale(s) => MachineConfig::manna(s.nodes).with_jitter(0.03),
            Prepared::Serve(s) => {
                let at = s.ladder_index(s.reference_load);
                s.points[at].1.clone()
            }
        }
    }

    /// Offered-load ladder and reference load (serving workloads only).
    pub fn ladder(&self) -> Option<(&[f64], f64)> {
        match self {
            Prepared::Serve(s) => Some((&s.ladder, s.reference_load)),
            _ => None,
        }
    }

    /// Install fresh runtimes for the next pass, if the workload needs
    /// them and the last pass used them up.
    pub fn reinstall(&mut self, tr: &mut Tracer, span: &str) {
        if let Prepared::Serve(s) = self {
            if s.installed.is_empty() {
                s.install(tr, span);
            }
        }
    }
}

fn groebner_ref(tr: &mut Tracer, n: usize) -> GroebnerRef {
    let (ring, input) = tr.span("setup.inputs.katsura", |_| katsura(n));
    let (basis, seq) = tr.span("setup.reference.buchberger", |_| {
        let (basis, stats) = buchberger(&ring, &input, SelectionStrategy::Sugar);
        (basis, earth_algebra::cost::sequential_runtime(&stats))
    });
    GroebnerRef {
        ring,
        input,
        basis,
        seq,
    }
}

/// Generate the inputs and sequential references of `w` from `seed`.
pub fn setup(w: Workload, size: Size, seed: u64, tr: &mut Tracer) -> Prepared {
    let smoke = size == Size::Smoke;
    match w {
        Workload::PaperApps => {
            let nodes = if smoke { 8 } else { PAPER_NODES };
            let groebner = groebner_ref(tr, if smoke { 3 } else { 5 });
            let (n, clusters, tol) = if smoke {
                (60, 4, 1e-5)
            } else {
                (EIGEN_N, EIGEN_CLUSTERS, EIGEN_TOL)
            };
            let matrix_seed = stream_word(seed, LANE_EIGEN_MATRIX, 0);
            let matrix = tr.span("setup.inputs.tight_clusters", |_| {
                SymTridiagonal::tight_clusters(n, clusters, EIGEN_WITHIN, matrix_seed)
            });
            let (eigen_ref, stats) =
                tr.span("setup.reference.bisect_all", |_| bisect_all(&matrix, tol));
            let (units, samples) = if smoke {
                (24, 2)
            } else {
                (NN_UNITS, NN_SAMPLES)
            };
            let nn_seed = stream_word(seed, LANE_NEURAL, 0);
            let (net, stream) = tr.span("setup.inputs.mlp", |_| {
                neural_inputs(units, samples, nn_seed)
            });
            let nn_ref = tr.span("setup.reference.mlp", |_| {
                neural_reference(net, nodes, &stream)
            });
            Prepared::Paper(Box::new(PaperSetup {
                nodes,
                groebner,
                eigen_seq: earth_linalg::cost::sequential_runtime(&stats, matrix.n()),
                eigen_tasks: stats.tasks as u64,
                matrix,
                tol,
                eigen_ref,
                eigen_seed: stream_word(seed, LANE_EIGEN_RT, 0),
                units,
                samples,
                nn_seed,
                nn_ref,
            }))
        }
        Workload::Scale1024 => Prepared::Scale(Box::new(ScaleSetup {
            nodes: if smoke { 32 } else { SCALE_NODES },
            groebner: groebner_ref(tr, 3),
            rt_seed: stream_word(seed, LANE_SCALE_RT, 0),
        })),
        Workload::ServeChaos => {
            let (nodes, jobs, ladder) = if smoke {
                (16, 200, vec![1000.0, SERVE_REFERENCE_LOAD])
            } else {
                (SERVE_NODES, SERVE_JOBS, SERVE_LADDER.to_vec())
            };
            let plan_seed = stream_word(seed, LANE_TRAFFIC, 0);
            let points = tr.span("setup.inputs.traffic_plan", |_| {
                ladder
                    .iter()
                    .map(|&rate| {
                        let plan = serve_plan(plan_seed, jobs, rate);
                        let cfg =
                            MachineConfig::manna(nodes).with_faults(chaos_plan(nodes, jobs, rate));
                        (plan, cfg)
                    })
                    .collect()
            });
            let mut s = ServeSetup {
                rt_seed: stream_word(seed, LANE_SERVE_RT, 0),
                ladder,
                reference_load: SERVE_REFERENCE_LOAD,
                points,
                installed: Vec::new(),
            };
            s.install(tr, "setup.install");
            Prepared::Serve(Box::new(s))
        }
    }
}

/// One training sample: input and target.
type Sample = (Vec<f32>, Vec<f32>);

/// The network `earth_apps::neural::run_neural` trains, and the sample
/// stream it draws: both are functions of the seed the benchmark passes.
fn neural_inputs(units: usize, samples: usize, seed: u64) -> (Mlp, Vec<Sample>) {
    let net = Mlp::new(units, units, units, seed ^ NN_NET_SALT);
    let mut rng = Rng::new(seed ^ NN_SAMPLE_SALT);
    let stream = (0..samples)
        .map(|_| {
            let x = (0..units)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let t = (0..units)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            (x, t)
        })
        .collect();
    (net, stream)
}

/// One sequential training pass: the output of each sample's forward
/// pass, before that sample's weight update.
///
/// The hidden-layer error is summed per node slice of the output layer,
/// in node order, as the parallel app sums it. Online training at this
/// size is chaotic: summed in one run instead (`Mlp::train_sample`), the
/// f32 rounding difference alone grows past 1e-4 within ten samples and
/// to order 1 by sample 25. Every other step is per unit and identical
/// in both.
fn neural_reference(mut net: Mlp, nodes: u16, stream: &[Sample]) -> Vec<Vec<f32>> {
    let slices = partition(net.output.units, nodes as usize);
    stream
        .iter()
        .map(|(x, t)| {
            let acts = net.forward(x);
            let delta: Vec<f32> = acts
                .output
                .iter()
                .zip(t)
                .map(|(&a, &t)| (a - t) * sigmoid_prime(a))
                .collect();
            let mut err = vec![0.0f32; net.hidden.units];
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
            let units = net.output.units;
            net.output
                .update_slice(0, units, &delta, &acts.hidden, NN_LEARNING_RATE);
            let units = net.hidden.units;
            net.hidden
                .update_slice(0, units, &hidden_delta, x, NN_LEARNING_RATE);
            acts.output
        })
        .collect()
}

fn serve_plan(seed: u64, jobs: u32, rate: f64) -> TrafficPlan {
    let (d_lo, d_hi) = SERVE_DEADLINE_US;
    let (budget, base, cap) = SERVE_RETRIES;
    let (window, open_after, probe_after) = SERVE_BREAKER;
    TrafficPlan::new(seed)
        .with_jobs(jobs)
        .with_offered_load(rate)
        .with_tenants(SERVE_TENANTS)
        .with_concurrency(SERVE_CONCURRENCY)
        .with_deadlines(d_lo, d_hi)
        .with_queue_cap(SERVE_QUEUE_CAP)
        .with_retries(budget, base, cap)
        .with_deadline_shedding()
        .with_breaker(window, open_after, probe_after)
}

/// Every plane armed: loss and duplication, a crash and restart halfway
/// through the stream, and one 8× fail-slow node with the detector,
/// hedging, quarantine and speculative re-homing on.
fn chaos_plan(nodes: u16, jobs: u32, rate: f64) -> FaultPlan {
    let slow = nodes / 2;
    let crash = nodes / 4;
    let mid = VirtualTime::from_ns((f64::from(jobs) / rate * 0.5 * 1e9) as u64);
    FaultPlan::new()
        .with_drop(0.01)
        .with_duplicate(0.005)
        .with_crash_restart(crash, mid, mid + VirtualDuration::from_ns(CRASH_OUTAGE_NS))
        .with_node_slowdown(
            slow,
            VirtualTime::from_ns(50_000),
            VirtualTime::from_ns(1_000_000_000_000),
            SLOW_FACTOR,
        )
        .with_slow_detector(3.0, 3)
        .with_hedging(6.0)
        .with_quarantine(VirtualDuration::from_us(20_000))
        .with_speculative_rehoming()
}

impl ServeSetup {
    fn install(&mut self, tr: &mut Tracer, span: &str) {
        let mut installed = Vec::with_capacity(self.points.len());
        for (plan, cfg) in &self.points {
            let rt = tr.span(span, |_| {
                let mut rt = Runtime::new(cfg.clone(), self.rt_seed);
                plan.install(&mut rt);
                rt
            });
            installed.push(rt);
        }
        self.installed = installed;
    }

    fn ladder_index(&self, load: f64) -> usize {
        self.ladder
            .iter()
            .position(|&l| l == load)
            .expect("the reference load is on the ladder")
    }
}

// ---------------------------------------------------------------------------
// Runs

/// What one pass of simulation runs produced.
pub enum Outputs {
    /// `paper_apps`: Gröbner per seed, eigen per fetch mode, neural.
    Paper {
        groebner: Vec<GroebnerRun>,
        eigen: Vec<EigenRun>,
        neural: Box<NeuralRun>,
    },
    /// `scale_1024`.
    Scale(Box<GroebnerRun>),
    /// `serve_chaos`: one report (and profile when traced) per ladder load.
    Serve(Vec<(RunReport, Option<RunProfile>)>),
}

/// Run `f`, recording its host time in `secs`.
fn timed<R>(secs: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    secs.push(t.elapsed().as_secs_f64());
    out
}

/// One Gröbner completion with native EARTH costs, profiled or not.
fn groebner_run(g: &GroebnerRef, nodes: u16, seed: u64, profiled: bool) -> GroebnerRun {
    let go = if profiled {
        run_groebner_profiled
    } else {
        run_groebner
    };
    go(
        &g.ring,
        &g.input,
        nodes,
        seed,
        SelectionStrategy::Sugar,
        None,
    )
}

/// Run every simulation of one pass. Returns the outputs and the host
/// seconds of each run, in run order. `profiled` turns on earth-profile,
/// which is free in virtual time.
pub fn run_pass(prep: &mut Prepared, profiled: bool, tr: &mut Tracer) -> (Outputs, Vec<f64>) {
    let mut secs = Vec::new();
    let out = match prep {
        Prepared::Paper(p) => {
            let nodes = p.nodes;
            let groebner = GROEBNER_SEEDS
                .iter()
                .map(|&seed| {
                    tr.span("run.groebner", |_| {
                        timed(&mut secs, || {
                            groebner_run(&p.groebner, nodes, seed, profiled)
                        })
                    })
                })
                .collect();
            let eigen = [FetchMode::Individual, FetchMode::Block]
                .into_iter()
                .map(|mode| {
                    tr.span("run.eigen", |_| {
                        timed(&mut secs, || {
                            let go = if profiled {
                                run_eigen_profiled
                            } else {
                                run_eigen
                            };
                            go(&p.matrix, p.tol, nodes, p.eigen_seed, mode)
                        })
                    })
                })
                .collect();
            let neural = tr.span("run.neural", |_| {
                timed(&mut secs, || {
                    let go = if profiled {
                        run_neural_profiled
                    } else {
                        run_neural
                    };
                    let mode = PassMode::ForwardBackward;
                    go(p.units, nodes, p.samples, p.nn_seed, mode, CommsShape::Tree)
                })
            });
            Outputs::Paper {
                groebner,
                eigen,
                neural: Box::new(neural),
            }
        }
        Prepared::Scale(s) => {
            let run = tr.span("run.groebner", |_| {
                timed(&mut secs, || {
                    groebner_run(&s.groebner, s.nodes, s.rt_seed, profiled)
                })
            });
            Outputs::Scale(Box::new(run))
        }
        Prepared::Serve(s) => {
            assert_eq!(s.installed.len(), s.ladder.len(), "runtimes installed");
            let runtimes = std::mem::take(&mut s.installed);
            let points = runtimes
                .into_iter()
                .zip(&s.ladder)
                .map(|(mut rt, &rate)| {
                    tr.span(&format!("run.load_{rate:.0}"), |_| {
                        timed(&mut secs, || {
                            if profiled {
                                rt.enable_profile();
                            }
                            let report = rt.run();
                            let profile = profiled.then(|| rt.take_profile());
                            (report, profile)
                        })
                    })
                })
                .collect();
            Outputs::Serve(points)
        }
    };
    (out, secs)
}

// ---------------------------------------------------------------------------
// Checks and metrics

/// The outcome of checking one pass, with everything it measured in
/// virtual time.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Simulation runs checked against their references.
    pub runs: u64,
    /// Runs that failed a check.
    pub runs_failed: u64,
    /// Operations attempted: runs on the app workloads, jobs on serving.
    pub attempted: u64,
    /// Operations that failed: runs that failed a check on the app
    /// workloads; jobs refused, expired or late on serving.
    pub failed: u64,
    /// Output-check failures; any entry fails the benchmark.
    pub errors: Vec<String>,
    /// Counts read from the run reports: identical on every pass.
    pub counts: BTreeMap<&'static str, u64>,
    /// Virtual metrics (including per-layer ones): identical on every pass.
    pub virt: BTreeMap<&'static str, f64>,
    /// Virtual time per activity, summed over nodes (profiled passes only).
    pub profile_ms: BTreeMap<&'static str, f64>,
    /// Human-readable notes (sample counts, per-load rows).
    pub notes: Vec<String>,
}

impl Verdict {
    fn add(&mut self, key: &'static str, v: u64) {
        *self.counts.entry(key).or_default() += v;
    }

    fn add_report(&mut self, r: &RunReport) {
        self.add("sim.events", r.events);
        let peak = self.counts.entry("sim.peak_queue_depth").or_default();
        *peak = (*peak).max(r.peak_queue_depth);
        self.add("machine.net_messages", r.net_messages);
        self.add("machine.net_bytes", r.net_bytes);
        self.add("machine.link_waits", r.link_waits);
        self.add("faults.dropped", r.net_dropped);
        self.add("faults.duplicated", r.net_duplicated);
        self.add("faults.delayed", r.net_delayed);
        self.add("faults.crash_dropped", r.net_crash_dropped);
        for n in &r.nodes {
            self.add("core.threads", n.threads);
            self.add("core.tokens_run", n.tokens_run);
            self.add("core.frames_created", n.frames_created);
            self.add("core.msgs_in", n.msgs_in);
            self.add("core.steals_ok", n.steals_ok);
            self.add("core.steal_nacks", n.steal_nacks);
            self.add("core.busy_ns", n.busy.as_ns());
            self.add("reli.retransmits", n.retransmits);
            self.add("reli.dup_suppressed", n.dup_suppressed);
            self.add("recover.heartbeats", n.heartbeats);
            self.add("recover.checkpoints", n.checkpoints);
            self.add("recover.recoveries", n.recoveries);
            self.add("recover.rehomed", n.rehomed);
            self.add("recover.downtime_ns", n.downtime.as_ns());
            self.add("slow.slow_windows", n.slow_windows);
            self.add("slow.hedges_sent", n.hedges_sent);
            self.add("slow.hedges_won", n.hedges_won);
            self.add("slow.quarantines", n.quarantines);
            self.add("slow.speculated", n.speculated);
        }
        self.add("core.capacity_ns", r.elapsed.as_ns() * r.nodes.len() as u64);
        if let Some(t) = &r.traffic {
            self.add("traffic.arrived", t.arrived);
            self.add("traffic.admitted", t.admitted);
            self.add("traffic.completed", t.completed);
            self.add("traffic.rejected", t.rejected);
            self.add("traffic.expired", t.expired);
            self.add("traffic.retries", t.retries);
            self.add("traffic.breaker_opens", t.breaker_opens);
            let peak = self.counts.entry("traffic.peak_waiting").or_default();
            *peak = (*peak).max(t.peak_waiting);
        }
    }

    fn add_profile(&mut self, p: Option<&RunProfile>) {
        let Some(p) = p else { return };
        for n in &p.nodes {
            for (key, d) in [
                ("core.vt_poll_ms", n.poll),
                ("core.vt_thread_ms", n.thread),
                ("core.vt_token_ms", n.token),
                ("core.vt_steal_ms", n.steal),
                ("reli.vt_retransmit_ms", n.retransmit),
                ("recover.vt_heartbeat_ms", n.heartbeat),
                ("recover.vt_checkpoint_ms", n.checkpoint),
                ("recover.vt_recover_ms", n.recover),
                ("slow.vt_hedge_ms", n.hedge),
            ] {
                *self.profile_ms.entry(key).or_default() += d.as_ms_f64();
            }
        }
    }

    /// Record one checked run; true when it passed.
    fn checked(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.runs += 1;
        let ok = result.is_ok();
        if let Err(e) = result {
            self.runs_failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
        ok
    }

    /// Record one app operation: a checked run.
    fn op(&mut self, what: &str, result: Result<(), String>) {
        let ok = self.checked(what, result);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The part of the verdict that must repeat exactly on every pass,
    /// traced or not.
    pub fn fingerprint(&self) -> String {
        let mut s = format!("attempted={} failed={}", self.attempted, self.failed);
        for (k, v) in &self.counts {
            s.push_str(&format!(" {k}={v}"));
        }
        for (k, v) in &self.virt {
            s.push_str(&format!(" {k}={v:?}"));
        }
        s
    }
}

fn check_clean(r: &RunReport) -> Result<(), String> {
    if r.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "run left debris: {} tokens, {} frames",
            r.leftover_tokens, r.live_frames
        ))
    }
}

/// The parallel basis `B` is a Gröbner basis of the input ideal `I`, so
/// `reduce_basis(B)` equals the sequential reduced basis and
/// `is_groebner(B)` holds, exactly when
///
/// 1. every element of `B` reduces to zero modulo the sequential basis
///    `S` (a Gröbner basis of `I`), so `B ⊆ I`; and
/// 2. every leading monomial of `S` is divisible by one of `B`, so
///    `LT(B)` generates `LT(I)`.
///
/// This costs milliseconds on Katsura-5, where `reduce_basis` and
/// `is_groebner` on the parallel basis take over ten seconds per run.
fn check_groebner(g: &GroebnerRef, run: &GroebnerRun) -> Result<(), String> {
    check_clean(&run.report)?;
    let mut work = Work::default();
    if let Some(k) = run
        .basis
        .iter()
        .position(|p| !normal_form(&g.ring, p, &g.basis, &mut work).is_zero())
    {
        return Err(format!("basis element {k} is not in the input ideal"));
    }
    if let Some(k) = g
        .basis
        .iter()
        .position(|s| !run.basis.iter().any(|p| p.lead().m.divides(&s.lead().m)))
    {
        return Err(format!(
            "leading monomial of sequential element {k} is not covered: not a Gröbner basis"
        ));
    }
    Ok(())
}

fn check_eigen(p: &PaperSetup, run: &EigenRun) -> Result<(), String> {
    check_clean(&run.report)?;
    if run.eigenvalues.len() != p.eigen_ref.len() {
        return Err(format!(
            "{} eigenvalues, sequential bisection found {}",
            run.eigenvalues.len(),
            p.eigen_ref.len()
        ));
    }
    // False for a NaN, so a NaN fails.
    let close = |a: f64, b: f64| (a - b).abs() <= 2.0 * p.tol;
    match run
        .eigenvalues
        .iter()
        .zip(&p.eigen_ref)
        .position(|(&a, &b)| !close(a, b))
    {
        Some(k) => Err(format!(
            "eigenvalue {k} is {}, sequential bisection {}: more than 2·tol apart",
            run.eigenvalues[k], p.eigen_ref[k]
        )),
        None => Ok(()),
    }
}

fn check_neural(p: &PaperSetup, run: &NeuralRun) -> Result<(), String> {
    check_clean(&run.report)?;
    if run.outputs.len() != p.samples {
        return Err(format!(
            "{} outputs for {} samples",
            run.outputs.len(),
            p.samples
        ));
    }
    // False for a NaN, so a NaN fails.
    let close = |a: f32, b: f32| (a - b).abs() < NN_TOLERANCE;
    for (k, (got, want)) in run.outputs.iter().zip(&p.nn_ref).enumerate() {
        if got.len() != want.len() {
            return Err(format!(
                "sample {k}: {} outputs, want {}",
                got.len(),
                want.len()
            ));
        }
        if let Some(u) = got.iter().zip(want).position(|(&a, &b)| !close(a, b)) {
            return Err(format!(
                "sample {k} unit {u}: output {}, sequential {}",
                got[u], want[u]
            ));
        }
    }
    Ok(())
}

fn speedup(seq: VirtualDuration, par: VirtualDuration) -> f64 {
    seq.as_us_f64() / par.as_us_f64()
}

/// Serving metrics at one load.
struct LoadPoint {
    rate: f64,
    p50_ms: f64,
    tail_ms: f64,
    tail_n: usize,
    goodput: f64,
    backlog_ratio: f64,
}

impl LoadPoint {
    fn meets_limits(&self) -> bool {
        self.tail_ms <= SERVE_TAIL_LIMIT_MS
            && self.goodput >= SERVE_GOODPUT_FLOOR
            && self.backlog_ratio <= 2.0
    }
}

/// Nearest-rank value of sorted samples with exactly `TAIL_BEYOND`
/// samples beyond it (the largest sample when there are too few).
fn tail_of(sorted: &[f64]) -> Option<f64> {
    sorted
        .get(sorted.len().saturating_sub(TAIL_BEYOND + 1))
        .copied()
}

/// Nearest-rank median of sorted samples, 0 when there are none.
pub(crate) fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        nearest_rank(sorted, 0.5)
    }
}

fn sorted_ms(v: impl Iterator<Item = VirtualDuration>) -> Vec<f64> {
    let mut v: Vec<f64> = v.map(|d| d.as_ms_f64()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median queue wait of the last tenth of arrivals over that of the
/// first tenth; a growing backlog shows as a ratio above 2. Waits under
/// [`BACKLOG_FLOOR_MS`] count as the floor: the first tenth starts on an
/// empty machine, so below it the ratio measures warm-up, not growth. A
/// tenth whose jobs were all refused counts as unbounded growth.
fn backlog_ratio(t: &TrafficReport) -> f64 {
    let tenth = (t.jobs.len() / 10).max(1);
    let wait = |jobs: &[earth_rt::JobRecord]| {
        let w = sorted_ms(jobs.iter().filter_map(|r| r.queue_wait()));
        (!w.is_empty()).then(|| median(&w).max(BACKLOG_FLOOR_MS))
    };
    match (
        wait(&t.jobs[..tenth]),
        wait(&t.jobs[t.jobs.len() - tenth..]),
    ) {
        (Some(first), Some(last)) => last / first,
        _ => f64::INFINITY,
    }
}

fn load_point(rate: f64, t: &TrafficReport) -> LoadPoint {
    let sojourns = sorted_ms(t.jobs.iter().filter_map(|r| r.sojourn()));
    LoadPoint {
        rate,
        p50_ms: median(&sojourns),
        tail_ms: tail_of(&sojourns).unwrap_or(f64::INFINITY),
        tail_n: sojourns.len(),
        goodput: t.slo(None, None).goodput(),
        backlog_ratio: backlog_ratio(t),
    }
}

/// Check one pass's outputs against the references and measure it.
pub fn check(prep: &Prepared, out: &Outputs, tr: &mut Tracer) -> Verdict {
    let mut v = Verdict::default();
    match (prep, out) {
        (
            Prepared::Paper(p),
            Outputs::Paper {
                groebner,
                eigen,
                neural,
            },
        ) => {
            let mut gb_speedup = 0.0;
            for run in groebner {
                v.op(
                    "groebner",
                    tr.span("check.groebner", |_| check_groebner(&p.groebner, run)),
                );
                v.add_report(&run.report);
                v.add_profile(run.profile.as_ref());
                v.add("algebra.pairs_reduced", run.pairs_reduced);
                gb_speedup += speedup(p.groebner.seq, run.elapsed) / groebner.len() as f64;
            }
            let mut eig_speedup = 0.0;
            for run in eigen {
                v.op("eigen", tr.span("check.eigen", |_| check_eigen(p, run)));
                v.add_report(&run.report);
                v.add_profile(run.profile.as_ref());
                eig_speedup += speedup(p.eigen_seq, run.elapsed) / eigen.len() as f64;
            }
            v.op(
                "neural",
                tr.span("check.neural", |_| check_neural(p, neural)),
            );
            v.add_report(&neural.report);
            v.add_profile(neural.profile.as_ref());
            v.add("linalg.tasks", p.eigen_tasks);
            v.add("nn.samples", p.samples as u64);
            let nn_seq = earth_nn::cost::sequential_forward_backward(p.units);
            v.virt.insert("speedup.groebner", gb_speedup);
            v.virt.insert("speedup.eigen", eig_speedup);
            v.virt
                .insert("speedup.neural", speedup(nn_seq, neural.per_sample));
            v.virt.insert(
                "apps.paper_gap.groebner",
                (gb_speedup - PAPER_GROEBNER_SPEEDUP).abs() / PAPER_GROEBNER_SPEEDUP,
            );
            v.virt.insert(
                "apps.paper_gap.eigen",
                (eig_speedup - PAPER_EIGEN_SPEEDUP).abs() / PAPER_EIGEN_SPEEDUP,
            );
            v.notes.push(format!(
                "paper gaps: groebner {gb_speedup:.2} vs {PAPER_GROEBNER_SPEEDUP} (Fig. 4 plateau), \
                 eigen {eig_speedup:.2} vs {PAPER_EIGEN_SPEEDUP} (Fig. 2, close to optimal)"
            ));
        }
        (Prepared::Scale(s), Outputs::Scale(run)) => {
            v.op(
                "groebner",
                tr.span("check.groebner", |_| check_groebner(&s.groebner, run)),
            );
            v.add_report(&run.report);
            v.add_profile(run.profile.as_ref());
            v.add("algebra.pairs_reduced", run.pairs_reduced);
            v.virt
                .insert("speedup.groebner", speedup(s.groebner.seq, run.elapsed));
        }
        (Prepared::Serve(s), Outputs::Serve(points)) => {
            let mut capacity = 0.0;
            for (&rate, (report, profile)) in s.ladder.iter().zip(points) {
                let what = format!("load {rate:.0}");
                let Some(t) = report.traffic.as_ref() else {
                    v.checked(&what, Err("no traffic report".into()));
                    continue;
                };
                let drained = tr.span(&format!("check.load_{rate:.0}"), |_| {
                    if !report.traffic_drained() {
                        Err("stream did not drain to terminal outcomes".into())
                    } else if !t.is_conserved() {
                        Err("job accounting is not conserved".into())
                    } else {
                        Ok(())
                    }
                });
                v.checked(&what, drained);
                for job in &t.jobs {
                    v.attempted += 1;
                    if !job.attained() {
                        v.failed += 1;
                    }
                }
                v.add_report(report);
                v.add_profile(profile.as_ref());
                let pt = load_point(rate, t);
                if pt.meets_limits() {
                    capacity = rate;
                }
                v.notes.push(format!(
                    "load {:>5.0} jobs/s: events {}, p50 {:.3} ms, tail {:.3} ms (n={}), \
                     goodput {:.4}, backlog x{:.2}, refused {}, missed {}",
                    pt.rate,
                    report.events,
                    pt.p50_ms,
                    pt.tail_ms,
                    pt.tail_n,
                    pt.goodput,
                    pt.backlog_ratio,
                    t.rejected + t.expired,
                    t.jobs
                        .iter()
                        .filter(|j| j.outcome == JobOutcome::Completed && !j.attained())
                        .count(),
                ));
                if rate == s.reference_load {
                    v.virt.insert("sojourn_p50_ms", pt.p50_ms);
                    v.virt.insert("sojourn_tail_ms", pt.tail_ms);
                    v.virt.insert("goodput", pt.goodput);
                    v.add("traffic.tail_samples", pt.tail_n as u64);
                    let waits = sorted_ms(t.jobs.iter().filter_map(|r| r.queue_wait()));
                    let service = sorted_ms(t.jobs.iter().filter_map(|r| r.service()));
                    v.virt.insert("traffic.queue_wait_p50_ms", median(&waits));
                    v.virt
                        .insert("traffic.queue_wait_tail_ms", tail_of(&waits).unwrap_or(0.0));
                    v.virt.insert("traffic.service_p50_ms", median(&service));
                    v.virt
                        .insert("traffic.service_tail_ms", tail_of(&service).unwrap_or(0.0));
                }
            }
            v.virt.insert("capacity_jobs_per_s", capacity);
        }
        _ => unreachable!("outputs come from the same workload's pass"),
    }
    v
}
