//! The repository benchmark.
//!
//! One command runs one workload (`paper_apps`, `scale_1024` or
//! `serve_chaos`, see [`workloads`]) in a single-threaded process:
//!
//! * **Untraced** (`--trace 0`): set-ups (inputs and sequential
//!   references) and passes of the workload's simulation runs alternate
//!   for the given number of seconds; `setup_s` is the median set-up and
//!   `wall_s` the sum of each run's fastest time. Every pass is checked
//!   against the sequential references, and every pass must repeat the
//!   first one's counts and virtual results exactly.
//! * **Traced** (`--trace 1`): one set-up, one untraced pass, then one
//!   profiled pass with a span around every call the benchmark makes into
//!   a layer, then the layer probes. Per-layer host numbers are span
//!   self times (`sim.host_ns_per_event` divides the untraced pass's run
//!   time by its events); virtual numbers come from the run reports and
//!   profiles, and must equal the untraced pass's.

pub mod catalogue;
pub mod probes;
pub mod span;
pub mod workloads;

use catalogue::{MetricDef, END_TO_END, VIRTUAL};
use span::{self_secs, self_secs_prefixed, Span, Tracer};
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{Prepared, Size, Verdict, Workload};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the untraced run repeats passes.
    pub seconds: f64,
    /// Traced run instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// The result of one benchmark run.
pub struct Outcome {
    /// Every output check passed and every pass repeated exactly.
    pub correct: bool,
    /// Simulation runs checked against their references, all passes.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// What went wrong, if anything.
    pub errors: Vec<String>,
    /// The metrics of the JSON result line, in print order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Human-readable report printed before the result line.
    pub text: String,
    /// Spans of a traced run (empty otherwise).
    pub spans: Vec<Span>,
    /// Digest of the counts and virtual results, equal for every run of
    /// one seed, traced or not.
    pub digest: u64,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (m, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite float as JSON, with every digit Rust's shortest round-trip
/// form gives.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Host cores, recorded with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    workloads::median(&v)
}

/// FNV-1a digest of a fingerprint, printed so runs of the same seed in
/// different processes can be compared.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Describe where two fingerprints differ.
fn fingerprint_diff(a: &str, b: &str) -> String {
    let diffs: Vec<String> = a
        .split(' ')
        .zip(b.split(' '))
        .filter(|(x, y)| x != y)
        .map(|(x, y)| format!("{x} vs {y}"))
        .take(8)
        .collect();
    if diffs.is_empty() {
        "fingerprints differ in length".into()
    } else {
        diffs.join(", ")
    }
}

fn header(opts: &Options, prep: &Prepared, passes: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "perfbench {} seed {} trace {} nproc {} passes {} (one single-threaded process for this workload)",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        nproc(),
        passes
    );
    if let Some((ladder, reference)) = prep.ladder() {
        let rates: Vec<String> = ladder.iter().map(|r| format!("{r:.0}")).collect();
        let _ = writeln!(
            s,
            "offered-load ladder {} jobs/s (reference {reference:.0}, tail limit {} ms, goodput floor {}); \
             open loop: arrivals are scheduled in virtual time, so generator lateness is 0 by construction",
            rates.join(" "),
            workloads::SERVE_TAIL_LIMIT_MS,
            workloads::SERVE_GOODPUT_FLOOR
        );
    }
    s
}

fn metric_line(s: &mut String, m: &MetricDef, v: f64, note: &str) {
    let _ = writeln!(
        s,
        "  {:<26} {:>16} {:<15} {} is better{note}",
        m.name,
        format!("{v:.6}"),
        m.unit,
        m.better.as_str()
    );
}

/// Run the benchmark as `opts` says.
pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// Every timing sample of an untraced run, for the report.
fn sample_line(setup_secs: &[f64], run_secs: &[Vec<f64>]) -> String {
    let mut sorted = setup_secs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let passes: Vec<String> = run_secs
        .iter()
        .map(|p| format!("{:.3}", p.iter().sum::<f64>()))
        .collect();
    format!(
        "  samples: set-up s min {:.4} median {:.4} max {:.4} of {}; pass s {}\n",
        sorted[0],
        sorted[sorted.len() / 2],
        sorted[sorted.len() - 1],
        sorted.len(),
        passes.join(" ")
    )
}

/// Set up `reps` times, timing each; keep the last set-up.
fn timed_setups(opts: &Options, reps: usize, secs: &mut Vec<f64>) -> Prepared {
    let mut off = Tracer::new(false, opts.workload.name(), opts.seed);
    let mut prep = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let p = workloads::setup(opts.workload, opts.size, opts.seed, &mut off);
        secs.push(t.elapsed().as_secs_f64());
        prep = Some(p);
    }
    prep.expect("at least one set-up")
}

/// The untraced run. Set-ups and passes alternate until `opts.seconds`
/// have passed, so both sample the whole run.
///
/// `wall_s` sums, over the runs of a pass, each run's fastest time across
/// the passes. On a shared 2-core host the same run's time drifts by up
/// to 1.6× in phases of 10 to 40 seconds, and that noise only ever adds
/// time: a run's median over 30 seconds lands anywhere in that range,
/// while its minimum repeats within a few percent.
fn run_untraced(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut off = Tracer::new(false, w.name(), opts.seed);
    let reps = w.setups_per_pass();
    let mut setup_secs = Vec::new();
    let mut errors = Vec::new();
    let mut run_secs: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<Verdict> = None;
    let mut prep = None;
    let (mut attempted, mut failed, mut checked, mut checked_failed) = (0, 0, 0, 0);
    let start = Instant::now();
    loop {
        let prep = prep.insert(timed_setups(opts, reps, &mut setup_secs));
        let (out, secs) = workloads::run_pass(prep, false, &mut off);
        let v = workloads::check(prep, &out, &mut off);
        drop(out);
        run_secs.push(secs);
        let passes = run_secs.len();
        attempted += v.attempted;
        failed += v.failed;
        checked += v.runs;
        checked_failed += v.runs_failed;
        errors.extend(v.errors.iter().map(|e| format!("pass {passes}: {e}")));
        match &first {
            None => first = Some(v),
            Some(f) if f.fingerprint() != v.fingerprint() => errors.push(format!(
                "determinism: pass {passes} differs from pass 1: {}",
                fingerprint_diff(&f.fingerprint(), &v.fingerprint())
            )),
            Some(_) => {}
        }
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let prep = prep.expect("at least one pass");
    let first = first.expect("at least one pass");
    let passes = run_secs.len();
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        errors.push(e);
        0.0
    });

    let runs = run_secs[0].len();
    let wall: f64 = (0..runs)
        .map(|j| {
            run_secs
                .iter()
                .map(|pass| pass[j])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let setups = setup_secs.len();
    let samples = sample_line(&setup_secs, &run_secs);
    let values = [wall, median(setup_secs), rss];
    let metrics: Vec<(&'static MetricDef, f64)> = END_TO_END.iter().zip(values).collect();
    let mut text = header(opts, &prep, passes);
    text.push_str("end-to-end metrics (host: tracing off; virtual: the modelled machine)\n");
    let notes = [
        format!(" (sum over {runs} runs of each one's fastest of {passes} passes)"),
        format!(" (median of {setups} set-ups)"),
        String::new(),
    ];
    for ((m, v), note) in metrics.iter().zip(&notes) {
        metric_line(&mut text, m, *v, note);
    }
    for m in VIRTUAL {
        if let Some(&v) = first.virt.get(m.name) {
            let note = match (m.name, first.counts.get("traffic.tail_samples")) {
                ("sojourn_tail_ms", Some(n)) => {
                    format!(" ({n} samples, {} beyond)", n.min(&10))
                }
                _ => String::new(),
            };
            metric_line(&mut text, m, v, &note);
        }
    }
    for note in &first.notes {
        let _ = writeln!(text, "  {note}");
    }
    text.push_str(&samples);
    let _ = writeln!(
        text,
        "ops_attempted {attempted} ops_failed {failed}; runs checked {checked}, failed {checked_failed}"
    );
    let digest = digest(&first.fingerprint());
    let _ = writeln!(
        text,
        "determinism: {passes} passes identical, virtual digest {digest:016x}"
    );
    Outcome {
        correct: errors.is_empty(),
        attempted: checked,
        failed: checked_failed,
        errors,
        metrics,
        text,
        spans: Vec::new(),
        digest,
    }
}

fn run_traced(opts: &Options) -> Outcome {
    let w = opts.workload;
    let smoke = opts.size == Size::Smoke;
    let mut tr = Tracer::new(true, w.name(), opts.seed);
    let mut errors = Vec::new();
    let (prep, base, base_secs, traced, traced_secs, probes) = tr.span(w.name(), |tr| {
        let mut prep = tr.span("setup", |tr| workloads::setup(w, opts.size, opts.seed, tr));
        let (base, base_secs) = tr.span("untraced_pass", |_| {
            let mut off = Tracer::new(false, w.name(), opts.seed);
            let (out, secs) = workloads::run_pass(&mut prep, false, &mut off);
            (
                workloads::check(&prep, &out, &mut off),
                secs.iter().sum::<f64>(),
            )
        });
        prep.reinstall(tr, "rerun.install");
        let (out, traced_secs) = tr.span("run", |tr| workloads::run_pass(&mut prep, true, tr));
        let traced_secs: f64 = traced_secs.iter().sum();
        let traced = tr.span("check", |tr| workloads::check(&prep, &out, tr));
        drop(out);
        let probes = tr.span("probe", |tr| {
            let (hold_ops, msgs) = if smoke {
                (5_000, 5_000)
            } else {
                (400_000, 400_000)
            };
            let depth = traced
                .counts
                .get("sim.peak_queue_depth")
                .copied()
                .unwrap_or(1);
            let hold = tr.span("probe.sim_hold", |_| {
                probes::sim_hold_ns(depth as usize, hold_ops)
            });
            let cfg = prep.probe_config();
            let send = tr.span("probe.machine_send", |_| {
                probes::machine_send_ns(&cfg, msgs)
            });
            let fate = cfg.faults.is_some().then(|| {
                tr.span("probe.faults_send", |_| probes::faults_send_ns(&cfg, msgs)) - send
            });
            (hold, send, fate.unwrap_or(0.0))
        });
        (prep, base, base_secs, traced, traced_secs, probes)
    });
    let spans = tr.spans().to_vec();
    if let Err(e) = span::check_tree(&spans) {
        errors.push(format!("span tree: {e}"));
    }
    errors.extend(traced.errors.iter().map(|e| format!("traced pass: {e}")));
    errors.extend(base.errors.iter().map(|e| format!("untraced pass: {e}")));
    if base.fingerprint() != traced.fingerprint() {
        errors.push(format!(
            "determinism: the traced pass differs from the untraced one: {}",
            fingerprint_diff(&base.fingerprint(), &traced.fingerprint())
        ));
    }

    let (hold_ns, send_ns, fate_ns) = probes;
    let count = |k: &str| traced.counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let value = |name: &str| -> Option<f64> {
        if let Some(&v) = traced.virt.get(name) {
            return Some(v);
        }
        if let Some(&v) = traced.counts.get(name) {
            return Some(v as f64);
        }
        if let Some(&v) = traced.profile_ms.get(name) {
            return Some(v);
        }
        Some(match name {
            "algebra.reference_s" => self_secs(&spans, "setup.reference.buchberger"),
            "algebra.run_s" => self_secs(&spans, "run.groebner"),
            "algebra.run_us_per_pair" => ratio(
                self_secs(&spans, "run.groebner") * 1e6,
                count("algebra.pairs_reduced"),
            ),
            "nn.reference_s" => self_secs(&spans, "setup.reference.mlp"),
            "nn.run_s" => self_secs(&spans, "run.neural"),
            "nn.run_us_per_sample" => {
                ratio(self_secs(&spans, "run.neural") * 1e6, count("nn.samples"))
            }
            "linalg.reference_s" => self_secs(&spans, "setup.reference.bisect_all"),
            "linalg.run_s" => self_secs(&spans, "run.eigen"),
            "apps.check_s" => self_secs_prefixed(&spans, "check."),
            "sim.host_ns_per_event" => ratio(base_secs * 1e9, count("sim.events")),
            "sim.hold_ns_per_op" => hold_ns,
            "machine.send_ns_per_msg" => send_ns,
            "faults.fate_ns_per_msg" => fate_ns,
            "core.steal_ok_ratio" => ratio(
                count("core.steals_ok"),
                count("core.steals_ok") + count("core.steal_nacks"),
            ),
            "core.utilization" => ratio(count("core.busy_ns"), count("core.capacity_ns")),
            "reli.retransmit_ratio" => {
                ratio(count("reli.retransmits"), count("machine.net_messages"))
            }
            "recover.downtime_ms" => count("recover.downtime_ns") / 1e6,
            "slow.hedge_won_ratio" => ratio(count("slow.hedges_won"), count("slow.hedges_sent")),
            "setup.install_s" => self_secs(&spans, "setup.install"),
            "setup.inputs_s" => self_secs_prefixed(&spans, "setup.inputs."),
            "trace.overhead_s" => traced_secs - base_secs,
            _ => return None,
        })
    };
    let mut metrics = Vec::new();
    for m in catalogue::per_layer() {
        // A layer the workload does not use has no counter, span or
        // virtual result: it reads 0.
        let v = value(m.name).unwrap_or(0.0);
        metrics.push((m, v));
    }

    let mut text = header(opts, &prep, 1);
    text.push_str(&span::render_tree(&spans));
    text.push_str("per-layer metrics (traced run; host times are span self times)\n");
    for (m, v) in &metrics {
        metric_line(&mut text, m, *v, "");
    }
    for note in &traced.notes {
        let _ = writeln!(text, "  {note}");
    }
    let _ = writeln!(
        text,
        "ops_attempted {} ops_failed {}; runs checked {}, failed {}",
        traced.attempted, traced.failed, traced.runs, traced.runs_failed
    );
    let digest = digest(&traced.fingerprint());
    let _ = writeln!(
        text,
        "determinism: traced and untraced passes agree: {}, virtual digest {digest:016x}",
        base.fingerprint() == traced.fingerprint()
    );
    Outcome {
        correct: errors.is_empty(),
        attempted: traced.runs,
        failed: traced.runs_failed,
        errors,
        metrics,
        text,
        spans,
        digest,
    }
}
