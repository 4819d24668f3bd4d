//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--json] [--smoke] [table1|fig2|table2|fig4|fig5|table3|fig7|fig8|ablation|dual|profile|faults|crashes|scale|traffic|overload|stragglers|all]
//! ```
//!
//! `--quick` shrinks matrices and seed counts (same shapes, CI speed).
//! `--json` emits one machine-readable JSON record per experiment
//! instead of the text tables. `--smoke` shrinks the open-loop and scale
//! sweeps to CI size. An unknown experiment name or flag prints the
//! valid ones to stderr and exits 2 before anything runs.
//!
//! `profile` (not part of `all`) runs the earth-profile demo: the
//! overhead breakdown and utilization timeline for seeded eigenvalue
//! and Gröbner runs; with `--json` it emits the eigenvalue run's
//! Chrome-trace-format JSON (load in Perfetto or `chrome://tracing`).
//!
//! `faults` (not part of `all`) runs the fault-plane degradation sweep:
//! a fixed-seed eigenvalue workload under a drop-rate × node-count
//! grid, with the reliability layer keeping every cell's results
//! bit-identical to the fault-free baseline.
//!
//! `crashes` (not part of `all`) runs the availability sweep: the same
//! workload with one node crash-stopped at a grid of crash times ×
//! checkpoint intervals, with the checkpoint/recovery plane keeping
//! every cell's results bit-identical to the fault-free baseline.
//!
//! `scale` (not part of `all`) runs the topology scale sweep:
//! speedup-vs-nodes curves for all three applications across the four
//! interconnects, up to 1024 nodes (`--smoke` caps the sweep at 256
//! nodes). Fixed-seed, so `repro scale --json` is a diffable artifact.
//!
//! `traffic` (not part of `all`) runs the traffic-plane sweep: open-loop
//! mixed-class job streams through the admission/queueing front-end
//! over an offered-load × machine-size grid, with per-class p50/p95/p99
//! sojourn digests and lossy + crashed degradation variants (`--smoke`
//! shrinks the streams to CI size). Fixed-seed, so `repro traffic
//! --json` is a diffable artifact.
//!
//! `overload` (not part of `all`) runs the overload-control sweep:
//! goodput vs offered load for the same deadlined, retrying job stream
//! with the defenses (deadline shedding + per-tenant circuit breaker)
//! off and on, plus lossy + crashed chaos variants at the heaviest
//! load (`--smoke` shrinks the streams to CI size). Fixed-seed, so
//! `repro overload --json` is a diffable artifact.
//!
//! `stragglers` (not part of `all`) runs the gray-failure sweep:
//! goodput vs fail-slow severity for the same deadlined job stream with
//! the straggler defenses (outlier detection, hedged retransmits,
//! quarantine-aware placement, speculative re-homing) off and on, over
//! a slowdown-factor × machine-size grid, plus lossy + crashed chaos
//! variants at the heaviest point (`--smoke` shrinks the streams to CI
//! size). Fixed-seed, so `repro stragglers --json` is a diffable
//! artifact.

use earth_bench::*;

/// The command line, parsed once.
struct Opts {
    scale: Scale,
    json: bool,
    smoke: bool,
}

impl Opts {
    /// The CI-sized sweep under `--smoke`, else the full one.
    fn sized<T>(&self, full: fn() -> T, smoke: fn() -> T) -> T {
        if self.smoke {
            smoke()
        } else {
            full()
        }
    }
}

/// A result (anything with `render` and `to_json`) as `--json` asks:
/// its JSON record or its text rendering.
macro_rules! show {
    ($o:expr, $result:expr) => {{
        let r = $result;
        if $o.json {
            r.to_json()
        } else {
            r.render()
        }
    }};
}

/// One subcommand: `run` returns what it prints. `in_all` subcommands
/// run under `all` or when no name is given; the rest only when named.
struct Experiment {
    name: &'static str,
    in_all: bool,
    run: fn(&Opts) -> String,
}

/// A paper table or figure: runs under `all`.
const fn paper(name: &'static str, run: fn(&Opts) -> String) -> Experiment {
    Experiment {
        name,
        in_all: true,
        run,
    }
}

/// An extra sweep or demo: runs only when named.
const fn extra(name: &'static str, run: fn(&Opts) -> String) -> Experiment {
    Experiment {
        name,
        in_all: false,
        run,
    }
}

/// Every subcommand, in output order.
const EXPERIMENTS: &[Experiment] = &[
    paper("table1", |o| show!(o, table1(o.scale))),
    paper("fig2", |o| show!(o, fig2(o.scale))),
    paper("table2", |o| show!(o, table2())),
    paper("fig4", |o| {
        let title = "Figure 4: Groebner speedups, EARTH (paper limits: ~9@11 Lazard, ~12@12 K4, ~12.5@14 K5)";
        let curves = fig4(o.scale);
        if o.json {
            groebner_curves_to_json("fig4", &curves)
        } else {
            render_groebner_curves(title, &curves)
        }
    }),
    paper("fig5", |o| {
        let title = "Figure 5: Groebner speedups under message-passing overheads (paper: EARTH scales, 300-1000us collapse except coarse-grained Katsura-5)";
        let curves = fig5(o.scale);
        if o.json {
            groebner_curves_to_json("fig5", &curves)
        } else {
            render_groebner_curves(title, &curves)
        }
    }),
    paper("table3", |o| show!(o, table3(o.scale))),
    paper("fig7", |o| {
        let title = "Figure 7: NN forward-only speedups (paper: 11@16 for 80u, 17@20 for 200u)";
        let curves = fig7(o.scale);
        if o.json {
            neural_curves_to_json("fig7", &curves)
        } else {
            render_neural_curves(title, &curves)
        }
    }),
    paper("fig8", |o| {
        let title =
            "Figure 8: NN forward+backward speedups (paper: 10@16 for 80u, 14.5@20 for 200u)";
        let curves = fig8(o.scale);
        if o.json {
            neural_curves_to_json("fig8", &curves)
        } else {
            render_neural_curves(title, &curves)
        }
    }),
    paper("ablation", |o| show!(o, comms_ablation(o.scale))),
    paper("dual", |o| show!(o, dual_check(o.scale))),
    // Deliberately excluded from `all`: the demo's value is its stable,
    // seed-exact output, not paper reproduction.
    extra("profile", |o| show!(o, profile_demo())),
    extra("faults", |o| show!(o, faults_table())),
    extra("crashes", |o| show!(o, crashes_table())),
    extra("scale", |o| show!(o, o.sized(scale_table, scale_smoke))),
    extra("traffic", |o| {
        show!(o, o.sized(traffic_table, traffic_smoke))
    }),
    extra("overload", |o| {
        show!(o, o.sized(overload_table, overload_smoke))
    }),
    extra("stragglers", |o| {
        show!(o, o.sized(stragglers_table, stragglers_smoke))
    }),
];

/// Every flag `repro` accepts.
const FLAGS: [&str; 3] = ["--quick", "--json", "--smoke"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        eprintln!("repro: unknown flag `{bad}`");
        eprintln!("valid flags: {}", FLAGS.join(" "));
        std::process::exit(2);
    }
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let known = |n: &str| n == "all" || EXPERIMENTS.iter().any(|e| e.name == n);
    if let Some(bad) = names.iter().find(|n| !known(n)) {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("repro: unknown experiment `{bad}`");
        eprintln!("valid names: {} all", valid.join(" "));
        std::process::exit(2);
    }
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let o = Opts {
        scale: if has("--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        },
        json: has("--json"),
        smoke: has("--smoke"),
    };
    let all = names.is_empty() || names.contains(&"all");

    if !o.json {
        println!("=== EARTH-MANNA reproduction ({:?} scale) ===\n", o.scale);
    }
    for e in EXPERIMENTS {
        if (all && e.in_all) || names.contains(&e.name) {
            println!("{}", (e.run)(&o));
        }
    }
}
