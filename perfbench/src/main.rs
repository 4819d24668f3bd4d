//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_apps|scale_1024|serve_chaos|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then the result as one JSON line. Exits
//! 1 when an output check or the determinism guard fails, 2 on bad usage.
//! `--workload all` runs each workload in a child process of its own, one
//! after another, so each keeps its own peak memory.

use perfbench::workloads::{Size, Workload};
use perfbench::Options;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper_apps|scale_1024|serve_chaos|all> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 1997;
/// Seconds of passes when none is given.
const DEFAULT_SECONDS: u64 = 30;

/// Parsed arguments; `workload` is `None` for `--workload all`.
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(match name.as_str() {
                    "all" => None,
                    _ => Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    ),
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("give a --workload")?,
        seed,
        seconds,
        trace,
    })
}

/// Run every workload in its own child process, forwarding its output.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut shared: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            shared.push(a);
        }
    }
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(&shared)
            .args(["--workload", w.name()])
            .status();
        match status {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = cli.workload else {
        return run_all(&args);
    };
    let outcome = perfbench::run(&Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds as f64,
        trace: cli.trace,
        size: Size::Full,
    });
    print!("{}", outcome.text);
    for e in &outcome.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
