//! End-to-end checks of the `repro` binary's command line: the
//! subcommand table rejects unknown names and flags, dispatches to the
//! right sweep, and keeps `--json` output one JSON record per line.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("failed to launch repro")
}

#[test]
fn unknown_names_and_flags_are_rejected() {
    // (arguments, the one repro must name, a valid choice it must list)
    for (args, bad, valid) in [
        (&["fig4b"][..], "fig4b", "table1"),
        (&["bench"], "bench", "stragglers"),
        (&["--quick", "--jsn", "dual"], "--jsn", "--json"),
        (&["--check-schema", "x"], "--check-schema", "--smoke"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(bad) && err.contains(valid), "{err}");
        assert!(
            out.stdout.is_empty(),
            "nothing may run before the name and flag checks"
        );
    }
}

#[test]
fn traffic_smoke_prints_its_pinned_record() {
    let out = repro(&["--json", "traffic", "--smoke"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout, include_str!("golden/traffic_smoke.json"));
}

#[test]
fn json_mode_prints_only_json_records() {
    let out = repro(&["--quick", "--json", "dual", "table1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    for line in stdout.lines() {
        assert!(line.starts_with("{\"experiment\":\""), "not JSON: {line}");
    }
}
