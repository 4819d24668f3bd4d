//! End-to-end checks of the `repro` binary's command line: the
//! subcommand table rejects unknown names, dispatches to the right
//! sweep, and keeps `--json` output one JSON record per line.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("failed to launch repro")
}

#[test]
fn unknown_experiment_name_is_rejected() {
    let out = repro(&["fig4b"]);
    assert!(!out.status.success(), "repro fig4b must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fig4b") && err.contains("fig4"), "{err}");
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the name check"
    );
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
