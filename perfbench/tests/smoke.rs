//! Smoke-size self-test of the benchmark: every workload runs clean at
//! tiny sizes, traced and untraced, and prints every metric it promises.

use perfbench::catalogue::{self, Better, MetricDef, END_TO_END};
use perfbench::workloads::{Size, Workload};
use perfbench::{run, span, Options, Outcome};

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let out = run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    });
    assert!(
        out.correct,
        "{} seed {seed} trace {trace} failed: {:?}\n{}",
        workload.name(),
        out.errors,
        out.text
    );
    out
}

/// The value of `"key": "value"` on a one-line JSON object.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// `(name, unit, better)` of each metric line in one section of
/// BENCHMARK.json.
fn listed(section: &str) -> Vec<(String, String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let body = json
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"));
    body.lines()
        .filter_map(|l| {
            Some((
                field(l, "name")?.to_string(),
                field(l, "unit")?.to_string(),
                field(l, "better")?.to_string(),
            ))
        })
        .collect()
}

fn as_listed(defs: &[&MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
        .collect()
}

#[test]
fn benchmark_json_lists_every_metric_with_unit_and_direction() {
    let e2e: Vec<&MetricDef> = END_TO_END.iter().collect();
    let layers: Vec<&MetricDef> = catalogue::per_layer().collect();
    assert_eq!(listed("end_to_end"), as_listed(&e2e));
    assert_eq!(listed("per_layer"), as_listed(&layers));
    let workloads = listed_workloads();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

fn listed_workloads() -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let body = json
        .split("\"workloads\": [")
        .nth(1)
        .expect("workloads list");
    let body = body.split(']').next().expect("workloads list ends");
    body.lines()
        .filter_map(|l| field(l, "name").map(str::to_string))
        .collect()
}

#[test]
fn metric_names_are_valid_unique_and_typed() {
    let all: Vec<&MetricDef> = END_TO_END.iter().chain(catalogue::per_layer()).collect();
    for (i, m) in all.iter().enumerate() {
        assert!(catalogue::valid_name(m.name), "bad metric name {}", m.name);
        assert!(
            !m.unit.is_empty() && m.unit.len() <= 16,
            "bad unit on {}",
            m.name
        );
        assert!(
            matches!(m.better, Better::Higher | Better::Lower),
            "{} has no direction",
            m.name
        );
        assert!(
            all[..i].iter().all(|o| o.name != m.name),
            "{} is listed twice",
            m.name
        );
    }
    assert!(!catalogue::valid_name("bad name"));
    assert!(!catalogue::valid_name(".leading_dot"));
}

/// Every metric of the result line appears with its value and unit.
fn assert_prints(out: &Outcome, defs: &[&MetricDef]) {
    let json = out.json();
    assert_eq!(out.metrics.len(), defs.len(), "{json}");
    for (m, (printed, v)) in defs.iter().zip(&out.metrics) {
        assert_eq!(m.name, printed.name);
        assert!(v.is_finite(), "{} is {v}", m.name);
        assert!(
            json.contains(&format!("\"{}\": {{\"value\": ", m.name))
                && json.contains(&format!("\"unit\": \"{}\"", m.unit)),
            "{} missing from {json}",
            m.name
        );
        assert!(
            out.text.contains(m.name) && out.text.contains(m.better.as_str()),
            "{} missing from the report",
            m.name
        );
    }
}

#[test]
fn every_workload_runs_clean_traced_and_untraced() {
    let e2e: Vec<&MetricDef> = END_TO_END.iter().collect();
    let layers: Vec<&MetricDef> = catalogue::per_layer().collect();
    for w in Workload::ALL {
        let untraced = smoke(w, 11, false);
        assert_prints(&untraced, &e2e);
        assert!(untraced.attempted >= 1);
        assert!(untraced.text.contains("ops_attempted"));
        assert!(untraced.text.contains("nproc"));

        let traced = smoke(w, 11, true);
        assert_prints(&traced, &layers);
        span::check_tree(&traced.spans).unwrap();
        assert!(traced.text.contains("span tree"));
        for phase in ["setup", "run", "check", "probe"] {
            assert!(
                traced.spans.iter().any(|s| s.name == phase),
                "{}: no `{phase}` span",
                w.name()
            );
        }
        // Profiling is free in virtual time: the traced run's counts and
        // virtual results equal the untraced run's.
        assert_eq!(untraced.digest, traced.digest, "{}", w.name());
    }
}

#[test]
fn serving_records_its_ladder_and_open_loop() {
    let out = smoke(Workload::ServeChaos, 3, false);
    assert!(out.text.contains("offered-load ladder"));
    assert!(out.text.contains("generator lateness is 0"));
    assert_eq!(out.attempted, 2, "one checked run per smoke load");
    assert!(
        out.text.contains("ops_attempted 400 "),
        "200 jobs at each of 2 loads"
    );
}

#[test]
fn a_second_seed_runs_clean_with_different_inputs() {
    for w in Workload::ALL {
        let a = smoke(w, 1, false);
        let b = smoke(w, 2, false);
        assert_eq!((a.failed, b.failed), (0, 0), "{}", w.name());
        assert_ne!(
            a.digest,
            b.digest,
            "{}: the seed must reach the inputs",
            w.name()
        );
    }
}
