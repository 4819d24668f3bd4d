//! Minimal JSON emission for experiment records.
//!
//! The harness writes a machine-readable record of every regenerated
//! table/figure (`repro --json`), so plots and regression checks can
//! consume results without parsing the text rendering. Hand-rolled to
//! keep the dependency set at the workspace's approved minimum.

use crate::experiments::*;
use std::fmt::Write as _;

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

fn series(xs: &[f64]) -> String {
    let mut s = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&num(*x));
    }
    s.push(']');
    s
}

fn nodes_list(nodes: &[u16]) -> String {
    let mut s = String::from("[");
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{n}");
    }
    s.push(']');
    s
}

impl Table1 {
    /// JSON record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"experiment\":\"table1\",\"n\":{},\"seq_ms\":{},\"tasks\":{},\"mean_step_ms\":{},\"min_depth\":{},\"max_depth\":{}}}",
            self.n,
            num(self.seq.as_ms_f64()),
            self.tasks,
            num(self.mean_step.as_ms_f64()),
            self.depth.0,
            self.depth.1
        )
    }
}

impl Fig2 {
    /// JSON record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"experiment\":\"fig2\",\"nodes\":{},\"individual\":{},\"block\":{}}}",
            nodes_list(&self.nodes),
            series(&self.individual),
            series(&self.block)
        )
    }
}

impl Table2 {
    /// JSON record.
    pub fn to_json(&self) -> String {
        let mut rows = String::from("[");
        for (i, (name, seq, pairs, added, step, size)) in self.rows.iter().enumerate() {
            if i > 0 {
                rows.push(',');
            }
            let _ = write!(
                rows,
                "{{\"input\":\"{name}\",\"seq_ms\":{},\"pairs\":{pairs},\"added\":{added},\"mean_step_ms\":{},\"mean_size_bytes\":{}}}",
                num(seq.as_ms_f64()),
                num(step.as_ms_f64()),
                num(*size)
            );
        }
        rows.push(']');
        format!("{{\"experiment\":\"table2\",\"rows\":{rows}}}")
    }
}

/// JSON record for a set of Gröbner speedup curves (figs 4/5).
pub fn groebner_curves_to_json(experiment: &str, curves: &[GroebnerCurve]) -> String {
    let mut arr = String::from("[");
    for (i, c) in curves.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        let overhead = match c.overhead_us {
            None => "null".to_string(),
            Some(us) => us.to_string(),
        };
        let mean: Vec<f64> = c.speedups.iter().map(|s| s.mean).collect();
        let min: Vec<f64> = c.speedups.iter().map(|s| s.min).collect();
        let max: Vec<f64> = c.speedups.iter().map(|s| s.max).collect();
        let _ = write!(
            arr,
            "{{\"input\":\"{}\",\"overhead_us\":{overhead},\"nodes\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
            c.input,
            nodes_list(&c.nodes),
            series(&mean),
            series(&min),
            series(&max)
        );
    }
    arr.push(']');
    format!("{{\"experiment\":\"{experiment}\",\"curves\":{arr}}}")
}

/// JSON record for neural curves (figs 7/8).
pub fn neural_curves_to_json(experiment: &str, curves: &[NeuralCurve]) -> String {
    let mut arr = String::from("[");
    for (i, c) in curves.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        let times: Vec<f64> = c.per_sample.iter().map(|t| t.as_us_f64()).collect();
        let _ = write!(
            arr,
            "{{\"units\":{},\"nodes\":{},\"speedup\":{},\"per_sample_us\":{}}}",
            c.units,
            nodes_list(&c.nodes),
            series(&c.speedups),
            series(&times)
        );
    }
    arr.push(']');
    format!("{{\"experiment\":\"{experiment}\",\"curves\":{arr}}}")
}

impl Table3 {
    /// JSON record.
    pub fn to_json(&self) -> String {
        let mut rows = String::from("[");
        for (i, (units, seq, per_unit)) in self.rows.iter().enumerate() {
            if i > 0 {
                rows.push(',');
            }
            let _ = write!(
                rows,
                "{{\"units\":{units},\"seq_ms\":{},\"per_unit_us\":{}}}",
                num(seq.as_ms_f64()),
                num(per_unit.as_us_f64())
            );
        }
        rows.push(']');
        format!("{{\"experiment\":\"table3\",\"rows\":{rows}}}")
    }
}

impl FaultsTable {
    /// JSON record. Every value is a pure function of the fixed seed
    /// and plan, so the record is byte-identical across invocations.
    pub fn to_json(&self) -> String {
        let drops: Vec<f64> = self.drops.clone();
        let base: Vec<f64> = self.baseline.iter().map(|d| d.as_us_f64()).collect();
        let mut rows = String::from("[");
        for (di, &drop) in self.drops.iter().enumerate() {
            if di > 0 {
                rows.push(',');
            }
            let mut cells = String::from("[");
            for (ni, &n) in self.nodes.iter().enumerate() {
                if ni > 0 {
                    cells.push(',');
                }
                let c = &self.cells[di][ni];
                let _ = write!(
                    cells,
                    "{{\"nodes\":{n},\"elapsed_us\":{},\"slowdown\":{},\"retransmits\":{},\"dropped\":{},\"duplicated\":{}}}",
                    num(c.elapsed.as_us_f64()),
                    num(c.slowdown),
                    c.retransmits,
                    c.dropped,
                    c.duplicated
                );
            }
            cells.push(']');
            let _ = write!(rows, "{{\"drop\":{},\"cells\":{cells}}}", num(drop));
        }
        rows.push(']');
        format!(
            "{{\"experiment\":\"faults\",\"seed\":42,\"dup\":{},\"nodes\":{},\"drops\":{},\"baseline_us\":{},\"rows\":{rows}}}",
            num(self.dup),
            nodes_list(&self.nodes),
            series(&drops),
            series(&base)
        )
    }
}

impl CrashesTable {
    /// JSON record. Every value is a pure function of the fixed seed
    /// and plan, so the record is byte-identical across invocations.
    pub fn to_json(&self) -> String {
        let mut rows = String::from("[");
        for (fi, &(fnum, fden)) in self.crash_fracs.iter().enumerate() {
            if fi > 0 {
                rows.push(',');
            }
            let mut cells = String::from("[");
            for (ci, &ck) in self.ckpt_us.iter().enumerate() {
                if ci > 0 {
                    cells.push(',');
                }
                let c = &self.cells[fi][ci];
                let _ = write!(
                    cells,
                    "{{\"ckpt_us\":{ck},\"elapsed_us\":{},\"slowdown\":{},\"checkpoints\":{},\"heartbeats\":{},\"rehomed\":{},\"downtime_us\":{}}}",
                    num(c.elapsed.as_us_f64()),
                    num(c.slowdown),
                    c.checkpoints,
                    c.heartbeats,
                    c.rehomed,
                    num(c.downtime.as_us_f64())
                );
            }
            cells.push(']');
            let _ = write!(
                rows,
                "{{\"crash_frac\":\"{fnum}/{fden}\",\"cells\":{cells}}}"
            );
        }
        rows.push(']');
        format!(
            "{{\"experiment\":\"crashes\",\"seed\":42,\"nodes\":20,\"crash_node\":{},\"baseline_us\":{},\"rows\":{rows}}}",
            self.crash_node,
            num(self.baseline.as_us_f64())
        )
    }
}

impl ScaleTable {
    /// JSON record. Every value is a pure function of the fixed seeds
    /// and workloads, so the record is byte-identical across
    /// invocations.
    pub fn to_json(&self) -> String {
        let mut apps = String::from("[");
        for (i, a) in self.apps.iter().enumerate() {
            if i > 0 {
                apps.push(',');
            }
            let _ = write!(apps, "\"{a}\"");
        }
        apps.push(']');
        let mut topos = String::from("[");
        for (i, t) in crate::experiments::scale_topologies().iter().enumerate() {
            if i > 0 {
                topos.push(',');
            }
            let _ = write!(topos, "\"{}\"", t.label());
        }
        topos.push(']');
        let base: Vec<f64> = self.baseline.iter().map(|d| d.as_us_f64()).collect();
        let mut curves = String::from("[");
        for (i, c) in self.curves.iter().enumerate() {
            if i > 0 {
                curves.push(',');
            }
            let elapsed: Vec<f64> = c.elapsed.iter().map(|d| d.as_us_f64()).collect();
            let _ = write!(
                curves,
                "{{\"app\":\"{}\",\"topology\":\"{}\",\"elapsed_us\":{},\"speedup\":{}}}",
                c.app,
                c.topology,
                series(&elapsed),
                series(&c.speedups)
            );
        }
        curves.push(']');
        format!(
            "{{\"experiment\":\"scale\",\"nodes\":{},\"apps\":{apps},\"topologies\":{topos},\"baseline_us\":{},\"curves\":{curves}}}",
            nodes_list(&self.nodes),
            series(&base)
        )
    }
}

impl crate::traffic_sweep::TrafficTable {
    /// JSON record. Every value is a pure function of the fixed seeds
    /// and plans, so the record is byte-identical across invocations.
    pub fn to_json(&self) -> String {
        let mut cells = String::from("[");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                cells.push(',');
            }
            let mut classes = String::from("[");
            for (j, cl) in c.classes.iter().enumerate() {
                if j > 0 {
                    classes.push(',');
                }
                let _ = write!(
                    classes,
                    "{{\"name\":\"{}\",\"jobs\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
                    cl.name,
                    cl.jobs,
                    num(cl.p50_us),
                    num(cl.p95_us),
                    num(cl.p99_us)
                );
            }
            classes.push(']');
            let _ = write!(
                cells,
                "{{\"variant\":\"{}\",\"offered_per_sec\":{},\"nodes\":{},\"completed\":{},\"makespan_us\":{},\"sojourn_us\":{{\"n\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}},\"classes\":{classes}}}",
                c.variant,
                num(c.offered),
                c.nodes,
                c.completed,
                num(c.makespan.as_us_f64()),
                c.sojourn.n,
                num(c.sojourn.mean_ns / 1_000.0),
                num(c.sojourn.p50_ns / 1_000.0),
                num(c.sojourn.p95_ns / 1_000.0),
                num(c.sojourn.p99_ns / 1_000.0),
                num(c.sojourn.max_ns / 1_000.0)
            );
        }
        cells.push(']');
        format!(
            "{{\"experiment\":\"traffic\",\"jobs\":{},\"loads_per_sec\":{},\"nodes\":{},\"cells\":{cells}}}",
            self.jobs,
            series(&self.loads),
            nodes_list(&self.nodes)
        )
    }
}

impl crate::overload_sweep::OverloadTable {
    /// JSON record. Every value is a pure function of the fixed seeds
    /// and plans, so the record is byte-identical across invocations.
    pub fn to_json(&self) -> String {
        let mut cells = String::from("[");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                cells.push(',');
            }
            let _ = write!(
                cells,
                "{{\"variant\":\"{}\",\"offered_per_sec\":{},\"jobs\":{},\"completed\":{},\"rejected\":{},\"expired\":{},\"attained\":{},\"goodput\":{},\"retries\":{},\"queue_rejections\":{},\"breaker_rejections\":{},\"breaker_opens\":{},\"sheds\":{},\"peak_waiting\":{},\"p99_us\":{},\"makespan_us\":{}}}",
                c.variant,
                num(c.offered),
                c.slo.jobs,
                c.slo.completed,
                c.slo.rejected,
                c.slo.expired,
                c.slo.attained,
                num(c.slo.goodput()),
                c.slo.retries,
                c.queue_rejections,
                c.breaker_rejections,
                c.breaker_opens,
                c.sheds,
                c.peak_waiting,
                num(c.p99_us),
                num(c.makespan.as_us_f64())
            );
        }
        cells.push(']');
        format!(
            "{{\"experiment\":\"overload\",\"jobs\":{},\"nodes\":{},\"loads_per_sec\":{},\"cells\":{cells}}}",
            self.jobs,
            self.nodes,
            series(&self.loads)
        )
    }
}

impl crate::straggler_sweep::StragglerTable {
    /// JSON record. Every value is a pure function of the fixed seeds
    /// and plans, so the record is byte-identical across invocations.
    pub fn to_json(&self) -> String {
        let mut cells = String::from("[");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                cells.push(',');
            }
            let _ = write!(
                cells,
                "{{\"variant\":\"{}\",\"factor\":{},\"nodes\":{},\"jobs\":{},\"completed\":{},\"attained\":{},\"goodput\":{},\"slow_windows\":{},\"hedges_sent\":{},\"hedges_won\":{},\"quarantines\":{},\"speculated\":{},\"p99_us\":{},\"makespan_us\":{}}}",
                c.variant,
                num(c.factor),
                c.nodes,
                c.slo.jobs,
                c.slo.completed,
                c.slo.attained,
                num(c.slo.goodput()),
                c.slow_windows,
                c.hedges_sent,
                c.hedges_won,
                c.quarantines,
                c.speculated,
                num(c.p99_us),
                num(c.makespan.as_us_f64())
            );
        }
        cells.push(']');
        format!(
            "{{\"experiment\":\"stragglers\",\"jobs\":{},\"factors\":{},\"node_counts\":{},\"cells\":{cells}}}",
            self.jobs,
            series(&self.factors),
            nodes_list(&self.node_counts)
        )
    }
}

impl CommsAblation {
    /// JSON record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"experiment\":\"comms_ablation\",\"nodes\":{},\"sequential\":{},\"tree\":{}}}",
            nodes_list(&self.nodes),
            series(&self.sequential),
            series(&self.tree)
        )
    }
}

impl DualCheck {
    /// JSON record: per-sample microseconds on each configuration.
    pub fn to_json(&self) -> String {
        let single: Vec<f64> = self.single.iter().map(|d| d.as_us_f64()).collect();
        let dual: Vec<f64> = self.dual.iter().map(|d| d.as_us_f64()).collect();
        format!(
            "{{\"experiment\":\"dual\",\"nodes\":{},\"single_us\":{},\"dual_us\":{}}}",
            nodes_list(&self.nodes),
            series(&single),
            series(&dual)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    fn is_balanced_json(s: &str) -> bool {
        // cheap structural sanity: balanced braces/brackets, no NaNs
        let mut depth = 0i32;
        for c in s.chars() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0 && !s.contains("NaN")
    }

    #[test]
    fn table_records_are_wellformed() {
        let t1 = table1(Scale::Quick);
        assert!(is_balanced_json(&t1.to_json()), "{}", t1.to_json());
        assert!(t1.to_json().contains("\"experiment\":\"table1\""));
        let t3 = table3(Scale::Quick);
        assert!(is_balanced_json(&t3.to_json()));
    }

    #[test]
    fn curve_records_are_wellformed() {
        let f2 = fig2(Scale::Quick);
        assert!(is_balanced_json(&f2.to_json()));
        let ab = comms_ablation(Scale::Quick);
        assert!(is_balanced_json(&ab.to_json()));
        assert!(ab.to_json().contains("\"tree\""));
        let dual = dual_check(Scale::Quick).to_json();
        assert!(is_balanced_json(&dual), "{dual}");
        assert!(dual.starts_with("{\"experiment\":\"dual\",\"nodes\":["));
        assert!(dual.contains("\"single_us\":[") && dual.contains("\"dual_us\":["));
    }
}
