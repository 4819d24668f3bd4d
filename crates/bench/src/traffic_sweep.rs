//! The traffic-plane sweep: `repro traffic`.
//!
//! An offered-load × machine-size grid of open-loop job streams pushed
//! through the admission/queueing front-end, reporting per-cell
//! tail-latency digests: aggregate sojourn statistics over every
//! completed job (via the testkit's nearest-rank
//! [`stats`](earth_testkit::bench::stats)) and the per-class
//! p50/p95/p99 breakdown. The heaviest grid point is rerun twice more
//! as degradation variants (see `open_loop.rs`), so the sweep always
//! exercises admission re-homing and recovery replay, not just the
//! happy path.

use crate::open_loop::{run_open_loop, sojourn_stats, Point, STREAM_SEED};
use earth_machine::FaultPlan;
use earth_sim::VirtualDuration;
use earth_testkit::bench::Stats;
use earth_traffic::{ClassSummary, TrafficPlan, TrafficRun};
use std::fmt::Write as _;

/// One cell of the sweep: one (variant, offered load, machine size)
/// point with its latency digest.
pub struct TrafficCell {
    /// `clean`, `lossy`, or `crashed`.
    pub variant: &'static str,
    /// Offered load, jobs per simulated second.
    pub offered: f64,
    /// Simulated machine size.
    pub nodes: u16,
    /// Jobs completed (always the full stream — the run asserts drain).
    pub completed: u64,
    /// Virtual time from first arrival to the machine going idle.
    pub makespan: VirtualDuration,
    /// Aggregate sojourn statistics over all completed jobs, in
    /// nanoseconds (nearest-rank percentiles).
    pub sojourn: Stats,
    /// Per-class p50/p95/p99 sojourn breakdown, microseconds.
    pub classes: Vec<ClassSummary>,
}

/// The `repro traffic` sweep result.
pub struct TrafficTable {
    /// Jobs per stream.
    pub jobs: u32,
    /// Offered loads swept (rows).
    pub loads: Vec<f64>,
    /// Machine sizes swept (columns).
    pub nodes: Vec<u16>,
    /// Grid cells (load-major), then the `lossy` and `crashed` variants
    /// of the heaviest grid point.
    pub cells: Vec<TrafficCell>,
}

/// The full sweep: 96-job streams at low/high offered load on 8 and 20
/// nodes, plus the two degradation variants.
pub fn traffic_table() -> TrafficTable {
    traffic_at(96, &[1_000.0, 4_000.0], &[8, 20])
}

/// The CI-sized sweep: same schema, 32-job streams on 8 nodes only.
pub fn traffic_smoke() -> TrafficTable {
    traffic_at(32, &[1_000.0, 4_000.0], &[8])
}

fn cell(p: Point, run: TrafficRun) -> TrafficCell {
    TrafficCell {
        variant: p.variant,
        offered: p.x,
        nodes: p.nodes,
        completed: run.traffic().completed,
        makespan: run.report.elapsed,
        sojourn: sojourn_stats(&run),
        classes: run.summaries(),
    }
}

fn traffic_at(jobs: u32, loads: &[f64], nodes: &[u16]) -> TrafficTable {
    let grid = loads
        .iter()
        .flat_map(|&x| {
            nodes.iter().map(move |&nodes| Point {
                variant: "clean",
                x,
                nodes,
            })
        })
        .collect();
    let plans = |p: Point| {
        let plan = TrafficPlan::new(STREAM_SEED)
            .with_jobs(jobs)
            .with_offered_load(p.x);
        (plan, FaultPlan::new())
    };
    TrafficTable {
        jobs,
        loads: loads.to_vec(),
        nodes: nodes.to_vec(),
        // Node 3 crashes in the `crashed` rerun.
        cells: run_open_loop(grid, plans, ["lossy", "crashed"], 3, cell),
    }
}

impl TrafficTable {
    /// Text rendering: one block per cell, classes as rows.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Traffic plane: open-loop {}-job streams (seed {STREAM_SEED}), admission limit {}, {} discipline",
            self.jobs,
            TrafficPlan::new(0).concurrency,
            TrafficPlan::new(0).discipline
        );
        for c in &self.cells {
            let _ = writeln!(
                s,
                "  {:>7} @ {:.0}/s on {:2} nodes: {} jobs drained in {}  (sojourn p50 {:.0}us  p95 {:.0}us  p99 {:.0}us)",
                c.variant,
                c.offered,
                c.nodes,
                c.completed,
                c.makespan,
                c.sojourn.p50_ns / 1_000.0,
                c.sojourn.p95_ns / 1_000.0,
                c.sojourn.p99_ns / 1_000.0,
            );
            for cl in &c.classes {
                let _ = writeln!(
                    s,
                    "           {:>9} x{:<3}  p50 {:>8.0}us  p95 {:>8.0}us  p99 {:>8.0}us",
                    cl.name, cl.jobs, cl.p50_us, cl.p95_us, cl.p99_us
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_has_grid_plus_variants() {
        let t = traffic_smoke();
        assert_eq!(t.cells.len(), t.loads.len() * t.nodes.len() + 2);
        assert_eq!(t.cells[t.cells.len() - 2].variant, "lossy");
        assert_eq!(t.cells[t.cells.len() - 1].variant, "crashed");
        for c in &t.cells {
            assert_eq!(
                c.completed, t.jobs as u64,
                "{} cell did not drain",
                c.variant
            );
            assert!(c.sojourn.p50_ns <= c.sojourn.p99_ns);
            assert!(!c.classes.is_empty());
        }
        let text = t.render();
        assert!(text.contains("crashed"), "{text}");
        assert!(text.contains("eigen"), "{text}");
    }

    #[test]
    fn degradation_variants_are_no_faster_than_clean() {
        let t = traffic_smoke();
        let clean_at = |load: f64| {
            t.cells
                .iter()
                .find(|c| c.variant == "clean" && c.offered == load && c.nodes == 8)
                .unwrap()
        };
        let hi = clean_at(4_000.0);
        let crashed = t.cells.iter().find(|c| c.variant == "crashed").unwrap();
        assert!(
            crashed.makespan >= hi.makespan,
            "a crash cannot speed the stream up: {} vs {}",
            crashed.makespan,
            hi.makespan
        );
    }
}
