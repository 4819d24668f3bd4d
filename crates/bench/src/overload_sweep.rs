//! The overload-control sweep: `repro overload`.
//!
//! Goodput versus offered load for the admission front-end, with and
//! without the overload defenses. Every cell pushes the same deadlined,
//! retrying job stream through the front-end at one offered load; the
//! `naive` variant runs only a bounded queue (no shedding, no breaker),
//! while the `defended` variant adds deadline-aware shedding and the
//! per-tenant circuit breaker. As the load climbs past what the machine
//! absorbs, the naive cells keep serving jobs whose deadlines already
//! passed — throughput holds, *goodput* (SLO-attained completions per
//! arrival) collapses — while the defended cells shed the doomed
//! waiters, so more of the work they do serve still lands inside its
//! deadline (higher goodput and higher attainment among completions).
//!
//! The heaviest load is rerun twice more with the full defenses on
//! under chaos (see `open_loop.rs`), so the sweep shows the control
//! plane holding its floor while the reliability and recovery planes
//! are busy underneath it.

use crate::open_loop::{run_open_loop, sojourn_stats, Point, STREAM_SEED};
use earth_machine::FaultPlan;
use earth_sim::VirtualDuration;
use earth_traffic::{SloSummary, TrafficPlan, TrafficRun};
use std::fmt::Write as _;

/// Per-job relative deadline range, microseconds. Sits just above the
/// uncongested sojourn median, so light load attains almost everything
/// and heavy load cannot.
const DEADLINE_LO_US: u64 = 1_500;
const DEADLINE_HI_US: u64 = 5_000;

/// Bounded admission queue shared by both variants.
const QUEUE_CAP: u32 = 16;

/// Client retry policy shared by both variants: a short budget with
/// capped exponential backoff and counter-lane jitter.
const RETRY_BUDGET: u32 = 3;
const RETRY_BASE_US: u64 = 200;
const RETRY_CAP_US: u64 = 1_600;

/// Circuit breaker (defended variant only): open after 5 rejections in
/// the last 8 door decisions for a tenant, probe after 400us.
const BREAKER_WINDOW: u32 = 8;
const BREAKER_OPEN_AFTER: u32 = 5;
const BREAKER_PROBE_US: u64 = 400;

/// One cell: one (variant, offered load) point with its outcome split
/// and goodput accounting on the fixed machine size.
pub struct OverloadCell {
    /// `naive`, `defended`, `defended_lossy`, or `defended_crashed`.
    pub variant: &'static str,
    /// Offered load, jobs per simulated second.
    pub offered: f64,
    /// Outcome split and attainment over the whole stream.
    pub slo: SloSummary,
    /// Queue-full door rejections (before retries resolved them).
    pub queue_rejections: u64,
    /// Door rejections by an open circuit breaker.
    pub breaker_rejections: u64,
    /// Times any tenant's breaker tripped open (including re-opens).
    pub breaker_opens: u64,
    /// Deadline-expired waiters shed from the queue.
    pub sheds: u64,
    /// Deepest the admission queue ever got.
    pub peak_waiting: u64,
    /// p99 sojourn over completed jobs, microseconds.
    pub p99_us: f64,
    /// Virtual time from first arrival to the machine going idle.
    pub makespan: VirtualDuration,
}

/// The `repro overload` sweep result.
pub struct OverloadTable {
    /// Jobs per stream.
    pub jobs: u32,
    /// Simulated machine size (fixed; load is the swept axis).
    pub nodes: u16,
    /// Offered loads swept.
    pub loads: Vec<f64>,
    /// naive/defended pairs per load (load-major), then the lossy and
    /// crashed chaos variants of the defended plan at the heaviest load.
    pub cells: Vec<OverloadCell>,
}

/// The full sweep: 96-job streams on 8 nodes from uncongested to
/// far past saturation, plus the two chaos variants.
pub fn overload_table() -> OverloadTable {
    overload_at(96, 8, &[2_000.0, 8_000.0, 32_000.0])
}

/// The CI-sized sweep: same schema, 48-job streams, two loads.
pub fn overload_smoke() -> OverloadTable {
    overload_at(48, 8, &[2_000.0, 32_000.0])
}

/// The shared stream: deadlined, retrying, bounded queue. This is the
/// `naive` plan — clients that keep hammering a full front door with no
/// shedding and no breaker.
fn naive_plan(jobs: u32, load: f64) -> TrafficPlan {
    TrafficPlan::new(STREAM_SEED)
        .with_jobs(jobs)
        .with_offered_load(load)
        .with_deadlines(DEADLINE_LO_US, DEADLINE_HI_US)
        .with_queue_cap(QUEUE_CAP)
        .with_retries(RETRY_BUDGET, RETRY_BASE_US, RETRY_CAP_US)
}

/// The same stream with the defenses on: deadline-aware shedding plus
/// the per-tenant circuit breaker.
fn defended_plan(jobs: u32, load: f64) -> TrafficPlan {
    naive_plan(jobs, load)
        .with_deadline_shedding()
        .with_breaker(BREAKER_WINDOW, BREAKER_OPEN_AFTER, BREAKER_PROBE_US)
}

fn cell(p: Point, run: TrafficRun) -> OverloadCell {
    let t = run.traffic();
    OverloadCell {
        variant: p.variant,
        offered: p.x,
        slo: t.slo(None, None),
        queue_rejections: t.queue_rejections,
        breaker_rejections: t.breaker_rejections,
        breaker_opens: t.breaker_opens,
        sheds: t.expirations,
        peak_waiting: t.peak_waiting,
        p99_us: sojourn_stats(&run).p99_ns / 1_000.0,
        makespan: run.report.elapsed,
    }
}

fn overload_at(jobs: u32, nodes: u16, loads: &[f64]) -> OverloadTable {
    let grid = loads
        .iter()
        .flat_map(|&x| ["naive", "defended"].map(|variant| Point { variant, x, nodes }))
        .collect();
    let plans = |p: Point| {
        let plan = match p.variant {
            "naive" => naive_plan(jobs, p.x),
            _ => defended_plan(jobs, p.x),
        };
        (plan, FaultPlan::new())
    };
    // Chaos reruns: full defenses at the heaviest load, node 3 crashing
    // while the breaker and shedder are still working the queue.
    let chaos = ["defended_lossy", "defended_crashed"];
    OverloadTable {
        jobs,
        nodes,
        loads: loads.to_vec(),
        cells: run_open_loop(grid, plans, chaos, 3, cell),
    }
}

impl OverloadTable {
    /// Text rendering: one row per cell.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Overload control: {}-job deadlined streams (seed {STREAM_SEED}) on {} nodes, \
             deadlines {DEADLINE_LO_US}-{DEADLINE_HI_US}us, queue cap {QUEUE_CAP}, \
             {RETRY_BUDGET} retries",
            self.jobs, self.nodes,
        );
        for c in &self.cells {
            let _ = writeln!(
                s,
                "  {:>16} @ {:>6.0}/s: goodput {:>5.1}%  done {:>3}  rejected {:>3}  \
                 expired {:>3}  retries {:>3}  sheds {:>3}  breaker-opens {:>2}  \
                 p99 {:>6.0}us  makespan {}",
                c.variant,
                c.offered,
                c.slo.goodput() * 100.0,
                c.slo.completed,
                c.slo.rejected,
                c.slo.expired,
                c.slo.retries,
                c.sheds,
                c.breaker_opens,
                c.p99_us,
                c.makespan,
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'t>(t: &'t OverloadTable, variant: &str, load: f64) -> &'t OverloadCell {
        t.cells
            .iter()
            .find(|c| c.variant == variant && c.offered == load)
            .unwrap()
    }

    #[test]
    fn smoke_sweep_has_pairs_plus_chaos_variants() {
        let t = overload_smoke();
        assert_eq!(t.cells.len(), t.loads.len() * 2 + 2);
        assert_eq!(t.cells[t.cells.len() - 2].variant, "defended_lossy");
        assert_eq!(t.cells[t.cells.len() - 1].variant, "defended_crashed");
        for c in &t.cells {
            assert_eq!(
                c.slo.jobs, t.jobs as u64,
                "{} cell lost arrivals",
                c.variant
            );
            assert_eq!(
                c.slo.completed + c.slo.rejected + c.slo.expired,
                c.slo.jobs,
                "{} cell did not drain to terminal outcomes",
                c.variant
            );
        }
        let text = t.render();
        assert!(text.contains("defended_crashed"), "{text}");
        assert!(text.contains("goodput"), "{text}");
    }

    #[test]
    fn light_load_attains_almost_everything_either_way() {
        let t = overload_smoke();
        let lo = *t.loads.first().unwrap();
        for variant in ["naive", "defended"] {
            let c = find(&t, variant, lo);
            assert!(
                c.slo.goodput() >= 0.75,
                "{variant} @ {lo}/s goodput collapsed while uncongested: {:.2}",
                c.slo.goodput()
            );
        }
    }

    #[test]
    fn defenses_win_goodput_and_attainment_at_saturation() {
        let t = overload_smoke();
        let hi = *t.loads.last().unwrap();
        let naive = find(&t, "naive", hi);
        let defended = find(&t, "defended", hi);
        assert!(
            naive.slo.goodput() < 0.5,
            "no collapse to defend against: naive goodput {:.2}",
            naive.slo.goodput()
        );
        assert!(
            defended.slo.goodput() > naive.slo.goodput(),
            "defenses lost goodput: {:.2} vs {:.2}",
            defended.slo.goodput(),
            naive.slo.goodput()
        );
        assert!(
            defended.slo.attainment() > naive.slo.attainment(),
            "defenses served more doomed work: {:.2} vs {:.2}",
            defended.slo.attainment(),
            naive.slo.attainment()
        );
        assert!(defended.sheds > 0, "shedding never fired at saturation");
        assert!(defended.breaker_opens > 0, "breaker never tripped");
        assert_eq!(naive.sheds, 0, "naive variant must not shed");
        assert_eq!(naive.breaker_opens, 0, "naive variant has no breaker");
    }

    #[test]
    fn chaos_variants_keep_a_goodput_floor() {
        let t = overload_smoke();
        let hi = *t.loads.last().unwrap();
        let defended = find(&t, "defended", hi);
        for variant in ["defended_lossy", "defended_crashed"] {
            let c = find(&t, variant, hi);
            assert!(
                c.slo.goodput() >= defended.slo.goodput() * 0.5,
                "{variant} goodput fell through the floor: {:.2} vs clean {:.2}",
                c.slo.goodput(),
                defended.slo.goodput()
            );
        }
    }
}
