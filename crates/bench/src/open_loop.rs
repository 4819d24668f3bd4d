//! The runner shared by the open-loop sweeps: `repro traffic`, `repro
//! overload` and `repro stragglers`.
//!
//! Each sweep pushes one seeded job stream through the admission
//! front-end at every point of a (variant, x, nodes) grid, then reruns
//! the grid's last (heaviest) point twice under chaos: once under
//! [`lossy`] message loss and once with a node crash-stopped
//! mid-stream and restarted, so every sweep also exercises the
//! reliability and recovery planes underneath its own. The sweeps
//! differ only in how a point becomes a plan and in what a cell
//! reports; both come in as closures.
//!
//! Fixed-seed and independent of `--quick`, so each sweep's `--json`
//! record is a byte-identical, diffable artifact.

use crate::workloads::par_map;
use earth_machine::{FaultPlan, MachineConfig};
use earth_sim::{nearest_rank, Summary, VirtualTime};
use earth_traffic::{run_traffic_on, TrafficPlan, TrafficRun};

/// The stream seed every cell shares: cells on the same machine size
/// see identical arrival and deadline fates, so they differ only in
/// how the machine absorbs them, never in luck.
pub(crate) const STREAM_SEED: u64 = 1997;

/// The runtime seed every cell shares.
const RT_SEED: u64 = 42;

/// Crash window for the crashed rerun: down mid-stream, restarted
/// while arrivals are still queuing behind the outage.
const CRASH_DOWN_NS: u64 = 2_000_000;
const CRASH_UP_NS: u64 = 6_000_000;

/// `plan` plus the repo's acceptance message loss: 1% drop, 0.5%
/// duplication.
fn lossy(plan: FaultPlan) -> FaultPlan {
    plan.with_drop(0.01).with_duplicate(0.005)
}

/// Sojourn statistics over a run's completed jobs, in nanoseconds.
pub struct SojournDigest {
    /// Count, mean, extremes and sample deviation.
    pub summary: Summary,
    /// Nearest-rank 50th percentile.
    pub p50_ns: f64,
    /// Nearest-rank 95th percentile.
    pub p95_ns: f64,
    /// Nearest-rank 99th percentile.
    pub p99_ns: f64,
}

/// The sojourn digest of a run's completed jobs.
pub(crate) fn sojourn_digest(run: &TrafficRun) -> SojournDigest {
    // `sojourns_us` is sorted ascending, the order `nearest_rank` reads.
    let sojourns_us = run.traffic().sojourns_us(None);
    let ns: Vec<f64> = sojourns_us.iter().map(|us| us * 1_000.0).collect();
    SojournDigest {
        summary: Summary::of(&ns),
        p50_ns: nearest_rank(&ns, 0.50),
        p95_ns: nearest_rank(&ns, 0.95),
        p99_ns: nearest_rank(&ns, 0.99),
    }
}

/// One grid point of an open-loop sweep.
#[derive(Clone, Copy)]
pub(crate) struct Point {
    /// Variant label, echoed into the cell.
    pub(crate) variant: &'static str,
    /// The swept quantity: offered load or slowdown factor.
    pub(crate) x: f64,
    /// Simulated machine size.
    pub(crate) nodes: u16,
}

/// Run every grid point, then the lossy and crashed reruns of the last
/// one (labelled `chaos[0]` and `chaos[1]`, with `crash_node` as the
/// crash victim), and return the cells in that order.
pub(crate) fn run_open_loop<C: Send>(
    grid: Vec<Point>,
    plans: impl Fn(Point) -> (TrafficPlan, FaultPlan) + Sync,
    chaos: [&'static str; 2],
    crash_node: u16,
    cell: impl Fn(Point, TrafficRun) -> C + Sync,
) -> Vec<C> {
    let run = |p: Point, traffic: &TrafficPlan, faults: FaultPlan| {
        let cfg = MachineConfig::manna(p.nodes).with_faults(faults);
        cell(p, run_traffic_on(traffic, cfg, RT_SEED))
    };
    let last = *grid.last().expect("empty sweep grid");
    let mut cells = par_map(grid, |p| {
        let (traffic, faults) = plans(p);
        run(p, &traffic, faults)
    });
    let (traffic, faults) = plans(last);
    let down = VirtualTime::from_ns(CRASH_DOWN_NS);
    let up = VirtualTime::from_ns(CRASH_UP_NS);
    let crashed = faults.clone().with_crash_restart(crash_node, down, up);
    for (variant, faults) in chaos.into_iter().zip([lossy(faults), crashed]) {
        cells.push(run(Point { variant, ..last }, &traffic, faults));
    }
    cells
}
