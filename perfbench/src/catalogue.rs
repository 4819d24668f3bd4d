//! Every metric the benchmark prints, with its unit and which direction
//! is better. `BENCHMARK.json` lists the same metrics; a test keeps the
//! two in step.
//!
//! Units: `s`, `ns` and `us` are host time; `virtual_ms` is time on the
//! modelled machine, summed over nodes where a metric says so.

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and better direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Host metrics every workload prints with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    lo("wall_s", "s"),
    lo("setup_s", "s"),
    lo("peak_rss_mb", "MB"),
];

/// The modelled machine's results, printed with tracing off on the
/// workloads they apply to, and in the traced run (0 where they do not
/// apply). They repeat exactly for a given seed.
pub const VIRTUAL: &[MetricDef] = &[
    hi("speedup.groebner", "x"),
    hi("speedup.eigen", "x"),
    hi("speedup.neural", "x"),
    lo("sojourn_p50_ms", "virtual_ms"),
    lo("sojourn_tail_ms", "virtual_ms"),
    hi("goodput", "fraction"),
    hi("capacity_jobs_per_s", "virtual_jobs/s"),
];

/// Per-layer metrics of the traced run. A layer a workload does not use
/// reads 0.
pub const LAYERS: &[MetricDef] = &[
    // algebra
    lo("algebra.reference_s", "s"),
    lo("algebra.run_s", "s"),
    lo("algebra.pairs_reduced", "count"),
    lo("algebra.run_us_per_pair", "us"),
    // nn
    lo("nn.reference_s", "s"),
    lo("nn.run_s", "s"),
    lo("nn.run_us_per_sample", "us"),
    // linalg
    lo("linalg.reference_s", "s"),
    lo("linalg.run_s", "s"),
    lo("linalg.tasks", "count"),
    // apps
    lo("apps.paper_gap.groebner", "fraction"),
    lo("apps.paper_gap.eigen", "fraction"),
    lo("apps.check_s", "s"),
    // sim
    lo("sim.events", "count"),
    lo("sim.peak_queue_depth", "count"),
    lo("sim.host_ns_per_event", "ns"),
    lo("sim.hold_ns_per_op", "ns"),
    // machine
    lo("machine.net_messages", "count"),
    lo("machine.net_bytes", "B"),
    lo("machine.link_waits", "count"),
    lo("machine.send_ns_per_msg", "ns"),
    // faults
    lo("faults.dropped", "count"),
    lo("faults.duplicated", "count"),
    lo("faults.delayed", "count"),
    lo("faults.crash_dropped", "count"),
    lo("faults.fate_ns_per_msg", "ns"),
    // core
    lo("core.threads", "count"),
    lo("core.tokens_run", "count"),
    lo("core.frames_created", "count"),
    lo("core.msgs_in", "count"),
    lo("core.steals_ok", "count"),
    lo("core.steal_nacks", "count"),
    hi("core.steal_ok_ratio", "fraction"),
    hi("core.utilization", "fraction"),
    lo("core.vt_poll_ms", "virtual_ms"),
    lo("core.vt_thread_ms", "virtual_ms"),
    lo("core.vt_token_ms", "virtual_ms"),
    lo("core.vt_steal_ms", "virtual_ms"),
    // reli
    lo("reli.retransmits", "count"),
    lo("reli.dup_suppressed", "count"),
    lo("reli.retransmit_ratio", "fraction"),
    lo("reli.vt_retransmit_ms", "virtual_ms"),
    // recover
    lo("recover.heartbeats", "count"),
    lo("recover.checkpoints", "count"),
    lo("recover.recoveries", "count"),
    lo("recover.rehomed", "count"),
    lo("recover.downtime_ms", "virtual_ms"),
    lo("recover.vt_heartbeat_ms", "virtual_ms"),
    lo("recover.vt_checkpoint_ms", "virtual_ms"),
    lo("recover.vt_recover_ms", "virtual_ms"),
    // slow
    lo("slow.slow_windows", "count"),
    lo("slow.hedges_sent", "count"),
    hi("slow.hedge_won_ratio", "fraction"),
    lo("slow.quarantines", "count"),
    lo("slow.speculated", "count"),
    lo("slow.vt_hedge_ms", "virtual_ms"),
    // traffic
    hi("traffic.arrived", "count"),
    hi("traffic.admitted", "count"),
    hi("traffic.completed", "count"),
    lo("traffic.rejected", "count"),
    lo("traffic.expired", "count"),
    lo("traffic.retries", "count"),
    lo("traffic.peak_waiting", "count"),
    lo("traffic.breaker_opens", "count"),
    lo("traffic.queue_wait_p50_ms", "virtual_ms"),
    lo("traffic.queue_wait_tail_ms", "virtual_ms"),
    lo("traffic.service_p50_ms", "virtual_ms"),
    lo("traffic.service_tail_ms", "virtual_ms"),
    lo("setup.install_s", "s"),
    // harness
    lo("setup.inputs_s", "s"),
    lo("trace.overhead_s", "s"),
];

/// The metrics of the traced run, in print order.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    VIRTUAL.iter().chain(LAYERS)
}

/// True when `name` is a valid metric name: `[A-Za-z0-9_.-]+`, at most
/// 64 characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
