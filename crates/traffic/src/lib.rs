//! The traffic plane: an open-loop workload generator over the runtime's
//! admission/queueing front-end.
//!
//! The paper's experiments run one application at a time to completion.
//! This crate asks the serving-system question instead: what tail latency
//! does the EARTH runtime deliver when a *stream* of small non-numeric
//! jobs — eigen bisections, Gröbner waves, neural sweeps, search trees —
//! arrives open-loop at a configured offered load and queues behind an
//! admission limit?
//!
//! Everything is deterministic by construction:
//!
//! * Arrivals are **open-loop**: inter-arrival gaps are seeded
//!   exponentials at [`TrafficPlan::offered_load`], drawn per-arrival
//!   from a counter-based stream ([`earth_sim::stream_word`]), so the
//!   arrival process never reacts to system state. Job class, size
//!   (bounded Pareto, α = 1.5 over 4–64 work units — a few elephants
//!   among many mice), home node, tenant, and the job's private
//!   randomness key come from sibling lanes of the same stream: arrival
//!   *fates* are a pure function of `(plan seed, job index)`,
//!   independent of execution interleaving.
//! * Admission runs in virtual time on the runtime's event loop
//!   ([`Runtime::install_traffic`]): at most `concurrency` jobs in
//!   flight, the rest queued FIFO; each admission launches the job's
//!   root token on its (live) home node at zero control-plane cost.
//! * Accounting is exact: every job's arrive/admit/complete instants are
//!   virtual-time stamps in the [`TrafficReport`], from which
//!   [`summarize`] derives per-class nearest-rank p50/p95/p99 sojourns.
//!
//! A plan with no jobs installs nothing — `run` output is byte-identical
//! to a run without a traffic plane ("disabled == absent").

pub mod classes;

use earth_machine::MachineConfig;
use earth_rt::{NodeId, OverloadPolicy, RunReport, Runtime};
use earth_sim::{
    bounded_pareto, nearest_rank, stream_word, unit_f64, word_bounded, VirtualDuration, VirtualTime,
};

pub use classes::{CLASS_EIGEN, CLASS_GROEBNER, CLASS_NAMES, CLASS_NEURAL, CLASS_SEARCH};
pub use earth_rt::{
    BreakerPolicy, JobArrival, JobOutcome, JobRecord, RetryPolicy, SloSummary, TrafficReport,
};

/// Stream lanes for per-arrival draws. Each decision about arrival `k`
/// reads `stream_word(seed, LANE_*, k)` — changing how one fate is used
/// never shifts any other. The overload plane keeps the template: the
/// deadline is one more lane of the same stream, and retry jitter runs
/// on its own salted seed, so fault and crash fate streams are never
/// perturbed by any overload knob.
const LANE_GAP: u64 = 0;
const LANE_CLASS: u64 = 1;
const LANE_SIZE: u64 = 2;
const LANE_HOME: u64 = 3;
const LANE_TENANT: u64 = 4;
const LANE_KEY: u64 = 5;
const LANE_DEADLINE: u64 = 6;

/// Pareto tail index of job sizes (smaller = heavier tail).
const SIZE_ALPHA: f64 = 1.5;
/// Smallest job size, in class work units.
const SIZE_LO: f64 = 4.0;
/// Largest job size (the Pareto is bounded: no infinite jobs).
const SIZE_HI: f64 = 64.0;

/// Salt deriving the retry-jitter fate seed from the plan seed, so
/// [`TrafficPlan::with_retries`] needs no second seed parameter and the
/// jitter stream never collides with the arrival lanes.
const RETRY_JITTER_SALT: u64 = 0x6F76_6572_6C6F_6164; // "overload"

/// A declarative description of one traffic experiment: how many jobs,
/// at what offered load, in what class mix, queued how.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficPlan {
    /// Seed of the arrival fate stream (independent of the runtime seed).
    pub seed: u64,
    /// Total jobs in the open-loop stream.
    pub jobs: u32,
    /// Mean arrival rate, jobs per simulated second.
    pub offered_load: f64,
    /// Relative class weights, indexed by class tag
    /// (eigen/groebner/neural/search). A zero weight disables the class.
    pub weights: [u32; 4],
    /// Number of tenants arrivals are striped over.
    pub tenants: u16,
    /// Admission limit: jobs in flight at once (the rest wait FIFO).
    pub concurrency: u32,
    /// Per-job relative deadlines, drawn uniformly from this
    /// microsecond range on the deadline fate lane; `None` = no
    /// deadlines (the default).
    pub deadline_us: Option<(u64, u64)>,
    /// Bounded admission queue; `None` = unbounded (the default).
    pub queue_cap: Option<u32>,
    /// Shed deadline-expired waiters before admission (off by default).
    pub deadline_shedding: bool,
    /// Deterministic client retries for refused jobs (off by default).
    pub retry: Option<RetryPolicy>,
    /// Per-tenant circuit breaker (off by default).
    pub breaker: Option<BreakerPolicy>,
}

impl TrafficPlan {
    /// A mixed-class plan at moderate load; the starting point every
    /// experiment perturbs.
    pub fn new(seed: u64) -> Self {
        TrafficPlan {
            seed,
            jobs: 64,
            offered_load: 2_000.0,
            weights: [3, 2, 2, 1],
            tenants: 3,
            concurrency: 8,
            deadline_us: None,
            queue_cap: None,
            deadline_shedding: false,
            retry: None,
            breaker: None,
        }
    }

    /// Set the stream length.
    pub fn with_jobs(mut self, jobs: u32) -> Self {
        self.jobs = jobs;
        self
    }

    /// Set the offered load in jobs per simulated second.
    pub fn with_offered_load(mut self, per_sec: f64) -> Self {
        assert!(per_sec > 0.0, "offered load must be positive");
        self.offered_load = per_sec;
        self
    }

    /// Set the class mix weights (eigen, groebner, neural, search).
    pub fn with_weights(mut self, weights: [u32; 4]) -> Self {
        assert!(weights.iter().any(|&w| w > 0), "all class weights are zero");
        self.weights = weights;
        self
    }

    /// Set the tenant count.
    pub fn with_tenants(mut self, tenants: u16) -> Self {
        assert!(tenants >= 1, "need at least one tenant");
        self.tenants = tenants;
        self
    }

    /// Set the admission concurrency limit.
    pub fn with_concurrency(mut self, concurrency: u32) -> Self {
        assert!(concurrency >= 1, "concurrency limit must admit something");
        self.concurrency = concurrency;
        self
    }

    /// Give every job a relative deadline drawn uniformly from
    /// `[lo_us, hi_us]` microseconds on its own fate lane. Deadlines
    /// alone are pure SLO bookkeeping; combine with
    /// [`Self::with_deadline_shedding`] to also shed expired waiters.
    pub fn with_deadlines(mut self, lo_us: u64, hi_us: u64) -> Self {
        assert!(lo_us >= 1 && hi_us >= lo_us, "bad deadline range");
        self.deadline_us = Some((lo_us, hi_us));
        self
    }

    /// Bound the admission queue: arrivals beyond `cap` waiters are
    /// rejected at the door.
    pub fn with_queue_cap(mut self, cap: u32) -> Self {
        assert!(cap >= 1, "queue cap must admit at least one waiter");
        self.queue_cap = Some(cap);
        self
    }

    /// Shed queued jobs whose deadline expired before admission.
    pub fn with_deadline_shedding(mut self) -> Self {
        self.deadline_shedding = true;
        self
    }

    /// Refused jobs retry up to `budget` times with capped exponential
    /// backoff (`base_us`, doubling, capped at `cap_us`) plus jitter
    /// from a fate lane salted off the plan seed.
    pub fn with_retries(mut self, budget: u32, base_us: u64, cap_us: u64) -> Self {
        assert!(base_us >= 1 && cap_us >= base_us, "bad retry backoff");
        self.retry = Some(RetryPolicy {
            budget,
            base: VirtualDuration::from_us(base_us),
            cap: VirtualDuration::from_us(cap_us),
            jitter_seed: self.seed ^ RETRY_JITTER_SALT,
        });
        self
    }

    /// Arm the per-tenant circuit breaker: open after `open_after`
    /// rejections among the last `window` door decisions, half-open
    /// probe after `probe_after_us`.
    pub fn with_breaker(mut self, window: u32, open_after: u32, probe_after_us: u64) -> Self {
        assert!(
            window >= 1 && open_after >= 1 && open_after <= window && probe_after_us >= 1,
            "bad breaker configuration"
        );
        self.breaker = Some(BreakerPolicy {
            window,
            open_after,
            probe_after: VirtualDuration::from_us(probe_after_us),
        });
        self
    }

    /// The overload policy this plan installs (default = all-off).
    pub fn policy(&self) -> OverloadPolicy {
        OverloadPolicy {
            queue_cap: self.queue_cap,
            deadline_shedding: self.deadline_shedding,
            retry: self.retry,
            breaker: self.breaker,
        }
    }

    /// True when this plan can refuse work: some arrivals may end
    /// `Rejected`/`Expired` instead of `Completed`, so drains are judged
    /// by terminal accounting rather than completion count.
    pub fn can_refuse(&self) -> bool {
        self.queue_cap.is_some()
            || self.breaker.is_some()
            || (self.deadline_shedding && self.deadline_us.is_some())
    }

    /// True if the plan generates no traffic; installing a trivial plan
    /// is a no-op, leaving the runtime byte-identical to one that never
    /// saw a plan.
    pub fn is_trivial(&self) -> bool {
        self.jobs == 0
    }

    /// Draw the full arrival sequence for a `nodes`-node machine. Pure:
    /// depends only on the plan and the node count.
    fn arrivals(&self, fns: &classes::ClassFns, nodes: u16) -> Vec<JobArrival> {
        assert!(nodes >= 1, "no nodes to serve traffic");
        let total_weight: u64 = self.weights.iter().map(|&w| w as u64).sum();
        let mut at_us = 0.0_f64;
        let mut out = Vec::with_capacity(self.jobs as usize);
        for k in 0..self.jobs as u64 {
            // Exponential gap at the offered load, from this arrival's
            // own lane: deleting or reordering other jobs can't move it.
            let u = unit_f64(stream_word(self.seed, LANE_GAP, k));
            at_us += -(1.0 - u).ln() * 1.0e6 / self.offered_load;

            let pick = stream_word(self.seed, LANE_CLASS, k) % total_weight;
            let mut class = 0u8;
            let mut acc = 0u64;
            for (c, &w) in self.weights.iter().enumerate() {
                acc += w as u64;
                if pick < acc {
                    class = c as u8;
                    break;
                }
            }

            let su = unit_f64(stream_word(self.seed, LANE_SIZE, k));
            let size = bounded_pareto(su, SIZE_ALPHA, SIZE_LO, SIZE_HI).round() as u32;
            let home = NodeId((stream_word(self.seed, LANE_HOME, k) % nodes as u64) as u16);
            let tenant = (stream_word(self.seed, LANE_TENANT, k) % self.tenants as u64) as u16;
            let key = stream_word(self.seed, LANE_KEY, k);
            let deadline = self.deadline_us.map(|(lo, hi)| {
                let span = hi - lo + 1;
                let us = lo + word_bounded(stream_word(self.seed, LANE_DEADLINE, k), span);
                VirtualDuration::from_us(us)
            });

            let (func, args) = fns.root(class, k as u32, size.max(1), key);
            out.push(JobArrival {
                class,
                tenant,
                arrive: VirtualTime::from_ns((at_us * 1_000.0).round() as u64),
                deadline,
                home,
                func,
                args,
            });
        }
        out
    }

    /// Register the job classes and install this plan's arrival stream
    /// on `rt`. A trivial plan returns before touching the runtime at
    /// all — not even function registration — so "no traffic" and
    /// "empty plan" are indistinguishable.
    pub fn install(&self, rt: &mut Runtime) {
        if self.is_trivial() {
            return;
        }
        let fns = classes::register(rt);
        let arrivals = self.arrivals(&fns, rt.num_nodes());
        rt.install_traffic(arrivals, self.concurrency, self.policy());
    }
}

/// The result of one traffic experiment.
#[derive(Clone, Debug)]
pub struct TrafficRun {
    /// The full runtime report; `report.traffic` holds the job records.
    pub report: RunReport,
}

impl TrafficRun {
    /// The traffic accounting (panics if the plan was trivial).
    pub fn traffic(&self) -> &TrafficReport {
        self.report
            .traffic
            .as_ref()
            .expect("trivial plan: no traffic report")
    }

    /// Per-class latency summaries, one row per class that saw jobs.
    pub fn summaries(&self) -> Vec<ClassSummary> {
        summarize(self.traffic())
    }
}

/// Run `plan` on a fault-free `nodes`-node MANNA.
pub fn run_traffic(plan: &TrafficPlan, nodes: u16, seed: u64) -> TrafficRun {
    run_traffic_on(plan, MachineConfig::manna(nodes), seed)
}

/// Run `plan` on a caller-supplied machine: fault plan, crash schedule,
/// straggler plane, event queue and interconnect all come from `cfg`.
/// Under a crash, queued jobs homed on the victim are re-routed to a
/// live node at admission and in-flight work is replayed by the
/// recovery plane, so the stream still drains.
pub fn run_traffic_on(plan: &TrafficPlan, cfg: MachineConfig, seed: u64) -> TrafficRun {
    let mut rt = Runtime::new(cfg, seed);
    plan.install(&mut rt);
    let report = rt.run();
    if !plan.is_trivial() {
        let t = report.traffic.as_ref().expect("plan installed no traffic");
        assert_eq!(
            t.completed + t.rejected + t.expired,
            t.arrived,
            "traffic stream did not drain to terminal outcomes: {t:?}"
        );
        if !plan.can_refuse() {
            assert_eq!(
                t.completed, t.arrived,
                "a plan that cannot refuse must complete everything: {t:?}"
            );
        }
        assert!(t.is_conserved(), "job accounting leak: {t:?}");
    }
    TrafficRun { report }
}

/// Tail-latency digest for one job class.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassSummary {
    /// Class tag (index into [`CLASS_NAMES`]).
    pub class: u8,
    /// Class name.
    pub name: &'static str,
    /// Completed jobs of this class.
    pub jobs: usize,
    /// Median sojourn (arrive → complete), microseconds.
    pub p50_us: f64,
    /// 95th-percentile sojourn, microseconds.
    pub p95_us: f64,
    /// 99th-percentile sojourn, microseconds.
    pub p99_us: f64,
}

/// Nearest-rank per-class sojourn percentiles over completed jobs.
/// Classes with no completed jobs are omitted.
pub fn summarize(report: &TrafficReport) -> Vec<ClassSummary> {
    let mut out = Vec::new();
    for class in 0..CLASS_NAMES.len() as u8 {
        let sorted = report.sojourns_us(Some(class));
        if sorted.is_empty() {
            continue;
        }
        out.push(ClassSummary {
            class,
            name: CLASS_NAMES[class as usize],
            jobs: sorted.len(),
            p50_us: nearest_rank(&sorted, 0.50),
            p95_us: nearest_rank(&sorted, 0.95),
            p99_us: nearest_rank(&sorted, 0.99),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_machine::FaultPlan;
    use earth_sim::VirtualDuration;

    #[test]
    fn default_plan_drains_and_summarizes() {
        let run = run_traffic(&TrafficPlan::new(11), 8, 42);
        let t = run.traffic();
        assert_eq!(t.arrived, 64);
        assert_eq!(t.completed, 64);
        assert!(t.is_conserved());
        assert!(run.report.is_clean(), "debris: {}", run.report);
        let sums = run.summaries();
        assert_eq!(sums.len(), 4, "every class should see jobs: {sums:?}");
        for s in &sums {
            assert!(s.p50_us > 0.0, "{s:?}");
            assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us, "{s:?}");
        }
    }

    #[test]
    fn replay_is_byte_identical() {
        let plan = TrafficPlan::new(9).with_jobs(40);
        let a = run_traffic(&plan, 8, 7);
        let b = run_traffic(&plan, 8, 7);
        assert_eq!(a.report.traffic, b.report.traffic);
        assert_eq!(format!("{}", a.report), format!("{}", b.report));
    }

    #[test]
    fn arrival_fates_are_interleaving_independent() {
        // The k-th arrival of a longer stream is identical to the k-th
        // of a shorter one: fates are counter-addressed, not sequential.
        let plan_short = TrafficPlan::new(5).with_jobs(8);
        let plan_long = TrafficPlan::new(5).with_jobs(32);
        let a = run_traffic(&plan_short, 4, 1);
        let b = run_traffic(&plan_long, 4, 1);
        for (ra, rb) in a.traffic().jobs.iter().zip(&b.traffic().jobs) {
            assert_eq!(ra.class, rb.class);
            assert_eq!(ra.tenant, rb.tenant);
            assert_eq!(ra.arrive, rb.arrive);
        }
    }

    #[test]
    fn trivial_plan_installs_nothing() {
        let run = run_traffic(&TrafficPlan::new(1).with_jobs(0), 4, 3);
        assert!(run.report.traffic.is_none());
    }

    #[test]
    fn tight_concurrency_queues_jobs() {
        let open = TrafficPlan::new(3).with_jobs(32).with_concurrency(32);
        let tight = TrafficPlan::new(3).with_jobs(32).with_concurrency(1);
        let a = run_traffic(&open, 8, 5);
        let b = run_traffic(&tight, 8, 5);
        let wait = |r: &TrafficRun| -> VirtualDuration {
            r.traffic()
                .jobs
                .iter()
                .map(|j| j.queue_wait().unwrap())
                .sum()
        };
        assert!(
            wait(&b) > wait(&a),
            "serialized admission must wait more: {:?} vs {:?}",
            wait(&b),
            wait(&a)
        );
        // Same stream, same fates: arrival instants agree even though
        // admission differs.
        for (ra, rb) in a.traffic().jobs.iter().zip(&b.traffic().jobs) {
            assert_eq!(ra.arrive, rb.arrive);
        }
    }

    #[test]
    fn crashed_run_still_drains() {
        let plan = TrafficPlan::new(23).with_jobs(32);
        let faults = FaultPlan::new().with_crash_restart(
            2,
            VirtualTime::from_ns(2_000_000),
            VirtualTime::from_ns(6_000_000),
        );
        let run = run_traffic_on(&plan, MachineConfig::manna(8).with_faults(faults), 4);
        let t = run.traffic();
        assert_eq!(t.completed, 32);
        assert!(t.is_conserved());
        assert!(
            run.report.nodes.iter().map(|n| n.crashes).sum::<u64>() >= 1,
            "the crash never fired"
        );
    }
}
