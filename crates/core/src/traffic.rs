//! Admission/queueing front-end: the runtime half of the traffic plane.
//!
//! The paper runs one batch job per machine; a serving system instead sees
//! an *open-loop stream* of independent jobs. This module gives the
//! runtime a front door for such a stream while knowing nothing about how
//! it was generated: a [`JobArrival`] is just "at virtual instant `t`, a
//! root token of function `func` with `args` wants to start near `home`".
//! The workload generator (`crates/traffic`) compiles its seeded arrival
//! process down to these records and installs them with
//! [`crate::Runtime::install_traffic`].
//!
//! The front-end enqueues arrivals, admits up to a concurrency limit under
//! a pluggable [`Discipline`], launches each admitted job's root token,
//! and records the full lifecycle (arrived → admitted → completed) in
//! virtual time. Like every optional plane before it (trace, profile,
//! faults, crashes) it is **provably absent when unused**: the state is
//! `Option`-gated on the runtime, installing an empty arrival list is a
//! no-op, and no hot path touches it — a run with no plan is byte-identical
//! to one built before this module existed.
//!
//! On top of the queue sits the **overload-control plane**, an
//! [`OverloadPolicy`] whose default is all-off and byte-identical to the
//! policy-free front-end:
//!
//! * a bounded admission queue (`queue_cap`) that rejects at the door when
//!   full, instead of letting backlog grow without limit;
//! * deadline-aware shedding: a queued job whose relative deadline expires
//!   before admission is dropped *before* wasting service — the system
//!   optimizes goodput (work that still matters), not throughput;
//! * deterministic client retries: a rejected or expired job re-presents
//!   itself after exponential backoff plus counter-addressed jitter, up to
//!   a bounded budget — retry storms and metastable collapse become
//!   reproducible phenomena instead of load-test folklore;
//! * a per-tenant circuit breaker that opens when a tenant's recent door
//!   decisions are mostly rejections and then sheds that tenant at the
//!   door (zero queue-state cost) until a timed half-open probe succeeds.
//!
//! Every refusal is recorded: jobs end in a terminal [`JobOutcome`]
//! (`Completed`, `Rejected`, or `Expired`), and the [`TrafficReport`]
//! carries per-class and per-tenant SLO-attainment / goodput summaries.
//!
//! Two properties matter for determinism:
//!
//! * Arrival fates are fixed at install time (the generator draws them
//!   from a counter-based stream), so execution interleaving can never
//!   perturb what arrives when — the fault-plane template. Retry backoff
//!   jitter follows the same template: a pure function of
//!   `(jitter seed, job, attempt)`, never a shared stateful generator, so
//!   the overload plane cannot shift the fault or crash planes' streams.
//! * Admission itself is zero-cost control plane: launching a job pushes
//!   the same t=0-style token-delivery event as
//!   [`crate::Runtime::inject_token_on`], drawing no fault fates and no
//!   node randomness, so a traffic plan composes with fault and crash
//!   plans without shifting their streams.

use crate::msg::FuncId;
use crate::payload::Payload;
use earth_machine::NodeId;
use earth_sim::{stream_word, word_bounded, VirtualDuration, VirtualTime};
use std::collections::VecDeque;
use std::fmt;

/// Queueing discipline for jobs waiting at the admission front-end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// First-come first-served in arrival order (the default).
    Fifo,
    /// Per-tenant fair share: admit the waiting job whose tenant has been
    /// admitted least often so far; FIFO within a tenant and on ties.
    /// This is max-min fairness in admission slots — a tenant flooding
    /// the queue cannot starve the others.
    FairShare,
}

impl Discipline {
    /// Inverse of `Display`: parse a discipline from its stable name.
    pub fn from_name(name: &str) -> Option<Discipline> {
        match name {
            "fifo" => Some(Discipline::Fifo),
            "fair_share" => Some(Discipline::FairShare),
            _ => None,
        }
    }
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Discipline::Fifo => write!(f, "fifo"),
            Discipline::FairShare => write!(f, "fair_share"),
        }
    }
}

/// Where a job's lifecycle ended. `Pending` is the only non-terminal
/// state; at quiescence of a finite plan every record is terminal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Still queued, in flight, or waiting on a retry backoff.
    Pending,
    /// Admitted and ran to completion.
    Completed,
    /// Refused at the door (queue full or breaker open) with no retry
    /// budget left.
    Rejected,
    /// Deadline expired while queued, with no retry budget left; the job
    /// was shed before consuming any service.
    Expired,
}

impl JobOutcome {
    /// Inverse of `Display`: parse an outcome from its stable name.
    pub fn from_name(name: &str) -> Option<JobOutcome> {
        match name {
            "pending" => Some(JobOutcome::Pending),
            "completed" => Some(JobOutcome::Completed),
            "rejected" => Some(JobOutcome::Rejected),
            "expired" => Some(JobOutcome::Expired),
            _ => None,
        }
    }
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutcome::Pending => write!(f, "pending"),
            JobOutcome::Completed => write!(f, "completed"),
            JobOutcome::Rejected => write!(f, "rejected"),
            JobOutcome::Expired => write!(f, "expired"),
        }
    }
}

/// Client retry behavior for rejected/expired jobs: attempt `a`
/// (1-based) re-presents after `min(base · 2^(a-1), cap)` plus a jitter
/// in `[0, base)` drawn from the counter stream at
/// `(jitter_seed, job, a)` — deterministic, interleaving-independent,
/// and bounded by `budget` attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retry attempts per job (0 disables retries while keeping
    /// the policy installed).
    pub budget: u32,
    /// First backoff; doubles every attempt.
    pub base: VirtualDuration,
    /// Ceiling on the exponential backoff (jitter comes on top).
    pub cap: VirtualDuration,
    /// Seed of the jitter fate lane (independent of every other stream).
    pub jitter_seed: u64,
}

/// Per-tenant circuit breaker: track the last `window` door decisions
/// for each tenant; when `open_after` of them were rejections, open —
/// every arrival from that tenant is then refused at the door without
/// touching queue state. After `probe_after` of open time the next
/// arrival is let through as a half-open probe: if the door accepts it
/// the breaker closes, otherwise it re-opens for another `probe_after`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Door decisions remembered per tenant.
    pub window: u32,
    /// Rejections within the window that trip the breaker.
    pub open_after: u32,
    /// Open time before the next arrival probes half-open.
    pub probe_after: VirtualDuration,
}

/// The overload-control plane's configuration. The default is all-off
/// and **provably absent**: a front-end running the default policy is
/// byte-identical to one built before the policy existed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Maximum jobs waiting for admission; arrivals beyond it are
    /// rejected at the door. `None` = unbounded (the default).
    pub queue_cap: Option<u32>,
    /// Shed queued jobs whose deadline has expired before admitting
    /// anyone (only jobs with a deadline are ever shed).
    pub deadline_shedding: bool,
    /// Client retry behavior for refused jobs; `None` = refusals are
    /// immediately terminal.
    pub retry: Option<RetryPolicy>,
    /// Per-tenant circuit breaker; `None` = door decisions are
    /// stateless.
    pub breaker: Option<BreakerPolicy>,
}

impl OverloadPolicy {
    fn validate(&self) {
        if let Some(cap) = self.queue_cap {
            assert!(cap >= 1, "queue cap must admit at least one waiter");
        }
        if let Some(r) = &self.retry {
            assert!(!r.base.is_zero(), "retry backoff base must be positive");
            assert!(r.cap >= r.base, "retry backoff cap below its base");
        }
        if let Some(b) = &self.breaker {
            assert!(
                b.window >= 1 && b.open_after >= 1 && b.open_after <= b.window,
                "breaker must trip within its window"
            );
            assert!(
                !b.probe_after.is_zero(),
                "breaker probe delay must be positive"
            );
        }
    }
}

/// One job scheduled to arrive at the front-end: everything the runtime
/// needs to launch it, fixed before the simulation starts.
#[derive(Clone, Debug)]
pub struct JobArrival {
    /// Workload-defined class tag (e.g. eigen / Gröbner / neural / search).
    pub class: u8,
    /// Tenant this job bills to (drives [`Discipline::FairShare`]).
    pub tenant: u16,
    /// Virtual instant the job arrives at the front door.
    pub arrive: VirtualTime,
    /// Relative deadline: the client stops caring this long after the
    /// attempt's arrival. `None` = the job never expires. Deadlines only
    /// *shed* under [`OverloadPolicy::deadline_shedding`]; without it
    /// they are pure SLO bookkeeping.
    pub deadline: Option<VirtualDuration>,
    /// Seeded home node: where the root token is first placed (the load
    /// balancer spreads its descendants from there).
    pub home: NodeId,
    /// Root threaded function of the job.
    pub func: FuncId,
    /// Arguments for the root token.
    pub args: Payload,
}

/// Lifecycle record of one job, in virtual time. `admit`/`complete` are
/// `None` while the job is still queued / in flight — and stay `None`
/// forever for jobs refused at the door; at quiescence of a finite plan
/// every record carries a terminal [`JobOutcome`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// Index of the job in the installed arrival list.
    pub job: u32,
    /// Class tag copied from the arrival.
    pub class: u8,
    /// Tenant copied from the arrival.
    pub tenant: u16,
    /// First arrival instant (retries never move it: the client-observed
    /// sojourn clock starts here).
    pub arrive: VirtualTime,
    /// Relative deadline copied from the arrival.
    pub deadline: Option<VirtualDuration>,
    /// Admission instant (None while queued or refused).
    pub admit: Option<VirtualTime>,
    /// Completion instant (None while queued, in flight, or refused).
    pub complete: Option<VirtualTime>,
    /// Where the lifecycle ended (or `Pending` mid-run).
    pub outcome: JobOutcome,
    /// Retry attempts consumed so far.
    pub retries: u32,
}

impl JobRecord {
    /// Time spent waiting in the admission queue.
    pub fn queue_wait(&self) -> Option<VirtualDuration> {
        self.admit.map(|a| a.since(self.arrive))
    }

    /// Time from admission to completion (the job's service time as the
    /// cluster experienced it, including any contention inside).
    pub fn service(&self) -> Option<VirtualDuration> {
        match (self.admit, self.complete) {
            (Some(a), Some(c)) => Some(c.since(a)),
            _ => None,
        }
    }

    /// End-to-end sojourn: first arrival to completion — the latency a
    /// client would observe, and the quantity the p50/p95/p99 summaries
    /// digest.
    pub fn sojourn(&self) -> Option<VirtualDuration> {
        self.complete.map(|c| c.since(self.arrive))
    }

    /// True when this job met its SLO: it completed, and — if it carried
    /// a deadline — within the deadline of its first arrival. Refused
    /// jobs never attain; deadline-free completions always do.
    pub fn attained(&self) -> bool {
        if self.outcome != JobOutcome::Completed {
            return false;
        }
        match (self.sojourn(), self.deadline) {
            (Some(s), Some(d)) => s <= d,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }
}

/// Terminal-state tally for one slice of the job population (a class, a
/// tenant, or everything) — the SLO/goodput view of a [`TrafficReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SloSummary {
    /// Jobs in the slice.
    pub jobs: u64,
    /// ... that completed.
    pub completed: u64,
    /// ... refused at the door with no retry budget left.
    pub rejected: u64,
    /// ... expired in queue with no retry budget left.
    pub expired: u64,
    /// ... that completed within their deadline ([`JobRecord::attained`]).
    pub attained: u64,
    /// Retry attempts consumed by the slice.
    pub retries: u64,
}

impl SloSummary {
    /// Goodput fraction: attained jobs over all jobs in the slice — the
    /// quantity overload control defends (0 for an empty slice).
    pub fn goodput(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.attained as f64 / self.jobs as f64
        }
    }

    /// SLO attainment among completions: of the work the cluster chose
    /// to serve, how much still mattered on delivery (0 if none
    /// completed).
    pub fn attainment(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.attained as f64 / self.completed as f64
        }
    }
}

/// The traffic plane's slice of a [`crate::RunReport`]: lifecycle counters
/// plus the per-job records the latency summaries are computed from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficReport {
    /// Discipline the front-end ran under.
    pub discipline: Discipline,
    /// Concurrency limit (jobs admitted but not yet completed).
    pub concurrency: u32,
    /// Jobs that reached the front door (unique jobs; retries of the
    /// same job never re-count).
    pub arrived: u64,
    /// Jobs admitted (their root token launched).
    pub admitted: u64,
    /// Jobs that reported completion.
    pub completed: u64,
    /// Jobs terminally refused at the door.
    pub rejected: u64,
    /// Jobs terminally expired in queue.
    pub expired: u64,
    /// Retry attempts scheduled across all jobs.
    pub retries: u64,
    /// Door refusals because the bounded queue was full (counts every
    /// event, including ones the client retried past).
    pub queue_rejections: u64,
    /// Door refusals because the tenant's breaker was open.
    pub breaker_rejections: u64,
    /// Times any tenant's breaker tripped open (including re-opens after
    /// a failed half-open probe).
    pub breaker_opens: u64,
    /// Deadline-shedding events (every shed, including ones retried).
    pub expirations: u64,
    /// High-water mark of the waiting queue. Like
    /// [`crate::RunReport::peak_queue_depth`] it is a pure observation:
    /// identical across queue implementations, and absent from `Display`
    /// so report goldens are unaffected.
    pub peak_waiting: u64,
    /// Per-job lifecycle records, in arrival-list order.
    pub jobs: Vec<JobRecord>,
}

impl TrafficReport {
    /// Jobs admitted but not yet completed.
    pub fn in_flight(&self) -> u64 {
        self.admitted - self.completed
    }

    /// Jobs still waiting in the admission queue (or in a retry backoff).
    pub fn queued(&self) -> u64 {
        self.arrived
            .saturating_sub(self.admitted + self.rejected + self.expired)
    }

    /// True when the overload plane did anything at all this run — the
    /// gate for the report's `overload:` line, so policy-free (and
    /// policy-idle) runs render byte-identically to the pre-overload
    /// format.
    pub fn had_overload(&self) -> bool {
        self.rejected
            + self.expired
            + self.retries
            + self.queue_rejections
            + self.breaker_rejections
            + self.breaker_opens
            + self.expirations
            > 0
    }

    /// Conservation check, recounted from the per-job records: every
    /// counter must equal what the records actually say, outcomes must be
    /// internally consistent (a `Completed` job has both instants, a
    /// refused one has neither), and the terminal split must not exceed
    /// the arrivals. Unlike a check derived from the counters alone, a
    /// corrupted report *fails* here.
    pub fn is_conserved(&self) -> bool {
        let mut admitted = 0u64;
        let mut completed = 0u64;
        let mut rejected = 0u64;
        let mut expired = 0u64;
        for r in &self.jobs {
            if r.admit.is_some() {
                admitted += 1;
            }
            let consistent = match r.outcome {
                JobOutcome::Completed => {
                    completed += 1;
                    r.admit.is_some() && r.complete.is_some()
                }
                JobOutcome::Rejected => {
                    rejected += 1;
                    r.admit.is_none() && r.complete.is_none()
                }
                JobOutcome::Expired => {
                    expired += 1;
                    r.admit.is_none() && r.complete.is_none()
                }
                JobOutcome::Pending => r.complete.is_none(),
            };
            if !consistent {
                return false;
            }
        }
        admitted == self.admitted
            && completed == self.completed
            && rejected == self.rejected
            && expired == self.expired
            && self.admitted == self.completed + self.in_flight()
            && self.arrived <= self.jobs.len() as u64
            && self.completed + self.rejected + self.expired <= self.arrived
    }

    /// Sorted sojourn times in microseconds of all completed jobs of
    /// `class` (`None` selects every class) — ready for nearest-rank
    /// percentile digestion. Only *served* work appears here; refused
    /// jobs have no sojourn.
    pub fn sojourns_us(&self, class: Option<u8>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .jobs
            .iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .filter_map(|r| r.sojourn())
            .map(|d| d.as_us_f64())
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite sojourns"));
        v
    }

    /// Terminal-state tally over the records matching `class` and
    /// `tenant` filters (`None` = no filter). Meaningful at quiescence,
    /// when every record is terminal.
    pub fn slo(&self, class: Option<u8>, tenant: Option<u16>) -> SloSummary {
        let mut s = SloSummary::default();
        for r in self
            .jobs
            .iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .filter(|r| tenant.is_none_or(|t| r.tenant == t))
        {
            s.jobs += 1;
            s.retries += r.retries as u64;
            match r.outcome {
                JobOutcome::Completed => {
                    s.completed += 1;
                    if r.attained() {
                        s.attained += 1;
                    }
                }
                JobOutcome::Rejected => s.rejected += 1,
                JobOutcome::Expired => s.expired += 1,
                JobOutcome::Pending => {}
            }
        }
        s
    }

    /// Per-class SLO summaries, ascending by class tag; classes with no
    /// jobs are omitted.
    pub fn slo_by_class(&self) -> Vec<(u8, SloSummary)> {
        let mut keys: Vec<u8> = self.jobs.iter().map(|r| r.class).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|c| (c, self.slo(Some(c), None)))
            .collect()
    }

    /// Per-tenant SLO summaries, ascending by tenant; tenants with no
    /// jobs are omitted.
    pub fn slo_by_tenant(&self) -> Vec<(u16, SloSummary)> {
        let mut keys: Vec<u16> = self.jobs.iter().map(|r| r.tenant).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|t| (t, self.slo(None, Some(t))))
            .collect()
    }
}

/// What the door decided about one (re)arrival — the runtime schedules
/// the follow-up event, keeping the state machine free of queue access.
pub(crate) enum Admission {
    /// Joined the waiting set (admission happens via `admit_ready`).
    Queued,
    /// Refused, and the client will re-present at the given instant.
    Retry(VirtualTime),
    /// Refused terminally; the record carries the outcome.
    Terminal,
}

/// Breaker bookkeeping for one tenant (allocated only under a breaker
/// policy).
#[derive(Clone, Debug, Default)]
struct BreakerState {
    /// Last `window` door decisions, `true` = rejection.
    recent: VecDeque<bool>,
    /// Open since this instant (`None` = closed).
    open_since: Option<VirtualTime>,
}

/// Live state of the admission front-end; `Some` on the runtime exactly
/// when a non-empty arrival list is installed.
pub(crate) struct TrafficState {
    /// The installed plan, immutable after install.
    pub(crate) jobs: Vec<JobArrival>,
    /// Lifecycle records, parallel to `jobs`.
    pub(crate) records: Vec<JobRecord>,
    /// Waiting jobs in arrival order.
    waiting: VecDeque<u32>,
    /// Admission counts per tenant (fair-share bookkeeping).
    tenant_admitted: Vec<u64>,
    /// Breaker state per tenant (empty without a breaker policy).
    breakers: Vec<BreakerState>,
    /// Arrival instant of each job's *current* attempt (deadline
    /// expiry is judged against this; retries refresh it).
    attempt_arrive: Vec<VirtualTime>,
    /// Jobs admitted but not yet completed.
    in_flight: u32,
    pub(crate) concurrency: u32,
    pub(crate) discipline: Discipline,
    pub(crate) policy: OverloadPolicy,
    pub(crate) arrived: u64,
    pub(crate) admitted: u64,
    pub(crate) completed: u64,
    rejected: u64,
    expired: u64,
    retries: u64,
    queue_rejections: u64,
    breaker_rejections: u64,
    breaker_opens: u64,
    expirations: u64,
    peak_waiting: u64,
}

impl TrafficState {
    pub(crate) fn new(
        jobs: Vec<JobArrival>,
        concurrency: u32,
        discipline: Discipline,
        policy: OverloadPolicy,
    ) -> Self {
        assert!(concurrency >= 1, "traffic concurrency limit must be >= 1");
        policy.validate();
        let tenants = jobs
            .iter()
            .map(|j| j.tenant as usize + 1)
            .max()
            .unwrap_or(1);
        let records = jobs
            .iter()
            .enumerate()
            .map(|(k, j)| JobRecord {
                job: k as u32,
                class: j.class,
                tenant: j.tenant,
                arrive: j.arrive,
                deadline: j.deadline,
                admit: None,
                complete: None,
                outcome: JobOutcome::Pending,
                retries: 0,
            })
            .collect();
        let breakers = if policy.breaker.is_some() {
            vec![BreakerState::default(); tenants]
        } else {
            Vec::new()
        };
        let attempt_arrive = jobs.iter().map(|j| j.arrive).collect();
        TrafficState {
            records,
            waiting: VecDeque::with_capacity(jobs.len().min(1024)),
            tenant_admitted: vec![0; tenants],
            breakers,
            attempt_arrive,
            in_flight: 0,
            concurrency,
            discipline,
            policy,
            arrived: 0,
            admitted: 0,
            completed: 0,
            rejected: 0,
            expired: 0,
            retries: 0,
            queue_rejections: 0,
            breaker_rejections: 0,
            breaker_opens: 0,
            expirations: 0,
            peak_waiting: 0,
            jobs,
        }
    }

    /// A job reached the front door for the first time.
    pub(crate) fn arrive(&mut self, t: VirtualTime, k: u32) -> Admission {
        self.arrived += 1;
        self.door(t, k)
    }

    /// A refused job re-presents itself after its backoff.
    pub(crate) fn retry_arrive(&mut self, t: VirtualTime, k: u32) -> Admission {
        self.door(t, k)
    }

    /// The door: breaker, then queue bound, then the waiting set. Under
    /// the default policy this is exactly `waiting.push_back` — the
    /// policy-free front-end's behavior, byte for byte.
    fn door(&mut self, t: VirtualTime, k: u32) -> Admission {
        self.attempt_arrive[k as usize] = t;
        let tenant = self.jobs[k as usize].tenant as usize;
        if let Some(bp) = self.policy.breaker {
            if let Some(since) = self.breakers[tenant].open_since {
                if t.since(since) < bp.probe_after {
                    // Open: shed at the door. No queue state is read or
                    // written — this is the zero-cost rejection path.
                    self.breaker_rejections += 1;
                    return self.reject(t, k, false);
                }
                // Past the probe delay: this arrival is the half-open
                // probe; the door decision below resolves the breaker.
            }
        }
        let accepted = self
            .policy
            .queue_cap
            .is_none_or(|cap| (self.waiting.len() as u32) < cap);
        if let Some(bp) = self.policy.breaker {
            let b = &mut self.breakers[tenant];
            if b.open_since.is_some() {
                // Half-open probe outcome: close on acceptance, re-open
                // (restarting the probe clock) on refusal.
                if accepted {
                    b.open_since = None;
                    b.recent.clear();
                } else {
                    b.open_since = Some(t);
                    self.breaker_opens += 1;
                }
            } else {
                b.recent.push_back(!accepted);
                if b.recent.len() > bp.window as usize {
                    b.recent.pop_front();
                }
                let rejections = b.recent.iter().filter(|&&r| r).count() as u32;
                if rejections >= bp.open_after {
                    b.open_since = Some(t);
                    b.recent.clear();
                    self.breaker_opens += 1;
                }
            }
        }
        if accepted {
            self.waiting.push_back(k);
            self.peak_waiting = self.peak_waiting.max(self.waiting.len() as u64);
            Admission::Queued
        } else {
            self.queue_rejections += 1;
            self.reject(t, k, false)
        }
    }

    /// A refusal at `t`: schedule the client's next attempt if budget
    /// remains, otherwise settle the terminal outcome.
    fn reject(&mut self, t: VirtualTime, k: u32, expired: bool) -> Admission {
        let rec = &mut self.records[k as usize];
        if let Some(rp) = self.policy.retry {
            if rec.retries < rp.budget {
                rec.retries += 1;
                self.retries += 1;
                let attempt = rec.retries;
                // min(base · 2^(a-1), cap) + jitter in [0, base): the
                // classic capped exponential backoff, with the jitter a
                // pure function of (seed, job, attempt) so replay and
                // queue-kind equivalence hold by construction.
                let shift = (attempt - 1).min(20);
                let backoff = rp
                    .base
                    .as_ns()
                    .saturating_mul(1u64 << shift)
                    .min(rp.cap.as_ns());
                let jitter = word_bounded(
                    stream_word(rp.jitter_seed, k as u64, attempt as u64),
                    rp.base.as_ns().max(1),
                );
                let at = t + VirtualDuration::from_ns(backoff.saturating_add(jitter));
                return Admission::Retry(at);
            }
        }
        if expired {
            rec.outcome = JobOutcome::Expired;
            self.expired += 1;
        } else {
            rec.outcome = JobOutcome::Rejected;
            self.rejected += 1;
        }
        Admission::Terminal
    }

    /// True when the policy sheds expired waiters (the runtime's gate
    /// for the pre-admission sweep; default policy: never).
    pub(crate) fn sheds(&self) -> bool {
        self.policy.deadline_shedding
    }

    /// Drop every waiting job whose deadline (relative to its current
    /// attempt) has passed, *before* it can waste a concurrency slot.
    /// Retrying sheds are appended to `retries` for the runtime to
    /// schedule.
    pub(crate) fn shed_expired(&mut self, t: VirtualTime, retries: &mut Vec<(VirtualTime, u32)>) {
        debug_assert!(self.policy.deadline_shedding);
        let mut i = 0;
        while i < self.waiting.len() {
            let k = self.waiting[i];
            let expired = self.jobs[k as usize]
                .deadline
                .is_some_and(|d| t > self.attempt_arrive[k as usize] + d);
            if expired {
                self.waiting.remove(i);
                self.expirations += 1;
                if let Admission::Retry(at) = self.reject(t, k, true) {
                    retries.push((at, k));
                }
            } else {
                i += 1;
            }
        }
    }

    /// True when the concurrency limit has room and someone is waiting.
    pub(crate) fn can_admit(&self) -> bool {
        self.in_flight < self.concurrency && !self.waiting.is_empty()
    }

    /// Remove and return the next job to admit under the discipline.
    /// Callers must have checked [`Self::can_admit`].
    pub(crate) fn pick_next(&mut self) -> u32 {
        let pos = match self.discipline {
            Discipline::Fifo => 0,
            Discipline::FairShare => {
                // Least-admitted tenant wins; the scan is in queue order,
                // so ties keep FIFO. Queues are bounded by the concurrency
                // backlog, far below anything a scan would hurt.
                let mut best = 0usize;
                let mut best_count = u64::MAX;
                for (pos, &k) in self.waiting.iter().enumerate() {
                    let count = self.tenant_admitted[self.jobs[k as usize].tenant as usize];
                    if count < best_count {
                        best = pos;
                        best_count = count;
                    }
                }
                best
            }
        };
        let k = self.waiting.remove(pos).expect("pick_next on empty queue");
        self.tenant_admitted[self.jobs[k as usize].tenant as usize] += 1;
        self.in_flight += 1;
        self.admitted += 1;
        k
    }

    /// An admitted job reported completion at `t`.
    pub(crate) fn complete(&mut self, t: VirtualTime, job: u32) {
        let rec = &mut self.records[job as usize];
        assert!(
            rec.admit.is_some() && rec.complete.is_none(),
            "job_done({job}) but the job is not in flight"
        );
        rec.complete = Some(t);
        rec.outcome = JobOutcome::Completed;
        self.completed += 1;
        self.in_flight -= 1;
    }

    pub(crate) fn report(&self) -> TrafficReport {
        TrafficReport {
            discipline: self.discipline,
            concurrency: self.concurrency,
            arrived: self.arrived,
            admitted: self.admitted,
            completed: self.completed,
            rejected: self.rejected,
            expired: self.expired,
            retries: self.retries,
            queue_rejections: self.queue_rejections,
            breaker_rejections: self.breaker_rejections,
            breaker_opens: self.breaker_opens,
            expirations: self.expirations,
            peak_waiting: self.peak_waiting,
            jobs: self.records.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(tenant: u16, at_us: u64) -> JobArrival {
        JobArrival {
            class: 0,
            tenant,
            arrive: VirtualTime::ZERO + VirtualDuration::from_us(at_us),
            deadline: None,
            home: NodeId(0),
            func: FuncId(0),
            args: Payload::empty(),
        }
    }

    fn us(t: u64) -> VirtualTime {
        VirtualTime::ZERO + VirtualDuration::from_us(t)
    }

    fn state(jobs: Vec<JobArrival>, conc: u32, d: Discipline) -> TrafficState {
        TrafficState::new(jobs, conc, d, OverloadPolicy::default())
    }

    fn arrive_all(st: &mut TrafficState, n: u32) {
        for k in 0..n {
            let t = st.jobs[k as usize].arrive;
            assert!(matches!(st.arrive(t, k), Admission::Queued));
        }
    }

    fn admit_next(st: &mut TrafficState, t_us: u64) -> u32 {
        assert!(st.can_admit());
        let k = st.pick_next();
        st.records[k as usize].admit = Some(us(t_us));
        k
    }

    #[test]
    fn fifo_admits_in_arrival_order() {
        let jobs = vec![arrival(1, 0), arrival(1, 1), arrival(0, 2)];
        let mut st = state(jobs, 1, Discipline::Fifo);
        arrive_all(&mut st, 3);
        assert_eq!(admit_next(&mut st, 10), 0);
        st.complete(us(20), 0);
        assert_eq!(admit_next(&mut st, 20), 1);
        st.complete(us(30), 1);
        assert_eq!(admit_next(&mut st, 30), 2);
    }

    #[test]
    fn fair_share_interleaves_tenants() {
        // Tenant 0 floods three jobs before tenant 1's single job; fair
        // share admits tenant 1 second, not last.
        let jobs = vec![arrival(0, 0), arrival(0, 1), arrival(0, 2), arrival(1, 3)];
        let mut st = state(jobs, 1, Discipline::FairShare);
        arrive_all(&mut st, 4);
        assert_eq!(admit_next(&mut st, 10), 0, "all zero: FIFO tie-break");
        st.complete(us(11), 0);
        assert_eq!(admit_next(&mut st, 11), 3, "tenant 1 never served yet");
        st.complete(us(12), 3);
        assert_eq!(admit_next(&mut st, 12), 1);
        st.complete(us(13), 1);
        assert_eq!(admit_next(&mut st, 13), 2);
    }

    #[test]
    fn concurrency_limit_gates_admission() {
        let jobs = vec![arrival(0, 0), arrival(0, 0), arrival(0, 0)];
        let mut st = state(jobs, 2, Discipline::Fifo);
        arrive_all(&mut st, 3);
        admit_next(&mut st, 5);
        admit_next(&mut st, 5);
        assert!(!st.can_admit(), "limit 2 reached");
        st.complete(us(9), 1);
        assert!(st.can_admit(), "completion frees a slot");
    }

    #[test]
    fn record_durations_decompose_sojourn() {
        let mut rec = JobRecord {
            job: 0,
            class: 2,
            tenant: 0,
            arrive: us(100),
            deadline: None,
            admit: None,
            complete: None,
            outcome: JobOutcome::Pending,
            retries: 0,
        };
        assert_eq!(rec.queue_wait(), None);
        assert_eq!(rec.sojourn(), None);
        assert!(!rec.attained(), "pending never attains");
        rec.admit = Some(us(150));
        rec.complete = Some(us(400));
        rec.outcome = JobOutcome::Completed;
        assert_eq!(rec.queue_wait(), Some(VirtualDuration::from_us(50)));
        assert_eq!(rec.service(), Some(VirtualDuration::from_us(250)));
        assert_eq!(rec.sojourn(), Some(VirtualDuration::from_us(300)));
        assert!(rec.attained(), "deadline-free completion attains");
        rec.deadline = Some(VirtualDuration::from_us(299));
        assert!(!rec.attained(), "sojourn 300us misses a 299us deadline");
        rec.deadline = Some(VirtualDuration::from_us(300));
        assert!(rec.attained(), "deadline met exactly still attains");
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let jobs = vec![arrival(0, 0), arrival(0, 1), arrival(0, 2), arrival(0, 3)];
        let policy = OverloadPolicy {
            queue_cap: Some(2),
            ..OverloadPolicy::default()
        };
        let mut st = TrafficState::new(jobs, 1, Discipline::Fifo, policy);
        assert!(matches!(st.arrive(us(0), 0), Admission::Queued));
        assert!(matches!(st.arrive(us(1), 1), Admission::Queued));
        assert!(matches!(st.arrive(us(2), 2), Admission::Terminal));
        let r = st.report();
        assert_eq!((r.arrived, r.rejected, r.queue_rejections), (3, 1, 1));
        assert_eq!(r.jobs[2].outcome, JobOutcome::Rejected);
        assert_eq!(r.peak_waiting, 2);
        assert!(r.is_conserved(), "{r:?}");
        assert!(r.had_overload());
        // A freed slot reopens the door.
        admit_next(&mut st, 5);
        assert!(matches!(st.arrive(us(6), 3), Admission::Queued));
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let jobs = vec![arrival(0, 0), arrival(0, 1)];
        let policy = OverloadPolicy {
            queue_cap: Some(1),
            retry: Some(RetryPolicy {
                budget: 2,
                base: VirtualDuration::from_us(100),
                cap: VirtualDuration::from_us(150),
                jitter_seed: 7,
            }),
            ..OverloadPolicy::default()
        };
        let mut st = TrafficState::new(jobs.clone(), 1, Discipline::Fifo, policy.clone());
        assert!(matches!(st.arrive(us(0), 0), Admission::Queued));
        let Admission::Retry(first) = st.arrive(us(1), 1) else {
            panic!("full queue must schedule a retry");
        };
        // backoff = base (attempt 1), jitter in [0, base).
        assert!(first >= us(1) + VirtualDuration::from_us(100));
        assert!(first < us(1) + VirtualDuration::from_us(200));
        let Admission::Retry(second) = st.retry_arrive(first, 1) else {
            panic!("still full: second retry");
        };
        // backoff = min(2·base, cap) = 150us (attempt 2).
        assert!(second >= first + VirtualDuration::from_us(150));
        assert!(second < first + VirtualDuration::from_us(250));
        assert!(matches!(st.retry_arrive(second, 1), Admission::Terminal));
        let r = st.report();
        assert_eq!((r.retries, r.rejected, r.queue_rejections), (2, 1, 3));
        assert_eq!(r.jobs[1].retries, 2);
        assert!(r.is_conserved(), "{r:?}");
        // Replay: the same policy re-derives the same instants.
        let mut st2 = TrafficState::new(jobs, 1, Discipline::Fifo, policy);
        assert!(matches!(st2.arrive(us(0), 0), Admission::Queued));
        let Admission::Retry(first2) = st2.arrive(us(1), 1) else {
            panic!()
        };
        assert_eq!(first, first2, "jitter must be a pure function");
    }

    #[test]
    fn shedding_expires_queued_jobs_before_service() {
        let mut a = arrival(0, 0);
        a.deadline = Some(VirtualDuration::from_us(50));
        let mut b = arrival(0, 1);
        b.deadline = Some(VirtualDuration::from_us(500));
        let c = arrival(0, 2); // deadline-free: never shed
        let policy = OverloadPolicy {
            deadline_shedding: true,
            ..OverloadPolicy::default()
        };
        let mut st = TrafficState::new(vec![a, b, c], 1, Discipline::Fifo, policy);
        arrive_all(&mut st, 3);
        let mut retries = Vec::new();
        st.shed_expired(us(100), &mut retries);
        assert!(retries.is_empty(), "no retry policy: terminal");
        let r = st.report();
        assert_eq!((r.expired, r.expirations), (1, 1));
        assert_eq!(r.jobs[0].outcome, JobOutcome::Expired);
        assert_eq!(r.jobs[1].outcome, JobOutcome::Pending, "deadline not hit");
        assert_eq!(r.jobs[2].outcome, JobOutcome::Pending, "no deadline");
        assert!(r.is_conserved(), "{r:?}");
        // The survivors are still admittable, in order.
        assert_eq!(admit_next(&mut st, 100), 1);
    }

    #[test]
    fn breaker_opens_sheds_and_probes_half_open() {
        let jobs: Vec<JobArrival> = (0..8).map(|i| arrival(0, i)).collect();
        let policy = OverloadPolicy {
            queue_cap: Some(1),
            breaker: Some(BreakerPolicy {
                window: 4,
                open_after: 2,
                probe_after: VirtualDuration::from_us(100),
            }),
            ..OverloadPolicy::default()
        };
        let mut st = TrafficState::new(jobs, 1, Discipline::Fifo, policy);
        assert!(matches!(st.arrive(us(0), 0), Admission::Queued));
        // Two queue-full rejections trip the breaker...
        assert!(matches!(st.arrive(us(1), 1), Admission::Terminal));
        assert!(matches!(st.arrive(us(2), 2), Admission::Terminal));
        assert_eq!(st.report().breaker_opens, 1);
        // ...after which arrivals shed at the door without a queue check.
        assert!(matches!(st.arrive(us(3), 3), Admission::Terminal));
        let r = st.report();
        assert_eq!((r.queue_rejections, r.breaker_rejections), (2, 1));
        // Probe after the delay: the queue is still full, so the probe
        // fails and the breaker re-opens.
        assert!(matches!(st.arrive(us(110), 4), Admission::Terminal));
        assert_eq!(st.report().breaker_opens, 2);
        // Drain the queue, wait out the new probe delay: the next probe
        // is accepted and the breaker closes.
        assert_eq!(admit_next(&mut st, 111), 0);
        assert!(matches!(st.arrive(us(220), 5), Admission::Queued));
        assert!(matches!(st.arrive(us(221), 6), Admission::Terminal));
        let r = st.report();
        assert_eq!(r.breaker_opens, 2, "closed breaker counts door decisions");
        assert_eq!(r.queue_rejections, 4);
        assert!(r.is_conserved(), "{r:?}");
    }

    #[test]
    fn corrupted_report_fails_conservation() {
        let jobs = vec![arrival(0, 0), arrival(0, 1)];
        let mut st = state(jobs, 1, Discipline::Fifo);
        arrive_all(&mut st, 2);
        let k = admit_next(&mut st, 5);
        st.complete(us(9), k);
        let good = st.report();
        assert!(good.is_conserved());
        // Counter drifts the records don't back up are caught...
        let mut r = good.clone();
        r.completed = 2;
        r.admitted = 2;
        assert!(!r.is_conserved(), "inflated completions must fail");
        let mut r = good.clone();
        r.admitted = 0;
        assert!(!r.is_conserved(), "counter/record admit mismatch");
        // ...and so are internally inconsistent records.
        let mut r = good.clone();
        r.jobs[0].admit = None;
        assert!(!r.is_conserved(), "completed job without an admit instant");
        let mut r = good.clone();
        r.jobs[1].outcome = JobOutcome::Rejected;
        assert!(!r.is_conserved(), "rejected record nobody counted");
        let mut r = good;
        r.jobs[1].complete = Some(us(10));
        assert!(!r.is_conserved(), "pending job with a completion instant");
    }

    #[test]
    fn sojourns_and_slo_edge_cases() {
        let jobs = vec![arrival(0, 0)];
        let mut st = state(jobs, 1, Discipline::Fifo);
        // Empty report slice: no completions anywhere.
        let r = st.report();
        assert!(r.sojourns_us(None).is_empty());
        assert!(r.sojourns_us(Some(3)).is_empty(), "absent class");
        assert_eq!(r.slo(Some(3), None), SloSummary::default());
        assert_eq!(r.slo(None, None).jobs, 1);
        assert_eq!(r.slo(None, None).goodput(), 0.0, "nothing attained yet");
        assert_eq!(r.slo(None, None).attainment(), 0.0, "no completions");
        // Single sample: the one sojourn is every percentile.
        arrive_all(&mut st, 1);
        let k = admit_next(&mut st, 0);
        st.complete(us(42), k);
        let r = st.report();
        assert_eq!(r.sojourns_us(None), vec![42.0]);
        assert_eq!(r.sojourns_us(Some(0)), vec![42.0]);
        let s = r.slo(None, None);
        assert_eq!((s.jobs, s.completed, s.attained), (1, 1, 1));
        assert_eq!(s.goodput(), 1.0);
        assert_eq!(s.attainment(), 1.0);
    }

    #[test]
    fn display_names_round_trip() {
        for d in [Discipline::Fifo, Discipline::FairShare] {
            assert_eq!(Discipline::from_name(&d.to_string()), Some(d));
        }
        for o in [
            JobOutcome::Pending,
            JobOutcome::Completed,
            JobOutcome::Rejected,
            JobOutcome::Expired,
        ] {
            assert_eq!(JobOutcome::from_name(&o.to_string()), Some(o));
        }
        assert_eq!(Discipline::from_name("lifo"), None);
        assert_eq!(JobOutcome::from_name("evicted"), None);
    }

    mod through_the_runtime {
        use super::*;
        use crate::addr::ThreadId;
        use crate::args::{ArgsReader, ArgsWriter};
        use crate::ctx::Ctx;
        use crate::frame::ThreadedFn;
        use crate::runtime::Runtime;
        use earth_machine::MachineConfig;

        /// One-thread job body: burn `us`, then report done.
        struct JobBody {
            job: u32,
            us: u64,
        }

        impl ThreadedFn for JobBody {
            fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
                ctx.compute(VirtualDuration::from_us(self.us));
                ctx.job_done(self.job);
                ctx.end();
            }
        }

        fn plan_jobs(
            rt: &mut Runtime,
            every_us: u64,
            service_us: u64,
            n: u32,
            deadline_us: Option<u64>,
        ) -> Vec<JobArrival> {
            let func = rt.register("job-body", |a: &mut ArgsReader<'_>| {
                Box::new(JobBody {
                    job: a.u32(),
                    us: a.u64(),
                })
            });
            (0..n)
                .map(|k| {
                    let mut a = ArgsWriter::new();
                    a.u32(k);
                    a.u64(service_us);
                    JobArrival {
                        class: (k % 2) as u8,
                        tenant: (k % 3) as u16,
                        arrive: VirtualTime::ZERO + VirtualDuration::from_us(every_us * k as u64),
                        deadline: deadline_us.map(VirtualDuration::from_us),
                        home: NodeId((k % 4) as u16),
                        func,
                        args: a.finish(),
                    }
                })
                .collect()
        }

        fn rt_with_plan(every_us: u64, service_us: u64, n: u32, conc: u32) -> Runtime {
            let mut rt = Runtime::new(MachineConfig::manna(4), 7);
            let jobs = plan_jobs(&mut rt, every_us, service_us, n, None);
            rt.install_traffic(jobs, conc, Discipline::Fifo);
            rt
        }

        #[test]
        fn overloaded_front_end_serializes_and_drains() {
            // Jobs of 300us arrive every 100us under concurrency 1: the
            // queue builds, admissions serialize behind completions, and
            // the run still drains every job.
            let mut rt = rt_with_plan(100, 300, 6, 1);
            let report = rt.run();
            assert!(report.is_clean(), "{report}");
            assert!(report.traffic_drained(), "{report}");
            let t = report.traffic.as_ref().unwrap();
            assert_eq!((t.arrived, t.admitted, t.completed), (6, 6, 6));
            assert!(!t.had_overload(), "no policy: nothing to report");
            assert!(t.peak_waiting >= 2, "backlog must be observed");
            let mut prev_complete = VirtualTime::ZERO;
            for rec in &t.jobs {
                let admit = rec.admit.expect("admitted");
                let complete = rec.complete.expect("completed");
                assert_eq!(rec.outcome, JobOutcome::Completed);
                assert!(admit >= rec.arrive, "admission before arrival");
                assert!(complete > admit, "zero-time job");
                assert!(
                    admit >= prev_complete,
                    "concurrency 1 must serialize admissions"
                );
                prev_complete = complete;
            }
            // Under overload the later jobs' waits dominate their sojourn.
            let last = &t.jobs[5];
            assert!(last.queue_wait().unwrap() > last.service().unwrap());
        }

        #[test]
        fn wide_concurrency_admits_on_arrival() {
            let mut rt = rt_with_plan(100, 300, 6, 16);
            let report = rt.run();
            assert!(report.traffic_drained(), "{report}");
            let t = report.traffic.as_ref().unwrap();
            for rec in &t.jobs {
                assert_eq!(rec.admit, Some(rec.arrive), "no queueing below the limit");
            }
        }

        #[test]
        fn default_policy_is_byte_identical_to_legacy_install() {
            // install_traffic and install_traffic_with(default) are the
            // same front door: the whole run — traffic records included —
            // must match byte for byte.
            let run = |with_policy: bool| {
                let mut rt = Runtime::new(MachineConfig::manna(4), 7);
                let jobs = plan_jobs(&mut rt, 100, 300, 6, None);
                if with_policy {
                    rt.install_traffic_with(jobs, 1, Discipline::Fifo, OverloadPolicy::default());
                } else {
                    rt.install_traffic(jobs, 1, Discipline::Fifo);
                }
                rt.run()
            };
            let legacy = run(false);
            let with = run(true);
            assert_eq!(format!("{legacy:?}"), format!("{with:?}"));
            assert_eq!(format!("{legacy}"), format!("{with}"));
        }

        #[test]
        fn deadlines_without_shedding_only_annotate() {
            // Drawing deadlines is pure bookkeeping: without shedding the
            // lifecycle instants are identical to the deadline-free run.
            let run = |deadline_us: Option<u64>| {
                let mut rt = Runtime::new(MachineConfig::manna(4), 7);
                let jobs = plan_jobs(&mut rt, 100, 300, 6, deadline_us);
                rt.install_traffic(jobs, 1, Discipline::Fifo);
                rt.run()
            };
            let bare = run(None);
            let with = run(Some(250));
            let (tb, tw) = (bare.traffic.unwrap(), with.traffic.unwrap());
            for (rb, rw) in tb.jobs.iter().zip(&tw.jobs) {
                assert_eq!(rb.arrive, rw.arrive);
                assert_eq!(rb.admit, rw.admit);
                assert_eq!(rb.complete, rw.complete);
            }
            // But the SLO view changes: late jobs now miss.
            assert_eq!(tb.slo(None, None).attained, 6);
            assert!(tw.slo(None, None).attained < 6, "tight deadline must miss");
        }

        #[test]
        fn shedding_run_drains_with_terminal_outcomes() {
            // 300us jobs every 50us under concurrency 1 with 200us
            // deadlines: most of the queue expires instead of being
            // served, and the run drains with every record terminal.
            let mut rt = Runtime::new(MachineConfig::manna(4), 7);
            let jobs = plan_jobs(&mut rt, 50, 300, 8, Some(200));
            rt.install_traffic_with(
                jobs,
                1,
                Discipline::Fifo,
                OverloadPolicy {
                    deadline_shedding: true,
                    ..OverloadPolicy::default()
                },
            );
            let report = rt.run();
            assert!(report.is_clean(), "{report}");
            assert!(report.traffic_drained(), "{report}");
            let t = report.traffic.as_ref().unwrap();
            assert_eq!(t.arrived, 8);
            assert!(t.expired >= 1, "overload must shed: {t:?}");
            assert_eq!(t.completed + t.rejected + t.expired, t.arrived);
            assert!(t.is_conserved(), "{t:?}");
            for rec in &t.jobs {
                assert_ne!(rec.outcome, JobOutcome::Pending, "{rec:?}");
                if rec.outcome == JobOutcome::Expired {
                    assert!(rec.service().is_none(), "shed jobs must not be served");
                }
            }
        }

        #[test]
        fn retry_storm_drains_deterministically() {
            // A tiny queue plus retries: rejected jobs hammer the door
            // with backoff until their budget runs out. The run must
            // still quiesce, with identical results on replay.
            let run = || {
                let mut rt = Runtime::new(MachineConfig::manna(4), 7);
                let jobs = plan_jobs(&mut rt, 20, 400, 10, None);
                rt.install_traffic_with(
                    jobs,
                    1,
                    Discipline::Fifo,
                    OverloadPolicy {
                        queue_cap: Some(1),
                        retry: Some(RetryPolicy {
                            budget: 3,
                            base: VirtualDuration::from_us(50),
                            cap: VirtualDuration::from_us(400),
                            jitter_seed: 99,
                        }),
                        ..OverloadPolicy::default()
                    },
                );
                rt.run()
            };
            let a = run();
            let b = run();
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert!(a.traffic_drained(), "{a}");
            let t = a.traffic.as_ref().unwrap();
            assert!(t.retries > 0, "the storm never fired: {t:?}");
            assert!(t.rejected > 0, "budgets must run out: {t:?}");
            assert_eq!(t.completed + t.rejected + t.expired, t.arrived);
            assert!(t.is_conserved(), "{t:?}");
        }

        #[test]
        fn empty_plan_is_byte_identical_to_no_plan() {
            let run = |install_empty: bool| {
                let mut rt = Runtime::new(MachineConfig::manna(4), 7);
                let func = rt.register("job-body", |a: &mut ArgsReader<'_>| {
                    Box::new(JobBody {
                        job: a.u32(),
                        us: a.u64(),
                    })
                });
                if install_empty {
                    rt.install_traffic(Vec::new(), 8, Discipline::FairShare);
                }
                // A plain batch token, reported via mark not job_done —
                // there is no front-end to report to.
                struct Batch;
                impl ThreadedFn for Batch {
                    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
                        ctx.compute(VirtualDuration::from_us(50));
                        ctx.end();
                    }
                }
                let _ = func;
                let batch = rt.register("batch", |_: &mut ArgsReader<'_>| Box::new(Batch));
                for _ in 0..8 {
                    rt.inject_token(batch, Payload::empty());
                }
                rt.run()
            };
            let without = run(false);
            let with = run(true);
            assert_eq!(format!("{without:?}"), format!("{with:?}"));
            assert_eq!(format!("{without}"), format!("{with}"));
            assert!(with.traffic.is_none(), "empty plan must normalize away");
        }
    }

    #[test]
    fn report_counters_conserve() {
        let jobs = vec![arrival(0, 0), arrival(0, 1), arrival(0, 2)];
        let mut st = state(jobs, 1, Discipline::Fifo);
        arrive_all(&mut st, 3);
        let k = admit_next(&mut st, 5);
        let r = st.report();
        assert_eq!((r.arrived, r.admitted, r.completed), (3, 1, 0));
        assert_eq!(r.in_flight(), 1);
        assert_eq!(r.queued(), 2);
        assert!(r.is_conserved());
        assert!(!r.had_overload());
        st.complete(us(9), k);
        let r = st.report();
        assert_eq!(r.completed, 1);
        assert!(r.is_conserved());
        assert_eq!(r.sojourns_us(None), vec![9.0]);
        assert!(r.sojourns_us(Some(7)).is_empty());
    }
}
