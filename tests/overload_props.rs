//! Property tests for the overload-control plane: replay determinism,
//! terminal-outcome conservation, and the two "disabled == absent"
//! guarantees (a default policy is the legacy code path; deadlines
//! without shedding are pure bookkeeping), over randomized plans from
//! the testkit's `overload_plan` generator.

use earth_manna::traffic::{run_traffic, JobOutcome};
use earth_testkit::domain::{overload_plan, traffic_plan};
use earth_testkit::prelude::*;

props! {
    #![config(Config::with_cases(12))]

    /// Same overload plan + same runtime seed → byte-identical traffic
    /// report, retries, breaker trips and all.
    #[test]
    fn overload_replay_is_byte_identical(
        plan in overload_plan(12),
        nodes in 1u16..9,
        seed in any::<u64>(),
    ) {
        let a = run_traffic(&plan, nodes, seed);
        let b = run_traffic(&plan, nodes, seed);
        prop_assert_eq!(a.report.traffic.as_ref(), b.report.traffic.as_ref());
        prop_assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    }

    /// At drain, every arrival reaches a terminal outcome, the record
    /// recount agrees with the counters, and each outcome is internally
    /// consistent: completions carry both instants, refusals neither,
    /// and refused jobs consumed no service.
    #[test]
    fn overload_accounting_is_terminal_at_drain(
        plan in overload_plan(12),
        nodes in 1u16..9,
        seed in any::<u64>(),
    ) {
        let run = run_traffic(&plan, nodes, seed);
        let t = run.report.traffic.as_ref().expect("non-trivial plan");
        prop_assert!(t.is_conserved());
        prop_assert_eq!(t.arrived, plan.jobs as u64);
        prop_assert_eq!(t.completed + t.rejected + t.expired, t.arrived);
        prop_assert_eq!(t.in_flight(), 0);
        prop_assert_eq!(t.queued(), 0);
        prop_assert!(run.report.traffic_drained());
        let budget = plan.retry.map_or(0, |r| r.budget);
        for j in &t.jobs {
            prop_assert!(j.outcome != JobOutcome::Pending, "non-terminal at drain");
            prop_assert!(j.retries as u64 <= budget as u64, "budget overrun");
            match j.outcome {
                JobOutcome::Completed => {
                    let admit = j.admit.expect("admitted");
                    let complete = j.complete.expect("completed");
                    prop_assert!(j.arrive <= admit && admit <= complete);
                }
                _ => {
                    prop_assert!(j.admit.is_none(), "refused jobs are never admitted");
                    prop_assert!(j.complete.is_none());
                    prop_assert!(j.service().is_none(), "refusals consume no service");
                }
            }
        }
        // The SLO view over everything re-derives the same split.
        let slo = t.slo(None, None);
        prop_assert_eq!(slo.jobs, plan.jobs as u64);
        prop_assert_eq!(slo.completed, t.completed);
        prop_assert_eq!(slo.rejected, t.rejected);
        prop_assert_eq!(slo.expired, t.expired);
        prop_assert_eq!(slo.retries, t.retries);
        prop_assert!(slo.attained <= slo.completed);
        // Per-class and per-tenant slices partition the whole.
        let by_class: u64 = t.slo_by_class().iter().map(|(_, s)| s.jobs).sum();
        let by_tenant: u64 = t.slo_by_tenant().iter().map(|(_, s)| s.jobs).sum();
        prop_assert_eq!(by_class, slo.jobs);
        prop_assert_eq!(by_tenant, slo.jobs);
    }

    /// "Disabled == absent", knob edition: a knob-free plan runs the
    /// legacy install path, and adding deadlines *without* shedding is
    /// pure bookkeeping — every lifecycle instant stays identical, the
    /// run report renders identically, and no overload counter moves.
    #[test]
    fn deadlines_without_shedding_are_pure_bookkeeping(
        plan in traffic_plan(12),
        nodes in 1u16..9,
        seed in any::<u64>(),
    ) {
        let bare = run_traffic(&plan, nodes, seed);
        let annotated = run_traffic(&plan.clone().with_deadlines(200, 900), nodes, seed);
        let tb = bare.report.traffic.as_ref().expect("non-trivial");
        let ta = annotated.report.traffic.as_ref().expect("non-trivial");
        prop_assert!(!ta.had_overload(), "bookkeeping must not act");
        prop_assert_eq!(format!("{}", bare.report), format!("{}", annotated.report));
        prop_assert_eq!(tb.jobs.len(), ta.jobs.len());
        for (jb, ja) in tb.jobs.iter().zip(&ta.jobs) {
            prop_assert_eq!(jb.arrive, ja.arrive);
            prop_assert_eq!(jb.admit, ja.admit);
            prop_assert_eq!(jb.complete, ja.complete);
            prop_assert_eq!(jb.outcome, ja.outcome);
            prop_assert!(ja.deadline.is_some(), "the annotation must exist");
        }
    }
}
