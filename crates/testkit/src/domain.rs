//! Domain generators for the workspace's own data types: monomials and
//! polynomials over GF(32003), symmetric tridiagonal matrices,
//! simulation event schedules, and fault-injection plans.

use crate::strategy::{collection, Strategy};
use earth_algebra::gf::Gf;
use earth_algebra::monomial::Monomial;
use earth_algebra::poly::{Poly, Ring, Term};
use earth_faults::FaultPlan;
use earth_linalg::SymTridiagonal;
use earth_sim::{VirtualDuration, VirtualTime};
use earth_traffic::TrafficPlan;
use std::ops::Range;

/// A monomial in `nvars` variables with exponents in `[0, max_exp]`.
pub fn monomial(nvars: usize, max_exp: u16) -> impl Strategy<Value = Monomial> {
    collection::vec(0..max_exp + 1, nvars).prop_map(|exps| Monomial::from_exps(&exps))
}

/// A normalized polynomial in `ring` with up to `max_terms` raw terms
/// (like terms combine, so the result can be shorter, down to zero)
/// and exponents in `[0, max_exp]`.
pub fn poly_in(ring: &Ring, max_terms: usize, max_exp: u16) -> impl Strategy<Value = Poly> {
    let ring = ring.clone();
    let nvars = ring.nvars;
    collection::vec(
        (1u32..32003, collection::vec(0..max_exp + 1, nvars)),
        0..max_terms + 1,
    )
    .prop_map(move |raw| {
        let terms: Vec<Term> = raw
            .into_iter()
            .map(|(c, exps)| Term {
                c: Gf::new(c),
                m: Monomial::from_exps(&exps),
            })
            .collect();
        Poly::from_terms(&ring, terms)
    })
}

/// A symmetric tridiagonal matrix with dimension drawn from `n`
/// (must start at 1 or more), diagonal entries from `diag` and
/// off-diagonal entries from `off`.
pub fn sym_tridiagonal(
    n: Range<usize>,
    diag: Range<f64>,
    off: Range<f64>,
) -> impl Strategy<Value = SymTridiagonal> {
    assert!(n.start >= 1, "matrix dimension must be at least 1");
    n.prop_flat_map(move |dim| {
        (
            collection::vec(diag.clone(), dim),
            collection::vec(off.clone(), dim - 1),
        )
            .prop_map(|(d, e)| SymTridiagonal::new(d, e))
    })
}

/// A simulation event schedule: `(time, id)` pairs with times in
/// `[0, horizon_ns)` and ids equal to the push order — the shape the
/// event-queue properties consume.
pub fn event_schedule(
    len: impl Into<collection::SizeRange>,
    horizon_ns: u64,
) -> impl Strategy<Value = Vec<(VirtualTime, usize)>> {
    collection::vec(0..horizon_ns, len).prop_map(|times| {
        times
            .into_iter()
            .enumerate()
            .map(|(id, t)| (VirtualTime::from_ns(t), id))
            .collect()
    })
}

/// A bounded-loss fault-injection plan: drop / duplicate / reorder
/// probabilities drawn up to the given caps (both must be in `(0, 1)`;
/// keep them well under ~0.3 so reliability properties converge in a
/// few round trips; reorder stays under 0.1, so generated plans also
/// exercise the delay path) and an RTO of 100–400 µs.
pub fn fault_plan(max_drop: f64, max_dup: f64) -> impl Strategy<Value = FaultPlan> {
    assert!(
        max_drop > 0.0 && max_drop < 1.0 && max_dup > 0.0 && max_dup < 1.0,
        "probability caps must be in (0, 1)"
    );
    (0.0..max_drop, 0.0..max_dup, 0.0..0.1f64, 100u64..400).prop_map(
        |(drop, dup, reorder, rto_us)| {
            FaultPlan::new()
                .with_drop(drop)
                .with_duplicate(dup)
                .with_reorder(reorder)
                .with_rto(VirtualDuration::from_us(rto_us))
        },
    )
}

/// A crash plan: one node in `[0, nodes)` crash-stops at an instant
/// drawn from `down_us` (microseconds), and — half the time — restarts
/// a bounded delay later (otherwise the failure detector drives the
/// failover restart). `nodes` must be at least 2 so detection and
/// re-homing always have a survivor.
pub fn crash_plan(nodes: u16, down_us: Range<u64>) -> impl Strategy<Value = FaultPlan> {
    assert!(nodes >= 2, "crash plans need a survivor");
    (
        0u64..u64::from(nodes),
        down_us,
        crate::strategy::any::<bool>(),
        500u64..3_000,
    )
        .prop_map(|(node, down_us, restart, up_delay_us)| {
            let node = node as u16;
            let down = VirtualTime::from_ns(down_us * 1_000);
            if restart {
                let up = down + VirtualDuration::from_us(up_delay_us);
                FaultPlan::new().with_crash_restart(node, down, up)
            } else {
                FaultPlan::new().with_node_crash(node, down)
            }
        })
}

/// An installable traffic plan: up to `max_jobs` jobs at 500–8000
/// offered jobs/s, a random non-degenerate class mix, 1–4 tenants and
/// concurrency 1–8. Sizes come from the plan's fixed 4–64
/// bounded-Pareto band, so generated streams drain fast enough for
/// property runs.
pub fn traffic_plan(max_jobs: u32) -> impl Strategy<Value = TrafficPlan> {
    assert!(
        max_jobs >= 1,
        "a plan generator that only makes trivial plans is useless"
    );
    (
        crate::strategy::any::<u64>(),
        1u32..max_jobs + 1,
        500u64..8_000,
        collection::vec(0u32..4, 4),
        1u64..5,
        1u32..9,
    )
        .prop_map(|(seed, jobs, load, weights, tenants, conc)| {
            let mut w = [weights[0], weights[1], weights[2], weights[3]];
            if w.iter().all(|&x| x == 0) {
                w = [1, 1, 1, 1];
            }
            TrafficPlan::new(seed)
                .with_jobs(jobs)
                .with_offered_load(load as f64)
                .with_weights(w)
                .with_tenants(tenants as u16)
                .with_concurrency(conc)
        })
}

/// An overload-exercising traffic plan: [`traffic_plan`]-shaped streams
/// pushed past the queueing knee, with deadlines (200 µs – a few ms),
/// a tight bounded queue, and a random subset of the overload knobs
/// (shedding, bounded retries, breaker). Every generated plan
/// `can_refuse()`, so suites over it assert terminal accounting
/// (completed + rejected + expired == arrived), not full completion.
pub fn overload_plan(max_jobs: u32) -> impl Strategy<Value = TrafficPlan> {
    assert!(
        max_jobs >= 1,
        "a plan generator that only makes trivial plans is useless"
    );
    (
        crate::strategy::any::<u64>(),
        1u32..max_jobs + 1,
        2_000u64..20_000,
        (200u64..2_000, 1u64..5, crate::strategy::any::<bool>()),
        1u32..7,
        (0u32..4, 50u64..200, crate::strategy::any::<bool>()),
    )
        .prop_map(
            |(seed, jobs, load, (dl_lo, dl_mul, shed), cap, (budget, base, brk))| {
                let mut plan = TrafficPlan::new(seed)
                    .with_jobs(jobs)
                    .with_offered_load(load as f64)
                    .with_tenants(3)
                    .with_concurrency(4)
                    .with_deadlines(dl_lo, dl_lo * dl_mul)
                    .with_queue_cap(cap);
                if shed {
                    plan = plan.with_deadline_shedding();
                }
                if budget > 0 {
                    plan = plan.with_retries(budget, base, base * 8);
                }
                if brk {
                    plan = plan.with_breaker(8, 4, 500);
                }
                plan
            },
        )
}

/// A gray-failure plan: 1–2 fail-slow node windows (factors 1.5–8×)
/// on nodes in `[0, nodes)`, plus — half the time — the straggler
/// defenses (detector + hedging + quarantine + speculative re-homing,
/// always armed together so generated defenses are never half-wired).
/// Windows open early and run long, like the sweep's, so detection has
/// samples to chew on however short the run.
pub fn slow_plan(nodes: u16) -> impl Strategy<Value = FaultPlan> {
    assert!(nodes >= 2, "slow plans need a healthy majority");
    (
        collection::vec((0u64..u64::from(nodes), 15u64..80), 1..3),
        crate::strategy::any::<bool>(),
        (15u64..40, 20u64..80, 2u64..12),
    )
        .prop_map(move |(slowdowns, defend, knobs)| {
            let start = VirtualTime::from_ns(50_000);
            let end = VirtualTime::from_ns(1_000_000_000);
            let mut plan = FaultPlan::new();
            for (node, tenths) in slowdowns {
                plan = plan.with_node_slowdown(node as u16, start, end, tenths as f64 / 10.0);
            }
            if defend {
                let (thresh_tenths, quar_hundreds_us, hedge_halves) = knobs;
                plan = plan
                    .with_slow_detector(thresh_tenths as f64 / 10.0, 3)
                    .with_hedging(hedge_halves as f64 / 2.0)
                    .with_quarantine(VirtualDuration::from_us(quar_hundreds_us * 100))
                    .with_speculative_rehoming();
            }
            plan
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Source;
    use earth_algebra::monomial::Order;

    fn gen<S: Strategy>(s: &S, seed: u64) -> S::Value {
        s.generate(&mut Source::live(seed)).expect("generated")
    }

    #[test]
    fn monomials_respect_bounds() {
        let s = monomial(4, 3);
        for seed in 0..100 {
            let m = gen(&s, seed);
            for v in 0..4 {
                assert!(m.e[v] <= 3);
            }
            assert!(m.e[4..].iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn polys_are_normalized_in_their_ring() {
        let ring = Ring::new(3, Order::GRevLex);
        let s = poly_in(&ring, 6, 3);
        for seed in 0..100 {
            let p = gen(&s, seed);
            if !p.is_zero() {
                assert_ne!(p.lead().c, Gf::new(0), "lead coefficient must be nonzero");
            }
        }
    }

    #[test]
    fn tridiagonal_dimensions_match_request() {
        let s = sym_tridiagonal(2..9, -5.0..5.0, -1.0..1.0);
        for seed in 0..100 {
            let m = gen(&s, seed);
            assert!((2..9).contains(&m.n()));
        }
    }

    #[test]
    fn fault_plans_are_bounded_and_never_trivial_free() {
        let s = fault_plan(0.15, 0.1);
        for seed in 0..100 {
            let p = gen(&s, seed);
            // generated plans must be installable as-is (validate() is
            // what MachineConfig::with_faults runs on installation)
            assert!(!p.is_trivial() || p.default_probs == earth_faults::LinkProbs::NONE);
            assert!(p.default_probs.drop < 0.15);
            assert!(p.default_probs.duplicate < 0.1);
        }
    }

    #[test]
    fn crash_plans_always_arm_one_valid_window() {
        let s = crash_plan(8, 100..5_000);
        let (mut restarts, mut failovers) = (0, 0);
        for seed in 0..100 {
            let p = gen(&s, seed);
            assert!(p.has_crashes());
            assert!(!p.is_trivial(), "a crash plan is never trivial");
            assert_eq!(p.crashes.len(), 1);
            let c = &p.crashes[0];
            assert!(c.node < 8);
            match c.up {
                Some(up) => {
                    assert!(up > c.down);
                    restarts += 1;
                }
                None => failovers += 1,
            }
        }
        assert!(restarts > 20 && failovers > 20, "both kinds must occur");
    }

    #[test]
    fn traffic_plans_are_installable_and_never_trivial() {
        let s = traffic_plan(24);
        for seed in 0..100 {
            let p = gen(&s, seed);
            assert!(!p.is_trivial());
            assert!((1..=24).contains(&p.jobs));
            assert!(p.weights.iter().any(|&w| w > 0), "degenerate mix: {p:?}");
            assert!(p.concurrency >= 1 && p.tenants >= 1);
            assert!(p.offered_load > 0.0);
        }
    }

    #[test]
    fn overload_plans_always_refuse_and_vary_their_knobs() {
        let s = overload_plan(16);
        let (mut shed, mut retry, mut brk) = (0, 0, 0);
        for seed in 0..100 {
            let p = gen(&s, seed);
            assert!(!p.is_trivial());
            assert!(p.can_refuse(), "every overload plan must be able to: {p:?}");
            let (lo, hi) = p.deadline_us.expect("deadlines always drawn");
            assert!(lo >= 200 && hi >= lo);
            assert!(p.queue_cap.is_some());
            if p.deadline_shedding {
                shed += 1;
            }
            if let Some(r) = p.retry {
                assert!(r.budget >= 1 && !r.base.is_zero() && r.cap >= r.base);
                retry += 1;
            }
            if p.breaker.is_some() {
                brk += 1;
            }
        }
        assert!(shed > 20 && shed < 80, "shedding must vary: {shed}");
        assert!(retry > 20, "retries must occur: {retry}");
        assert!(brk > 20 && brk < 80, "breaker must vary: {brk}");
    }

    #[test]
    fn slow_plans_vary_every_gray_failure_axis() {
        let s = slow_plan(8);
        let (mut defended, mut multi) = (0, 0);
        for seed in 0..100 {
            let p = gen(&s, seed);
            assert!(!p.is_trivial(), "a slow plan always injects something");
            assert!(!p.slowdowns.is_empty(), "at least one fail-slow window");
            for w in &p.slowdowns {
                assert!(w.node < 8);
                assert!((1.5..=8.0).contains(&w.factor), "{}", w.factor);
                assert!(w.end > w.start);
            }
            if p.slowdowns.len() > 1 {
                multi += 1;
            }
            // Defenses arm as a block: a detector without quarantine (or
            // vice versa) would be a half-wired plan no sweep ships.
            assert_eq!(p.slow_detector.is_some(), p.hedge.is_some());
            assert_eq!(p.slow_detector.is_some(), p.quarantine.is_some());
            assert_eq!(p.slow_detector.is_some(), p.speculative_rehoming);
            if p.slow_detector.is_some() {
                defended += 1;
            }
        }
        assert!(multi > 20 && multi < 80, "window count must vary: {multi}");
        assert!(
            defended > 20 && defended < 80,
            "defenses must vary: {defended}"
        );
    }

    #[test]
    fn event_schedules_are_bounded_and_ordered_by_id() {
        let s = event_schedule(1..50, 1_000);
        for seed in 0..50 {
            let evs = gen(&s, seed);
            for (i, (t, id)) in evs.iter().enumerate() {
                assert_eq!(*id, i);
                assert!(*t < VirtualTime::from_ns(1_000));
            }
        }
    }
}
