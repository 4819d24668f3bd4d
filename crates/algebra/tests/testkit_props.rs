//! Property tests of the algebra substrate, driven by the testkit's
//! domain generators (monomials and GF(32003) polynomials).

use earth_algebra::{
    normal_form, Field, GenPoly, GenTerm, Gf, Monomial, Order, Poly, Rat, Ring, Work, MAX_VARS,
};
use earth_testkit::domain::{monomial, poly_in};
use earth_testkit::prelude::*;
use std::cmp::Ordering;

const NVARS: usize = 4;

fn ring() -> Ring {
    Ring::new(NVARS, Order::GRevLex)
}

props! {
    #![config(Config::with_cases(128))]

    #[test]
    fn monomial_mul_is_commutative_and_degree_additive(
        a in monomial(NVARS, 6),
        b in monomial(NVARS, 6),
    ) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b).degree(), a.degree() + b.degree());
    }

    #[test]
    fn lcm_is_divisible_by_both_factors(
        a in monomial(NVARS, 6),
        b in monomial(NVARS, 6),
    ) {
        let l = a.lcm(&b);
        prop_assert!(a.divides(&l));
        prop_assert!(b.divides(&l));
        // and it is minimal: dividing out either factor leaves a
        // monomial the other still reaches
        prop_assert_eq!(a.mul(&a.div(&l).unwrap()), l.clone());
        prop_assert_eq!(b.mul(&b.div(&l).unwrap()), l);
    }

    #[test]
    fn div_inverts_mul(a in monomial(NVARS, 6), b in monomial(NVARS, 6)) {
        let ab = a.mul(&b);
        prop_assert_eq!(a.div(&ab), Some(b));
        prop_assert_eq!(b.div(&ab), Some(a));
    }

    #[test]
    fn term_order_is_antisymmetric_under_generated_monomials(
        a in monomial(NVARS, 5),
        b in monomial(NVARS, 5),
    ) {
        let r = ring();
        prop_assert_eq!(r.cmp(&a, &b), r.cmp(&b, &a).reverse());
        if r.cmp(&a, &b) == std::cmp::Ordering::Equal {
            prop_assert_eq!(a, b);
        }
    }
}

props! {
    #![config(Config::with_cases(64))]

    #[test]
    fn poly_ring_axioms_hold_for_generated_polys(
        a in poly_in(&ring(), 6, 3),
        b in poly_in(&ring(), 6, 3),
        c in poly_in(&ring(), 6, 3),
    ) {
        let r = ring();
        prop_assert_eq!(a.add(&r, &b), b.add(&r, &a));
        prop_assert_eq!(a.add(&r, &b).add(&r, &c), a.add(&r, &b.add(&r, &c)));
        prop_assert!(a.sub(&r, &a).is_zero());
        prop_assert_eq!(a.add(&r, &b).sub(&r, &b), a.clone());
        // multiplication distributes over addition
        prop_assert_eq!(
            a.mul(&r, &b.add(&r, &c)),
            a.mul(&r, &b).add(&r, &a.mul(&r, &c))
        );
    }

    #[test]
    fn monic_polys_are_fixed_points_of_monic(p in poly_in(&ring(), 6, 3)) {
        if p.is_zero() {
            return Ok(());
        }
        let m = p.monic();
        prop_assert_eq!(m.clone(), m.monic());
        prop_assert_eq!(m.len(), p.len());
    }

    #[test]
    fn generated_monomials_never_exceed_their_variable_window(
        m in monomial(2, 4),
    ) {
        for v in 2..earth_algebra::MAX_VARS {
            prop_assert_eq!(m.e[v], 0, "exponent outside nvars window");
        }
        prop_assert_eq!(m, Monomial::from_exps(&[m.e[0], m.e[1]]));
    }
}

/// The textbook reduction: rebuild the whole remainder on every step.
/// `normal_form` must match it polynomial for polynomial and count for
/// count.
fn reference_normal_form<C: Field>(
    ring: &Ring,
    f: &GenPoly<C>,
    basis: &[GenPoly<C>],
    work: &mut Work,
) -> GenPoly<C> {
    let mut rest = f.clone();
    let mut out: Vec<GenTerm<C>> = Vec::new();
    'outer: while !rest.is_zero() {
        let lt = rest.lead();
        for g in basis {
            if g.is_zero() {
                continue;
            }
            work.mono_ops += 1;
            let gl = g.lead();
            if gl.m.divides(&lt.m) {
                let q = gl.m.div(&lt.m).expect("divides");
                let c = lt.c / gl.c;
                rest = rest.sub(ring, &g.mul_term(ring, c, &q));
                work.coeff_ops += g.len() as u64 + 1;
                work.mono_ops += g.len() as u64;
                work.steps += 1;
                continue 'outer;
            }
        }
        out.push(lt);
        rest = rest.sub(ring, &GenPoly::from_terms(ring, vec![lt]));
        work.coeff_ops += 1;
    }
    GenPoly::from_terms(ring, out)
}

/// Reduce `f` by both kernels and require equal results and equal work.
fn assert_kernels_agree<C: Field>(
    ring: &Ring,
    f: &GenPoly<C>,
    basis: &[GenPoly<C>],
) -> Result<(), String> {
    let (mut fast, mut slow) = (Work::default(), Work::default());
    let got = normal_form(ring, f, basis, &mut fast);
    let want = reference_normal_form(ring, f, basis, &mut slow);
    if got != want || fast != slow {
        return Err(format!(
            "{:?}: normal_form gave {got:?} with {fast:?}, the reference {want:?} with {slow:?}",
            ring.order
        ));
    }
    Ok(())
}

/// Re-sort `p`'s terms under `ring` with coefficients mapped by `coeff`.
fn convert<C: Field>(ring: &Ring, p: &Poly, coeff: impl Fn(u32) -> C) -> GenPoly<C> {
    let terms = p
        .terms()
        .iter()
        .map(|t| GenTerm {
            c: coeff(t.c.value()),
            m: t.m,
        })
        .collect();
    GenPoly::from_terms(ring, terms)
}

props! {
    #![config(Config::with_cases(128))]

    #[test]
    fn geobucket_normal_form_matches_the_reference(
        f in poly_in(&ring(), 10, 4),
        basis in collection::vec(poly_in(&ring(), 4, 2), 0..6),
    ) {
        // Even positions monic, odd ones as drawn: the basis mixes monic,
        // non-monic and zero elements.
        let basis: Vec<Poly> = basis
            .iter()
            .enumerate()
            .map(|(i, g)| if i % 2 == 0 { g.monic() } else { g.clone() })
            .collect();
        for order in [Order::Lex, Order::GrLex, Order::GRevLex] {
            let r = Ring::new(NVARS, order);
            let f = convert(&r, &f, Gf::new);
            let basis: Vec<Poly> = basis.iter().map(|g| convert(&r, g, Gf::new)).collect();
            assert_kernels_agree(&r, &f, &basis)?;
        }
        // The generic path over the rationals, with small coefficients so
        // no intermediate overflows i128.
        let r = Ring::new(NVARS, Order::Lex);
        let small = |v: u32| Rat::new(v as i128 % 7 - 3, v as i128 % 3 + 1);
        let f = convert(&r, &f, small);
        let basis: Vec<GenPoly<Rat>> = basis.iter().map(|g| convert(&r, g, small)).collect();
        assert_kernels_agree(&r, &f, &basis)?;
    }
}

/// The term-order compare as a loop over the first `nvars` lanes, exiting
/// at the first lane that decides. `Order::cmp` must agree with it.
fn reference_cmp(order: Order, a: &Monomial, b: &Monomial, nvars: usize) -> Ordering {
    let lex = || {
        for i in 0..nvars {
            match a.e[i].cmp(&b.e[i]) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    };
    match order {
        Order::Lex => lex(),
        Order::GrLex => a.degree().cmp(&b.degree()).then_with(lex),
        Order::GRevLex => a.degree().cmp(&b.degree()).then_with(|| {
            for i in (0..nvars).rev() {
                match b.e[i].cmp(&a.e[i]) {
                    Ordering::Equal => continue,
                    other => return other,
                }
            }
            Ordering::Equal
        }),
    }
}

/// An exponent from each class the kernels treat differently: zero,
/// small, at or past the divisibility mask's clamp at 8, and the largest.
fn exponent() -> impl Strategy<Value = u16> {
    prop_oneof![Just(0u16), 1u16..8, 8u16..u16::MAX, Just(u16::MAX)]
}

/// An arity from 1 to 8 and two monomials in it. Half the pairs are
/// drawn independently; in the other half `b` is `a` with part of one
/// lane moved to another, so the degrees tie and the graded orders fall
/// through to their lane compare (moving nothing gives equal monomials).
fn monomial_pair() -> impl Strategy<Value = (usize, Monomial, Monomial)> {
    (1..MAX_VARS + 1)
        .prop_flat_map(|n| {
            (
                collection::vec(exponent(), n),
                collection::vec(exponent(), n),
                (0..n, 0..n),
                any::<bool>(),
            )
        })
        .prop_map(|(a, mut b, (from, to), tie)| {
            if tie {
                let moved = b[0].min(a[from]).min(u16::MAX - a[to]);
                b.clone_from(&a);
                b[from] -= moved;
                b[to] += moved;
            }
            (a.len(), Monomial::from_exps(&a), Monomial::from_exps(&b))
        })
}

/// Two monomials over all eight lanes; in half the pairs the first
/// divides the second.
fn mask_pair() -> impl Strategy<Value = (Monomial, Monomial)> {
    (
        collection::vec(exponent(), MAX_VARS),
        collection::vec(exponent(), MAX_VARS),
        any::<bool>(),
    )
        .prop_map(|(a, mut b, divisor)| {
            if divisor {
                for (b, a) in b.iter_mut().zip(&a) {
                    *b = b.saturating_add(*a);
                }
            }
            (Monomial::from_exps(&a), Monomial::from_exps(&b))
        })
}

/// True when `d`'s mask leaves `d` possibly a divisor of `m`.
fn mask_admits(d: &Monomial, m: &Monomial) -> bool {
    d.divmask() & !m.divmask() == 0
}

/// What the mask test decides: divisibility with every exponent clamped
/// at 8.
fn clamped_divides(d: &Monomial, m: &Monomial) -> bool {
    d.e.iter().zip(&m.e).all(|(x, y)| x.min(&8) <= y.min(&8))
}

props! {
    #![config(Config::with_cases(512))]

    #[test]
    fn xor_compare_matches_the_loop_compare(pair in monomial_pair()) {
        let (nvars, a, b) = pair;
        for order in [Order::Lex, Order::GrLex, Order::GRevLex] {
            prop_assert_eq!(
                order.cmp(&a, &b, nvars),
                reference_cmp(order, &a, &b, nvars),
                "{:?} over {} variables", order, nvars
            );
        }
    }

    #[test]
    fn divisibility_mask_never_rejects_a_divisor(pair in mask_pair()) {
        let (a, b) = pair;
        if a.divides(&b) {
            prop_assert!(mask_admits(&a, &b));
        }
        prop_assert_eq!(mask_admits(&a, &b), clamped_divides(&a, &b));
    }
}

#[test]
fn divisibility_mask_never_rejects_a_divisor_at_arity_three() {
    let monos: Vec<Monomial> = (0..1000u16)
        .map(|k| Monomial::from_exps(&[k / 100, k / 10 % 10, k % 10]))
        .collect();
    for a in &monos {
        for b in &monos {
            let admits = mask_admits(a, b);
            assert!(admits || !a.divides(b), "{a:?} divides {b:?}");
            assert_eq!(admits, clamped_divides(a, b), "{a:?} and {b:?}");
        }
    }
}
