//! S-polynomials and normal-form reduction, with operation counting.
//!
//! "Performing the reductions is the algorithm's main job" (§3.2): a
//! critical pair's S-polynomial is repeatedly reduced by subtracting
//! multiples of basis polynomials until no leading term of the basis
//! divides any of its terms. The [`Work`] counters make each reduction's
//! cost observable — runtimes per reduction genuinely "vary by orders of
//! magnitude", which drives both the cost model and the load imbalance
//! the paper's runtime must absorb.
//!
//! The inner loop of a reduction is the *reducer scan*: for the
//! remainder's leading term, find the first nonzero basis element whose
//! leading monomial divides it. Each reducer carries its leading
//! monomial's divisibility mask ([`Monomial::divmask`]), so one AND
//! against the term's mask rejects most non-divisors before the
//! lane-by-lane [`Monomial::divides`]. A divisor always passes the mask,
//! so the scan stops where a plain scan stops, and the `Work` counts,
//! which count scan positions rather than tests made, do not change.

use crate::field::Field;
use crate::monomial::Monomial;
use crate::poly::{merge_terms, GenPoly, GenTerm, Ring};
use std::cmp::Ordering;

/// Exact operation counts of a reduction (the cost-model input).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Field multiplications/additions performed.
    pub coeff_ops: u64,
    /// Monomial comparisons/divisibility tests performed.
    pub mono_ops: u64,
    /// Reduction steps (one basis-polynomial subtraction each).
    pub steps: u64,
}

impl Work {
    /// Accumulate another reduction's counts.
    pub fn add(&mut self, other: Work) {
        self.coeff_ops += other.coeff_ops;
        self.mono_ops += other.mono_ops;
        self.steps += other.steps;
    }
}

/// The S-polynomial of `f` and `g`:
/// `S(f,g) = (lcm/lt(f))·f − (lcm/lt(g))·g` with coefficients arranged to
/// cancel the leading terms.
pub fn s_polynomial<C: Field>(
    ring: &Ring,
    f: &GenPoly<C>,
    g: &GenPoly<C>,
    work: &mut Work,
) -> GenPoly<C> {
    let (ltf, ltg) = (f.lead(), g.lead());
    let lcm = ltf.m.lcm(&ltg.m);
    let mf = ltf.m.div(&lcm).expect("lt(f) divides lcm");
    let mg = ltg.m.div(&lcm).expect("lt(g) divides lcm");
    // Scale both sides to leading coefficient 1 so they cancel.
    let a = f.mul_term(ring, ltf.c.inv(), &mf);
    let b = g.mul_term(ring, ltg.c.inv(), &mg);
    work.coeff_ops += (f.len() + g.len()) as u64;
    work.mono_ops += (f.len() + g.len()) as u64;
    a.sub(ring, &b)
}

/// Fully reduce `f` modulo `basis`: returns the normal form, in which no
/// term is divisible by any basis leading monomial. The result is zero
/// iff `f` lies in the ideal generated by `basis`... for a Gröbner basis;
/// for an intermediate basis, zero still certifies membership (one-sided).
///
/// Each step takes the remainder's leading term and the *first* nonzero
/// basis element whose leading monomial divides it, and subtracts the
/// matching multiple; an irreducible leading term moves to the output
/// (full tail reduction). The [`Work`] counts depend only on that step
/// sequence. The remainder lives in geometric buckets, so a step costs
/// about the reducer's length rather than the remainder's.
pub fn normal_form<C: Field>(
    ring: &Ring,
    f: &GenPoly<C>,
    basis: &[GenPoly<C>],
    work: &mut Work,
) -> GenPoly<C> {
    let reducers = reducers(basis);
    let mut rest = GeoBuckets::new(ring);
    let mut terms: Vec<GenTerm<C>> = f.terms().iter().rev().copied().collect();
    rest.add(&mut terms);
    let mut out: Vec<GenTerm<C>> = Vec::new();
    while let Some(lt) = rest.pop_lead() {
        let Some(k) = first_divisor(&reducers, &lt.m, work) else {
            out.push(lt);
            work.coeff_ops += 1;
            continue;
        };
        // rest -= (lt / lt(g)) · g; the leading terms cancel exactly, so
        // only −c·q·tail(g) is added.
        let g = reducers[k].2;
        let gl = g.lead();
        let q = gl.m.div(&lt.m).expect("divides");
        let c = if gl.c == C::one() { lt.c } else { lt.c / gl.c };
        let neg = -c;
        terms.extend(g.terms()[1..].iter().rev().map(|t| GenTerm {
            c: t.c * neg,
            m: t.m.mul(&q),
        }));
        rest.add(&mut terms);
        work.coeff_ops += g.len() as u64 + 1;
        work.mono_ops += g.len() as u64;
        work.steps += 1;
    }
    GenPoly::from_terms(ring, out)
}

/// The nonzero elements of `basis`, in basis order, each with its leading
/// monomial and that monomial's divisibility mask.
fn reducers<C: Field>(basis: &[GenPoly<C>]) -> Vec<(u64, Monomial, &GenPoly<C>)> {
    basis
        .iter()
        .filter(|g| !g.is_zero())
        .map(|g| (g.lead().m.divmask(), g.lead().m, g))
        .collect()
}

/// The position of the first reducer whose leading monomial divides `m`,
/// counting one monomial op per position scanned (all of them when none
/// divides).
fn first_divisor<C>(
    reducers: &[(u64, Monomial, &GenPoly<C>)],
    m: &Monomial,
    work: &mut Work,
) -> Option<usize> {
    let mask = m.divmask();
    let k = reducers
        .iter()
        .position(|(gmask, gm, _)| gmask & !mask == 0 && gm.divides(m));
    work.mono_ops += k.map_or(reducers.len(), |k| k + 1) as u64;
    k
}

/// A polynomial held as geometric buckets (Yan, "The geobucket data
/// structure for polynomials", J. Symbolic Computation, 1998). The
/// polynomial is the sum of the buckets; bucket `k` holds at most
/// `4^(k+1)` terms, sorted smallest first so its largest term pops off
/// the end. Adding `n` terms merges them into a bucket of about `n`
/// terms, carrying into the next bucket when it overflows, so a
/// reduction step never rebuilds the whole remainder. Different buckets
/// may hold the same monomial; [`GeoBuckets::pop_lead`] combines them.
struct GeoBuckets<'r, C> {
    ring: &'r Ring,
    buckets: Vec<Vec<GenTerm<C>>>,
    /// Merge output, swapped with the bucket it replaces.
    scratch: Vec<GenTerm<C>>,
}

impl<'r, C: Field> GeoBuckets<'r, C> {
    fn new(ring: &'r Ring) -> Self {
        GeoBuckets {
            ring,
            buckets: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Most terms bucket `k` may hold: `4^(k+1)`.
    fn capacity(k: usize) -> usize {
        4 << (2 * k)
    }

    /// Add `terms` — sorted smallest first, no zero coefficients, no
    /// repeated monomial — to the sum. Leaves `terms` empty, keeping its
    /// allocation.
    fn add(&mut self, terms: &mut Vec<GenTerm<C>>) {
        if terms.is_empty() {
            return;
        }
        let mut k = 0;
        while terms.len() > Self::capacity(k) {
            k += 1;
        }
        loop {
            if k >= self.buckets.len() {
                self.buckets.resize_with(k + 1, Vec::new);
            }
            let bucket = &mut self.buckets[k];
            if bucket.is_empty() {
                std::mem::swap(bucket, terms);
            } else {
                let ring = self.ring;
                merge_terms(bucket, terms, &mut self.scratch, |a, b| ring.cmp(a, b));
                std::mem::swap(bucket, &mut self.scratch);
                terms.clear();
            }
            if bucket.len() <= Self::capacity(k) {
                return;
            }
            // Overflow: carry the whole bucket into the next one.
            std::mem::swap(bucket, terms);
            k += 1;
        }
    }

    /// Remove and return the leading term of the sum, or `None` when it
    /// is zero.
    fn pop_lead(&mut self) -> Option<GenTerm<C>> {
        loop {
            let mut best: Option<(usize, Monomial)> = None;
            for (k, bucket) in self.buckets.iter().enumerate() {
                if let Some(t) = bucket.last() {
                    if best.is_none_or(|(_, m)| self.ring.cmp(&t.m, &m) == Ordering::Greater) {
                        best = Some((k, t.m));
                    }
                }
            }
            let (first, m) = best?;
            let mut c = self.buckets[first].pop().expect("nonempty").c;
            for bucket in &mut self.buckets[first + 1..] {
                if bucket.last().is_some_and(|t| t.m == m) {
                    c = c + bucket.pop().expect("nonempty").c;
                }
            }
            if !c.is_zero() {
                return Some(GenTerm { c, m });
            }
        }
    }
}

/// Head-reduce only: stop as soon as the leading term is irreducible.
/// This is the cheap test used when deciding whether a candidate is
/// already a linear combination "at the top".
pub fn head_reducible<C: Field>(f: &GenPoly<C>, basis: &[GenPoly<C>], work: &mut Work) -> bool {
    !f.is_zero() && first_divisor(&reducers(basis), &f.lead().m, work).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Order;
    use crate::poly::Poly;

    fn ring() -> Ring {
        Ring::new(2, Order::GrLex)
    }

    #[test]
    fn spoly_cancels_leading_terms() {
        let r = ring();
        // f = x^2 + y, g = xy + 1  (grlex)
        let f = Poly::from_pairs(&r, &[(1, &[2, 0]), (1, &[0, 1])]);
        let g = Poly::from_pairs(&r, &[(1, &[1, 1]), (1, &[0, 0])]);
        let mut w = Work::default();
        let s = s_polynomial(&r, &f, &g, &mut w);
        // lcm = x^2 y; S = y·f − x·g = y^2 − x
        let expect = Poly::from_pairs(&r, &[(1, &[0, 2]), (-1, &[1, 0])]);
        assert_eq!(s, expect);
        assert!(w.coeff_ops > 0);
    }

    #[test]
    fn normal_form_is_irreducible_and_congruent() {
        let r = ring();
        let g1 = Poly::from_pairs(&r, &[(1, &[2, 0]), (1, &[0, 1])]); // x^2 + y
        let g2 = Poly::from_pairs(&r, &[(1, &[0, 2]), (1, &[0, 0])]); // y^2 + 1
        let basis = [g1.clone(), g2.clone()];
        // f = x^2 y^2  reduces: -> -y·y^2 = -y^3 -> y·1 ... trace by hand:
        let f = Poly::from_pairs(&r, &[(1, &[2, 2])]);
        let mut w = Work::default();
        let nf = normal_form(&r, &f, &basis, &mut w);
        // No term of nf is divisible by x^2 or y^2:
        for t in nf.terms() {
            assert!(!g1.lead().m.divides(&t.m));
            assert!(!g2.lead().m.divides(&t.m));
        }
        // congruence: f - nf must reduce to zero as an explicit combination:
        // verify by reducing (f - nf) again — must be 0 because every
        // reduction step subtracted a multiple of a basis element.
        let diff = f.sub(&r, &nf);
        let nf2 = normal_form(&r, &diff, &basis, &mut w);
        assert!(nf2.is_zero(), "f - nf(f) must be in the ideal: {nf2:?}");
        assert!(w.steps >= 2);
    }

    #[test]
    fn member_of_basis_reduces_to_zero() {
        let r = ring();
        let g = Poly::from_pairs(&r, &[(3, &[1, 1]), (2, &[0, 1]), (5, &[0, 0])]);
        let mut w = Work::default();
        let product = g.mul(&r, &Poly::from_pairs(&r, &[(7, &[2, 0]), (1, &[0, 0])]));
        let nf = normal_form(&r, &product, std::slice::from_ref(&g), &mut w);
        assert!(nf.is_zero());
    }

    #[test]
    fn zero_reduces_to_zero_for_free() {
        let r = ring();
        let mut w = Work::default();
        let nf = normal_form(&r, &Poly::zero(), &[], &mut w);
        assert!(nf.is_zero());
        assert_eq!(w.steps, 0);
    }

    #[test]
    fn head_reducibility() {
        let r = ring();
        let g = Poly::from_pairs(&r, &[(1, &[1, 0])]); // x
        let f1 = Poly::from_pairs(&r, &[(1, &[2, 1])]); // x^2 y : reducible
        let f2 = Poly::from_pairs(&r, &[(1, &[0, 3])]); // y^3 : not
        let mut w = Work::default();
        assert!(head_reducible(&f1, std::slice::from_ref(&g), &mut w));
        assert!(!head_reducible(&f2, std::slice::from_ref(&g), &mut w));
        assert!(!head_reducible(&Poly::zero(), &[g], &mut w));
    }

    #[test]
    fn work_accumulates() {
        let mut a = Work {
            coeff_ops: 1,
            mono_ops: 2,
            steps: 3,
        };
        a.add(Work {
            coeff_ops: 10,
            mono_ops: 20,
            steps: 30,
        });
        assert_eq!(
            a,
            Work {
                coeff_ops: 11,
                mono_ops: 22,
                steps: 33
            }
        );
    }
}
