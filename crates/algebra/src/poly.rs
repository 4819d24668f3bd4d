//! Sparse multivariate polynomials in sorted term form.
//!
//! Terms are kept strictly sorted, largest monomial first, under the
//! ring's order, with no zero coefficients and no duplicate monomials —
//! the "compacted form as vectors" the paper's implementation block-moves
//! between nodes.

use crate::field::Field;
use crate::gf::Gf;
use crate::monomial::{Monomial, Order};
use std::cmp::Ordering;
use std::fmt;

/// One term: coefficient times monomial, over any coefficient field.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GenTerm<C> {
    /// The coefficient (never zero in a normalized polynomial).
    pub c: C,
    /// The power product.
    pub m: Monomial,
}

/// The benchmark coefficient field's term (GF(32003)).
pub type Term = GenTerm<Gf>;

/// The ambient polynomial ring: arity, term order, display names.
#[derive(Clone, Debug)]
pub struct Ring {
    /// Number of variables.
    pub nvars: usize,
    /// Term order.
    pub order: Order,
    /// Variable names for display.
    pub names: Vec<String>,
}

impl Ring {
    /// A ring with `nvars` variables under `order`, named x0, x1, ….
    pub fn new(nvars: usize, order: Order) -> Ring {
        assert!((1..=crate::monomial::MAX_VARS).contains(&nvars));
        Ring {
            nvars,
            order,
            names: (0..nvars).map(|i| format!("x{i}")).collect(),
        }
    }

    /// Same ring with custom variable names.
    pub fn with_names(mut self, names: &[&str]) -> Ring {
        assert_eq!(names.len(), self.nvars);
        self.names = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Compare monomials in this ring's order.
    pub fn cmp(&self, a: &Monomial, b: &Monomial) -> Ordering {
        self.order.cmp(a, b, self.nvars)
    }
}

/// A polynomial over any coefficient field: sorted, normalized term
/// vector.
#[derive(Clone, PartialEq)]
pub struct GenPoly<C> {
    terms: Vec<GenTerm<C>>,
}

/// The benchmark polynomial type (GF(32003) coefficients).
pub type Poly = GenPoly<Gf>;

impl<C> Default for GenPoly<C> {
    fn default() -> Self {
        GenPoly { terms: Vec::new() }
    }
}

impl<C: Field> GenPoly<C> {
    /// The zero polynomial.
    pub fn zero() -> Self {
        GenPoly { terms: Vec::new() }
    }

    /// The constant one.
    pub fn one() -> Self {
        GenPoly {
            terms: vec![GenTerm {
                c: C::one(),
                m: Monomial::ONE,
            }],
        }
    }

    /// Build from arbitrary (unsorted, possibly duplicated) terms,
    /// normalizing under `ring`'s order. Panics if a term has a nonzero
    /// exponent at or past the ring's arity, which the term order's
    /// compare relies on never happening.
    pub fn from_terms(ring: &Ring, mut terms: Vec<GenTerm<C>>) -> Self {
        assert!(
            terms
                .iter()
                .all(|t| t.m.e[ring.nvars..].iter().all(|&x| x == 0)),
            "term has an exponent past the ring's arity {}",
            ring.nvars
        );
        terms.sort_by(|a, b| ring.cmp(&b.m, &a.m));
        let mut out: Vec<GenTerm<C>> = Vec::with_capacity(terms.len());
        for t in terms {
            match out.last_mut() {
                Some(last) if last.m == t.m => last.c = last.c + t.c,
                _ => out.push(t),
            }
            if let Some(last) = out.last() {
                if last.c.is_zero() {
                    out.pop();
                }
            }
        }
        GenPoly { terms: out }
    }

    /// Convenience constructor from `(coefficient, exponents)` pairs.
    pub fn from_pairs(ring: &Ring, pairs: &[(i64, &[u16])]) -> Self {
        GenPoly::from_terms(
            ring,
            pairs
                .iter()
                .map(|&(c, e)| GenTerm {
                    c: C::from_i64(c),
                    m: Monomial::from_exps(e),
                })
                .collect(),
        )
    }

    /// True for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when there are no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The terms, largest first.
    pub fn terms(&self) -> &[GenTerm<C>] {
        &self.terms
    }

    /// Leading term. Panics on zero.
    pub fn lead(&self) -> GenTerm<C> {
        *self.terms.first().expect("leading term of zero polynomial")
    }

    /// Total degree (max over terms); zero polynomial has degree 0.
    pub fn degree(&self) -> u32 {
        self.terms.iter().map(|t| t.m.degree()).max().unwrap_or(0)
    }

    /// `self + other` under `ring`'s order (merge of sorted term lists).
    pub fn add(&self, ring: &Ring, other: &Self) -> Self {
        let mut out = Vec::new();
        merge_terms(&self.terms, &other.terms, &mut out, |a, b| ring.cmp(b, a));
        GenPoly { terms: out }
    }

    /// `self - other`.
    pub fn sub(&self, ring: &Ring, other: &Self) -> Self {
        self.add(ring, &other.neg())
    }

    /// `-self`.
    pub fn neg(&self) -> Self {
        GenPoly {
            terms: self
                .terms
                .iter()
                .map(|t| GenTerm { c: -t.c, m: t.m })
                .collect(),
        }
    }

    /// `self · (c · m)` — multiply by a single term. Term order is
    /// preserved by multiplicativity, so no re-sort is needed.
    pub fn mul_term(&self, c: C, m: &Monomial) -> Self {
        if c.is_zero() {
            return GenPoly::zero();
        }
        GenPoly {
            terms: self
                .terms
                .iter()
                .map(|t| GenTerm {
                    c: t.c * c,
                    m: t.m.mul(m),
                })
                .collect(),
        }
    }

    /// Full product.
    pub fn mul(&self, ring: &Ring, other: &Self) -> Self {
        let mut acc = GenPoly::zero();
        for t in &other.terms {
            acc = acc.add(ring, &self.mul_term(t.c, &t.m));
        }
        acc
    }

    /// Scale so the leading coefficient is 1 (no-op on zero).
    pub fn monic(&self) -> Self {
        if self.is_zero() {
            return self.clone();
        }
        let inv = self.lead().c.inv();
        GenPoly {
            terms: self
                .terms
                .iter()
                .map(|t| GenTerm {
                    c: t.c * inv,
                    m: t.m,
                })
                .collect(),
        }
    }

    /// Render with the ring's variable names.
    pub fn display(&self, ring: &Ring) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (k, t) in self.terms.iter().enumerate() {
            if k > 0 {
                s.push_str(" + ");
            }
            if t.m.is_one() {
                s.push_str(&t.c.to_string());
                continue;
            }
            if t.c != C::one() {
                s.push_str(&format!("{}*", t.c));
            }
            let mut first = true;
            for (i, &e) in t.m.e.iter().enumerate().take(ring.nvars) {
                if e > 0 {
                    if !first {
                        s.push('*');
                    }
                    first = false;
                    s.push_str(&ring.names[i]);
                    if e > 1 {
                        s.push_str(&format!("^{e}"));
                    }
                }
            }
        }
        s
    }
}

/// Merge term lists `a` and `b`, each sorted so that `first(x, y) ==
/// Less` puts `x` before `y`, into `out` in the same order: coefficients
/// of equal monomials add, and terms that cancel drop out.
pub(crate) fn merge_terms<C: Field>(
    a: &[GenTerm<C>],
    b: &[GenTerm<C>],
    out: &mut Vec<GenTerm<C>>,
    first: impl Fn(&Monomial, &Monomial) -> Ordering,
) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match first(&a[i].m, &b[j].m) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                let c = a[i].c + b[j].c;
                if !c.is_zero() {
                    out.push(GenTerm { c, m: a[i].m });
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl<C: Field> fmt::Debug for GenPoly<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (k, t) in self.terms.iter().enumerate() {
            if k > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{}·{:?}", t.c, t.m)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Ring {
        Ring::new(3, Order::Lex)
    }

    #[test]
    fn normalization_merges_and_drops_zeros() {
        let r = ring();
        let p = Poly::from_pairs(&r, &[(2, &[1, 0, 0]), (3, &[1, 0, 0]), (-5, &[0, 1, 0])]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.lead().c, Gf::new(5));
        let q = Poly::from_pairs(&r, &[(1, &[2, 0, 0]), (-1, &[2, 0, 0])]);
        assert!(q.is_zero());
    }

    #[test]
    #[should_panic(expected = "past the ring's arity 2")]
    fn exponent_past_the_arity_is_rejected() {
        let _ = Poly::from_pairs(&Ring::new(2, Order::Lex), &[(1, &[1, 0, 3])]);
    }

    #[test]
    fn addition_is_sorted_merge() {
        let r = ring();
        let a = Poly::from_pairs(&r, &[(1, &[2, 0, 0]), (1, &[0, 0, 1])]);
        let b = Poly::from_pairs(&r, &[(1, &[1, 1, 0]), (-1, &[0, 0, 1])]);
        let s = a.add(&r, &b);
        assert_eq!(s.len(), 2);
        // lex: x0^2 > x0 x1
        assert_eq!(s.terms()[0].m, Monomial::from_exps(&[2, 0, 0]));
        assert_eq!(s.terms()[1].m, Monomial::from_exps(&[1, 1, 0]));
        // a + b - b == a
        assert_eq!(s.sub(&r, &b), a);
    }

    #[test]
    fn multiplication_distributes() {
        let r = ring();
        let a = Poly::from_pairs(&r, &[(1, &[1, 0, 0]), (1, &[0, 1, 0])]); // x + y
        let b = Poly::from_pairs(&r, &[(1, &[1, 0, 0]), (-1, &[0, 1, 0])]); // x - y
        let prod = a.mul(&r, &b); // x^2 - y^2
        let expect = Poly::from_pairs(&r, &[(1, &[2, 0, 0]), (-1, &[0, 2, 0])]);
        assert_eq!(prod, expect);
    }

    #[test]
    fn mul_term_preserves_order_without_resort() {
        let r = ring();
        let a = Poly::from_pairs(&r, &[(3, &[2, 1, 0]), (1, &[1, 0, 2]), (7, &[0, 0, 0])]);
        let shifted = a.mul_term(Gf::new(2), &Monomial::from_exps(&[0, 1, 1]));
        // must equal the from_terms normalization of the same data
        let expect = Poly::from_terms(&r, shifted.terms().to_vec());
        assert_eq!(shifted, expect);
    }

    #[test]
    fn monic_normalizes_lead() {
        let r = ring();
        let p = Poly::from_pairs(&r, &[(7, &[1, 0, 0]), (14, &[0, 0, 0])]);
        let m = p.monic();
        assert_eq!(m.lead().c, Gf::ONE);
        assert_eq!(m.terms()[1].c, Gf::new(2));
    }

    #[test]
    fn display_is_readable() {
        let r = Ring::new(3, Order::Lex).with_names(&["x", "y", "z"]);
        let p = Poly::from_pairs(&r, &[(1, &[2, 0, 0]), (-1, &[0, 1, 1]), (3, &[0, 0, 0])]);
        assert_eq!(p.display(&r), "x^2 + -1*y*z + 3");
        assert_eq!(Poly::zero().display(&r), "0");
    }

    #[test]
    fn ring_axioms_on_random_polys() {
        let r = ring();
        let mut rng = earth_sim::Rng::new(5);
        let rand_poly = |rng: &mut earth_sim::Rng| {
            let terms: Vec<Term> = (0..rng.gen_range(6) + 1)
                .map(|_| Term {
                    c: Gf::new(rng.gen_range(32003) as u32),
                    m: Monomial::from_exps(&[
                        rng.gen_range(4) as u16,
                        rng.gen_range(4) as u16,
                        rng.gen_range(4) as u16,
                    ]),
                })
                .collect();
            Poly::from_terms(&r, terms)
        };
        for _ in 0..50 {
            let (a, b, c) = (
                rand_poly(&mut rng),
                rand_poly(&mut rng),
                rand_poly(&mut rng),
            );
            assert_eq!(a.add(&r, &b), b.add(&r, &a));
            assert_eq!(a.add(&r, &b).add(&r, &c), a.add(&r, &b.add(&r, &c)));
            assert_eq!(a.mul(&r, &b), b.mul(&r, &a));
            assert_eq!(
                a.mul(&r, &b.add(&r, &c)),
                a.mul(&r, &b).add(&r, &a.mul(&r, &c))
            );
            assert!(a.sub(&r, &a).is_zero());
        }
    }
}
