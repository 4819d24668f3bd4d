//! Monomials (exponent vectors) and term orders.
//!
//! A [`Monomial`] is a fixed array of [`MAX_VARS`] exponent lanes. In a
//! ring of arity `n`, every lane at or past `n` is zero.
//! [`GenPoly::from_terms`](crate::poly::GenPoly::from_terms) rejects a
//! term that breaks this, and [`Order::cmp`] relies on it: it compares
//! all eight lanes at once and decides on the first or last lane that
//! differs, so a stray exponent past the arity would decide a compare
//! that must ignore it.

use std::cmp::Ordering;
use std::fmt;

/// Maximum number of variables supported (Katsura-5 needs 6; the fixed
/// array keeps monomials `Copy` and comparison branch-cheap).
pub const MAX_VARS: usize = 8;

/// A power product `x0^e0 · x1^e1 · …` stored as a fixed exponent vector.
/// Variables at or beyond the ring's arity must stay zero (the module
/// docs say who relies on it).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Monomial {
    /// Exponents.
    pub e: [u16; MAX_VARS],
}

impl Monomial {
    /// The unit monomial (all exponents zero).
    pub const ONE: Monomial = Monomial { e: [0; MAX_VARS] };

    /// The single variable `x_i`.
    pub fn var(i: usize) -> Monomial {
        assert!(i < MAX_VARS);
        let mut e = [0u16; MAX_VARS];
        e[i] = 1;
        Monomial { e }
    }

    /// Build from a slice of exponents.
    pub fn from_exps(exps: &[u16]) -> Monomial {
        assert!(exps.len() <= MAX_VARS, "too many variables");
        let mut e = [0u16; MAX_VARS];
        e[..exps.len()].copy_from_slice(exps);
        Monomial { e }
    }

    /// Total degree.
    pub fn degree(&self) -> u32 {
        self.e.iter().map(|&x| x as u32).sum()
    }

    /// True for the unit monomial.
    pub fn is_one(&self) -> bool {
        self.e.iter().all(|&x| x == 0)
    }

    /// Product of two monomials. Panics if an exponent overflows.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut e = [0u16; MAX_VARS];
        // One check per product keeps the exponent loop branch-free.
        let mut overflow = false;
        for (out, (a, b)) in e.iter_mut().zip(self.e.iter().zip(&other.e)) {
            let (sum, carry) = a.overflowing_add(*b);
            *out = sum;
            overflow |= carry;
        }
        assert!(!overflow, "monomial exponent overflow");
        Monomial { e }
    }

    /// True when `self` divides `other` componentwise.
    pub fn divides(&self, other: &Monomial) -> bool {
        self.e.iter().zip(&other.e).all(|(a, b)| a <= b)
    }

    /// Divisibility mask, the "short exponent vector" of Bachmann and
    /// Schönemann (ISSAC 1998): byte `i` holds variable `i`'s exponent
    /// in unary, bit `j` set when the exponent exceeds `j`, so exponents
    /// from 8 up all read `0xFF`. If `self` divides `m`, every bit set
    /// here is set in `m.divmask()`; a mask bit missing from `m`'s
    /// therefore proves that `self` does not divide `m`.
    pub fn divmask(&self) -> u64 {
        self.e.iter().enumerate().fold(0, |mask, (i, &x)| {
            mask | ((1u64 << x.min(8)) - 1) << (8 * i)
        })
    }

    /// The exponent lanes as one integer, lane `i` in bits `16i..16i+16`.
    fn lanes(&self) -> u128 {
        let mut bytes = [0u8; 16];
        for (pair, e) in bytes.chunks_exact_mut(2).zip(&self.e) {
            pair.copy_from_slice(&e.to_le_bytes());
        }
        u128::from_le_bytes(bytes)
    }

    /// `other / self`, if `self` divides it.
    pub fn div(&self, other: &Monomial) -> Option<Monomial> {
        if !self.divides(other) {
            return None;
        }
        let mut e = [0u16; MAX_VARS];
        for (out, (a, b)) in e.iter_mut().zip(other.e.iter().zip(&self.e)) {
            *out = a - b;
        }
        Some(Monomial { e })
    }

    /// Least common multiple (componentwise max).
    pub fn lcm(&self, other: &Monomial) -> Monomial {
        let mut e = [0u16; MAX_VARS];
        for (out, (a, b)) in e.iter_mut().zip(self.e.iter().zip(&other.e)) {
            *out = *a.max(b);
        }
        Monomial { e }
    }

    /// True when the monomials share no variable — Buchberger's *product
    /// criterion*: such a pair's S-polynomial always reduces to zero.
    pub fn coprime(&self, other: &Monomial) -> bool {
        self.e.iter().zip(&other.e).all(|(a, b)| *a == 0 || *b == 0)
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        let mut first = true;
        for (i, &e) in self.e.iter().enumerate() {
            if e > 0 {
                if !first {
                    write!(f, "*")?;
                }
                first = false;
                write!(f, "x{i}")?;
                if e > 1 {
                    write!(f, "^{e}")?;
                }
            }
        }
        Ok(())
    }
}

/// A monomial (term) order.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Order {
    /// Pure lexicographic — the order of all Table 2 runs.
    #[default]
    Lex,
    /// Total degree, ties by lex.
    GrLex,
    /// Total degree, ties by reverse lex on reversed variables.
    GRevLex,
}

impl Order {
    /// Compare two monomials in this order over the first `nvars`
    /// variables. Returns `Greater` when `a` is the larger monomial.
    ///
    /// Both monomials' lanes at or past `nvars` must be zero. After the
    /// graded orders' degree compare, one XOR finds every lane that
    /// differs: Lex and GrLex decide on the first of them, GRevLex on the
    /// last, where the larger exponent makes the smaller monomial. Lanes
    /// past the arity never differ, so they never decide.
    pub fn cmp(&self, a: &Monomial, b: &Monomial, nvars: usize) -> Ordering {
        debug_assert!(
            a.e[nvars..].iter().chain(&b.e[nvars..]).all(|&x| x == 0),
            "monomial exponent past the ring's arity {nvars}"
        );
        if *self != Order::Lex {
            let by_degree = a.degree().cmp(&b.degree());
            if by_degree != Ordering::Equal {
                return by_degree;
            }
        }
        let (la, lb) = (a.lanes(), b.lanes());
        let diff = la ^ lb;
        if diff == 0 {
            return Ordering::Equal;
        }
        // The exponent in the lane holding bit `bit`.
        let lane = |x: u128, bit: u32| (x >> (bit & !15)) as u16;
        match self {
            Order::Lex | Order::GrLex => {
                let bit = diff.trailing_zeros();
                lane(la, bit).cmp(&lane(lb, bit))
            }
            Order::GRevLex => {
                let bit = 127 - diff.leading_zeros();
                lane(lb, bit).cmp(&lane(la, bit))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(exps: &[u16]) -> Monomial {
        Monomial::from_exps(exps)
    }

    #[test]
    fn multiplication_and_division() {
        let a = m(&[2, 1, 0]);
        let b = m(&[1, 0, 3]);
        let p = a.mul(&b);
        assert_eq!(p, m(&[3, 1, 3]));
        assert_eq!(a.div(&p), Some(b));
        assert_eq!(b.div(&p), Some(a));
        assert_eq!(p.div(&a), None, "p does not divide a");
    }

    #[test]
    fn lcm_and_coprimality() {
        let a = m(&[2, 0, 1]);
        let b = m(&[0, 3, 0]);
        assert_eq!(a.lcm(&b), m(&[2, 3, 1]));
        assert!(a.coprime(&b));
        assert!(!a.coprime(&m(&[1, 0, 0])));
        // lcm of coprime monomials is their product
        assert_eq!(a.lcm(&b), a.mul(&b));
    }

    #[test]
    fn lex_order() {
        let o = Order::Lex;
        // x0 > x1^5 in lex
        assert_eq!(o.cmp(&m(&[1, 0]), &m(&[0, 5]), 2), Ordering::Greater);
        assert_eq!(o.cmp(&m(&[1, 2]), &m(&[1, 3]), 2), Ordering::Less);
        assert_eq!(o.cmp(&m(&[2, 2]), &m(&[2, 2]), 2), Ordering::Equal);
    }

    #[test]
    fn grlex_order() {
        let o = Order::GrLex;
        // degree dominates
        assert_eq!(o.cmp(&m(&[0, 3]), &m(&[2, 0]), 2), Ordering::Greater);
        // ties by lex
        assert_eq!(o.cmp(&m(&[2, 1]), &m(&[1, 2]), 2), Ordering::Greater);
    }

    #[test]
    fn grevlex_order() {
        let o = Order::GRevLex;
        assert_eq!(o.cmp(&m(&[0, 3]), &m(&[2, 0]), 2), Ordering::Greater);
        // classic grevlex tiebreak: x0*x2 < x1^2 in 3 vars
        assert_eq!(o.cmp(&m(&[1, 0, 1]), &m(&[0, 2, 0]), 3), Ordering::Less);
    }

    #[test]
    fn orders_are_total_and_multiplicative() {
        // x < y etc. consistency: a < b  =>  a*c < b*c  (order axiom)
        let mons = [
            m(&[0, 0, 0]),
            m(&[1, 0, 0]),
            m(&[0, 1, 0]),
            m(&[2, 1, 0]),
            m(&[1, 1, 1]),
            m(&[0, 0, 4]),
        ];
        let c = m(&[1, 2, 0]);
        for o in [Order::Lex, Order::GrLex, Order::GRevLex] {
            for a in &mons {
                for b in &mons {
                    let ab = o.cmp(a, b, 3);
                    let acbc = o.cmp(&a.mul(&c), &b.mul(&c), 3);
                    assert_eq!(ab, acbc, "{o:?}: {a:?} vs {b:?}");
                }
                // 1 is the least monomial
                if !a.is_one() {
                    assert_eq!(o.cmp(a, &Monomial::ONE, 3), Ordering::Greater);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn exponent_overflow_is_caught() {
        let big = m(&[u16::MAX, 0]);
        let _ = big.mul(&m(&[1, 0]));
    }
}
