//! Computer-algebra substrate for the Gröbner Basis application (§3.2).
//!
//! The paper's second application is Buchberger's completion procedure:
//! transform a set of multivariate polynomials into a Gröbner basis by
//! repeatedly forming *critical pairs*, computing their S-polynomials, and
//! reducing them against the current basis; irreducible results join the
//! basis and spawn new pairs. The pair-selection order changes the total
//! work — the source of the intrinsic indeterminism (and occasional
//! superlinear speedup) the paper studies.
//!
//! This crate is the complete sequential machinery:
//!
//! * [`gf`] — the coefficient field GF(32003). The paper's Multipol code
//!   computed over arbitrary-precision rationals; a word-sized prime field
//!   is the standard computer-algebra benchmarking substitution (see
//!   DESIGN.md) and preserves the completion procedure's control
//!   structure exactly.
//! * [`monomial`] — exponent vectors with lex / graded-lex /
//!   graded-reverse-lex orders ("all inputs dealt with in total
//!   lexicographic order", Table 2).
//! * [`poly`] — sparse multivariate polynomials in sorted term form, the
//!   "compacted form as vectors" of the paper.
//! * [`spoly`] — S-polynomials and normal-form reduction with exact
//!   operation counting (feeding the virtual cost model).
//! * [`buchberger`](mod@buchberger) — sequential completion with the product and chain
//!   criteria, selection strategies, Gröbner verification, and reduced
//!   (canonical) bases.
//! * [`inputs`] — the benchmark systems of Table 2: Katsura-n and the
//!   Lazard example.
//! * [`wire`] — the byte serialization used when polynomials are block-
//!   moved between nodes.
//! * [`cost`] — operation-count → virtual-microsecond calibration.

pub mod buchberger;
pub mod cost;
pub mod field;
pub mod gf;
pub mod inputs;
pub mod monomial;
pub mod poly;
pub mod spoly;
pub mod wire;

pub use buchberger::{buchberger, is_groebner, reduce_basis, BuchbergerStats, SelectionStrategy};
pub use field::{Field, Rat};
pub use gf::Gf;
pub use monomial::{Monomial, Order, MAX_VARS};
pub use poly::{GenPoly, GenTerm, Poly, Ring, Term};
pub use spoly::{normal_form, s_polynomial, Work};
