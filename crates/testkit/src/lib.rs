//! # earth-testkit
//!
//! The workspace's self-contained property-testing substrate. The seed
//! workspace pulled `proptest`, `criterion`, `rand`, `crossbeam`,
//! `parking_lot` and `serde` from crates.io, and none of them remains.
//! This crate stands in for `proptest`, drawing from `earth-sim`'s
//! deterministic SplitMix64/xoshiro256** PRNG, so that
//! `cargo build && cargo test` succeed with zero network access and
//! bit-identical behaviour per seed (DESIGN.md §5).
//!
//! ## Property tests
//!
//! ```
//! use earth_testkit::prelude::*;
//!
//! props! {
//!     #![config(Config::with_cases(64))]
//!
//!     // in a test file this carries #[test]
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! # addition_commutes();
//! ```
//!
//! Strategies compose with `prop_map` / `prop_filter` /
//! `prop_flat_map`, tuples, [`collection::vec`](strategy::collection::vec)
//! and [`prop_oneof!`]; [`domain`] adds generators for the workspace's
//! own types. Generation draws raw `u64` words from a recorded choice
//! stream, so a failing case shrinks *universally* — the shrinker
//! mutates the word stream and replays it, needing no per-type
//! shrinking rules — and every failure prints a `TESTKIT_SEED` that
//! reproduces it exactly.

pub mod domain;
pub mod runner;
pub mod source;
pub mod strategy;

pub use runner::{check, run_prop, Config, PropOutcome, TestResult};
pub use source::Source;
pub use strategy::{any, Just, Strategy};

/// One-stop imports for property-test files.
pub mod prelude {
    pub use crate::runner::{Config, TestResult};
    pub use crate::strategy::{any, collection, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, props};
}

/// Define property tests. Mirrors `proptest!`'s call shape: an optional
/// `#![config(...)]` header followed by `#[test] fn name(arg in
/// strategy, ...) { body }` items. Bodies use [`prop_assert!`] /
/// [`prop_assert_eq!`] / [`prop_assert_ne!`]; any panic in the body
/// also counts as a failure and is shrunk the same way.
#[macro_export]
macro_rules! props {
    (#![config($cfg:expr)] $($items:tt)*) => {
        $crate::__props_items! { ($cfg) $($items)* }
    };
    ($($items:tt)*) => {
        $crate::__props_items! { ($crate::Config::default()) $($items)* }
    };
}

/// Internal expansion of [`props!`]; not for direct use.
#[doc(hidden)]
#[macro_export]
macro_rules! __props_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::Config = $cfg;
            let __strat = ($($strat,)+);
            $crate::run_prop(
                stringify!($name),
                &__cfg,
                &__strat,
                |__case: &_| -> $crate::TestResult {
                    let ($($arg,)+) = ::core::clone::Clone::clone(__case);
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__props_items! { ($cfg) $($rest)* }
    };
}

/// Property-body assertion; on failure the case is reported and shrunk.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Property-body equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::core::result::Result::Err(::std::format!(
                "{}\n  left: {:?}\n right: {:?}",
                ::std::format!($($fmt)+),
                __l,
                __r
            ));
        }
    }};
}

/// Property-body inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if __l == __r {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __l
            ));
        }
    }};
}

/// Uniform choice among strategies producing the same value type
/// (`proptest::prop_oneof!` shape).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(::std::vec![
            $($crate::strategy::boxed($arm)),+
        ])
    };
}
