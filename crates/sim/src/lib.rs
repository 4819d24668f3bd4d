//! Deterministic discrete-event simulation core for the EARTH-MANNA
//! reproduction suite.
//!
//! Everything the runtime and machine model measure is expressed in
//! *virtual time*: the simulated nanoseconds elapsed on the modeled 1997
//! MANNA hardware, not host wall-clock time. This crate provides the three
//! deterministic building blocks the rest of the workspace is built on:
//!
//! * [`VirtualTime`] / [`VirtualDuration`] — a nanosecond-resolution clock
//!   with saturating/checked arithmetic and human-readable formatting;
//! * [`EventQueue`] — the runtime's event queue: a monotone radix heap of
//!   timestamped events with a total, reproducible ordering (earliest time
//!   first, ties in push order, with no stored sequence number).
//!   [`LadderQueue`] pops in the same order; the runtime does not use it,
//!   and it stays only for perfbench's queue-hold probe;
//! * [`Rng`] — a small, self-contained xoshiro256** PRNG seeded via
//!   SplitMix64, so simulations are bit-identical for a given seed
//!   regardless of dependency versions or platform.
//!
//! [`stats`] adds the summary helpers (mean / min / max / stddev, speedup
//! series) used by the benchmark harness to reproduce the paper's figures.

pub mod ladder;
pub mod order;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use ladder::LadderQueue;
pub use order::MinEntry;
pub use queue::EventQueue;
pub use rng::{bounded_pareto, stream_word, unit_f64, word_bounded, Rng};
pub use stats::{nearest_rank, Breakdown, Summary};
pub use time::{VirtualDuration, VirtualTime};
