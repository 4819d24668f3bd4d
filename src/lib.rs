//! # earth-manna
//!
//! A full reproduction of *"Experiences with Non-numeric Applications on
//! Multithreaded Architectures"* (Sodan, Gao, Maquelin, Schultz, Tian —
//! PPoPP 1997): the EARTH fine-grained multithreaded runtime, a
//! deterministic model of the MANNA distributed-memory machine it ran
//! on, the paper's three applications (Eigenvalue bisection search,
//! Gröbner Basis completion, unit-parallel feedforward neural networks),
//! and the harness that regenerates every table and figure of its
//! evaluation.
//!
//! This crate is the umbrella: it re-exports the workspace members under
//! stable names and hosts the runnable examples and cross-crate
//! integration tests.
//!
//! ## Layout
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `earth-sim` | virtual time, deterministic event queue, PRNG, statistics |
//! | [`machine`] | `earth-machine` | MANNA topology, network timing, EARTH vs message-passing cost models |
//! | [`rt`] | `earth-rt` | the EARTH runtime: frames, threads, sync slots, split-phase ops, tokens |
//! | [`algebra`] | `earth-algebra` | polynomials over GF(32003), Buchberger completion, benchmark inputs |
//! | [`linalg`] | `earth-linalg` | tridiagonal matrices, Sturm counts, bisection eigensolver |
//! | [`nn`] | `earth-nn` | feedforward networks, backprop, unit slicing, i860 cost model |
//! | [`apps`] | `earth-apps` | the parallel applications on EARTH |
//! | [`traffic`] | `earth-traffic` | open-loop workload generator + admission/queueing front-end |
//! | [`bench`](mod@bench) | `earth-bench` | the per-table / per-figure experiment harness |
//!
//! ## Quickstart
//!
//! ```
//! use earth_manna::apps::eigen::{run_eigen, FetchMode};
//! use earth_manna::linalg::SymTridiagonal;
//!
//! let m = SymTridiagonal::toeplitz(32, -2.0, 1.0);
//! let run = run_eigen(&m, 1e-7, 4, 42, FetchMode::Block);
//! assert_eq!(run.eigenvalues.len(), 32);
//! println!("found {} eigenvalues in {}", run.eigenvalues.len(), run.elapsed);
//! ```

pub use earth_algebra as algebra;
pub use earth_apps as apps;
pub use earth_linalg as linalg;
pub use earth_machine as machine;
pub use earth_nn as nn;
pub use earth_rt as rt;
pub use earth_sim as sim;
pub use earth_traffic as traffic;

/// The experiment harness, re-exported.
pub mod bench {
    pub use earth_bench::*;
}
