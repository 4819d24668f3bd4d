//! Experiment harness: the code that regenerates every table and figure
//! of the paper's evaluation section.
//!
//! Each `table*` / `fig*` function runs the corresponding experiment on
//! the simulated machine and returns the raw numbers plus a formatted
//! text block mirroring the paper's presentation. The `repro` binary
//! prints them; EXPERIMENTS.md records paper-vs-measured values.
//!
//! Independent simulation runs (different seeds / node counts) are
//! spread over host threads with `std::thread::scope` — the
//! simulations themselves stay single-threaded and deterministic.

pub mod chrome;
pub mod experiments;
pub mod json;
mod open_loop;
pub mod overload_sweep;
pub mod straggler_sweep;
pub mod traffic_sweep;
pub mod workloads;

pub use chrome::chrome_trace_json;
pub use experiments::*;
pub use json::{groebner_curves_to_json, neural_curves_to_json};
pub use overload_sweep::{overload_smoke, overload_table, OverloadCell, OverloadTable};
pub use straggler_sweep::{stragglers_smoke, stragglers_table, StragglerCell, StragglerTable};
pub use traffic_sweep::{traffic_smoke, traffic_table, TrafficCell, TrafficTable};
pub use workloads::*;
