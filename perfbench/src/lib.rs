//! End-to-end and per-layer benchmark of the qr3d workspace.
//!
//! Three closed-loop workloads drive the library's public entry points
//! from one thread, verify every result, and report end-to-end metrics;
//! a separate traced run adds spans around each layer call and probes
//! each layer on its own. See `README.md` next to this crate.

pub mod check;
pub mod gen;
pub mod probes;
pub mod replay;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
