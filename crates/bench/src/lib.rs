//! The FastGL benchmark harness: regenerates every table and figure of the
//! paper's evaluation section (§6).
//!
//! Each experiment lives in [`experiments`] as a function producing a
//! [`report::Report`] (aligned text tables), registered by ID in
//! [`experiments::all`]. The `all_experiments` binary is the one entry
//! point: with no arguments it runs the full suite and writes
//! `results/<id>.json`; `all_experiments <id>…` (e.g.
//! `all_experiments fig09_overall tab08_id_map`) runs a subset.
//!
//! # Scale
//!
//! The paper's graphs (up to 111M nodes) do not fit a CPU-only test
//! machine, so every experiment runs on the scaled synthetic stand-ins of
//! `fastgl_graph::datasets` under a [`scale::BenchScale`] profile. The
//! *shape* of each result — which system wins, by roughly what factor,
//! where crossovers fall — is what the suite reproduces; absolute numbers
//! are smaller by the scale factor. Set `FASTGL_QUICK=1` for a fast smoke
//! profile (used by CI and `cargo test`).

#![warn(missing_docs)]

pub mod emit;
pub mod experiments;
pub mod report;
pub mod scale;

pub use report::{Report, Table};
pub use scale::BenchScale;
