//! Post-hoc analysis of FastGL runs: where did the time and the bytes go,
//! and did this change make anything worse?
//!
//! The simulator and the pipelined executor already *record* everything —
//! deterministic per-window stage timings
//! ([`fastgl_core::EpochWindowTrace`]), wall-clock busy/stall splits
//! ([`fastgl_core::PipelineWallStats`]), and the telemetry counter
//! taxonomy ([`fastgl_telemetry::names`]). This crate turns those records
//! into answers:
//!
//! * [`critical_path`] — which stage *binds* each mini-batch window, how
//!   much sampling the overlap model hid, and whether the pipeline's wall
//!   threads stall on starvation or backpressure. The per-window visible
//!   times sum to the epoch total **exactly** (integer nanoseconds); the
//!   analysis is bit-identical at any `FASTGL_THREADS`/`FASTGL_PREFETCH`.
//! * [`memory`] — folds the runtime counters into the paper-style
//!   memory-hierarchy breakdown (shared / L1 / L2 / global / PCIe bytes,
//!   cache hit rates, Match-Reorder savings), regenerating the Fig. 1 /
//!   Fig. 10-shaped attribution from any run's telemetry.
//! * [`perfdiff`] — a regression gate over the `results/*.json` reports:
//!   every simulated cell must match exactly, columns headed `wall` are
//!   skipped, and run provenance guards against apples-to-oranges
//!   comparisons.
//!
//! DESIGN.md §11 documents the architecture and the gate's one rule.

#![deny(missing_docs)]

pub mod critical_path;
pub mod memory;
pub mod perfdiff;

pub use critical_path::{BindingHistogram, BindingStage, CriticalPath, WindowAttribution};
pub use memory::MemoryAttribution;
pub use perfdiff::{DiffSummary, ReportDoc};
