//! GNN models for FastGL: GCN, GIN, and GAT over sampled subgraphs, with
//! hand-derived backward passes and a workload census for the simulator.
//!
//! The paper evaluates three representative models (§6.1): a 3-layer GCN
//! and GIN with hidden width 64, and a GAT with 8 heads of dimension 8.
//! This crate implements all three with real numerics — the convergence
//! experiment (Fig. 16) actually trains — while [`census()`](census::census) exposes the
//! per-layer shapes the simulated GPU charges for.

#![warn(missing_docs)]

pub mod aggregate;
pub mod census;
pub mod layers;
pub mod model;
pub mod rows;

pub use census::{census, LayerWorkload};
pub use layers::GnnLayer;
pub use model::{GnnModel, ModelConfig, ModelKind};
pub use rows::Rows;
