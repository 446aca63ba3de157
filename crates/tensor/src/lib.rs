//! Dense `f32` linear algebra backing FastGL's GNN models.
//!
//! The convergence experiments of the paper (Fig. 16) train real models to
//! a real loss, so the workspace needs actual numerics, not just cost
//! modelling. This crate supplies the dense half of a GNN layer — the
//! *update* phase of Eq. 2 — plus losses and optimisers:
//!
//! * [`Matrix`] — row-major `f32` matrices with a register-tiled,
//!   `k`-blocked matmul (AVX2 when the CPU has it) and the transposed
//!   variants backward passes need.
//! * [`ops`] — activations and row-wise softmax utilities.
//! * [`loss`] — softmax cross-entropy with gradient, and accuracy.
//! * [`optim`] — plain SGD and Adam.
//! * [`init`] — Xavier/Glorot initialisation over a deterministic RNG.
//! * [`parallel`] — the workspace-wide deterministic fork-join execution
//!   backend (`FASTGL_THREADS` knob, serial cutoffs).
//!
//! The sparse half (aggregation over subgraph edges) lives in `fastgl-gnn`,
//! where it follows the graph structure.

#![warn(missing_docs)]

mod gemm;
pub mod init;
pub mod loss;
pub mod matrix;
pub mod ops;
pub mod optim;
pub mod parallel;

pub use matrix::Matrix;
pub use optim::{Adam, AdamSlotState, AdamState, Optimizer, Sgd};
