//! # FastGL
//!
//! A GPU-efficient framework for accelerating sampling-based GNN training at
//! large scale — a from-scratch Rust reproduction of the ASPLOS 2024 paper,
//! with the GPU replaced by a deterministic memory-hierarchy simulator.
//!
//! This facade crate re-exports the public API of every workspace crate:
//!
//! * [`graph`] — CSR graphs, synthetic generators, the dataset registry.
//! * [`gpusim`] — the simulated GPU (caches, PCIe, kernel cost model).
//! * [`tensor`] — dense linear algebra backing the GNN models.
//! * [`sample`] — subgraph samplers and ID-map strategies (incl. Fused-Map).
//! * [`gnn`] — GCN / GIN / GAT models with real gradients.
//! * [`core`] — the paper's contribution: Match-Reorder, Memory-Aware
//!   computation, and the FastGL training pipeline.
//! * [`baselines`] — PyG-, DGL-, GNNLab-, GNNAdvisor-, and PaGraph-like
//!   systems on the same substrate.
//! * [`telemetry`] — per-name span totals, counters, and histograms over
//!   the training hot paths, exported as JSON (enable with
//!   `FASTGL_TELEMETRY=1`).
//!
//! # Quickstart
//!
//! ```
//! use fastgl::core::{FastGl, FastGlConfig};
//! use fastgl::core::system::TrainingSystem;
//! use fastgl::graph::Dataset;
//!
//! let bundle = Dataset::Products.generate_scaled(1.0 / 2048.0, 42);
//! let config = FastGlConfig::default().with_batch_size(256);
//! let mut system = FastGl::new(config);
//! let stats = system.run_epoch(&bundle, 0);
//! assert!(stats.total().as_secs_f64() > 0.0);
//! ```

pub use fastgl_baselines as baselines;
pub use fastgl_core as core;
pub use fastgl_gnn as gnn;
pub use fastgl_gpusim as gpusim;
pub use fastgl_graph as graph;
pub use fastgl_sample as sample;
pub use fastgl_telemetry as telemetry;
pub use fastgl_tensor as tensor;
