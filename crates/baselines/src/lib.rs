//! Baseline training systems, re-implemented as pipeline policies on the
//! FastGL substrate.
//!
//! The paper compares FastGL against PyG, DGL, GNNLab, GNNAdvisor, and
//! PaGraph (Table 5). Each baseline here configures the shared
//! [`fastgl_core::Pipeline`] with that system's published design choices:
//!
//! | System | Sample device | Sample opt. | Memory IO opt. | Compute opt. |
//! |---|---|---|---|---|
//! | PyG | CPU | none | prefetch | none |
//! | DGL | GPU | none | prefetch | none |
//! | GNNLab | GPU (dedicated) | parallel/overlap | static cache | none |
//! | GNNAdvisor | GPU (DGL sampler) | none | none | 2D workload mgmt |
//! | PaGraph | GPU (DGL sampler) | none | static cache | none |
//! | FastGL | GPU | Fused-Map | Match-Reorder (+cache) | Memory-Aware |
//!
//! Because all systems share the sampler, the graphs, and the simulated
//! GPU, measured differences are attributable to the pipeline policies —
//! the same property the paper gets from running on identical hardware.

#![warn(missing_docs)]

pub mod dgl;
pub mod gnnadvisor;
pub mod gnnlab;
pub mod pagraph;
pub mod pyg;

pub use dgl::DglSystem;
pub use gnnadvisor::GnnAdvisorSystem;
pub use gnnlab::GnnLabSystem;
pub use pagraph::PaGraphSystem;
pub use pyg::PygSystem;

use fastgl_core::{FastGl, FastGlConfig, TrainingSystem};

/// All systems the benchmarks compare, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// PyTorch Geometric (CPU sampling).
    Pyg,
    /// Deep Graph Library (GPU sampling, baseline ID map).
    Dgl,
    /// GNNAdvisor grafted onto DGL's sampler.
    GnnAdvisor,
    /// GNNLab (factored sampling GPU + static cache).
    GnnLab,
    /// PaGraph (degree-ordered static cache).
    PaGraph,
    /// FastGL (this paper).
    FastGl,
}

impl SystemKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Pyg => "PyG",
            SystemKind::Dgl => "DGL",
            SystemKind::GnnAdvisor => "GNNAdvisor",
            SystemKind::GnnLab => "GNNLab",
            SystemKind::PaGraph => "PaGraph",
            SystemKind::FastGl => "FastGL",
        }
    }

    /// Builds the system over a base configuration (model, batch size,
    /// fanouts, GPU count are taken from `config`; each system then applies
    /// its own policy knobs).
    pub fn build(self, config: FastGlConfig) -> Box<dyn TrainingSystem> {
        match self {
            SystemKind::Pyg => Box::new(PygSystem::new(config)),
            SystemKind::Dgl => Box::new(DglSystem::new(config)),
            SystemKind::GnnAdvisor => Box::new(GnnAdvisorSystem::new(config)),
            SystemKind::GnnLab => Box::new(GnnLabSystem::new(config)),
            SystemKind::PaGraph => Box::new(PaGraphSystem::new(config)),
            SystemKind::FastGl => Box::new(FastGl::new(config)),
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgl_graph::Dataset;

    #[test]
    fn every_system_runs_an_epoch() {
        let data = Dataset::Products.generate_scaled(1.0 / 2048.0, 5);
        let cfg = FastGlConfig::default()
            .with_batch_size(32)
            .with_fanouts(vec![3, 5]);
        for kind in [
            SystemKind::Pyg,
            SystemKind::Dgl,
            SystemKind::GnnAdvisor,
            SystemKind::GnnLab,
            SystemKind::PaGraph,
            SystemKind::FastGl,
        ] {
            let mut sys = kind.build(cfg.clone());
            let stats = sys.run_epoch(&data, 0);
            assert!(stats.iterations > 0, "{kind} ran no iterations");
            assert!(
                stats.total().as_nanos() > 0,
                "{kind} reported zero epoch time"
            );
        }
    }

    #[test]
    fn fastgl_is_fastest_dgl_beats_pyg() {
        let data = Dataset::Products.generate_scaled(1.0 / 512.0, 6);
        let cfg = FastGlConfig::default()
            .with_batch_size(256)
            .with_fanouts(vec![5, 10]);
        let time = |kind: SystemKind| {
            kind.build(cfg.clone())
                .run_epoch(&data, 0)
                .total()
                .as_secs_f64()
        };
        let pyg = time(SystemKind::Pyg);
        let dgl = time(SystemKind::Dgl);
        let fastgl = time(SystemKind::FastGl);
        assert!(pyg > dgl, "PyG {pyg} must be slower than DGL {dgl}");
        assert!(
            dgl > fastgl,
            "DGL {dgl} must be slower than FastGL {fastgl}"
        );
        // Paper: FastGL averages 2.2x over DGL and 11.8x over PyG.
        assert!(pyg / fastgl > 3.0, "PyG/FastGL = {}", pyg / fastgl);
    }
}
