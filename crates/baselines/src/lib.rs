//! Baseline training systems, as rows of one preset table over the FastGL
//! substrate.
//!
//! The paper compares FastGL against PyG, DGL, GNNLab, GNNAdvisor, and
//! PaGraph (Table 5). Each baseline is one row of a preset table on
//! [`SystemKind`]: the published design choices it sets on the shared
//! [`fastgl_core::Pipeline`].
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

use fastgl_core::{
    CacheRankPolicy, ComputeMode, EpochStats, FastGl, FastGlConfig, IdMapKind, Pipeline,
    PipelinePolicy, SampleDevice, TrainingSystem,
};
use fastgl_graph::DatasetBundle;

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

/// One baseline's design choices, applied over a base configuration.
/// Every baseline runs without Match and Reorder.
struct Preset {
    sample_device: SampleDevice,
    compute_mode: ComputeMode,
    id_map: IdMapKind,
    /// Keeps a static feature cache sized by `config.cache_ratio` (`None`
    /// fills the device memory the workload leaves over); without one the
    /// system caches nothing whatever the ratio.
    cached: bool,
    /// GPUs dedicated to sampling, given the machine's GPU count.
    sampler_gpus: fn(usize) -> usize,
    /// Whether sampling overlaps training.
    overlap_sample: bool,
    cache_rank: CacheRankPolicy,
    min_gpus: usize,
}

/// DGL moves sampling to the GPU but keeps the synchronized-atomics ID
/// map (paper §3.3), transfers every sampled row each iteration, and
/// computes naively. It is the 'Naive' baseline of the breakdown figures;
/// the other rows state only where they differ from it.
const DGL: Preset = Preset {
    sample_device: SampleDevice::Gpu,
    compute_mode: ComputeMode::Naive,
    id_map: IdMapKind::Baseline,
    cached: false,
    sampler_gpus: |_| 0,
    overlap_sample: false,
    cache_rank: CacheRankPolicy::Degree,
    min_gpus: 1,
};

impl Preset {
    fn pipeline(&self, name: &'static str, mut config: FastGlConfig) -> Pipeline {
        assert!(
            config.system.num_gpus >= self.min_gpus,
            "{name} needs at least {} GPUs",
            self.min_gpus
        );
        config.sample_device = self.sample_device;
        config.id_map = self.id_map;
        config.compute_mode = self.compute_mode;
        config.enable_match = false;
        config.enable_reorder = false;
        if !self.cached {
            config.cache_ratio = Some(0.0);
        }
        let policy = PipelinePolicy {
            sampler_gpus: (self.sampler_gpus)(config.system.num_gpus),
            overlap_sample: self.overlap_sample,
            cache_rank: self.cache_rank,
            ..PipelinePolicy::from_config(&config)
        };
        Pipeline::new(name, config, policy)
    }
}

impl SystemKind {
    /// Every system, in the paper's order.
    pub const ALL: [SystemKind; 6] = [
        SystemKind::Pyg,
        SystemKind::Dgl,
        SystemKind::GnnAdvisor,
        SystemKind::GnnLab,
        SystemKind::PaGraph,
        SystemKind::FastGl,
    ];

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

    /// The baseline's preset row; `None` for FastGL, which is built from
    /// its own configuration flags.
    fn preset(self) -> Option<Preset> {
        Some(match self {
            // PyG samples on the CPU through Python-level loaders; the
            // paper measures up to 97 % of training time there (§1).
            SystemKind::Pyg => Preset {
                sample_device: SampleDevice::Cpu,
                ..DGL
            },
            SystemKind::Dgl => DGL,
            // GNNAdvisor's neighbour grouping must re-run for every
            // sampled subgraph, so its preprocessing lands on each
            // iteration's critical path (paper Fig. 11).
            SystemKind::GnnAdvisor => Preset {
                compute_mode: ComputeMode::Advisor,
                ..DGL
            },
            // GNNLab splits the GPUs into samplers (one at ≤ 4 GPUs, two
            // above) and trainers, overlaps the two roles, and caches the
            // pre-sampled hottest rows. It cannot run on 1 GPU (§6.4).
            SystemKind::GnnLab => Preset {
                cached: true,
                sampler_gpus: |gpus| if gpus <= 4 { 1 } else { 2 },
                overlap_sample: true,
                cache_rank: CacheRankPolicy::PreSampledHotness,
                min_gpus: 2,
                ..DGL
            },
            // PaGraph caches the highest-degree rows in spare device
            // memory; its hit rate collapses on large graphs (§3.1).
            SystemKind::PaGraph => Preset {
                cached: true,
                ..DGL
            },
            SystemKind::FastGl => return None,
        })
    }

    /// The fewest simulated GPUs the system runs on.
    pub fn min_gpus(self) -> usize {
        self.preset().map_or(1, |p| p.min_gpus)
    }

    /// Builds the system over a base configuration (model, batch size,
    /// fanouts, GPU count and, for systems with a cache, the cache ratio
    /// are taken from `config`; each baseline then applies its preset).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or has fewer than
    /// [`SystemKind::min_gpus`] GPUs.
    pub fn build(self, config: FastGlConfig) -> Box<dyn TrainingSystem> {
        match self.preset() {
            Some(preset) => Box::new(preset.pipeline(self.name(), config)),
            None => Box::new(FastGl::new(config)),
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The DGL row as a named type, for callers that construct DGL directly.
#[derive(Debug)]
pub struct DglSystem(Pipeline);

impl DglSystem {
    /// Builds DGL over the shared base configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: FastGlConfig) -> Self {
        Self(DGL.pipeline("DGL", config))
    }
}

impl TrainingSystem for DglSystem {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn run_epoch(&mut self, data: &DatasetBundle, epoch: u64) -> EpochStats {
        self.0.run_epoch(data, epoch)
    }
}
