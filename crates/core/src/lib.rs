//! FastGL's primary contribution: the GPU-efficient sampling-based GNN
//! training pipeline of the ASPLOS'24 paper, on a simulated GPU.
//!
//! The three techniques of the paper live here:
//!
//! * [`match_reorder`] — **Match-Reorder** (§4.1): reuse feature rows of
//!   nodes shared between consecutive mini-batches (Match) and greedily
//!   reorder each sampled window to maximise that overlap (Reorder,
//!   Algorithm 1). Accelerates the memory IO phase at zero memory cost.
//! * [`compute`] with [`config::ComputeMode::MemoryAware`] — **Memory-Aware
//!   computation** (§4.2): stage partial sums and edge weights in shared
//!   memory so the irregular aggregation stops thrashing the L1/L2 caches.
//! * Fused-Map sampling (§4.3) — wired through [`sampler::SamplerEngine`]
//!   from `fastgl-sample`, removing the ID map's thread synchronizations.
//!
//! [`pipeline::FastGl`] assembles everything into the epoch loop of the
//! paper's Fig. 5; [`pipeline::Pipeline`] exposes the same loop with policy
//! knobs so the baselines (in `fastgl-baselines`) run on an identical
//! substrate. [`trainer`] runs *real* numeric training for the convergence
//! study (Fig. 16). [`resilience`] adds deterministic fault injection to
//! the pipeline and checkpoint/resume to the trainer (DESIGN.md §10).

#![deny(missing_docs)]

pub mod cache;
pub mod compute;
pub mod config;
pub mod executor;
pub mod hotness;
pub mod io;
pub mod match_reorder;
pub mod memory_model;
pub mod multi_gpu;
#[cfg(test)]
mod node_set_oracle;
pub mod pipeline;
pub mod resilience;
pub mod sampler;
pub mod stage_trace;
pub mod system;
pub mod trainer;

pub use cache::FeatureCache;
pub use compute::{ComputeEngine, ComputeResult};
pub use config::{check_env, ComputeMode, FastGlConfig, IdMapKind, SampleDevice, SamplerKind};
pub use executor::{PipelineExecutor, PipelineWallStats, StageWallStats};
pub use hotness::{CacheRankPolicy, HotnessCounter};
pub use pipeline::{CachePolicy, FastGl, Pipeline, PipelinePolicy};
pub use resilience::{
    Checkpoint, CheckpointError, FaultInjector, FaultKind, FaultPlan, FaultPlanError, FaultSpec,
    ResilienceStats, TrainerState,
};
pub use stage_trace::{EpochWindowTrace, WindowPhases};
pub use system::{EpochStats, TrainingSystem};
