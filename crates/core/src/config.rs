//! Configuration of the FastGL training pipeline.

use crate::resilience::FaultPlan;
use fastgl_gnn::ModelKind;
use fastgl_gpusim::SystemSpec;
use fastgl_telemetry::settings::{self, SettingsError, MAX_THREADS};
use serde::{Deserialize, Serialize};

/// Which ID-map strategy the sampler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IdMapKind {
    /// DGL-style three-kernel map with synchronized local-ID assignment.
    Baseline,
    /// The paper's Fused-Map (Algorithm 2).
    Fused,
}

/// Which device draws neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SampleDevice {
    /// CPU sampling (PyG-style), low parallelism.
    Cpu,
    /// GPU sampling (DGL/GNNLab/FastGL-style).
    Gpu,
}

/// How the computation phase accesses memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComputeMode {
    /// Everything streams through L1/L2 from global memory (DGL/PyG).
    Naive,
    /// The paper's Memory-Aware shared-memory kernel (§4.2).
    MemoryAware,
    /// GNNAdvisor-style 2D workload management: improved cache locality
    /// but a per-iteration preprocessing pass.
    Advisor,
}

/// Which sampling algorithm drives the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplerKind {
    /// K-hop uniform neighbour sampling with the configured fanouts.
    Neighbor,
    /// PinSAGE-style random walks (length 3), paper Table 7.
    RandomWalk,
    /// LADIES/FastGCN-style layer-wise importance sampling; the fanouts
    /// are reinterpreted as per-layer node budgets (× batch size).
    LayerWise,
}

/// Full configuration of a FastGL (or FastGL-derived baseline) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FastGlConfig {
    /// Simulated hardware.
    pub system: SystemSpec,
    /// Model family trained.
    pub model: ModelKind,
    /// Hidden width (64 in the paper's benchmarks).
    pub hidden_dim: usize,
    /// Mini-batch size (8000 in the paper; scale-adjusted in experiments).
    pub batch_size: u64,
    /// Per-hop fanouts, seeds outward (paper default `[5, 10, 15]`).
    pub fanouts: Vec<usize>,
    /// Sampling algorithm.
    pub sampler: SamplerKind,
    /// Mini-batches sampled per Reorder window (the `n` of Algorithm 1).
    pub reorder_window: usize,
    /// Fraction of the dataset's feature rows held in a device cache;
    /// `None` auto-sizes to whatever memory remains (GNNLab-style).
    pub cache_ratio: Option<f64>,
    /// Enable the Match step (reuse of resident rows).
    pub enable_match: bool,
    /// Enable the greedy Reorder (Algorithm 1).
    pub enable_reorder: bool,
    /// Memory access mode of the computation phase.
    pub compute_mode: ComputeMode,
    /// ID-map strategy.
    pub id_map: IdMapKind,
    /// Sampling device.
    pub sample_device: SampleDevice,
    /// Master random seed.
    pub seed: u64,
    /// CPU worker threads for the host-side execution backend (dense
    /// kernels, aggregation, sampling, feature gather), at most
    /// [`MAX_THREADS`]. `None` defers to the `FASTGL_THREADS` environment
    /// variable and then the machine's core count; `Some(1)` forces the
    /// exact serial path. Results are bit-identical at any setting.
    pub threads: Option<usize>,
    /// Telemetry collection (spans, counters, histograms). `None` defers
    /// to the `FASTGL_TELEMETRY` environment variable; `Some(true)` /
    /// `Some(false)` force it on or off for the whole process. Telemetry
    /// never affects simulated results — only whether they are observed.
    pub telemetry: Option<bool>,
    /// Prefetch depth of the asynchronous window pipeline: how many
    /// mini-batch windows the sampler may run ahead of the compute stage
    /// (see [`crate::executor::PipelineExecutor`]). `None` defers to the
    /// `FASTGL_PREFETCH` environment variable and then `0`, which executes
    /// the stages back-to-back on one thread. Prefetching changes
    /// wall-clock time only — simulated results are bit-identical at any
    /// depth.
    pub prefetch_windows: Option<usize>,
    /// Deterministic fault-injection plan (see [`crate::resilience`]).
    /// `None` defers to the `FASTGL_FAULTS` environment variable and then
    /// to no faults at all. Injected faults degrade the run (extra PCIe
    /// traffic, retry backoff, shrunken cache) but never abort it, and
    /// fire at the same simulated positions regardless of
    /// `FASTGL_THREADS` or `FASTGL_PREFETCH`.
    pub faults: Option<FaultPlan>,
}

impl FastGlConfig {
    /// Returns the config with a different batch size.
    pub fn with_batch_size(mut self, batch_size: u64) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Returns the config with different fanouts.
    pub fn with_fanouts(mut self, fanouts: Vec<usize>) -> Self {
        self.fanouts = fanouts;
        self
    }

    /// Returns the config with a different model.
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Returns the config with a different GPU count.
    pub fn with_gpus(mut self, num_gpus: usize) -> Self {
        self.system.num_gpus = num_gpus;
        self
    }

    /// Returns the config with an explicit cache ratio.
    pub fn with_cache_ratio(mut self, ratio: f64) -> Self {
        self.cache_ratio = Some(ratio);
        self
    }

    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config using the random-walk sampler.
    pub fn with_random_walk(mut self) -> Self {
        self.sampler = SamplerKind::RandomWalk;
        self
    }

    /// Returns the config using the layer-wise importance sampler.
    pub fn with_layer_wise(mut self) -> Self {
        self.sampler = SamplerKind::LayerWise;
        self
    }

    /// Returns the config with an explicit CPU worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Returns the config with telemetry forced on or off.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = Some(on);
        self
    }

    /// Returns the config with an explicit window-pipeline prefetch depth
    /// (`0` forces the serial path regardless of `FASTGL_PREFETCH`).
    pub fn with_prefetch_windows(mut self, depth: usize) -> Self {
        self.prefetch_windows = Some(depth);
        self
    }

    /// Returns the config with an explicit fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The effective fault plan: the explicit setting, else the
    /// `FASTGL_FAULTS` environment variable, else no faults.
    ///
    /// The environment is re-read on every call so tests can vary it
    /// within one process.
    ///
    /// # Errors
    ///
    /// Returns [`SettingsError`] when `FASTGL_FAULTS` is set but does not
    /// parse; the message names the offending entry.
    pub fn resolved_faults(&self) -> Result<Option<FaultPlan>, SettingsError> {
        if let Some(plan) = &self.faults {
            return Ok(Some(plan.clone()));
        }
        env_faults()
    }

    /// The effective prefetch depth: the explicit setting, else the
    /// `FASTGL_PREFETCH` environment variable, else `0` (serial).
    ///
    /// The environment is re-read on every call so tests can vary it
    /// within one process.
    ///
    /// # Panics
    ///
    /// If the setting defers to a `FASTGL_PREFETCH` that is not a count.
    pub fn resolved_prefetch(&self) -> usize {
        self.prefetch_windows.unwrap_or_else(|| {
            settings::prefetch()
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or(0)
        })
    }

    /// Installs this config's thread count as the process-wide setting of
    /// the execution backend (`None` clears any previous override).
    pub fn apply_threads(&self) {
        fastgl_tensor::parallel::set_num_threads(self.threads.unwrap_or(0));
    }

    /// Installs this config's telemetry preference process-wide. `None`
    /// leaves the `FASTGL_TELEMETRY` environment decision untouched.
    pub fn apply_telemetry(&self) {
        if let Some(on) = self.telemetry {
            fastgl_telemetry::set_enabled(on);
        }
    }

    /// Number of GNN layers implied by the sampler (one per hop for the
    /// neighbour sampler; random walks build one block).
    pub fn num_layers(&self) -> usize {
        match self.sampler {
            SamplerKind::Neighbor | SamplerKind::LayerWise => self.fanouts.len(),
            SamplerKind::RandomWalk => 1,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.fanouts.is_empty() || self.fanouts.contains(&0) {
            return Err("fanouts must be non-empty and positive".into());
        }
        if self.reorder_window < 2 && self.enable_reorder {
            return Err("reorder needs a window of at least 2".into());
        }
        if let Some(r) = self.cache_ratio {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("cache_ratio {r} outside [0, 1]"));
            }
        }
        if self.hidden_dim == 0 {
            return Err("hidden_dim must be positive".into());
        }
        if let Some(t) = self.threads {
            if !(1..=MAX_THREADS).contains(&t) {
                return Err(format!("threads {t} outside 1..={MAX_THREADS}"));
            }
        }
        Ok(())
    }
}

impl Default for FastGlConfig {
    /// The paper's FastGL defaults: GCN, hidden 64, batch 8000, fanouts
    /// `[5, 10, 15]`, 2 GPUs, all three techniques enabled, auto cache.
    fn default() -> Self {
        Self {
            system: SystemSpec::rtx3090_server(2),
            model: ModelKind::Gcn,
            hidden_dim: 64,
            batch_size: 8000,
            fanouts: vec![5, 10, 15],
            sampler: SamplerKind::Neighbor,
            reorder_window: 8,
            cache_ratio: None,
            enable_match: true,
            enable_reorder: true,
            compute_mode: ComputeMode::MemoryAware,
            id_map: IdMapKind::Fused,
            sample_device: SampleDevice::Gpu,
            seed: 0x5EED,
            threads: None,
            telemetry: None,
            prefetch_windows: None,
            faults: None,
        }
    }
}

/// Reads and checks every `FASTGL_*` variable, the fault plan's grammar
/// included. Programs call this before any work and exit with status 1 on
/// the error, so that no bad setting is met halfway through a run.
///
/// # Errors
///
/// The first variable that breaks its rule (see
/// [`fastgl_telemetry::settings`]).
pub fn check_env() -> Result<(), SettingsError> {
    settings::check()?;
    env_faults().map(drop)
}

/// `FASTGL_FAULTS` parsed into a plan; `None` when unset or blank.
fn env_faults() -> Result<Option<FaultPlan>, SettingsError> {
    let Some(text) = settings::faults()? else {
        return Ok(None);
    };
    FaultPlan::parse(&text).map(Some).map_err(|e| {
        SettingsError::new(
            settings::FAULTS,
            text,
            format!("a fault plan such as 'pcie_stall@batch=7,oom@epoch=1'; {e}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = FastGlConfig::default();
        c.validate().unwrap();
        assert_eq!(c.batch_size, 8000);
        assert_eq!(c.fanouts, vec![5, 10, 15]);
        assert_eq!(c.num_layers(), 3);
        assert_eq!(c.compute_mode, ComputeMode::MemoryAware);
        assert_eq!(c.id_map, IdMapKind::Fused);
    }

    #[test]
    fn builders_chain() {
        let c = FastGlConfig {
            hidden_dim: 128,
            ..Default::default()
        }
        .with_batch_size(2000)
        .with_model(ModelKind::Gat)
        .with_gpus(4)
        .with_cache_ratio(0.25)
        .with_fanouts(vec![5, 10])
        .with_seed(9);
        c.validate().unwrap();
        assert_eq!(c.batch_size, 2000);
        assert_eq!(c.system.num_gpus, 4);
        assert_eq!(c.cache_ratio, Some(0.25));
        assert_eq!(c.num_layers(), 2);
    }

    #[test]
    fn random_walk_has_one_layer() {
        let c = FastGlConfig::default().with_random_walk();
        assert_eq!(c.num_layers(), 1);
    }

    #[test]
    fn layer_wise_matches_fanout_depth() {
        let c = FastGlConfig::default().with_layer_wise();
        assert_eq!(c.num_layers(), 3);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert!(FastGlConfig::default()
            .with_batch_size(0)
            .validate()
            .is_err());
        assert!(FastGlConfig::default()
            .with_fanouts(vec![])
            .validate()
            .is_err());
        assert!(FastGlConfig::default()
            .with_fanouts(vec![5, 0])
            .validate()
            .is_err());
        assert!(FastGlConfig::default()
            .with_cache_ratio(1.5)
            .validate()
            .is_err());
        assert!(FastGlConfig {
            hidden_dim: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FastGlConfig::default().with_threads(0).validate().is_err());
        let capped = FastGlConfig::default().with_threads(MAX_THREADS);
        capped.validate().unwrap();
        let err = FastGlConfig::default()
            .with_threads(MAX_THREADS + 1)
            .validate()
            .unwrap_err();
        assert_eq!(err, "threads 257 outside 1..=256");
        let c = FastGlConfig {
            reorder_window: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn threads_default_and_builder() {
        assert_eq!(FastGlConfig::default().threads, None);
        let c = FastGlConfig::default().with_threads(4);
        assert_eq!(c.threads, Some(4));
        c.validate().unwrap();
    }

    #[test]
    fn prefetch_default_and_builder() {
        let c = FastGlConfig::default();
        assert_eq!(c.prefetch_windows, None);
        let c = c.with_prefetch_windows(4);
        assert_eq!(c.prefetch_windows, Some(4));
        assert_eq!(c.resolved_prefetch(), 4);
        c.validate().unwrap();
        // Depth 0 is valid and forces the serial path.
        FastGlConfig::default()
            .with_prefetch_windows(0)
            .validate()
            .unwrap();
    }

    #[test]
    fn faults_default_and_builder() {
        let c = FastGlConfig::default();
        assert_eq!(c.faults, None);
        // With no explicit plan and no FASTGL_FAULTS, there are no faults.
        // (Tests that set the env var live in the resilience suite; the
        // unit tests here must not mutate process-wide state.)
        let plan: FaultPlan = "pcie_stall@batch=7".parse().unwrap();
        let c = c.with_faults(plan.clone());
        assert_eq!(c.faults, Some(plan.clone()));
        assert_eq!(c.resolved_faults().unwrap(), Some(plan));
        c.validate().unwrap();
    }

    #[test]
    fn telemetry_default_and_builder() {
        assert_eq!(FastGlConfig::default().telemetry, None);
        let c = FastGlConfig::default().with_telemetry(true);
        assert_eq!(c.telemetry, Some(true));
        c.validate().unwrap();
        // `None` must not clobber whatever the process already decided.
        FastGlConfig::default().apply_telemetry();
    }
}
