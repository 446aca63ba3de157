//! The training pipeline of Fig. 5: sample a window of mini-batches,
//! reorder them, then alternate Match-loading and computation.
//!
//! An epoch is a `WindowPlan` run through the [`PipelineExecutor`] in
//! three named stages: the sample stage draws each window through the
//! plan, the prepare stage (`MatchStage`) reorders it and matches every
//! batch against the resident set, and the execute stage
//! (`ExecuteStage`) loads and prices each batch into one accumulator,
//! which `Pipeline::finish` turns into [`EpochStats`] and the window
//! trace.
//!
//! The same [`Pipeline`] drives FastGL *and* every baseline — they differ
//! only in the [`PipelinePolicy`] and [`FastGlConfig`] knobs (sample
//! device, ID-map strategy, Match/Reorder, cache policy, compute mode,
//! sample/compute overlap), which is exactly the comparison the paper
//! makes by running all systems on identical hardware.
//!
//! Multi-GPU runs are data-parallel (paper §5): training seeds shard
//! round-robin across trainer GPUs, each GPU trains its shard, and a ring
//! all-reduce synchronises gradients every iteration. The pipeline
//! simulates GPU 0's shard — the shards are statistically identical — and
//! charges the all-reduce plus host-side gather contention from the other
//! GPUs' loaders.

use crate::cache::FeatureCache;
use crate::compute::ComputeEngine;
use crate::config::FastGlConfig;
use crate::executor::{PipelineExecutor, PipelineWallStats, WindowPlan};
use crate::hotness::{rank_nodes, CacheRankPolicy, HotnessCounter};
use crate::io::IoEngine;
use crate::match_reorder::match_load_set;
use crate::memory_model::estimate_batch_memory;
use crate::multi_gpu::GpuRoles;
use crate::resilience::{FaultInjector, ResilienceStats};
use crate::sampler::{SampleTiming, SamplerEngine};
use crate::stage_trace::{EpochWindowTrace, WindowPhases};
use crate::system::{EpochStats, TrainingSystem};
use fastgl_gnn::{census, ModelConfig};
use fastgl_gpusim::fault::RetryCostModel;
use fastgl_gpusim::SimTime;
use fastgl_graph::{DatasetBundle, DeterministicRng, NodeId};
use fastgl_sample::{MinibatchPlan, SampleStats, SampledSubgraph};

/// How the device feature cache is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CachePolicy {
    /// No cache (PyG, DGL, GNNAdvisor).
    None,
    /// Use whatever device memory the workload leaves over (GNNLab,
    /// PaGraph, FastGL §5).
    Auto,
    /// Cache an explicit fraction of the dataset's feature rows
    /// (the `cache ratio` sweep of Fig. 10a).
    Ratio(f64),
}

/// The policy knobs that distinguish FastGL from the baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelinePolicy {
    /// Reuse overlapping rows between consecutive resident batches.
    pub use_match: bool,
    /// Greedily reorder each sampled window (Algorithm 1).
    pub use_reorder: bool,
    /// Device feature-cache sizing.
    pub cache: CachePolicy,
    /// GPUs dedicated to sampling (GNNLab's factored design); 0 means
    /// every GPU samples its own shard.
    pub sampler_gpus: usize,
    /// Whether sampling overlaps training (true for GNNLab, whose
    /// dedicated sampler GPU hides sampling latency behind compute).
    pub overlap_sample: bool,
    /// How the cache ranks residents: by degree (PaGraph/FastGL) or by
    /// pre-sampled hotness (GNNLab).
    pub cache_rank: CacheRankPolicy,
}

impl PipelinePolicy {
    /// The policy FastGL's own configuration flags imply.
    pub fn from_config(config: &FastGlConfig) -> Self {
        Self {
            use_match: config.enable_match,
            use_reorder: config.enable_reorder,
            cache: match config.cache_ratio {
                Some(r) => CachePolicy::Ratio(r),
                None => CachePolicy::Auto,
            },
            sampler_gpus: 0,
            overlap_sample: false,
            cache_rank: CacheRankPolicy::Degree,
        }
    }
}

/// One sampled mini-batch travelling through the window pipeline.
struct SampledBatch {
    /// Index of the batch in the epoch's plan (fault triggers key off it).
    index: u64,
    sg: SampledSubgraph,
    stats: SampleStats,
    timing: SampleTiming,
}

/// A sampled batch with its Match load set, in execution order.
struct PreparedBatch {
    batch: SampledBatch,
    load: Vec<NodeId>,
    reused: u64,
}

/// The prepare stage: reorders a sampled window through the plan, then
/// builds each batch's Match load set against the resident set (the
/// batch that ran last), which it carries from window to window. The
/// resident set is kept only when Match is on; without Match every node
/// loads, in the subgraph's own order, because the cache partition needs
/// no order and nothing else reads the load list's order.
struct MatchStage {
    use_match: bool,
    resident: Vec<NodeId>,
}

impl MatchStage {
    fn prepare(&mut self, windows: &WindowPlan, sampled: Vec<SampledBatch>) -> Vec<PreparedBatch> {
        let order = windows.order(sampled.iter().map(|b| &b.sg));
        let mut slots: Vec<Option<SampledBatch>> = sampled.into_iter().map(Some).collect();
        order
            .into_iter()
            .map(|idx| {
                let batch = slots[idx].take().expect("window index visited once");
                let (load, reused) = if self.use_match {
                    let incoming = batch.sg.sorted_global_ids();
                    let m = match_load_set(incoming, &self.resident);
                    self.resident = incoming.to_vec();
                    (m.load, m.reused)
                } else {
                    (batch.sg.nodes.clone(), 0)
                };
                PreparedBatch {
                    batch,
                    load,
                    reused,
                }
            })
            .collect()
    }
}

/// Everything the execute stage adds up over one epoch.
#[derive(Default)]
struct EpochTotals {
    /// The epoch's statistics; the hit rates and GFLOP/s hold per-batch
    /// sums until `Pipeline::finish` turns them into means.
    stats: EpochStats,
    /// One entry per window; `visible_sample` is set by `finish`.
    windows: Vec<WindowPhases>,
    res: ResilienceStats,
}

/// The execute stage: loads each prepared batch's missing feature rows
/// and prices its computation, in the (re)ordered sequence, adding into
/// the epoch's totals. It runs on the caller's thread in FIFO window
/// order, so every sum (and its floating-point rounding) matches the
/// serial loop at any prefetch depth.
struct ExecuteStage<'a> {
    cache: &'a FeatureCache,
    io: IoEngine,
    compute: &'a mut ComputeEngine,
    injector: Option<&'a FaultInjector>,
    retry_model: RetryCostModel,
    dims: Vec<(usize, usize)>,
    param_bytes: u64,
    feature_dim: usize,
    allreduce: SimTime,
    totals: EpochTotals,
}

impl ExecuteStage<'_> {
    fn execute(&mut self, prepared: Vec<PreparedBatch>) {
        let t = &mut self.totals;
        let mut phases = WindowPhases::default();
        for p in prepared {
            let b = &p.batch;
            phases.sample += b.timing.total;
            t.stats.id_map_time += b.timing.id_map;
            t.stats.edges_sampled += b.stats.edges_sampled;

            let (cache_hits, misses) = self.cache.partition(&p.load);
            let fault = self.injector.and_then(|inj| inj.transfer_fault(b.index));
            let ft = self.io.load_rows_faulted(
                misses.len() as u64,
                self.feature_dim as u64 * 4,
                fault.as_ref(),
                &self.retry_model,
            );
            phases.io += ft.time;
            t.res.pcie_stalls += ft.stalled as u64;
            t.res.transfer_retries += u64::from(ft.retries);
            t.res.fault_overhead += ft.overhead;
            t.stats.rows_loaded += misses.len() as u64;
            t.stats.rows_reused += p.reused;
            t.stats.rows_cached += cache_hits;

            let workloads = census(&b.sg, &self.dims);
            let comp = self.compute.batch_time(&b.sg, &workloads);
            phases.compute += comp.time + self.allreduce;
            t.stats.l1_hit_rate += comp.l1_hit_rate;
            t.stats.l2_hit_rate += comp.l2_hit_rate;
            t.stats.aggregation_gflops += comp.aggregation_gflops;

            let est = estimate_batch_memory(
                &workloads,
                self.param_bytes,
                b.sg.num_nodes(),
                self.feature_dim,
                b.sg.topology_bytes(),
                b.stats.id_map.total_ids,
                self.cache.bytes(),
            );
            t.stats.peak_memory_bytes = t.stats.peak_memory_bytes.max(est.total());
            t.stats.iterations += 1;
        }
        t.windows.push(phases);
    }
}

/// The generic sampling-based training pipeline.
#[derive(Debug)]
pub struct Pipeline {
    name: &'static str,
    config: FastGlConfig,
    policy: PipelinePolicy,
    compute: ComputeEngine,
    sampler: SamplerEngine,
    /// Lazily determined auto-cache size (rows), per pipeline lifetime.
    auto_cache_rows: Option<u64>,
    /// Wall-clock stage accounting of the most recent epoch.
    last_wall: Option<PipelineWallStats>,
    /// Per-window simulated stage timings of the most recent epoch.
    last_trace: Option<EpochWindowTrace>,
    /// Deterministic fault injection (see [`crate::resilience`]); `None`
    /// runs fault-free.
    injector: Option<FaultInjector>,
    /// Cumulative fault-recovery accounting over the pipeline's lifetime.
    total_resilience: ResilienceStats,
}

impl Pipeline {
    /// Builds a pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails, if the policy dedicates every
    /// GPU to sampling, or if the `FASTGL_FAULTS` environment variable is
    /// set but malformed (the message names the offending entry; prefer
    /// [`crate::FastGlConfig::resolved_faults`] to handle that case as a
    /// typed error).
    pub fn new(name: &'static str, config: FastGlConfig, policy: PipelinePolicy) -> Self {
        config.validate().expect("invalid pipeline configuration");
        assert!(
            policy.sampler_gpus < config.system.num_gpus,
            "at least one GPU must train"
        );
        let injector = config
            .resolved_faults()
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"))
            .map(FaultInjector::new);
        config.apply_threads();
        config.apply_telemetry();
        let compute = ComputeEngine::new(config.system.clone(), config.compute_mode, config.model);
        let sampler = SamplerEngine::new(&config);
        Self {
            name,
            config,
            policy,
            compute,
            sampler,
            auto_cache_rows: None,
            last_wall: None,
            last_trace: None,
            injector,
            total_resilience: ResilienceStats::default(),
        }
    }

    /// Wall-clock busy/stall accounting of the most recent epoch's window
    /// pipeline (`None` before the first epoch). Purely observational:
    /// prefetch depth never changes simulated results.
    pub fn pipeline_wall_stats(&self) -> Option<PipelineWallStats> {
        self.last_wall
    }

    /// Per-window simulated stage timings of the most recent epoch
    /// (`None` before the first epoch). Deterministic: identical at any
    /// thread count or prefetch depth, unlike the wall-clock stats.
    pub fn window_trace(&self) -> Option<&EpochWindowTrace> {
        self.last_trace.as_ref()
    }

    /// Cumulative fault-recovery accounting over every epoch this
    /// pipeline has run (all zero on a fault-free run, and entirely
    /// absent from [`EpochStats`] so the fault-free statistics stay
    /// byte-identical with the resilience layer idle).
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.total_resilience
    }

    fn roles(&self) -> GpuRoles {
        GpuRoles::new(self.config.system.num_gpus, self.policy.sampler_gpus)
    }

    /// Sizes the feature cache for `data`, probing one batch when `Auto`.
    fn build_cache(&mut self, data: &DatasetBundle) -> FeatureCache {
        let row_bytes = data.spec.feature_dim as u64 * 4;
        let rows = match self.policy.cache {
            CachePolicy::None => 0,
            CachePolicy::Ratio(r) => (data.graph.num_nodes() as f64 * r) as u64,
            CachePolicy::Auto => match self.auto_cache_rows {
                Some(rows) => rows,
                None => {
                    let rows = self.probe_auto_cache_rows(data);
                    self.auto_cache_rows = Some(rows);
                    rows
                }
            },
        };
        if rows == 0 {
            return FeatureCache::empty();
        }
        match self.policy.cache_rank {
            CacheRankPolicy::Degree => FeatureCache::degree_ordered(&data.graph, rows, row_bytes),
            CacheRankPolicy::PreSampledHotness => {
                let counter = self.presample_hotness(data);
                let ranking = rank_nodes(
                    CacheRankPolicy::PreSampledHotness,
                    &data.graph,
                    Some(&counter),
                );
                FeatureCache::from_ranking(&ranking, rows, row_bytes)
            }
        }
    }

    /// GNNLab's offline pre-sampling pass: sample a few probe batches and
    /// count node appearances (not charged to epoch time).
    fn presample_hotness(&self, data: &DatasetBundle) -> HotnessCounter {
        let mut counter = HotnessCounter::new(data.graph.num_nodes());
        let mut rng = DeterministicRng::seed(self.config.seed ^ 0x407E55).derive(3);
        let plan = MinibatchPlan::new(
            data.train_nodes(),
            self.config.batch_size as usize,
            self.config.seed ^ 0x407E55,
            0,
        );
        for seeds in plan.iter().take(3) {
            let (sg, _) = self.sampler.sample_batch(&data.graph, seeds, &mut rng);
            counter.record(&sg);
        }
        counter
    }

    /// Samples one probe batch to estimate the working set, then sizes the
    /// cache to the remaining device memory (GNNLab's offline profiling
    /// phase, paid once, not charged to epoch time).
    ///
    /// Device capacity and the fixed runtime reservation are scaled by the
    /// dataset's scale factor: the experiments shrink graphs ~100x, and a
    /// full-size 24 GB device would cache every scaled dataset entirely,
    /// erasing the memory-pressure regime the paper's large graphs are in.
    fn probe_auto_cache_rows(&mut self, data: &DatasetBundle) -> u64 {
        let model_cfg = self.model_config(data);
        let dims = model_cfg.layer_dims();
        let mut rng = DeterministicRng::seed(self.config.seed ^ 0xCAC4E).derive(7);
        let seeds: Vec<NodeId> = data
            .train_nodes()
            .iter()
            .take(self.config.batch_size as usize)
            .copied()
            .collect();
        if seeds.is_empty() {
            return 0;
        }
        let (sg, stats) = self.sampler.sample_batch(&data.graph, &seeds, &mut rng);
        let workloads = census(&sg, &dims);
        let scale = data.spec.scale.clamp(0.0, 1.0);
        let est = crate::memory_model::estimate_batch_memory_with_runtime(
            &workloads,
            model_cfg.param_bytes(),
            sg.num_nodes(),
            data.spec.feature_dim,
            sg.topology_bytes(),
            stats.id_map.total_ids,
            0,
            (crate::memory_model::RUNTIME_RESERVED_BYTES as f64 * scale) as u64,
        );
        let capacity = (self.config.system.device.global_bytes as f64 * scale) as u64;
        let remaining = est.remaining(capacity);
        let row_bytes = data.spec.feature_dim as u64 * 4;
        (remaining / row_bytes).min(data.graph.num_nodes())
    }

    fn model_config(&self, data: &DatasetBundle) -> ModelConfig {
        ModelConfig::paper(
            self.config.model,
            data.spec.feature_dim,
            data.spec.num_classes,
        )
        .with_layers(self.config.num_layers())
        .with_hidden(self.config.hidden_dim)
    }

    /// Turns the execute stage's totals into the epoch's statistics and
    /// window trace, and records the epoch's wall and resilience figures.
    fn finish(
        &mut self,
        mut totals: EpochTotals,
        bytes_h2d: u64,
        roles: GpuRoles,
        wall: PipelineWallStats,
        feature_dim: usize,
    ) -> EpochStats {
        self.last_wall = Some(wall);
        // The only panics a pipeline run recovers from are injected ones,
        // so recovered panics == sample-stage replays.
        let res = &mut totals.res;
        res.stage_replays = wall.sample.replays + wall.prepare.replays + wall.execute.replays;
        res.worker_panics = wall.sample.replays;
        res.emit_telemetry();
        self.total_resilience += *res;

        // GNNLab's factored design: `sampler_gpus` GPUs sample for all
        // trainers; the latency is hidden behind training unless the
        // sampling work outruns it (paper Fig. 14d). The per-window
        // overlap model charges the fill plus any window where sampling
        // outruns training; the breakdown is the sum of the windows, so
        // it and the stage trace agree to the nanosecond.
        let overlap_sample = self.policy.overlap_sample;
        let sample: Vec<SimTime> = totals.windows.iter().map(|w| w.sample).collect();
        let train: Vec<SimTime> = totals.windows.iter().map(|w| w.io + w.compute).collect();
        let visible = if overlap_sample {
            roles.visible_sample_per_window(&sample, &train)
        } else {
            sample
        };
        for (w, v) in totals.windows.iter_mut().zip(visible) {
            w.visible_sample = v;
        }
        let trace = EpochWindowTrace {
            windows: totals.windows,
            overlap_sample,
        };
        let mut stats = totals.stats;
        stats.breakdown = trace.visible_breakdown();
        self.last_trace = Some(trace);
        stats.bytes_h2d = bytes_h2d;
        if stats.iterations > 0 {
            let inv = 1.0 / stats.iterations as f64;
            stats.l1_hit_rate *= inv;
            stats.l2_hit_rate *= inv;
            stats.aggregation_gflops *= inv;
        }
        stats.breakdown.emit_telemetry();
        {
            use fastgl_telemetry::names;
            let row_bytes = feature_dim as u64 * 4;
            fastgl_telemetry::counter_add(names::PIPELINE_ITERATIONS, stats.iterations);
            fastgl_telemetry::counter_add(names::PIPELINE_ROWS_REUSED, stats.rows_reused);
            fastgl_telemetry::counter_add(names::PIPELINE_ROWS_CACHED, stats.rows_cached);
            // PCIe bytes the Match-Reorder reuse and the feature cache
            // avoided, for the memory-hierarchy attribution report.
            fastgl_telemetry::counter_add(
                names::PIPELINE_BYTES_REUSE_SAVED,
                stats.rows_reused * row_bytes,
            );
            fastgl_telemetry::counter_add(
                names::PIPELINE_BYTES_CACHE_SAVED,
                stats.rows_cached * row_bytes,
            );
        }
        stats
    }
}

impl TrainingSystem for Pipeline {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run_epoch(&mut self, data: &DatasetBundle, epoch: u64) -> EpochStats {
        let _span = fastgl_telemetry::span(fastgl_telemetry::names::SPAN_PIPELINE_EPOCH);
        self.compute.set_workload_scale(data.spec.scale);
        // Re-calibrate the memoised hit rates each epoch: the memo must
        // not leak state across epochs, or `run_epoch` stops being a pure
        // function of `(data, epoch)` and checkpoint/resume diverges
        // (DESIGN.md §10). Within the epoch it still traces only once
        // per layer.
        self.compute.reset_trace_cache();
        let roles = self.roles();
        let shards = data.split.shard_train(roles.trainers);
        let plan = MinibatchPlan::new(
            &shards[0],
            self.config.batch_size as usize,
            self.config.seed ^ data.spec.dataset as u64,
            epoch,
        );
        let window = if self.policy.use_reorder {
            self.config.reorder_window.max(2)
        } else {
            1
        };
        let rng_base = DeterministicRng::seed(self.config.seed ^ 0x9A9A ^ data.spec.dataset as u64)
            .derive(epoch);
        let windows = WindowPlan::new(&plan, window, rng_base, self.policy.use_reorder);

        let mut totals = EpochTotals::default();
        let mut cache = self.build_cache(data);
        let injector = self.injector.as_ref();
        if let Some(fraction) = injector.and_then(|inj| inj.cache_pressure(epoch)) {
            // Injected device-memory pressure: shed the coldest rows and
            // keep going — the lost hits become PCIe loads, visible in
            // `EpochStats::bytes_h2d` and the IO phase time.
            let (shrunk, evicted) = cache.evict_fraction(fraction);
            cache = shrunk;
            totals.res.evicted_rows = evicted;
        }
        let mut executor = PipelineExecutor::new(self.config.resolved_prefetch());
        if injector.is_some() {
            // Budget for recovering injected worker panics by replaying
            // the in-flight window (each plan entry fires once per epoch).
            executor = executor.with_stage_retries(2);
        }
        let model_cfg = self.model_config(data);
        let (sampler, config, graph) = (&self.sampler, &self.config, &data.graph);
        let mut prepare = MatchStage {
            use_match: self.policy.use_match,
            resident: Vec::new(),
        };
        let mut execute = ExecuteStage {
            cache: &cache,
            io: IoEngine::new(&config.system, roles.trainers),
            compute: &mut self.compute,
            injector,
            retry_model: injector.map(|i| *i.retry_model()).unwrap_or_default(),
            dims: model_cfg.layer_dims(),
            param_bytes: model_cfg.param_bytes(),
            feature_dim: data.spec.feature_dim,
            allreduce: roles.allreduce_time(&config.system, model_cfg.param_bytes()),
            totals,
        };

        let wall = executor.run(
            windows.covering(0..plan.len()),
            // The Fused-Map sample stage, on a worker thread when
            // pipelined: each batch draws from its own plan stream.
            |w| {
                if injector.is_some_and(|inj| inj.take_worker_panic(epoch, w as u64)) {
                    // Simulated stage-worker crash; the executor replays
                    // this window and the injector's fire-once state lets
                    // the replay through.
                    panic!("injected worker panic at window {w} of epoch {epoch}");
                }
                windows.sample(w, |index, seeds, rng| {
                    let (sg, stats) = sampler.sample_batch(graph, seeds, rng);
                    let timing = sampler.sample_time(&stats, &config.system.cost);
                    SampledBatch {
                        index: index as u64,
                        sg,
                        stats,
                        timing,
                    }
                })
            },
            |_, sampled| prepare.prepare(&windows, sampled),
            |_, prepared| execute.execute(prepared),
        );
        let ExecuteStage { io, totals, .. } = execute;
        self.finish(totals, io.bytes_h2d(), roles, wall, data.spec.feature_dim)
    }
}

/// The FastGL training system: the pipeline with all three of the paper's
/// techniques enabled (Match-Reorder, Memory-Aware computation, Fused-Map
/// sampling), plus the opportunistic feature cache of §5.
#[derive(Debug)]
pub struct FastGl {
    inner: Pipeline,
}

impl FastGl {
    /// Builds FastGL from its configuration; the policy follows the
    /// config's ablation flags (`enable_match`, `enable_reorder`, …).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: FastGlConfig) -> Self {
        let policy = PipelinePolicy::from_config(&config);
        Self {
            inner: Pipeline::new("FastGL", config, policy),
        }
    }

    /// Wall-clock stage accounting of the most recent epoch's window
    /// pipeline (`None` before the first epoch).
    pub fn pipeline_wall_stats(&self) -> Option<PipelineWallStats> {
        self.inner.pipeline_wall_stats()
    }

    /// Per-window simulated stage timings of the most recent epoch
    /// (`None` before the first epoch).
    pub fn window_trace(&self) -> Option<&EpochWindowTrace> {
        self.inner.window_trace()
    }

    /// Cumulative fault-recovery accounting over every epoch run so far
    /// (all zero on a fault-free run; see [`crate::resilience`]).
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.inner.resilience_stats()
    }
}

impl TrainingSystem for FastGl {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_epoch(&mut self, data: &DatasetBundle, epoch: u64) -> EpochStats {
        self.inner.run_epoch(data, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ComputeMode, IdMapKind};
    use fastgl_graph::Dataset;

    fn small_data() -> DatasetBundle {
        Dataset::Products.generate_scaled(1.0 / 1024.0, 11)
    }

    fn small_config() -> FastGlConfig {
        FastGlConfig::default()
            .with_batch_size(32)
            .with_fanouts(vec![3, 5])
    }

    #[test]
    fn fastgl_epoch_runs_and_accounts_phases() {
        let data = small_data();
        let mut sys = FastGl::new(small_config());
        let s = sys.run_epoch(&data, 0);
        assert!(s.iterations > 0);
        assert!(s.breakdown.sample > SimTime::ZERO);
        assert!(s.breakdown.compute > SimTime::ZERO);
        assert!(s.total() > SimTime::ZERO);
        assert!(
            s.rows_loaded + s.rows_reused + s.rows_cached > 0,
            "rows must be accounted"
        );
    }

    #[test]
    fn epochs_are_deterministic() {
        let data = small_data();
        let mut a = FastGl::new(small_config());
        let mut b = FastGl::new(small_config());
        assert_eq!(a.run_epoch(&data, 3), b.run_epoch(&data, 3));
    }

    #[test]
    fn match_reduces_loaded_rows() {
        let data = small_data();
        let mut with_match = FastGl::new(small_config());
        let mut cfg = small_config();
        cfg.enable_match = false;
        cfg.enable_reorder = false;
        cfg.cache_ratio = Some(0.0);
        let mut without = FastGl::new(cfg);
        let mut cfg2 = small_config();
        cfg2.cache_ratio = Some(0.0);
        let mut match_only = FastGl::new(cfg2);
        let s_without = without.run_epoch(&data, 0);
        let s_match = match_only.run_epoch(&data, 0);
        let _ = with_match.run_epoch(&data, 0);
        assert!(
            s_match.rows_loaded < s_without.rows_loaded,
            "match {} vs naive {}",
            s_match.rows_loaded,
            s_without.rows_loaded
        );
        assert!(s_match.rows_reused > 0);
        assert_eq!(s_without.rows_reused, 0);
    }

    #[test]
    fn fastgl_beats_naive_pipeline_end_to_end() {
        let data = small_data();
        let mut fast = FastGl::new(small_config());
        let mut naive_cfg = small_config();
        naive_cfg.enable_match = false;
        naive_cfg.enable_reorder = false;
        naive_cfg.cache_ratio = Some(0.0);
        naive_cfg.compute_mode = ComputeMode::Naive;
        naive_cfg.id_map = IdMapKind::Baseline;
        let mut naive = FastGl::new(naive_cfg);
        let t_fast = fast.run_epoch(&data, 0).total();
        let t_naive = naive.run_epoch(&data, 0).total();
        let speedup = t_naive.as_secs_f64() / t_fast.as_secs_f64();
        assert!(speedup > 1.2, "end-to-end speedup {speedup}");
    }

    #[test]
    fn more_gpus_shrink_per_epoch_time_sublinearly() {
        // Heavier per-batch work than the other tests so the all-reduce
        // and gather-contention terms do not mask the shard parallelism.
        let data = Dataset::Products.generate_scaled(1.0 / 256.0, 11);
        let cfg = FastGlConfig::default()
            .with_batch_size(64)
            .with_fanouts(vec![5, 10]);
        let mut one = FastGl::new(cfg.clone().with_gpus(1));
        let mut four = FastGl::new(cfg.with_gpus(4));
        let t1 = one.run_epoch(&data, 0).total().as_secs_f64();
        let t4 = four.run_epoch(&data, 0).total().as_secs_f64();
        let speedup = t1 / t4;
        assert!(speedup > 1.5, "4-GPU speedup {speedup}");
        assert!(speedup < 4.0, "scaling cannot be superlinear: {speedup}");
    }

    #[test]
    fn explicit_cache_ratio_serves_rows() {
        let data = small_data();
        let mut cfg = small_config().with_cache_ratio(0.5);
        cfg.enable_match = false;
        cfg.enable_reorder = false;
        let mut sys = FastGl::new(cfg);
        let s = sys.run_epoch(&data, 0);
        assert!(s.rows_cached > 0);
    }

    #[test]
    fn zero_cache_ratio_serves_none() {
        let data = small_data();
        let mut cfg = small_config().with_cache_ratio(0.0);
        cfg.enable_match = false;
        let mut sys = FastGl::new(cfg);
        let s = sys.run_epoch(&data, 0);
        assert_eq!(s.rows_cached, 0);
    }

    #[test]
    fn window_trace_reproduces_the_breakdown_exactly() {
        let data = small_data();
        let mut sys = FastGl::new(small_config());
        let s = sys.run_epoch(&data, 0);
        let trace = sys.window_trace().expect("trace after an epoch").clone();
        assert!(!trace.is_empty());
        assert_eq!(
            trace.visible_breakdown(),
            s.breakdown,
            "per-window attribution must sum to the epoch breakdown"
        );
        assert_eq!(trace.visible_total(), s.total());
        assert!(!trace.overlap_sample);
        assert_eq!(trace.hidden_sample(), SimTime::ZERO);
    }

    #[test]
    fn overlapped_window_trace_still_sums_exactly() {
        let data = small_data();
        let policy = PipelinePolicy {
            use_match: false,
            use_reorder: false,
            cache: CachePolicy::None,
            sampler_gpus: 1,
            overlap_sample: true,
            cache_rank: crate::hotness::CacheRankPolicy::Degree,
        };
        let mut sys = Pipeline::new("factored", small_config(), policy);
        let s = sys.run_epoch(&data, 0);
        let trace = sys.window_trace().unwrap();
        assert!(trace.overlap_sample);
        assert_eq!(trace.visible_breakdown(), s.breakdown);
        assert!(
            trace.hidden_sample() > SimTime::ZERO,
            "the dedicated sampler must hide some sampling"
        );
    }

    #[test]
    fn overlap_hides_sampling_when_dedicated_gpu() {
        let data = small_data();
        let cfg = small_config(); // 2 GPUs
        let policy = PipelinePolicy {
            use_match: false,
            use_reorder: false,
            cache: CachePolicy::None,
            sampler_gpus: 1,
            overlap_sample: true,
            cache_rank: crate::hotness::CacheRankPolicy::Degree,
        };
        let mut factored = Pipeline::new("factored", cfg.clone(), policy);
        let mut plain_policy = policy;
        plain_policy.sampler_gpus = 0;
        plain_policy.overlap_sample = false;
        let mut plain = Pipeline::new("plain", cfg, plain_policy);
        let s_f = factored.run_epoch(&data, 0);
        let s_p = plain.run_epoch(&data, 0);
        assert!(
            s_f.breakdown.sample < s_p.breakdown.sample,
            "overlap must hide sampling: {} vs {}",
            s_f.breakdown.sample,
            s_p.breakdown.sample
        );
    }

    #[test]
    fn injected_faults_degrade_but_do_not_abort() {
        let data = small_data();
        let mut clean = FastGl::new(small_config());
        let plan = "pcie_stall@batch=1,transfer_error@batch=2:2,oom@epoch=0,worker_panic@window=0"
            .parse()
            .unwrap();
        let mut faulty = FastGl::new(small_config().with_faults(plan));
        let s_clean = clean.run_epoch(&data, 0);
        let s_faulty = faulty.run_epoch(&data, 0);
        let res = faulty.resilience_stats();
        assert!(res.any());
        assert_eq!(res.pcie_stalls, 1);
        assert_eq!(res.transfer_retries, 2);
        assert_eq!(res.worker_panics, 1, "panic recovered by replay");
        assert!(res.evicted_rows > 0, "cache shed rows under pressure");
        assert!(res.fault_overhead > SimTime::ZERO);
        // Degradation, not divergence: same work, more IO time and bytes.
        assert_eq!(s_faulty.iterations, s_clean.iterations);
        assert_eq!(s_faulty.edges_sampled, s_clean.edges_sampled);
        assert!(s_faulty.breakdown.io > s_clean.breakdown.io);
        assert!(s_faulty.bytes_h2d > s_clean.bytes_h2d);
        assert_eq!(clean.resilience_stats(), ResilienceStats::default());
    }

    #[test]
    fn faulted_epochs_are_deterministic() {
        let data = small_data();
        let plan: crate::resilience::FaultPlan =
            "pcie_stall@batch=0:2,oom@epoch=1:0.5,worker_panic@window=1"
                .parse()
                .unwrap();
        let mut a = FastGl::new(small_config().with_faults(plan.clone()));
        let mut b = FastGl::new(small_config().with_faults(plan));
        for epoch in 0..2 {
            assert_eq!(a.run_epoch(&data, epoch), b.run_epoch(&data, epoch));
            assert_eq!(a.resilience_stats(), b.resilience_stats());
        }
    }

    #[test]
    #[should_panic(expected = "at least one GPU must train")]
    fn all_sampler_gpus_rejected() {
        let cfg = small_config().with_gpus(1);
        let policy = PipelinePolicy {
            use_match: false,
            use_reorder: false,
            cache: CachePolicy::None,
            sampler_gpus: 1,
            overlap_sample: true,
            cache_rank: crate::hotness::CacheRankPolicy::Degree,
        };
        let _ = Pipeline::new("bad", cfg, policy);
    }
}
