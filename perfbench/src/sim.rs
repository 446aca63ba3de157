//! The two simulated workloads and their traced replay.
//!
//! The untraced epochs run the public `TrainingSystem::run_epoch`. The
//! replay re-drives the same epoch by calling each layer's public function
//! in the order `Pipeline::run_epoch` calls them, timing every call, and
//! rebuilds the epoch's `EpochStats`. The replay must equal the untraced
//! result exactly, field for field.

use crate::metrics::{ms, ratio, restart_heap_peak, Metrics, Trace};
use crate::{SetupTimes, Workload, THREADS};
use fastgl_baselines::DglSystem;
use fastgl_core::hotness::CacheRankPolicy;
use fastgl_core::io::IoEngine;
use fastgl_core::match_reorder::{greedy_reorder, match_load_set};
use fastgl_core::memory_model::estimate_batch_memory;
use fastgl_core::multi_gpu::GpuRoles;
use fastgl_core::sampler::SamplerEngine;
use fastgl_core::{
    CachePolicy, ComputeEngine, ComputeMode, EpochStats, FastGl, FastGlConfig, FeatureCache,
    IdMapKind, Pipeline, PipelinePolicy, PipelineWallStats, SampleDevice, TrainingSystem,
};
use fastgl_gnn::{census, ModelConfig};
use fastgl_gpusim::{PhaseBreakdown, SimTime};
use fastgl_graph::{Dataset, DatasetBundle, DeterministicRng, NodeId};
use fastgl_sample::overlap::match_degree_matrix;
use fastgl_sample::MinibatchPlan;
use std::time::{Duration, Instant};

/// Which training system a simulated workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// `fastgl_core::FastGl`: every FastGL mechanism.
    FastGl,
    /// `fastgl_baselines::DglSystem`: no Match/Reorder, no cache, baseline ID map.
    Dgl,
}

/// One simulated workload's inputs and settings.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// The system under test.
    pub system: SystemKind,
    /// The dataset the stand-in graph imitates.
    pub dataset: Dataset,
    /// Scale factor of the stand-in relative to the published graph.
    pub scale: f64,
    /// Fraction of nodes that are training seeds.
    pub train_fraction: f64,
    /// Mini-batch size.
    pub batch_size: u64,
    /// Window-pipeline prefetch depth of the untraced epochs.
    pub prefetch: usize,
}

impl SimSpec {
    /// Products ×1/64 (38,125 nodes, average degree ≈48) through FastGL
    /// with a 10% degree-ordered cache and prefetch 2: ≈50 batches per
    /// GPU per epoch.
    pub const FASTGL_PRODUCTS: SimSpec = SimSpec {
        system: SystemKind::FastGl,
        dataset: Dataset::Products,
        scale: 1.0 / 64.0,
        train_fraction: 0.67,
        batch_size: 256,
        prefetch: 2,
    };

    /// Papers100M ×1/1024 (108,398 nodes, average degree ≈16) through
    /// DGL, serial: ≈64 batches per GPU per epoch.
    pub const DGL_PAPERS: SimSpec = SimSpec {
        system: SystemKind::Dgl,
        dataset: Dataset::Papers100M,
        scale: 1.0 / 1024.0,
        train_fraction: 0.3,
        batch_size: 256,
        prefetch: 0,
    };

    /// Generates the workload's dataset from `seed`.
    pub fn dataset(&self, seed: u64) -> DatasetBundle {
        let mut spec = self.dataset.spec().scaled(self.scale);
        spec.train_fraction = self.train_fraction;
        spec.generate(seed)
    }

    /// The configuration handed to the system's constructor: threads,
    /// prefetch, telemetry and faults are all explicit, so no `FASTGL_*`
    /// variable can change the run.
    pub fn base_config(&self, seed: u64) -> FastGlConfig {
        let config = FastGlConfig::default()
            .with_batch_size(self.batch_size)
            .with_fanouts(vec![5, 10, 15])
            .with_seed(seed)
            .with_threads(THREADS)
            .with_telemetry(false)
            .with_prefetch_windows(self.prefetch);
        match self.system {
            SystemKind::FastGl => config.with_cache_ratio(0.1),
            SystemKind::Dgl => config,
        }
    }

    /// The configuration and policy the system's constructor derives from
    /// `base` (for DGL, the settings `DglSystem::new` applies).
    fn effective(&self, base: &FastGlConfig) -> (FastGlConfig, PipelinePolicy) {
        match self.system {
            SystemKind::FastGl => (base.clone(), PipelinePolicy::from_config(base)),
            SystemKind::Dgl => {
                let mut config = base.clone();
                config.sample_device = SampleDevice::Gpu;
                config.id_map = IdMapKind::Baseline;
                config.compute_mode = ComputeMode::Naive;
                config.enable_match = false;
                config.enable_reorder = false;
                config.cache_ratio = Some(0.0);
                let policy = PipelinePolicy {
                    use_match: false,
                    use_reorder: false,
                    cache: CachePolicy::None,
                    sampler_gpus: 0,
                    overlap_sample: false,
                    cache_rank: CacheRankPolicy::Degree,
                };
                (config, policy)
            }
        }
    }
}

/// The timed system. DGL runs as the `Pipeline` `DglSystem` wraps, because
/// only a `Pipeline` exposes its executor stats; the final check proves a
/// fresh `DglSystem` reproduces its results.
enum System {
    FastGl(FastGl),
    Dgl(Pipeline),
}

impl System {
    fn run_epoch(&mut self, data: &DatasetBundle, epoch: u64) -> EpochStats {
        match self {
            System::FastGl(s) => s.run_epoch(data, epoch),
            System::Dgl(s) => s.run_epoch(data, epoch),
        }
    }

    fn wall_stats(&self) -> PipelineWallStats {
        match self {
            System::FastGl(s) => s.pipeline_wall_stats(),
            System::Dgl(s) => s.pipeline_wall_stats(),
        }
        .expect("an epoch has run")
    }
}

/// Busy and stall metrics of the sample, prepare and execute stages.
const EXECUTOR_STAGES: [(&str, &str); 3] = [
    ("executor.sample_busy_ms", "executor.sample_stall_ms"),
    ("executor.prepare_busy_ms", "executor.prepare_stall_ms"),
    ("executor.execute_busy_ms", "executor.execute_stall_ms"),
];

/// Busy and stall time of each executor stage, summed over every timed
/// epoch.
#[derive(Debug, Default)]
struct ExecutorTotals {
    busy: [Duration; 3],
    stall: [Duration; 3],
    epochs: u64,
    wall: Duration,
}

/// A simulated workload after set-up.
pub struct SimBench {
    spec: SimSpec,
    base: FastGlConfig,
    data: DatasetBundle,
    system: System,
    replica: Replica,
    /// Untraced result of every timed epoch, in order.
    recorded: Vec<(u64, EpochStats)>,
    exec: ExecutorTotals,
    replay_edges: u64,
}

impl SimBench {
    /// Generates the graph, builds the system and runs the warm-up epoch.
    pub fn setup(spec: SimSpec, seed: u64) -> (Self, SetupTimes) {
        let start = Instant::now();
        let data = spec.dataset(seed);
        let generate = start.elapsed();
        restart_heap_peak();
        let base = spec.base_config(seed);
        let (config, policy) = spec.effective(&base);
        let mut system = match spec.system {
            SystemKind::FastGl => System::FastGl(FastGl::new(base.clone())),
            SystemKind::Dgl => System::Dgl(Pipeline::new("DGL", config.clone(), policy)),
        };
        let warm = Instant::now();
        system.run_epoch(&data, 0);
        let warmup = warm.elapsed();
        let total = start.elapsed();
        let bench = Self {
            spec,
            base,
            data,
            system,
            replica: Replica::new(config, policy),
            recorded: Vec::new(),
            exec: ExecutorTotals::default(),
            replay_edges: 0,
        };
        let times = SetupTimes {
            total,
            generate,
            warmup,
        };
        (bench, times)
    }

    fn stats_of(&self, epoch: u64) -> Option<&EpochStats> {
        self.recorded
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, s)| s)
    }

    /// Replays `epoch` and compares it with the untraced result recorded
    /// for epoch `against`.
    pub fn replay_against(&mut self, epoch: u64, against: u64, trace: &mut Trace) -> bool {
        let start = Instant::now();
        let replayed = self.replica.replay(&self.data, epoch, trace);
        trace.wall += start.elapsed();
        trace.epochs += 1;
        self.replay_edges += replayed.edges_sampled;
        self.stats_of(against) == Some(&replayed)
    }
}

impl Workload for SimBench {
    fn run_epoch(&mut self, epoch: u64) -> u64 {
        let start = Instant::now();
        let stats = self.system.run_epoch(&self.data, epoch);
        let wall = start.elapsed();
        let w = self.system.wall_stats();
        for (i, st) in [w.sample, w.prepare, w.execute].iter().enumerate() {
            self.exec.busy[i] += st.busy;
            self.exec.stall[i] += st.stall();
        }
        self.exec.epochs += 1;
        self.exec.wall += wall;
        self.recorded.push((epoch, stats));
        stats.iterations
    }

    fn replay_epoch(&mut self, epoch: u64, trace: &mut Trace) -> bool {
        self.replay_against(epoch, epoch, trace)
    }

    fn final_check(&mut self) -> bool {
        // `run_epoch` is pure in `(data, epoch)`: a freshly built system
        // must reproduce the first timed epoch exactly.
        let Some(&(epoch, expected)) = self.recorded.first() else {
            return false;
        };
        let again = match self.spec.system {
            SystemKind::FastGl => FastGl::new(self.base.clone()).run_epoch(&self.data, epoch),
            SystemKind::Dgl => DglSystem::new(self.base.clone()).run_epoch(&self.data, epoch),
        };
        again == expected
    }

    fn write_layers(&self, trace: &Trace, m: &mut Metrics) {
        let Some(&(_, first)) = self.recorded.first() else {
            return;
        };
        // Counts come from the first timed epoch, so they repeat exactly
        // for a seed whatever the host's speed.
        let needed = (first.rows_loaded + first.rows_reused + first.rows_cached) as f64;
        m.set("sampler.edges", first.edges_sampled as f64);
        m.set("sampler.nodes", needed);
        m.set(
            "sampler.edges_per_s",
            ratio(
                self.replay_edges as f64,
                trace.total("sampler.batch_ms").as_secs_f64(),
            ),
        );
        m.set(
            "match_reorder.reuse_ratio",
            ratio(first.rows_reused as f64, needed),
        );
        m.set(
            "cache.hit_ratio",
            ratio(
                first.rows_cached as f64,
                (first.rows_cached + first.rows_loaded) as f64,
            ),
        );
        m.set("io.rows_loaded", first.rows_loaded as f64);
        m.set("io.bytes_h2d", first.bytes_h2d as f64);
        let sim_ms = |t: SimTime| t.as_secs_f64() * 1e3;
        m.set("sim_epoch_ms", sim_ms(first.total()));
        m.set("sim.sample_ms", sim_ms(first.breakdown.sample));
        m.set("sim.io_ms", sim_ms(first.breakdown.io));
        m.set("sim.compute_ms", sim_ms(first.breakdown.compute));
        let n = self.exec.epochs.max(1) as f64;
        for (i, &(busy, stall)) in EXECUTOR_STAGES.iter().enumerate() {
            m.set(busy, ms(self.exec.busy[i]) / n);
            m.set(stall, ms(self.exec.stall[i]) / n);
        }
        let busy: Duration = self.exec.busy.iter().sum();
        m.set(
            "executor.overlap_ratio",
            ratio(busy.as_secs_f64(), self.exec.wall.as_secs_f64()),
        );
    }
}

/// The layers `Pipeline::run_epoch` drives, built from the same
/// configuration and policy as the timed system.
struct Replica {
    config: FastGlConfig,
    policy: PipelinePolicy,
    sampler: SamplerEngine,
    compute: ComputeEngine,
}

impl Replica {
    fn new(config: FastGlConfig, policy: PipelinePolicy) -> Self {
        let sampler = SamplerEngine::new(&config);
        let compute = ComputeEngine::new(config.system.clone(), config.compute_mode, config.model);
        Self {
            config,
            policy,
            sampler,
            compute,
        }
    }

    /// One serial epoch, every layer call timed into `trace`.
    fn replay(&mut self, data: &DatasetBundle, epoch: u64, trace: &mut Trace) -> EpochStats {
        let config = &self.config;
        let policy = self.policy;
        self.compute.set_workload_scale(data.spec.scale);
        self.compute.reset_trace_cache();
        let roles = GpuRoles::new(config.system.num_gpus, policy.sampler_gpus);
        let shards = data.split.shard_train(roles.trainers);
        let plan = MinibatchPlan::new(
            &shards[0],
            config.batch_size as usize,
            config.seed ^ data.spec.dataset as u64,
            epoch,
        );
        let row_bytes = data.spec.feature_dim as u64 * 4;
        let cache = trace.time("cache.build_ms", || match policy.cache {
            CachePolicy::None => FeatureCache::empty(),
            CachePolicy::Ratio(r) => match (data.graph.num_nodes() as f64 * r) as u64 {
                0 => FeatureCache::empty(),
                rows => FeatureCache::degree_ordered(&data.graph, rows, row_bytes),
            },
            CachePolicy::Auto => unreachable!("both workloads size their cache explicitly"),
        });
        let model_cfg =
            ModelConfig::paper(config.model, data.spec.feature_dim, data.spec.num_classes)
                .with_layers(config.num_layers())
                .with_hidden(config.hidden_dim);
        let dims = model_cfg.layer_dims();
        let param_bytes = model_cfg.param_bytes();
        let rng_base =
            DeterministicRng::seed(config.seed ^ 0x9A9A ^ data.spec.dataset as u64).derive(epoch);
        let mut io = IoEngine::new(&config.system, roles.trainers);
        let allreduce = roles.allreduce_time(&config.system, param_bytes);
        let window = if policy.use_reorder {
            config.reorder_window.max(2)
        } else {
            1
        };
        let batches: Vec<&[NodeId]> = plan.iter().collect();

        let mut stats = EpochStats::default();
        let (mut sample_total, mut io_total, mut compute_total) =
            (SimTime::ZERO, SimTime::ZERO, SimTime::ZERO);
        let (mut l1_sum, mut l2_sum, mut gflops_sum) = (0.0, 0.0, 0.0);
        let mut resident: Vec<NodeId> = Vec::new();
        for (w, chunk) in batches.chunks(window).enumerate() {
            // Sample stage.
            let sampled: Vec<_> = chunk
                .iter()
                .enumerate()
                .map(|(i, seeds)| {
                    let mut rng = rng_base.derive((w * window + i) as u64);
                    trace.time("sampler.batch_ms", || {
                        let (sg, s) = self.sampler.sample_batch(&data.graph, seeds, &mut rng);
                        let timing = self.sampler.sample_time(&s, &config.system.cost);
                        (sg, s, timing)
                    })
                })
                .collect();
            // Prepare stage: reorder, then Match against the resident set.
            let sets: Vec<&[NodeId]> = trace.time("sampler.sorted_ids_ms", || {
                sampled.iter().map(|b| b.0.sorted_global_ids()).collect()
            });
            let order: Vec<usize> = if policy.use_reorder && sets.len() > 1 {
                let matrix = trace.time("match_reorder.degree_matrix_ms", || {
                    match_degree_matrix(&sets)
                });
                trace.time("match_reorder.reorder_ms", || greedy_reorder(&matrix))
            } else {
                (0..sets.len()).collect()
            };
            let mut win_sample = SimTime::ZERO;
            for idx in order {
                let (sg, s_stats, timing) = &sampled[idx];
                let incoming = sets[idx];
                let (load, reused) = if policy.use_match {
                    let m = trace.time("match_reorder.match_ms", || {
                        match_load_set(incoming, &resident)
                    });
                    (m.load, m.reused)
                } else {
                    (incoming.to_vec(), 0)
                };
                resident = incoming.to_vec();
                // Execute stage.
                win_sample += timing.total;
                stats.id_map_time += timing.id_map;
                stats.edges_sampled += s_stats.edges_sampled;
                let (hits, misses) = trace.time("cache.partition_ms", || cache.partition(&load));
                let io_time = trace.time("io.load_ms", || {
                    io.load_rows(misses.len() as u64, row_bytes)
                });
                io_total += io_time;
                stats.rows_loaded += misses.len() as u64;
                stats.rows_reused += reused;
                stats.rows_cached += hits;
                let workloads = trace.time("compute.census_ms", || census(sg, &dims));
                let comp = trace.time("compute.batch_time_ms", || {
                    self.compute.batch_time(sg, &workloads)
                });
                compute_total += comp.time + allreduce;
                l1_sum += comp.l1_hit_rate;
                l2_sum += comp.l2_hit_rate;
                gflops_sum += comp.aggregation_gflops;
                let est = estimate_batch_memory(
                    &workloads,
                    param_bytes,
                    sg.num_nodes(),
                    data.spec.feature_dim,
                    sg.topology_bytes(),
                    s_stats.id_map.total_ids,
                    cache.bytes(),
                );
                stats.peak_memory_bytes = stats.peak_memory_bytes.max(est.total());
                stats.iterations += 1;
            }
            sample_total += win_sample;
        }
        // Neither workload overlaps sampling, so all of it is visible.
        stats.breakdown = PhaseBreakdown {
            sample: sample_total,
            io: io_total,
            compute: compute_total,
        };
        stats.bytes_h2d = io.bytes_h2d();
        if stats.iterations > 0 {
            let inv = 1.0 / stats.iterations as f64;
            stats.l1_hit_rate = l1_sum * inv;
            stats.l2_hit_rate = l2_sum * inv;
            stats.aggregation_gflops = gflops_sum * inv;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small FastGL workload that still has reorder windows, Match
    /// reuse and cache misses.
    fn small() -> SimSpec {
        SimSpec {
            scale: 1.0 / 2048.0,
            batch_size: 32,
            ..SimSpec::FASTGL_PRODUCTS
        }
    }

    #[test]
    fn replay_reproduces_run_epoch_exactly() {
        for spec in [
            small(),
            SimSpec {
                scale: 1.0 / 65536.0,
                ..SimSpec::DGL_PAPERS
            },
        ] {
            let (mut bench, _) = SimBench::setup(spec, 3);
            bench.run_epoch(1);
            let mut trace = Trace::default();
            assert!(bench.replay_epoch(1, &mut trace), "{:?}", spec.system);
            assert!(bench.final_check(), "{:?}", spec.system);
        }
    }

    #[test]
    fn replaying_the_wrong_epoch_counts_as_a_failure() {
        let (mut bench, _) = SimBench::setup(small(), 3);
        bench.run_epoch(1);
        bench.run_epoch(2);
        let mut trace = Trace::default();
        assert!(!bench.replay_against(1, 2, &mut trace));
        assert!(bench.replay_against(2, 2, &mut trace));
    }
}
