//! The sample-phase engine: draws subgraphs and converts the run's event
//! counts into simulated time.

use crate::config::{FastGlConfig, IdMapKind, SampleDevice, SamplerKind};
use fastgl_gpusim::{CostParams, SimTime};
use fastgl_graph::{Csr, DeterministicRng, NodeId};
use fastgl_sample::{
    BaselineIdMap, FusedIdMap, IdMap, LayerWiseSampler, NeighborSampler, RandomWalkSampler,
    SampleStats, SampledSubgraph,
};

/// Time attribution of one sampled mini-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleTiming {
    /// Total sample-phase time (draws + ID map + per-batch overhead).
    pub total: SimTime,
    /// The ID-map share of `total`.
    pub id_map: SimTime,
}

/// Draws subgraphs under a configured sampler / device / ID-map strategy
/// and prices the work.
#[derive(Debug, Clone)]
pub struct SamplerEngine {
    kind: SamplerKind,
    device: SampleDevice,
    id_map: IdMapKind,
    neighbor: NeighborSampler,
    walk: RandomWalkSampler,
    layer_wise: LayerWiseSampler,
    baseline_map: BaselineIdMap,
    fused_map: FusedIdMap,
}

impl SamplerEngine {
    /// An engine matching `config`.
    pub fn new(config: &FastGlConfig) -> Self {
        Self {
            kind: config.sampler,
            device: config.sample_device,
            id_map: config.id_map,
            neighbor: NeighborSampler::new(config.fanouts.clone()),
            walk: RandomWalkSampler::paper_default(),
            // Per-layer node budgets: fanout × batch size approximates the
            // LADIES guidance of budgets proportional to layer width.
            layer_wise: LayerWiseSampler::new(
                config
                    .fanouts
                    .iter()
                    .map(|&f| f * config.batch_size.max(1) as usize)
                    .collect(),
            ),
            baseline_map: BaselineIdMap::new(),
            fused_map: FusedIdMap::new(),
        }
    }

    /// The active ID-map strategy as a trait object.
    fn id_mapper(&self) -> &dyn IdMap {
        match self.id_map {
            IdMapKind::Baseline => &self.baseline_map,
            IdMapKind::Fused => &self.fused_map,
        }
    }

    /// Samples one mini-batch.
    pub fn sample_batch(
        &self,
        graph: &Csr,
        seeds: &[NodeId],
        rng: &mut DeterministicRng,
    ) -> (SampledSubgraph, SampleStats) {
        let _span = fastgl_telemetry::span(fastgl_telemetry::names::SPAN_CORE_SAMPLE_BATCH);
        match self.kind {
            SamplerKind::Neighbor => self.neighbor.sample(graph, seeds, self.id_mapper(), rng),
            SamplerKind::RandomWalk => self.walk.sample(graph, seeds, self.id_mapper(), rng),
            SamplerKind::LayerWise => self.layer_wise.sample(graph, seeds, self.id_mapper(), rng),
        }
    }

    /// Prices a sampling run's event counts (paper §3.3 cost structure).
    pub fn sample_time(&self, stats: &SampleStats, cost: &CostParams) -> SampleTiming {
        let m = &stats.id_map;
        match self.device {
            SampleDevice::Cpu => {
                // PyG-style: single-digit-thread CPU sampling; renumbering
                // is hash-map work at CPU speed per processed ID.
                let draw_ns = stats.edges_sampled as f64 * cost.cpu_sample_edge_ns;
                let map_ns =
                    (m.total_ids + m.probes + m.lookups) as f64 * cost.cpu_sample_edge_ns * 0.5;
                let id_map = SimTime::from_secs_f64(map_ns * 1e-9);
                SampleTiming {
                    total: SimTime::from_secs_f64(draw_ns * 1e-9)
                        + id_map
                        + SimTime::from_nanos(cost.per_batch_overhead_ns),
                    id_map,
                }
            }
            SampleDevice::Gpu => {
                let draw_ns = stats.edges_sampled as f64 * cost.gpu_sample_edge_ns;
                let map_ns = m.total_ids as f64 * cost.gpu_hash_op_ns
                    + m.probes as f64 * cost.gpu_probe_ns
                    + m.sync_serializations as f64 * cost.gpu_sync_serialization_ns
                    + m.lookups as f64 * cost.gpu_lookup_ns
                    + ((m.kernel_launches + m.device_syncs) * cost.kernel_launch_ns) as f64;
                let id_map = SimTime::from_secs_f64(map_ns * 1e-9);
                SampleTiming {
                    total: SimTime::from_secs_f64(draw_ns * 1e-9)
                        + id_map
                        + SimTime::from_nanos(cost.per_batch_overhead_ns),
                    id_map,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgl_graph::generate::rmat::{self, RmatConfig};

    fn graph() -> Csr {
        rmat::generate(&RmatConfig::social(30_000, 300_000), 2)
    }

    fn seeds() -> Vec<NodeId> {
        (0..1_024).map(|i| NodeId(i * 13 % 30_000)).collect()
    }

    fn engine(cfg: &FastGlConfig) -> SamplerEngine {
        SamplerEngine::new(cfg)
    }

    #[test]
    fn cpu_sampling_is_far_slower_than_gpu() {
        let g = graph();
        let cost = CostParams::default();
        let mut cfg = FastGlConfig {
            fanouts: vec![5, 5],
            ..Default::default()
        };
        let gpu = engine(&cfg);
        cfg.sample_device = SampleDevice::Cpu;
        let cpu = engine(&cfg);
        let mut rng = DeterministicRng::seed(1);
        let (_, stats) = gpu.sample_batch(&g, &seeds(), &mut rng);
        let t_gpu = gpu.sample_time(&stats, &cost);
        let t_cpu = cpu.sample_time(&stats, &cost);
        assert!(
            t_cpu.total.as_secs_f64() > 5.0 * t_gpu.total.as_secs_f64(),
            "cpu {} gpu {}",
            t_cpu.total,
            t_gpu.total
        );
    }

    #[test]
    fn fused_map_is_faster_than_baseline() {
        let g = graph();
        let cost = CostParams::default();
        let mut cfg = FastGlConfig {
            fanouts: vec![5, 10],
            ..Default::default()
        };
        let fused = engine(&cfg);
        cfg.id_map = IdMapKind::Baseline;
        let base = engine(&cfg);
        let mut r1 = DeterministicRng::seed(2);
        let mut r2 = DeterministicRng::seed(2);
        let (_, fs) = fused.sample_batch(&g, &seeds(), &mut r1);
        let (_, bs) = base.sample_batch(&g, &seeds(), &mut r2);
        let tf = fused.sample_time(&fs, &cost);
        let tb = base.sample_time(&bs, &cost);
        let ratio = tb.id_map.as_secs_f64() / tf.id_map.as_secs_f64();
        // Paper Table 8: the baseline's ID map is 2.1x – 2.7x slower.
        assert!(ratio > 1.5, "ID-map ratio {ratio}");
        assert!(ratio < 6.0, "ID-map ratio {ratio}");
    }

    #[test]
    fn id_map_dominates_gpu_sample_phase() {
        // Paper §3.3: the ID map takes up to 70% of the baseline sample
        // phase on GPU.
        let g = graph();
        let cost = CostParams::default();
        let cfg = FastGlConfig {
            fanouts: vec![5, 10],
            id_map: IdMapKind::Baseline,
            ..Default::default()
        };
        let base = engine(&cfg);
        let mut rng = DeterministicRng::seed(3);
        let (_, stats) = base.sample_batch(&g, &seeds(), &mut rng);
        let t = base.sample_time(&stats, &cost);
        let share = t.id_map.as_secs_f64() / t.total.as_secs_f64();
        assert!(share > 0.3, "id map share {share}");
    }

    #[test]
    fn layer_wise_sampler_runs_through_pipeline_engine() {
        let g = graph();
        let cfg = FastGlConfig::default()
            .with_batch_size(64)
            .with_fanouts(vec![2, 3])
            .with_layer_wise();
        let eng = engine(&cfg);
        let mut rng = DeterministicRng::seed(6);
        let (sg, stats) = eng.sample_batch(&g, &seeds()[..64], &mut rng);
        sg.validate().unwrap();
        assert_eq!(sg.blocks.len(), 2);
        // Budget bound: seeds + Σ fanout × batch.
        assert!(sg.num_nodes() <= 64 + (2 + 3) * 64);
        let t = eng.sample_time(&stats, &CostParams::default());
        assert!(t.total > SimTime::ZERO);
    }

    #[test]
    fn random_walk_sampler_runs() {
        let g = graph();
        let cfg = FastGlConfig::default().with_random_walk();
        let eng = engine(&cfg);
        let mut rng = DeterministicRng::seed(4);
        let (sg, stats) = eng.sample_batch(&g, &seeds(), &mut rng);
        sg.validate().unwrap();
        assert_eq!(sg.blocks.len(), 1);
        let t = eng.sample_time(&stats, &CostParams::default());
        assert!(t.total > SimTime::ZERO);
    }
}
