//! Layer-wise importance sampling (the FastGCN/LADIES family).
//!
//! Instead of sampling a fanout per node (which multiplies into the
//! neighbour explosion), layer-wise samplers draw a *fixed budget of nodes
//! per layer*, weighted by how strongly each candidate connects to the
//! current frontier, then keep the existing edges between frontier and the
//! drawn layer. The paper's §7 argues FastGL's techniques apply to diverse
//! sampling algorithms because all of them end with the same ID-map step —
//! this sampler exercises that claim.

use crate::id_map::IdMap;
use crate::neighbor::SampleStats;
use crate::subgraph::{Block, SampledSubgraph};
use fastgl_graph::{Csr, DeterministicRng, NodeId};
use fastgl_telemetry::names;
use std::collections::HashMap;

/// LADIES-style layer-wise sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerWiseSampler {
    /// Node budget per layer, hop 1 (next to the seeds) first.
    pub layer_budgets: Vec<usize>,
}

impl LayerWiseSampler {
    /// A sampler with the given per-layer budgets.
    ///
    /// # Panics
    ///
    /// Panics if `layer_budgets` is empty or contains a zero.
    pub fn new(layer_budgets: Vec<usize>) -> Self {
        assert!(!layer_budgets.is_empty(), "need at least one layer");
        assert!(
            layer_budgets.iter().all(|&b| b > 0),
            "layer budgets must be positive"
        );
        Self { layer_budgets }
    }

    /// Samples an L-layer subgraph with per-layer node budgets.
    ///
    /// Candidates for each layer are the current frontier's neighbours,
    /// weighted by their connection count to the frontier (the degree-based
    /// importance LADIES uses); `budget` distinct candidates are drawn by
    /// weighted sampling without replacement.
    ///
    /// # Panics
    ///
    /// Panics if any seed is out of range for `graph`.
    pub fn sample(
        &self,
        graph: &Csr,
        seeds: &[NodeId],
        id_map: &dyn IdMap,
        rng: &mut DeterministicRng,
    ) -> (SampledSubgraph, SampleStats) {
        let _span = fastgl_telemetry::span(names::SPAN_SAMPLE_LAYER_WISE)
            .with_u64("seeds", seeds.len() as u64)
            .with_u64("layers", self.layer_budgets.len() as u64);
        let mut stats = SampleStats::default();
        let mut frontier: Vec<u64> = seeds.iter().map(|n| n.0).collect();
        let mut hop_blocks: Vec<Block> = Vec::with_capacity(self.layer_budgets.len());

        for &budget in &self.layer_budgets {
            let num_dst = frontier.len();
            // Importance weights: connections into the frontier.
            let mut weight: HashMap<u64, u32> = HashMap::new();
            for &g in &frontier {
                assert!(g < graph.num_nodes(), "frontier node {g} out of range");
                for &v in graph.neighbors(NodeId(g)) {
                    *weight.entry(v).or_insert(0) += 1;
                }
            }
            // Weighted sampling without replacement (exponential-key top-k).
            // Every candidate's key comes from an RNG stream derived from
            // its own node ID (off one draw of the batch RNG), so the keys
            // do not depend on candidate order or on how the keying is
            // split across threads — HashMap iteration order and thread
            // count are both irrelevant to the draw.
            let layer_rng = DeterministicRng::seed(rng.next());
            let mut candidates: Vec<(u64, u32)> = weight.iter().map(|(&v, &w)| (v, w)).collect();
            candidates.sort_unstable();
            let mut keyed: Vec<(f64, u64)> = fastgl_tensor::parallel::par_map_collect(
                &candidates,
                fastgl_tensor::parallel::SAMPLE_GRAIN_SEEDS,
                |_, &(v, w)| {
                    let u = layer_rng.derive(v).unit_f64().max(1e-300);
                    (-u.ln() / w as f64, v)
                },
            );
            keyed.sort_by(|a, b| a.partial_cmp(b).expect("keys are finite"));
            // Deterministic order within the draw: sort selected IDs.
            let mut layer: Vec<u64> = keyed.iter().take(budget).map(|&(_, v)| v).collect();
            layer.sort_unstable();
            let selected: HashMap<u64, ()> = layer.iter().map(|&v| (v, ())).collect();

            // Keep the frontier→layer edges that exist in the graph. Each
            // frontier node's scan is independent, so the filter runs in
            // parallel and the per-node results concatenate in frontier
            // order (identical to the serial scan).
            let per_node: Vec<(Vec<u64>, u64)> = fastgl_tensor::parallel::par_map_collect(
                &frontier,
                fastgl_tensor::parallel::SAMPLE_GRAIN_SEEDS,
                |_, &g| {
                    let mut kept: Vec<u64> = graph
                        .neighbors(NodeId(g))
                        .iter()
                        .copied()
                        .filter(|v| selected.contains_key(v))
                        .collect();
                    let raw = kept.len() as u64;
                    kept.sort_unstable();
                    kept.dedup();
                    (kept, raw)
                },
            );
            let mut kept_flat: Vec<u64> = Vec::new();
            let mut counts: Vec<u64> = Vec::with_capacity(num_dst);
            for (kept, raw) in per_node {
                stats.edges_sampled += raw;
                counts.push(kept.len() as u64);
                kept_flat.extend(kept);
            }

            // ID map over [frontier ‖ kept]: prefix-stable locals.
            let mut stream = Vec::with_capacity(frontier.len() + kept_flat.len());
            stream.extend_from_slice(&frontier);
            stream.extend_from_slice(&kept_flat);
            let out = id_map.map(&stream);
            stats.id_map.merge(&out.stats);
            let kept_locals = &out.locals[num_dst..];

            let mut src_offsets = Vec::with_capacity(num_dst + 1);
            let mut src_locals = Vec::with_capacity(kept_flat.len() + num_dst);
            src_offsets.push(0u64);
            let mut cursor = 0usize;
            for (i, &count) in counts.iter().enumerate() {
                // Self-loop keeps isolated-from-layer destinations sound.
                src_locals.push(i as u64);
                stats.self_loops += 1;
                for &local in &kept_locals[cursor..cursor + count as usize] {
                    if local != i as u64 {
                        src_locals.push(local);
                    }
                }
                cursor += count as usize;
                src_offsets.push(src_locals.len() as u64);
            }
            hop_blocks.push(Block {
                dst_locals: (0..num_dst as u64).collect(),
                src_offsets,
                src_locals,
            });
            frontier = out.unique;
        }

        hop_blocks.reverse();
        let subgraph = SampledSubgraph::new(
            frontier.into_iter().map(NodeId).collect(),
            hop_blocks,
            (0..seeds.len() as u64).collect(),
        );
        fastgl_telemetry::counter_add(names::SAMPLE_NODES, subgraph.nodes.len() as u64);
        fastgl_telemetry::counter_add(names::SAMPLE_EDGES, stats.edges_sampled);
        (subgraph, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id_map::fused::FusedIdMap;
    use fastgl_graph::generate::rmat::{self, RmatConfig};

    fn graph() -> Csr {
        rmat::generate(&RmatConfig::social(2_000, 20_000), 8)
    }

    fn seeds(n: u64) -> Vec<NodeId> {
        (0..n).map(|i| NodeId(i * 31 % 2_000)).collect()
    }

    #[test]
    fn produces_valid_subgraph() {
        let g = graph();
        let mut rng = DeterministicRng::seed(1);
        let (sg, stats) = LayerWiseSampler::new(vec![64, 128]).sample(
            &g,
            &seeds(32),
            &FusedIdMap::new(),
            &mut rng,
        );
        sg.validate().unwrap();
        assert_eq!(sg.blocks.len(), 2);
        assert!(stats.edges_sampled > 0);
    }

    #[test]
    fn layer_budget_bounds_growth() {
        // The defining property vs fanout sampling: each hop adds at most
        // `budget` new nodes, taming the neighbour explosion.
        let g = graph();
        let mut rng = DeterministicRng::seed(2);
        let (sg, _) = LayerWiseSampler::new(vec![50, 100]).sample(
            &g,
            &seeds(32),
            &FusedIdMap::new(),
            &mut rng,
        );
        assert!(
            sg.num_nodes() <= 32 + 50 + 100,
            "nodes {} exceed seed+budget bound",
            sg.num_nodes()
        );
    }

    #[test]
    fn kept_edges_exist_in_graph() {
        let g = graph();
        let mut rng = DeterministicRng::seed(3);
        let (sg, _) =
            LayerWiseSampler::new(vec![80]).sample(&g, &seeds(16), &FusedIdMap::new(), &mut rng);
        let block = &sg.blocks[0];
        for (i, &dst) in block.dst_locals.iter().enumerate() {
            let dst_global = sg.nodes[dst as usize];
            for &src in block.sources_of(i) {
                if src == dst {
                    continue;
                }
                let src_global = sg.nodes[src as usize];
                assert!(g.neighbors(dst_global).contains(&src_global.0));
            }
        }
    }

    #[test]
    fn deterministic() {
        let g = graph();
        let sampler = LayerWiseSampler::new(vec![64, 64]);
        let mut r1 = DeterministicRng::seed(4);
        let mut r2 = DeterministicRng::seed(4);
        let a = sampler.sample(&g, &seeds(16), &FusedIdMap::new(), &mut r1);
        let b = sampler.sample(&g, &seeds(16), &FusedIdMap::new(), &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn small_candidate_pool_takes_everything() {
        // Star graph: the frontier's neighbourhood is tiny.
        let g = fastgl_graph::GraphBuilder::new(5)
            .symmetric(true)
            .add_edge(0, 1)
            .add_edge(0, 2)
            .build();
        let mut rng = DeterministicRng::seed(5);
        let (sg, _) =
            LayerWiseSampler::new(vec![100]).sample(&g, &[NodeId(0)], &FusedIdMap::new(), &mut rng);
        sg.validate().unwrap();
        // Self + both neighbours.
        assert_eq!(sg.blocks[0].sources_of(0).len(), 3);
    }

    #[test]
    fn high_degree_nodes_selected_more_often() {
        // A hub connected to every frontier node must practically always
        // be drawn under importance weighting.
        let mut builder = fastgl_graph::GraphBuilder::new(200).symmetric(true);
        for i in 1..100 {
            builder.push_edge(0, i); // node 0 is the hub
            builder.push_edge(i, 100 + i); // each frontier node has one leaf
        }
        let g = builder.build();
        let sampler = LayerWiseSampler::new(vec![5]);
        let seeds: Vec<NodeId> = (1..50).map(NodeId).collect();
        let mut hub_drawn = 0;
        for s in 0..20 {
            let mut rng = DeterministicRng::seed(s);
            let (sg, _) = sampler.sample(&g, &seeds, &FusedIdMap::new(), &mut rng);
            if sg.nodes.contains(&NodeId(0)) {
                hub_drawn += 1;
            }
        }
        assert!(hub_drawn >= 19, "hub drawn only {hub_drawn}/20 times");
    }

    #[test]
    #[should_panic(expected = "budgets must be positive")]
    fn zero_budget_rejected() {
        let _ = LayerWiseSampler::new(vec![10, 0]);
    }
}
