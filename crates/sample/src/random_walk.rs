//! PinSAGE-style random-walk sampling (paper Table 7).
//!
//! Instead of hop-wise fanouts, each seed launches short random walks and
//! its neighbourhood is the set of nodes the walks visit. The paper uses
//! walk length 3 as PinSAGE does when demonstrating that Match-Reorder
//! also accelerates non-fanout samplers.

use crate::id_map::{IdMap, IdMapStats};
use crate::neighbor::SampleStats;
use crate::subgraph::{Block, SampledSubgraph};
use fastgl_graph::{Csr, DeterministicRng, NodeId};
use fastgl_telemetry::names;

/// Random-walk neighbourhood sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomWalkSampler {
    /// Steps per walk (PinSAGE/paper: 3).
    pub walk_length: usize,
    /// Walks launched per seed.
    pub num_walks: usize,
}

impl RandomWalkSampler {
    /// The paper's configuration: length-3 walks, 8 per seed.
    pub fn paper_default() -> Self {
        Self {
            walk_length: 3,
            num_walks: 8,
        }
    }

    /// Samples one-block subgraphs: each seed aggregates from the distinct
    /// nodes its walks visited (plus itself).
    ///
    /// # Panics
    ///
    /// Panics if any seed is out of range, or if `walk_length` or
    /// `num_walks` is zero.
    pub fn sample(
        &self,
        graph: &Csr,
        seeds: &[NodeId],
        id_map: &dyn IdMap,
        rng: &mut DeterministicRng,
    ) -> (SampledSubgraph, SampleStats) {
        assert!(self.walk_length > 0, "walk length must be positive");
        assert!(self.num_walks > 0, "need at least one walk");
        let _span = fastgl_telemetry::span(names::SPAN_SAMPLE_RANDOM_WALK);
        let mut stats = SampleStats::default();

        let mut visited_flat: Vec<u64> = Vec::new();
        let mut counts: Vec<u64> = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            assert!(seed.0 < graph.num_nodes(), "seed {seed} out of range");
            let mut visited: Vec<u64> = Vec::with_capacity(self.num_walks * self.walk_length);
            for _ in 0..self.num_walks {
                let mut cur = seed;
                for _ in 0..self.walk_length {
                    let neighbors = graph.neighbors(cur);
                    if neighbors.is_empty() {
                        break;
                    }
                    let next = neighbors[rng.below(neighbors.len() as u64) as usize];
                    stats.edges_sampled += 1;
                    visited.push(next);
                    cur = NodeId(next);
                }
            }
            visited.sort_unstable();
            visited.dedup();
            counts.push(visited.len() as u64);
            visited_flat.extend_from_slice(&visited);
        }

        // One ID map over [seeds ‖ visited]: seeds keep prefix locals.
        let mut stream: Vec<u64> = seeds.iter().map(|n| n.0).collect();
        let num_dst = stream.len();
        stream.extend_from_slice(&visited_flat);
        let out = id_map.map(&stream);
        stats.id_map = IdMapStats::default();
        stats.id_map.merge(&out.stats);

        let visited_locals = &out.locals[num_dst..];
        let mut src_offsets = Vec::with_capacity(num_dst + 1);
        let mut src_locals = Vec::with_capacity(visited_flat.len() + num_dst);
        src_offsets.push(0u64);
        let mut cursor = 0usize;
        for (i, &count) in counts.iter().enumerate() {
            // The seed itself always participates (self-loop).
            src_locals.push(i as u64);
            stats.self_loops += 1;
            for &local in &visited_locals[cursor..cursor + count as usize] {
                if local != i as u64 {
                    src_locals.push(local);
                }
            }
            cursor += count as usize;
            src_offsets.push(src_locals.len() as u64);
        }

        let subgraph = SampledSubgraph::new(
            out.unique.into_iter().map(NodeId).collect(),
            vec![Block {
                dst_locals: (0..num_dst as u64).collect(),
                src_offsets,
                src_locals,
            }],
            (0..num_dst as u64).collect(),
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
        rmat::generate(&RmatConfig::social(1_000, 8_000), 5)
    }

    fn seeds(n: u64) -> Vec<NodeId> {
        (0..n).map(|i| NodeId(i * 7 % 1_000)).collect()
    }

    #[test]
    fn produces_valid_single_block_subgraph() {
        let g = graph();
        let mut rng = DeterministicRng::seed(1);
        let (sg, stats) =
            RandomWalkSampler::paper_default().sample(&g, &seeds(32), &FusedIdMap::new(), &mut rng);
        sg.validate().unwrap();
        assert_eq!(sg.blocks.len(), 1);
        assert!(stats.edges_sampled > 0);
    }

    #[test]
    fn neighbourhood_size_bounded_by_walk_budget() {
        let g = graph();
        let sampler = RandomWalkSampler {
            walk_length: 3,
            num_walks: 4,
        };
        let mut rng = DeterministicRng::seed(2);
        let (sg, _) = sampler.sample(&g, &seeds(16), &FusedIdMap::new(), &mut rng);
        let block = &sg.blocks[0];
        for i in 0..block.num_dst() {
            // self + at most walks × length distinct visits
            assert!(block.sources_of(i).len() <= 1 + 12);
        }
    }

    #[test]
    fn deterministic() {
        let g = graph();
        let s = RandomWalkSampler::paper_default();
        let mut r1 = DeterministicRng::seed(3);
        let mut r2 = DeterministicRng::seed(3);
        let a = s.sample(&g, &seeds(8), &FusedIdMap::new(), &mut r1);
        let b = s.sample(&g, &seeds(8), &FusedIdMap::new(), &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn isolated_seed_gets_only_self() {
        let g = Csr::empty(4);
        let mut rng = DeterministicRng::seed(4);
        let (sg, stats) = RandomWalkSampler::paper_default().sample(
            &g,
            &[NodeId(2)],
            &FusedIdMap::new(),
            &mut rng,
        );
        sg.validate().unwrap();
        assert_eq!(sg.blocks[0].sources_of(0), &[0]);
        assert_eq!(stats.edges_sampled, 0);
    }

    #[test]
    fn no_duplicate_sources_per_seed() {
        let g = graph();
        let mut rng = DeterministicRng::seed(5);
        let (sg, _) =
            RandomWalkSampler::paper_default().sample(&g, &seeds(32), &FusedIdMap::new(), &mut rng);
        let block = &sg.blocks[0];
        for i in 0..block.num_dst() {
            let mut srcs = block.sources_of(i).to_vec();
            srcs.sort_unstable();
            srcs.dedup();
            assert_eq!(srcs.len(), block.sources_of(i).len());
        }
    }
}
