//! K-hop uniform neighbour sampling (the paper's default sampler).
//!
//! Following GraphSAGE/DGL, each hop `h` samples up to `fanouts[h]`
//! neighbours *without replacement* for every node of the current frontier;
//! the frontier then grows by the newly discovered nodes (the "neighbour
//! explosion"). The paper's models use three hops with fanouts
//! `[5, 10, 15]` (§6.1).
//!
//! The ID-map process runs once per hop over `[frontier ‖ sampled]`, which
//! keeps earlier nodes' local IDs stable (they are a prefix of the unique
//! list), exactly like DGL's `to_block`.

use crate::id_map::{IdMap, IdMapStats};
use crate::subgraph::{Block, SampledSubgraph};
use fastgl_graph::{Csr, DeterministicRng, NodeId};
use fastgl_telemetry::names;

/// Statistics of one sampling run (one mini-batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleStats {
    /// Neighbour draws performed (edges sampled, before self-loops).
    pub edges_sampled: u64,
    /// Self-loop edges added.
    pub self_loops: u64,
    /// Aggregated ID-map event counts across hops.
    pub id_map: IdMapStats,
}

/// Uniform k-hop neighbour sampler.
///
/// # Example
///
/// ```
/// use fastgl_graph::{DeterministicRng, GraphBuilder, NodeId};
/// use fastgl_sample::{FusedIdMap, NeighborSampler};
///
/// let graph = GraphBuilder::new(6)
///     .symmetric(true)
///     .extend_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
///     .build();
/// let sampler = NeighborSampler::new(vec![2, 2]);
/// let mut rng = DeterministicRng::seed(7);
/// let (subgraph, stats) =
///     sampler.sample(&graph, &[NodeId(0)], &FusedIdMap::new(), &mut rng);
/// subgraph.validate().unwrap();
/// assert_eq!(subgraph.blocks.len(), 2);
/// assert!(stats.edges_sampled > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborSampler {
    /// Per-hop fanouts, hop 1 (from the seeds) first. The paper's default
    /// is `[5, 10, 15]`.
    pub fanouts: Vec<usize>,
}

impl NeighborSampler {
    /// A sampler with the given fanouts. Every destination also aggregates
    /// from itself (a GCN-style self-loop), listed first among its sources.
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty or contains a zero.
    pub fn new(fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty(), "need at least one hop");
        assert!(fanouts.iter().all(|&f| f > 0), "fanouts must be positive");
        Self { fanouts }
    }

    /// The paper's default 3-hop `[5, 10, 15]` sampler.
    pub fn paper_default() -> Self {
        Self::new(vec![5, 10, 15])
    }

    /// Samples the L-hop subgraph of `seeds`.
    ///
    /// Deterministic in `(self, graph, seeds, rng state)`.
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
        let _span = fastgl_telemetry::span(names::SPAN_SAMPLE_NEIGHBOR)
            .with_u64("seeds", seeds.len() as u64)
            .with_u64("hops", self.fanouts.len() as u64);
        let mut stats = SampleStats::default();
        // Current frontier as global IDs; local IDs of earlier entries stay
        // stable because every hop's unique list starts with this prefix.
        let mut frontier: Vec<u64> = seeds.iter().map(|n| n.0).collect();
        let mut hop_blocks: Vec<Block> = Vec::with_capacity(self.fanouts.len());

        for (hop, &fanout) in self.fanouts.iter().enumerate() {
            let num_dst = frontier.len();
            // Draw neighbours for every frontier node, in parallel. Each
            // frontier position gets its own RNG stream derived from one
            // draw of the batch RNG, so (a) the draws are independent of
            // how positions are split across threads, and (b) consecutive
            // mini-batches still see different streams because the parent
            // RNG advances once per hop. Each worker appends its range's
            // draws to one flat buffer and records a count per node.
            let hop_rng = DeterministicRng::seed(rng.next().wrapping_add(hop as u64));
            let chunks: Vec<(Vec<u64>, Vec<usize>)> = fastgl_tensor::parallel::par_chunk_results(
                num_dst,
                fastgl_tensor::parallel::SAMPLE_GRAIN_SEEDS,
                |range| {
                    let mut drawn = Vec::with_capacity(range.len() * fanout);
                    let mut counts = Vec::with_capacity(range.len());
                    for f_idx in range {
                        let g = frontier[f_idx];
                        assert!(g < graph.num_nodes(), "seed/frontier node {g} out of range");
                        let neighbors = graph.neighbors(NodeId(g));
                        let before = drawn.len();
                        if neighbors.len() <= fanout {
                            drawn.extend_from_slice(neighbors);
                        } else {
                            hop_rng.derive(f_idx as u64).sample_distinct_into(
                                neighbors.len() as u64,
                                fanout,
                                &mut drawn,
                            );
                            for v in &mut drawn[before..] {
                                *v = neighbors[*v as usize];
                            }
                        }
                        counts.push(drawn.len() - before);
                    }
                    (drawn, counts)
                },
            );

            // ID map over [frontier ‖ sampled]: the unique list's prefix is
            // the frontier itself (it is already deduplicated). The chunks
            // are concatenated in range order, i.e. frontier order.
            let num_drawn: usize = chunks.iter().map(|(drawn, _)| drawn.len()).sum();
            let mut stream = Vec::with_capacity(num_dst + num_drawn);
            stream.extend_from_slice(&frontier);
            let mut counts = Vec::with_capacity(num_dst);
            for (drawn, chunk_counts) in chunks {
                stream.extend_from_slice(&drawn);
                counts.extend_from_slice(&chunk_counts);
            }
            stats.edges_sampled += num_drawn as u64;
            let out = id_map.map(&stream);
            stats.id_map.merge(&out.stats);
            debug_assert_eq!(&out.unique[..num_dst], &frontier[..]);

            // Build this hop's block: dst i = frontier position i.
            let sampled_locals = &out.locals[num_dst..];
            let mut src_offsets = Vec::with_capacity(num_dst + 1);
            let mut src_locals = Vec::with_capacity(num_drawn + num_dst);
            src_offsets.push(0u64);
            let mut cursor = 0usize;
            stats.self_loops += num_dst as u64;
            for (i, &count) in counts.iter().enumerate() {
                src_locals.push(i as u64);
                src_locals.extend_from_slice(&sampled_locals[cursor..cursor + count]);
                cursor += count;
                src_offsets.push(src_locals.len() as u64);
            }
            hop_blocks.push(Block {
                dst_locals: (0..num_dst as u64).collect(),
                src_offsets,
                src_locals,
            });
            frontier = out.unique;
        }

        // Computation runs widest block first: reverse hop order.
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
        rmat::generate(&RmatConfig::social(2_000, 16_000), 3)
    }

    fn sample_default(seeds: &[NodeId]) -> (SampledSubgraph, SampleStats) {
        let g = graph();
        let sampler = NeighborSampler::new(vec![3, 5]);
        let mut rng = DeterministicRng::seed(1);
        sampler.sample(&g, seeds, &FusedIdMap::new(), &mut rng)
    }

    fn seeds(n: u64) -> Vec<NodeId> {
        (0..n).map(|i| NodeId(i * 13 % 2_000)).collect()
    }

    #[test]
    fn produces_valid_subgraph() {
        let (sg, stats) = sample_default(&seeds(64));
        sg.validate().unwrap();
        assert!(stats.edges_sampled > 0);
        assert_eq!(sg.blocks.len(), 2);
    }

    #[test]
    fn seeds_are_local_prefix() {
        let s = seeds(32);
        let (sg, _) = sample_default(&s);
        for (i, &seed) in s.iter().enumerate() {
            assert_eq!(sg.nodes[i], seed);
        }
        assert_eq!(sg.seed_locals, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn fanout_bounds_hold() {
        let (sg, _) = sample_default(&seeds(64));
        // Final (seed-side) block sampled fanout 3 + self-loop.
        let seed_block = sg.blocks.last().unwrap();
        for i in 0..seed_block.num_dst() {
            let deg = seed_block.sources_of(i).len();
            assert!(deg <= 4, "seed dst {i} has {deg} sources");
            assert!(deg >= 1, "self-loop guarantees at least one source");
        }
        // Wide block sampled fanout 5 + self-loop.
        let wide = &sg.blocks[0];
        for i in 0..wide.num_dst() {
            assert!(wide.sources_of(i).len() <= 6);
        }
    }

    #[test]
    fn self_loop_present_for_every_dst() {
        let (sg, stats) = sample_default(&seeds(16));
        for block in &sg.blocks {
            for (i, &dst) in block.dst_locals.iter().enumerate() {
                assert!(
                    block.sources_of(i).contains(&dst),
                    "dst {dst} lacks its self-loop"
                );
            }
        }
        assert!(stats.self_loops > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = graph();
        let sampler = NeighborSampler::paper_default();
        let mut r1 = DeterministicRng::seed(9);
        let mut r2 = DeterministicRng::seed(9);
        let (a, sa) = sampler.sample(&g, &seeds(32), &FusedIdMap::new(), &mut r1);
        let (b, sb) = sampler.sample(&g, &seeds(32), &FusedIdMap::new(), &mut r2);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn frontier_grows_across_hops() {
        let (sg, _) = sample_default(&seeds(64));
        // blocks[0] is the widest; its dst count equals the hop-1 frontier.
        assert!(sg.blocks[0].num_dst() >= sg.blocks[1].num_dst());
        assert!(sg.num_nodes() >= sg.blocks[0].num_dst() as u64);
    }

    #[test]
    fn neighbor_sampling_without_replacement() {
        let (sg, _) = sample_default(&seeds(128));
        for block in &sg.blocks {
            for i in 0..block.num_dst() {
                let srcs = block.sources_of(i);
                let mut sorted = srcs.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), srcs.len(), "duplicate sampled neighbour");
            }
        }
    }

    #[test]
    fn id_map_stats_accumulate_per_hop() {
        let (_, stats) = sample_default(&seeds(64));
        // Two hops with the fused map: 2 kernels each.
        assert_eq!(stats.id_map.kernel_launches, 4);
        assert!(stats.id_map.total_ids > stats.edges_sampled);
    }

    #[test]
    fn isolated_node_yields_only_self_loop() {
        let g = Csr::empty(10);
        let sampler = NeighborSampler::new(vec![5]);
        let mut rng = DeterministicRng::seed(2);
        let (sg, stats) = sampler.sample(&g, &[NodeId(3)], &FusedIdMap::new(), &mut rng);
        sg.validate().unwrap();
        assert_eq!(stats.edges_sampled, 0);
        assert_eq!(sg.blocks[0].sources_of(0), &[0]);
    }

    #[test]
    #[should_panic(expected = "fanouts must be positive")]
    fn zero_fanout_rejected() {
        let _ = NeighborSampler::new(vec![5, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seed_panics() {
        let g = Csr::empty(5);
        let mut rng = DeterministicRng::seed(0);
        let _ =
            NeighborSampler::new(vec![2]).sample(&g, &[NodeId(99)], &FusedIdMap::new(), &mut rng);
    }
}
