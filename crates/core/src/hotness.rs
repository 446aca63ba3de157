//! Pre-sampling hotness estimation — GNNLab's cache policy.
//!
//! PaGraph caches by out-degree; GNNLab instead *pre-samples* a few epochs
//! offline and caches the nodes that actually appeared most often in
//! sampled subgraphs ("hotness"). On skewed graphs the two orders agree at
//! the head but diverge in the tail, where hotness also reflects the seed
//! distribution and fanout structure. This module implements the hotness
//! counter and ranking so the GNNLab baseline can use its published policy.

use fastgl_graph::{Csr, NodeId};
use fastgl_sample::SampledSubgraph;

/// Accumulates per-node appearance counts over pre-sampled subgraphs.
#[derive(Debug, Clone)]
pub struct HotnessCounter {
    counts: Vec<u64>,
    subgraphs_seen: u64,
}

impl HotnessCounter {
    /// A counter for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: u64) -> Self {
        Self {
            counts: vec![0; num_nodes as usize],
            subgraphs_seen: 0,
        }
    }

    /// Records every node of one sampled subgraph.
    ///
    /// # Panics
    ///
    /// Panics if the subgraph references nodes outside the graph.
    pub fn record(&mut self, subgraph: &SampledSubgraph) {
        for node in &subgraph.nodes {
            self.counts[node.index()] += 1;
        }
        self.subgraphs_seen += 1;
    }

    /// Number of pre-sampled subgraphs recorded.
    pub fn subgraphs_seen(&self) -> u64 {
        self.subgraphs_seen
    }

    /// Appearance count of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn count(&self, node: NodeId) -> u64 {
        self.counts[node.index()]
    }

    /// Nodes ranked by descending hotness; ties break towards lower IDs so
    /// the ranking is deterministic. Falls back to degree order (via the
    /// caller) when nothing was recorded.
    pub fn ranking(&self) -> Vec<NodeId> {
        let mut nodes: Vec<u64> = (0..self.counts.len() as u64).collect();
        nodes.sort_by_key(|&n| (std::cmp::Reverse(self.counts[n as usize]), n));
        nodes.into_iter().map(NodeId).collect()
    }
}

/// How a static feature cache picks its residents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheRankPolicy {
    /// Highest out-degree first (PaGraph).
    Degree,
    /// Most-frequently-sampled first, measured by pre-sampling (GNNLab).
    PreSampledHotness,
}

/// Builds the cache-resident ranking for a policy.
///
/// For [`CacheRankPolicy::PreSampledHotness`] with an empty counter the
/// ranking degenerates to node-ID order, so callers should record probe
/// subgraphs first.
pub fn rank_nodes(
    policy: CacheRankPolicy,
    graph: &Csr,
    hotness: Option<&HotnessCounter>,
) -> Vec<NodeId> {
    match policy {
        CacheRankPolicy::Degree => graph.nodes_by_degree_desc(),
        CacheRankPolicy::PreSampledHotness => match hotness {
            Some(h) if h.subgraphs_seen() > 0 => h.ranking(),
            _ => graph.nodes_by_degree_desc(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgl_graph::generate::rmat::{self, RmatConfig};
    use fastgl_graph::DeterministicRng;
    use fastgl_sample::{FusedIdMap, NeighborSampler};

    fn probe(counter: &mut HotnessCounter, graph: &Csr, seed: u64) {
        let sampler = NeighborSampler::new(vec![3, 5]);
        let mut rng = DeterministicRng::seed(seed);
        let seeds: Vec<NodeId> = (0..32)
            .map(|i| NodeId((i * 13 + seed) % graph.num_nodes()))
            .collect();
        let (sg, _) = sampler.sample(graph, &seeds, &FusedIdMap::new(), &mut rng);
        counter.record(&sg);
    }

    #[test]
    fn counts_accumulate_over_subgraphs() {
        let g = rmat::generate(&RmatConfig::social(1_000, 8_000), 1);
        let mut c = HotnessCounter::new(g.num_nodes());
        assert_eq!(c.subgraphs_seen(), 0);
        probe(&mut c, &g, 1);
        probe(&mut c, &g, 2);
        assert_eq!(c.subgraphs_seen(), 2);
        let total: u64 = (0..g.num_nodes()).map(|n| c.count(NodeId(n))).sum();
        assert!(total > 0);
    }

    #[test]
    fn ranking_is_sorted_by_count_then_id() {
        let g = rmat::generate(&RmatConfig::social(500, 4_000), 2);
        let mut c = HotnessCounter::new(g.num_nodes());
        for s in 0..4 {
            probe(&mut c, &g, s);
        }
        let ranking = c.ranking();
        assert_eq!(ranking.len() as u64, g.num_nodes());
        for w in ranking.windows(2) {
            let (a, b) = (c.count(w[0]), c.count(w[1]));
            assert!(a > b || (a == b && w[0] < w[1]));
        }
    }

    #[test]
    fn hot_nodes_correlate_with_degree_on_power_law_graphs() {
        let g = rmat::generate(&RmatConfig::social(2_000, 30_000), 3);
        let mut c = HotnessCounter::new(g.num_nodes());
        for s in 0..6 {
            probe(&mut c, &g, s);
        }
        // The hottest decile should have far higher average degree than
        // the coldest decile.
        let ranking = c.ranking();
        let avg_deg = |nodes: &[NodeId]| {
            nodes.iter().map(|&n| g.degree(n)).sum::<u64>() as f64 / nodes.len() as f64
        };
        let hot = avg_deg(&ranking[..200]);
        let cold = avg_deg(&ranking[1_800..]);
        assert!(hot > 3.0 * cold, "hot {hot} cold {cold}");
    }

    #[test]
    fn rank_policy_falls_back_to_degree() {
        let g = rmat::generate(&RmatConfig::social(300, 2_000), 5);
        let empty = HotnessCounter::new(g.num_nodes());
        let by_degree = rank_nodes(CacheRankPolicy::Degree, &g, None);
        let fallback = rank_nodes(CacheRankPolicy::PreSampledHotness, &g, Some(&empty));
        assert_eq!(by_degree, fallback);
        let none = rank_nodes(CacheRankPolicy::PreSampledHotness, &g, None);
        assert_eq!(by_degree, none);
    }

    #[test]
    fn hotness_ranking_beats_degree_for_skewed_seeds() {
        // When seeds concentrate in one region, pre-sampled hotness adapts
        // while the degree order does not.
        let g = rmat::generate(&RmatConfig::social(2_000, 16_000), 6);
        let mut c = HotnessCounter::new(g.num_nodes());
        let sampler = NeighborSampler::new(vec![3, 3]);
        let mut rng = DeterministicRng::seed(9);
        // All seeds from a narrow ID band.
        let seeds: Vec<NodeId> = (1_500..1_532).map(NodeId).collect();
        for _ in 0..4 {
            let (sg, _) = sampler.sample(&g, &seeds, &FusedIdMap::new(), &mut rng);
            c.record(&sg);
        }
        let hot = rank_nodes(CacheRankPolicy::PreSampledHotness, &g, Some(&c));
        // The seeds themselves must be hot.
        let top: std::collections::HashSet<NodeId> = hot[..400].iter().copied().collect();
        let seeds_in_top = seeds.iter().filter(|s| top.contains(s)).count();
        assert!(
            seeds_in_top > 16,
            "only {seeds_in_top} of 32 seeds ranked hot"
        );
    }
}
