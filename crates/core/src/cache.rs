//! Static device-side feature cache (degree-ordered).
//!
//! PaGraph, GNNLab, and (when memory is left over) FastGL itself keep the
//! hottest nodes' feature rows resident on the GPU so their loads never
//! cross PCIe. Under power-law degree distributions the hottest nodes are
//! the high-degree ones — the policy PaGraph uses directly and a close
//! stand-in for GNNLab's pre-sampling-based hotness estimate.
//!
//! The cache remembers its hotness ranking, so under injected
//! device-memory pressure (`oom@epoch=E` in a
//! [`crate::resilience::FaultPlan`]) it can shed its *coldest* rows and
//! keep serving — graceful degradation that shows up as extra PCIe
//! traffic rather than a crash.

use fastgl_graph::{Csr, NodeId};
use fastgl_sample::NodeSet;
use fastgl_telemetry::names;

/// Minimum load rows per worker in [`FeatureCache::partition`].
///
/// Measured on a 2-vCPU x86 VM with the sorted-list index this cache used
/// to keep, a merge cost 5–8 µs per thousand rows and one fork-join of the
/// backend's scoped threads 60–70 µs, so a split at a few thousand rows
/// loses time. A bit test costs no more than a merge step, so the grain
/// stays; smaller loads stay on the calling thread.
pub const PARTITION_GRAIN_ROWS: usize = 64 * 1024;

/// An immutable set of cached node IDs with membership queries.
///
/// # Example
///
/// ```
/// use fastgl_core::FeatureCache;
/// use fastgl_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(5).symmetric(true);
/// for i in 1..5 {
///     b.push_edge(0, i); // node 0 is the hub
/// }
/// let cache = FeatureCache::degree_ordered(&b.build(), 1, 400);
/// assert!(cache.contains(NodeId(0)));
/// let load: Vec<NodeId> = (0..5).map(NodeId).collect();
/// let (hits, misses) = cache.partition(&load);
/// assert_eq!((hits, misses.len()), (1, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureCache {
    /// The cached IDs as a bitset (the membership index).
    cached: NodeSet,
    /// The same IDs in hotness-rank order (hottest first), kept so the
    /// cache can shrink to a prefix under memory pressure.
    by_rank: Vec<NodeId>,
    row_bytes: u64,
}

impl FeatureCache {
    /// Caches the `rows` highest-degree nodes of `graph`, each row holding
    /// `row_bytes` of features.
    pub fn degree_ordered(graph: &Csr, rows: u64, row_bytes: u64) -> Self {
        let rows = rows.min(graph.num_nodes());
        let mut by_rank = graph.nodes_by_degree_desc();
        by_rank.truncate(rows as usize);
        Self::from_rank_order(by_rank, row_bytes)
    }

    /// Caches the first `rows` nodes of an explicit ranking (e.g. the
    /// pre-sampled hotness order GNNLab uses); duplicate rank entries
    /// collapse to their first (hottest) occurrence.
    pub fn from_ranking(ranking: &[NodeId], rows: u64, row_bytes: u64) -> Self {
        let rows = rows.min(ranking.len() as u64) as usize;
        let mut seen = std::collections::HashSet::with_capacity(rows);
        let by_rank: Vec<NodeId> = ranking[..rows]
            .iter()
            .copied()
            .filter(|&n| seen.insert(n))
            .collect();
        Self::from_rank_order(by_rank, row_bytes)
    }

    /// Builds the membership index over an already-deduplicated rank order.
    fn from_rank_order(by_rank: Vec<NodeId>, row_bytes: u64) -> Self {
        Self {
            cached: NodeSet::from_ids(&by_rank),
            by_rank,
            row_bytes,
        }
    }

    /// An empty cache.
    pub fn empty() -> Self {
        Self::from_rank_order(Vec::new(), 0)
    }

    /// Number of cached rows.
    pub fn rows(&self) -> u64 {
        self.cached.len() as u64
    }

    /// Device bytes the cache occupies.
    pub fn bytes(&self) -> u64 {
        self.rows() * self.row_bytes
    }

    /// Whether `node`'s features are resident.
    pub fn contains(&self, node: NodeId) -> bool {
        self.cached.contains(node)
    }

    /// Sheds the coldest `fraction` of the cache (device-memory pressure
    /// fallback): keeps the hottest `1 - fraction` of the ranked rows and
    /// returns the shrunken cache plus the number of rows evicted.
    /// Evicted rows simply miss from then on — their loads cross PCIe.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn evict_fraction(&self, fraction: f64) -> (Self, u64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "evicted fraction {fraction} outside [0, 1]"
        );
        let keep = (self.by_rank.len() as f64 * (1.0 - fraction)).floor() as usize;
        let evicted = (self.by_rank.len() - keep) as u64;
        let shrunk = Self::from_rank_order(self.by_rank[..keep].to_vec(), self.row_bytes);
        (shrunk, evicted)
    }

    /// Splits a load list into `(hits, misses)`: hits are served by the
    /// cache, misses must cross PCIe and keep the load list's order.
    ///
    /// Parallelised over contiguous ranges of the load list: each worker
    /// bit-tests its own range against the cache's index, so per-range
    /// results concatenate to exactly the serial answer.
    pub fn partition(&self, load: &[NodeId]) -> (u64, Vec<NodeId>) {
        let parts =
            fastgl_tensor::parallel::par_chunk_results(load.len(), PARTITION_GRAIN_ROWS, |range| {
                let chunk = &load[range];
                let mut hits = 0u64;
                let mut misses = Vec::with_capacity(chunk.len());
                for &node in chunk {
                    if self.cached.contains(node) {
                        hits += 1;
                    } else {
                        misses.push(node);
                    }
                }
                (hits, misses)
            });
        let mut hits = 0u64;
        let mut misses = Vec::with_capacity(load.len());
        for (h, m) in parts {
            hits += h;
            misses.extend(m);
        }
        fastgl_telemetry::counter_add(names::CACHE_HITS, hits);
        fastgl_telemetry::counter_add(names::CACHE_MISSES, misses.len() as u64);
        (hits, misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_set_oracle as oracle;
    use fastgl_graph::GraphBuilder;

    /// Star graph: node 0 has degree 4, others degree 1.
    fn star() -> Csr {
        GraphBuilder::new(5)
            .symmetric(true)
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(0, 3)
            .add_edge(0, 4)
            .build()
    }

    #[test]
    fn caches_highest_degree_first() {
        let c = FeatureCache::degree_ordered(&star(), 1, 100);
        assert!(c.contains(NodeId(0)));
        assert!(!c.contains(NodeId(1)));
        assert_eq!(c.rows(), 1);
        assert_eq!(c.bytes(), 100);
    }

    #[test]
    fn rows_clamped_to_graph() {
        let c = FeatureCache::degree_ordered(&star(), 100, 8);
        assert_eq!(c.rows(), 5);
    }

    #[test]
    fn partition_splits_hits_and_misses() {
        let c = FeatureCache::degree_ordered(&star(), 2, 8);
        let load: Vec<NodeId> = (0..5).map(NodeId).collect();
        let (hits, misses) = c.partition(&load);
        assert_eq!(hits, 2);
        assert_eq!(misses.len(), 3);
        for m in &misses {
            assert!(!c.contains(*m));
        }
    }

    #[test]
    fn empty_cache_misses_everything() {
        let c = FeatureCache::empty();
        let load: Vec<NodeId> = (0..3).map(NodeId).collect();
        let (hits, misses) = c.partition(&load);
        assert_eq!(hits, 0);
        assert_eq!(misses.len(), 3);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn from_ranking_respects_order_and_dedups() {
        let ranking = [NodeId(9), NodeId(2), NodeId(9), NodeId(5)];
        let c = FeatureCache::from_ranking(&ranking, 3, 8);
        assert!(c.contains(NodeId(9)));
        assert!(c.contains(NodeId(2)));
        assert!(!c.contains(NodeId(5)), "rank 3 cut before node 5");
        assert_eq!(c.rows(), 2, "duplicate rank entries collapse");
    }

    #[test]
    fn partition_of_empty_load() {
        let c = FeatureCache::degree_ordered(&star(), 2, 8);
        let (hits, misses) = c.partition(&[]);
        assert_eq!(hits, 0);
        assert!(misses.is_empty());
    }

    #[test]
    fn eviction_sheds_coldest_rows_first() {
        // Star graph ranked by degree: node 0 (hub) is hottest.
        let c = FeatureCache::degree_ordered(&star(), 5, 8);
        let (half, evicted) = c.evict_fraction(0.5);
        assert_eq!(evicted, 3, "floor(5 * 0.5) = 2 kept");
        assert_eq!(half.rows(), 2);
        assert!(half.contains(NodeId(0)), "the hub survives pressure");
        let (none, evicted) = c.evict_fraction(0.0);
        assert_eq!(evicted, 0);
        assert_eq!(none, c);
        let (all, evicted) = c.evict_fraction(1.0);
        assert_eq!(evicted, 5);
        assert_eq!(all.rows(), 0);
    }

    #[test]
    fn eviction_respects_explicit_ranking() {
        let ranking = [NodeId(7), NodeId(3), NodeId(1), NodeId(4)];
        let c = FeatureCache::from_ranking(&ranking, 4, 8);
        let (shrunk, evicted) = c.evict_fraction(0.5);
        assert_eq!(evicted, 2);
        assert!(shrunk.contains(NodeId(7)) && shrunk.contains(NodeId(3)));
        assert!(!shrunk.contains(NodeId(1)) && !shrunk.contains(NodeId(4)));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn eviction_rejects_bad_fraction() {
        let _ = FeatureCache::degree_ordered(&star(), 2, 8).evict_fraction(1.5);
    }

    #[test]
    fn contains_and_partition_match_the_merge_oracle() {
        let cases = oracle::cases();
        let probes: Vec<NodeId> = [
            0,
            1,
            62,
            63,
            64,
            65,
            127,
            128,
            129,
            4_095,
            4_096,
            69_999,
            70_000,
            9_999_999,
            10_000_000,
            10_000_001,
            u64::MAX,
        ]
        .map(NodeId)
        .to_vec();
        for cached in &cases {
            let cache = FeatureCache::from_ranking(cached, cached.len() as u64, 8);
            let sorted_cached = oracle::sorted(cached);
            assert_eq!(cache.rows(), cached.len() as u64);
            for load in &cases {
                let load = oracle::sorted(load);
                assert_eq!(
                    cache.partition(&load),
                    oracle::cache_partition(&sorted_cached, &load),
                    "|cached| = {}, |load| = {}",
                    cached.len(),
                    load.len()
                );
                for &node in load.iter().chain(&probes) {
                    assert_eq!(
                        cache.contains(node),
                        oracle::cache_contains(&sorted_cached, node),
                        "{node:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_partition_matches_the_merge_oracle() {
        // Long enough to split across workers at PARTITION_GRAIN_ROWS.
        let load: Vec<NodeId> = (0..3 * PARTITION_GRAIN_ROWS as u64 + 17)
            .map(NodeId)
            .collect();
        for cached in oracle::cases() {
            let cache = FeatureCache::from_ranking(&cached, cached.len() as u64, 8);
            assert_eq!(
                cache.partition(&load),
                oracle::cache_partition(&oracle::sorted(&cached), &load)
            );
        }
    }
}
