//! Sampled-subgraph representation.
//!
//! A mini-batch's subgraph is a stack of *blocks* (DGL terminology), one
//! per GNN layer. Computation proceeds from the widest block (the sampled
//! L-hop frontier) towards the seeds: block `l`'s destination nodes are
//! exactly block `l + 1`'s source nodes, so each layer's output feeds the
//! next layer directly.
//!
//! All node references inside blocks are **local IDs** — indices into
//! [`SampledSubgraph::nodes`], the deduplicated list of global IDs produced
//! by the ID-map process. That list is also what the memory IO phase loads:
//! one feature row per entry.

use crate::node_set::NodeSet;
use fastgl_graph::NodeId;
use std::sync::OnceLock;

/// One bipartite layer of a sampled subgraph.
///
/// Destination node `i` (a local index into [`Block::dst_locals`])
/// aggregates from `src_locals[src_offsets[i] .. src_offsets[i + 1]]`,
/// whose entries are local indices into the *subgraph's* node list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Local IDs (into the subgraph node list) of destination nodes.
    pub dst_locals: Vec<u64>,
    /// CSR offsets over destinations (`len = dst_locals.len() + 1`).
    pub src_offsets: Vec<u64>,
    /// Local IDs (into the subgraph node list) of sampled sources.
    pub src_locals: Vec<u64>,
}

impl Block {
    /// Number of destination nodes.
    pub fn num_dst(&self) -> usize {
        self.dst_locals.len()
    }

    /// Number of sampled edges in this block.
    pub fn num_edges(&self) -> u64 {
        self.src_locals.len() as u64
    }

    /// The sampled sources of destination `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sources_of(&self, i: usize) -> &[u64] {
        &self.src_locals[self.src_offsets[i] as usize..self.src_offsets[i + 1] as usize]
    }

    /// Validates internal invariants against a subgraph with `num_nodes`
    /// total nodes. Returns a description of the first violation.
    pub fn validate(&self, num_nodes: u64) -> Result<(), String> {
        if self.src_offsets.len() != self.dst_locals.len() + 1 {
            return Err(format!(
                "offsets length {} != dst count {} + 1",
                self.src_offsets.len(),
                self.dst_locals.len()
            ));
        }
        if self.src_offsets.first() != Some(&0) {
            return Err("offsets must start at 0".into());
        }
        if self.src_offsets.windows(2).any(|w| w[1] < w[0]) {
            return Err("offsets must be monotone".into());
        }
        if *self.src_offsets.last().expect("non-empty") != self.src_locals.len() as u64 {
            return Err("last offset must equal number of sources".into());
        }
        if let Some(&bad) = self
            .dst_locals
            .iter()
            .chain(&self.src_locals)
            .find(|&&x| x >= num_nodes)
        {
            return Err(format!("local id {bad} out of range ({num_nodes} nodes)"));
        }
        Ok(())
    }
}

/// A fully sampled, ID-mapped mini-batch subgraph.
#[derive(Debug, Clone)]
pub struct SampledSubgraph {
    /// Global IDs of every distinct node, indexed by local ID.
    pub nodes: Vec<NodeId>,
    /// Blocks ordered for computation: widest (input-side) first; the last
    /// block's destinations are the seeds.
    pub blocks: Vec<Block>,
    /// Local IDs of the seed (training) nodes.
    pub seed_locals: Vec<u64>,
    /// Memoized sorted node set (see [`SampledSubgraph::sorted_global_ids`]);
    /// computed at most once per subgraph instead of per consuming stage.
    sorted: OnceLock<Vec<NodeId>>,
}

impl PartialEq for SampledSubgraph {
    fn eq(&self, other: &Self) -> bool {
        // The memo is derived state; equality is over the sampled content.
        self.nodes == other.nodes
            && self.blocks == other.blocks
            && self.seed_locals == other.seed_locals
    }
}

impl Eq for SampledSubgraph {}

impl SampledSubgraph {
    /// Assembles a subgraph from its parts.
    pub fn new(nodes: Vec<NodeId>, blocks: Vec<Block>, seed_locals: Vec<u64>) -> Self {
        Self {
            nodes,
            blocks,
            seed_locals,
            sorted: OnceLock::new(),
        }
    }

    /// Number of distinct nodes (= feature rows the IO phase must provide).
    pub fn num_nodes(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Total sampled edges across blocks.
    pub fn num_edges(&self) -> u64 {
        self.blocks.iter().map(Block::num_edges).sum()
    }

    /// The subgraph's node set as a sorted slice of global IDs, the form
    /// the Match process consumes. Computed once on first call, by
    /// setting each node's bit in a [`NodeSet`] and scanning it in
    /// ascending order, and memoized, so the Reorder and Match stages
    /// share one copy.
    pub fn sorted_global_ids(&self) -> &[NodeId] {
        self.sorted.get_or_init(|| {
            let ids: Vec<NodeId> = NodeSet::from_ids(&self.nodes).iter().collect();
            debug_assert_eq!(ids.len(), self.nodes.len(), "node list holds duplicates");
            ids
        })
    }

    /// Bytes of feature data this subgraph needs on the device.
    pub fn feature_bytes(&self, feature_dim: usize) -> u64 {
        self.num_nodes() * feature_dim as u64 * 4
    }

    /// Bytes of topology (blocks' CSR arrays plus the node list).
    pub fn topology_bytes(&self) -> u64 {
        let mut words = self.nodes.len() as u64 + self.seed_locals.len() as u64;
        for b in &self.blocks {
            words +=
                b.dst_locals.len() as u64 + b.src_offsets.len() as u64 + b.src_locals.len() as u64;
        }
        words * 8
    }

    /// Validates every block and the seed list. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        for (i, b) in self.blocks.iter().enumerate() {
            b.validate(n).map_err(|e| format!("block {i}: {e}"))?;
        }
        if let Some(&bad) = self.seed_locals.iter().find(|&&s| s >= n) {
            return Err(format!("seed local {bad} out of range"));
        }
        for w in self.blocks.windows(2) {
            if w[1].dst_locals.len() > w[0].dst_locals.len() {
                return Err("blocks must narrow towards the seeds".into());
            }
        }
        if let Some(last) = self.blocks.last() {
            if last.dst_locals != self.seed_locals {
                return Err("final block's destinations must be the seeds".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_layer() -> SampledSubgraph {
        // Nodes: global 10, 20, 30, 40; seeds: local 0 (global 10).
        // Block 0 (wide): dst {0, 1}, srcs {0:[2,3], 1:[3]}.
        // Block 1 (seed): dst {0}, srcs {0:[1]}.
        SampledSubgraph::new(
            vec![NodeId(10), NodeId(20), NodeId(30), NodeId(40)],
            vec![
                Block {
                    dst_locals: vec![0, 1],
                    src_offsets: vec![0, 2, 3],
                    src_locals: vec![2, 3, 3],
                },
                Block {
                    dst_locals: vec![0],
                    src_offsets: vec![0, 1],
                    src_locals: vec![1],
                },
            ],
            vec![0],
        )
    }

    #[test]
    fn counts() {
        let g = two_layer();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.blocks[0].num_dst(), 2);
        assert_eq!(g.blocks[0].sources_of(0), &[2, 3]);
    }

    #[test]
    fn valid_subgraph_validates() {
        assert_eq!(two_layer().validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_offsets() {
        let mut g = two_layer();
        g.blocks[0].src_offsets = vec![0, 3, 2];
        assert!(g.validate().unwrap_err().contains("monotone"));
    }

    #[test]
    fn validation_catches_out_of_range_local() {
        let mut g = two_layer();
        g.blocks[0].src_locals[0] = 99;
        assert!(g.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn validation_catches_seed_mismatch() {
        let mut g = two_layer();
        g.seed_locals = vec![1];
        assert!(g.validate().is_err());
    }

    #[test]
    fn validation_requires_narrowing() {
        let mut g = two_layer();
        g.blocks.reverse();
        assert!(g.validate().is_err());
    }

    #[test]
    fn sorted_ids_are_sorted() {
        let g = two_layer();
        let ids = g.sorted_global_ids();
        assert!(ids.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn sorted_ids_match_the_sort_oracle() {
        for nodes in crate::oracle::cases() {
            let g = SampledSubgraph::new(nodes.clone(), Vec::new(), Vec::new());
            assert_eq!(g.sorted_global_ids(), crate::oracle::sorted(&nodes));
        }
    }

    #[test]
    fn byte_accounting() {
        let g = two_layer();
        assert_eq!(g.feature_bytes(100), 4 * 100 * 4);
        // words: nodes 4 + seeds 1 + block0 (2+3+3) + block1 (1+2+1) = 17
        assert_eq!(g.topology_bytes(), 17 * 8);
    }
}
