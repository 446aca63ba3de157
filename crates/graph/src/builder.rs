//! Edge-list ingestion: building a validated [`Csr`] from raw edges.

use crate::csr::Csr;
#[cfg(test)]
use crate::csr::NodeId;

/// Incrementally accumulates edges and produces a [`Csr`].
///
/// The builder sorts adjacency lists, removes duplicate edges and self
/// loops, and optionally symmetrises the graph (adds the reverse of every
/// edge), which is how the undirected benchmark graphs of the paper (e.g.
/// Reddit, Products) are stored by DGL/PyG.
///
/// # Example
///
/// ```
/// use fastgl_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(3)
///     .symmetric(true)
///     .add_edge(0, 1)
///     .add_edge(0, 1) // duplicate, removed
///     .add_edge(1, 2)
///     .build();
/// assert_eq!(g.num_edges(), 4); // 0-1, 1-0, 1-2, 2-1
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: u64,
    edges: Vec<(u64, u64)>,
    symmetric: bool,
}

impl GraphBuilder {
    /// A builder for a graph over `num_nodes` nodes.
    pub fn new(num_nodes: u64) -> Self {
        Self {
            num_nodes,
            edges: Vec::new(),
            symmetric: false,
        }
    }

    /// Whether every edge also inserts its reverse (default `false`).
    pub fn symmetric(mut self, yes: bool) -> Self {
        self.symmetric = yes;
        self
    }

    /// Adds one directed edge `u -> v`.
    ///
    /// Out-of-range endpoints are clamped into range by modulo, which lets
    /// generators produce raw 64-bit draws without range checks; callers
    /// inserting real data should pass valid indices.
    pub fn add_edge(mut self, u: u64, v: u64) -> Self {
        self.push_edge(u, v);
        self
    }

    /// Non-consuming variant of [`GraphBuilder::add_edge`] for loops.
    pub fn push_edge(&mut self, u: u64, v: u64) {
        debug_assert!(self.num_nodes > 0, "graph must have nodes");
        let u = u % self.num_nodes;
        let v = v % self.num_nodes;
        self.edges.push((u, v));
    }

    /// Adds many edges at once.
    pub fn extend_edges<I: IntoIterator<Item = (u64, u64)>>(mut self, iter: I) -> Self {
        for (u, v) in iter {
            self.push_edge(u, v);
        }
        self
    }

    /// Finalises the builder into a validated [`Csr`].
    ///
    /// # Panics
    ///
    /// Panics only if internal invariants are violated, which indicates a
    /// bug in this crate rather than bad user input (all user input is
    /// clamped in [`GraphBuilder::push_edge`]).
    pub fn build(self) -> Csr {
        let n = self.num_nodes;
        let mut edges = self.edges;
        if self.symmetric {
            let rev: Vec<(u64, u64)> = edges.iter().map(|&(u, v)| (v, u)).collect();
            edges.extend(rev);
        }
        edges.retain(|&(u, v)| u != v);
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0u64; n as usize + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let targets: Vec<u64> = edges.into_iter().map(|(_, v)| v).collect();
        Csr::from_parts(offsets, targets).expect("builder output must be structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_adjacency() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 3)
            .add_edge(0, 1)
            .add_edge(0, 2)
            .build();
        assert_eq!(g.neighbors(NodeId(0)), &[1, 2, 3]);
    }

    #[test]
    fn dedup_removes_duplicates() {
        let g = GraphBuilder::new(2).add_edge(0, 1).add_edge(0, 1).build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn symmetric_adds_reverse_edges() {
        let g = GraphBuilder::new(3).symmetric(true).add_edge(0, 1).build();
        assert_eq!(g.neighbors(NodeId(0)), &[1]);
        assert_eq!(g.neighbors(NodeId(1)), &[0]);
    }

    #[test]
    fn self_loops_are_dropped() {
        let g = GraphBuilder::new(2).add_edge(1, 1).add_edge(0, 1).build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn out_of_range_endpoints_wrap() {
        let g = GraphBuilder::new(3).add_edge(4, 5).build(); // 1 -> 2
        assert_eq!(g.neighbors(NodeId(1)), &[2]);
    }

    #[test]
    fn empty_builder_gives_empty_graph() {
        let g = GraphBuilder::new(7).build();
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 0);
    }
}
