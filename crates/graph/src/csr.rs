//! Compressed sparse row (CSR) adjacency storage.
//!
//! Every sampler and simulated kernel in the workspace consumes this format:
//! an `offsets` array of length `n + 1` and a flat `targets` array holding
//! the out-neighbours of node `i` at `targets[offsets[i]..offsets[i + 1]]`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node in the *raw* (global) graph.
///
/// The paper calls these **global IDs**; after sampling they are remapped to
/// consecutive **local IDs** by the ID-map process (see `fastgl-sample`).
/// The public field mirrors the paper's treatment of IDs as plain integers —
/// `NodeId` is a passive value, not an abstraction boundary.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The node's position when used as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u64 {
    fn from(v: NodeId) -> u64 {
        v.0
    }
}

/// Errors produced while validating or constructing a [`Csr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `offsets` must start at zero.
    OffsetsMustStartAtZero,
    /// `offsets` must be monotonically non-decreasing.
    OffsetsNotMonotone {
        /// Index at which monotonicity is violated.
        at: usize,
    },
    /// The final offset must equal `targets.len()`.
    OffsetsTargetMismatch {
        /// Value of the final offset.
        last_offset: u64,
        /// Actual number of stored targets.
        targets_len: usize,
    },
    /// A target column index refers to a node that does not exist.
    TargetOutOfRange {
        /// The offending target value.
        target: u64,
        /// The number of nodes in the graph.
        num_nodes: u64,
    },
    /// `offsets` was empty (must contain at least the leading zero).
    EmptyOffsets,
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::OffsetsMustStartAtZero => write!(f, "offsets must start at zero"),
            CsrError::OffsetsNotMonotone { at } => {
                write!(f, "offsets decrease at index {at}")
            }
            CsrError::OffsetsTargetMismatch {
                last_offset,
                targets_len,
            } => write!(
                f,
                "last offset {last_offset} does not match targets length {targets_len}"
            ),
            CsrError::TargetOutOfRange { target, num_nodes } => {
                write!(f, "target {target} out of range for {num_nodes} nodes")
            }
            CsrError::EmptyOffsets => write!(f, "offsets array was empty"),
        }
    }
}

impl std::error::Error for CsrError {}

/// A directed graph in compressed sparse row form.
///
/// # Example
///
/// ```
/// use fastgl_graph::{Csr, NodeId};
///
/// // 0 -> 1, 0 -> 2, 2 -> 0
/// let g = Csr::from_parts(vec![0, 2, 2, 3], vec![1, 2, 0]).unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.neighbors(NodeId(0)), &[1, 2]);
/// assert_eq!(g.degree(NodeId(1)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<u64>,
}

impl Csr {
    /// Builds a CSR from raw arrays, validating all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`CsrError`] if the offsets are empty, do not start at
    /// zero, decrease anywhere, disagree with `targets.len()`, or if any
    /// target index is out of range.
    pub fn from_parts(offsets: Vec<u64>, targets: Vec<u64>) -> Result<Self, CsrError> {
        if offsets.is_empty() {
            return Err(CsrError::EmptyOffsets);
        }
        if offsets[0] != 0 {
            return Err(CsrError::OffsetsMustStartAtZero);
        }
        for i in 1..offsets.len() {
            if offsets[i] < offsets[i - 1] {
                return Err(CsrError::OffsetsNotMonotone { at: i });
            }
        }
        let last = *offsets.last().expect("non-empty");
        if last != targets.len() as u64 {
            return Err(CsrError::OffsetsTargetMismatch {
                last_offset: last,
                targets_len: targets.len(),
            });
        }
        let num_nodes = (offsets.len() - 1) as u64;
        if let Some(&bad) = targets.iter().find(|&&t| t >= num_nodes) {
            return Err(CsrError::TargetOutOfRange {
                target: bad,
                num_nodes,
            });
        }
        Ok(Self { offsets, targets })
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: u64) -> Self {
        Self {
            offsets: vec![0; n as usize + 1],
            targets: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: NodeId) -> u64 {
        let i = u.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The out-neighbours of `u` as a slice of raw node indices.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[u64] {
        let i = u.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId)
    }

    /// Iterator over all `(source, target)` edges in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, NodeId(v))))
    }

    /// Average out-degree.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Raw offsets array (length `num_nodes + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw flat targets array (length `num_edges`).
    #[inline]
    pub fn targets(&self) -> &[u64] {
        &self.targets
    }

    /// Bytes needed to store the topology (offsets + targets) on a device.
    ///
    /// Used by the simulator's memory accounting (paper Tables 1 and 9).
    pub fn topology_bytes(&self) -> u64 {
        (self.offsets.len() + self.targets.len()) as u64 * std::mem::size_of::<u64>() as u64
    }

    /// Nodes sorted by descending out-degree.
    ///
    /// This is the ordering used by degree-based static feature caches
    /// (PaGraph and the optional FastGL cache): high-degree nodes are the
    /// most likely to be sampled, so they are cached first.
    pub fn nodes_by_degree_desc(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.nodes().collect();
        nodes.sort_by_key(|&u| std::cmp::Reverse(self.degree(u)));
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> {1, 2}, 1 -> {3}, 2 -> {3}, 3 -> {}
        Csr::from_parts(vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3]).unwrap()
    }

    #[test]
    fn from_parts_accepts_valid() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn rejects_empty_offsets() {
        assert_eq!(Csr::from_parts(vec![], vec![]), Err(CsrError::EmptyOffsets));
    }

    #[test]
    fn rejects_nonzero_start() {
        assert_eq!(
            Csr::from_parts(vec![1, 2], vec![0, 0]),
            Err(CsrError::OffsetsMustStartAtZero)
        );
    }

    #[test]
    fn rejects_decreasing_offsets() {
        assert_eq!(
            Csr::from_parts(vec![0, 2, 1], vec![0, 0]),
            Err(CsrError::OffsetsNotMonotone { at: 2 })
        );
    }

    #[test]
    fn rejects_offset_target_mismatch() {
        assert_eq!(
            Csr::from_parts(vec![0, 3], vec![0, 0]),
            Err(CsrError::OffsetsTargetMismatch {
                last_offset: 3,
                targets_len: 2
            })
        );
    }

    #[test]
    fn rejects_out_of_range_target() {
        assert_eq!(
            Csr::from_parts(vec![0, 1], vec![5]),
            Err(CsrError::TargetOutOfRange {
                target: 5,
                num_nodes: 1
            })
        );
    }

    #[test]
    fn neighbors_and_degree_agree() {
        let g = diamond();
        for u in g.nodes() {
            assert_eq!(g.neighbors(u).len() as u64, g.degree(u));
        }
        assert_eq!(g.neighbors(NodeId(0)), &[1, 2]);
        assert_eq!(g.degree(NodeId(3)), 0);
    }

    #[test]
    fn edges_iterates_in_csr_order() {
        let g = diamond();
        let edges: Vec<_> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert!(g.nodes().all(|u| g.degree(u) == 0));
    }

    #[test]
    fn zero_node_graph_average_degree_is_zero() {
        let g = Csr::empty(0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn degree_ordering_descends() {
        let g = diamond();
        let order = g.nodes_by_degree_desc();
        assert_eq!(order[0], NodeId(0));
        let degs: Vec<u64> = order.iter().map(|&u| g.degree(u)).collect();
        let mut sorted = degs.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(degs, sorted);
    }

    #[test]
    fn topology_bytes_counts_both_arrays() {
        let g = diamond();
        assert_eq!(g.topology_bytes(), (5 + 4) * 8);
    }

    #[test]
    fn node_id_display_and_conversions() {
        let n = NodeId(42);
        assert_eq!(n.to_string(), "n42");
        assert_eq!(u64::from(n), 42);
        assert_eq!(NodeId::from(42u64), n);
        assert_eq!(n.index(), 42);
    }
}
