//! The Match step: computing `LoadNodeID` (paper §4.1, Fig. 6a).
//!
//! Given the node set of the mini-batch about to be computed and the node
//! set still resident on the device from the previous mini-batch, Match
//! subtracts their intersection (`OverlapNodeID`): only the remainder's
//! feature rows are fetched from host memory.

use fastgl_graph::NodeId;

/// The outcome of one Match step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchResult {
    /// Global IDs whose feature rows must be loaded over PCIe
    /// (the paper's `LoadNodeID`), sorted ascending.
    pub load: Vec<NodeId>,
    /// Number of rows reused from the resident mini-batch
    /// (`|OverlapNodeID|`).
    pub reused: u64,
}

/// Computes the Match between `incoming` (the next mini-batch's sorted node
/// set) and `resident` (the sorted node set currently on the device).
///
/// Both inputs must be sorted ascending and duplicate-free (the form
/// produced by `SampledSubgraph::sorted_global_ids`).
///
/// # Example
///
/// The paper's Fig. 6a: nodes 0, 3, 4 are reused; only 10 and 12 load.
///
/// ```
/// use fastgl_core::match_reorder::match_load_set;
/// use fastgl_graph::NodeId;
///
/// let resident: Vec<NodeId> = [0, 1, 2, 3, 4, 8].map(NodeId).to_vec();
/// let incoming: Vec<NodeId> = [0, 3, 4, 10, 12].map(NodeId).to_vec();
/// let m = match_load_set(&incoming, &resident);
/// assert_eq!(m.load, [10, 12].map(NodeId).to_vec());
/// assert_eq!(m.reused, 3);
/// ```
pub fn match_load_set(incoming: &[NodeId], resident: &[NodeId]) -> MatchResult {
    debug_assert!(incoming.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(resident.windows(2).all(|w| w[0] < w[1]));
    let mut load = Vec::new();
    let mut reused = 0u64;
    let mut j = 0usize;
    for &node in incoming {
        while j < resident.len() && resident[j] < node {
            j += 1;
        }
        if j < resident.len() && resident[j] == node {
            reused += 1;
            j += 1;
        } else {
            load.push(node);
        }
    }
    MatchResult { load, reused }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u64]) -> Vec<NodeId> {
        xs.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn paper_figure_6a_example() {
        // SubG1 resident: {0, 1, 2, 3, 4, 8}; SubG2 incoming:
        // {0, 3, 4, 10, 12}. Overlap {0, 3, 4}; load {10, 12}.
        let resident = ids(&[0, 1, 2, 3, 4, 8]);
        let incoming = ids(&[0, 3, 4, 10, 12]);
        let m = match_load_set(&incoming, &resident);
        assert_eq!(m.load, ids(&[10, 12]));
        assert_eq!(m.reused, 3);
    }

    #[test]
    fn empty_resident_loads_everything() {
        let incoming = ids(&[1, 2, 3]);
        let m = match_load_set(&incoming, &[]);
        assert_eq!(m.load, incoming);
        assert_eq!(m.reused, 0);
    }

    #[test]
    fn identical_sets_load_nothing() {
        let set = ids(&[5, 9, 11]);
        let m = match_load_set(&set, &set);
        assert!(m.load.is_empty());
        assert_eq!(m.reused, 3);
    }

    #[test]
    fn disjoint_sets_load_everything() {
        let m = match_load_set(&ids(&[10, 20]), &ids(&[1, 2, 3]));
        assert_eq!(m.load, ids(&[10, 20]));
        assert_eq!(m.reused, 0);
    }

    #[test]
    fn empty_incoming() {
        let m = match_load_set(&[], &ids(&[1, 2]));
        assert!(m.load.is_empty());
        assert_eq!(m.reused, 0);
    }

    #[test]
    fn partition_invariant_holds() {
        // load ∪ overlap = incoming, load ∩ resident = ∅.
        let incoming = ids(&[2, 4, 6, 8, 10, 12]);
        let resident = ids(&[3, 4, 5, 10, 11]);
        let m = match_load_set(&incoming, &resident);
        assert_eq!(m.load.len() as u64 + m.reused, incoming.len() as u64);
        for n in &m.load {
            assert!(!resident.contains(n), "{n} was resident but loaded");
        }
    }
}
