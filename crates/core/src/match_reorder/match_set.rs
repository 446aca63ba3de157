//! The Match step: computing `LoadNodeID` (paper §4.1, Fig. 6a).
//!
//! Given the node set of the mini-batch about to be computed and the node
//! set still resident on the device from the previous mini-batch, Match
//! subtracts their intersection (`OverlapNodeID`): only the remainder's
//! feature rows are fetched from host memory.

use fastgl_graph::NodeId;
use fastgl_sample::NodeSet;

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
/// set) and `resident` (the node set currently on the device).
///
/// `incoming` must be sorted ascending and duplicate-free (the form
/// produced by `SampledSubgraph::sorted_global_ids`); `load` keeps its
/// order. `resident` may come in any order: it becomes a [`NodeSet`], and
/// each incoming ID is one bit test against it.
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
    let resident = NodeSet::from_ids(resident);
    // Every ID is written and only the misses advance the cursor, so the
    // loop has no branch on whether an ID is resident, which a branch
    // predictor cannot learn.
    let mut load = vec![NodeId(0); incoming.len()];
    let mut len = 0;
    for &node in incoming {
        load[len] = node;
        len += usize::from(!resident.contains(node));
    }
    load.truncate(len);
    let reused = (incoming.len() - len) as u64;
    MatchResult { load, reused }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_set_oracle as oracle;

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

    #[test]
    fn load_set_matches_the_merge_oracle_on_every_pair() {
        let sets: Vec<Vec<NodeId>> = oracle::cases().iter().map(|c| oracle::sorted(c)).collect();
        for incoming in &sets {
            for resident in &sets {
                let m = match_load_set(incoming, resident);
                assert_eq!(
                    (m.load, m.reused),
                    oracle::match_load_set(incoming, resident),
                    "|incoming| = {}, |resident| = {}",
                    incoming.len(),
                    resident.len()
                );
            }
        }
    }
}
