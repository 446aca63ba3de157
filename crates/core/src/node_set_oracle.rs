//! The sort-and-merge node-set code of Match and the feature cache, kept
//! as the oracle that their node-set paths are checked against.

use fastgl_graph::{DeterministicRng, NodeId};

/// Match by a merge scan of two sorted, duplicate-free sets: the
/// incoming IDs not resident, and how many were.
pub fn match_load_set(incoming: &[NodeId], resident: &[NodeId]) -> (Vec<NodeId>, u64) {
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
    (load, reused)
}

/// The cache's membership test: a binary search of the sorted cached IDs.
pub fn cache_contains(sorted_cached: &[NodeId], node: NodeId) -> bool {
    sorted_cached.binary_search(&node).is_ok()
}

/// The cache's partition of a sorted load list against the sorted cached
/// IDs: `(hits, misses)`.
pub fn cache_partition(sorted_cached: &[NodeId], load: &[NodeId]) -> (u64, Vec<NodeId>) {
    let (misses, hits) = match_load_set(load, sorted_cached);
    (hits, misses)
}

/// The set sorted ascending.
pub fn sorted(ids: &[NodeId]) -> Vec<NodeId> {
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    ids
}

/// Duplicate-free node sets in unsorted order: random sets of several
/// densities, the empty set, singletons, ID 0, IDs across the first word
/// boundary (63/64/65), one set far wider than the others, and the
/// sparse set `{0, 10^7}`.
pub fn cases() -> Vec<Vec<NodeId>> {
    let ids = |xs: &[u64]| xs.iter().map(|&x| NodeId(x)).collect::<Vec<_>>();
    let mut rng = DeterministicRng::seed(0xCAC4E);
    let mut random = |universe: u64, k: usize| -> Vec<NodeId> {
        let mut all: Vec<NodeId> = (0..universe).map(NodeId).collect();
        rng.shuffle(&mut all);
        all.truncate(k);
        all
    };
    vec![
        random(1_000, 300),
        random(1_000, 700),
        random(4_096, 2_000),
        random(70_000, 20_000),
        random(130, 64),
        Vec::new(),
        ids(&[0]),
        ids(&[63]),
        ids(&[64]),
        ids(&[65]),
        ids(&[65, 63, 64]),
        ids(&[64, 0, 127, 128]),
        (0..5_000).rev().map(NodeId).collect(),
        ids(&[10_000_000, 0]),
    ]
}
