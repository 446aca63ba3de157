//! The sort-and-merge node-set code, kept as the oracle that the node-set
//! paths are checked against bit for bit.

use fastgl_graph::{DeterministicRng, NodeId};

/// The node set sorted ascending: a clone and an unstable sort.
pub fn sorted(ids: &[NodeId]) -> Vec<NodeId> {
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    ids
}

/// `|a ∩ b|` of two sorted, duplicate-free slices by a merge scan.
pub fn intersection_size(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// `M_ij` of two sorted sets; zero when either is empty.
pub fn match_degree(a: &[NodeId], b: &[NodeId]) -> f64 {
    let denom = a.len().min(b.len());
    if denom == 0 {
        return 0.0;
    }
    intersection_size(a, b) as f64 / denom as f64
}

/// The symmetric, zero-diagonal match-degree matrix, one merge per pair.
pub fn match_degree_matrix(sets: &[Vec<NodeId>]) -> Vec<Vec<f64>> {
    let n = sets.len();
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = match_degree(&sets[i], &sets[j]);
            m[i][j] = d;
            m[j][i] = d;
        }
    }
    m
}

/// Duplicate-free node sets in unsorted order: random sets of several
/// densities, the empty set, singletons, ID 0, IDs across the first word
/// boundary (63/64/65), one set far wider than the others, and the
/// sparse set `{0, 10^7}`.
pub fn cases() -> Vec<Vec<NodeId>> {
    let ids = |xs: &[u64]| xs.iter().map(|&x| NodeId(x)).collect::<Vec<_>>();
    let mut rng = DeterministicRng::seed(0x5E7);
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
