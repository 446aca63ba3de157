//! Inter-subgraph node overlap — the *match degree* of paper §4.1.
//!
//! `M_ij = |V_i ∩ V_j| / min(|V_i|, |V_j|)` measures how many nodes two
//! sampled subgraphs share. The paper's Table 4 reports averages up to
//! 93 % on Reddit, which is the headroom the Match-Reorder strategy
//! converts into saved PCIe traffic.

use crate::node_set::NodeSet;
use fastgl_graph::NodeId;

/// The match degree `M_ij` of two duplicate-free node sets, given in any
/// order; zero when either is empty.
///
/// # Example
///
/// ```
/// use fastgl_graph::NodeId;
/// use fastgl_sample::overlap::match_degree;
///
/// let a: Vec<NodeId> = [1, 2, 3, 4].map(NodeId).to_vec();
/// let b: Vec<NodeId> = [3, 4, 5].map(NodeId).to_vec();
/// assert!((match_degree(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn match_degree(a: &[NodeId], b: &[NodeId]) -> f64 {
    degree(&NodeSet::from_ids(a), &NodeSet::from_ids(b))
}

/// `|a ∩ b| / min(|a|, |b|)`, zero when either set is empty.
fn degree(a: &NodeSet, b: &NodeSet) -> f64 {
    let denom = a.len().min(b.len());
    if denom == 0 {
        return 0.0;
    }
    a.intersection_len(b) as f64 / denom as f64
}

/// The symmetric match-degree matrix of a window of duplicate-free node
/// sets, with a zero diagonal (a subgraph is never matched against itself
/// in Algorithm 1).
///
/// Each set becomes one [`NodeSet`], and each of the `O(window²)` pairs is
/// a popcount over the two bitsets, run serially: a window of 8 sets over
/// 100k nodes is 28 pairs of under 2k words each, far below the cost of a
/// thread fork.
pub fn match_degree_matrix<S: AsRef<[NodeId]>>(sets: &[S]) -> Vec<Vec<f64>> {
    let sets: Vec<NodeSet> = sets.iter().map(|s| NodeSet::from_ids(s.as_ref())).collect();
    let n = sets.len();
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = degree(&sets[i], &sets[j]);
            m[i][j] = d;
            m[j][i] = d;
        }
    }
    m
}

/// Summary of a match-degree matrix: the average off-diagonal degree and
/// the spread `ΔM = max − min` (paper Table 4's two rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchDegreeSummary {
    /// Mean of all off-diagonal `M_ij`.
    pub average: f64,
    /// `max(M_ij) − min(M_ij)` over off-diagonal entries.
    pub spread: f64,
}

/// Summarises a match-degree matrix; zero summary for fewer than 2 sets.
pub fn summarize_matrix(m: &[Vec<f64>]) -> MatchDegreeSummary {
    let n = m.len();
    if n < 2 {
        return MatchDegreeSummary {
            average: 0.0,
            spread: 0.0,
        };
    }
    let mut sum = 0.0;
    let mut count = 0usize;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for (i, row) in m.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if i != j {
                sum += v;
                count += 1;
                min = min.min(v);
                max = max.max(v);
            }
        }
    }
    MatchDegreeSummary {
        average: sum / count as f64,
        spread: max - min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u64]) -> Vec<NodeId> {
        xs.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn degree_of_disjoint_is_zero() {
        assert_eq!(match_degree(&ids(&[1, 2, 3]), &ids(&[4, 5])), 0.0);
    }

    #[test]
    fn degree_of_identical_is_full() {
        let a = ids(&[1, 5, 9]);
        assert_eq!(match_degree(&a, &a), 1.0);
    }

    #[test]
    fn partial_overlap() {
        let a = ids(&[1, 2, 3, 4]);
        let b = ids(&[3, 4, 5]);
        assert!((match_degree(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        // Input order does not matter.
        assert_eq!(
            match_degree(&ids(&[4, 3, 2, 1]), &ids(&[5, 3, 4])),
            match_degree(&a, &b)
        );
    }

    #[test]
    fn empty_sets() {
        assert_eq!(match_degree(&[], &ids(&[1])), 0.0);
        assert_eq!(match_degree(&[], &[]), 0.0);
    }

    #[test]
    fn degree_is_symmetric_and_bounded() {
        let a = ids(&[2, 4, 6, 8, 10]);
        let b = ids(&[1, 2, 3, 4]);
        let d1 = match_degree(&a, &b);
        let d2 = match_degree(&b, &a);
        assert_eq!(d1, d2);
        assert!((0.0..=1.0).contains(&d1));
    }

    #[test]
    fn matrix_is_symmetric_zero_diagonal() {
        let sets = vec![ids(&[1, 2, 3]), ids(&[2, 3, 4]), ids(&[9, 10])];
        let m = match_degree_matrix(&sets);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, m[j][i]);
            }
        }
        assert!((m[0][1] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m[0][2], 0.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let sets = vec![ids(&[1, 2]), ids(&[2, 3]), ids(&[1, 2])];
        let m = match_degree_matrix(&sets);
        let s = summarize_matrix(&m);
        // Pairs: (0,1)=0.5, (0,2)=1.0, (1,2)=0.5 -> avg 2/3, spread 0.5.
        assert!((s.average - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.spread - 0.5).abs() < 1e-12);
    }

    fn sorted_cases() -> Vec<Vec<NodeId>> {
        crate::oracle::cases()
            .iter()
            .map(|c| crate::oracle::sorted(c))
            .collect()
    }

    #[test]
    fn degree_matches_the_merge_oracle_on_every_pair() {
        let sets = sorted_cases();
        for a in &sets {
            for b in &sets {
                assert_eq!(
                    match_degree(a, b).to_bits(),
                    crate::oracle::match_degree(a, b).to_bits(),
                    "|a| = {}, |b| = {}",
                    a.len(),
                    b.len()
                );
            }
        }
    }

    #[test]
    fn matrix_matches_the_merge_oracle() {
        let sets = sorted_cases();
        let expected = crate::oracle::match_degree_matrix(&sets);
        let bits = |m: &[Vec<f64>]| -> Vec<Vec<u64>> {
            m.iter()
                .map(|row| row.iter().map(|d| d.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&match_degree_matrix(&sets)), bits(&expected));
        let views: Vec<&[NodeId]> = sets.iter().map(Vec::as_slice).collect();
        assert_eq!(bits(&match_degree_matrix(&views)), bits(&expected));
        // Windows of one and of none.
        assert_eq!(match_degree_matrix(&sets[..1]), vec![vec![0.0]]);
        assert!(match_degree_matrix::<Vec<NodeId>>(&[]).is_empty());
    }

    #[test]
    fn summary_of_trivial_windows() {
        assert_eq!(summarize_matrix(&[]).average, 0.0);
        let one = match_degree_matrix(&[ids(&[1])]);
        assert_eq!(summarize_matrix(&one).spread, 0.0);
    }
}
