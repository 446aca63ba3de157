//! Graph statistics: degree distributions and shape fidelity checks.
//!
//! The experiments rest on the synthetic stand-ins *matching the published
//! shape* of the paper's graphs (Table 6). This module computes the
//! statistics that claim is judged by: degree moments, histogram, skew
//! (power-law tail weight), and a Gini coefficient of the degree
//! distribution.

use crate::csr::Csr;

/// Summary statistics of a graph's out-degree distribution.
///
/// # Example
///
/// ```
/// use fastgl_graph::{DegreeStats, GraphBuilder};
///
/// // A star: one hub owns every edge.
/// let mut b = GraphBuilder::new(10);
/// for i in 1..10 {
///     b.push_edge(0, i);
/// }
/// let stats = DegreeStats::compute(&b.build());
/// assert_eq!(stats.max, 9);
/// assert!(stats.gini > 0.8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of nodes.
    pub num_nodes: u64,
    /// Number of directed edges.
    pub num_edges: u64,
    /// Mean out-degree.
    pub mean: f64,
    /// Median out-degree.
    pub median: u64,
    /// Maximum out-degree.
    pub max: u64,
    /// Fraction of nodes with zero out-degree.
    pub isolated_fraction: f64,
    /// Gini coefficient of the degree distribution (0 = uniform,
    /// → 1 = all edges on one node); real power-law graphs sit ~0.5–0.8.
    pub gini: f64,
    /// Fraction of all edges owned by the top 1 % highest-degree nodes.
    pub top1pct_edge_share: f64,
}

impl DegreeStats {
    /// Computes the statistics of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no nodes.
    pub fn compute(graph: &Csr) -> Self {
        assert!(graph.num_nodes() > 0, "empty graph has no statistics");
        let mut degrees: Vec<u64> = graph.nodes().map(|u| graph.degree(u)).collect();
        degrees.sort_unstable();
        let n = degrees.len();
        let num_edges: u64 = degrees.iter().sum();
        let mean = num_edges as f64 / n as f64;
        let median = degrees[n / 2];
        let max = *degrees.last().expect("non-empty");
        let isolated = degrees.iter().filter(|&&d| d == 0).count();

        // Gini over the sorted degree sequence.
        let gini = if num_edges == 0 {
            0.0
        } else {
            let weighted: f64 = degrees
                .iter()
                .enumerate()
                .map(|(i, &d)| (i as f64 + 1.0) * d as f64)
                .sum();
            (2.0 * weighted) / (n as f64 * num_edges as f64) - (n as f64 + 1.0) / n as f64
        };

        let top = (n / 100).max(1);
        let top_edges: u64 = degrees[n - top..].iter().sum();
        Self {
            num_nodes: n as u64,
            num_edges,
            mean,
            median,
            max,
            isolated_fraction: isolated as f64 / n as f64,
            gini,
            top1pct_edge_share: if num_edges == 0 {
                0.0
            } else {
                top_edges as f64 / num_edges as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generate::rmat::{self, RmatConfig};

    fn star(n: u64) -> Csr {
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.push_edge(0, i);
        }
        b.build()
    }

    #[test]
    fn star_statistics() {
        let s = DegreeStats::compute(&star(100));
        assert_eq!(s.num_nodes, 100);
        assert_eq!(s.num_edges, 99);
        assert_eq!(s.max, 99);
        assert_eq!(s.median, 0);
        assert!((s.isolated_fraction - 0.99).abs() < 1e-12);
        assert!(
            s.gini > 0.95,
            "star should be maximally unequal: {}",
            s.gini
        );
        assert!((s.top1pct_edge_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regular_graph_has_zero_gini() {
        // Ring: every node has degree 1.
        let mut b = GraphBuilder::new(50);
        for i in 0..50 {
            b.push_edge(i, (i + 1) % 50);
        }
        let s = DegreeStats::compute(&b.build());
        assert!(s.gini.abs() < 1e-9, "ring gini {}", s.gini);
        assert_eq!(s.median, 1);
    }

    #[test]
    fn rmat_is_skewed_but_not_degenerate() {
        let g = rmat::generate(&RmatConfig::social(4_000, 40_000), 7);
        let s = DegreeStats::compute(&g);
        assert!(s.gini > 0.3, "R-MAT gini {}", s.gini);
        assert!(s.gini < 0.95);
        assert!(s.top1pct_edge_share > 0.05);
        assert!(s.max as f64 > 5.0 * s.mean);
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn empty_graph_rejected() {
        let _ = DegreeStats::compute(&Csr::empty(0));
    }
}
