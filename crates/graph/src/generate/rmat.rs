//! R-MAT power-law graph generator (Chakrabarti, Zhan & Faloutsos, 2004).
//!
//! R-MAT recursively subdivides the adjacency matrix into quadrants with
//! probabilities `(a, b, c, d)` and drops each edge into a quadrant chosen
//! at random, yielding graphs with heavy-tailed degree distributions like
//! the social/citation/co-purchase networks used in the paper.

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::rng::DeterministicRng;

/// Parameters of the R-MAT generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// Number of nodes; rounded up to a power of two internally for the
    /// recursion, then draws outside the range wrap around.
    pub num_nodes: u64,
    /// Number of directed edges to draw (before dedup / symmetrisation).
    pub num_edges: u64,
    /// Probability of the top-left quadrant. Larger `a` means heavier skew.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Whether to add the reverse of every edge (undirected benchmarks).
    pub symmetric: bool,
    /// Per-level probability perturbation, which avoids the unrealistic
    /// perfectly self-similar structure of vanilla R-MAT.
    pub noise: f64,
}

impl RmatConfig {
    /// A reasonable social-network-like default: `(0.57, 0.19, 0.19)`.
    pub fn social(num_nodes: u64, num_edges: u64) -> Self {
        Self {
            num_nodes,
            num_edges,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            symmetric: true,
            noise: 0.1,
        }
    }

    /// A citation-network-like config with slightly milder skew.
    pub fn citation(num_nodes: u64, num_edges: u64) -> Self {
        Self {
            a: 0.50,
            b: 0.22,
            c: 0.22,
            ..Self::social(num_nodes, num_edges)
        }
    }

    /// Implied probability of the bottom-right quadrant.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Validates that the probabilities form a distribution.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when probabilities are negative or
    /// sum above one, or when the graph is empty.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_nodes == 0 {
            return Err("num_nodes must be positive".into());
        }
        if self.a < 0.0 || self.b < 0.0 || self.c < 0.0 || self.d() < 0.0 {
            return Err(format!(
                "quadrant probabilities must be non-negative (a={}, b={}, c={}, d={})",
                self.a,
                self.b,
                self.c,
                self.d()
            ));
        }
        Ok(())
    }
}

/// Generates an R-MAT graph.
///
/// Deterministic in `(config, seed)`.
///
/// # Panics
///
/// Panics if `config.validate()` fails; validate first when handling
/// untrusted configuration.
pub fn generate(config: &RmatConfig, seed: u64) -> Csr {
    config.validate().expect("invalid R-MAT configuration");
    let mut rng = DeterministicRng::seed(seed ^ 0x9E02_17F6_D23B_55A1);
    let levels = 64 - (config.num_nodes.max(2) - 1).leading_zeros();
    let mut builder = GraphBuilder::new(config.num_nodes).symmetric(config.symmetric);
    for _ in 0..config.num_edges {
        let (u, v) = sample_edge(config, levels, &mut rng);
        builder.push_edge(u, v);
    }
    builder.build()
}

fn sample_edge(config: &RmatConfig, levels: u32, rng: &mut DeterministicRng) -> (u64, u64) {
    let mut u = 0u64;
    let mut v = 0u64;
    // Perturb quadrant probabilities once per edge; this keeps the generator
    // fast while still breaking vanilla R-MAT's perfect self-similarity.
    let jitter = |p: f64, r: f64| (p * (1.0 - config.noise + 2.0 * config.noise * r)).max(0.0);
    let a = jitter(config.a, rng.unit_f64());
    let b = jitter(config.b, rng.unit_f64());
    let c = jitter(config.c, rng.unit_f64());
    let d = jitter(config.d(), rng.unit_f64());
    let total = a + b + c + d;
    for _ in 0..levels {
        let x = rng.unit_f64() * total;
        u <<= 1;
        v <<= 1;
        if x < a {
            // top-left: no bits set
        } else if x < a + b {
            v |= 1;
        } else if x < a + b + c {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u % config.num_nodes, v % config.num_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::NodeId;

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = RmatConfig::social(1000, 5000);
        let g1 = generate(&cfg, 11);
        let g2 = generate(&cfg, 11);
        assert_eq!(g1, g2);
    }

    #[test]
    fn different_seed_different_graph() {
        let cfg = RmatConfig::social(1000, 5000);
        assert_ne!(generate(&cfg, 1), generate(&cfg, 2));
    }

    #[test]
    fn node_and_edge_counts_reasonable() {
        let cfg = RmatConfig::social(2048, 10_000);
        let g = generate(&cfg, 3);
        assert_eq!(g.num_nodes(), 2048);
        // Symmetrised and deduped: between num_edges and 2 * num_edges.
        assert!(g.num_edges() <= 20_000);
        assert!(g.num_edges() >= 5_000, "edges {}", g.num_edges());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let cfg = RmatConfig::social(4096, 40_000);
        let g = generate(&cfg, 5);
        let avg = g.average_degree();
        let max = g.nodes().map(|u| g.degree(u)).max().unwrap() as f64;
        // Power-law graphs have max degree far above the mean.
        assert!(max > 8.0 * avg, "max {max} avg {avg}");
    }

    #[test]
    fn non_power_of_two_node_count_in_range() {
        let cfg = RmatConfig::social(1000, 3000);
        let g = generate(&cfg, 7);
        assert_eq!(g.num_nodes(), 1000);
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                assert!(v < 1000);
            }
        }
    }

    #[test]
    fn validate_rejects_bad_probs() {
        let mut cfg = RmatConfig::social(10, 10);
        cfg.a = 0.9;
        cfg.b = 0.9;
        assert!(cfg.validate().is_err());
        assert!(RmatConfig::social(0, 5).validate().is_err());
    }

    #[test]
    fn symmetric_graphs_have_reverse_edges() {
        let cfg = RmatConfig::social(512, 2000);
        let g = generate(&cfg, 9);
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                assert!(
                    g.neighbors(NodeId(v)).contains(&u.0),
                    "missing reverse of ({u}, n{v})"
                );
            }
        }
    }
}
