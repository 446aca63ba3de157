//! Registry of the paper's benchmark graphs (Table 6) and scaled synthetic
//! stand-ins.
//!
//! The real datasets (Reddit, ogbn-products, MAG, IGB-large, Papers100M)
//! are not available in this environment. Each [`Dataset`] records the
//! published statistics and can generate a deterministic R-MAT graph whose
//! node count, average degree, degree skew, feature width, and class count
//! match the original at a configurable scale factor.

use crate::csr::{Csr, NodeId};
use crate::features::FeatureStore;
use crate::generate::rmat::{self, RmatConfig};
use crate::partition::NodeSplit;
use serde::{Deserialize, Serialize};

/// The five benchmark graphs of the paper's Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// Reddit post-to-post graph (Hamilton et al.). 233k nodes, 0.11B edges.
    Reddit,
    /// ogbn-products Amazon co-purchase network. 2.44M nodes, 123M edges.
    Products,
    /// MAG scientific-publication graph. 10.1M nodes, 0.3B edges.
    Mag,
    /// IGB-large academic graph collection. 100M nodes, 1.2B edges.
    IgbLarge,
    /// ogbn-papers100M citation network. 111M nodes, 1.61B edges.
    Papers100M,
}

impl Dataset {
    /// All datasets in the order the paper tabulates them.
    pub const ALL: [Dataset; 5] = [
        Dataset::Reddit,
        Dataset::Products,
        Dataset::Mag,
        Dataset::IgbLarge,
        Dataset::Papers100M,
    ];

    /// The four datasets most tables use (IGB appears only in Fig. 9 /
    /// Table 9 contexts).
    pub const CORE4: [Dataset; 4] = [
        Dataset::Reddit,
        Dataset::Products,
        Dataset::Mag,
        Dataset::Papers100M,
    ];

    /// Short name as the paper abbreviates it (RD/PR/MAG/IGB/PA).
    pub fn short_name(self) -> &'static str {
        match self {
            Dataset::Reddit => "RD",
            Dataset::Products => "PR",
            Dataset::Mag => "MAG",
            Dataset::IgbLarge => "IGB",
            Dataset::Papers100M => "PA",
        }
    }

    /// Full display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Reddit => "Reddit",
            Dataset::Products => "Products",
            Dataset::Mag => "MAG",
            Dataset::IgbLarge => "IGB-large",
            Dataset::Papers100M => "Papers100M",
        }
    }

    /// Published full-scale statistics (paper Table 6) plus the training
    /// fraction of the underlying benchmark.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Reddit => DatasetSpec {
                dataset: self,
                num_nodes: 232_965,
                num_edges: 110_000_000,
                feature_dim: 602,
                num_classes: 41,
                train_fraction: 0.66,
                scale: 1.0,
            },
            Dataset::Products => DatasetSpec {
                dataset: self,
                num_nodes: 2_440_000,
                num_edges: 123_000_000,
                feature_dim: 200,
                num_classes: 47,
                train_fraction: 0.08,
                scale: 1.0,
            },
            Dataset::Mag => DatasetSpec {
                dataset: self,
                num_nodes: 10_100_000,
                num_edges: 300_000_000,
                feature_dim: 100,
                num_classes: 8,
                train_fraction: 0.05,
                scale: 1.0,
            },
            Dataset::IgbLarge => DatasetSpec {
                dataset: self,
                num_nodes: 100_000_000,
                num_edges: 1_200_000_000,
                feature_dim: 1024,
                num_classes: 19,
                train_fraction: 0.02,
                scale: 1.0,
            },
            Dataset::Papers100M => DatasetSpec {
                dataset: self,
                num_nodes: 111_000_000,
                num_edges: 1_610_000_000,
                feature_dim: 128,
                num_classes: 172,
                train_fraction: 0.011,
                scale: 1.0,
            },
        }
    }

    /// R-MAT parameters reflecting the graph family.
    fn rmat_kind(self, num_nodes: u64, num_edges: u64) -> RmatConfig {
        match self {
            Dataset::Reddit | Dataset::Products => RmatConfig::social(num_nodes, num_edges),
            Dataset::Mag | Dataset::IgbLarge | Dataset::Papers100M => {
                RmatConfig::citation(num_nodes, num_edges)
            }
        }
    }

    /// Generates a scaled synthetic stand-in; see [`DatasetSpec::generate`].
    pub fn generate_scaled(self, scale: f64, seed: u64) -> DatasetBundle {
        self.spec().scaled(scale).generate(seed)
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Statistics of a (possibly scaled) dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Which benchmark this describes.
    pub dataset: Dataset,
    /// Node count at the current scale.
    pub num_nodes: u64,
    /// Directed edge count at the current scale.
    pub num_edges: u64,
    /// Feature dimensionality (never scaled — byte-per-node costs must match).
    pub feature_dim: usize,
    /// Number of label classes.
    pub num_classes: usize,
    /// Fraction of nodes used as training seeds.
    pub train_fraction: f64,
    /// Scale factor relative to the published graph (1.0 = full scale).
    pub scale: f64,
}

impl DatasetSpec {
    /// Scales node and edge counts by `factor`, preserving average degree,
    /// feature width, and class count.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1], got {factor}"
        );
        self.num_nodes = ((self.num_nodes as f64 * factor) as u64).max(64);
        self.num_edges = ((self.num_edges as f64 * factor) as u64).max(256);
        self.scale *= factor;
        self
    }

    /// Average directed degree.
    pub fn average_degree(&self) -> f64 {
        self.num_edges as f64 / self.num_nodes as f64
    }

    /// Total feature bytes at this scale (FP32).
    pub fn feature_bytes(&self) -> u64 {
        self.num_nodes * self.feature_dim as u64 * 4
    }

    /// Generates the synthetic stand-in graph, virtual features, and a
    /// train/val/test split. Deterministic in `(self, seed)`.
    pub fn generate(&self, seed: u64) -> DatasetBundle {
        // Symmetrisation roughly doubles edges, dedup removes a skew-dependent
        // fraction; draw slightly over half the target count.
        let draws = (self.num_edges as f64 * 0.55) as u64;
        let cfg = self.dataset.rmat_kind(self.num_nodes, draws);
        let graph = rmat::generate(&cfg, seed ^ (self.dataset as u64) << 32);
        let features = FeatureStore::virtual_store(self.num_nodes, self.feature_dim);
        let split = NodeSplit::stratified(self.num_nodes, self.train_fraction, 0.1, seed ^ 0xBEEF);
        DatasetBundle {
            spec: *self,
            graph,
            features,
            split,
        }
    }
}

/// A generated dataset: topology, features, and node split.
#[derive(Debug, Clone)]
pub struct DatasetBundle {
    /// The (scaled) statistics this bundle realises.
    pub spec: DatasetSpec,
    /// Synthetic topology.
    pub graph: Csr,
    /// Feature store (virtual by default).
    pub features: FeatureStore,
    /// Train/validation/test node split.
    pub split: NodeSplit,
}

impl DatasetBundle {
    /// Training seed nodes.
    pub fn train_nodes(&self) -> &[NodeId] {
        self.split.train()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table6() {
        let rd = Dataset::Reddit.spec();
        assert_eq!(rd.num_nodes, 232_965);
        assert_eq!(rd.feature_dim, 602);
        assert_eq!(rd.num_classes, 41);
        let pa = Dataset::Papers100M.spec();
        assert_eq!(pa.num_nodes, 111_000_000);
        assert_eq!(pa.num_classes, 172);
        assert!((pa.average_degree() - 14.5).abs() < 0.1);
    }

    #[test]
    fn scaling_preserves_average_degree() {
        let spec = Dataset::Products.spec();
        let scaled = spec.scaled(1.0 / 128.0);
        assert!(
            (scaled.average_degree() - spec.average_degree()).abs() / spec.average_degree() < 0.01
        );
        assert_eq!(scaled.feature_dim, spec.feature_dim);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaling_rejects_zero() {
        let _ = Dataset::Reddit.spec().scaled(0.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::Products.generate_scaled(1.0 / 1024.0, 42);
        let b = Dataset::Products.generate_scaled(1.0 / 1024.0, 42);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.split.train(), b.split.train());
    }

    #[test]
    fn generated_graph_matches_spec_shape() {
        let bundle = Dataset::Mag.generate_scaled(1.0 / 2048.0, 7);
        let spec = &bundle.spec;
        assert_eq!(bundle.graph.num_nodes(), spec.num_nodes);
        // Generated degree within 2x of the target (dedup/symmetrise slack).
        let ratio = bundle.graph.average_degree() / spec.average_degree();
        assert!((0.4..=1.6).contains(&ratio), "degree ratio {ratio}");
        assert!(!bundle.train_nodes().is_empty());
    }

    #[test]
    fn short_names_match_paper() {
        let names: Vec<&str> = Dataset::ALL.iter().map(|d| d.short_name()).collect();
        assert_eq!(names, ["RD", "PR", "MAG", "IGB", "PA"]);
    }
}
