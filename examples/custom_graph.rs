//! Bring your own graph: load an edge list, wrap it as a dataset, and
//! compare training systems on it.
//!
//! ```sh
//! cargo run --release --example custom_graph [path/to/edges.txt]
//! ```
//!
//! Without an argument the example writes a small demo edge list to a
//! temporary file first, so it runs out of the box. The edge-list format
//! is one `src dst` pair per line; `#` comments allowed.

use fastgl::baselines::SystemKind;
use fastgl::core::FastGlConfig;
use fastgl::graph::datasets::{DatasetBundle, DatasetSpec};
use fastgl::graph::{io, Dataset, DegreeStats, FeatureStore, NodeSplit};
use std::path::PathBuf;

fn demo_edge_list() -> PathBuf {
    // A synthetic co-authorship-like graph written as a plain edge list.
    use fastgl::graph::generate::rmat::{self, RmatConfig};
    let g = rmat::generate(&RmatConfig::citation(4_000, 40_000), 123);
    let path = std::env::temp_dir().join("fastgl_demo_edges.txt");
    let file = std::fs::File::create(&path).expect("create demo file");
    io::write_edge_list(&g, file).expect("write demo edge list");
    path
}

fn main() {
    if let Err(e) = fastgl::core::check_env() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let path = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(demo_edge_list);
    println!("loading edge list from {}", path.display());

    let content = std::fs::read_to_string(&path).expect("read edge list");
    // Infer the node count from the maximum endpoint.
    let max_id = content
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .flat_map(|l| l.split_whitespace().take(2))
        .filter_map(|t| t.parse::<u64>().ok())
        .max()
        .expect("edge list contains no edges");
    let graph = io::read_edge_list(content.as_bytes(), max_id + 1, true).expect("parse edge list");

    let stats = DegreeStats::compute(&graph);
    println!(
        "graph: {} nodes, {} edges, mean degree {:.1}, max {}, gini {:.3}",
        stats.num_nodes, stats.num_edges, stats.mean, stats.max, stats.gini
    );

    // Wrap the raw topology as a dataset: declare feature width and class
    // count (virtual features are enough for timing studies), and split
    // the nodes into train/val/test.
    let spec = DatasetSpec {
        dataset: Dataset::Products, // family label for RNG seeding only
        num_nodes: graph.num_nodes(),
        num_edges: graph.num_edges(),
        feature_dim: 128,
        num_classes: 16,
        train_fraction: 0.2,
        scale: 1.0 / 64.0, // tells the simulator which regime to model
    };
    let bundle = DatasetBundle {
        spec,
        features: FeatureStore::virtual_store(graph.num_nodes(), 128),
        split: NodeSplit::stratified(graph.num_nodes(), 0.2, 0.1, 7),
        graph,
    };

    let cfg = FastGlConfig::default()
        .with_batch_size(128)
        .with_fanouts(vec![5, 10]);
    println!(
        "\n{:>12} {:>12} {:>10} {:>10} {:>10}",
        "system", "epoch", "sample", "io", "compute"
    );
    for kind in [SystemKind::Dgl, SystemKind::GnnLab, SystemKind::FastGl] {
        let mut sys = kind.build(cfg.clone());
        let s = sys.run_epochs(&bundle, 3);
        println!(
            "{:>12} {:>12} {:>10} {:>10} {:>10}",
            kind.name(),
            s.total().to_string(),
            s.breakdown.sample.to_string(),
            s.breakdown.io.to_string(),
            s.breakdown.compute.to_string(),
        );
    }
}
