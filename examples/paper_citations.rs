//! Large-scale citation-graph scenario: the memory-constrained regime of
//! Papers100M, where cache-based systems starve and Match-Reorder shines.
//!
//! ```sh
//! cargo run --release --example paper_citations
//! ```
//!
//! Reproduces the paper's core argument (§3.1 + Fig. 10a) on a Papers100M
//! stand-in: estimates how much device memory the workload leaves at full
//! scale, then sweeps the cache ratio to show FastGL's advantage grows
//! exactly where caches cannot help.

use fastgl::baselines::SystemKind;
use fastgl::core::memory_model::estimate_unique_nodes;
use fastgl::core::{FastGl, FastGlConfig, TrainingSystem};
use fastgl::graph::Dataset;

fn main() {
    if let Err(e) = fastgl::core::check_env() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    // 1. Full-scale argument: how big is a sampled subgraph on the real
    //    Papers100M, and what does it leave of 24 GB?
    let full = Dataset::Papers100M.spec();
    let nodes = estimate_unique_nodes(full.num_nodes, full.average_degree(), 8_000, &[5, 10, 15]);
    let feature_buffer_gb = nodes as f64 * full.feature_dim as f64 * 4.0 / 1e9;
    println!(
        "Papers100M at full scale: a batch-8000 [5,10,15] subgraph reaches \
         ~{:.1}M nodes,\nwhose feature staging alone needs ~{:.1} GB — \
         little of the 24 GB remains for a cache (paper Table 1: ~1 GB).",
        nodes as f64 / 1e6,
        feature_buffer_gb,
    );

    // 2. Scaled measurement: IO time vs cache ratio, GNNLab vs FastGL.
    let data = Dataset::Papers100M.generate_scaled(1.0 / 2048.0, 5);
    println!(
        "\nscaled stand-in: {} nodes, {} edges; sweeping cache ratio:",
        data.graph.num_nodes(),
        data.graph.num_edges(),
    );
    let base = FastGlConfig::default().with_batch_size(128);
    println!(
        "{:>12} {:>14} {:>14}",
        "cache ratio", "GNNLab IO", "FastGL IO"
    );
    for ratio in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let mut lab = SystemKind::GnnLab.build(base.clone().with_cache_ratio(ratio));
        let mut fast = FastGl::new(base.clone().with_cache_ratio(ratio));
        let io_lab = lab.run_epochs(&data, 2).breakdown.io;
        let io_fast = fast.run_epochs(&data, 2).breakdown.io;
        println!(
            "{ratio:>12.1} {:>14} {:>14}",
            io_lab.to_string(),
            io_fast.to_string()
        );
    }
    println!(
        "\npaper shape (Fig. 10a): with little cache (left rows) FastGL's \
         Match-Reorder wins decisively;\nwith abundant cache both converge \
         and FastGL keeps a minor edge."
    );
}
