//! Recommender-system scenario: PinSAGE-style random-walk sampling on a
//! co-purchase graph (paper Table 7's setting).
//!
//! ```sh
//! cargo run --release --example recommender
//! ```
//!
//! Web-scale recommenders (PinSAGE) define neighbourhoods by short random
//! walks rather than hop-wise fanouts. The paper shows Match-Reorder still
//! accelerates the memory IO phase there, because walk neighbourhoods of
//! nearby seeds overlap just like fanout neighbourhoods do.

use fastgl::core::{FastGl, FastGlConfig, TrainingSystem};
use fastgl::graph::{Dataset, DeterministicRng, NodeId};
use fastgl::sample::{FusedIdMap, RandomWalkSampler};

fn main() {
    if let Err(e) = fastgl::core::check_env() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    // The co-purchase network (ogbn-products) at 1/512 scale.
    let data = Dataset::Products.generate_scaled(1.0 / 512.0, 21);
    println!(
        "co-purchase graph: {} products, {} edges",
        data.graph.num_nodes(),
        data.graph.num_edges(),
    );

    // Peek at one walk-sampled neighbourhood.
    let sampler = RandomWalkSampler::paper_default();
    let mut rng = DeterministicRng::seed(3);
    let (sg, stats) = sampler.sample(
        &data.graph,
        &data.train_nodes()[..64.min(data.train_nodes().len())],
        &FusedIdMap::new(),
        &mut rng,
    );
    println!(
        "walk sampling (len {}, {} walks/seed): {} distinct nodes from {} draws for 64 seeds",
        sampler.walk_length,
        sampler.num_walks,
        sg.num_nodes(),
        stats.edges_sampled,
    );

    // Table 7's comparison: DGL-style loading vs Match vs Match+Reorder.
    let base = FastGlConfig::default()
        .with_batch_size(128)
        .with_gpus(1)
        .with_cache_ratio(0.0)
        .with_random_walk();
    let epoch_io = |enable_match: bool, enable_reorder: bool| {
        let mut c = base.clone();
        c.enable_match = enable_match;
        c.enable_reorder = enable_reorder;
        FastGl::new(c).run_epochs(&data, 3)
    };
    let dgl = epoch_io(false, false);
    let match_only = epoch_io(true, false);
    let full = epoch_io(true, true);
    println!("\nmemory IO per epoch (paper Table 7's comparison):");
    println!("  DGL-style          : {} (1.00x)", dgl.breakdown.io);
    println!(
        "  FastGL-nG (Match)  : {} ({:.2}x)",
        match_only.breakdown.io,
        dgl.breakdown.io.as_secs_f64() / match_only.breakdown.io.as_secs_f64(),
    );
    println!(
        "  FastGL (M+Reorder) : {} ({:.2}x)",
        full.breakdown.io,
        dgl.breakdown.io.as_secs_f64() / full.breakdown.io.as_secs_f64(),
    );
    let _ = NodeId(0);
}
