//! Social-network scenario: GAT on a Reddit-like graph, and what
//! Match-Reorder buys on a dense social topology.
//!
//! ```sh
//! cargo run --release --example social_network
//! ```
//!
//! Reddit's average degree of ~470 makes sampled subgraphs overlap up to
//! 93% (paper Table 4) — the best case for Match-Reorder. This example
//! measures the actual match degrees of a sampled window, then compares
//! epoch IO with Match/Reorder on and off.

use fastgl::core::sampler::SamplerEngine;
use fastgl::core::{FastGl, FastGlConfig, TrainingSystem};
use fastgl::gnn::ModelKind;
use fastgl::graph::{Dataset, DeterministicRng};
use fastgl::sample::overlap::{match_degree_matrix, summarize_matrix};
use fastgl::sample::MinibatchPlan;
use fastgl::telemetry;

fn main() {
    let data = Dataset::Reddit.generate_scaled(1.0 / 64.0, 7);
    telemetry::reset();
    println!(
        "Reddit stand-in: {} nodes, {} edges (avg degree {:.0})",
        data.graph.num_nodes(),
        data.graph.num_edges(),
        data.graph.average_degree(),
    );

    let config = FastGlConfig::default()
        .with_model(ModelKind::Gat)
        .with_batch_size(256)
        .with_fanouts(vec![5, 10]);

    // 1. How much do sampled mini-batches overlap?
    let sampler = SamplerEngine::new(&config);
    let plan = MinibatchPlan::new(data.train_nodes(), 256, 7, 0);
    let mut rng = DeterministicRng::seed(7);
    let sets: Vec<_> = plan
        .iter()
        .take(8)
        .map(|seeds| {
            sampler
                .sample_batch(&data.graph, seeds, &mut rng)
                .0
                .sorted_global_ids()
                .to_vec()
        })
        .collect();
    let summary = summarize_matrix(&match_degree_matrix(&sets));
    println!(
        "match degree across a window of 8 mini-batches: avg {:.1}%, spread {:.1}% \
         (paper Reddit: 93.2% / 4.9%)",
        summary.average * 100.0,
        summary.spread * 100.0,
    );

    // 2. What does that overlap buy?
    let mut without = {
        let mut c = config.clone().with_cache_ratio(0.0);
        c.enable_match = false;
        c.enable_reorder = false;
        FastGl::new(c)
    };
    let mut with_mr = FastGl::new(config.with_cache_ratio(0.0));
    let s_without = without.run_epochs(&data, 3);
    let s_with = with_mr.run_epochs(&data, 3);
    println!(
        "\nGAT epoch IO: {} without Match-Reorder, {} with ({}x less PCIe traffic)",
        s_without.breakdown.io,
        s_with.breakdown.io,
        s_without.bytes_h2d / s_with.bytes_h2d.max(1),
    );
    println!(
        "rows loaded {} -> {}, reused {} of the incoming batches",
        s_without.rows_loaded, s_with.rows_loaded, s_with.rows_reused,
    );
    println!(
        "epoch time {} -> {} ({:.2}x)",
        s_without.total(),
        s_with.total(),
        s_without.total().as_secs_f64() / s_with.total().as_secs_f64(),
    );

    // With FASTGL_TELEMETRY=1 the whole scenario (sampling probes plus
    // both epochs runs) is summarised and exported as telemetry JSON.
    if telemetry::enabled() {
        let snap = telemetry::drain();
        print!("\n{}", telemetry::export::summary(&snap));
        let dir = std::path::Path::new("results/telemetry");
        match telemetry::export::write_to_dir(&snap, dir, "social_network") {
            Ok(perf) => println!("telemetry: {}", perf.display()),
            Err(e) => eprintln!("warning: could not write telemetry: {e}"),
        }
    }
}
