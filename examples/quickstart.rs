//! Quickstart: simulate one epoch of FastGL vs DGL on a Products stand-in.
//!
//! ```sh
//! cargo run --release --example quickstart
//! FASTGL_TELEMETRY=1 cargo run --release --example quickstart
//! ```
//!
//! Generates a scaled synthetic ogbn-products, runs a GCN training epoch
//! under both pipelines on the simulated 2-GPU RTX 3090 server, and prints
//! the phase breakdown the paper's Fig. 1/3 are built from. With
//! `FASTGL_TELEMETRY=1` each run also prints the telemetry summary (wall
//! spans, counters including the `sim.*_ns` phase totals, histograms),
//! and FastGL's run is exported as
//! `results/telemetry/quickstart.telemetry.json`.

use fastgl::baselines::SystemKind;
use fastgl::core::FastGlConfig;
use fastgl::graph::Dataset;
use fastgl::telemetry;

fn main() {
    if let Err(e) = fastgl::core::check_env() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    // A 1/512-scale ogbn-products: same degree structure, 200-wide
    // features, 47 classes.
    let data = Dataset::Products.generate_scaled(1.0 / 512.0, 42);
    println!(
        "dataset: {} ({} nodes, {} edges, {} features, {} train seeds)",
        data.spec.dataset,
        data.graph.num_nodes(),
        data.graph.num_edges(),
        data.spec.feature_dim,
        data.train_nodes().len(),
    );

    let config = FastGlConfig::default()
        .with_batch_size(256)
        .with_fanouts(vec![5, 10, 15]);

    telemetry::reset();
    let mut totals = Vec::new();
    for kind in [SystemKind::Dgl, SystemKind::FastGl] {
        let mut system = kind.build(config.clone());
        let stats = system.run_epochs(&data, 3);
        println!("\n== {} ==", kind.name());
        println!("  epoch time : {}", stats.total());
        println!(
            "  feature rows: {} loaded over PCIe, {} reused (Match), {} cached",
            stats.rows_loaded, stats.rows_reused, stats.rows_cached,
        );
        println!("  bytes over PCIe: {:.1} MB", stats.bytes_h2d as f64 / 1e6);
        let (s, i, c) = stats.breakdown.fractions();
        println!(
            "  phases     : sample {} ({:.0}%) | io {} ({:.0}%) | compute {} ({:.0}%)",
            stats.breakdown.sample,
            s * 100.0,
            stats.breakdown.io,
            i * 100.0,
            stats.breakdown.compute,
            c * 100.0,
        );
        if telemetry::enabled() {
            let snap = telemetry::drain();
            print!("\n{}", telemetry::export::summary(&snap));
            if matches!(kind, SystemKind::FastGl) {
                let dir = std::path::Path::new("results/telemetry");
                match telemetry::export::write_to_dir(&snap, dir, "quickstart") {
                    Ok(perf) => println!("telemetry: {}", perf.display()),
                    Err(e) => eprintln!("warning: could not write telemetry: {e}"),
                }
            }
        } else {
            println!("  (set FASTGL_TELEMETRY=1 for the full span/counter summary)");
        }
        totals.push(stats.total());
    }

    println!(
        "\nFastGL speedup over DGL: {:.2}x (paper average: 2.2x)",
        totals[0].as_secs_f64() / totals[1].as_secs_f64()
    );
}
