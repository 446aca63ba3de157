//! Real training: verify FastGL's reordering does not change what the
//! model learns (paper Fig. 16).
//!
//! ```sh
//! cargo run --release --example train_convergence
//! ```
//!
//! Trains an actual GCN (real gradients, Adam) on a labelled community
//! graph twice — once in the sampled mini-batch order (DGL) and once with
//! the greedy Reorder applied per window (FastGL) — and prints both loss
//! trajectories side by side.

use fastgl::core::trainer::{train, TrainerConfig};
use fastgl::gnn::ModelKind;
use fastgl::graph::generate::community::{self, CommunityConfig};
use fastgl::graph::NodeId;

fn main() {
    if let Err(e) = fastgl::core::check_env() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let data = community::generate(
        &CommunityConfig {
            num_nodes: 3_000,
            num_classes: 8,
            intra_degree: 14.0,
            inter_degree: 2.0,
            feature_dim: 32,
            feature_noise: 1.0,
        },
        11,
    );
    let train_nodes: Vec<NodeId> = (0..2_000).map(NodeId).collect();
    println!(
        "community graph: {} nodes, {} edges, 8 classes; training a 2-layer GCN",
        data.graph.num_nodes(),
        data.graph.num_edges(),
    );

    let config = |reorder: bool| TrainerConfig {
        model: ModelKind::Gcn,
        hidden_dim: 32,
        fanouts: vec![4, 4],
        batch_size: 256,
        learning_rate: 0.01,
        epochs: 6,
        reorder,
        window: 4,
        seed: 11,
    };
    let dgl = train(
        &data.graph,
        &data.features,
        &data.labels,
        &train_nodes,
        &config(false),
    );
    let fastgl = train(
        &data.graph,
        &data.features,
        &data.labels,
        &train_nodes,
        &config(true),
    );

    println!("\n{:>6} {:>12} {:>12}", "epoch", "DGL loss", "FastGL loss");
    for (e, (a, b)) in dgl
        .epoch_losses
        .iter()
        .zip(&fastgl.epoch_losses)
        .enumerate()
    {
        println!("{e:>6} {a:>12.4} {b:>12.4}");
    }
    println!(
        "\nfinal train accuracy: DGL {:.3}, FastGL {:.3}",
        dgl.final_accuracy, fastgl.final_accuracy,
    );
    println!(
        "converged (tail) loss: DGL {:.4}, FastGL {:.4} — approximately equal, \
         as the paper's Fig. 16 shows.",
        dgl.tail_loss(10),
        fastgl.tail_loss(10),
    );
}
