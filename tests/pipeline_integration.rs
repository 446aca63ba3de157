//! End-to-end integration across crates: every training system runs on
//! every (small) dataset, accounting invariants hold, and the paper's
//! headline orderings come out of the full pipeline.

use fastgl::baselines::SystemKind;
use fastgl::core::FastGlConfig;
use fastgl::gnn::ModelKind;
use fastgl::graph::Dataset;

fn config() -> FastGlConfig {
    FastGlConfig::default()
        .with_batch_size(64)
        .with_fanouts(vec![3, 5])
}

#[test]
fn every_system_on_every_dataset() {
    for dataset in Dataset::ALL {
        let data = dataset.generate_scaled(1.0 / 4096.0, 3);
        if data.train_nodes().is_empty() {
            continue;
        }
        for kind in SystemKind::ALL {
            let mut sys = kind.build(config());
            let stats = sys.run_epoch(&data, 0);
            assert!(stats.iterations > 0, "{kind} on {dataset}: no iterations");
            // Accounting invariant: total is the sum of phases.
            assert_eq!(
                stats.total(),
                stats.breakdown.sample + stats.breakdown.io + stats.breakdown.compute,
                "{kind} on {dataset}: phases do not sum"
            );
            // Every needed feature row is loaded, reused, or cached.
            assert!(
                stats.rows_loaded + stats.rows_reused + stats.rows_cached > 0,
                "{kind} on {dataset}: no feature rows accounted"
            );
        }
    }
}

#[test]
fn headline_ordering_holds_end_to_end() {
    let data = Dataset::Products.generate_scaled(1.0 / 512.0, 5);
    let cfg = FastGlConfig::default()
        .with_batch_size(256)
        .with_fanouts(vec![5, 10, 15]);
    let time = |kind: SystemKind| {
        kind.build(cfg.clone())
            .run_epochs(&data, 2)
            .total()
            .as_secs_f64()
    };
    let pyg = time(SystemKind::Pyg);
    let dgl = time(SystemKind::Dgl);
    let fastgl = time(SystemKind::FastGl);
    assert!(
        pyg > dgl && dgl > fastgl,
        "ordering violated: PyG {pyg:.6} DGL {dgl:.6} FastGL {fastgl:.6}"
    );
    let speedup_dgl = dgl / fastgl;
    assert!(
        (1.2..=20.0).contains(&speedup_dgl),
        "FastGL/DGL speedup {speedup_dgl} outside plausible band"
    );
}

#[test]
fn all_three_models_run_through_every_phase() {
    let data = Dataset::Reddit.generate_scaled(1.0 / 2048.0, 7);
    for model in ModelKind::ALL {
        let mut sys = SystemKind::FastGl.build(config().with_model(model));
        let s = sys.run_epoch(&data, 0);
        assert!(s.breakdown.sample.as_nanos() > 0, "{model}: no sample time");
        assert!(
            s.breakdown.compute.as_nanos() > 0,
            "{model}: no compute time"
        );
    }
}

#[test]
fn epoch_stats_reproduce_across_fresh_systems() {
    let data = Dataset::Mag.generate_scaled(1.0 / 4096.0, 9);
    let a = SystemKind::FastGl.build(config()).run_epoch(&data, 2);
    let b = SystemKind::FastGl.build(config()).run_epoch(&data, 2);
    assert_eq!(a, b, "simulation must be bit-for-bit deterministic");
}

#[test]
fn different_epochs_shuffle_batches() {
    let data = Dataset::Products.generate_scaled(1.0 / 2048.0, 11);
    let mut sys = SystemKind::FastGl.build(config());
    let e0 = sys.run_epoch(&data, 0);
    let e1 = sys.run_epoch(&data, 1);
    assert_eq!(e0.iterations, e1.iterations);
    assert_ne!(
        e0.breakdown, e1.breakdown,
        "different epoch seeds must sample different subgraphs"
    );
}

#[test]
fn run_epochs_averages_match_manual_average() {
    let data = Dataset::Products.generate_scaled(1.0 / 2048.0, 13);
    let mut sys = SystemKind::Dgl.build(config());
    let avg = sys.run_epochs(&data, 2);
    let mut fresh = SystemKind::Dgl.build(config());
    let e0 = fresh.run_epoch(&data, 0);
    let e1 = fresh.run_epoch(&data, 1);
    let manual = (e0.total() + e1.total()) / 2;
    let diff = avg.total().as_nanos().abs_diff(manual.as_nanos());
    assert!(diff <= 1, "avg {} vs manual {}", avg.total(), manual);
}
