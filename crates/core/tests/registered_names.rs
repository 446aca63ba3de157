//! Lint: every counter, histogram and wall-clock span name the runtime
//! actually emits must be registered in [`fastgl_telemetry::names`]. A
//! typo'd or unregistered name would silently fall out of the
//! attribution tables of `INSIGHT_attribution`, so this test runs
//! representative workloads — serial and pipelined, clean and faulted,
//! single- and multi-threaded, simulated and numeric training — and
//! asserts the drained snapshot contains no stranger names.

use fastgl_core::system::TrainingSystem;
use fastgl_core::trainer::{self, TrainerConfig};
use fastgl_core::{FastGl, FastGlConfig};
use fastgl_graph::generate::community::{self, CommunityConfig};
use fastgl_graph::{Dataset, DatasetBundle, NodeId};
use fastgl_telemetry::{names, Snapshot};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Serializes tests: telemetry state and the thread override are global.
static LOCK: Mutex<()> = Mutex::new(());

fn data() -> DatasetBundle {
    Dataset::Products.generate_scaled(1.0 / 1024.0, 11)
}

fn config() -> FastGlConfig {
    FastGlConfig::default()
        .with_batch_size(32)
        .with_fanouts(vec![3, 5])
}

/// Emitted names: counters and histograms, then wall-clock spans.
type Emitted = (BTreeSet<&'static str>, BTreeSet<&'static str>);

/// Runs `work` at `threads` threads under telemetry and returns the names
/// the drained snapshot holds.
fn emitted_names(threads: usize, work: impl FnOnce()) -> Emitted {
    fastgl_telemetry::set_enabled(true);
    fastgl_telemetry::reset();
    fastgl_tensor::parallel::set_num_threads(threads);
    work();
    let snap: Snapshot = fastgl_telemetry::drain();
    fastgl_tensor::parallel::set_num_threads(0);
    fastgl_telemetry::set_enabled(false);
    let metrics = snap
        .counters
        .keys()
        .chain(snap.histograms.keys())
        .copied()
        .collect();
    let spans = snap.spans.keys().copied().collect();
    (metrics, spans)
}

/// Runs `cfg` for two simulated epochs.
fn simulate(cfg: FastGlConfig) {
    let bundle = data();
    let mut sys = FastGl::new(cfg);
    for epoch in 0..2 {
        sys.run_epoch(&bundle, epoch);
    }
}

/// Trains a small GCN for one epoch with reorder on.
fn train() {
    let d = community::generate(
        &CommunityConfig {
            num_nodes: 600,
            num_classes: 3,
            intra_degree: 8.0,
            inter_degree: 1.0,
            feature_dim: 8,
            feature_noise: 0.8,
        },
        21,
    );
    let train_nodes: Vec<NodeId> = (0..420).map(NodeId).collect();
    let config = TrainerConfig {
        hidden_dim: 16,
        fanouts: vec![3, 3],
        batch_size: 60,
        epochs: 1,
        reorder: true,
        window: 3,
        ..TrainerConfig::default()
    };
    trainer::train(&d.graph, &d.features, &d.labels, &train_nodes, &config);
}

/// The names in `emitted` that `registry` lacks.
fn strangers(
    emitted: &BTreeSet<&'static str>,
    registry: &'static [&'static str],
) -> Vec<&'static str> {
    emitted
        .iter()
        .filter(|n| !registry.contains(*n))
        .copied()
        .collect()
}

#[test]
fn every_emitted_name_is_registered() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fault_plan: fastgl_core::FaultPlan =
        "pcie_stall@batch=0:3,transfer_error@batch=1:2,oom@epoch=0:0.5"
            .parse()
            .unwrap();
    for threads in [1usize, 8] {
        // Serial loop, pipelined loop, and a faulted pipelined loop cover
        // every counter/histogram emission site in the epoch runner; the
        // training run covers the trainer's and the dense kernels' spans.
        let configs = [
            config(),
            config().with_prefetch_windows(2),
            config()
                .with_prefetch_windows(2)
                .with_faults(fault_plan.clone()),
        ];
        let mut runs: Vec<Emitted> = configs
            .into_iter()
            .map(|cfg| emitted_names(threads, || simulate(cfg)))
            .collect();
        runs.push(emitted_names(threads, train));
        for (metrics, spans) in runs {
            assert!(!metrics.is_empty(), "expected telemetry output");
            assert!(!spans.is_empty(), "expected wall-clock spans");
            let unregistered = strangers(&metrics, names::all());
            assert!(
                unregistered.is_empty(),
                "unregistered metric names at {threads} threads: {unregistered:?} \
                 — add them to fastgl_telemetry::names"
            );
            let unregistered = strangers(&spans, names::spans());
            assert!(
                unregistered.is_empty(),
                "unregistered span names at {threads} threads: {unregistered:?} \
                 — add them to fastgl_telemetry::names::spans"
            );
        }
    }
}
