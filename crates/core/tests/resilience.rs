//! Integration tests for the resilience layer (DESIGN.md §10): a killed
//! training run resumed from a checkpoint must reproduce the uninterrupted
//! run bit-for-bit — same final weights, same loss trajectories — and a
//! simulated epoch re-run in a fresh system must reproduce its per-phase
//! simulated time, at every `FASTGL_PREFETCH` × `FASTGL_THREADS`
//! combination. Every injected fault class must be recovered without
//! aborting and be visible as telemetry counters.

use fastgl_core::resilience::Checkpoint;
use fastgl_core::trainer::{train_resumable, train_with_validation, TrainOutcome, TrainerConfig};
use fastgl_core::{EpochStats, FastGl, FastGlConfig, TrainingSystem};
use fastgl_graph::generate::community::{self, CommunityConfig, CommunityGraph};
use fastgl_graph::{Dataset, DatasetBundle, NodeId};
use fastgl_telemetry::names;
use std::sync::Mutex;

/// Serializes tests: telemetry state and the thread override are global.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn sim_data() -> DatasetBundle {
    Dataset::Products.generate_scaled(1.0 / 1024.0, 11)
}

fn sim_config() -> FastGlConfig {
    FastGlConfig::default()
        .with_batch_size(32)
        .with_fanouts(vec![3, 5])
}

/// The PREFETCH × THREADS matrix the determinism contract is pinned over.
const MATRIX: [(usize, usize); 4] = [(0, 1), (0, 8), (2, 1), (2, 8)];

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fastgl-resilience-{name}-{}", std::process::id()));
    p
}

/// The faulted plan the simulator's purity is also pinned under: every
/// fault class, with the OOM eviction landing in the re-run epochs.
fn fault_plan() -> fastgl_core::FaultPlan {
    "pcie_stall@batch=2,transfer_error@batch=5,oom@epoch=2:0.25,worker_panic@window=1"
        .parse()
        .unwrap()
}

/// The simulator keeps no checkpoint: a killed simulated run resumes by
/// running its missing epochs again. That holds because epoch `e` is a pure
/// function of `(data, e)`, so epochs 2 and 3 of a fresh system must equal
/// epochs 2 and 3 of a system that already ran 0 and 1, with and without
/// faults, at every prefetch × threads setting.
#[test]
fn sim_epochs_rerun_bit_identically_in_a_fresh_system() {
    let _guard = lock();
    let data = sim_data();
    let mut reference: Option<Vec<EpochStats>> = None;
    for (prefetch, threads) in MATRIX {
        let mut stats = Vec::new();
        for faulted in [false, true] {
            let mut cfg = sim_config()
                .with_prefetch_windows(prefetch)
                .with_threads(threads);
            if faulted {
                cfg = cfg.with_faults(fault_plan());
            }
            let mut full = FastGl::new(cfg.clone());
            let uninterrupted: Vec<EpochStats> = (0..4).map(|e| full.run_epoch(&data, e)).collect();
            let mut fresh = FastGl::new(cfg);
            for e in 2..4 {
                let rerun = fresh.run_epoch(&data, e);
                let want = &uninterrupted[e as usize];
                let at =
                    format!("epoch {e}, prefetch {prefetch}, {threads} threads, faulted {faulted}");
                // Per-phase SimTime spelled out: compensating drift across
                // phases would survive a total() comparison.
                assert_eq!(rerun.breakdown.sample, want.breakdown.sample, "{at}");
                assert_eq!(rerun.breakdown.io, want.breakdown.io, "{at}");
                assert_eq!(rerun.breakdown.compute, want.breakdown.compute, "{at}");
                assert_eq!(rerun, *want, "{at}");
                stats.push(rerun);
            }
        }
        match &reference {
            None => reference = Some(stats),
            Some(r) => assert_eq!(
                stats, *r,
                "stats differ across the matrix at ({prefetch}, {threads})"
            ),
        }
    }
    fastgl_tensor::parallel::set_num_threads(0);
}

fn trainer_fixture() -> (CommunityGraph, Vec<NodeId>, Vec<NodeId>) {
    let d = community::generate(
        &CommunityConfig {
            num_nodes: 900,
            num_classes: 3,
            intra_degree: 10.0,
            inter_degree: 1.0,
            feature_dim: 12,
            feature_noise: 0.8,
        },
        5,
    );
    let train: Vec<NodeId> = (0..500).map(NodeId).collect();
    let val: Vec<NodeId> = (500..700).map(NodeId).collect();
    (d, train, val)
}

fn trainer_config() -> TrainerConfig {
    TrainerConfig {
        fanouts: vec![4, 4],
        batch_size: 96,
        epochs: 3,
        learning_rate: 0.01,
        reorder: true,
        window: 3,
        ..Default::default()
    }
}

/// Runs `f` with `FASTGL_PREFETCH` set to `depth` — the trainer's only
/// depth setting — and restores the previous value afterwards. Callers
/// hold the lock.
fn with_prefetch_env<T>(depth: usize, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var_os("FASTGL_PREFETCH");
    std::env::set_var("FASTGL_PREFETCH", depth.to_string());
    let out = f();
    match saved {
        Some(v) => std::env::set_var("FASTGL_PREFETCH", v),
        None => std::env::remove_var("FASTGL_PREFETCH"),
    }
    out
}

#[test]
fn trainer_kill_resume_bit_identical_across_threads() {
    let _guard = lock();
    let (d, train_nodes, val_nodes) = trainer_fixture();
    let cfg = trainer_config();
    let mut reference = None;
    for (prefetch, threads) in MATRIX {
        fastgl_tensor::parallel::set_num_threads(threads);
        with_prefetch_env(prefetch, || {
            let full = train_with_validation(
                &d.graph,
                &d.features,
                &d.labels,
                &train_nodes,
                &val_nodes,
                &cfg,
            );
            // Kill mid-window, round-trip the checkpoint through disk, resume.
            for halt in [4u64, 7] {
                let TrainOutcome::Interrupted(ckpt) = train_resumable(
                    &d.graph,
                    &d.features,
                    &d.labels,
                    &train_nodes,
                    &val_nodes,
                    &cfg,
                    None,
                    Some(halt),
                )
                .unwrap() else {
                    panic!("expected an interruption at batch {halt}")
                };
                let path = tmp_path(&format!("trainer-{prefetch}-{threads}-{halt}"));
                ckpt.save(&path).unwrap();
                let loaded = Checkpoint::load(&path).unwrap();
                std::fs::remove_file(&path).ok();
                let resumed = train_resumable(
                    &d.graph,
                    &d.features,
                    &d.labels,
                    &train_nodes,
                    &val_nodes,
                    &cfg,
                    Some(&loaded),
                    None,
                )
                .unwrap();
                assert_eq!(
                    resumed,
                    TrainOutcome::Complete(full.clone()),
                    "resume diverged at prefetch {prefetch}, {threads} threads, \
                     kill at batch {halt}"
                );
            }
            match &reference {
                None => reference = Some(full),
                Some(r) => assert_eq!(
                    full, *r,
                    "trainer diverged at prefetch {prefetch}, {threads} threads"
                ),
            }
        });
    }
    fastgl_tensor::parallel::set_num_threads(0);
}

/// The trainer fixture cut into 5 batches per epoch, so windows of 3
/// leave a ragged last window.
fn ragged_trainer_config() -> TrainerConfig {
    TrainerConfig {
        batch_size: 110,
        ..trainer_config()
    }
}

#[test]
fn trainer_halts_at_every_batch_and_resumes_bit_identically() {
    let _guard = lock();
    let (d, train_nodes, val_nodes) = trainer_fixture();
    let cfg = ragged_trainer_config();
    let total = 3 * 5;
    for prefetch in [0usize, 2] {
        with_prefetch_env(prefetch, || {
            let full = train_with_validation(
                &d.graph,
                &d.features,
                &d.labels,
                &train_nodes,
                &val_nodes,
                &cfg,
            );
            assert_eq!(full.iteration_losses.len(), total);
            for halt in 0..=total as u64 {
                let run = |resume: Option<&Checkpoint>, halt_after: Option<u64>| {
                    train_resumable(
                        &d.graph,
                        &d.features,
                        &d.labels,
                        &train_nodes,
                        &val_nodes,
                        &cfg,
                        resume,
                        halt_after,
                    )
                    .unwrap()
                };
                let ckpt = match run(None, Some(halt)) {
                    TrainOutcome::Interrupted(ckpt) => ckpt,
                    // Halting at the very end is no halt at all.
                    TrainOutcome::Complete(run) => {
                        assert_eq!(halt, total as u64, "prefetch {prefetch}");
                        assert_eq!(run, full, "prefetch {prefetch}");
                        continue;
                    }
                };
                assert_eq!(ckpt.trainer.as_ref().unwrap().next_batch, halt);
                assert_eq!(
                    run(Some(&ckpt), None),
                    TrainOutcome::Complete(full.clone()),
                    "resume diverged at prefetch {prefetch}, halt at batch {halt}"
                );
            }
        });
    }
}

#[test]
fn trainer_halted_at_an_epoch_boundary_samples_nothing_past_it() {
    let _guard = lock();
    let (d, train_nodes, val_nodes) = trainer_fixture();
    let cfg = ragged_trainer_config();
    // 5 batches per epoch in windows of 3: 2 windows per epoch.
    for prefetch in [0usize, 2] {
        with_prefetch_env(prefetch, || {
            for epochs in 1..cfg.epochs as u64 {
                fastgl_telemetry::set_enabled(true);
                fastgl_telemetry::reset();
                let outcome = train_resumable(
                    &d.graph,
                    &d.features,
                    &d.labels,
                    &train_nodes,
                    &val_nodes,
                    &cfg,
                    None,
                    Some(epochs * 5),
                )
                .unwrap();
                let snap = fastgl_telemetry::drain();
                fastgl_telemetry::set_enabled(false);
                assert!(matches!(outcome, TrainOutcome::Interrupted(_)));
                let windows = snap
                    .counters
                    .get(names::PIPELINE_WINDOWS)
                    .copied()
                    .unwrap_or(0);
                assert_eq!(
                    windows,
                    epochs * 2,
                    "prefetch {prefetch}: halt after {epochs} epochs ran {windows} windows"
                );
            }
        });
    }
}

#[test]
fn every_fault_class_recovers_and_shows_in_telemetry() {
    let _guard = lock();
    fastgl_telemetry::set_enabled(true);
    fastgl_telemetry::reset();
    let data = sim_data();
    // The tiny fixture is fully cached, so transfer faults only have a
    // transfer to hit in the epoch where OOM pressure evicts rows: pin
    // all batch-scoped faults to epoch 0's batches alongside the OOM.
    let plan =
        "pcie_stall@batch=0:3,transfer_error@batch=1:2,oom@epoch=0:0.5,worker_panic@window=0"
            .parse()
            .unwrap();
    let mut sys = FastGl::new(
        sim_config()
            .with_faults(plan)
            .with_prefetch_windows(2)
            .with_threads(2),
    );
    // Two epochs: the window panic fires in each, the rest in epoch 0.
    let avg = sys.run_epochs(&data, 2);
    assert!(avg.iterations > 0, "the faulted run must not abort");
    let snap = fastgl_telemetry::drain();
    fastgl_telemetry::set_enabled(false);
    fastgl_tensor::parallel::set_num_threads(0);
    for (counter, at_least) in [
        (names::FAULT_PCIE_STALLS, 1),
        (names::FAULT_TRANSFER_RETRIES, 2),
        (names::FAULT_OVERHEAD_NS, 1),
        (names::CACHE_EVICTED_ROWS, 1),
        (names::WORKER_PANICS, 2),
        (names::STAGE_REPLAYS, 2),
    ] {
        let got = snap.counters.get(counter).copied().unwrap_or(0);
        assert!(
            got >= at_least,
            "counter {counter} = {got}, expected at least {at_least}"
        );
    }
}

#[test]
fn malformed_fault_env_is_a_typed_error() {
    let _guard = lock();
    // `resolved_faults` re-reads the environment on every call.
    std::env::set_var("FASTGL_FAULTS", "meteor_strike@batch=1");
    let err = sim_config().resolved_faults().unwrap_err();
    std::env::remove_var("FASTGL_FAULTS");
    let msg = err.to_string();
    assert!(msg.contains("unknown fault kind"), "{msg}");
    assert!(msg.contains("meteor_strike"), "{msg}");
    // A valid env plan parses and an explicit plan takes precedence.
    std::env::set_var("FASTGL_FAULTS", "oom@epoch=0");
    let from_env = sim_config().resolved_faults().unwrap().unwrap();
    assert_eq!(from_env.to_string(), "oom@epoch=0");
    let explicit: fastgl_core::FaultPlan = "pcie_stall@batch=9".parse().unwrap();
    let resolved = sim_config()
        .with_faults(explicit.clone())
        .resolved_faults()
        .unwrap()
        .unwrap();
    std::env::remove_var("FASTGL_FAULTS");
    assert_eq!(resolved, explicit);
}

#[test]
fn truncated_checkpoint_files_are_typed_errors() {
    let _guard = lock();
    let (d, train_nodes, val_nodes) = trainer_fixture();
    let TrainOutcome::Interrupted(ckpt) = train_resumable(
        &d.graph,
        &d.features,
        &d.labels,
        &train_nodes,
        &val_nodes,
        &trainer_config(),
        None,
        Some(2),
    )
    .unwrap() else {
        panic!("expected an interruption at batch 2")
    };
    let path = tmp_path("truncate");
    ckpt.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = Checkpoint::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(err, fastgl_core::CheckpointError::BadFormat(_)),
        "{err}"
    );
    assert!(err.to_string().contains("truncated"), "{err}");
    // A missing file is an Io error, not a panic.
    let err = Checkpoint::load(tmp_path("missing")).unwrap_err();
    assert!(matches!(err, fastgl_core::CheckpointError::Io(_)), "{err}");
}
