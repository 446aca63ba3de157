//! Integration tests for the telemetry subsystem against the real
//! training pipeline: totals must not depend on the thread count, the
//! `sim.*` phase counters must agree with the pipeline's own phase
//! accounting, and disabling telemetry must change nothing about results.

use fastgl_core::system::TrainingSystem;
use fastgl_core::{EpochStats, FastGl, FastGlConfig};
use fastgl_graph::{Dataset, DatasetBundle};
use fastgl_telemetry::names;
use std::sync::Mutex;

/// Serializes tests: telemetry state and the thread override are global.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn data() -> DatasetBundle {
    Dataset::Products.generate_scaled(1.0 / 1024.0, 11)
}

fn config() -> FastGlConfig {
    FastGlConfig::default()
        .with_batch_size(32)
        .with_fanouts(vec![3, 5])
}

/// Runs two epochs with telemetry on and returns the stats plus snapshot.
fn run_with_telemetry(threads: usize) -> (Vec<EpochStats>, fastgl_telemetry::Snapshot) {
    fastgl_telemetry::set_enabled(true);
    fastgl_telemetry::reset();
    fastgl_tensor::parallel::set_num_threads(threads);
    let bundle = data();
    let mut sys = FastGl::new(config());
    let stats: Vec<EpochStats> = (0..2).map(|e| sys.run_epoch(&bundle, e)).collect();
    let snap = fastgl_telemetry::drain();
    fastgl_tensor::parallel::set_num_threads(0);
    fastgl_telemetry::set_enabled(false);
    (stats, snap)
}

#[test]
fn counter_totals_invariant_across_thread_counts() {
    let _guard = lock();
    let (base_stats, base_snap) = run_with_telemetry(1);
    for name in [
        names::SIM_SAMPLE_NS,
        names::SIM_IO_NS,
        names::SIM_COMPUTE_NS,
    ] {
        assert!(base_snap.counters.contains_key(name), "{name} not recorded");
    }
    for threads in [2usize, 8] {
        let (stats, snap) = run_with_telemetry(threads);
        assert_eq!(stats, base_stats, "results differ at {threads} threads");
        assert_eq!(
            snap.counters, base_snap.counters,
            "counter totals differ at {threads} threads"
        );
        // Span *counts* per name are structural (how many batches, how
        // many epochs) except for the worker-chunk spans, whose number
        // legitimately grows with the thread count.
        let count_by_name = |s: &fastgl_telemetry::Snapshot| {
            let mut m = std::collections::BTreeMap::new();
            for (&name, h) in &s.spans {
                if name != names::SPAN_PARALLEL_CHUNK {
                    m.insert(name, h.count);
                }
            }
            m
        };
        assert_eq!(
            count_by_name(&snap),
            count_by_name(&base_snap),
            "span counts differ at {threads} threads"
        );
    }
}

#[test]
fn sim_phase_totals_match_epoch_breakdowns() {
    let _guard = lock();
    let (stats, snap) = run_with_telemetry(1);
    let sum = |f: fn(&EpochStats) -> u64| stats.iter().map(f).sum::<u64>();
    assert_eq!(
        snap.counters.get(names::SIM_SAMPLE_NS).copied(),
        Some(sum(|s| s.breakdown.sample.as_nanos())),
        "sample phase disagrees with the simulator"
    );
    assert_eq!(
        snap.counters.get(names::SIM_IO_NS).copied(),
        Some(sum(|s| s.breakdown.io.as_nanos())),
        "io phase disagrees with the simulator"
    );
    assert_eq!(
        snap.counters.get(names::SIM_COMPUTE_NS).copied(),
        Some(sum(|s| s.breakdown.compute.as_nanos())),
        "compute phase disagrees with the simulator"
    );
}

#[test]
fn pipeline_counters_cross_check_epoch_stats() {
    let _guard = lock();
    let (stats, snap) = run_with_telemetry(1);
    let rows_loaded: u64 = stats.iter().map(|s| s.rows_loaded).sum();
    let iterations: u64 = stats.iter().map(|s| s.iterations).sum();
    // Counters that were never touched (e.g. no PCIe loads because the
    // cache held everything) are simply absent: absent == zero.
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("io.rows_loaded"), rows_loaded);
    assert_eq!(counter("pipeline.iterations"), iterations);
    assert!(iterations > 0);
    assert!(snap.counters.contains_key("sample.edges_sampled"));
    // Every epoch produced one wall span and the exporter carries it.
    assert_eq!(snap.spans[names::SPAN_PIPELINE_EPOCH].count, 2);
    let json = fastgl_telemetry::export::to_json(&snap);
    assert!(json.contains("\"pipeline.epoch\""));
}

#[test]
fn disabled_telemetry_leaves_results_and_buffers_untouched() {
    let _guard = lock();
    let (enabled_stats, _) = run_with_telemetry(1);
    fastgl_telemetry::set_enabled(false);
    fastgl_telemetry::reset();
    let bundle = data();
    let mut sys = FastGl::new(config());
    let stats: Vec<EpochStats> = (0..2).map(|e| sys.run_epoch(&bundle, e)).collect();
    assert_eq!(stats, enabled_stats, "telemetry must not affect results");
    let snap = fastgl_telemetry::snapshot();
    assert!(snap.spans.is_empty());
    assert!(snap.counters.is_empty());
}
