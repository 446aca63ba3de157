//! The pipelined executor's core contract: prefetch depth and thread
//! count change wall-clock behaviour only. Simulated epoch statistics —
//! including every per-phase `SimTime` — must be bit-identical at any
//! `FASTGL_PREFETCH` × `FASTGL_THREADS` combination, for FastGL and for
//! the policy-driven baselines sharing the same `Pipeline`.

use fastgl_core::pipeline::{CachePolicy, Pipeline, PipelinePolicy};
use fastgl_core::{CacheRankPolicy, EpochStats, FastGl, FastGlConfig, TrainingSystem};
use fastgl_graph::Dataset;

fn config() -> FastGlConfig {
    FastGlConfig::default()
        .with_batch_size(32)
        .with_fanouts(vec![3, 5])
}

fn data() -> fastgl_graph::DatasetBundle {
    Dataset::Products.generate_scaled(1.0 / 1024.0, 11)
}

/// GNNLab-like baseline policy: dedicated sampler GPU, overlapped
/// sampling, no match/reorder — exercises the per-window overlap model.
fn overlap_policy() -> PipelinePolicy {
    PipelinePolicy {
        use_match: false,
        use_reorder: false,
        cache: CachePolicy::None,
        sampler_gpus: 1,
        overlap_sample: true,
        cache_rank: CacheRankPolicy::Degree,
    }
}

fn fastgl_epoch(prefetch: usize, threads: usize) -> EpochStats {
    let cfg = config()
        .with_prefetch_windows(prefetch)
        .with_threads(threads);
    FastGl::new(cfg).run_epoch(&data(), 2)
}

fn baseline_epoch(prefetch: usize, threads: usize) -> EpochStats {
    let cfg = config()
        .with_prefetch_windows(prefetch)
        .with_threads(threads);
    Pipeline::new("overlap-baseline", cfg, overlap_policy()).run_epoch(&data(), 2)
}

#[test]
fn fastgl_stats_invariant_across_prefetch_and_threads() {
    let reference = fastgl_epoch(0, 1);
    assert!(reference.iterations > 1, "fixture must run several batches");
    for prefetch in [0usize, 1, 4] {
        for threads in [1usize, 8] {
            let got = fastgl_epoch(prefetch, threads);
            assert_eq!(
                got, reference,
                "FastGL stats diverged at prefetch {prefetch}, {threads} threads"
            );
            // Spell the phase times out: `total()` summing equal would
            // not catch compensating per-phase drift.
            assert_eq!(got.breakdown.sample, reference.breakdown.sample);
            assert_eq!(got.breakdown.io, reference.breakdown.io);
            assert_eq!(got.breakdown.compute, reference.breakdown.compute);
        }
    }
}

#[test]
fn overlap_baseline_stats_invariant_across_prefetch_and_threads() {
    let reference = baseline_epoch(0, 1);
    assert!(reference.iterations > 1);
    for prefetch in [0usize, 1, 4] {
        for threads in [1usize, 8] {
            let got = baseline_epoch(prefetch, threads);
            assert_eq!(
                got, reference,
                "baseline stats diverged at prefetch {prefetch}, {threads} threads"
            );
            assert_eq!(got.breakdown.sample, reference.breakdown.sample);
            assert_eq!(got.breakdown.io, reference.breakdown.io);
            assert_eq!(got.breakdown.compute, reference.breakdown.compute);
        }
    }
}

#[test]
fn multi_epoch_runs_are_prefetch_invariant() {
    // Epoch-to-epoch state (IO engine, auto-cache probe, per-epoch RNG
    // streams) must also be immune to prefetch.
    let d = data();
    let mut serial = FastGl::new(config().with_prefetch_windows(0));
    let mut piped = FastGl::new(config().with_prefetch_windows(3));
    assert_eq!(serial.run_epochs(&d, 3), piped.run_epochs(&d, 3));
}

#[test]
fn channel_bound_one_backpressure_preserves_results() {
    // Depth 1 gives the tightest channels (capacity 1): every stage
    // blocks until its consumer drains the previous window. The stress
    // here is maximal backpressure with several windows in flight.
    let reference = fastgl_epoch(0, 1);
    let squeezed = fastgl_epoch(1, 8);
    assert_eq!(squeezed, reference);
    // A deeper prefetch (larger channels, more windows in flight) must
    // land on the same results as the squeezed run.
    let cfg = config().with_prefetch_windows(4).with_threads(8);
    let got = FastGl::new(cfg).run_epoch(&data(), 2);
    assert_eq!(got, reference);
}

#[test]
fn wall_stats_reflect_configured_depth() {
    let d = data();
    // Two-batch windows, so the epoch has as many windows as the depth
    // and the window count does not cap the channels.
    let mut cfg = config().with_prefetch_windows(2);
    cfg.reorder_window = 2;
    let mut sys = FastGl::new(cfg);
    let _ = sys.run_epoch(&d, 0);
    let wall = sys.pipeline_wall_stats().expect("epoch ran");
    assert_eq!(wall.prefetch, 2);
    assert_eq!(wall.channel_bound, 2);
    assert_eq!(wall.sample.items, wall.prepare.items);
    assert_eq!(wall.sample.items, wall.execute.items);
    assert!(wall.sample.items >= 2);
    assert!(wall.sample.busy.as_nanos() > 0);
}
