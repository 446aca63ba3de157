//! The per-window stage trace must be a *stable fingerprint* of a run:
//! identical across every `FASTGL_PREFETCH` × `FASTGL_THREADS` combination,
//! with visible times that sum to the epoch's reported breakdown with
//! exact integer equality — for the plain FastGL pipeline and for the
//! overlapped (dedicated-sampler) configuration.
//!
//! The `INSIGHT_attribution` experiment's critical-path analysis (binding
//! stage per window, the binding histogram, hidden sampling) is a pure
//! function of this trace, so pinning the trace pins the attribution.

use fastgl_core::system::TrainingSystem;
use fastgl_core::{
    CachePolicy, CacheRankPolicy, EpochWindowTrace, FastGl, FastGlConfig, Pipeline, PipelinePolicy,
};
use fastgl_gpusim::SimTime;
use fastgl_graph::{Dataset, DatasetBundle};
use std::sync::Mutex;

/// Serializes tests: the tensor thread override is process-global.
static LOCK: Mutex<()> = Mutex::new(());

fn data() -> DatasetBundle {
    Dataset::Products.generate_scaled(1.0 / 1024.0, 11)
}

fn config(prefetch: usize) -> FastGlConfig {
    let mut cfg = FastGlConfig::default()
        .with_batch_size(32)
        .with_fanouts(vec![3, 5])
        .with_prefetch_windows(prefetch);
    // Small windows so the epoch splits into several of them and the
    // histogram has something to count.
    cfg.reorder_window = 2;
    cfg
}

const MATRIX: [(usize, usize); 4] = [(1, 1), (1, 8), (4, 1), (4, 8)];

#[test]
fn binding_histogram_is_identical_across_prefetch_and_threads() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let bundle = data();
    let mut reference: Option<EpochWindowTrace> = None;
    for (prefetch, threads) in MATRIX {
        fastgl_tensor::parallel::set_num_threads(threads);
        let mut sys = FastGl::new(config(prefetch).with_threads(threads));
        let stats = sys.run_epoch(&bundle, 0);
        let trace = sys.window_trace().expect("epoch ran").clone();
        fastgl_tensor::parallel::set_num_threads(0);

        assert!(trace.len() > 1, "need several windows to attribute");
        // The trace must reproduce the epoch's own accounting exactly —
        // no tolerance, integer nanoseconds.
        assert_eq!(trace.visible_breakdown(), stats.breakdown);
        assert_eq!(trace.visible_total(), stats.total());
        match &reference {
            None => reference = Some(trace),
            Some(r) => assert_eq!(
                trace, *r,
                "window trace changed at prefetch={prefetch} threads={threads}"
            ),
        }
    }
}

#[test]
fn overlapped_pipeline_attribution_sums_exactly_and_is_stable() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let bundle = data();
    let policy = PipelinePolicy {
        use_match: false,
        use_reorder: false,
        cache: CachePolicy::None,
        sampler_gpus: 1,
        overlap_sample: true,
        cache_rank: CacheRankPolicy::Degree,
    };
    let mut reference: Option<EpochWindowTrace> = None;
    for (prefetch, threads) in MATRIX {
        fastgl_tensor::parallel::set_num_threads(threads);
        let mut sys = Pipeline::new("factored", config(prefetch).with_threads(threads), policy);
        let stats = sys.run_epoch(&bundle, 0);
        let trace = sys.window_trace().expect("epoch ran").clone();
        fastgl_tensor::parallel::set_num_threads(0);

        assert!(trace.overlap_sample);
        assert_eq!(trace.visible_breakdown(), stats.breakdown);
        assert_eq!(trace.visible_total(), stats.total());
        assert!(
            trace.hidden_sample() > SimTime::ZERO,
            "the dedicated sampler must hide some sampling"
        );
        match &reference {
            None => reference = Some(trace),
            Some(r) => assert_eq!(
                trace, *r,
                "overlapped window trace changed at prefetch={prefetch} threads={threads}"
            ),
        }
    }
}
