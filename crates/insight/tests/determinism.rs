//! The critical-path analysis must be a *stable fingerprint* of a run:
//! identical binding-stage histograms and window attributions across every
//! `FASTGL_PREFETCH` × `FASTGL_THREADS` combination, and per-window
//! visible times that sum to the epoch's reported simulated total with
//! exact integer equality — for the plain FastGL pipeline and for the
//! overlapped (dedicated-sampler) configuration.

use fastgl_core::system::TrainingSystem;
use fastgl_core::{CachePolicy, CacheRankPolicy, FastGl, FastGlConfig, Pipeline, PipelinePolicy};
use fastgl_gpusim::SimTime;
use fastgl_graph::{Dataset, DatasetBundle};
use fastgl_insight::critical_path;
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
    let mut reference: Option<critical_path::CriticalPath> = None;
    for (prefetch, threads) in MATRIX {
        fastgl_tensor::parallel::set_num_threads(threads);
        let mut sys = FastGl::new(config(prefetch).with_threads(threads));
        let stats = sys.run_epoch(&bundle, 0);
        let trace = sys.window_trace().expect("epoch ran");
        let cp = critical_path::analyze(trace);
        fastgl_tensor::parallel::set_num_threads(0);

        assert!(
            cp.histogram.total() > 1,
            "need several windows to attribute"
        );
        // The attribution must reproduce the epoch's own accounting
        // exactly — no tolerance, integer nanoseconds.
        assert_eq!(cp.breakdown, stats.breakdown);
        assert_eq!(cp.visible_total(), stats.total());
        match &reference {
            None => reference = Some(cp),
            Some(r) => {
                assert_eq!(
                    cp.histogram, r.histogram,
                    "binding histogram changed at prefetch={prefetch} threads={threads}"
                );
                assert_eq!(
                    cp, *r,
                    "full attribution changed at prefetch={prefetch} threads={threads}"
                );
            }
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
    let mut reference: Option<critical_path::CriticalPath> = None;
    for (prefetch, threads) in MATRIX {
        fastgl_tensor::parallel::set_num_threads(threads);
        let mut sys = Pipeline::new("factored", config(prefetch).with_threads(threads), policy);
        let stats = sys.run_epoch(&bundle, 0);
        let trace = sys.window_trace().expect("epoch ran");
        let cp = critical_path::analyze(trace);
        fastgl_tensor::parallel::set_num_threads(0);

        assert!(cp.overlap_sample);
        assert_eq!(cp.breakdown, stats.breakdown);
        assert_eq!(cp.visible_total(), stats.total());
        assert!(
            cp.hidden_sample > SimTime::ZERO,
            "the dedicated sampler must hide some sampling"
        );
        // Partitioning the total by binding stage conserves it exactly.
        let partitioned: SimTime = critical_path::BindingStage::all()
            .into_iter()
            .map(|s| cp.bound_time(s))
            .sum();
        assert_eq!(partitioned, cp.visible_total());
        match &reference {
            None => reference = Some(cp),
            Some(r) => assert_eq!(
                cp, *r,
                "overlapped attribution changed at prefetch={prefetch} threads={threads}"
            ),
        }
    }
}
