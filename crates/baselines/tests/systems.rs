//! Each baseline preset reproduces its system's published behaviour on the
//! shared pipeline.

use fastgl_baselines::{DglSystem, SystemKind};
use fastgl_core::{
    CachePolicy, CacheRankPolicy, ComputeMode, FastGlConfig, IdMapKind, Pipeline, PipelinePolicy,
    SampleDevice, TrainingSystem,
};
use fastgl_graph::Dataset;

fn cfg() -> FastGlConfig {
    FastGlConfig::default()
        .with_batch_size(128)
        .with_fanouts(vec![5, 10])
}

#[test]
fn every_system_runs_an_epoch() {
    let data = Dataset::Products.generate_scaled(1.0 / 2048.0, 5);
    let cfg = FastGlConfig::default()
        .with_batch_size(32)
        .with_fanouts(vec![3, 5]);
    for kind in SystemKind::ALL {
        let mut sys = kind.build(cfg.clone());
        assert_eq!(sys.name(), kind.name());
        let stats = sys.run_epoch(&data, 0);
        assert!(stats.iterations > 0, "{kind} ran no iterations");
        assert!(
            stats.total().as_nanos() > 0,
            "{kind} reported zero epoch time"
        );
    }
}

#[test]
fn fastgl_is_fastest_dgl_beats_pyg() {
    let data = Dataset::Products.generate_scaled(1.0 / 512.0, 6);
    let cfg = FastGlConfig::default()
        .with_batch_size(256)
        .with_fanouts(vec![5, 10]);
    let time = |kind: SystemKind| {
        kind.build(cfg.clone())
            .run_epoch(&data, 0)
            .total()
            .as_secs_f64()
    };
    let pyg = time(SystemKind::Pyg);
    let dgl = time(SystemKind::Dgl);
    let fastgl = time(SystemKind::FastGl);
    assert!(pyg > dgl, "PyG {pyg} must be slower than DGL {dgl}");
    assert!(
        dgl > fastgl,
        "DGL {dgl} must be slower than FastGL {fastgl}"
    );
    // Paper: FastGL averages 2.2x over DGL and 11.8x over PyG.
    assert!(pyg / fastgl > 3.0, "PyG/FastGL = {}", pyg / fastgl);
}

#[test]
fn sampling_dominates_pyg_epochs() {
    // Paper §1: PyG spends up to 97% of training time sampling on CPU.
    let data = Dataset::Products.generate_scaled(1.0 / 512.0, 1);
    let cfg = FastGlConfig::default()
        .with_batch_size(256)
        .with_fanouts(vec![5, 10]);
    let s = SystemKind::Pyg.build(cfg).run_epoch(&data, 0);
    let (sample_frac, _, _) = s.breakdown.fractions();
    assert!(
        sample_frac > 0.5,
        "PyG sample fraction only {sample_frac:.2}"
    );
}

#[test]
fn pyg_no_reuse_no_cache() {
    let data = Dataset::Reddit.generate_scaled(1.0 / 1024.0, 2);
    let cfg = FastGlConfig::default()
        .with_batch_size(64)
        .with_fanouts(vec![3, 3]);
    let s = SystemKind::Pyg.build(cfg).run_epoch(&data, 0);
    assert_eq!(s.rows_reused, 0);
    assert_eq!(s.rows_cached, 0);
    assert!(s.rows_loaded > 0);
}

#[test]
fn memory_io_dominates_dgl_epochs() {
    // Paper §3.1: memory IO consumes up to 77% of a DGL epoch.
    let data = Dataset::Products.generate_scaled(1.0 / 512.0, 3);
    let cfg = FastGlConfig::default()
        .with_batch_size(256)
        .with_fanouts(vec![5, 10, 15]);
    let s = DglSystem::new(cfg).run_epoch(&data, 0);
    let (_, io_frac, _) = s.breakdown.fractions();
    assert!(io_frac > 0.35, "DGL IO fraction only {io_frac:.2}");
}

#[test]
fn dgl_much_faster_than_pyg_sampling() {
    // Needs enough per-batch work that fixed per-batch overheads do not
    // mask the device difference.
    let data = Dataset::Products.generate_scaled(1.0 / 256.0, 4);
    let cfg = FastGlConfig::default()
        .with_batch_size(512)
        .with_fanouts(vec![5, 10, 15]);
    let s_dgl = DglSystem::new(cfg.clone()).run_epoch(&data, 0);
    let s_pyg = SystemKind::Pyg.build(cfg).run_epoch(&data, 0);
    let ratio = s_pyg.breakdown.sample.as_secs_f64() / s_dgl.breakdown.sample.as_secs_f64();
    // Paper Fig. 13: FastGL samples up to 80x faster than PyG; DGL's
    // GPU sampler gets most of that win.
    assert!(ratio > 5.0, "PyG/DGL sample ratio {ratio}");
}

#[test]
fn preprocessing_slows_compute_below_dgl() {
    // Paper Fig. 11: GNNAdvisor's per-iteration preprocessing makes its
    // computation phase *slower* than DGL's in the sampling scenario.
    let data = Dataset::Products.generate_scaled(1.0 / 512.0, 10);
    let s_adv = SystemKind::GnnAdvisor.build(cfg()).run_epoch(&data, 0);
    let s_dgl = DglSystem::new(cfg()).run_epoch(&data, 0);
    assert!(
        s_adv.breakdown.compute > s_dgl.breakdown.compute,
        "advisor {} must exceed dgl {}",
        s_adv.breakdown.compute,
        s_dgl.breakdown.compute
    );
}

#[test]
fn cacheless_systems_cache_and_reuse_nothing() {
    // An explicit ratio does not give a cache to a system without one.
    let data = Dataset::Reddit.generate_scaled(1.0 / 1024.0, 11);
    for kind in [SystemKind::Pyg, SystemKind::Dgl, SystemKind::GnnAdvisor] {
        for config in [cfg(), cfg().with_cache_ratio(0.5)] {
            let s = kind.build(config).run_epoch(&data, 0);
            assert_eq!(s.rows_cached, 0, "{kind}");
            assert_eq!(s.rows_reused, 0, "{kind}");
        }
    }
}

#[test]
#[should_panic(expected = "GNNLab needs at least 2 GPUs")]
fn gnnlab_rejects_single_gpu() {
    let _ = SystemKind::GnnLab.build(cfg().with_gpus(1));
}

#[test]
fn min_gpus_is_two_only_for_gnnlab() {
    for kind in SystemKind::ALL {
        let expected = if kind == SystemKind::GnnLab { 2 } else { 1 };
        assert_eq!(kind.min_gpus(), expected, "{kind}");
    }
}

#[test]
fn gnnlab_cache_reduces_io_versus_dgl() {
    let data = Dataset::Reddit.generate_scaled(1.0 / 256.0, 7);
    let s_lab = SystemKind::GnnLab.build(cfg()).run_epoch(&data, 0);
    let s_dgl = DglSystem::new(cfg()).run_epoch(&data, 0);
    assert!(s_lab.rows_cached > 0, "GNNLab cached nothing");
    assert!(
        s_lab.breakdown.io < s_dgl.breakdown.io,
        "cache must cut IO: {} vs {}",
        s_lab.breakdown.io,
        s_dgl.breakdown.io
    );
}

#[test]
fn gnnlab_overlap_hides_part_of_the_sampling() {
    // GNNLab's dedicated sampler GPU overlaps sampling with training;
    // its visible sample time must be below the same pipeline run
    // without overlap (paper Fig. 14d: hiding works until the sampled
    // subgraph outgrows the training time).
    let data = Dataset::Reddit.generate_scaled(1.0 / 256.0, 8);
    let heavy = cfg().with_batch_size(256);
    let mut unhidden_cfg = heavy.clone();
    unhidden_cfg.sample_device = SampleDevice::Gpu;
    unhidden_cfg.id_map = IdMapKind::Baseline;
    unhidden_cfg.compute_mode = ComputeMode::Naive;
    let mut unhidden = Pipeline::new(
        "GNNLab-no-overlap",
        unhidden_cfg,
        PipelinePolicy {
            use_match: false,
            use_reorder: false,
            cache: CachePolicy::Auto,
            sampler_gpus: 1,
            overlap_sample: false,
            cache_rank: CacheRankPolicy::PreSampledHotness,
        },
    );
    let s_lab = SystemKind::GnnLab.build(heavy).run_epoch(&data, 0);
    let s_plain = unhidden.run_epoch(&data, 0);
    assert!(
        s_lab.breakdown.sample < s_plain.breakdown.sample,
        "overlap must hide sampling: {} vs {}",
        s_lab.breakdown.sample,
        s_plain.breakdown.sample
    );
    assert!(s_lab.total() < s_plain.total());
}

#[test]
fn explicit_ratio_controls_cache() {
    let data = Dataset::Products.generate_scaled(1.0 / 1024.0, 9);
    for kind in [SystemKind::GnnLab, SystemKind::PaGraph] {
        let s0 = kind.build(cfg().with_cache_ratio(0.0)).run_epoch(&data, 0);
        let s5 = kind.build(cfg().with_cache_ratio(0.5)).run_epoch(&data, 0);
        assert_eq!(s0.rows_cached, 0, "{kind}");
        assert!(s5.rows_cached > 0, "{kind}");
        assert!(s5.breakdown.io < s0.breakdown.io, "{kind}");
    }
}

#[test]
fn pagraph_cache_cuts_io_below_dgl() {
    let data = Dataset::Reddit.generate_scaled(1.0 / 256.0, 12);
    let s_pg = SystemKind::PaGraph.build(cfg()).run_epoch(&data, 0);
    let s_dgl = DglSystem::new(cfg()).run_epoch(&data, 0);
    assert!(s_pg.rows_cached > 0);
    assert!(s_pg.breakdown.io < s_dgl.breakdown.io);
}

#[test]
fn pagraph_sampling_not_overlapped() {
    let data = Dataset::Products.generate_scaled(1.0 / 1024.0, 13);
    let cfg = FastGlConfig::default()
        .with_batch_size(64)
        .with_fanouts(vec![3, 5]);
    let s = SystemKind::PaGraph.build(cfg).run_epoch(&data, 0);
    assert!(s.breakdown.sample.as_nanos() > 0);
}
