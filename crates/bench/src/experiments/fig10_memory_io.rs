//! Figure 10: memory-IO time under (a) varying cache ratios vs GNNLab and
//! (b) the greedy Reorder ablation.

use crate::experiments::base_config;
use crate::report::{fmt_secs, Report, Table};
use crate::scale::BenchScale;
use fastgl_baselines::SystemKind;
use fastgl_core::{FastGl, TrainingSystem};
use fastgl_graph::Dataset;

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "fig10_memory_io",
        "Fig. 10: memory-IO time vs cache ratio (a) and the Reorder ablation (b)",
    );

    // (a) GCN on Products: sweep the cache ratio.
    let data = scale.bundle(Dataset::Products);
    let mut a = Table::new(
        "(a) GCN/Products memory-IO time per epoch vs cache ratio",
        &["cache ratio", "GNNLab", "FastGL"],
    );
    for ratio in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9] {
        let mut lab = SystemKind::GnnLab.build(base_config(scale).with_cache_ratio(ratio));
        let mut fast = FastGl::new(base_config(scale).with_cache_ratio(ratio));
        let io_lab = lab.run_epochs(&data, scale.epochs).breakdown.io;
        let io_fast = fast.run_epochs(&data, scale.epochs).breakdown.io;
        a.push_row(vec![
            format!("{ratio:.1}"),
            fmt_secs(io_lab.as_secs_f64()),
            fmt_secs(io_fast.as_secs_f64()),
        ]);
    }
    report.tables.push(a);

    // (b) Reorder ablation on one GPU across datasets.
    let mut b = Table::new(
        "(b) GCN memory-IO time per epoch, 1 GPU (DGL vs Match-only vs Match+Reorder)",
        &[
            "graph",
            "DGL",
            "w/o reorder",
            "w/ reorder",
            "rows loaded w/o",
            "rows loaded w/",
        ],
    );
    for dataset in Dataset::CORE4 {
        let data = scale.bundle(dataset);
        let base = base_config(scale).with_gpus(1).with_cache_ratio(0.0);
        let mut dgl_cfg = base.clone();
        dgl_cfg.enable_match = false;
        dgl_cfg.enable_reorder = false;
        let mut match_only = base.clone();
        match_only.enable_reorder = false;
        let reordered = base;
        let s_dgl = FastGl::new(dgl_cfg).run_epochs(&data, scale.epochs);
        let s_m = FastGl::new(match_only).run_epochs(&data, scale.epochs);
        let s_r = FastGl::new(reordered).run_epochs(&data, scale.epochs);
        b.push_row(vec![
            dataset.short_name().into(),
            fmt_secs(s_dgl.breakdown.io.as_secs_f64()),
            fmt_secs(s_m.breakdown.io.as_secs_f64()),
            fmt_secs(s_r.breakdown.io.as_secs_f64()),
            s_m.rows_loaded.to_string(),
            s_r.rows_loaded.to_string(),
        ]);
    }
    report.tables.push(b);
    report.note(
        "Paper shape (a): below cache ratio ~0.5 FastGL's Match-Reorder \
         beats GNNLab's cache decisively; with abundant cache both converge \
         with FastGL keeping a minor edge. (b): Match alone already beats \
         DGL; adding the greedy Reorder removes up to ~25% more IO time and \
         reduces the number of loaded rows.",
    );
    report
}
