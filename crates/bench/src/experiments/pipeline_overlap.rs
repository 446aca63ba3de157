//! Determinism of the asynchronous window pipeline (paper §6.5).
//!
//! FastGL overlaps sampling, reorder/match, and feature-load/compute
//! across mini-batch windows. This experiment runs the identical workload
//! at prefetch depths 0 (serial), 1, 2, and 4 and asserts that the
//! simulated epoch statistics are bit-identical at every depth, which is
//! the pipeline's core contract. The host wall time of each stage is
//! measured by `perfbench` (`executor.*_{busy,stall}_ms`), as medians.

use crate::experiments::base_config;
use crate::report::{fmt_secs, Report, Table};
use crate::scale::BenchScale;
use fastgl_core::{FastGl, TrainingSystem};
use fastgl_graph::Dataset;

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "BENCH_pipeline",
        "Pipelined epoch executor: simulated results vs prefetch depth",
    );
    let data = scale.bundle(Dataset::Products);
    let mut table = Table::new(
        "GCN/Products, FastGL policy; same epochs at every depth",
        &["prefetch", "simulated total"],
    );
    let mut serial_stats = None;
    for depth in [0usize, 1, 2, 4] {
        // Pipelining overlaps *across* windows, so run the smallest
        // reorder window: the epoch splits into as many windows as the
        // profile's batch count allows instead of one monolithic window.
        let mut cfg = base_config(scale).with_prefetch_windows(depth);
        cfg.reorder_window = 2;
        let mut sys = FastGl::new(cfg);
        let s = sys.run_epochs(&data, scale.epochs);
        match serial_stats {
            None => serial_stats = Some(s),
            Some(base) => assert_eq!(base, s, "prefetch depth {depth} changed simulated results"),
        }
        table.push_row(vec![depth.to_string(), fmt_secs(s.total().as_secs_f64())]);
    }
    report.tables.push(table);
    report.note(
        "Expected shape: the simulated total is byte-identical in every \
         row (asserted). Depth 0 is the serial loop; depths >= 1 run the \
         sampler, the reorder/match stage and the load/compute stage on \
         their own threads, across windows. The host wall time and each \
         stage's busy/stall split are measured by perfbench, as medians \
         over repeated epochs, not here.",
    );
    report
}
