//! Stable metric and span names shared between the emitting crates and
//! consumers of the exported `telemetry.json` / chrome trace.
//!
//! Every counter, histogram and wall-clock span the workspace emits at
//! runtime is named here; `fastgl-core`'s `registered_names` lint-test
//! snapshots real runs and asserts each emitted metric name appears in
//! [`all()`] and each span name in [`spans()`], so a typo'd string fails
//! `cargo test` instead of silently forking a new time series. Consumers
//! (`fastgl-insight`, CI greps, dashboards) match on these constants
//! rather than re-typing the strings.
//!
//! All counters are deterministic: increments are driven by the simulated
//! workload, so totals are identical at any `FASTGL_THREADS` /
//! `FASTGL_PREFETCH` setting. Wall-clock *histograms* (the
//! `pipeline.*_ns` family) are the one timing-dependent family — their
//! bucket shapes vary run to run, which is why `fastgl-insight` keys its
//! deterministic analyses off counters and simulated time only.

// ---------------------------------------------------------------------
// Sampling and training counters.
// ---------------------------------------------------------------------

/// Nodes drawn by the neighbour sampler across all layers.
pub const SAMPLE_NODES: &str = "sample.nodes_sampled";

/// Edges materialised into sampled subgraph CSRs.
pub const SAMPLE_EDGES: &str = "sample.edges_sampled";

/// Feature rows fetched host→device by the memory-IO engine.
pub const IO_ROWS_LOADED: &str = "io.rows_loaded";

/// Feature bytes copied host→device (PCIe traffic).
pub const IO_BYTES_H2D: &str = "io.bytes_h2d";

/// GPU feature-cache hits (rows served without a PCIe fetch).
pub const CACHE_HITS: &str = "cache.hits";

/// GPU feature-cache misses (rows that had to cross PCIe).
pub const CACHE_MISSES: &str = "cache.misses";

/// Dense-kernel floating-point operations (matmul).
pub const TENSOR_MATMUL_FLOPS: &str = "tensor.matmul_flops";

/// Rows gathered by feature-gather kernels.
pub const TENSOR_GATHER_ROWS: &str = "tensor.gather_rows";

/// Bytes moved by feature-gather kernels.
pub const TENSOR_GATHER_BYTES: &str = "tensor.gather_bytes";

// ---------------------------------------------------------------------
// Pipeline counters.
// ---------------------------------------------------------------------

/// Mini-batch windows retired by the pipelined executor.
pub const PIPELINE_WINDOWS: &str = "pipeline.windows";

/// Training iterations (mini-batches) completed.
pub const PIPELINE_ITERATIONS: &str = "pipeline.iterations";

/// Feature rows served from the Match-Reorder overlap window.
pub const PIPELINE_ROWS_REUSED: &str = "pipeline.rows_reused";

/// Feature rows served from the device-resident cache.
pub const PIPELINE_ROWS_CACHED: &str = "pipeline.rows_cached";

/// PCIe bytes avoided by Match-Reorder row reuse
/// (`rows_reused × row_bytes`).
pub const PIPELINE_BYTES_REUSE_SAVED: &str = "pipeline.bytes_reuse_saved";

/// PCIe bytes avoided by the device feature cache
/// (`rows_cached × row_bytes`).
pub const PIPELINE_BYTES_CACHE_SAVED: &str = "pipeline.bytes_cache_saved";

// ---------------------------------------------------------------------
// Simulated GPU memory-hierarchy counters (fastgl-gpusim).
// ---------------------------------------------------------------------

/// Floating-point operations executed by simulated kernels.
pub const GPUSIM_FLOPS: &str = "gpusim.flops";

/// Bytes served from simulated shared memory.
pub const GPUSIM_BYTES_SHARED: &str = "gpusim.bytes_shared";

/// Bytes served from the simulated L1 cache.
pub const GPUSIM_BYTES_L1: &str = "gpusim.bytes_l1";

/// Bytes served from the simulated L2 cache.
pub const GPUSIM_BYTES_L2: &str = "gpusim.bytes_l2";

/// Bytes served from simulated global memory (HBM/GDDR).
pub const GPUSIM_BYTES_GLOBAL: &str = "gpusim.bytes_global";

/// Simulated kernel launches.
pub const GPUSIM_KERNEL_LAUNCHES: &str = "gpusim.kernel_launches";

// ---------------------------------------------------------------------
// Resilience / fault-injection counters.
// ---------------------------------------------------------------------

/// Injected PCIe stalls ridden out by the memory-IO engine.
pub const FAULT_PCIE_STALLS: &str = "resilience.pcie_stalls";

/// Failed transfer attempts that were retried with simulated backoff.
pub const FAULT_TRANSFER_RETRIES: &str = "resilience.transfer_retries";

/// Simulated nanoseconds of fault-recovery overhead (stall time plus
/// retry backoff and wasted partial copies).
pub const FAULT_OVERHEAD_NS: &str = "resilience.fault_overhead_ns";

/// Feature-cache rows evicted under injected device-memory pressure.
pub const CACHE_EVICTED_ROWS: &str = "resilience.cache_evicted_rows";

/// Injected stage-worker panics recovered by replaying the window.
pub const WORKER_PANICS: &str = "resilience.worker_panics";

/// Pipeline stage restarts (each replays the in-flight window).
pub const STAGE_REPLAYS: &str = "pipeline.stage.replays";

/// Checkpoints written by `Checkpoint::save`.
pub const CHECKPOINT_SAVES: &str = "resilience.checkpoint_saves";

/// Checkpoints read back by `Checkpoint::load`.
pub const CHECKPOINT_LOADS: &str = "resilience.checkpoint_loads";

// ---------------------------------------------------------------------
// Wall-clock histograms.
// ---------------------------------------------------------------------

/// Nodes per training batch (input + neighbourhood).
pub const TRAINER_BATCH_NODES: &str = "trainer.batch_nodes";

/// Sample-stage wall time doing work, nanoseconds per epoch.
pub const PIPELINE_SAMPLE_BUSY_NS: &str = "pipeline.sample.busy_ns";

/// Sample-stage wall time blocked on downstream backpressure.
pub const PIPELINE_SAMPLE_STALL_OUT_NS: &str = "pipeline.sample.stall_out_ns";

/// Sample-stage wall time starved waiting for upstream input.
pub const PIPELINE_SAMPLE_STALL_IN_NS: &str = "pipeline.sample.stall_in_ns";

/// Prepare-stage wall time doing work, nanoseconds per epoch.
pub const PIPELINE_PREPARE_BUSY_NS: &str = "pipeline.prepare.busy_ns";

/// Prepare-stage wall time blocked on downstream backpressure.
pub const PIPELINE_PREPARE_STALL_OUT_NS: &str = "pipeline.prepare.stall_out_ns";

/// Prepare-stage wall time starved waiting for sampled windows.
pub const PIPELINE_PREPARE_STALL_IN_NS: &str = "pipeline.prepare.stall_in_ns";

/// Execute-stage wall time doing work, nanoseconds per epoch.
pub const PIPELINE_EXECUTE_BUSY_NS: &str = "pipeline.execute.busy_ns";

/// Execute-stage wall time blocked on downstream backpressure (always
/// zero today — execute is the terminal stage — but registered so the
/// taxonomy is uniform across stages).
pub const PIPELINE_EXECUTE_STALL_OUT_NS: &str = "pipeline.execute.stall_out_ns";

/// Execute-stage wall time starved waiting for prepared windows.
pub const PIPELINE_EXECUTE_STALL_IN_NS: &str = "pipeline.execute.stall_in_ns";

// ---------------------------------------------------------------------
// Wall-clock spans.
// ---------------------------------------------------------------------

/// One epoch of the numeric trainer.
pub const SPAN_TRAINER_EPOCH: &str = "trainer.epoch";

/// One training iteration (a mini-batch's gather, forward, backward and
/// update).
pub const SPAN_TRAINER_ITERATION: &str = "trainer.iteration";

/// The model's forward pass in one training iteration.
pub const SPAN_TRAINER_FORWARD: &str = "trainer.forward";

/// The model's backward pass and parameter update in one training
/// iteration.
pub const SPAN_TRAINER_BACKWARD: &str = "trainer.backward";

/// One dense `A · B`.
pub const SPAN_TENSOR_MATMUL: &str = "tensor.matmul";

/// One dense `Aᵀ · B`.
pub const SPAN_TENSOR_MATMUL_T_A: &str = "tensor.matmul_t_a";

/// One dense `A · Bᵀ`.
pub const SPAN_TENSOR_MATMUL_T_B: &str = "tensor.matmul_t_b";

/// One feature-row gather.
pub const SPAN_TENSOR_GATHER: &str = "tensor.gather";

/// One k-hop neighbour-sampled mini-batch.
pub const SPAN_SAMPLE_NEIGHBOR: &str = "sample.neighbor";

/// One layer-wise sampled mini-batch.
pub const SPAN_SAMPLE_LAYER_WISE: &str = "sample.layer_wise";

/// One random-walk sampled mini-batch.
pub const SPAN_SAMPLE_RANDOM_WALK: &str = "sample.random_walk";

/// One mini-batch through the simulator's sampler engine.
pub const SPAN_CORE_SAMPLE_BATCH: &str = "core.sample_batch";

/// One simulated epoch of `Pipeline::run_epoch`.
pub const SPAN_PIPELINE_EPOCH: &str = "pipeline.epoch";

/// The executor's sample stage, once per window.
pub const SPAN_PIPELINE_STAGE_SAMPLE: &str = "pipeline.stage.sample";

/// The executor's prepare stage (reorder and Match), once per window.
pub const SPAN_PIPELINE_STAGE_PREPARE: &str = "pipeline.stage.prepare";

/// The executor's execute stage, once per window.
pub const SPAN_PIPELINE_STAGE_EXECUTE: &str = "pipeline.stage.execute";

/// One worker's chunk of a parallel-backend fork.
pub const SPAN_PARALLEL_CHUNK: &str = "parallel.chunk";

/// Every registered metric name: the authoritative list the
/// `registered_names` lint-test checks runtime emissions against.
pub fn all() -> &'static [&'static str] {
    &[
        SAMPLE_NODES,
        SAMPLE_EDGES,
        IO_ROWS_LOADED,
        IO_BYTES_H2D,
        CACHE_HITS,
        CACHE_MISSES,
        TENSOR_MATMUL_FLOPS,
        TENSOR_GATHER_ROWS,
        TENSOR_GATHER_BYTES,
        PIPELINE_WINDOWS,
        PIPELINE_ITERATIONS,
        PIPELINE_ROWS_REUSED,
        PIPELINE_ROWS_CACHED,
        PIPELINE_BYTES_REUSE_SAVED,
        PIPELINE_BYTES_CACHE_SAVED,
        GPUSIM_FLOPS,
        GPUSIM_BYTES_SHARED,
        GPUSIM_BYTES_L1,
        GPUSIM_BYTES_L2,
        GPUSIM_BYTES_GLOBAL,
        GPUSIM_KERNEL_LAUNCHES,
        FAULT_PCIE_STALLS,
        FAULT_TRANSFER_RETRIES,
        FAULT_OVERHEAD_NS,
        CACHE_EVICTED_ROWS,
        WORKER_PANICS,
        STAGE_REPLAYS,
        CHECKPOINT_SAVES,
        CHECKPOINT_LOADS,
        TRAINER_BATCH_NODES,
        PIPELINE_SAMPLE_BUSY_NS,
        PIPELINE_SAMPLE_STALL_OUT_NS,
        PIPELINE_SAMPLE_STALL_IN_NS,
        PIPELINE_PREPARE_BUSY_NS,
        PIPELINE_PREPARE_STALL_OUT_NS,
        PIPELINE_PREPARE_STALL_IN_NS,
        PIPELINE_EXECUTE_BUSY_NS,
        PIPELINE_EXECUTE_STALL_OUT_NS,
        PIPELINE_EXECUTE_STALL_IN_NS,
    ]
}

/// Every registered wall-clock span name: the list the
/// `registered_names` lint-test checks the spans of runtime events
/// against.
pub fn spans() -> &'static [&'static str] {
    &[
        SPAN_TRAINER_EPOCH,
        SPAN_TRAINER_ITERATION,
        SPAN_TRAINER_FORWARD,
        SPAN_TRAINER_BACKWARD,
        SPAN_TENSOR_MATMUL,
        SPAN_TENSOR_MATMUL_T_A,
        SPAN_TENSOR_MATMUL_T_B,
        SPAN_TENSOR_GATHER,
        SPAN_SAMPLE_NEIGHBOR,
        SPAN_SAMPLE_LAYER_WISE,
        SPAN_SAMPLE_RANDOM_WALK,
        SPAN_CORE_SAMPLE_BATCH,
        SPAN_PIPELINE_EPOCH,
        SPAN_PIPELINE_STAGE_SAMPLE,
        SPAN_PIPELINE_STAGE_PREPARE,
        SPAN_PIPELINE_STAGE_EXECUTE,
        SPAN_PARALLEL_CHUNK,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_no_duplicates() {
        for names in [all(), spans()] {
            let mut sorted: Vec<&str> = names.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "duplicate name in registry");
        }
    }

    #[test]
    fn names_follow_the_dotted_convention() {
        for name in all().iter().chain(spans()) {
            assert!(
                name.contains('.'),
                "{name}: names are namespaced as subsystem.metric"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{name}: lowercase snake-case with dots only"
            );
        }
    }
}
