//! The memory-IO engine: feature loads from host to device.
//!
//! Each load has two stages (paper §7): the host gathers scattered feature
//! rows into a contiguous pinned buffer (sharing host-memory bandwidth with
//! every other GPU's loader process), then the buffer crosses PCIe on the
//! GPU's own link.

use fastgl_gpusim::{
    FaultedTransfer, PcieEngine, RetryCostModel, SimTime, SystemSpec, TransferFault,
};
use fastgl_telemetry::names;

/// Prices feature loads for one GPU of a possibly multi-GPU system.
#[derive(Debug, Clone)]
pub struct IoEngine {
    pcie: PcieEngine,
    /// Host-gather slowdown from other GPUs' loader processes sharing the
    /// host memory bus (≈ number of concurrently loading GPUs).
    gather_contention: f64,
}

impl IoEngine {
    /// An engine for a system where `concurrent_loaders` GPUs gather from
    /// host memory at once.
    ///
    /// # Panics
    ///
    /// Panics if `concurrent_loaders == 0`.
    pub fn new(spec: &SystemSpec, concurrent_loaders: usize) -> Self {
        assert!(concurrent_loaders > 0, "need at least one loader");
        Self {
            pcie: PcieEngine::new(spec.host.clone()),
            gather_contention: concurrent_loaders as f64,
        }
    }

    /// Time to load `rows` feature rows of `row_bytes` each: contended host
    /// gather plus the PCIe copy. Zero rows cost nothing.
    pub fn load_rows(&mut self, rows: u64, row_bytes: u64) -> SimTime {
        self.load_rows_faulted(rows, row_bytes, None, &RetryCostModel::default())
            .time
    }

    /// Like [`load_rows`](Self::load_rows), but the PCIe copy may carry an
    /// injected [`TransferFault`] (see [`crate::resilience`]): a stall
    /// multiplies the copy time, a retryable error adds the `model`'s
    /// backoff and re-sends the wasted partial copies (which are counted
    /// into the byte ledger as real traffic). [`FaultedTransfer::time`]
    /// is the total including recovery overhead; with `fault == None` it
    /// is bit-identical to `load_rows` and the overhead is zero.
    pub fn load_rows_faulted(
        &mut self,
        rows: u64,
        row_bytes: u64,
        fault: Option<&TransferFault>,
        model: &RetryCostModel,
    ) -> FaultedTransfer {
        if rows == 0 {
            return FaultedTransfer::default();
        }
        let bytes = rows * row_bytes;
        fastgl_telemetry::counter_add(names::IO_ROWS_LOADED, rows);
        fastgl_telemetry::counter_add(names::IO_BYTES_H2D, bytes);
        let gather = self.pcie.host_gather_time(bytes) * self.gather_contention;
        let mut out = self.pcie.h2d_with_fault(bytes, fault, model);
        out.time += gather;
        out
    }

    /// Feature bytes moved host→device so far.
    pub fn bytes_h2d(&self) -> u64 {
        self.pcie.h2d_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rows_free() {
        let spec = SystemSpec::rtx3090_server(2);
        let mut io = IoEngine::new(&spec, 1);
        assert_eq!(io.load_rows(0, 400), SimTime::ZERO);
        assert_eq!(io.bytes_h2d(), 0);
    }

    #[test]
    fn load_time_scales_with_rows() {
        let spec = SystemSpec::rtx3090_server(2);
        let mut io = IoEngine::new(&spec, 1);
        let t1 = io.load_rows(10_000, 400);
        let t2 = io.load_rows(20_000, 400);
        assert!(t2 > t1);
        assert_eq!(io.bytes_h2d(), 30_000 * 400);
    }

    #[test]
    fn contention_slows_gathers() {
        let spec = SystemSpec::rtx3090_server(8);
        let mut solo = IoEngine::new(&spec, 1);
        let mut crowded = IoEngine::new(&spec, 8);
        let t1 = solo.load_rows(100_000, 400);
        let t8 = crowded.load_rows(100_000, 400);
        assert!(t8 > t1);
        // PCIe copy itself is per-GPU: the slowdown is less than 8x.
        assert!(t8.as_secs_f64() < 8.0 * t1.as_secs_f64());
    }

    #[test]
    fn fault_free_faulted_load_matches_load_rows() {
        let spec = SystemSpec::rtx3090_server(2);
        let mut a = IoEngine::new(&spec, 2);
        let mut b = IoEngine::new(&spec, 2);
        let clean = a.load_rows(5_000, 400);
        let faulted = b.load_rows_faulted(5_000, 400, None, &RetryCostModel::default());
        assert_eq!(faulted.time, clean, "bit-identical clean time");
        assert_eq!(faulted.overhead, SimTime::ZERO);
        assert_eq!(faulted.retries, 0);
        assert!(!faulted.stalled);
        assert_eq!(a.bytes_h2d(), b.bytes_h2d());
    }

    #[test]
    fn stall_and_retry_faults_cost_time() {
        let spec = SystemSpec::rtx3090_server(2);
        let model = RetryCostModel::default();
        let mut io = IoEngine::new(&spec, 1);
        let stalled = io.load_rows_faulted(
            10_000,
            400,
            Some(&TransferFault::Stall { factor: 4.0 }),
            &model,
        );
        assert!(stalled.stalled);
        assert!(stalled.overhead > SimTime::ZERO);
        let ledger_after_stall = io.bytes_h2d();
        assert_eq!(
            ledger_after_stall,
            10_000 * 400,
            "stalls move no extra bytes"
        );

        let retried = io.load_rows_faulted(
            10_000,
            400,
            Some(&TransferFault::Retryable { failures: 2 }),
            &model,
        );
        assert_eq!(retried.retries, 2);
        assert!(retried.overhead > SimTime::ZERO);
        assert!(
            io.bytes_h2d() > ledger_after_stall + 10_000 * 400,
            "wasted partial copies are real PCIe traffic"
        );
    }

    #[test]
    fn faulted_zero_rows_free() {
        let spec = SystemSpec::rtx3090_server(1);
        let mut io = IoEngine::new(&spec, 1);
        let out = io.load_rows_faulted(
            0,
            400,
            Some(&TransferFault::Stall { factor: 8.0 }),
            &RetryCostModel::default(),
        );
        assert_eq!(out, FaultedTransfer::default());
    }

    #[test]
    #[should_panic(expected = "at least one loader")]
    fn zero_loaders_rejected() {
        let spec = SystemSpec::rtx3090_server(1);
        let _ = IoEngine::new(&spec, 0);
    }
}
