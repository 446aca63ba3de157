//! A deterministic simulator of the GPU subsystem FastGL runs on.
//!
//! The FastGL paper's three techniques are all *memory-system* optimisations:
//! their benefit is fully characterised by how many bytes move across PCIe,
//! how many bytes each GPU memory level serves, how many thread
//! synchronizations a kernel performs, and how much compute overlaps it all.
//! This crate models exactly those quantities:
//!
//! * [`spec`] — hardware parameters of the simulated device (an RTX 3090 by
//!   default, with the numbers from Table 3 of the paper) and host.
//! * [`timeline`] — simulated time ([`SimTime`]) and per-phase accounting
//!   ([`PhaseBreakdown`]): sample / memory IO / computation, the three
//!   phases the paper's breakdowns report.
//! * [`cache`] — a set-associative LRU cache simulator used to obtain the
//!   L1/L2 hit rates of the aggregation phase (Table 2).
//! * [`transfer`] — the PCIe transfer engine (the memory IO phase).
//! * [`fault`] — simulated transfer faults (stalls, retryable errors) and
//!   the deterministic retry cost model that prices their recovery.
//! * [`kernel`] — the kernel cost model: `time = max(memory, compute)` plus
//!   launch, barrier, and atomic-contention charges.
//! * [`aggregate`] — trace-driven cost of the SpMM-like aggregation under
//!   naive and Memory-Aware access patterns (Eq. 3 and 4 of the paper).
//! * [`roofline`] — operational intensity and achievable GFLOP/s (Fig. 12).
//!
//! Simulated time is a pure function of counted events; no wall-clock
//! measurement is involved, so results reproduce bit-for-bit everywhere.

#![deny(missing_docs)]

pub mod aggregate;
pub mod cache;
pub mod fault;
pub mod kernel;
pub mod overlap;
pub mod roofline;
pub mod spec;
pub mod timeline;
pub mod transfer;

pub use aggregate::{AggregationCost, AggregationKernel, SubgraphLayerTrace};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use fault::{FaultedTransfer, RetryCostModel, TransferFault};
pub use kernel::{KernelCost, KernelProfile};
pub use roofline::RooflinePoint;
pub use spec::{CostParams, DeviceSpec, HostSpec, SystemSpec};
pub use timeline::{PhaseBreakdown, SimTime};
pub use transfer::PcieEngine;

#[cfg(test)]
pub(crate) mod test_sync {
    use std::sync::Mutex;

    /// Serializes the crate's tests that toggle the process-global
    /// telemetry state (cargo runs unit tests in parallel threads).
    pub(crate) static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());
}
