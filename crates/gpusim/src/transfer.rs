//! PCIe transfer engine — the simulator of the memory IO phase.
//!
//! The memory IO phase has two stages (paper §7): (1) the host gathers the
//! required feature rows into a contiguous staging buffer, and (2) the
//! buffer crosses PCIe. Both are bandwidth-bound; stage 2 dominates on
//! PCIe 4.0 but the engine models both so the paper's "future direction"
//! observation (host-side organisation becoming the bottleneck at
//! Grace-Hopper bandwidths) can be explored too.

use crate::fault::{FaultedTransfer, RetryCostModel, TransferFault};
use crate::spec::HostSpec;
use crate::timeline::SimTime;

/// Simulates host→device copies and accumulates a ledger of transferred
/// bytes.
///
/// # Example
///
/// ```
/// use fastgl_gpusim::{PcieEngine, SimTime};
///
/// let mut pcie = PcieEngine::default();
/// let t = pcie.h2d(100 << 20); // copy 100 MB
/// assert!(t > SimTime::from_millis(3)); // ≥ 100 MB / 32 GB/s
/// assert_eq!(pcie.h2d_total(), 100 << 20);
/// ```
#[derive(Debug, Clone)]
pub struct PcieEngine {
    spec: HostSpec,
    h2d_bytes: u64,
}

impl PcieEngine {
    /// An engine over the given host parameters.
    pub fn new(spec: HostSpec) -> Self {
        Self { spec, h2d_bytes: 0 }
    }

    /// Time for the host to gather `bytes` of scattered rows into a pinned
    /// staging buffer (stage 1 of the memory IO phase).
    pub fn host_gather_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.spec.gather_bw)
    }

    /// Time for one host→device copy of `bytes` (stage 2), including the
    /// fixed per-transfer latency. Records the transfer in the ledger.
    pub fn h2d(&mut self, bytes: u64) -> SimTime {
        self.h2d_bytes += bytes;
        self.copy_time(bytes)
    }

    /// Pure copy-time query (no ledger update).
    pub fn copy_time(&self, bytes: u64) -> SimTime {
        SimTime::from_nanos(self.spec.pcie_latency_ns)
            + SimTime::from_secs_f64(bytes as f64 / (self.spec.pcie_bw * self.spec.pcie_efficiency))
    }

    /// [`h2d`](Self::h2d) under an optional injected fault: a clean call
    /// (`fault == None`) is bit-identical to `h2d`, a [`TransferFault::Stall`]
    /// adds `factor ×` the copy time, and a [`TransferFault::Retryable`]
    /// charges `model`'s deterministic backoff and accounts the wasted
    /// partial copies as extra PCIe traffic in the ledger.
    pub fn h2d_with_fault(
        &mut self,
        bytes: u64,
        fault: Option<&TransferFault>,
        model: &RetryCostModel,
    ) -> FaultedTransfer {
        let time = self.h2d(bytes);
        match fault {
            None => FaultedTransfer {
                time,
                ..Default::default()
            },
            Some(TransferFault::Stall { factor }) => {
                let overhead = self.copy_time(bytes) * *factor;
                FaultedTransfer {
                    time: time + overhead,
                    overhead,
                    retries: 0,
                    stalled: true,
                }
            }
            Some(TransferFault::Retryable { failures }) => {
                let overhead = model.overhead(self.copy_time(bytes), *failures);
                self.h2d_bytes += model.wasted_bytes(bytes, *failures);
                FaultedTransfer {
                    time: time + overhead,
                    overhead,
                    retries: *failures,
                    stalled: false,
                }
            }
        }
    }

    /// Total host→device bytes moved so far.
    pub fn h2d_total(&self) -> u64 {
        self.h2d_bytes
    }
}

impl Default for PcieEngine {
    fn default() -> Self {
        Self::new(HostSpec::default())
    }
}

/// Ring all-reduce time for gradient synchronization across `n` workers:
/// each worker sends and receives `2 (n-1)/n · bytes` over the peer link.
pub fn ring_allreduce_time(spec: &HostSpec, bytes: u64, n: usize) -> SimTime {
    if n <= 1 {
        return SimTime::ZERO;
    }
    let volume = 2.0 * (n as f64 - 1.0) / n as f64 * bytes as f64;
    // 2(n-1) latency-bound steps plus the bandwidth term.
    SimTime::from_nanos(spec.pcie_latency_ns * 2 * (n as u64 - 1))
        + SimTime::from_secs_f64(volume / spec.p2p_bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> PcieEngine {
        PcieEngine::new(HostSpec::pcie4())
    }

    #[test]
    fn copy_time_scales_linearly_past_latency() {
        let e = engine();
        let t1 = e.copy_time(1 << 20);
        let t2 = e.copy_time(2 << 20);
        let latency = SimTime::from_nanos(HostSpec::pcie4().pcie_latency_ns);
        let body1 = t1.saturating_sub(latency).as_secs_f64();
        let body2 = t2.saturating_sub(latency).as_secs_f64();
        assert!((body2 / body1 - 2.0).abs() < 0.01, "{body1} {body2}");
    }

    #[test]
    fn small_transfers_pay_latency() {
        let e = engine();
        let t = e.copy_time(1);
        assert!(t >= SimTime::from_nanos(HostSpec::pcie4().pcie_latency_ns));
    }

    #[test]
    fn gigabyte_takes_expected_time() {
        let e = engine();
        // 1 GB at 27.2 GB/s effective ≈ 36.8 ms.
        let t = e.copy_time(1_000_000_000);
        assert!((t.as_secs_f64() - 0.0368).abs() < 0.002, "{t}");
    }

    #[test]
    fn ledger_accumulates() {
        let mut e = engine();
        e.h2d(100);
        e.h2d(200);
        assert_eq!(e.h2d_total(), 300);
    }

    #[test]
    fn clean_faulted_transfer_matches_h2d() {
        let mut a = engine();
        let mut b = engine();
        let t = a.h2d(1 << 20);
        let ft = b.h2d_with_fault(1 << 20, None, &RetryCostModel::default());
        assert_eq!(ft.time, t);
        assert_eq!(ft.overhead, SimTime::ZERO);
        assert_eq!(a.h2d_total(), b.h2d_total());
    }

    #[test]
    fn stall_delays_without_extra_bytes() {
        let mut e = engine();
        let clean = e.copy_time(1 << 20);
        let ft = e.h2d_with_fault(
            1 << 20,
            Some(&TransferFault::Stall { factor: 4.0 }),
            &RetryCostModel::default(),
        );
        assert!(ft.stalled);
        assert_eq!(ft.overhead, clean * 4.0);
        assert_eq!(e.h2d_total(), 1 << 20, "stalls move no extra bytes");
    }

    #[test]
    fn retries_charge_backoff_and_wasted_bytes() {
        let mut e = engine();
        let ft = e.h2d_with_fault(
            1000,
            Some(&TransferFault::Retryable { failures: 2 }),
            &RetryCostModel::default(),
        );
        assert_eq!(ft.retries, 2);
        assert!(ft.overhead > SimTime::ZERO);
        assert_eq!(e.h2d_total(), 2000, "two half-copies wasted");
    }

    #[test]
    fn allreduce_zero_for_single_worker() {
        assert_eq!(
            ring_allreduce_time(&HostSpec::pcie4(), 1 << 20, 1),
            SimTime::ZERO
        );
    }

    #[test]
    fn allreduce_grows_sublinearly_with_workers() {
        let spec = HostSpec::pcie4();
        let bytes = 100 << 20;
        let t2 = ring_allreduce_time(&spec, bytes, 2).as_secs_f64();
        let t8 = ring_allreduce_time(&spec, bytes, 8).as_secs_f64();
        // Volume factor goes 1.0 -> 1.75, so under 2x even with latency.
        assert!(t8 < 2.0 * t2, "t2={t2} t8={t8}");
        assert!(t8 > t2);
    }
}
