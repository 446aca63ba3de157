//! The kernel cost model.
//!
//! A simulated kernel is summarised by *what it moves and computes*: bytes
//! served by each memory level, FLOPs executed, and the overheads that the
//! paper's techniques target (kernel launches, device-wide barriers, atomic
//! contention). Its time is `max(memory time, compute time) + overheads` —
//! the standard bound for a throughput machine that overlaps memory and
//! arithmetic.

use crate::spec::{CostParams, DeviceSpec};
use crate::timeline::SimTime;
use std::ops::{Add, AddAssign};

/// Event counts of one (or several fused) simulated kernels.
///
/// # Example
///
/// ```
/// use fastgl_gpusim::{CostParams, DeviceSpec, KernelProfile};
///
/// // A memory-bound kernel: 1 GB from DRAM dwarfs 1 MFLOP of math.
/// let profile = KernelProfile {
///     flops: 1_000_000,
///     bytes_global: 1 << 30,
///     launches: 1,
///     ..Default::default()
/// };
/// let cost = profile.cost(&DeviceSpec::rtx3090(), &CostParams::default());
/// assert!(cost.mem_time > cost.compute_time);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelProfile {
    /// Floating-point operations executed.
    pub flops: u64,
    /// Bytes served from shared memory (software-managed, ~12 TB/s).
    pub bytes_shared: u64,
    /// Bytes served from the L1 cache (~12 TB/s).
    pub bytes_l1: u64,
    /// Bytes served from the L2 cache (3–5 TB/s).
    pub bytes_l2: u64,
    /// Bytes served from global memory (938 GB/s).
    pub bytes_global: u64,
    /// Device-wide synchronizations (kernel boundaries used as barriers).
    pub barriers: u64,
    /// Atomic operations that lost a contention race and retried.
    pub atomic_conflicts: u64,
    /// Kernel launches.
    pub launches: u64,
}

impl KernelProfile {
    /// Total bytes served from any level.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_shared + self.bytes_l1 + self.bytes_l2 + self.bytes_global
    }

    /// Reports the profile's per-level byte taxonomy into the process
    /// telemetry as `gpusim.*` counters (a no-op when telemetry is
    /// disabled). Increments are pure event counts from the simulated
    /// workload, so the totals stay bit-identical at any thread count —
    /// the `INSIGHT_attribution` experiment folds them into the
    /// paper-style memory-hierarchy attribution.
    pub fn emit_telemetry(&self) {
        use fastgl_telemetry::{counter_add, names};
        counter_add(names::GPUSIM_FLOPS, self.flops);
        counter_add(names::GPUSIM_BYTES_SHARED, self.bytes_shared);
        counter_add(names::GPUSIM_BYTES_L1, self.bytes_l1);
        counter_add(names::GPUSIM_BYTES_L2, self.bytes_l2);
        counter_add(names::GPUSIM_BYTES_GLOBAL, self.bytes_global);
        counter_add(names::GPUSIM_KERNEL_LAUNCHES, self.launches);
    }

    /// Evaluates the profile against a device and calibration constants.
    pub fn cost(&self, device: &DeviceSpec, params: &CostParams) -> KernelCost {
        let mem = self.bytes_shared as f64 / device.bw_shared
            + self.bytes_l1 as f64 / device.bw_shared
            + self.bytes_l2 as f64 / device.bw_l2
            + self.bytes_global as f64 / device.bw_global;
        let compute = self.flops as f64 / device.peak_flops;
        let overhead_ns = (self.launches + self.barriers) * params.kernel_launch_ns
            + (self.atomic_conflicts as f64 * params.gpu_cas_conflict_ns) as u64;
        let mem_time = SimTime::from_secs_f64(mem);
        let compute_time = SimTime::from_secs_f64(compute);
        KernelCost {
            mem_time,
            compute_time,
            overhead: SimTime::from_nanos(overhead_ns),
        }
    }
}

impl Add for KernelProfile {
    type Output = KernelProfile;
    fn add(self, rhs: KernelProfile) -> KernelProfile {
        KernelProfile {
            flops: self.flops + rhs.flops,
            bytes_shared: self.bytes_shared + rhs.bytes_shared,
            bytes_l1: self.bytes_l1 + rhs.bytes_l1,
            bytes_l2: self.bytes_l2 + rhs.bytes_l2,
            bytes_global: self.bytes_global + rhs.bytes_global,
            barriers: self.barriers + rhs.barriers,
            atomic_conflicts: self.atomic_conflicts + rhs.atomic_conflicts,
            launches: self.launches + rhs.launches,
        }
    }
}

impl AddAssign for KernelProfile {
    fn add_assign(&mut self, rhs: KernelProfile) {
        *self = *self + rhs;
    }
}

/// The evaluated cost of a [`KernelProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCost {
    /// Time to serve all bytes from their levels.
    pub mem_time: SimTime,
    /// Time to execute all FLOPs at peak throughput.
    pub compute_time: SimTime,
    /// Launch, barrier, and atomic-contention charges.
    pub overhead: SimTime,
}

impl KernelCost {
    /// Kernel execution time: memory and compute overlap, overheads do not.
    pub fn time(&self) -> SimTime {
        self.mem_time.max(self.compute_time) + self.overhead
    }

    /// Achieved FLOP rate given the executed `flops`.
    pub fn achieved_flops(&self, flops: u64) -> f64 {
        let t = self.time().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            flops as f64 / t
        }
    }
}

impl Add for KernelCost {
    type Output = KernelCost;
    fn add(self, rhs: KernelCost) -> KernelCost {
        KernelCost {
            mem_time: self.mem_time + rhs.mem_time,
            compute_time: self.compute_time + rhs.compute_time,
            overhead: self.overhead + rhs.overhead,
        }
    }
}

/// Cost of a dense GEMM of `m × k × n` (the *update* phase of a GNN layer)
/// at the device's calibrated GEMM efficiency.
pub fn gemm_time(device: &DeviceSpec, params: &CostParams, m: u64, k: u64, n: u64) -> SimTime {
    let flops = 2 * m * k * n;
    let compute = flops as f64 / (device.peak_flops * params.gemm_efficiency);
    // Stream A, B once and write C once from global memory.
    let bytes = 4 * (m * k + k * n + m * n);
    let mem = bytes as f64 / device.bw_global;
    SimTime::from_secs_f64(compute.max(mem)) + SimTime::from_nanos(params.kernel_launch_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::rtx3090()
    }

    fn params() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn memory_bound_kernel_ignores_flops_overlap() {
        let p = KernelProfile {
            flops: 1_000,
            bytes_global: 1_000_000_000, // ~1.07 ms at 938 GB/s
            launches: 1,
            ..Default::default()
        };
        let c = p.cost(&dev(), &params());
        assert!(c.mem_time > c.compute_time);
        assert!(c.time() >= c.mem_time);
        let slack = c.time().saturating_sub(c.mem_time + c.overhead);
        assert_eq!(slack, SimTime::ZERO);
    }

    #[test]
    fn compute_bound_kernel_hides_memory() {
        let p = KernelProfile {
            flops: 29_150_000_000, // 1 s at peak... scaled: ~1 ms worth
            bytes_global: 1_000,
            ..Default::default()
        };
        let c = p.cost(&dev(), &params());
        assert!(c.compute_time > c.mem_time);
    }

    #[test]
    fn shared_memory_is_much_faster_than_global() {
        let from_global = KernelProfile {
            bytes_global: 100_000_000,
            ..Default::default()
        };
        let from_shared = KernelProfile {
            bytes_shared: 100_000_000,
            ..Default::default()
        };
        let tg = from_global.cost(&dev(), &params()).time();
        let ts = from_shared.cost(&dev(), &params()).time();
        assert!(
            tg.as_secs_f64() / ts.as_secs_f64() > 10.0,
            "global {tg} shared {ts}"
        );
    }

    #[test]
    fn overheads_accumulate() {
        let p = KernelProfile {
            launches: 3,
            barriers: 2,
            atomic_conflicts: 1_000,
            ..Default::default()
        };
        let c = p.cost(&dev(), &params());
        let expected =
            5 * params().kernel_launch_ns + (1_000.0 * params().gpu_cas_conflict_ns) as u64;
        assert_eq!(c.overhead.as_nanos(), expected);
    }

    #[test]
    fn profile_addition() {
        let a = KernelProfile {
            flops: 10,
            bytes_global: 5,
            launches: 1,
            ..Default::default()
        };
        let b = KernelProfile {
            flops: 20,
            bytes_l2: 7,
            barriers: 2,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.flops, 30);
        assert_eq!(c.total_bytes(), 12);
        assert_eq!(c.launches, 1);
        assert_eq!(c.barriers, 2);
    }

    #[test]
    fn achieved_flops_below_peak() {
        let p = KernelProfile {
            flops: 1_000_000_000,
            bytes_global: 1_000_000_000,
            launches: 1,
            ..Default::default()
        };
        let c = p.cost(&dev(), &params());
        let achieved = c.achieved_flops(p.flops);
        assert!(achieved < dev().peak_flops);
        assert!(achieved > 0.0);
    }

    #[test]
    fn emit_telemetry_accumulates_the_byte_taxonomy() {
        let _guard = crate::test_sync::TELEMETRY_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        fastgl_telemetry::set_enabled(true);
        fastgl_telemetry::reset();
        let p = KernelProfile {
            flops: 100,
            bytes_shared: 10,
            bytes_l1: 20,
            bytes_l2: 30,
            bytes_global: 40,
            launches: 1,
            ..Default::default()
        };
        p.emit_telemetry();
        p.emit_telemetry();
        let snap = fastgl_telemetry::drain();
        fastgl_telemetry::set_enabled(false);
        use fastgl_telemetry::names;
        assert_eq!(snap.counters[names::GPUSIM_FLOPS], 200);
        assert_eq!(snap.counters[names::GPUSIM_BYTES_SHARED], 20);
        assert_eq!(snap.counters[names::GPUSIM_BYTES_L1], 40);
        assert_eq!(snap.counters[names::GPUSIM_BYTES_L2], 60);
        assert_eq!(snap.counters[names::GPUSIM_BYTES_GLOBAL], 80);
        assert_eq!(snap.counters[names::GPUSIM_KERNEL_LAUNCHES], 2);
    }

    #[test]
    fn gemm_time_scales_with_size() {
        let d = dev();
        let p = params();
        let small = gemm_time(&d, &p, 1_000, 64, 64);
        let large = gemm_time(&d, &p, 8_000, 64, 64);
        assert!(large > small);
        // 2*8000*64*64 = 65.5 MFLOP at ~16 TFLOP/s ≈ 4.1 us + launch.
        assert!(large < SimTime::from_millis(1), "{large}");
    }
}
