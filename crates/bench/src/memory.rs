//! Memory-hierarchy attribution from the runtime counter taxonomy.
//!
//! The compute engine folds every aggregation kernel's per-level byte
//! profile into the global counters (`gpusim.bytes_*`), the IO engine
//! counts PCIe traffic and cache hits, and the pipeline counts the bytes
//! Match-Reorder kept off the bus. This module gathers those counters
//! back into one struct shaped like the paper's memory analysis (Fig. 1's
//! "where does the time go" and Fig. 10's IO-savings story, in bytes):
//! how much traffic each level of the hierarchy served, how effective the
//! feature cache was, and how much PCIe traffic the reuse machinery
//! avoided.
//!
//! Everything here is simulated and deterministic: counter totals are
//! pinned thread-invariant by the telemetry test suite, so the same run
//! produces the same attribution on any machine.

use fastgl_telemetry::{names, Snapshot};

/// Per-level traffic and savings of one run, folded from counters.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct MemoryAttribution {
    /// Aggregation FLOPs executed.
    pub flops: u64,
    /// Bytes served from shared memory (Memory-Aware staging).
    pub bytes_shared: u64,
    /// Bytes served by L1 hits.
    pub bytes_l1: u64,
    /// Bytes served by L2 hits (missed L1).
    pub bytes_l2: u64,
    /// Bytes served by device DRAM (missed both caches).
    pub bytes_global: u64,
    /// Feature bytes moved host-to-device over PCIe.
    pub bytes_pcie: u64,
    /// Simulated kernel launches.
    pub kernel_launches: u64,
    /// Feature-cache row hits.
    pub cache_hits: u64,
    /// Feature-cache row misses.
    pub cache_misses: u64,
    /// Feature rows actually loaded over PCIe.
    pub rows_loaded: u64,
    /// PCIe bytes avoided by Match (cross-batch row reuse).
    pub bytes_reuse_saved: u64,
    /// PCIe bytes avoided by the GPU feature cache.
    pub bytes_cache_saved: u64,
}

impl MemoryAttribution {
    /// Reads the attribution out of a drained snapshot. Absent counters
    /// read as zero, so partial runs (e.g. no caching configured) still
    /// fold cleanly.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        Self {
            flops: c(names::GPUSIM_FLOPS),
            bytes_shared: c(names::GPUSIM_BYTES_SHARED),
            bytes_l1: c(names::GPUSIM_BYTES_L1),
            bytes_l2: c(names::GPUSIM_BYTES_L2),
            bytes_global: c(names::GPUSIM_BYTES_GLOBAL),
            bytes_pcie: c(names::IO_BYTES_H2D),
            kernel_launches: c(names::GPUSIM_KERNEL_LAUNCHES),
            cache_hits: c(names::CACHE_HITS),
            cache_misses: c(names::CACHE_MISSES),
            rows_loaded: c(names::IO_ROWS_LOADED),
            bytes_reuse_saved: c(names::PIPELINE_BYTES_REUSE_SAVED),
            bytes_cache_saved: c(names::PIPELINE_BYTES_CACHE_SAVED),
        }
    }

    /// On-device request bytes: everything the aggregation kernels asked
    /// the memory system for, summed over the level that served it.
    pub fn device_bytes(&self) -> u64 {
        self.bytes_shared + self.bytes_l1 + self.bytes_l2 + self.bytes_global
    }

    /// `(level name, bytes served)` rows in hierarchy order, device levels
    /// first, then the host link.
    pub fn levels(&self) -> [(&'static str, u64); 5] {
        [
            ("shared", self.bytes_shared),
            ("L1", self.bytes_l1),
            ("L2", self.bytes_l2),
            ("global", self.bytes_global),
            ("PCIe", self.bytes_pcie),
        ]
    }

    /// Share of device request bytes `level_bytes` represents (0 when no
    /// device traffic was recorded).
    pub fn device_share(&self, level_bytes: u64) -> f64 {
        let total = self.device_bytes();
        if total == 0 {
            0.0
        } else {
            level_bytes as f64 / total as f64
        }
    }

    /// Fraction of cache-interrogated rows the feature cache served.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of *kernel* requests the on-chip levels (shared + L1 + L2)
    /// absorbed — the quantity Memory-Aware aggregation (§4.2) raises.
    pub fn on_chip_rate(&self) -> f64 {
        let total = self.device_bytes();
        if total == 0 {
            0.0
        } else {
            (self.bytes_shared + self.bytes_l1 + self.bytes_l2) as f64 / total as f64
        }
    }

    /// PCIe bytes that *would* have moved without Match-Reorder and the
    /// feature cache: actual traffic plus both savings buckets.
    pub fn pcie_bytes_unoptimized(&self) -> u64 {
        self.bytes_pcie + self.bytes_reuse_saved + self.bytes_cache_saved
    }

    /// Fraction of would-be PCIe traffic the reuse machinery eliminated
    /// (the Fig. 10 story, in bytes).
    pub fn pcie_savings_rate(&self) -> f64 {
        let total = self.pcie_bytes_unoptimized();
        if total == 0 {
            0.0
        } else {
            (self.bytes_reuse_saved + self.bytes_cache_saved) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn snap(pairs: &[(&'static str, u64)]) -> Snapshot {
        Snapshot {
            counters: pairs.iter().copied().collect::<BTreeMap<_, _>>(),
            ..Snapshot::default()
        }
    }

    #[test]
    fn folds_counters_and_derives_rates() {
        let s = snap(&[
            (names::GPUSIM_FLOPS, 1000),
            (names::GPUSIM_BYTES_SHARED, 100),
            (names::GPUSIM_BYTES_L1, 300),
            (names::GPUSIM_BYTES_L2, 200),
            (names::GPUSIM_BYTES_GLOBAL, 400),
            (names::IO_BYTES_H2D, 5000),
            (names::GPUSIM_KERNEL_LAUNCHES, 7),
            (names::CACHE_HITS, 30),
            (names::CACHE_MISSES, 10),
            (names::PIPELINE_BYTES_REUSE_SAVED, 2000),
            (names::PIPELINE_BYTES_CACHE_SAVED, 3000),
        ]);
        let m = MemoryAttribution::from_snapshot(&s);
        assert_eq!(m.device_bytes(), 1000);
        assert_eq!(m.device_share(m.bytes_l1), 0.3);
        assert_eq!(m.on_chip_rate(), 0.6);
        assert_eq!(m.cache_hit_rate(), 0.75);
        assert_eq!(m.pcie_bytes_unoptimized(), 10_000);
        assert_eq!(m.pcie_savings_rate(), 0.5);
        assert_eq!(m.levels()[4], ("PCIe", 5000));
        assert_eq!(m.kernel_launches, 7);
        assert_eq!(m.flops, 1000);
    }

    #[test]
    fn empty_snapshot_is_all_zero_and_divides_safely() {
        let m = MemoryAttribution::from_snapshot(&Snapshot::default());
        assert_eq!(m, MemoryAttribution::default());
        assert_eq!(m.cache_hit_rate(), 0.0);
        assert_eq!(m.on_chip_rate(), 0.0);
        assert_eq!(m.device_share(0), 0.0);
        assert_eq!(m.pcie_savings_rate(), 0.0);
    }
}
