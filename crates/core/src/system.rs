//! The common interface every training system implements.
//!
//! FastGL and all five baselines (PyG-, DGL-, GNNLab-, GNNAdvisor-, and
//! PaGraph-like) run on the same substrate and expose the same interface,
//! so every benchmark compares pipeline *policies* rather than incidental
//! implementation differences — the property the paper gets from running
//! all systems on identical hardware.

use fastgl_gpusim::{PhaseBreakdown, SimTime};
use fastgl_graph::DatasetBundle;
use serde::{Deserialize, Serialize};

/// The measured outcome of one simulated training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EpochStats {
    /// Per-phase simulated time (per GPU, i.e. the epoch's critical path).
    pub breakdown: PhaseBreakdown,
    /// Mini-batches trained.
    pub iterations: u64,
    /// Feature bytes moved host→device.
    pub bytes_h2d: u64,
    /// Feature rows loaded over PCIe.
    pub rows_loaded: u64,
    /// Feature rows reused from the previous resident mini-batch (Match).
    pub rows_reused: u64,
    /// Feature rows served by the static device cache.
    pub rows_cached: u64,
    /// Neighbour draws performed.
    pub edges_sampled: u64,
    /// Time inside the ID-map process (included in `breakdown.sample`).
    pub id_map_time: SimTime,
    /// Mean L1 hit rate of the naive aggregation traces (0 when the
    /// Memory-Aware kernel runs — it bypasses the caches by construction).
    pub l1_hit_rate: f64,
    /// Mean L2 hit rate of the naive aggregation traces.
    pub l2_hit_rate: f64,
    /// Peak modelled device-memory use, bytes.
    pub peak_memory_bytes: u64,
    /// Mean achieved GFLOP/s of the aggregation kernels.
    pub aggregation_gflops: f64,
}

impl EpochStats {
    /// Total epoch time.
    pub fn total(&self) -> SimTime {
        self.breakdown.total()
    }

    /// Averages per-epoch statistics the way the paper reports multi-epoch
    /// numbers (peak memory takes the max, everything else the mean).
    ///
    /// Accumulation is sequential in slice order, so averaging a prefix
    /// restored from a checkpoint plus freshly re-run epochs reproduces an
    /// uninterrupted run's rounding bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `stats` is empty.
    pub fn average(stats: &[EpochStats]) -> EpochStats {
        assert!(!stats.is_empty(), "need at least one epoch");
        let epochs = stats.len() as u64;
        let mut acc = EpochStats::default();
        let mut l1 = 0.0;
        let mut l2 = 0.0;
        let mut gf = 0.0;
        let mut peak = 0u64;
        for s in stats {
            acc.breakdown += s.breakdown;
            acc.iterations += s.iterations;
            acc.bytes_h2d += s.bytes_h2d;
            acc.rows_loaded += s.rows_loaded;
            acc.rows_reused += s.rows_reused;
            acc.rows_cached += s.rows_cached;
            acc.edges_sampled += s.edges_sampled;
            acc.id_map_time += s.id_map_time;
            l1 += s.l1_hit_rate;
            l2 += s.l2_hit_rate;
            gf += s.aggregation_gflops;
            peak = peak.max(s.peak_memory_bytes);
        }
        let inv = 1.0 / epochs as f64;
        EpochStats {
            breakdown: acc.breakdown.scaled(inv),
            iterations: acc.iterations / epochs,
            bytes_h2d: (acc.bytes_h2d as f64 * inv) as u64,
            rows_loaded: (acc.rows_loaded as f64 * inv) as u64,
            rows_reused: (acc.rows_reused as f64 * inv) as u64,
            rows_cached: (acc.rows_cached as f64 * inv) as u64,
            edges_sampled: (acc.edges_sampled as f64 * inv) as u64,
            id_map_time: acc.id_map_time * inv,
            l1_hit_rate: l1 * inv,
            l2_hit_rate: l2 * inv,
            peak_memory_bytes: peak,
            aggregation_gflops: gf * inv,
        }
    }
}

/// A sampling-based GNN training system.
pub trait TrainingSystem {
    /// Display name used in benchmark tables.
    fn name(&self) -> &'static str;

    /// Simulates one training epoch over `data` and returns its statistics.
    fn run_epoch(&mut self, data: &DatasetBundle, epoch: u64) -> EpochStats;

    /// Runs `epochs` epochs and returns the average statistics, the way
    /// the paper reports 20-epoch averages.
    fn run_epochs(&mut self, data: &DatasetBundle, epochs: u64) -> EpochStats {
        assert!(epochs > 0, "need at least one epoch");
        let stats: Vec<EpochStats> = (0..epochs).map(|e| self.run_epoch(data, e)).collect();
        EpochStats::average(&stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgl_graph::Dataset;

    struct Fake {
        per_epoch: SimTime,
    }

    impl TrainingSystem for Fake {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn run_epoch(&mut self, _data: &DatasetBundle, epoch: u64) -> EpochStats {
            EpochStats {
                breakdown: PhaseBreakdown {
                    sample: self.per_epoch,
                    io: self.per_epoch * 2,
                    compute: self.per_epoch,
                },
                iterations: 10,
                bytes_h2d: 100,
                rows_loaded: 50,
                rows_reused: 25,
                rows_cached: 25,
                peak_memory_bytes: 1000 + epoch,
                ..Default::default()
            }
        }
    }

    #[test]
    fn run_epochs_averages() {
        let bundle = Dataset::Reddit.generate_scaled(1.0 / 4096.0, 1);
        let mut sys = Fake {
            per_epoch: SimTime::from_millis(10),
        };
        let avg = sys.run_epochs(&bundle, 4);
        assert_eq!(avg.iterations, 10);
        assert_eq!(avg.breakdown.sample, SimTime::from_millis(10));
        assert_eq!(avg.bytes_h2d, 100);
        assert_eq!(avg.peak_memory_bytes, 1003, "peak takes the max");
    }
}
