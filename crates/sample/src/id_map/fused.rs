//! Fused-Map — the paper's Algorithm 2.
//!
//! The fused ID map builds the hash table *and* assigns local IDs in one
//! kernel: the thread whose `atomicCAS` first claims a slot for a global
//! ID immediately reserves that ID's local ID with an `atomicAdd` on a
//! shared counter; every other thread observing the same global ID does
//! nothing. No device-wide synchronization separates table construction
//! from local-ID assignment, which removes the serialization that
//! dominates the baseline.
//!
//! [`FusedIdMap::map`] is a deterministic sequential replay producing the
//! exact probe counts the simulator charges (insertion order is the input
//! order, so local IDs follow first occurrence; conflicts cannot occur).
//! It walks the stream once: the transform kernel's lookups retrace the
//! insert walks, so the replay charges each walk twice.

use super::{linear_probe_pass, table_capacity_with_factor, IdMap, IdMapOutput, IdMapStats};

/// The Fused-Map strategy (paper Algorithm 2). See the module docs.
///
/// # Example
///
/// ```
/// use fastgl_sample::{FusedIdMap, IdMap};
///
/// let out = FusedIdMap::new().map(&[30, 10, 30, 20]);
/// assert_eq!(out.unique, vec![30, 10, 20]); // first-occurrence order
/// assert_eq!(out.locals, vec![0, 1, 0, 2]);
/// assert_eq!(out.stats.sync_serializations, 0); // the point of fusing
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FusedIdMap {
    /// Hash-table headroom: capacity = next power of two ≥
    /// `capacity_factor × n`. DGL-style tables use 2.0 (load ≤ 0.5);
    /// lower values trade memory for probe chains.
    pub capacity_factor: f64,
}

impl FusedIdMap {
    /// A Fused-Map with the standard 2x table headroom.
    pub fn new() -> Self {
        Self {
            capacity_factor: 2.0,
        }
    }

    /// Same strategy with explicit table headroom (the load-factor
    /// ablation).
    ///
    /// # Panics
    ///
    /// Panics unless `factor > 1.0` (the table must fit all unique IDs
    /// with slack for termination of linear probing).
    pub fn with_capacity_factor(factor: f64) -> Self {
        assert!(factor > 1.0, "capacity factor must exceed 1.0");
        Self {
            capacity_factor: factor,
        }
    }
}

impl Default for FusedIdMap {
    fn default() -> Self {
        Self::new()
    }
}

impl IdMap for FusedIdMap {
    /// Deterministic sequential replay of Algorithm 2: identical table,
    /// probe counts, and first-occurrence local numbering on every run.
    fn map(&self, ids: &[u64]) -> IdMapOutput {
        let capacity = table_capacity_with_factor(ids.len(), self.capacity_factor);
        let pass = linear_probe_pass(ids, capacity);
        IdMapOutput {
            stats: IdMapStats {
                total_ids: ids.len() as u64,
                unique_ids: pass.unique.len() as u64,
                probes: 2 * pass.walk,
                kernel_launches: 2,
                device_syncs: 1,
                lookups: ids.len() as u64,
                ..Default::default()
            },
            unique: pass.unique,
            locals: pass.locals,
        }
    }

    fn name(&self) -> &'static str {
        "Fused-Map"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_maps_simple_stream() {
        let ids = [3u64, 7, 3, 9, 7, 3];
        let out = FusedIdMap::new().map(&ids);
        assert_eq!(out.unique, vec![3, 7, 9]);
        assert_eq!(out.locals, vec![0, 1, 0, 2, 1, 0]);
        out.verify(&ids).unwrap();
    }

    #[test]
    fn sequential_has_no_serializations() {
        let out = FusedIdMap::new().map(&[1, 2, 3, 1, 2, 3]);
        assert_eq!(out.stats.sync_serializations, 0);
        assert_eq!(out.stats.device_syncs, 1);
        assert_eq!(out.stats.kernel_launches, 2);
    }

    #[test]
    fn sequential_is_deterministic() {
        let ids: Vec<u64> = (0..5_000).map(|i| (i * 17) % 700).collect();
        let a = FusedIdMap::new().map(&ids);
        let b = FusedIdMap::new().map(&ids);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let out = FusedIdMap::new().map(&[]);
        assert!(out.unique.is_empty());
        let out = FusedIdMap::new().map(&[42]);
        assert_eq!(out.unique, vec![42]);
        assert_eq!(out.locals, vec![0]);
    }

    #[test]
    fn fused_probes_fewer_sync_events_than_baseline() {
        use crate::id_map::baseline::BaselineIdMap;
        let ids: Vec<u64> = (0..20_000).map(|i| (i * 97) % 5000).collect();
        let fused = FusedIdMap::new().map(&ids);
        let base = BaselineIdMap::new().map(&ids);
        // Identical semantic output...
        assert_eq!(fused.unique, base.unique);
        assert_eq!(fused.locals, base.locals);
        // ...but no serialized synchronizations and fewer barriers.
        assert_eq!(fused.stats.sync_serializations, 0);
        assert!(base.stats.sync_serializations > 0);
        assert!(fused.stats.device_syncs < base.stats.device_syncs);
    }

    #[test]
    fn tighter_tables_probe_more() {
        // Distinct keys sized just under a power of two, so the capacity
        // factor translates directly into table load (capacities round up
        // to powers of two; 60k ids: 1.05x -> 65536 slots at 92% load,
        // 4x -> 262144 slots at 23% load).
        let ids: Vec<u64> = (0..60_000u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let roomy = FusedIdMap::with_capacity_factor(4.0).map(&ids);
        let tight = FusedIdMap::with_capacity_factor(1.05).map(&ids);
        assert_eq!(roomy.unique, tight.unique, "semantics are load-independent");
        assert!(
            tight.stats.probes > 2 * roomy.stats.probes.max(1),
            "tight {} vs roomy {}",
            tight.stats.probes,
            roomy.stats.probes
        );
    }

    #[test]
    #[should_panic(expected = "must exceed 1.0")]
    fn capacity_factor_at_or_below_one_rejected() {
        let _ = FusedIdMap::with_capacity_factor(1.0);
    }
}
