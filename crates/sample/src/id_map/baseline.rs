//! The baseline (DGL-style) three-kernel ID map.
//!
//! DGL renumbers global IDs on the GPU in three steps (paper Fig. 4):
//!
//! 1. build a hash table over the global IDs,
//! 2. assign a local ID to each *new* global ID — which requires
//!    synchronizing threads so the same global ID is never counted twice
//!    (the serialization the paper identifies as the sample-phase
//!    bottleneck), and
//! 3. transform the ID stream through the table.
//!
//! Steps are separate kernels, so two device-wide synchronizations separate
//! them, and every unique ID pays a serialized atomic in step 2. The event
//! counts recorded here feed the simulator's sample-phase cost model.
//!
//! The replay walks the stream once, not once per kernel: steps 2 and 3
//! look each ID up along the same probe chain that inserted it, so it
//! charges each walk three times.

use super::{linear_probe_pass, table_capacity, IdMap, IdMapOutput, IdMapStats};

/// The DGL-style ID map. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineIdMap;

impl BaselineIdMap {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self
    }
}

impl IdMap for BaselineIdMap {
    fn map(&self, ids: &[u64]) -> IdMapOutput {
        let pass = linear_probe_pass(ids, table_capacity(ids.len()));
        let unique_ids = pass.unique.len() as u64;
        IdMapOutput {
            stats: IdMapStats {
                total_ids: ids.len() as u64,
                unique_ids,
                probes: 3 * pass.walk,
                kernel_launches: 3,
                device_syncs: 2,
                sync_serializations: unique_ids,
                lookups: ids.len() as u64,
                ..Default::default()
            },
            unique: pass.unique,
            locals: pass.locals,
        }
    }

    fn name(&self) -> &'static str {
        "DGL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_simple_stream() {
        let out = BaselineIdMap::new().map(&[3, 7, 3, 9, 7, 3]);
        assert_eq!(out.unique, vec![3, 7, 9]);
        assert_eq!(out.locals, vec![0, 1, 0, 2, 1, 0]);
        out.verify(&[3, 7, 3, 9, 7, 3]).unwrap();
    }

    #[test]
    fn stats_reflect_structure() {
        let ids = [10u64, 20, 10, 30];
        let out = BaselineIdMap::new().map(&ids);
        let s = out.stats;
        assert_eq!(s.total_ids, 4);
        assert_eq!(s.unique_ids, 3);
        assert_eq!(s.sync_serializations, 3, "one serialization per unique");
        assert_eq!(s.lookups, 4);
        assert_eq!(s.kernel_launches, 3);
        assert_eq!(s.device_syncs, 2);
        assert_eq!(s.cas_conflicts, 0);
    }

    #[test]
    fn empty_input() {
        let out = BaselineIdMap::new().map(&[]);
        assert!(out.unique.is_empty());
        assert!(out.locals.is_empty());
        assert_eq!(out.stats.unique_ids, 0);
    }

    #[test]
    fn all_duplicates() {
        let out = BaselineIdMap::new().map(&[5; 100]);
        assert_eq!(out.unique, vec![5]);
        assert!(out.locals.iter().all(|&l| l == 0));
        assert_eq!(out.stats.sync_serializations, 1);
    }

    #[test]
    fn handles_colliding_hashes() {
        // Many IDs, deterministic verification of the probing path.
        let ids: Vec<u64> = (0..10_000).map(|i| (i * 7919) % 4096).collect();
        let out = BaselineIdMap::new().map(&ids);
        out.verify(&ids).unwrap();
        assert_eq!(out.stats.unique_ids, 4096);
    }

    #[test]
    fn first_occurrence_order_is_preserved() {
        let out = BaselineIdMap::new().map(&[100, 1, 50, 1, 100, 2]);
        assert_eq!(out.unique, vec![100, 1, 50, 2]);
    }
}
