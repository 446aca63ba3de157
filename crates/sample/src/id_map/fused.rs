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
//! Two executions are provided:
//!
//! * [`FusedIdMap::map`] — a deterministic sequential replay producing the
//!   exact probe counts the simulator charges (insertion order is the input
//!   order, so local IDs follow first occurrence; conflicts cannot occur).
//!   It walks the stream once: the transform kernel's lookups retrace the
//!   insert walks, so the replay charges each walk twice.
//! * [`FusedIdMap::map_parallel`] — the real lock-free algorithm over
//!   `AtomicU64` slots executed by true OS threads, demonstrating that the
//!   fused construction is correct under genuine concurrency. Local-ID
//!   *numbering* then depends on thread interleaving (as on a GPU), but the
//!   mapping is always a valid bijection and the unique ID *set* is
//!   identical to the sequential one.

use super::{
    fib_hash, linear_probe_pass, table_capacity_with_factor, IdMap, IdMapOutput, IdMapStats,
};
use std::sync::atomic::{AtomicU64, Ordering};

const EMPTY: u64 = u64::MAX;

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
    /// Worker threads for [`FusedIdMap::map_parallel`].
    pub threads: usize,
    /// Hash-table headroom: capacity = next power of two ≥
    /// `capacity_factor × n`. DGL-style tables use 2.0 (load ≤ 0.5);
    /// lower values trade memory for probe chains.
    pub capacity_factor: f64,
}

impl FusedIdMap {
    /// A Fused-Map executing with four worker threads in parallel mode and
    /// the standard 2x table headroom.
    pub fn new() -> Self {
        Self {
            threads: 4,
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
            threads: 4,
            capacity_factor: factor,
        }
    }

    /// The real lock-free execution over atomics with `self.threads` OS
    /// threads. Returns a valid mapping whose local numbering depends on
    /// scheduling; `stats.cas_conflicts` reports observed contention.
    pub fn map_parallel(&self, ids: &[u64]) -> IdMapOutput {
        let capacity = table_capacity_with_factor(ids.len(), self.capacity_factor);
        let bits = capacity.trailing_zeros();
        let mask = capacity - 1;
        let keys: Vec<AtomicU64> = (0..capacity).map(|_| AtomicU64::new(EMPTY)).collect();
        // value = local_id + 1; 0 means "not yet assigned".
        let values: Vec<AtomicU64> = (0..capacity).map(|_| AtomicU64::new(0)).collect();
        let local_counter = AtomicU64::new(0);
        let probes = AtomicU64::new(0);
        let conflicts = AtomicU64::new(0);

        let threads = self.threads.max(1).min(ids.len().max(1));
        let chunk = ids.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let keys = &keys;
                let values = &values;
                let local_counter = &local_counter;
                let probes = &probes;
                let conflicts = &conflicts;
                let slice =
                    &ids[(worker * chunk).min(ids.len())..((worker + 1) * chunk).min(ids.len())];
                scope.spawn(move || {
                    let mut my_probes = 0u64;
                    let mut my_conflicts = 0u64;
                    for &id in slice {
                        debug_assert_ne!(id, EMPTY, "EMPTY sentinel is reserved");
                        let mut slot = fib_hash(id, bits);
                        loop {
                            // Algorithm 2's atomicCAS(HashIndex, -1, GlobalID).
                            match keys[slot].compare_exchange(
                                EMPTY,
                                id,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => {
                                    // Flag == False: this thread claimed the
                                    // slot; fuse the local-ID assignment.
                                    let local = local_counter.fetch_add(1, Ordering::Relaxed);
                                    values[slot].store(local + 1, Ordering::Release);
                                    break;
                                }
                                Err(existing) if existing == id => {
                                    // Flag == True: someone else owns this
                                    // global ID; nothing to do.
                                    break;
                                }
                                Err(_) => {
                                    // Occupied by a different ID: linear
                                    // probing (a lost CAS race is contention).
                                    my_conflicts += 1;
                                    slot = (slot + 1) & mask;
                                    my_probes += 1;
                                }
                            }
                        }
                    }
                    probes.fetch_add(my_probes, Ordering::Relaxed);
                    conflicts.fetch_add(my_conflicts, Ordering::Relaxed);
                });
            }
        });

        let unique_count = local_counter.load(Ordering::Acquire) as usize;
        let mut unique = vec![0u64; unique_count];
        for (k, v) in keys.iter().zip(&values) {
            let key = k.load(Ordering::Acquire);
            if key != EMPTY {
                let val = v.load(Ordering::Acquire);
                debug_assert!(val > 0, "claimed slot must have an assigned value");
                unique[(val - 1) as usize] = key;
            }
        }

        // Transform kernel: rewrite the stream through the finished table.
        let mut stats = IdMapStats {
            total_ids: ids.len() as u64,
            unique_ids: unique_count as u64,
            probes: probes.load(Ordering::Relaxed),
            cas_conflicts: conflicts.load(Ordering::Relaxed),
            kernel_launches: 2,
            device_syncs: 1,
            sync_serializations: 0,
            lookups: 0,
        };
        let locals = transform(ids, &keys, &values, bits, mask, &mut stats);
        IdMapOutput {
            unique,
            locals,
            stats,
        }
    }
}

impl Default for FusedIdMap {
    fn default() -> Self {
        Self::new()
    }
}

fn transform(
    ids: &[u64],
    keys: &[AtomicU64],
    values: &[AtomicU64],
    bits: u32,
    mask: usize,
    stats: &mut IdMapStats,
) -> Vec<u64> {
    let mut locals = Vec::with_capacity(ids.len());
    for &id in ids {
        let mut slot = fib_hash(id, bits);
        while keys[slot].load(Ordering::Relaxed) != id {
            slot = (slot + 1) & mask;
            stats.probes += 1;
        }
        locals.push(values[slot].load(Ordering::Relaxed) - 1);
        stats.lookups += 1;
    }
    locals
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
    use std::collections::HashSet;

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
    fn parallel_produces_valid_bijection() {
        let ids: Vec<u64> = (0..50_000).map(|i| (i * 2654435761) % 9973).collect();
        let out = FusedIdMap {
            threads: 8,
            ..FusedIdMap::new()
        }
        .map_parallel(&ids);
        out.verify(&ids).unwrap();
        assert_eq!(out.stats.unique_ids, 9973);
    }

    #[test]
    fn parallel_and_sequential_agree_on_unique_set() {
        let ids: Vec<u64> = (0..10_000).map(|i| (i * 31) % 1234).collect();
        let seq = FusedIdMap::new().map(&ids);
        let par = FusedIdMap {
            threads: 6,
            ..FusedIdMap::new()
        }
        .map_parallel(&ids);
        let a: HashSet<u64> = seq.unique.iter().copied().collect();
        let b: HashSet<u64> = par.unique.iter().copied().collect();
        assert_eq!(a, b);
        assert_eq!(seq.stats.unique_ids, par.stats.unique_ids);
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
        let out = FusedIdMap {
            threads: 3,
            ..FusedIdMap::new()
        }
        .map_parallel(&[42]);
        out.verify(&[42]).unwrap();
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

    #[test]
    fn parallel_single_thread_matches_sequential_numbering() {
        let ids: Vec<u64> = (0..1000).map(|i| (i * 13) % 321).collect();
        let seq = FusedIdMap::new().map(&ids);
        let par = FusedIdMap {
            threads: 1,
            ..FusedIdMap::new()
        }
        .map_parallel(&ids);
        assert_eq!(seq.unique, par.unique);
        assert_eq!(seq.locals, par.locals);
    }
}
