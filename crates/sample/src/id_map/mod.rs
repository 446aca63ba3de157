//! The ID-map process: converting global node IDs to consecutive local IDs.
//!
//! Every sampled mini-batch must renumber its global node IDs to a dense
//! `0..n` range before features can be gathered into a compact device
//! buffer (paper §2.2, Fig. 4). The paper identifies this step as up to
//! 70 % of the sample phase and contributes the **Fused-Map** algorithm
//! (its Algorithm 2) to remove the thread synchronizations that the
//! baseline (DGL-style) three-kernel approach requires.
//!
//! Two implementations live here:
//!
//! * [`BaselineIdMap`](baseline::BaselineIdMap) — build table, synchronize,
//!   assign local IDs, synchronize, transform (three kernels).
//! * [`FusedIdMap`](fused::FusedIdMap) — Algorithm 2: CAS-insert and local
//!   ID assignment fused in one kernel, then a transform kernel. A truly
//!   parallel variant with real atomics validates lock-freedom; a
//!   sequential replay provides deterministic event counts for the
//!   simulator.
//!
//! Both sequential replays ([`IdMap::map`]) share one linear-probing pass
//! over the stream. The table never deletes, so every lookup kernel's walk
//! for an ID retraces the walk that inserted it; one walk therefore fixes
//! the probe count of every kernel. Fused-Map charges `2 · walk` probes
//! (insert + transform); the baseline charges `3 · walk` (insert, assign,
//! transform) plus one serialized synchronization per unique ID. Both
//! count one transform lookup per input ID.

pub mod baseline;
pub mod fused;

/// Event counts of one ID-map execution, consumed by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdMapStats {
    /// IDs processed (with duplicates).
    pub total_ids: u64,
    /// Distinct IDs discovered.
    pub unique_ids: u64,
    /// Linear-probe steps beyond the first slot.
    pub probes: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Device-wide synchronizations between kernels.
    pub device_syncs: u64,
    /// Per-unique-ID serialized synchronization events (the baseline's
    /// local-ID assignment; zero for Fused-Map).
    pub sync_serializations: u64,
    /// Hash lookups performed by the final transform kernel.
    pub lookups: u64,
}

impl IdMapStats {
    /// Accumulates another execution's counters into this one.
    pub fn merge(&mut self, other: &IdMapStats) {
        self.total_ids += other.total_ids;
        self.unique_ids += other.unique_ids;
        self.probes += other.probes;
        self.kernel_launches += other.kernel_launches;
        self.device_syncs += other.device_syncs;
        self.sync_serializations += other.sync_serializations;
        self.lookups += other.lookups;
    }
}

/// The output of an ID map over an ID stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdMapOutput {
    /// Distinct global IDs indexed by their assigned local ID.
    pub unique: Vec<u64>,
    /// The input stream rewritten as local IDs (same length and order).
    pub locals: Vec<u64>,
    /// Event counts for the cost model.
    pub stats: IdMapStats,
}

impl IdMapOutput {
    /// Checks that the mapping is a bijection consistent with the input:
    /// every input ID maps to the local whose `unique` entry is that ID.
    pub fn verify(&self, input: &[u64]) -> Result<(), String> {
        if self.locals.len() != input.len() {
            return Err("locals length differs from input".into());
        }
        let n = self.unique.len() as u64;
        for (&id, &local) in input.iter().zip(&self.locals) {
            if local >= n {
                return Err(format!("local {local} out of range {n}"));
            }
            if self.unique[local as usize] != id {
                return Err(format!(
                    "local {local} maps to {} but input was {id}",
                    self.unique[local as usize]
                ));
            }
        }
        let mut sorted = self.unique.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err("unique list contains duplicates".into());
        }
        Ok(())
    }
}

/// A strategy converting a global-ID stream into local IDs.
pub trait IdMap {
    /// Renumbers `ids` (duplicates allowed) into dense local IDs.
    fn map(&self, ids: &[u64]) -> IdMapOutput;

    /// Short display name for tables.
    fn name(&self) -> &'static str;
}

/// Hash-table capacity for `n` IDs: the next power of two at or above
/// `2 n`, keeping the load factor at or below 0.5 like DGL's GPU table.
pub(crate) fn table_capacity(n: usize) -> usize {
    table_capacity_with_factor(n, 2.0)
}

/// Hash-table capacity for `n` IDs with an explicit headroom `factor`
/// (capacity = next power of two ≥ `factor · n`). Lower factors trade
/// memory for longer linear-probe chains — the trade the load-factor
/// ablation sweeps.
pub(crate) fn table_capacity_with_factor(n: usize, factor: f64) -> usize {
    (((n.max(1) as f64) * factor).ceil() as usize)
        .max(2)
        .next_power_of_two()
}

/// Fibonacci multiplicative hash into a table of `1 << bits` slots.
#[inline]
pub(crate) fn fib_hash(id: u64, bits: u32) -> usize {
    (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// The result of [`linear_probe_pass`].
pub(crate) struct ProbePass {
    /// Distinct IDs in first-occurrence order.
    pub unique: Vec<u64>,
    /// The stream rewritten as local IDs.
    pub locals: Vec<u64>,
    /// Probe steps beyond the home slot, summed over every occurrence's
    /// walk.
    pub walk: u64,
}

/// Inserts `ids` in order into a linear-probing table of `capacity` slots
/// (a power of two) and records each occurrence's local ID where its walk
/// stops; a new ID takes the next local ID, so numbering follows first
/// occurrence.
///
/// Nothing is ever deleted, so every later walk for an ID — any lookup
/// kernel's — stops at the slot its first insertion claimed, after the
/// same steps this walk took. A kernel-per-pass replay therefore costs
/// exactly `walk` probes per pass, and the maps charge multiples of it.
pub(crate) fn linear_probe_pass(ids: &[u64], capacity: usize) -> ProbePass {
    let bits = capacity.trailing_zeros();
    let mask = capacity - 1;
    // Each slot holds `local + 1` (0 marks an empty slot, so the table is
    // zero-initialised memory); its key is `unique[local]`.
    let mut table = vec![0u32; capacity];
    let mut unique = Vec::new();
    let mut locals = Vec::with_capacity(ids.len());
    let mut walk = 0u64;
    for &id in ids {
        let mut slot = fib_hash(id, bits);
        let local = loop {
            let tag = table[slot];
            if tag == 0 {
                let local = unique.len();
                table[slot] = u32::try_from(local + 1).expect("fewer than 2^32 unique IDs");
                unique.push(id);
                break local;
            }
            let local = tag as usize - 1;
            if unique[local] == id {
                break local;
            }
            slot = (slot + 1) & mask;
            walk += 1;
        };
        locals.push(local as u64);
    }
    ProbePass {
        unique,
        locals,
        walk,
    }
}

#[cfg(test)]
mod tests {
    use super::baseline::BaselineIdMap;
    use super::fused::FusedIdMap;
    use super::*;
    use fastgl_graph::DeterministicRng;

    const EMPTY: u64 = u64::MAX;
    const UNASSIGNED: u64 = u64::MAX;

    /// Reference replay that runs every kernel as its own pass over the
    /// stream: an insert kernel, then one full lookup walk per later kernel.
    /// Fused (2 kernels) assigns local IDs while inserting; Baseline
    /// (3 kernels) assigns them in its second kernel, paying one serialized
    /// synchronization per new ID.
    fn multi_pass_reference(ids: &[u64], capacity: usize, baseline: bool) -> IdMapOutput {
        let bits = capacity.trailing_zeros();
        let mask = capacity - 1;
        let mut keys = vec![EMPTY; capacity];
        let mut values = vec![UNASSIGNED; capacity];
        let mut unique = Vec::new();
        let mut stats = IdMapStats {
            total_ids: ids.len() as u64,
            kernel_launches: if baseline { 3 } else { 2 },
            device_syncs: if baseline { 2 } else { 1 },
            ..Default::default()
        };

        // Kernel 1: insert every ID (duplicates collapse).
        for &id in ids {
            let mut slot = fib_hash(id, bits);
            while keys[slot] != EMPTY && keys[slot] != id {
                slot = (slot + 1) & mask;
                stats.probes += 1;
            }
            if keys[slot] == EMPTY {
                keys[slot] = id;
                if !baseline {
                    values[slot] = unique.len() as u64;
                    unique.push(id);
                }
            }
        }

        let lookup = |id: u64, stats: &mut IdMapStats| {
            let mut slot = fib_hash(id, bits);
            while keys[slot] != id {
                slot = (slot + 1) & mask;
                stats.probes += 1;
            }
            slot
        };

        // Baseline kernel 2: assign local IDs in first-occurrence order.
        if baseline {
            for &id in ids {
                let slot = lookup(id, &mut stats);
                if values[slot] == UNASSIGNED {
                    values[slot] = unique.len() as u64;
                    unique.push(id);
                    stats.sync_serializations += 1;
                }
            }
        }
        stats.unique_ids = unique.len() as u64;

        // Last kernel: transform the stream through the table.
        let locals = ids
            .iter()
            .map(|&id| {
                let slot = lookup(id, &mut stats);
                stats.lookups += 1;
                values[slot]
            })
            .collect();
        IdMapOutput {
            unique,
            locals,
            stats,
        }
    }

    /// A duplicate-heavy stream: 1–5000 IDs drawn from an alphabet of at
    /// most half the stream length, scattered over the whole key space.
    fn duplicate_heavy_stream(rng: &mut DeterministicRng) -> Vec<u64> {
        let len = 1 + rng.below(5_000) as usize;
        let alphabet = 1 + rng.below(len as u64 / 2 + 1);
        let scatter = rng.next() | 1;
        (0..len)
            .map(|_| {
                let id = rng.below(alphabet).wrapping_mul(scatter);
                if id == EMPTY {
                    0
                } else {
                    id
                }
            })
            .collect()
    }

    #[test]
    fn maps_match_the_multi_pass_reference() {
        let mut rng = DeterministicRng::seed(0x1D_3A9);
        for case in 0..200 {
            let ids = duplicate_heavy_stream(&mut rng);
            for factor in [1.05, 1.5, 2.0, 4.0] {
                let capacity = table_capacity_with_factor(ids.len(), factor);
                assert_eq!(
                    FusedIdMap::with_capacity_factor(factor).map(&ids),
                    multi_pass_reference(&ids, capacity, false),
                    "Fused-Map, case {case}, factor {factor}"
                );
            }
            assert_eq!(
                BaselineIdMap::new().map(&ids),
                multi_pass_reference(&ids, table_capacity(ids.len()), true),
                "baseline map, case {case}"
            );
        }
    }

    #[test]
    fn capacity_is_power_of_two_and_roomy() {
        for n in [1usize, 2, 3, 100, 1000, 4096] {
            let c = table_capacity(n);
            assert!(c.is_power_of_two());
            assert!(c >= 2 * n);
            assert!(c < 8 * n.max(1));
        }
    }

    #[test]
    fn fib_hash_in_range() {
        for id in [0u64, 1, 42, u64::MAX, 0xdeadbeef] {
            let h = fib_hash(id, 10);
            assert!(h < 1024);
        }
    }

    #[test]
    fn verify_accepts_identity_mapping() {
        let out = IdMapOutput {
            unique: vec![7, 9],
            locals: vec![0, 1, 0],
            stats: IdMapStats::default(),
        };
        assert!(out.verify(&[7, 9, 7]).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_mapping() {
        let out = IdMapOutput {
            unique: vec![7, 9],
            locals: vec![1, 1, 0],
            stats: IdMapStats::default(),
        };
        assert!(out.verify(&[7, 9, 7]).is_err());
    }

    #[test]
    fn verify_rejects_duplicate_unique() {
        let out = IdMapOutput {
            unique: vec![7, 7],
            locals: vec![0, 1],
            stats: IdMapStats::default(),
        };
        assert!(out.verify(&[7, 7]).is_err());
    }
}
