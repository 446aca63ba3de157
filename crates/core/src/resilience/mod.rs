//! Fault-tolerant training: deterministic fault injection, recovery
//! policies, and checkpoint/resume (DESIGN.md §10).
//!
//! FastGL targets multi-hour epochs on 111M-node graphs; production GNN
//! stacks treat preemption, transfer stalls, and OOM as routine events.
//! This module gives the reproduction the same posture, in three parts:
//!
//! * **Fault injection** — [`FaultPlan`] (parsed from
//!   [`crate::FastGlConfig::faults`] or `FASTGL_FAULTS`) describes
//!   simulated PCIe stalls, retryable transfer errors, device-memory
//!   pressure on the feature cache, and stage-worker panics. The
//!   [`FaultInjector`] fires them at deterministic simulated positions.
//! * **Recovery** — transfer faults are priced by the deterministic
//!   retry/backoff model in `fastgl_gpusim::fault`; cache pressure
//!   degrades gracefully (the cache shrinks, the extra PCIe traffic is
//!   counted); worker panics are recovered by the executor's bounded
//!   stage replay ([`crate::executor::PipelineExecutor::with_stage_retries`]).
//!   Every recovery is visible as a telemetry counter
//!   (`fastgl_telemetry::names`) and in [`ResilienceStats`].
//! * **Checkpointing** — [`Checkpoint`] serialises the numeric trainer's
//!   model weights, optimizer state, loss trajectories, and global-batch
//!   cursor (RNG cursors are implicit: per-batch streams re-derive from
//!   the global batch index), so a killed
//!   [`crate::trainer::train_resumable`] run resumes **bit-identically** —
//!   same final weights, same losses. The simulator needs no checkpoint:
//!   a simulated epoch is a pure function of `(data, epoch)`, so a killed
//!   simulated run resumes by running its missing epochs again.
//!
//! The determinism-under-replay argument: every source of randomness and
//! every fault trigger is a pure function of the simulated position
//! (epoch, global batch index, window index), never of wall clock,
//! thread schedule, or prefetch depth. Replaying a window or resuming
//! from a cursor therefore reproduces the exact draws, faults, and
//! floating-point accumulation order of the uninterrupted run.

mod checkpoint;
mod fault_plan;

pub use checkpoint::{Checkpoint, CheckpointError, TrainerState};
pub use fault_plan::{FaultInjector, FaultKind, FaultPlan, FaultPlanError, FaultSpec};

use fastgl_gpusim::SimTime;

/// Counters of fault-recovery activity during one epoch (all zero on a
/// fault-free run).
///
/// Kept separate from [`crate::EpochStats`] on purpose: fault-free statistics
/// stay byte-identical with or without the resilience layer compiled in,
/// and the degradation a fault causes shows up *inside* `EpochStats`
/// (more PCIe bytes, longer IO time) where it belongs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceStats {
    /// Injected PCIe stalls ridden out.
    pub pcie_stalls: u64,
    /// Failed transfer attempts retried with simulated backoff.
    pub transfer_retries: u64,
    /// Simulated time lost to stalls, backoff, and wasted partial copies.
    pub fault_overhead: SimTime,
    /// Feature-cache rows evicted under injected memory pressure.
    pub evicted_rows: u64,
    /// Injected worker panics recovered by window replay.
    pub worker_panics: u64,
    /// Pipeline stage restarts performed by the executor.
    pub stage_replays: u64,
}

impl ResilienceStats {
    /// Whether any fault fired or any recovery ran.
    pub fn any(&self) -> bool {
        *self != Self::default()
    }

    /// Records the counters into telemetry (no-op when all zero, so
    /// fault-free runs leave no resilience metrics behind).
    ///
    /// `stage_replays` is deliberately absent: the executor emits
    /// [`fastgl_telemetry::names::STAGE_REPLAYS`] live as each replay
    /// happens, so re-emitting the per-epoch total here would double
    /// count it.
    pub fn emit_telemetry(&self) {
        use fastgl_telemetry::names;
        for (name, value) in [
            (names::FAULT_PCIE_STALLS, self.pcie_stalls),
            (names::FAULT_TRANSFER_RETRIES, self.transfer_retries),
            (names::FAULT_OVERHEAD_NS, self.fault_overhead.as_nanos()),
            (names::CACHE_EVICTED_ROWS, self.evicted_rows),
            (names::WORKER_PANICS, self.worker_panics),
        ] {
            if value > 0 {
                fastgl_telemetry::counter_add(name, value);
            }
        }
    }
}

impl std::ops::AddAssign for ResilienceStats {
    /// Accumulates another epoch's recovery counters (overhead times add).
    fn add_assign(&mut self, rhs: Self) {
        self.pcie_stalls += rhs.pcie_stalls;
        self.transfer_retries += rhs.transfer_retries;
        self.fault_overhead += rhs.fault_overhead;
        self.evicted_rows += rhs.evicted_rows;
        self.worker_panics += rhs.worker_panics;
        self.stage_replays += rhs.stage_replays;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_stats_default_is_quiet() {
        let st = ResilienceStats::default();
        assert!(!st.any());
        let st = ResilienceStats {
            pcie_stalls: 1,
            ..Default::default()
        };
        assert!(st.any());
    }
}
