//! Stable per-window stage timings of one pipelined epoch.
//!
//! The pipeline used to expose its per-window accounting only as merged
//! telemetry histograms, which cannot be attributed back to individual
//! windows. [`EpochWindowTrace`] is the typed, deterministic record the
//! critical-path analysis of the `INSIGHT_attribution` experiment
//! consumes instead: one [`WindowPhases`] entry per window, all in
//! simulated time, so the same run produces the identical trace at any
//! `FASTGL_THREADS` / `FASTGL_PREFETCH` setting.
//!
//! The invariant that makes the trace trustworthy: summing the visible
//! phases over all windows reproduces the epoch's
//! [`PhaseBreakdown`] **exactly** (integer
//! nanoseconds, no tolerance). `visible_sample` carries the overlap
//! model's per-window split (see
//! [`GpuRoles::visible_sample_per_window`](crate::multi_gpu::GpuRoles::visible_sample_per_window));
//! `io` and `compute` are always fully visible.

use fastgl_gpusim::{PhaseBreakdown, SimTime};

/// Simulated phase times of one mini-batch window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowPhases {
    /// Sampling time of the window's batches (before overlap hiding).
    pub sample: SimTime,
    /// Sampling time left on the critical path after overlap hiding
    /// (equals `sample` when the run does not overlap sampling).
    pub visible_sample: SimTime,
    /// Feature-IO time (host gather + PCIe, including fault recovery).
    pub io: SimTime,
    /// Compute time (aggregation + update + all-reduce).
    pub compute: SimTime,
}

impl WindowPhases {
    /// Total visible time the window contributes to the epoch.
    pub fn visible_total(&self) -> SimTime {
        self.visible_sample + self.io + self.compute
    }
}

/// Per-window stage timings of one epoch, in window execution order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EpochWindowTrace {
    /// One entry per mini-batch window.
    pub windows: Vec<WindowPhases>,
    /// Whether the run hid sampling behind training (dedicated sampler
    /// GPUs); when false, `visible_sample == sample` for every window.
    pub overlap_sample: bool,
}

impl EpochWindowTrace {
    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the epoch ran zero windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The visible phase totals across all windows. Equals the epoch's
    /// reported `EpochStats::breakdown` exactly — pinned by
    /// `tests/determinism.rs`.
    pub fn visible_breakdown(&self) -> PhaseBreakdown {
        let mut b = PhaseBreakdown::default();
        for w in &self.windows {
            b.sample += w.visible_sample;
            b.io += w.io;
            b.compute += w.compute;
        }
        b
    }

    /// Total visible simulated time across all windows.
    pub fn visible_total(&self) -> SimTime {
        self.windows.iter().map(WindowPhases::visible_total).sum()
    }

    /// Sampling time the overlap model hid behind training (zero when the
    /// run does not overlap sampling; the producer-side scaling of
    /// dedicated samplers can make the hidden share negative in theory,
    /// so this saturates at zero per window).
    pub fn hidden_sample(&self) -> SimTime {
        self.windows
            .iter()
            .map(|w| w.sample.saturating_sub(w.visible_sample))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn trace() -> EpochWindowTrace {
        EpochWindowTrace {
            windows: vec![
                WindowPhases {
                    sample: t(100),
                    visible_sample: t(100),
                    io: t(30),
                    compute: t(200),
                },
                WindowPhases {
                    sample: t(90),
                    visible_sample: t(0),
                    io: t(40),
                    compute: t(210),
                },
            ],
            overlap_sample: true,
        }
    }

    #[test]
    fn breakdown_sums_all_windows() {
        let b = trace().visible_breakdown();
        assert_eq!(b.sample, t(100));
        assert_eq!(b.io, t(70));
        assert_eq!(b.compute, t(410));
        assert_eq!(trace().visible_total(), t(580));
        assert_eq!(trace().visible_total(), b.total());
    }

    #[test]
    fn hidden_sample_is_the_overlap_benefit() {
        assert_eq!(trace().hidden_sample(), t(90));
    }

    #[test]
    fn empty_trace() {
        let e = EpochWindowTrace::default();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.visible_total(), SimTime::ZERO);
        assert_eq!(e.visible_breakdown(), PhaseBreakdown::default());
    }
}
