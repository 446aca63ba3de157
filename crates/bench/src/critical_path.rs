//! Critical-path analysis of the pipelined epoch executor.
//!
//! Works on two complementary records of the same epoch:
//!
//! * the **simulated** per-window stage timings
//!   ([`EpochWindowTrace`]) — deterministic, identical at every
//!   `FASTGL_THREADS`/`FASTGL_PREFETCH` setting, so the binding-stage
//!   histogram this module derives is a stable fingerprint of a run;
//! * the **wall-clock** busy/stall split per executor stage
//!   ([`PipelineWallStats`]) — machine- and scheduling-dependent, used to
//!   attribute *why* a host thread waited (starved upstream vs
//!   backpressured downstream vs doing work), never compared exactly.
//!
//! The load-bearing invariant, inherited from
//! [`GpuRoles::visible_sample_per_window`](fastgl_core::multi_gpu::GpuRoles::visible_sample_per_window):
//! the per-window visible times of an analysis sum to the epoch's total
//! simulated time **exactly**, in integer nanoseconds. The attribution
//! never "loses" time to rounding.

use fastgl_core::{EpochWindowTrace, PipelineWallStats, StageWallStats, WindowPhases};
use fastgl_gpusim::{PhaseBreakdown, SimTime};
use std::time::Duration;

/// The pipeline stage a window spends most of its visible time in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingStage {
    /// Neighbour sampling (after overlap hiding).
    Sample,
    /// Feature IO: host gather + PCIe transfer.
    Io,
    /// Aggregation + update + all-reduce.
    Compute,
}

impl BindingStage {
    /// Lower-case stage name, matching the phase names the simulator and
    /// the paper use.
    pub fn name(self) -> &'static str {
        match self {
            BindingStage::Sample => "sample",
            BindingStage::Io => "io",
            BindingStage::Compute => "compute",
        }
    }

    /// All stages in pipeline order.
    pub fn all() -> [BindingStage; 3] {
        [
            BindingStage::Sample,
            BindingStage::Io,
            BindingStage::Compute,
        ]
    }
}

/// One window's attribution.
#[derive(Debug)]
pub struct WindowAttribution {
    /// Window index in execution order.
    pub index: usize,
    /// The window's phase times (visible and raw).
    pub phases: WindowPhases,
    /// The visible phase the window spends the most time in. Ties break
    /// toward the *later* pipeline stage (compute over io over sample),
    /// deterministically: a window that is equally sample- and
    /// compute-bound reads as compute-bound.
    pub binding: BindingStage,
}

/// How many windows each stage binds.
#[derive(Debug, Default)]
pub struct BindingHistogram {
    /// Windows bound by (visible) sampling.
    pub sample: usize,
    /// Windows bound by feature IO.
    pub io: usize,
    /// Windows bound by compute.
    pub compute: usize,
}

impl BindingHistogram {
    /// Windows counted in total.
    pub fn total(&self) -> usize {
        self.sample + self.io + self.compute
    }

    /// The count for `stage`.
    pub fn count(&self, stage: BindingStage) -> usize {
        match stage {
            BindingStage::Sample => self.sample,
            BindingStage::Io => self.io,
            BindingStage::Compute => self.compute,
        }
    }
}

/// The full critical-path analysis of one epoch.
#[derive(Debug)]
pub struct CriticalPath {
    /// Per-window attribution, in execution order.
    pub windows: Vec<WindowAttribution>,
    /// The binding-stage histogram over all windows.
    pub histogram: BindingHistogram,
    /// Visible phase totals; sums the per-window entries exactly.
    pub breakdown: PhaseBreakdown,
    /// Sampling time the overlap model hid behind training.
    pub hidden_sample: SimTime,
}

impl CriticalPath {
    /// Total visible simulated time; equals the epoch's reported total.
    pub fn visible_total(&self) -> SimTime {
        self.breakdown.total()
    }

    /// Visible time summed over the windows `stage` binds.
    pub fn bound_time(&self, stage: BindingStage) -> SimTime {
        self.windows
            .iter()
            .filter(|w| w.binding == stage)
            .map(|w| w.phases.visible_total())
            .sum()
    }
}

/// Analyzes a window trace into binding stages and the histogram.
pub fn analyze(trace: &EpochWindowTrace) -> CriticalPath {
    let mut windows = Vec::with_capacity(trace.len());
    let mut histogram = BindingHistogram::default();
    for (index, &phases) in trace.windows.iter().enumerate() {
        let binding = binding_stage(&phases);
        match binding {
            BindingStage::Sample => histogram.sample += 1,
            BindingStage::Io => histogram.io += 1,
            BindingStage::Compute => histogram.compute += 1,
        }
        windows.push(WindowAttribution {
            index,
            phases,
            binding,
        });
    }
    CriticalPath {
        windows,
        histogram,
        breakdown: trace.visible_breakdown(),
        hidden_sample: trace.hidden_sample(),
    }
}

/// The stage with the largest visible time; ties go to the later stage.
fn binding_stage(w: &WindowPhases) -> BindingStage {
    let candidates = [
        (w.visible_sample, BindingStage::Sample),
        (w.io, BindingStage::Io),
        (w.compute, BindingStage::Compute),
    ];
    // max_by_key keeps the *last* maximum, which is exactly the tie rule.
    candidates
        .into_iter()
        .max_by_key(|&(t, _)| t)
        .expect("three candidates")
        .1
}

/// Why a wall-clock executor stage spent its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallVerdict {
    /// Mostly inside the stage closure: the stage is the bottleneck (or
    /// the run was serial, where stages never wait).
    WorkBound,
    /// Mostly blocked receiving: the upstream stage cannot keep up.
    Starved,
    /// Mostly blocked sending: the downstream stage cannot keep up.
    Backpressured,
}

impl StallVerdict {
    /// Short label for tables.
    pub fn name(self) -> &'static str {
        match self {
            StallVerdict::WorkBound => "work-bound",
            StallVerdict::Starved => "starved",
            StallVerdict::Backpressured => "backpressured",
        }
    }
}

/// One executor stage's wall-time attribution.
#[derive(Debug)]
pub struct StageWallAttribution {
    /// Stage name ("sample", "prepare", "execute").
    pub stage: &'static str,
    /// Time inside the stage closure.
    pub busy: Duration,
    /// Time blocked receiving from upstream (starvation).
    pub stall_in: Duration,
    /// Time blocked sending downstream (backpressure).
    pub stall_out: Duration,
    /// The dominant bucket. Ties break toward `WorkBound`, then
    /// `Starved` — an idle stage with all-zero times reads as work-bound.
    pub verdict: StallVerdict,
}

impl StageWallAttribution {
    fn from_stats(stage: &'static str, st: &StageWallStats) -> Self {
        let verdict = if st.busy >= st.stall_in && st.busy >= st.stall_out {
            StallVerdict::WorkBound
        } else if st.stall_in >= st.stall_out {
            StallVerdict::Starved
        } else {
            StallVerdict::Backpressured
        };
        Self {
            stage,
            busy: st.busy,
            stall_in: st.stall_in,
            stall_out: st.stall_out,
            verdict,
        }
    }
}

/// Attributes each executor stage's wall time to work, starvation, or
/// backpressure, in pipeline order.
pub fn attribute_wall(stats: &PipelineWallStats) -> [StageWallAttribution; 3] {
    [
        StageWallAttribution::from_stats("sample", &stats.sample),
        StageWallAttribution::from_stats("prepare", &stats.prepare),
        StageWallAttribution::from_stats("execute", &stats.execute),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn w(sample: u64, visible: u64, io: u64, compute: u64) -> WindowPhases {
        WindowPhases {
            sample: t(sample),
            visible_sample: t(visible),
            io: t(io),
            compute: t(compute),
        }
    }

    #[test]
    fn binding_picks_the_largest_visible_phase() {
        assert_eq!(binding_stage(&w(900, 900, 10, 20)), BindingStage::Sample);
        assert_eq!(binding_stage(&w(900, 5, 10, 8)), BindingStage::Io);
        assert_eq!(binding_stage(&w(1, 1, 2, 30)), BindingStage::Compute);
    }

    #[test]
    fn binding_ties_break_toward_the_later_stage() {
        assert_eq!(binding_stage(&w(5, 5, 5, 5)), BindingStage::Compute);
        assert_eq!(binding_stage(&w(7, 7, 7, 3)), BindingStage::Io);
        assert_eq!(binding_stage(&w(0, 0, 0, 0)), BindingStage::Compute);
    }

    #[test]
    fn analysis_sums_exactly_and_counts_every_window() {
        let trace = EpochWindowTrace {
            windows: vec![w(100, 100, 30, 20), w(90, 0, 40, 200), w(10, 10, 80, 5)],
            overlap_sample: true,
        };
        let cp = analyze(&trace);
        assert_eq!(cp.histogram.total(), 3);
        assert_eq!(cp.histogram.sample, 1);
        assert_eq!(cp.histogram.compute, 1);
        assert_eq!(cp.histogram.io, 1);
        assert_eq!(cp.visible_total(), trace.visible_total());
        assert_eq!(cp.breakdown, trace.visible_breakdown());
        assert_eq!(cp.hidden_sample, t(90));
        // Partitioning by binding stage also conserves the total.
        let partitioned: SimTime = BindingStage::all()
            .into_iter()
            .map(|s| cp.bound_time(s))
            .sum();
        assert_eq!(partitioned, cp.visible_total());
    }

    #[test]
    fn wall_attribution_names_the_dominant_bucket() {
        let st = |busy_ms: u64, in_ms: u64, out_ms: u64| StageWallStats {
            busy: Duration::from_millis(busy_ms),
            stall_in: Duration::from_millis(in_ms),
            stall_out: Duration::from_millis(out_ms),
            items: 4,
            replays: 0,
        };
        let stats = PipelineWallStats {
            prefetch: 2,
            channel_bound: 2,
            sample: st(10, 0, 90),
            prepare: st(10, 80, 5),
            execute: st(90, 10, 0),
        };
        let attr = attribute_wall(&stats);
        assert_eq!(attr[0].verdict, StallVerdict::Backpressured);
        assert_eq!(attr[1].verdict, StallVerdict::Starved);
        assert_eq!(attr[2].verdict, StallVerdict::WorkBound);
        assert_eq!(attr[0].stage, "sample");
        // All-zero (serial run) stages read as work-bound.
        let idle = StageWallAttribution::from_stats("prepare", &StageWallStats::default());
        assert_eq!(idle.verdict, StallVerdict::WorkBound);
    }
}
