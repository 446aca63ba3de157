//! Asynchronous stage-pipelined window execution (paper §6.5 / Fig. 5).
//!
//! FastGL overlaps the sample, reorder/match, and feature-load/compute
//! phases of *different* mini-batch windows: while window `w` trains, the
//! sampler already draws window `w + 1`. This module is the crate's one
//! window loop, shared by the simulated [`crate::pipeline::Pipeline`] and
//! the numeric [`crate::trainer`]: a `WindowPlan` cuts an epoch into
//! windows, and a [`PipelineExecutor`] runs them through three stages
//! over bounded channels — **sample** the window, **prepare** it (reorder;
//! the simulator also builds Match load sets) and **execute** it (feature
//! load + compute, or a real training step) on the caller's thread.
//!
//! The pipeline changes **wall-clock behaviour only**. Windows flow
//! strictly FIFO through single-producer/single-consumer channels, every
//! stage closure observes them in the same order the serial loop would,
//! and all randomness is derived per batch index by the plan — so
//! simulated times, statistics, trained weights and floating-point
//! accumulations are bit-identical at any prefetch depth (including the
//! depth-0 serial path) and any `FASTGL_THREADS` setting.
//!
//! Per-stage busy/stall wall time is reported as [`PipelineWallStats`] and
//! exported through `fastgl-telemetry` histograms, giving the pipeline an
//! observable efficiency figure (how much of each stage's wall time was
//! useful work vs. waiting on its neighbours).

use crate::match_reorder::greedy_reorder;
use fastgl_graph::{DeterministicRng, NodeId};
use fastgl_sample::overlap::match_degree_matrix;
use fastgl_sample::{MinibatchPlan, SampledSubgraph};
use fastgl_telemetry::names;
use std::ops::Range;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// An epoch's mini-batch plan cut into windows: the one rule, shared by
/// the simulator and the trainer, for which batches form a window, which
/// RNG stream each batch draws from, and in which order a sampled window
/// runs.
///
/// Batch `i` of the plan belongs to window `i / window` and draws from the
/// stream `base.derive(i)`, so its draws depend only on its plan position
/// — never on the stage, thread, prefetch depth or resume point that
/// samples it.
pub(crate) struct WindowPlan<'p> {
    plan: &'p MinibatchPlan,
    window: usize,
    base: DeterministicRng,
    reorder: bool,
}

impl<'p> WindowPlan<'p> {
    /// Cuts `plan` into windows of `window` batches (the last may be
    /// shorter). Batch streams derive from `base`; `reorder` turns on
    /// Algorithm 1 within each window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(
        plan: &'p MinibatchPlan,
        window: usize,
        base: DeterministicRng,
        reorder: bool,
    ) -> Self {
        assert!(window >= 1, "a window holds at least one batch");
        Self {
            plan,
            window,
            base,
            reorder,
        }
    }

    /// The windows holding the plan batches `batches`.
    pub fn covering(&self, batches: Range<usize>) -> Range<usize> {
        batches.start / self.window..batches.end.div_ceil(self.window)
    }

    /// Plan indices of window `w`'s batches.
    pub fn batches(&self, w: usize) -> Range<usize> {
        w * self.window..((w + 1) * self.window).min(self.plan.len())
    }

    /// The RNG stream of plan batch `index`.
    pub fn rng(&self, index: usize) -> DeterministicRng {
        self.base.derive(index as u64)
    }

    /// Draws window `w`: calls `draw(index, seeds, rng)` for each of its
    /// batches in plan order, `rng` being that batch's own stream.
    pub fn sample<T>(
        &self,
        w: usize,
        mut draw: impl FnMut(usize, &'p [NodeId], &mut DeterministicRng) -> T,
    ) -> Vec<T> {
        self.batches(w)
            .map(|i| draw(i, self.plan.batch(i), &mut self.rng(i)))
            .collect()
    }

    /// The execution order of a sampled window, as positions into it:
    /// the greedy order of Algorithm 1 when reorder is on and the window
    /// holds more than one batch, plan order otherwise.
    pub fn order<'s>(&self, window: impl IntoIterator<Item = &'s SampledSubgraph>) -> Vec<usize> {
        let subgraphs: Vec<&SampledSubgraph> = window.into_iter().collect();
        if self.reorder && subgraphs.len() > 1 {
            let sets: Vec<&[NodeId]> = subgraphs.iter().map(|s| s.sorted_global_ids()).collect();
            greedy_reorder(&match_degree_matrix(&sets))
        } else {
            (0..subgraphs.len()).collect()
        }
    }
}

/// Wall-clock accounting of one pipeline stage.
///
/// Stall time is split by *direction* so the critical-path analysis in
/// `fastgl-insight` can attribute it: a stage blocked receiving is
/// **starved** (its upstream neighbour is the bottleneck), a stage
/// blocked sending is under **backpressure** (its downstream neighbour
/// is).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageWallStats {
    /// Time spent inside the stage closure (useful work).
    pub busy: Duration,
    /// Time spent starved, blocked receiving from the upstream channel.
    pub stall_in: Duration,
    /// Time spent under backpressure, blocked sending downstream.
    pub stall_out: Duration,
    /// Windows processed.
    pub items: u64,
    /// Panicked stage attempts that were replayed (see
    /// [`PipelineExecutor::with_stage_retries`]).
    pub replays: u64,
}

impl StageWallStats {
    /// Total time blocked on the neighbouring channels (starved +
    /// backpressured).
    pub fn stall(&self) -> Duration {
        self.stall_in + self.stall_out
    }
}

/// Wall-clock accounting of one pipelined epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineWallStats {
    /// Prefetch depth the run used (0 = serial).
    pub prefetch: usize,
    /// Capacity of the inter-stage channels.
    pub channel_bound: usize,
    /// The window-sampling stage.
    pub sample: StageWallStats,
    /// The reorder + match-set stage.
    pub prepare: StageWallStats,
    /// The feature-load + compute stage (caller thread).
    pub execute: StageWallStats,
}

impl PipelineWallStats {
    /// Records the per-stage busy/stall times into telemetry histograms.
    ///
    /// Histograms (not counters) on purpose: wall time varies with thread
    /// count and scheduling, and counter totals are pinned invariant
    /// across `FASTGL_THREADS` by the telemetry test suite.
    pub fn emit_telemetry(&self) {
        for (name_busy, name_in, name_out, st) in [
            (
                names::PIPELINE_SAMPLE_BUSY_NS,
                names::PIPELINE_SAMPLE_STALL_IN_NS,
                names::PIPELINE_SAMPLE_STALL_OUT_NS,
                &self.sample,
            ),
            (
                names::PIPELINE_PREPARE_BUSY_NS,
                names::PIPELINE_PREPARE_STALL_IN_NS,
                names::PIPELINE_PREPARE_STALL_OUT_NS,
                &self.prepare,
            ),
            (
                names::PIPELINE_EXECUTE_BUSY_NS,
                names::PIPELINE_EXECUTE_STALL_IN_NS,
                names::PIPELINE_EXECUTE_STALL_OUT_NS,
                &self.execute,
            ),
        ] {
            fastgl_telemetry::observe(name_busy, st.busy.as_nanos() as u64);
            fastgl_telemetry::observe(name_in, st.stall_in.as_nanos() as u64);
            fastgl_telemetry::observe(name_out, st.stall_out.as_nanos() as u64);
        }
    }
}

/// Runs a window stage under its telemetry span and busy timer.
fn timed<O>(
    st: &mut StageWallStats,
    name: &'static str,
    window: usize,
    f: impl FnOnce() -> O,
) -> O {
    let _span = fastgl_telemetry::span(name).with_u64("window", window as u64);
    let start = Instant::now();
    let out = f();
    st.busy += start.elapsed();
    st.items += 1;
    out
}

/// Like [`timed`], but replays the stage up to `retries` times if it
/// panics (the in-flight window is re-run from scratch). The final
/// attempt runs unguarded so an unrecoverable panic still propagates.
fn timed_replayed<O>(
    st: &mut StageWallStats,
    name: &'static str,
    window: usize,
    retries: usize,
    mut f: impl FnMut() -> O,
) -> O {
    for _ in 0..retries {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            timed(st, name, window, &mut f)
        }));
        match attempt {
            Ok(out) => return out,
            Err(_) => {
                st.replays += 1;
                fastgl_telemetry::counter_add(names::STAGE_REPLAYS, 1);
            }
        }
    }
    timed(st, name, window, &mut f)
}

/// The three-stage window pipeline.
///
/// `prefetch` is the number of windows each producer stage may run ahead
/// of its consumer; `0` executes the stages back-to-back on the calling
/// thread (today's serial behaviour, with identical telemetry spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineExecutor {
    prefetch: usize,
    stage_retries: usize,
}

impl PipelineExecutor {
    /// An executor with the given prefetch depth; the inter-stage channels
    /// hold `prefetch.max(1)` windows and no stage replays.
    pub fn new(prefetch: usize) -> Self {
        Self {
            prefetch,
            stage_retries: 0,
        }
    }

    /// Allows the `sample` worker stage to be replayed up to `retries`
    /// times if it panics: the in-flight window is re-sampled from
    /// scratch on the same thread, preserving FIFO order — and because
    /// sampling is a pure function of the window index plus per-batch RNG
    /// streams, the replay reproduces the lost window bit-for-bit.
    ///
    /// `prepare` and `execute` are deliberately *not* replayed: both
    /// carry state across windows (the Match resident set, the model
    /// accumulators) that a half-applied panic could leave inconsistent,
    /// and their inputs are consumed. A panic there is a real bug, not a
    /// recoverable fault.
    ///
    /// Replays are counted in [`StageWallStats::replays`] and the
    /// `pipeline.stage.replays` telemetry counter.
    pub fn with_stage_retries(mut self, retries: usize) -> Self {
        self.stage_retries = retries;
        self
    }

    /// Runs the `windows` through `sample → prepare → execute`.
    ///
    /// Stages see windows in index order, exactly as the serial loop
    /// would; `execute` always runs on the calling thread, so
    /// it may borrow caller state mutably without synchronisation.
    ///
    /// # Panics
    ///
    /// Panics from the `prepare` and `execute` stages always propagate to
    /// the caller; panics from `sample` propagate once the
    /// [`with_stage_retries`](Self::with_stage_retries) budget is spent.
    pub fn run<W, P, FS, FP, FE>(
        &self,
        windows: Range<usize>,
        mut sample: FS,
        mut prepare: FP,
        mut execute: FE,
    ) -> PipelineWallStats
    where
        W: Send,
        P: Send,
        FS: FnMut(usize) -> W + Send,
        FP: FnMut(usize, W) -> P + Send,
        FE: FnMut(usize, P),
    {
        fastgl_telemetry::counter_add(names::PIPELINE_WINDOWS, windows.len() as u64);
        let mut stats = PipelineWallStats {
            prefetch: self.prefetch,
            channel_bound: self.prefetch.max(1),
            ..Default::default()
        };
        let retries = self.stage_retries;
        if self.prefetch == 0 {
            for w in windows {
                let item = timed_replayed(
                    &mut stats.sample,
                    names::SPAN_PIPELINE_STAGE_SAMPLE,
                    w,
                    retries,
                    || sample(w),
                );
                let prepared = timed(
                    &mut stats.prepare,
                    names::SPAN_PIPELINE_STAGE_PREPARE,
                    w,
                    || prepare(w, item),
                );
                timed(
                    &mut stats.execute,
                    names::SPAN_PIPELINE_STAGE_EXECUTE,
                    w,
                    || execute(w, prepared),
                );
            }
            stats.emit_telemetry();
            return stats;
        }

        let bound = stats.channel_bound;
        let (mut sample_st, mut prepare_st) =
            (StageWallStats::default(), StageWallStats::default());
        std::thread::scope(|scope| {
            let (tx_sampled, rx_sampled) = sync_channel::<(usize, W)>(bound);
            let (tx_prepared, rx_prepared) = sync_channel::<(usize, P)>(bound);

            let sampler = scope.spawn(move || {
                let mut st = StageWallStats::default();
                for w in windows {
                    let item = timed_replayed(
                        &mut st,
                        names::SPAN_PIPELINE_STAGE_SAMPLE,
                        w,
                        retries,
                        || sample(w),
                    );
                    let wait = Instant::now();
                    // A closed channel means a downstream stage panicked;
                    // stop producing and let the join surface the panic.
                    if tx_sampled.send((w, item)).is_err() {
                        break;
                    }
                    st.stall_out += wait.elapsed();
                }
                st
            });

            let preparer = scope.spawn(move || {
                let mut st = StageWallStats::default();
                loop {
                    let wait = Instant::now();
                    let Ok((w, item)) = rx_sampled.recv() else {
                        break;
                    };
                    st.stall_in += wait.elapsed();
                    let prepared = timed(&mut st, names::SPAN_PIPELINE_STAGE_PREPARE, w, || {
                        prepare(w, item)
                    });
                    let wait = Instant::now();
                    if tx_prepared.send((w, prepared)).is_err() {
                        break;
                    }
                    st.stall_out += wait.elapsed();
                }
                st
            });

            loop {
                let wait = Instant::now();
                let Ok((w, prepared)) = rx_prepared.recv() else {
                    break;
                };
                stats.execute.stall_in += wait.elapsed();
                timed(
                    &mut stats.execute,
                    names::SPAN_PIPELINE_STAGE_EXECUTE,
                    w,
                    || execute(w, prepared),
                );
            }
            sample_st = sampler
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            prepare_st = preparer
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
        });
        stats.sample = sample_st;
        stats.prepare = prepare_st;
        stats.emit_telemetry();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a 3-stage arithmetic pipeline and returns the execute-stage
    /// observations `(window, value)` in arrival order.
    fn run_chain(
        executor: PipelineExecutor,
        windows: usize,
    ) -> (Vec<(usize, u64)>, PipelineWallStats) {
        let mut seen = Vec::new();
        let stats = executor.run(
            0..windows,
            |w| w as u64 * 10,
            |w, x| x + w as u64,
            |w, x| seen.push((w, x)),
        );
        (seen, stats)
    }

    fn expected(windows: usize) -> Vec<(usize, u64)> {
        (0..windows).map(|w| (w, w as u64 * 11)).collect()
    }

    #[test]
    fn serial_depth_runs_in_order() {
        let (seen, stats) = run_chain(PipelineExecutor::new(0), 7);
        assert_eq!(seen, expected(7));
        assert_eq!(stats.sample.items, 7);
        assert_eq!(stats.execute.items, 7);
        assert_eq!(stats.prefetch, 0);
    }

    #[test]
    fn pipelined_depths_preserve_order_and_values() {
        for depth in [1usize, 2, 4, 16] {
            let (seen, stats) = run_chain(PipelineExecutor::new(depth), 23);
            assert_eq!(seen, expected(23), "depth {depth}");
            assert_eq!(stats.prepare.items, 23);
            assert_eq!(stats.channel_bound, depth);
        }
    }

    #[test]
    fn zero_windows_is_a_noop() {
        for depth in [0usize, 2] {
            let (seen, stats) = run_chain(PipelineExecutor::new(depth), 0);
            assert!(seen.is_empty());
            assert_eq!(stats.sample.items, 0);
        }
    }

    #[test]
    fn stateful_stages_see_windows_fifo() {
        // The prepare stage carries state across windows (like the
        // pipeline's resident set); FIFO delivery makes it deterministic.
        let mut carried = 0u64;
        let mut out = Vec::new();
        PipelineExecutor::new(3).run(
            0..10,
            |w| w as u64,
            move |_, x| {
                carried += x;
                carried
            },
            |_, running| out.push(running),
        );
        let expect: Vec<u64> = (0..10u64)
            .scan(0, |acc, x| {
                *acc += x;
                Some(*acc)
            })
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn overlap_actually_happens() {
        // With sleeps in producer and consumer, depth-1 pipelining must
        // beat the serial sum of the sleeps.
        let delay = Duration::from_millis(4);
        let windows = 8;
        let work = |_w: usize| std::thread::sleep(delay);
        let start = Instant::now();
        PipelineExecutor::new(1).run(0..windows, work, |_, _| (), move |w, _| work(w));
        let piped = start.elapsed();
        let serial = delay * 2 * windows as u32;
        assert!(
            piped < serial - delay * 2,
            "pipelined {piped:?} vs serial {serial:?}"
        );
    }

    #[test]
    fn stage_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            PipelineExecutor::new(2).run(
                0..6,
                |w| w,
                |_, w| {
                    if w == 3 {
                        panic!("prepare stage failure");
                    }
                    w
                },
                |_, _| (),
            );
        });
        assert!(result.is_err());
    }

    #[test]
    fn stall_sums_starved_and_backpressured_time() {
        let st = StageWallStats {
            busy: Duration::from_millis(3),
            stall_in: Duration::from_millis(1),
            stall_out: Duration::ZERO,
            items: 1,
            replays: 0,
        };
        assert_eq!(st.stall(), Duration::from_millis(1));
        let st = StageWallStats {
            stall_out: Duration::from_millis(2),
            ..st
        };
        assert_eq!(st.stall(), Duration::from_millis(3));
    }

    /// A sample closure that panics the first `failures` times it sees
    /// window `at`, then succeeds — like an injected worker panic.
    fn flaky_sample(at: usize, failures: usize) -> impl FnMut(usize) -> u64 + Send {
        let mut remaining = failures;
        move |w| {
            if w == at && remaining > 0 {
                remaining -= 1;
                panic!("injected worker panic at window {w}");
            }
            w as u64 * 10
        }
    }

    #[test]
    fn sample_replay_recovers_and_counts() {
        for depth in [0usize, 2] {
            let mut seen = Vec::new();
            let stats = PipelineExecutor::new(depth).with_stage_retries(2).run(
                0..6,
                flaky_sample(3, 1),
                |w, x| x + w as u64,
                |w, x| seen.push((w, x)),
            );
            assert_eq!(seen, expected(6), "depth {depth}: results unchanged");
            assert_eq!(stats.sample.replays, 1, "depth {depth}");
            assert_eq!(stats.sample.items, 6, "only successful windows count");
        }
    }

    #[test]
    fn exhausted_replay_budget_propagates() {
        let result = std::panic::catch_unwind(|| {
            PipelineExecutor::new(2).with_stage_retries(1).run(
                0..6,
                flaky_sample(2, 5),
                |_, x: u64| x,
                |_, _| (),
            );
        });
        assert!(result.is_err(), "2 attempts cannot absorb 5 failures");
    }

    #[test]
    fn zero_retries_is_todays_behaviour() {
        let result = std::panic::catch_unwind(|| {
            PipelineExecutor::new(0).run(0..4, flaky_sample(1, 1), |_, x: u64| x, |_, _| ());
        });
        assert!(result.is_err());
    }

    #[test]
    fn window_plan_cuts_ragged_plans_and_derives_streams_by_plan_index() {
        let nodes: Vec<NodeId> = (0..50).map(NodeId).collect();
        let plan = MinibatchPlan::new(&nodes, 10, 1, 0);
        let base = DeterministicRng::seed(9);
        let windows = WindowPlan::new(&plan, 3, base.clone(), false);
        assert_eq!(windows.covering(0..plan.len()), 0..2);
        assert_eq!(windows.batches(1), 3..5, "the last window is ragged");
        // A resume at batch 4 up to a halt at 5 touches only window 1.
        assert_eq!(windows.covering(4..5), 1..2);
        let drawn = windows.sample(1, |i, seeds, rng| (i, seeds.to_vec(), rng.clone()));
        for (i, seeds, rng) in drawn {
            assert_eq!(seeds, plan.batch(i));
            assert_eq!(rng, base.derive(i as u64));
        }
    }
}
