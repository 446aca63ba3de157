//! Structured observability for the FastGL workspace: spans, counters,
//! log-bucketed histograms, and perf export (chrome-trace + JSON).
//!
//! Every hot path in the workspace (dense kernels, samplers, the training
//! pipeline, the GPU simulator's phase accounting) reports into this crate,
//! which makes the sample → memory-IO → compute breakdown the paper's
//! evaluation is built on (§6, Figs. 1/3/9–15) observable on *real*
//! host-side execution, not just inside the simulator.
//!
//! # Design goals
//!
//! 1. **Near-zero cost when disabled.** Telemetry is off by default; every
//!    entry point starts with one relaxed atomic load and returns
//!    immediately, allocating nothing. Enable it with `FASTGL_TELEMETRY=1`,
//!    [`set_enabled`], or `FastGlConfig::with_telemetry(true)`.
//! 2. **Safe under the fork-join backend.** The event buffer is sharded by
//!    thread (each worker of `fastgl_tensor::parallel` records into its own
//!    shard under an uncontended lock), and counter/histogram merges are
//!    associative and commutative, so totals are identical at any
//!    `FASTGL_THREADS` setting.
//! 3. **No dependencies.** Like the rest of the workspace, the crate builds
//!    offline; the exporters write their JSON by hand through [`json`],
//!    which is also the workspace's one JSON parser.
//!
//! # Two timelines
//!
//! Wall-clock spans ([`span()`]) measure real host execution. Simulated-time
//! spans ([`record_sim_phases`]) bridge the simulator's `SimTime` /
//! `PhaseBreakdown` accounting onto a second track of the same trace, so a
//! chrome-trace export shows host work and the simulated GPU's phase
//! breakdown side by side (`pid 1` = wall, `pid 2` = simulated).
//!
//! # Example
//!
//! ```
//! use fastgl_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! telemetry::reset();
//! {
//!     let _outer = telemetry::span("epoch").with_u64("epoch", 0);
//!     let _inner = telemetry::span("gather");
//!     telemetry::counter_add("rows_loaded", 128);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counters["rows_loaded"], 128);
//! assert_eq!(snap.span_totals()["gather"].count, 1);
//! let trace = telemetry::export::chrome_trace(&snap);
//! assert!(trace.contains("\"traceEvents\""));
//! telemetry::set_enabled(false);
//! ```

#![deny(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod names;
pub mod span;

pub use metrics::{counter_add, observe, Histogram};
pub use span::{record_sim_phases, span, AttrValue, Event, Snapshot, SpanAgg, SpanGuard, Track};

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state enablement: 0 = uninitialised (read the environment on first
/// query), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is recording.
///
/// Resolution order: the last [`set_enabled`] call, then the
/// `FASTGL_TELEMETRY` environment variable (`1`/`true`/`on` enable), then
/// off. The fast path is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("FASTGL_TELEMETRY")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "true" || v == "on"
        })
        .unwrap_or(false);
    // A concurrent set_enabled wins: only replace the uninitialised state.
    let _ = STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == 2
}

/// Turns recording on or off for the whole process, overriding
/// `FASTGL_TELEMETRY`.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Collects everything recorded so far (events, counters, histograms)
/// without clearing the buffers.
pub fn snapshot() -> Snapshot {
    span::collect()
}

/// Clears every event buffer, counter, and histogram, and rewinds the
/// simulated-time cursor to zero.
pub fn reset() {
    span::clear();
}

/// [`snapshot`] followed by [`reset`]: take ownership of the recorded data.
pub fn drain() -> Snapshot {
    let s = snapshot();
    reset();
    s
}

#[cfg(test)]
pub(crate) mod test_util {
    use std::sync::Mutex;

    /// Serializes tests that mutate the global telemetry state.
    static LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` with telemetry enabled and a clean buffer, restoring the
    /// disabled state afterwards.
    pub(crate) fn with_telemetry<R>(f: impl FnOnce() -> R) -> R {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        super::set_enabled(true);
        super::reset();
        let r = f();
        super::reset();
        super::set_enabled(false);
        r
    }

    /// Runs `f` with telemetry explicitly disabled and a clean buffer.
    pub(crate) fn without_telemetry<R>(f: impl FnOnce() -> R) -> R {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        super::set_enabled(false);
        super::reset();
        let r = f();
        super::reset();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::{with_telemetry, without_telemetry};
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        without_telemetry(|| {
            {
                let _s = span("never").with_u64("x", 1);
                counter_add("never_counter", 5);
                observe("never_hist", 10);
            }
            let snap = snapshot();
            assert!(snap.events.is_empty(), "no events when disabled");
            assert!(snap.counters.is_empty(), "no counters when disabled");
            assert!(snap.histograms.is_empty(), "no histograms when disabled");
        });
    }

    #[test]
    fn disabled_guard_is_allocation_free() {
        without_telemetry(|| {
            // Attributes on an inactive guard must not allocate: the vec
            // stays at capacity 0 because with_* early-outs.
            let g = span("noop").with_u64("a", 1).with_str("c", "xyz");
            assert!(!g.is_active());
            assert_eq!(g.attr_capacity(), 0);
        });
    }

    #[test]
    fn set_enabled_overrides_env() {
        without_telemetry(|| {
            assert!(!enabled());
            set_enabled(true);
            assert!(enabled());
            set_enabled(false);
            assert!(!enabled());
        });
    }

    #[test]
    fn drain_empties_the_buffer() {
        with_telemetry(|| {
            {
                let _s = span("once");
            }
            counter_add("c", 1);
            let first = drain();
            assert_eq!(first.events.len(), 1);
            assert_eq!(first.counters["c"], 1);
            let second = snapshot();
            assert!(second.events.is_empty());
            assert!(second.counters.is_empty());
        });
    }
}
