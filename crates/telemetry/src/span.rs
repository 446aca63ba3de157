//! Wall-clock spans.
//!
//! A [`SpanGuard`] is an RAII measurement: it reads the clock when it
//! opens and, when it drops, records its duration into the span histogram
//! of its name in the sharded store ([`crate::metrics`]). Only per-name
//! totals are kept, never individual spans, so the totals are exact at
//! any run length. Nested spans each record their own duration, so an
//! enclosing span's total includes its children's.

use crate::metrics;
use std::time::Instant;

/// An RAII span: measures from creation to drop and records the duration
/// under its name.
///
/// Created inactive (a no-op) when telemetry is disabled, so a disabled
/// span costs one atomic load.
#[must_use = "a span measures until it is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    /// The open time; `None` when telemetry was off at open.
    start: Option<Instant>,
}

/// Opens a wall-clock span on the calling thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: crate::enabled().then(Instant::now),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            metrics::record_span(self.name, start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::test_util::with_telemetry;
    use crate::{snapshot, span};

    #[test]
    fn spans_nest_and_order() {
        with_telemetry(|| {
            {
                let _a = span("outer");
                {
                    let _b = span("inner.first");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                {
                    let _c = span("inner.second");
                }
            }
            let spans = snapshot().spans;
            assert_eq!(spans.len(), 3);
            assert!(spans.values().all(|h| h.count == 1));
            // The parent closes after both children, so it encloses them.
            let inner = spans["inner.first"].sum + spans["inner.second"].sum;
            assert!(spans["inner.first"].sum >= 1_000_000);
            assert!(spans["outer"].sum >= inner);
        });
    }

    #[test]
    fn span_totals_aggregate_by_name() {
        with_telemetry(|| {
            for _ in 0..4 {
                let _s = span("repeated");
            }
            {
                let _s = span("once");
            }
            let spans = snapshot().spans;
            assert_eq!(spans["repeated"].count, 4);
            assert_eq!(spans["once"].count, 1);
            assert!(spans["repeated"].min <= spans["repeated"].max);
            assert!(spans["repeated"].sum >= spans["repeated"].max);
        });
    }

    #[test]
    fn spans_closed_on_three_threads_merge_into_one_total() {
        with_telemetry(|| {
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {
                        let _s = span("worker");
                    });
                }
            });
            let spans = snapshot().spans;
            assert_eq!(spans.len(), 1);
            assert_eq!(spans["worker"].count, 3);
        });
    }

    #[test]
    fn span_count_is_exact_past_two_pow_twenty() {
        // Spans are counted, not stored, so no per-shard cap applies:
        // the count stays exact past 2^20 on one thread.
        with_telemetry(|| {
            let n = (1u64 << 20) + 3;
            for _ in 0..n {
                let _s = span("tick");
            }
            assert_eq!(snapshot().spans["tick"].count, n);
        });
    }
}
