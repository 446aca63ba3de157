//! The one telemetry store: counters, histograms and span totals.
//!
//! Every record lands in one of [`NUM_SHARDS`] shards selected by the
//! recording thread's ordinal, so fork-join workers
//! (`fastgl_tensor::parallel`) never contend on a single lock. A shard
//! keeps one entry per name, so memory is bounded by the number of names
//! × [`NUM_SHARDS`], whatever the run length. A snapshot merges the
//! shards. Both merges — summing counters, adding histogram buckets — are
//! associative and commutative, so the totals do not depend on which
//! worker thread recorded which increment and are identical at any
//! `FASTGL_THREADS` setting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of independent store shards; a small power of two well above
/// the backend's typical worker count.
pub const NUM_SHARDS: usize = 16;

/// Number of histogram buckets: bucket 0 holds zero values, bucket `i > 0`
/// holds values with `floor(log2(v)) == i - 1`, i.e. `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` observations (latencies in ns, bytes
/// moved, nodes per batch, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Per-bucket counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// The bucket a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive-exclusive value range `[lo, hi)` of bucket `i` (bucket 0
    /// is the exact value zero, returned as `(0, 1)`).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1u64 << (i - 1), (1u64 << (i - 1)).saturating_mul(2))
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Merges another histogram into this one (associative, commutative).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) of the recorded distribution.
    ///
    /// Returns the lower bound of the log2 bucket holding the
    /// `ceil(q * count)`-th smallest observation, clamped into
    /// `[min, max]`. The log2 buckets bound the estimate's error to one
    /// octave; the clamp makes single-bucket histograms exact. Returns 0
    /// when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, _) = Self::bucket_range(i);
                return lo.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Everything recorded up to a point in time, merged over the shards.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Wall-clock span durations per name, in nanoseconds.
    pub spans: BTreeMap<&'static str, Histogram>,
    /// Monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Log-bucketed histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

/// One thread-sharded slice of the store: the same three maps a snapshot
/// merges, created on the shard's first record.
type Shard = Mutex<Option<Snapshot>>;

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Shard = Mutex::new(None);
static SHARDS: [Shard; NUM_SHARDS] = [EMPTY; NUM_SHARDS];
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's shard, assigned round-robin on first use.
    static SHARD_INDEX: usize =
        NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
}

fn with_shard(f: impl FnOnce(&mut Snapshot)) {
    let mut guard = SHARDS[SHARD_INDEX.with(|i| *i)]
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Snapshot::default));
}

/// Adds `delta` to the named monotonic counter. A no-op when telemetry is
/// disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    with_shard(|s| *s.counters.entry(name).or_insert(0) += delta);
}

/// Records one observation into the named histogram. A no-op when
/// telemetry is disabled.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !crate::enabled() {
        return;
    }
    with_shard(|s| s.histograms.entry(name).or_default().record(value));
}

/// Records one closed span's duration under its name.
pub(crate) fn record_span(name: &'static str, ns: u64) {
    with_shard(|s| s.spans.entry(name).or_default().record(ns));
}

/// Merges every shard into one [`Snapshot`].
pub(crate) fn collect() -> Snapshot {
    let mut out = Snapshot::default();
    for shard in &SHARDS {
        let guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(s) = guard.as_ref() {
            for (&k, h) in &s.spans {
                out.spans.entry(k).or_default().merge(h);
            }
            for (&k, &v) in &s.counters {
                *out.counters.entry(k).or_insert(0) += v;
            }
            for (&k, h) in &s.histograms {
                out.histograms.entry(k).or_default().merge(h);
            }
        }
    }
    out
}

/// Clears every shard.
pub(crate) fn clear() {
    for shard in &SHARDS {
        *shard.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Shards holding any record: disabled telemetry must leave all empty.
#[cfg(test)]
pub(crate) fn shards_in_use() -> usize {
    SHARDS
        .iter()
        .filter(|s| s.lock().unwrap_or_else(|e| e.into_inner()).is_some())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::with_telemetry;

    #[test]
    fn counters_merge_across_threads() {
        with_telemetry(|| {
            counter_add("total", 5);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| counter_add("total", 10));
                }
            });
            let snap = crate::snapshot();
            assert_eq!(snap.counters["total"], 45);
        });
    }

    #[test]
    fn counter_merge_is_associative() {
        // Summing per-shard partials in any grouping gives the same total:
        // record the same increments under different thread partitions and
        // compare the merged result.
        let runs: Vec<u64> = (0..3)
            .map(|threads| {
                with_telemetry(|| {
                    let deltas: Vec<u64> = (1..=12).collect();
                    if threads == 0 {
                        for &d in &deltas {
                            counter_add("assoc", d);
                        }
                    } else {
                        let per = deltas.len() / (threads + 1);
                        std::thread::scope(|scope| {
                            for chunk in deltas.chunks(per.max(1)) {
                                scope.spawn(move || {
                                    for &d in chunk {
                                        counter_add("assoc", d);
                                    }
                                });
                            }
                        });
                    }
                    crate::snapshot().counters["assoc"]
                })
            })
            .collect();
        assert!(
            runs.iter().all(|&v| v == 78),
            "partition-invariant: {runs:?}"
        );
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_range(0), (0, 1));
        assert_eq!(Histogram::bucket_range(1), (1, 2));
        assert_eq!(Histogram::bucket_range(11), (1024, 2048));
        for v in [0u64, 1, 7, 1000, 1 << 40] {
            let (lo, hi) = Histogram::bucket_range(Histogram::bucket_of(v));
            assert!(lo <= v && (v < hi || v == 0), "{v} in [{lo},{hi})");
        }
    }

    #[test]
    fn histogram_records_and_merges() {
        with_telemetry(|| {
            for v in [0u64, 1, 5, 1000] {
                observe("lat", v);
            }
            std::thread::scope(|scope| {
                scope.spawn(|| observe("lat", 2000));
            });
            let snap = crate::snapshot();
            let h = &snap.histograms["lat"];
            assert_eq!(h.count, 5);
            assert_eq!(h.sum, 3006);
            assert_eq!(h.min, 0);
            assert_eq!(h.max, 2000);
            assert!((h.mean() - 601.2).abs() < 1e-9);
            assert_eq!(h.buckets[0], 1, "zero bucket");
            assert_eq!(h.buckets[1], 1, "value 1");
            assert_eq!(h.buckets[3], 1, "value 5");
            assert_eq!(h.buckets[10], 1, "value 1000");
            assert_eq!(h.buckets[11], 1, "value 2000");
        });
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(Histogram::default().mean(), 0.0);
    }

    #[test]
    fn quantiles_on_a_known_distribution() {
        // 100 observations: 50 × 4, 40 × 64, 10 × 4096. Powers of two sit
        // exactly on their bucket's lower bound, so the estimates are exact.
        let mut h = Histogram::default();
        for _ in 0..50 {
            h.record(4);
        }
        for _ in 0..40 {
            h.record(64);
        }
        for _ in 0..10 {
            h.record(4096);
        }
        assert_eq!(h.quantile(0.50), 4, "rank 50 is the last 4");
        assert_eq!(h.quantile(0.51), 64, "rank 51 is the first 64");
        assert_eq!(h.quantile(0.90), 64, "rank 90 is the last 64");
        assert_eq!(h.quantile(0.95), 4096);
        assert_eq!(h.quantile(0.99), 4096);
        assert_eq!(h.quantile(0.0), 4, "rank clamps to the first value");
        assert_eq!(h.quantile(1.0), 4096);
    }

    #[test]
    fn quantile_clamps_into_observed_range() {
        // A single observation that is not a power of two: the bucket
        // lower bound (512) is below min, so the clamp recovers the exact
        // value.
        let mut h = Histogram::default();
        h.record(1000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1000);
        }
        // Monotonicity over a mixed distribution.
        let mut m = Histogram::default();
        for v in [0u64, 1, 5, 9, 17, 200, 3000, 70_000] {
            m.record(v);
        }
        let qs: Vec<u64> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .map(|&q| m.quantile(q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "monotone: {qs:?}");
        assert!(qs.iter().all(|&v| v <= m.max));
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }
}
