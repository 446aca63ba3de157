//! Metric names, the per-layer trace, and small statistics helpers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::{Duration, Instant};

/// End-to-end metrics: `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("batches_per_s", "1/s"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, printed with `--trace 1`. A workload
/// that skips a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sampler.batch_ms", "ms"),
    ("sampler.sorted_ids_ms", "ms"),
    ("sampler.edges", "count"),
    ("sampler.nodes", "count"),
    ("sampler.edges_per_s", "1/s"),
    ("match_reorder.degree_matrix_ms", "ms"),
    ("match_reorder.reorder_ms", "ms"),
    ("match_reorder.match_ms", "ms"),
    ("match_reorder.reuse_ratio", "ratio"),
    ("cache.build_ms", "ms"),
    ("cache.partition_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("io.load_ms", "ms"),
    ("io.rows_loaded", "count"),
    ("io.bytes_h2d", "bytes"),
    ("compute.census_ms", "ms"),
    ("compute.batch_time_ms", "ms"),
    ("executor.sample_busy_ms", "ms"),
    ("executor.prepare_busy_ms", "ms"),
    ("executor.execute_busy_ms", "ms"),
    ("executor.sample_stall_ms", "ms"),
    ("executor.prepare_stall_ms", "ms"),
    ("executor.execute_stall_ms", "ms"),
    ("executor.overlap_ratio", "ratio"),
    ("trainer.sample_ms", "ms"),
    ("trainer.reorder_ms", "ms"),
    ("tensor.gather_ms", "ms"),
    ("gnn.forward_ms", "ms"),
    ("tensor.loss_ms", "ms"),
    ("gnn.backward_ms", "ms"),
    ("gnn.apply_grads_ms", "ms"),
    ("resilience.checkpoint_save_ms", "ms"),
    ("resilience.checkpoint_load_ms", "ms"),
    ("resilience.checkpoint_bytes", "bytes"),
    ("peak_rss_mib", "MiB"),
    ("timed_epochs", "count"),
    ("graph.generate_s", "s"),
    ("setup.warmup_epoch_s", "s"),
    ("trace.epoch_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("sim_epoch_ms", "ms"),
    ("sim.sample_ms", "ms"),
    ("sim.io_ms", "ms"),
    ("sim.compute_ms", "ms"),
    ("train_loss", "nats"),
    ("error_rate", "ratio"),
];

/// Metric values by name, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name` to `value`, replacing an earlier value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a declared metric: every printed name must
    /// be listed in `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "undeclared metric {name}"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, or 0 when the workload never set it.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Wall time of each layer's calls during traced replay epochs.
///
/// Every key is a per-layer metric name ending in `_ms`; the rows plus
/// `trace.unattributed_ms` add up to `trace.epoch_ms`.
#[derive(Debug, Default)]
pub struct Trace {
    /// Replayed epochs.
    pub epochs: u64,
    /// Total replay wall time.
    pub wall: Duration,
    layers: Vec<(&'static str, Duration)>,
}

impl Trace {
    /// Runs `f`, adding its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        match self.layers.iter_mut().find(|(n, _)| *n == layer) {
            Some(slot) => slot.1 += took,
            None => self.layers.push((layer, took)),
        }
        out
    }

    /// Total time recorded under `layer`.
    pub fn total(&self, layer: &str) -> Duration {
        self.layers
            .iter()
            .find(|(n, _)| *n == layer)
            .map_or(Duration::ZERO, |&(_, d)| d)
    }

    /// Per-epoch milliseconds of `layer`.
    pub fn per_epoch_ms(&self, layer: &str) -> f64 {
        ms(self.total(layer)) / self.epochs.max(1) as f64
    }

    /// Writes every layer row, `trace.epoch_ms` and `trace.unattributed_ms`
    /// (all per epoch) into `m`.
    pub fn write(&self, m: &mut Metrics) {
        let epoch_ms = ms(self.wall) / self.epochs.max(1) as f64;
        let mut attributed = 0.0;
        for &(layer, _) in &self.layers {
            let v = self.per_epoch_ms(layer);
            attributed += v;
            m.set(layer, v);
        }
        m.set("trace.epoch_ms", epoch_ms);
        m.set("trace.unattributed_ms", epoch_ms - attributed);
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Whether the allocator is counting (only inside [`heap_peak`]).
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Live heap bytes allocated since counting started.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Highest value `LIVE` reached.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live heap bytes while [`heap_peak`]
/// runs. Outside it, an allocation costs one extra relaxed load, so the
/// timed epochs are not instrumented.
pub struct CountingAlloc;

fn record(delta: isize) {
    // Relaxed: the counters are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counting
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s requirements for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        record(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller checks `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Forgets the peak so far inside [`heap_peak`]: the peak restarts from
/// the bytes live now. Set-up calls it after generating the graph, so the
/// generator's temporary buffers do not hide the epoch's footprint.
pub fn restart_heap_peak() {
    PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
}

/// Runs `f` and returns its result with the peak of heap bytes it held
/// live at once (blocks it frees that were allocated before are ignored).
pub fn heap_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::SeqCst).max(0) as usize)
}
