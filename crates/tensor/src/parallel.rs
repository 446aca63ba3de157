//! The shared CPU execution backend: deterministic fork-join parallelism.
//!
//! Every numeric hot path in the workspace (dense matmul, sparse
//! aggregation, neighbour sampling, feature gather) routes its loops
//! through this module. The design goals, in order:
//!
//! 1. **Bit-identical results at any thread count.** Work is split into
//!    contiguous chunks whose *contents* are computed exactly as the serial
//!    loop would compute them — every floating-point reduction keeps its
//!    fixed per-row accumulation order, and no reduction ever crosses a
//!    chunk boundary. `FASTGL_THREADS=1` therefore reproduces the parallel
//!    output exactly, and training curves and figure outputs do not depend
//!    on the machine's core count.
//! 2. **No dependencies.** The backend is built on [`std::thread::scope`];
//!    the build environment has no crates.io access, so `rayon` is not an
//!    option (see `DESIGN.md` § Execution backend).
//! 3. **Serial below a cutoff.** Callers pass a per-chunk grain; inputs
//!    smaller than one grain run inline on the calling thread so tiny test
//!    fixtures never pay thread spawn/join overhead.
//!
//! The thread count resolves, in priority order: a programmatic override
//! from [`set_num_threads`] (used by `FastGlConfig::threads`), the
//! `FASTGL_THREADS` environment variable, then all available cores.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Programmatic thread-count override; `0` means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `FASTGL_THREADS` parsed once; `0` means "not set".
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Sets the backend's thread count for the whole process.
///
/// `0` clears the override, falling back to `FASTGL_THREADS` and then the
/// core count; `1` forces the exact serial execution path.
pub fn set_num_threads(threads: usize) {
    OVERRIDE.store(threads, Ordering::SeqCst);
}

/// The thread count the backend would use for a large enough input.
pub fn num_threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    let env = *ENV_THREADS.get_or_init(|| {
        std::env::var("FASTGL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    });
    if env > 0 {
        return env;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Threads actually used for `items` work items at the given `grain`
/// (minimum items per thread): 1 when the input is below the cutoff.
pub fn plan_threads(items: usize, grain: usize) -> usize {
    let max_useful = items / grain.max(1);
    num_threads().min(max_useful.max(1))
}

/// Splits `0..n` into `t` near-equal contiguous ranges.
fn split_ranges(n: usize, t: usize) -> Vec<Range<usize>> {
    let base = n / t;
    let extra = n % t;
    let mut out = Vec::with_capacity(t);
    let mut start = 0;
    for i in 0..t {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `f` over disjoint contiguous row chunks of `data` in parallel.
///
/// `data` is treated as rows of `row_len` elements; `f(first_row, chunk)`
/// receives the index of its first row and a mutable slice of whole rows.
/// Chunks partition the buffer, so any per-row computation is race-free by
/// construction and byte-identical to the serial pass. Inputs smaller than
/// `grain_rows` rows (or a 1-thread plan) run inline.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `row_len`. Panics from `f`
/// propagate to the caller.
pub fn par_row_chunks_mut<T, F>(data: &mut [T], row_len: usize, grain_rows: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if row_len == 0 || data.is_empty() {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    assert_eq!(data.len() % row_len, 0, "buffer is not whole rows");
    let rows = data.len() / row_len;
    let t = plan_threads(rows, grain_rows);
    if t <= 1 {
        f(0, data);
        return;
    }
    let ranges = split_ranges(rows, t);
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = data;
        for range in ranges {
            let take = range.len() * row_len;
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            if head.is_empty() {
                continue;
            }
            scope.spawn(move || {
                let _span = fastgl_telemetry::span(fastgl_telemetry::names::SPAN_PARALLEL_CHUNK)
                    .with_u64("first", range.start as u64)
                    .with_u64("rows", range.len() as u64);
                f(range.start, head)
            });
        }
    });
}

/// Runs `f` over disjoint contiguous ranges of `0..n` in parallel and
/// returns the per-range results **in range order**.
///
/// The caller's merge of the returned values is sequential, so any
/// order-sensitive combination (concatenation, ordered reduction) is
/// deterministic regardless of thread count.
///
/// # Panics
///
/// Panics from `f` propagate to the caller.
pub fn par_chunk_results<O, F>(n: usize, grain: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(Range<usize>) -> O + Sync,
{
    let t = plan_threads(n, grain);
    if t <= 1 {
        return vec![f(0..n)];
    }
    let ranges = split_ranges(n, t);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                scope.spawn(move || {
                    let _span =
                        fastgl_telemetry::span(fastgl_telemetry::names::SPAN_PARALLEL_CHUNK)
                            .with_u64("first", range.start as u64)
                            .with_u64("items", range.len() as u64);
                    f(range)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Maps `f` over `items` in parallel, preserving order.
///
/// Each worker maps a contiguous sub-slice; results are concatenated in
/// item order, so the output equals the serial `items.iter().map(..)`.
///
/// # Panics
///
/// Panics from `f` propagate to the caller.
pub fn par_map_collect<T, O, F>(items: &[T], grain: usize, f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(usize, &T) -> O + Sync,
{
    let chunks = par_chunk_results(items.len(), grain, |range| {
        range.clone().map(|i| f(i, &items[i])).collect::<Vec<O>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Default grain for cheap elementwise kernels (elements per thread).
pub const ELEMWISE_GRAIN: usize = 16 * 1024;

/// Default grain for row-copy kernels such as feature gather (rows).
pub const GATHER_GRAIN_ROWS: usize = 256;

/// Default grain for per-seed sampling work (seeds per thread).
pub const SAMPLE_GRAIN_SEEDS: usize = 64;

/// Approximate multiply-add budget per thread used to derive matmul grains.
pub const MATMUL_GRAIN_FLOPS: usize = 64 * 1024;

#[cfg(test)]
pub(crate) mod test_util {
    use std::sync::Mutex;

    /// Serializes tests that mutate the global thread override.
    static LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` with the process-wide thread count pinned to `n`.
    pub(crate) fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        super::set_num_threads(n);
        let r = f();
        super::set_num_threads(0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::with_threads;
    use super::*;

    #[test]
    fn split_ranges_partition() {
        for n in [0usize, 1, 7, 100] {
            for t in [1usize, 2, 3, 8] {
                let ranges = split_ranges(n, t);
                assert_eq!(ranges.len(), t);
                assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), n);
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor);
                    cursor = r.end;
                }
                assert_eq!(cursor, n);
            }
        }
    }

    #[test]
    fn row_chunks_cover_all_rows_once() {
        for threads in [1usize, 2, 8] {
            with_threads(threads, || {
                let mut data = vec![0u64; 40 * 3];
                par_row_chunks_mut(&mut data, 3, 1, |first_row, chunk| {
                    for (i, row) in chunk.chunks_mut(3).enumerate() {
                        for x in row.iter_mut() {
                            *x += (first_row + i) as u64 + 1;
                        }
                    }
                });
                for (r, row) in data.chunks(3).enumerate() {
                    assert!(row.iter().all(|&x| x == r as u64 + 1), "row {r}: {row:?}");
                }
            });
        }
    }

    #[test]
    fn small_inputs_run_inline() {
        with_threads(8, || {
            let mut data = vec![1.0f32; 8];
            // grain 1000 rows >> 8 rows: must not spawn (observable only
            // through correctness here, but exercises the serial path).
            par_row_chunks_mut(&mut data, 1, 1000, |_, chunk| {
                for x in chunk {
                    *x *= 2.0;
                }
            });
            assert!(data.iter().all(|&x| x == 2.0));
        });
    }

    #[test]
    fn chunk_results_arrive_in_order() {
        for threads in [1usize, 3, 8] {
            with_threads(threads, || {
                let parts = par_chunk_results(100, 1, |r| r.clone());
                let flat: Vec<usize> = parts.into_iter().flatten().collect();
                assert_eq!(flat, (0..100).collect::<Vec<_>>());
            });
        }
    }

    #[test]
    fn map_collect_matches_serial_map() {
        let items: Vec<u64> = (0..500).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1usize, 2, 8] {
            let got = with_threads(threads, || par_map_collect(&items, 16, |_, &x| x * 3 + 1));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn zero_row_len_and_empty_are_noops() {
        let mut empty: Vec<f32> = vec![];
        par_row_chunks_mut(&mut empty, 4, 1, |_, _| panic!("must not run"));
        let got = par_chunk_results(0, 1, |r| r.len());
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn plan_threads_respects_cutoff() {
        with_threads(8, || {
            assert_eq!(plan_threads(10, 100), 1);
            assert_eq!(plan_threads(100, 100), 1);
            assert_eq!(plan_threads(800, 100), 8);
            assert_eq!(plan_threads(300, 100), 3);
        });
        with_threads(1, || {
            assert_eq!(plan_threads(1_000_000, 1), 1);
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = with_threads(4, || {
            std::panic::catch_unwind(|| {
                par_chunk_results(100, 1, |r| {
                    if r.start > 0 {
                        panic!("boom");
                    }
                    0usize
                })
            })
        });
        assert!(caught.is_err());
    }
}
