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
//! 2. **No dependencies.** The backend is one process-wide pool of parked
//!    worker threads built from `std::sync::{Mutex, Condvar}`; the build
//!    environment has no crates.io access, so `rayon` is not an option
//!    (see `DESIGN.md` § Execution backend).
//! 3. **Serial below a cutoff.** Callers pass a per-chunk grain; inputs
//!    smaller than one grain run inline on the calling thread so tiny test
//!    fixtures never pay a fork-join.
//!
//! The thread count resolves, in priority order: a programmatic override
//! from [`set_num_threads`] (used by `FastGlConfig::threads`), the
//! `FASTGL_THREADS` environment variable (read once, through
//! [`fastgl_telemetry::settings`]), then all available cores. Every source
//! is capped at [`MAX_THREADS`].
//!
//! The pool runs one job at a time. The caller of a `par_*` call runs its
//! first chunk itself while parked workers claim the others; a call that
//! finds the pool busy (a call nested inside a chunk, or one from another
//! thread such as a second pipeline stage) runs all its chunks inline, in
//! order. Chunk contents never depend on the thread that runs them, so
//! neither choice can change a result.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

use fastgl_telemetry::settings::{self, MAX_THREADS};

/// Programmatic thread-count override; `0` means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `FASTGL_THREADS`, read once; `None` means "not set".
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Sets the backend's thread count for the whole process.
///
/// `0` clears the override, falling back to `FASTGL_THREADS` and then the
/// core count; `1` forces the exact serial execution path.
///
/// # Panics
///
/// If `threads` exceeds [`MAX_THREADS`].
pub fn set_num_threads(threads: usize) {
    assert!(
        threads <= MAX_THREADS,
        "{threads} threads exceed the backend's cap of {MAX_THREADS}"
    );
    OVERRIDE.store(threads, Ordering::SeqCst);
}

/// The thread count the backend would use for a large enough input; never
/// more than [`MAX_THREADS`].
///
/// # Panics
///
/// On the first call without an override, if `FASTGL_THREADS` is not a
/// count from 1 to [`MAX_THREADS`] (see [`fastgl_telemetry::settings`]).
pub fn num_threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    let env = *ENV_THREADS.get_or_init(|| settings::threads().unwrap_or_else(|e| panic!("{e}")));
    env.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(MAX_THREADS)
    })
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

/// The process-wide pool every `par_*` call runs on.
static POOL: Pool = Pool::new();

/// A chunk's closure, with the caller's lifetime erased (see [`erase`]).
type Chunk = &'static (dyn Fn(usize) + Sync);

/// Chunks run outside the pool's lock, and nothing that runs under it
/// panics, so the lock is never poisoned.
const UNPOISONED: &str = "the pool's lock is never held across a panic";

/// What a panicking chunk unwound with.
type Panic = Box<dyn Any + Send>;

/// A fork-join pool of parked worker threads that runs one job at a time.
///
/// A job is `chunks` calls `f(0)`, …, `f(chunks - 1)`. Its caller runs
/// chunk 0 itself, while the workers claim chunks 1.. in order; the caller
/// then claims whatever is still unclaimed and blocks until every claimed
/// chunk has finished. Workers are spawned on first need, one fewer than
/// the largest job run so far, and then park on a condition variable for
/// the life of the process.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a job is published: parked workers may claim.
    work: Condvar,
    /// Signalled when a job's last running chunk finishes.
    done: Condvar,
}

struct PoolState {
    /// The published job; `Some` until its caller takes it back.
    job: Option<Job>,
    /// Worker threads spawned so far.
    workers: usize,
}

struct Job {
    f: Chunk,
    chunks: usize,
    /// The lowest unclaimed chunk.
    next: usize,
    /// Chunks claimed and not yet finished, the caller's included.
    running: usize,
    /// The first panic of any chunk; once set, no further chunk is claimed.
    panic: Option<Panic>,
}

impl Job {
    fn claim(&mut self) -> Option<usize> {
        (self.next < self.chunks).then(|| {
            self.next += 1;
            self.running += 1;
            self.next - 1
        })
    }

    fn finish(&mut self, result: Result<(), Panic>) {
        self.running -= 1;
        if let Err(payload) = result {
            self.next = self.chunks;
            self.panic.get_or_insert(payload);
        }
    }
}

impl Pool {
    const fn new() -> Self {
        Pool {
            state: Mutex::new(PoolState {
                job: None,
                workers: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect(UNPOISONED)
    }

    /// Runs `f(0)`, …, `f(chunks - 1)`, each exactly once, on up to
    /// `chunks` threads, and returns when all have finished. If the pool is
    /// busy with another job (a nested call, or another thread's call), the
    /// chunks run inline, in order, on the calling thread.
    ///
    /// # Panics
    ///
    /// A panic in any chunk is re-raised here after every claimed chunk
    /// has finished; chunks not yet claimed by then are skipped.
    fn run<'a>(&'static self, chunks: usize, f: &'a (dyn Fn(usize) + Sync + 'a)) {
        let mut state = self.lock();
        if chunks <= 1 || state.job.is_some() {
            drop(state);
            (0..chunks).for_each(f);
            return;
        }
        self.grow(&mut state, chunks - 1);
        state.job = Some(Job {
            f: erase(f),
            chunks,
            next: 1,
            running: 1,
            panic: None,
        });
        drop(state);
        for _ in 1..chunks {
            self.work.notify_one();
        }
        let mut chunk = 0;
        let mut state = loop {
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(chunk)));
            let mut state = self.lock();
            let job = state
                .job
                .as_mut()
                .expect("the caller's job stays published");
            job.finish(result);
            match job.claim() {
                Some(next) => chunk = next,
                None => break state,
            }
        };
        while state.job.as_ref().is_some_and(|job| job.running > 0) {
            state = self.done.wait(state).expect(UNPOISONED);
        }
        let job = state.job.take().expect("the caller's job stays published");
        drop(state);
        if let Some(payload) = job.panic {
            panic::resume_unwind(payload);
        }
    }

    /// Worker threads spawned so far.
    #[cfg(test)]
    fn workers(&self) -> usize {
        self.lock().workers
    }

    /// Spawns workers until there are at least `want`. A worker that cannot
    /// be spawned is not an error: the caller claims the chunks it would
    /// have run.
    fn grow(&'static self, state: &mut PoolState, want: usize) {
        while state.workers < want {
            let spawned = std::thread::Builder::new()
                .name(format!("fastgl-worker-{}", state.workers))
                .spawn(move || self.work_loop());
            if spawned.is_err() {
                return;
            }
            state.workers += 1;
        }
    }

    /// A worker's life: claim a chunk of the published job, run it outside
    /// the lock, report it, and park when there is nothing to claim.
    fn work_loop(&self) {
        let mut state = self.lock();
        loop {
            let claimed = state
                .job
                .as_mut()
                .and_then(|job| job.claim().map(|chunk| (job.f, chunk)));
            match claimed {
                Some((f, chunk)) => {
                    drop(state);
                    let result = panic::catch_unwind(AssertUnwindSafe(|| f(chunk)));
                    state = self.lock();
                    let job = state
                        .job
                        .as_mut()
                        .expect("a job outlives its claimed chunks");
                    job.finish(result);
                    if job.running == 0 {
                        self.done.notify_one();
                    }
                }
                None => {
                    state = self.work.wait(state).expect(UNPOISONED);
                }
            }
        }
    }
}

/// Extends the lifetime of a job's closure so parked workers can hold it.
///
/// This is the pool's only `unsafe`, and [`Pool::run`] is its only caller.
#[allow(unsafe_code)]
fn erase<'a>(f: &'a (dyn Fn(usize) + Sync + 'a)) -> Chunk {
    // SAFETY: the erased reference is stored only in the `Job` that
    // `Pool::run` publishes, and a worker calls it only for a chunk it
    // claimed. `run` does not return (or unwind) before the job is taken
    // back out of the pool with no chunk running, so no call outlives `'a`:
    // - `run` blocks until `running` is 0, and after its own claims end no
    //   chunk can be claimed (`next == chunks`), so every chunk a worker
    //   claimed has finished;
    // - every chunk, the caller's and each worker's, runs under
    //   `catch_unwind`, so no panic leaves `run` before that wait; the
    //   first payload is re-raised after it;
    // - the pool's lock is never poisoned, because no code panics while
    //   holding it, so the `expect`s on it cannot unwind out of the wait.
    unsafe { std::mem::transmute::<&'a (dyn Fn(usize) + Sync + 'a), Chunk>(f) }
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
    row_chunks_on(&POOL, data, row_len, grain_rows, f);
}

/// One chunk's first row and rows, until the chunk takes them.
type RowSlot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

/// [`par_row_chunks_mut`] on a given pool.
fn row_chunks_on<T, F>(pool: &'static Pool, data: &mut [T], row_len: usize, grain_rows: usize, f: F)
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
    // Each chunk's rows wait in a slot of their own until the one thread
    // that runs the chunk takes them out.
    let mut rest = data;
    let slots: Vec<RowSlot<'_, T>> = split_ranges(rows, t)
        .into_iter()
        .map(|range| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * row_len);
            rest = tail;
            Mutex::new(Some((range.start, head)))
        })
        .collect();
    pool.run(t, &|i| {
        let (first, chunk) = slots[i]
            .lock()
            .expect("a row slot is locked only to take it")
            .take()
            .expect("each chunk runs once");
        let _span = fastgl_telemetry::span(fastgl_telemetry::names::SPAN_PARALLEL_CHUNK);
        f(first, chunk)
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
    chunk_results_on(&POOL, n, grain, f)
}

/// [`par_chunk_results`] on a given pool.
fn chunk_results_on<O, F>(pool: &'static Pool, n: usize, grain: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(Range<usize>) -> O + Sync,
{
    let t = plan_threads(n, grain);
    if t <= 1 {
        return vec![f(0..n)];
    }
    let ranges = split_ranges(n, t);
    let slots: Vec<Mutex<Option<O>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    pool.run(t, &|i| {
        let range = ranges[i].clone();
        let _span = fastgl_telemetry::span(fastgl_telemetry::names::SPAN_PARALLEL_CHUNK);
        let out = f(range);
        *slots[i]
            .lock()
            .expect("a result slot is locked only to fill it") = Some(out);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a result slot is locked only to fill it")
                .expect("every chunk ran")
        })
        .collect()
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
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

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

    /// A pool of the test's own. The process-wide pool may be busy with
    /// another test's job, which would send a call down the inline path; a
    /// private pool is idle, so its chunks 1.. reach its workers.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    /// Fills row `i` with `[i + 1, i² + 1]` through `par_*` calls nested
    /// inside every outer chunk.
    fn nested_rows() -> Vec<u64> {
        let parts = par_chunk_results(64, 1, |outer| {
            let mut rows = vec![0u64; outer.len() * 2];
            par_row_chunks_mut(&mut rows, 2, 1, |first, chunk| {
                for (i, row) in chunk.chunks_mut(2).enumerate() {
                    let index = (outer.start + first + i) as u64;
                    row.copy_from_slice(&[index, index * index]);
                }
            });
            par_map_collect(&rows, 1, |_, &x| x + 1)
        });
        parts.concat()
    }

    #[test]
    fn nested_calls_match_serial() {
        let serial = with_threads(1, nested_rows);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                with_threads(threads, nested_rows),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn concurrent_callers_match_serial() {
        let sums = |n: usize| par_chunk_results(n, 1, |r| r.map(|i| i * i).sum::<usize>());
        let rows = |n: usize| {
            let mut data = vec![0usize; n * 4];
            par_row_chunks_mut(&mut data, 4, 1, |first, chunk| {
                for (i, row) in chunk.chunks_mut(4).enumerate() {
                    row.fill(first + i);
                }
            });
            data
        };
        let serial: Vec<_> = with_threads(1, || {
            (0..4).map(|c| (sums(100 + c), rows(50 + c))).collect()
        });
        with_threads(8, || {
            std::thread::scope(|scope| {
                for (caller, expect) in serial.iter().enumerate() {
                    scope.spawn(move || {
                        for _ in 0..200 {
                            let sum: usize = sums(100 + caller).iter().sum();
                            assert_eq!(sum, expect.0.iter().sum::<usize>());
                            assert_eq!(rows(50 + caller), expect.1);
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn worker_chunk_panic_propagates_and_the_pool_recovers() {
        let pool = private_pool();
        with_threads(2, || {
            // Both chunks meet at the barrier, so chunk 1 runs on a worker
            // while the caller is still inside chunk 0.
            let barrier = Barrier::new(2);
            let caught = std::panic::catch_unwind(|| {
                chunk_results_on(pool, 100, 1, |r| {
                    barrier.wait();
                    if r.start > 0 {
                        panic!("worker chunk");
                    }
                    r.len()
                })
            });
            let payload = caught.expect_err("the worker's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker chunk"));
            let parts = chunk_results_on(pool, 100, 1, |r| {
                barrier.wait();
                r
            });
            assert_eq!(parts, vec![0..50, 50..100]);
        });
    }

    #[test]
    fn caller_chunk_panic_waits_for_worker_chunks() {
        let pool = private_pool();
        let mut data = vec![0u32; 64];
        let finished = AtomicBool::new(false);
        let barrier = Barrier::new(2);
        let caught = with_threads(2, || {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                row_chunks_on(pool, &mut data, 1, 1, |first, chunk| {
                    barrier.wait();
                    if first == 0 {
                        panic!("caller chunk");
                    }
                    // Still writing into the borrowed buffer well after the
                    // caller's chunk has unwound.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    chunk.fill(7);
                    finished.store(true, Ordering::SeqCst);
                })
            }))
        });
        assert!(caught.is_err());
        assert!(
            finished.load(Ordering::SeqCst),
            "returned before the worker"
        );
        assert!(data[..32].iter().all(|&x| x == 0));
        assert!(data[32..].iter().all(|&x| x == 7));
    }

    #[test]
    fn pool_grows_only_to_the_largest_job() {
        let pool = private_pool();
        for (threads, workers) in [(1usize, 0usize), (8, 7), (2, 7)] {
            with_threads(threads, || {
                let parts = chunk_results_on(pool, 100, 1, |r| r);
                let flat: Vec<usize> = parts.into_iter().flatten().collect();
                assert_eq!(flat, (0..100).collect::<Vec<_>>());
                let mut data = vec![0usize; 40];
                row_chunks_on(pool, &mut data, 1, 1, |first, chunk| {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x = first + i;
                    }
                });
                assert_eq!(data, (0..40).collect::<Vec<_>>());
            });
            assert_eq!(pool.workers(), workers, "after a {threads}-thread call");
        }
    }
}
