//! Data-parallel helpers built on a persistent worker pool.
//!
//! The heavy kernels in this crate (matrix products, spectral
//! reconstruction) and the engine's per-round tile-pair execution are
//! embarrassingly parallel. Earlier revisions spawned fresh scoped threads
//! for every call, which costs tens of microseconds per fork — small for a
//! one-off dense matmul, but ruinous inside the solver's round loop, which
//! fans out thousands of times per anneal. This module instead keeps one
//! process-wide pool of long-lived workers that sleep on a condvar between
//! jobs, so steady-state dispatch is a mutex lock plus a wakeup.
//!
//! Design notes:
//!
//! * **One job at a time.** A job is a counter of `tasks` indices plus an
//!   erased `Fn(usize)` closure; workers and the calling thread pull
//!   indices from a shared atomic until the range is drained, which gives
//!   dynamic load balancing for free. Posting while another job is in
//!   flight blocks until the slot frees — jobs are short and callers that
//!   overlap are themselves pool tasks (see next point).
//! * **Nested calls run inline.** Pool tasks that call back into this
//!   module execute serially on their own thread; the outermost level of
//!   parallelism wins. This keeps batch sweeps (outer [`parallel_map`])
//!   from deadlocking against, or oversubscribing with, the engine's inner
//!   per-pair parallelism.
//! * **Thread count is policy, not topology.** `SOPHIE_THREADS` is read at
//!   every call, so a single process can observe different settings (the
//!   determinism tests rely on this). The pool lazily grows to the largest
//!   concurrency ever requested and parks surplus workers; correctness
//!   never depends on the count because callers are required to make task
//!   results independent of execution order.
//! * **Panics propagate.** A panicking task poisons the job; the posting
//!   thread re-panics after the job drains, and the pool stays usable.
//! * **Observation happens off the pool.** Solver instrumentation
//!   (`sophie-solve`'s `SolveObserver` events) is emitted only from the
//!   thread that posted the job, after the posting call returns — never
//!   from inside a pool task. Observers therefore need no synchronization,
//!   and event order is independent of `SOPHIE_THREADS`.
//!
//! This is the only module in the crate allowed to use `unsafe`: handing a
//! borrowing closure to long-lived threads requires erasing its lifetime
//! (sound because the posting call blocks until every task has executed),
//! and the chunking helpers share one base pointer across tasks that write
//! provably disjoint regions. Each block carries its SAFETY argument.

#![allow(unsafe_code)]

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Returns the number of worker threads to use for a job with `items`
/// independent units of work.
///
/// Capped by available hardware parallelism and by `items` itself, and at
/// least 1. Honors the `SOPHIE_THREADS` environment variable when set, which
/// keeps experiment runs reproducible on shared machines. Results of the
/// helpers in this module never depend on the value — only wall-clock time
/// does.
#[must_use]
pub fn worker_count(items: usize) -> usize {
    let hw = std::env::var("SOPHIE_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
    hw.min(items).max(1)
}

/// Hard cap on pool size, protecting against absurd `SOPHIE_THREADS`.
const MAX_POOL_WORKERS: usize = 128;

thread_local! {
    /// Set while the current thread is executing pool tasks (worker threads
    /// permanently; the posting thread for the duration of its job). Nested
    /// parallel calls observe it and degrade to serial inline execution.
    static IN_POOL_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A posted job: `tasks` indices to feed through an erased closure.
struct Job {
    /// Erased `&'call (dyn Fn(usize) + Sync)`. Soundness: the posting
    /// thread does not return from [`Pool::run`] until `completed == tasks`,
    /// and workers only dereference this for indices claimed below `tasks`,
    /// every one of which is counted in `completed` — so the closure is
    /// alive for every dereference.
    task: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Number of task indices fully executed.
    completed: AtomicUsize,
    /// Total task indices.
    tasks: usize,
    /// Worker seats still available (the posting thread is not counted).
    seats: AtomicUsize,
    /// Set if any task panicked.
    panicked: AtomicBool,
}

// SAFETY: the raw closure pointer is only dereferenced while the posting
// thread provably keeps the closure alive (see the `task` field contract),
// and `dyn Fn(usize) + Sync` is safe to call from many threads at once.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Pulls and executes task indices until the range drains.
    fn work(&self, shared: &PoolShared) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return;
            }
            // SAFETY: `i < self.tasks`, so per the `task` field contract the
            // closure is still alive.
            let task = unsafe { &*self.task };
            if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            let done = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
            if done == self.tasks {
                // Lock before notifying so the posting thread cannot check
                // the condition and sleep between our increment and notify.
                drop(shared.inner.lock().unwrap());
                shared.done_cv.notify_all();
            }
        }
    }
}

struct PoolInner {
    /// Bumped on every post; sleeping workers watch it for new work.
    epoch: u64,
    /// The in-flight job, if any.
    job: Option<Arc<Job>>,
    /// Worker threads spawned so far.
    workers: usize,
}

struct PoolShared {
    inner: Mutex<PoolInner>,
    /// Workers sleep here between jobs.
    work_cv: Condvar,
    /// The posting thread sleeps here until its job drains.
    done_cv: Condvar,
    /// Posting threads sleep here while another job occupies the slot.
    free_cv: Condvar,
}

fn pool() -> &'static Arc<PoolShared> {
    static POOL: OnceLock<Arc<PoolShared>> = OnceLock::new();
    POOL.get_or_init(|| {
        Arc::new(PoolShared {
            inner: Mutex::new(PoolInner {
                epoch: 0,
                job: None,
                workers: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            free_cv: Condvar::new(),
        })
    })
}

fn worker_loop(shared: Arc<PoolShared>) {
    IN_POOL_TASK.with(|f| f.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut inner = shared.inner.lock().unwrap();
            loop {
                if inner.epoch != seen_epoch {
                    seen_epoch = inner.epoch;
                    if let Some(job) = inner.job.clone() {
                        break job;
                    }
                }
                inner = shared.work_cv.wait(inner).unwrap();
            }
        };
        // Respect the job's requested concurrency: claim a seat or skip.
        if job
            .seats
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
            .is_ok()
        {
            job.work(&shared);
        }
    }
}

/// Grows the pool to at least `wanted` workers (capped).
fn ensure_workers(shared: &'static Arc<PoolShared>, wanted: usize) {
    let wanted = wanted.min(MAX_POOL_WORKERS);
    let mut inner = shared.inner.lock().unwrap();
    while inner.workers < wanted {
        let id = inner.workers;
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("sophie-pool-{id}"))
            .spawn(move || worker_loop(shared))
            .expect("failed to spawn pool worker");
        inner.workers += 1;
    }
}

/// Runs `f(0)..f(tasks-1)` exactly once each, possibly concurrently on the
/// persistent pool, returning once all have finished.
///
/// The closure must make its result independent of which thread runs which
/// index and in what order (the usual contract: disjoint writes, no
/// order-sensitive accumulation). Concurrency is `worker_count(tasks)`;
/// with a count of 1, inside an existing pool task, or for trivial jobs the
/// indices run inline on the calling thread.
///
/// # Panics
///
/// Panics if any task panicked (after all tasks have drained, so the pool
/// and all borrowed data are back in a consistent state).
pub fn for_each_task<F>(tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if tasks == 0 {
        return;
    }
    // A single task skips `worker_count`: without `SOPHIE_THREADS` that
    // reads the cgroup CPU quota, about 14 µs on a Linux VM.
    let threads = if tasks == 1 { 1 } else { worker_count(tasks) };
    if threads <= 1 || IN_POOL_TASK.with(std::cell::Cell::get) {
        for i in 0..tasks {
            f(i);
        }
        return;
    }

    let shared = pool();
    ensure_workers(shared, threads - 1);

    let narrowed: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: lifetime erasure only; see the `Job::task` field contract —
    // this function does not return until every claimed index has executed.
    let erased: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(narrowed)
    };
    let job = Arc::new(Job {
        task: erased,
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        tasks,
        seats: AtomicUsize::new(threads - 1),
        panicked: AtomicBool::new(false),
    });

    {
        let mut inner = shared.inner.lock().unwrap();
        while inner.job.is_some() {
            inner = shared.free_cv.wait(inner).unwrap();
        }
        inner.job = Some(Arc::clone(&job));
        inner.epoch += 1;
        shared.work_cv.notify_all();
    }

    // Participate from the posting thread; nested calls inside our tasks
    // must inline, exactly as they do on dedicated workers.
    IN_POOL_TASK.with(|flag| flag.set(true));
    job.work(shared);
    IN_POOL_TASK.with(|flag| flag.set(false));

    {
        let mut inner = shared.inner.lock().unwrap();
        while job.completed.load(Ordering::Acquire) < tasks {
            inner = shared.done_cv.wait(inner).unwrap();
        }
        inner.job = None;
        shared.free_cv.notify_one();
    }

    assert!(
        !job.panicked.load(Ordering::Relaxed),
        "a parallel task panicked"
    );
}

/// Pointer wrapper asserting that tasks touch disjoint regions.
struct SyncPtr<T>(*mut T);
// SAFETY: callers hand each task index a region no other index touches.
unsafe impl<T> Send for SyncPtr<T> {}
unsafe impl<T> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Runs `f(chunk_index, chunk)` over mutable chunks of `out`, where `out`
/// is split into `chunks` nearly-equal contiguous pieces, each processed as
/// one pool task. `chunk_rows` is the number of items per chunk except
/// possibly the last.
///
/// Returns the chunk size used so callers can map chunk indices back to
/// global offsets.
///
/// # Panics
///
/// Panics if `chunks == 0`.
pub fn for_each_chunk_mut<T, F>(out: &mut [T], chunks: usize, f: F) -> usize
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunks > 0, "for_each_chunk_mut: chunks must be positive");
    if out.is_empty() {
        return 0;
    }
    let len = out.len();
    let chunk_len = len.div_ceil(chunks);
    let n_chunks = len.div_ceil(chunk_len);
    let base = SyncPtr(out.as_mut_ptr());
    for_each_task(n_chunks, |idx| {
        let start = idx * chunk_len;
        let this_len = chunk_len.min(len - start);
        // SAFETY: chunk `idx` covers `start..start + this_len`; ranges for
        // distinct indices are disjoint and within `out`.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), this_len) };
        f(idx, chunk);
    });
    chunk_len
}

/// Like [`for_each_chunk_mut`], but for a matrix buffer of `row_len`-wide
/// rows: chunks are always whole numbers of rows, so `f(first_row, rows)`
/// can safely reinterpret its chunk with `chunks_mut(row_len)`.
///
/// # Panics
///
/// Panics if `chunks == 0`, `row_len == 0`, or `out.len()` is not a
/// multiple of `row_len`.
pub fn for_each_row_chunk_mut<T, F>(out: &mut [T], row_len: usize, chunks: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        chunks > 0,
        "for_each_row_chunk_mut: chunks must be positive"
    );
    assert!(
        row_len > 0,
        "for_each_row_chunk_mut: row_len must be positive"
    );
    assert_eq!(
        out.len() % row_len,
        0,
        "for_each_row_chunk_mut: buffer is not whole rows"
    );
    let rows = out.len() / row_len;
    if rows == 0 {
        return;
    }
    let rows_per_chunk = rows.div_ceil(chunks).max(1);
    let n_chunks = rows.div_ceil(rows_per_chunk);
    let base = SyncPtr(out.as_mut_ptr());
    for_each_task(n_chunks, |idx| {
        let first_row = idx * rows_per_chunk;
        let n_rows = rows_per_chunk.min(rows - first_row);
        // SAFETY: chunk `idx` covers rows `first_row..first_row + n_rows`;
        // row ranges for distinct indices are disjoint and within `out`.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(first_row * row_len), n_rows * row_len)
        };
        f(first_row, chunk);
    });
}

/// Maps `f` over `0..jobs` in parallel and collects results in order.
///
/// Used by the experiment harness to fan independent simulation runs across
/// cores. Each job index is executed exactly once, one pool task per index
/// (dynamic load balancing across workers).
pub fn parallel_map<R, F>(jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = (0..jobs).map(|_| None).collect();
    let base = SyncPtr(slots.as_mut_ptr());
    for_each_task(jobs, |i| {
        // SAFETY: each index writes only its own slot, exactly once.
        unsafe { base.get().add(i).write(Some(f(i))) };
    });
    slots
        .into_iter()
        .map(|s| s.expect("parallel_map: job not executed"))
        .collect()
}

/// Number of persistent worker threads currently alive in the pool
/// (diagnostics only; the posting thread is not counted).
#[must_use]
pub fn pool_workers() -> usize {
    pool().inner.lock().unwrap().workers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_is_at_least_one_and_at_most_items() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
        assert!(worker_count(3) <= 3);
    }

    #[test]
    fn chunks_cover_all_elements() {
        let mut data = vec![0u32; 101];
        for_each_chunk_mut(&mut data, 7, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn chunk_indices_map_to_offsets() {
        let mut data = vec![0usize; 100];
        let chunk_len = for_each_chunk_mut(&mut data, 4, |idx, chunk| {
            for x in chunk.iter_mut() {
                *x = idx;
            }
        });
        assert_eq!(chunk_len, 25);
        assert_eq!(data[0], 0);
        assert_eq!(data[99], 3);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let squares = parallel_map(50, |i| i * i);
        assert_eq!(squares.len(), 50);
        for (i, &s) in squares.iter().enumerate() {
            assert_eq!(s, i * i);
        }
    }

    #[test]
    fn parallel_map_zero_jobs_is_empty() {
        let out: Vec<u8> = parallel_map(0, |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_slice_is_a_noop() {
        let mut data: Vec<u8> = Vec::new();
        let n = for_each_chunk_mut(&mut data, 3, |_, _| panic!("should not run"));
        assert_eq!(n, 0);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counters: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        for_each_task(counters.len(), |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        // An outer parallel map whose tasks themselves call parallel
        // helpers; inner calls must inline rather than re-enter the pool.
        let sums = parallel_map(8, |i| {
            let inner = parallel_map(16, move |j| i * 16 + j);
            inner.iter().sum::<usize>()
        });
        for (i, &s) in sums.iter().enumerate() {
            let expect: usize = (0..16).map(|j| i * 16 + j).sum();
            assert_eq!(s, expect);
        }
    }

    #[test]
    fn pool_threads_are_reused_across_jobs() {
        // Warm the pool, then check that repeated jobs don't grow it
        // beyond the requested concurrency cap.
        for _ in 0..50 {
            let _ = parallel_map(32, |i| i);
        }
        assert!(pool_workers() <= MAX_POOL_WORKERS);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            for_each_task(64, |i| {
                assert!(i != 13, "injected failure");
            });
        });
        // On single-threaded hosts the inline path panics directly at
        // i == 13; on the pool path the posting thread re-panics after the
        // job drains. Either way the panic must surface...
        assert!(result.is_err());
        // ...and the pool must still work afterwards.
        let v = parallel_map(40, |i| i + 1);
        assert_eq!(v.iter().sum::<usize>(), (1..=40).sum::<usize>());
    }
}

#[cfg(test)]
mod row_chunk_tests {
    use super::*;

    #[test]
    fn row_chunks_are_always_whole_rows() {
        // 97 rows of width 61, split into 16 chunks: the naive
        // element-count split would break mid-row; this must not.
        let rows = 97;
        let width = 61;
        let mut data = vec![0usize; rows * width];
        for_each_row_chunk_mut(&mut data, width, 16, |first_row, chunk| {
            assert_eq!(chunk.len() % width, 0, "chunk splits a row");
            for (local, row) in chunk.chunks_mut(width).enumerate() {
                for x in row {
                    *x = first_row + local;
                }
            }
        });
        for r in 0..rows {
            for c in 0..width {
                assert_eq!(data[r * width + c], r, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn more_chunks_than_rows_is_fine() {
        let mut data = vec![0u8; 3 * 5];
        for_each_row_chunk_mut(&mut data, 5, 10, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn partial_rows_are_rejected() {
        let mut data = vec![0u8; 7];
        for_each_row_chunk_mut(&mut data, 5, 2, |_, _| {});
    }
}
