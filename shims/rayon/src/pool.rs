//! The persistent global thread pool behind the shim's parallel
//! iterators.
//!
//! The pool is lazily initialized on the first parallel operation that
//! can actually use it, spawns `RAYON_NUM_THREADS - 1` worker threads
//! (the submitting thread is the remaining lane) and keeps them alive
//! for the life of the process — a `par_iter` call submits one job
//! and never spawns an OS thread again.
//!
//! Work distribution is **shared-index stealing**: a job is a fixed set
//! of `n_chunks` tasks and a single atomic cursor; the submitter and
//! every engaged worker repeatedly `fetch_add` the cursor and execute
//! the chunk they claimed, so a slow chunk never blocks the others and
//! load-balancing is automatic. A chunk executed by a pool worker
//! (rather than the submitting thread) counts as a *steal* in
//! [`PoolStats`].
//!
//! Two rules keep thread count bounded and results deterministic:
//!
//! * **No nesting on workers.** A parallel operation issued from inside
//!   a pool worker runs inline on that worker (same chunk structure,
//!   zero new threads), so nested fan-outs — a Monte-Carlo replication
//!   inside a range sweep — never oversubscribe beyond
//!   `RAYON_NUM_THREADS` live threads.
//! * **Thread count never affects chunking.** Chunk boundaries are
//!   planned by the iterator layer from `(len, min_len)` only; the pool
//!   just executes chunks. Combined with order-preserving collection
//!   and in-order partial reduction, every result is bit-identical at
//!   any thread count.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One queued parallel operation: `n_chunks` tasks claimed from a shared
/// atomic cursor by at most `cap` threads (submitter included).
struct Job {
    /// The chunk executor, lifetime-erased to `'static`. Sound because
    /// the submitter blocks in [`run_chunks`] until `completed ==
    /// n_chunks`, and no thread dereferences `task` after failing to
    /// claim a chunk.
    task: &'static (dyn Fn(usize) + Sync),
    n_chunks: usize,
    /// Next chunk to claim; claims at/after `n_chunks` mean "exhausted".
    cursor: AtomicUsize,
    /// Chunks fully executed; the job is done at `n_chunks`.
    completed: AtomicUsize,
    /// Maximum threads allowed to engage (thread-cap scope, see
    /// [`with_thread_cap`]).
    cap: usize,
    /// Threads currently registered on this job.
    engaged: AtomicUsize,
    /// Bit per claimant (bit 0 = submitter, bit `w+1` = worker `w`,
    /// saturating at 63) — feeds the utilization histogram.
    claimants: AtomicU64,
    /// Set once any chunk panics; remaining chunks are skipped.
    poisoned: AtomicBool,
    /// First panic payload, re-thrown on the submitting thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion signal for the submitting thread.
    done_mx: Mutex<()>,
    done_cv: Condvar,
}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
}

/// Cumulative pool counters (process-global, survive across jobs).
struct Stats {
    jobs: AtomicU64,
    tasks: AtomicU64,
    steals: AtomicU64,
    queue_depth_peak: AtomicU64,
    threads_spawned: AtomicU64,
    utilization: [AtomicU64; UTILIZATION_BUCKETS],
}

/// Number of utilization buckets: bucket `i` counts jobs whose engaged
/// fraction fell in `(i/10, (i+1)/10]`.
pub const UTILIZATION_BUCKETS: usize = 10;

static STATS: Stats = Stats {
    jobs: AtomicU64::new(0),
    tasks: AtomicU64::new(0),
    steals: AtomicU64::new(0),
    queue_depth_peak: AtomicU64::new(0),
    threads_spawned: AtomicU64::new(0),
    utilization: [const { AtomicU64::new(0) }; UTILIZATION_BUCKETS],
};

thread_local! {
    /// `Some(worker index)` on pool worker threads, `None` elsewhere.
    static WORKER_ID: Cell<Option<usize>> = const { Cell::new(None) };
    /// Per-thread engagement cap installed by [`with_thread_cap`].
    static THREAD_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The configured parallelism: `RAYON_NUM_THREADS` when set to a
/// positive integer (which may exceed the physical core count),
/// otherwise `std::thread::available_parallelism()`. Read once, at the
/// first parallel operation.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// True on a pool worker thread (nested parallel calls run inline there).
pub fn is_worker_thread() -> bool {
    WORKER_ID.with(|w| w.get().is_some())
}

/// Runs `f` with at most `cap` threads (including the calling thread)
/// engaging on any parallel operation it submits. `cap = 1` executes
/// everything inline on the caller. Results are bit-identical at any
/// cap because chunking never depends on thread count — this is the
/// lever the determinism tests and the `parallel_scaling` bench use to
/// compare 1/2/N-thread executions inside one process.
pub fn with_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    assert!(cap >= 1, "thread cap must be at least 1");
    let prev = THREAD_CAP.with(|c| c.replace(cap));
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// A frozen view of the pool's cumulative counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel operations that went through the shared queue, counted
    /// as each completes (inline executions are not jobs).
    pub jobs: u64,
    /// Chunks executed, inline or pooled.
    pub tasks_executed: u64,
    /// Chunks executed by a pool worker rather than the submitting
    /// thread.
    pub steals: u64,
    /// High-water mark of the shared queue depth at submission.
    pub queue_depth_peak: u64,
    /// Worker threads ever spawned — at most `current_num_threads() - 1`
    /// for the life of the process.
    pub threads_spawned: u64,
    /// Per-job engaged-thread fraction, bucketed into
    /// [`UTILIZATION_BUCKETS`] equal bins of `(0, 1]`.
    pub worker_utilization: [u64; UTILIZATION_BUCKETS],
}

/// Snapshots the cumulative pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        // Read first, with acquire: see the note where `jobs` is counted.
        jobs: STATS.jobs.load(Ordering::Acquire),
        tasks_executed: STATS.tasks.load(Ordering::Relaxed),
        steals: STATS.steals.load(Ordering::Relaxed),
        queue_depth_peak: STATS.queue_depth_peak.load(Ordering::Relaxed),
        threads_spawned: STATS.threads_spawned.load(Ordering::Relaxed),
        worker_utilization: std::array::from_fn(|i| STATS.utilization[i].load(Ordering::Relaxed)),
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = current_num_threads().saturating_sub(1);
        for w in 0..workers {
            std::thread::Builder::new()
                .name(format!("pb-rayon-{w}"))
                .spawn(move || worker_loop(w))
                .expect("rayon shim: failed to spawn pool worker");
            STATS.threads_spawned.fetch_add(1, Ordering::Relaxed);
        }
        Pool { queue: Mutex::new(VecDeque::new()), work_cv: Condvar::new() }
    })
}

fn worker_loop(id: usize) {
    WORKER_ID.with(|w| w.set(Some(id)));
    // Workers are spawned from inside pool()'s get_or_init; block until
    // the cell publishes the initialized Pool.
    let pool = POOL.wait();
    let mut queue = pool.queue.lock().expect("rayon shim: pool queue poisoned");
    loop {
        // Drop jobs with no unclaimed chunks; find one with spare cap.
        queue.retain(|j| j.cursor.load(Ordering::Relaxed) < j.n_chunks);
        let job = queue.iter().find(|j| j.engaged.load(Ordering::Relaxed) < j.cap).cloned();
        match job {
            Some(job) => {
                drop(queue);
                work_on(&job, Some(id));
                queue = pool.queue.lock().expect("rayon shim: pool queue poisoned");
            }
            None => {
                queue = pool.work_cv.wait(queue).expect("rayon shim: pool queue poisoned");
            }
        }
    }
}

/// Claims and executes chunks of `job` until the cursor is exhausted.
fn work_on(job: &Job, worker: Option<usize>) {
    if job.engaged.fetch_add(1, Ordering::AcqRel) >= job.cap {
        job.engaged.fetch_sub(1, Ordering::AcqRel);
        return;
    }
    let bit = 1u64 << worker.map_or(0, |w| (w + 1).min(63));
    job.claimants.fetch_or(bit, Ordering::Relaxed);
    loop {
        let c = job.cursor.fetch_add(1, Ordering::AcqRel);
        if c >= job.n_chunks {
            break;
        }
        if !job.poisoned.load(Ordering::Relaxed) {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (job.task)(c))) {
                job.poisoned.store(true, Ordering::Relaxed);
                let mut slot = job.panic.lock().expect("rayon shim: panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
        STATS.tasks.fetch_add(1, Ordering::Relaxed);
        if worker.is_some() {
            STATS.steals.fetch_add(1, Ordering::Relaxed);
        }
        if job.completed.fetch_add(1, Ordering::AcqRel) + 1 == job.n_chunks {
            let _guard = job.done_mx.lock().expect("rayon shim: done lock poisoned");
            job.done_cv.notify_all();
        }
    }
}

/// Executes `task(c)` exactly once for every `c in 0..n_chunks`,
/// blocking until all chunks completed; panics in chunks are re-thrown
/// here. Runs inline (sequentially, same chunk order) when the
/// effective parallelism is 1, when there is a single chunk, or when
/// called from a pool worker — the nesting rule that prevents
/// oversubscription.
pub(crate) fn run_chunks(n_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    if n_chunks == 0 {
        return;
    }
    let cap = THREAD_CAP.with(|c| c.get()).min(current_num_threads());
    if n_chunks == 1 || cap <= 1 || is_worker_thread() {
        for c in 0..n_chunks {
            task(c);
        }
        STATS.tasks.fetch_add(n_chunks as u64, Ordering::Relaxed);
        return;
    }

    let pool = pool();
    // SAFETY: the job's task reference is erased to 'static, but this
    // function does not return until `completed == n_chunks`, and no
    // thread touches `task` after its chunk claim fails — so the
    // reference never outlives the borrow it came from.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job {
        task,
        n_chunks,
        cursor: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        cap,
        engaged: AtomicUsize::new(0),
        claimants: AtomicU64::new(0),
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        done_mx: Mutex::new(()),
        done_cv: Condvar::new(),
    });
    {
        let mut queue = pool.queue.lock().expect("rayon shim: pool queue poisoned");
        queue.push_back(Arc::clone(&job));
        let depth = queue.len() as u64;
        STATS.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }
    pool.work_cv.notify_all();

    // The submitter is a full participant: it claims chunks like any
    // worker, so a pool of size N runs N lanes, not N+1.
    work_on(&job, None);

    // Wait for chunks claimed by workers to finish.
    {
        let mut guard = job.done_mx.lock().expect("rayon shim: done lock poisoned");
        while job.completed.load(Ordering::Acquire) < job.n_chunks {
            guard = job.done_cv.wait(guard).expect("rayon shim: done lock poisoned");
        }
    }
    // The job is exhausted; drop it from the queue if a worker has not
    // already pruned it.
    {
        let mut queue = pool.queue.lock().expect("rayon shim: pool queue poisoned");
        queue.retain(|j| !Arc::ptr_eq(j, &job));
    }

    let engaged = job.claimants.load(Ordering::Relaxed).count_ones() as f64;
    let possible = job.cap.min(job.n_chunks) as f64;
    let utilization = (engaged / possible).clamp(0.0, 1.0);
    let bucket = ((utilization * UTILIZATION_BUCKETS as f64).ceil() as usize)
        .clamp(1, UTILIZATION_BUCKETS)
        - 1;
    STATS.utilization[bucket].fetch_add(1, Ordering::Relaxed);
    // A job counts once it has landed in its bucket. The release pairs
    // with the acquire load in `stats`, which reads `jobs` before the
    // buckets, so any reader sees Σ utilization ≥ jobs.
    STATS.jobs.fetch_add(1, Ordering::Release);

    let payload = job.panic.lock().expect("rayon shim: panic slot poisoned").take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}
