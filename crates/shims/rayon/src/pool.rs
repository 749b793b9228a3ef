//! The thread pool under the parallel iterators: OS worker threads, a
//! shared injector queue, and task batches drained through an atomic
//! claim counter.
//!
//! # Scheduling model
//!
//! Every parallel region (a `for_each`, `collect`, `sum`, or one side of a
//! [`join`](crate::join)) becomes one **batch**: a fixed number of tasks
//! plus a `Fn(usize)` body. The caller pushes the batch onto the pool's
//! injector queue, wakes the workers, and then *participates*: it claims
//! tasks from its own batch exactly like a worker would. Workers that pop
//! the batch race the caller (and each other) on a single atomic counter —
//! whoever gets index `i` runs task `i`. Idle workers thereby steal work
//! from busy threads at task granularity, which is the load-balancing
//! property a work-stealing deque buys, with a much smaller trusted base
//! (one mutex, two atomics).
//!
//! Because the caller always participates, a batch makes progress even if
//! every worker is busy — including the nested case where a task body
//! opens its own parallel region. Nested batches cannot deadlock: each
//! region's issuer drains its own batch.
//!
//! # Sleeping and waking
//!
//! An idle worker parks on the pool's condvar, and that condvar guards two
//! pieces of state, both read under the queue's mutex just before parking:
//! the queued batches and the `shutdown` flag. Whoever changes either must
//! do so **while holding that mutex** and notify afterwards — otherwise a
//! worker that has just found the queue empty and `shutdown` false, but has
//! not parked yet, misses the only wake-up it will ever get. Both therefore
//! live *inside* the mutex (`Injector`): `run_batch` pushes under the lock
//! and `ThreadPool::drop` sets `shutdown` under it. (`shutdown` was once an
//! atomic beside the mutex, stored without the lock, and a dropped pool's
//! `join` hung about once in 10⁵ drops.) Each batch has a condvar of its
//! own for its issuer, guarding `finished` the same way.
//!
//! # Determinism
//!
//! The pool never decides *what* the tasks are, only *who* runs them. Task
//! decomposition (how an iterator of length `n` maps onto task indices) is
//! fixed by the iterator layer as a function of `n` alone — never of the
//! thread count — and every consumer assembles results positionally (task
//! `i`'s output lands in slot `i`). Reductions combine partials in task
//! order. Hence every parallel result is bitwise identical for any pool
//! size, which the workspace's CSR/BSR parity and residual-history
//! regression tests rely on.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One parallel region: `ntasks` calls of `body`, claimed via `next`.
struct Batch {
    /// Type-erased task body. The pointee lives on the issuing thread's
    /// stack; the issuer blocks until `done == ntasks`, so the pointer is
    /// valid for as long as any worker can observe the batch.
    body: *const (dyn Fn(usize) + Sync),
    ntasks: usize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Completed task count; the batch is finished when it reaches
    /// `ntasks`.
    done: AtomicUsize,
    /// Set when any task body panicked (the issuer re-panics).
    panicked: AtomicBool,
    /// Issuer parks here waiting for the last task.
    finished: Mutex<bool>,
    cv: Condvar,
}

// SAFETY: `body` is only dereferenced between batch issue and batch
// completion, a window the issuing thread's borrow outlives (it blocks in
// `wait()` until `done == ntasks`). The body itself is `Sync`.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claim-and-run tasks until the claim counter is exhausted. Returns
    /// the number of tasks this thread executed.
    fn drain(&self) -> usize {
        let mut ran = 0usize;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.ntasks {
                return ran;
            }
            // Keep counting a panicked batch down so the issuer wakes.
            let body = unsafe { &*self.body };
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(i)));
            if r.is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            ran += 1;
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.ntasks {
                *self.finished.lock().unwrap() = true;
                self.cv.notify_all();
            }
        }
    }

    /// Block until every task has completed.
    fn wait(&self) {
        let mut f = self.finished.lock().unwrap();
        while !*f {
            f = self.cv.wait(f).unwrap();
        }
    }
}

/// Cumulative scheduling statistics of one pool (all relaxed counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Compute participants: worker threads plus the issuing thread.
    pub threads: usize,
    /// Parallel regions issued (batches).
    pub batches: u64,
    /// Tasks executed in total.
    pub tasks: u64,
    /// Tasks executed by a thread other than the batch's issuer — work
    /// that was actually stolen onto another OS thread.
    pub stolen_tasks: u64,
}

/// What an idle worker looks at before it parks, and so what `Shared::cv`
/// guards: both fields change only under the one mutex around them.
#[derive(Default)]
struct Injector {
    batches: std::collections::VecDeque<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Injector>,
    cv: Condvar,
    threads: usize,
    batches: AtomicU64,
    tasks: AtomicU64,
    stolen: AtomicU64,
}

impl Shared {
    /// Worker main loop: pop a batch, drain it, repeat.
    fn worker_loop(&self) {
        loop {
            let batch = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(b) = q.batches.pop_front() {
                        break b;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.cv.wait(q).unwrap();
                }
            };
            let ran = batch.drain();
            if ran > 0 {
                self.tasks.fetch_add(ran as u64, Ordering::Relaxed);
                self.stolen.fetch_add(ran as u64, Ordering::Relaxed);
            }
        }
    }
}

/// A fixed-size pool of compute threads. `threads` counts the issuing
/// thread too: a pool of size 1 spawns no OS threads and runs every batch
/// inline, which is the fully sequential reference execution.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Injector::default()),
            cv: Condvar::new(),
            threads,
            batches: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
        });
        let handles = (1..threads)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pmg-pool-{i}"))
                    .spawn(move || {
                        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&sh)));
                        sh.worker_loop();
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Number of compute participants (workers + issuer).
    pub fn current_num_threads(&self) -> usize {
        self.shared.threads
    }

    /// Cumulative scheduling statistics.
    pub fn stats(&self) -> PoolStats {
        stats_of(&self.shared)
    }

    /// Run `f` with this pool as the thread-local current pool: every
    /// parallel iterator and [`join`](crate::join) reached from `f` (on
    /// this thread) executes here. Restores the previous pool on exit.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.shared)));
        struct Restore(Option<Arc<Shared>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let _restore = Restore(prev);
        f()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Every update of the injector leaves it valid, so a poisoned lock
        // is recovered rather than panicked on inside a drop.
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the subset used here.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Start building a pool.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Total compute threads (issuer included); 0 or unset means the
    /// environment default ([`default_threads`]).
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = Some(n);
        self
    }

    /// Build the pool. Infallible here; the `Result` matches rayon's
    /// signature so call sites port over unchanged.
    pub fn build(self) -> Result<ThreadPool, std::convert::Infallible> {
        let n = match self.num_threads {
            Some(0) | None => default_threads(),
            Some(n) => n,
        };
        Ok(ThreadPool::new(n))
    }
}

thread_local! {
    /// The pool parallel work on this thread routes to: a worker's owning
    /// pool, or whatever `install` put here, or (when empty) the global
    /// default pool.
    static CURRENT: std::cell::RefCell<Option<Arc<Shared>>> =
        const { std::cell::RefCell::new(None) };
}

/// Pool size from the environment: `PMG_THREADS`, else `RAYON_NUM_THREADS`,
/// else the machine's available parallelism. Unset or empty `PMG_THREADS`
/// falls through; anything else but a positive integer panics here, at the
/// first use of the global pool, rather than silently sizing it by default.
pub fn default_threads() -> usize {
    let value = std::env::var_os("PMG_THREADS").map(|v| v.to_string_lossy().into_owned());
    if let Some(n) = parse_threads(value.as_deref()).unwrap_or_else(|e| panic!("{e}")) {
        return n;
    }
    if let Some(n) = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_threads(value: Option<&str>) -> Result<Option<usize>, String> {
    match value {
        None | Some("") => Ok(None),
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!("PMG_THREADS={v}: expected a positive integer")),
        },
    }
}

fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
}

fn current_shared() -> Arc<Shared> {
    CURRENT.with(|c| {
        if let Some(sh) = c.borrow().as_ref() {
            return Arc::clone(sh);
        }
        Arc::clone(&global().shared)
    })
}

fn stats_of(sh: &Shared) -> PoolStats {
    PoolStats {
        threads: sh.threads,
        batches: sh.batches.load(Ordering::Relaxed),
        tasks: sh.tasks.load(Ordering::Relaxed),
        stolen_tasks: sh.stolen.load(Ordering::Relaxed),
    }
}

/// Compute participants of the current pool (issuer included).
pub fn current_num_threads() -> usize {
    current_shared().threads
}

/// Scheduling statistics of the current pool.
pub fn current_pool_stats() -> PoolStats {
    stats_of(&current_shared())
}

/// Execute `body(0..ntasks)` on the current pool, returning when all tasks
/// have finished. Task bodies run concurrently on distinct indices; the
/// calling thread participates, so this makes progress even when every
/// worker is busy (nested regions included).
pub(crate) fn run_batch(ntasks: usize, body: &(dyn Fn(usize) + Sync)) {
    if ntasks == 0 {
        return;
    }
    let shared = current_shared();
    if shared.threads <= 1 || ntasks == 1 {
        // Sequential reference execution: same tasks, same order, no
        // cross-thread machinery (and no catch_unwind frames).
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared.tasks.fetch_add(ntasks as u64, Ordering::Relaxed);
        for i in 0..ntasks {
            body(i);
        }
        return;
    }
    shared.batches.fetch_add(1, Ordering::Relaxed);
    // Erase the body's stack lifetime; `wait()` below outlives all uses.
    let body_static: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute(body as *const (dyn Fn(usize) + Sync)) };
    let batch = Arc::new(Batch {
        body: body_static,
        ntasks,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        finished: Mutex::new(false),
        cv: Condvar::new(),
    });
    // One queue entry per potential helper; duplicates of an exhausted
    // batch cost a popping worker one atomic load.
    let helpers = (shared.threads - 1).min(ntasks);
    {
        let mut q = shared.queue.lock().unwrap();
        for _ in 0..helpers {
            q.batches.push_back(Arc::clone(&batch));
        }
    }
    if helpers == 1 {
        shared.cv.notify_one();
    } else {
        shared.cv.notify_all();
    }
    let ran = batch.drain();
    shared.tasks.fetch_add(ran as u64, Ordering::Relaxed);
    batch.wait();
    if batch.panicked.load(Ordering::Relaxed) {
        panic!("a task in a parallel region panicked");
    }
}

/// Fork-join: run `a` and `b`, potentially in parallel, and return both
/// results. `b` is offered to the pool; the calling thread runs `a` and
/// then claims `b` back if no worker picked it up — so a saturated (or
/// size-1) pool degrades to exact sequential execution `(a(), b())`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let shared = current_shared();
    if shared.threads <= 1 {
        return (a(), b());
    }
    // Cells for moving the closures in and the results out of the
    // type-erased batch body. Task 0 <-> a, task 1 <-> b; each index is
    // claimed exactly once, so each cell is touched by exactly one thread.
    let fa = std::cell::UnsafeCell::new(Some(a));
    let fb = std::cell::UnsafeCell::new(Some(b));
    let ra = std::cell::UnsafeCell::new(None::<RA>);
    let rb = std::cell::UnsafeCell::new(None::<RB>);
    struct SyncCells<T>(T);
    unsafe impl<T> Sync for SyncCells<T> {}
    let cells = SyncCells((&fa, &fb, &ra, &rb));
    let cells_ref = &cells;
    let body = move |i: usize| {
        let (fa, fb, ra, rb) = cells_ref.0;
        // SAFETY: run_batch calls each index at most once.
        unsafe {
            if i == 0 {
                let f = (*fa.get()).take().expect("join task 0 claimed twice");
                *ra.get() = Some(f());
            } else {
                let f = (*fb.get()).take().expect("join task 1 claimed twice");
                *rb.get() = Some(f());
            }
        }
    };
    run_batch(2, &body);
    (
        ra.into_inner().expect("join left result missing"),
        rb.into_inner().expect("join right result missing"),
    )
}

#[cfg(test)]
mod tests {
    use super::{join, parse_threads, ThreadPoolBuilder};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    #[test]
    fn dropping_a_pool_never_loses_the_shutdown_wakeup() {
        // Every `Prometheus` with `MgOptions::threads: Some(n)` drops a
        // dedicated pool. With `shutdown` stored without the queue's lock
        // this loop hung between cycle 100 000 and 150 000 of a release
        // build; it runs on a helper thread so that a regression fails at
        // the deadline instead of hanging the suite.
        const CYCLES: usize = 200_000;
        let (done, finished) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            for _ in 0..CYCLES {
                let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
                assert_eq!(pool.install(|| join(|| 1, || 2)), (1, 2));
                drop(pool);
            }
            let _ = done.send(());
        });
        if finished.recv_timeout(Duration::from_secs(120)) == Err(RecvTimeoutError::Timeout) {
            panic!("a dropped pool's join() did not return within 120 s of {CYCLES} cycles");
        }
        helper.join().expect("drop loop");
    }

    #[test]
    fn threads_switch_rejects_anything_but_a_positive_integer() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("")), Ok(None));
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some("2")), Ok(Some(2)));
        for bad in ["0", "two", "-1", "1.5"] {
            let err = parse_threads(Some(bad)).unwrap_err();
            assert!(err.contains("PMG_THREADS") && err.contains("positive integer"));
        }
    }
}
