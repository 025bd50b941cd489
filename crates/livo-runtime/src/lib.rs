//! Scoped worker pool for the LiVo hot path.
//!
//! The per-frame stages that pay for a second thread — per-camera ray
//! casting, the sender's colour ∥ depth encode, the receiver's colour ∥
//! depth decode and the SFU's per-cluster and per-subscriber passes — are
//! data-parallel over disjoint parts of their input. This crate provides
//! the concurrency primitives they share on a **fixed-size pool**: a pool
//! of `n` threads is the caller and `n − 1` worker threads.
//!
//! - **scoped spawning** ([`WorkerPool::scope`]): tasks may borrow from the
//!   caller's stack; the scope joins every task before it returns, so the
//!   borrow checker's usual `'static` bound is not needed;
//! - **take-back**: tasks are queued on the workers round-robin in spawn
//!   order, with no stealing between workers. When the scope's closure is
//!   done, the caller takes back, newest first, every task no worker has
//!   started and runs it itself, then waits for the started ones — so a
//!   scope never waits on a busy worker for work the caller could do;
//! - **a two-sided join** ([`WorkerPool::join`]): a scope that queues one
//!   side and runs the other on the caller;
//! - **panic propagation**: a panicking task fails the whole scope (the
//!   first payload is re-raised from `scope()`) instead of deadlocking the
//!   join;
//! - **per-pool telemetry** ([`WorkerPool::attach_telemetry`]): a queue
//!   depth gauge and a task execution-latency histogram published through
//!   `livo-telemetry`.
//!
//! The pool size comes from `LIVO_THREADS` for the process-wide
//! [`global`] pool (default: [`std::thread::available_parallelism`]).
//! `LIVO_THREADS=1` builds a pool with **no worker threads at all**:
//! `scope` runs every task inline on the caller's thread, in spawn order,
//! which is the lever the bit-exactness tests use to compare the parallel
//! stages against serial execution.
//!
//! Correctness note for codec users: parallelising *computation* must not
//! change *output*. The 2D encoder and decoder therefore hold no pool: each
//! stream is coded serially, and the stages in `livo-core::stage` run the
//! colour and depth streams side by side with one [`WorkerPool::join`],
//! which changes when each byte is written but not which.

use livo_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// A unit of queued work. Closures are type-erased to `'static` inside the
/// pool; the scope's join-before-return discipline is what makes the
/// lifetime erasure sound (see [`Scope::spawn`]).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// One spawned task, run once by whichever thread takes it out first: the
/// worker that pops it, or the scope's owner taking back what no worker
/// has started. Whoever comes second finds `None`.
type Claim = Arc<Mutex<Option<Task>>>;

fn take(claim: &Claim) -> Option<Task> {
    claim.lock().unwrap().take()
}

/// One worker's private FIFO. Striped dispatch means there is exactly one
/// producer pattern per scope and no stealing between queues.
#[derive(Default)]
struct WorkerQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    claims: VecDeque<Claim>,
    shutdown: bool,
}

impl WorkerQueue {
    fn push(&self, claim: Claim) {
        let mut st = self.state.lock().unwrap();
        st.claims.push_back(claim);
        drop(st);
        self.ready.notify_one();
    }

    /// Blocks until a task arrives or shutdown is flagged with the queue
    /// drained. `None` means the worker should exit.
    fn pop(&self) -> Option<Claim> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(c) = st.claims.pop_front() {
                return Some(c);
            }
            if st.shutdown {
                return None;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.ready.notify_all();
    }
}

/// Metric handles resolved once at attach time; the per-task path is
/// atomics only.
struct PoolTelemetry {
    queue_depth: Arc<Gauge>,
    task_ms: Arc<Histogram>,
    tasks: Arc<Counter>,
}

/// Run one task on this thread: time it, count it and catch its panic.
fn run_task<R>(
    telemetry: &Option<Arc<PoolTelemetry>>,
    f: impl FnOnce() -> R,
) -> std::thread::Result<R> {
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(f));
    if let Some(t) = telemetry {
        t.task_ms.record(started.elapsed().as_secs_f64() * 1e3);
        t.tasks.inc();
    }
    result
}

/// Join/panic bookkeeping shared between a scope and its queued tasks.
#[derive(Default)]
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn task_finished(&self) {
        let mut p = self.pending.lock().unwrap();
        *p -= 1;
        if *p == 0 {
            self.done.notify_all();
        }
    }

    fn store_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        // First panic wins; later ones are dropped (same policy as rayon).
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn wait_all(&self) {
        let mut p = self.pending.lock().unwrap();
        while *p > 0 {
            p = self.done.wait(p).unwrap();
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().unwrap().take()
    }
}

/// A fixed-size worker pool. Dropping the pool shuts the workers down
/// (after draining their queues, which a finished scope leaves holding
/// only emptied claims).
pub struct WorkerPool {
    queues: Vec<Arc<WorkerQueue>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Tasks queued but not yet started, across all queues.
    depth: Arc<AtomicUsize>,
    telemetry: Mutex<Option<Arc<PoolTelemetry>>>,
}

impl WorkerPool {
    /// A pool of `threads` threads: the caller of each scope and
    /// `threads − 1` workers, since the caller works in every scope.
    /// `threads <= 1` spawns **no** threads: every task runs inline on the
    /// caller's thread, in spawn order — the serial reference path.
    pub fn new(threads: usize) -> Self {
        let queues: Vec<Arc<WorkerQueue>> = (1..threads.max(1)).map(|_| Arc::default()).collect();
        let workers = queues
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let q = q.clone();
                std::thread::Builder::new()
                    .name(format!("livo-worker-{i}"))
                    .spawn(move || {
                        while let Some(claim) = q.pop() {
                            if let Some(task) = take(&claim) {
                                task();
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            queues,
            workers,
            depth: Arc::new(AtomicUsize::new(0)),
            telemetry: Mutex::new(None),
        }
    }

    /// Degree of parallelism `scope` offers: the caller and the workers (1
    /// for the inline pool).
    pub fn threads(&self) -> usize {
        self.queues.len() + 1
    }

    /// Publish this pool's metrics under `{prefix}.*` in `registry`:
    /// `queue_depth` gauge (tasks queued, not yet started), `task_ms`
    /// execution-latency histogram, `tasks` counter, and a one-shot
    /// `threads` gauge.
    pub fn attach_telemetry(&self, registry: &Arc<MetricsRegistry>, prefix: &str) {
        registry
            .gauge(&format!("{prefix}.threads"))
            .set(self.threads() as f64);
        let t = PoolTelemetry {
            queue_depth: registry.gauge(&format!("{prefix}.queue_depth")),
            task_ms: registry.histogram(&format!("{prefix}.task_ms")),
            tasks: registry.counter(&format!("{prefix}.tasks")),
        };
        *self.telemetry.lock().unwrap() = Some(Arc::new(t));
    }

    /// Run `f` with a [`Scope`] on which tasks borrowing from the enclosing
    /// stack frame can be spawned. When `f` returns (or unwinds), the
    /// caller runs, newest first, every spawned task no worker has started,
    /// then waits for the started ones. If any task (or `f` itself)
    /// panicked, the first task panic, else `f`'s, is resumed here.
    ///
    /// Scopes nest without deadlock, in tasks too: a thread only ever waits
    /// for a task another thread has started, never for an unstarted one
    /// (it takes those back, from its own worker's queue too), and what
    /// that thread waits for in turn was started later still, so no chain
    /// of waits can close into a cycle.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: OnceLock::new(),
            telemetry: self.telemetry.lock().unwrap().clone(),
            queued: Mutex::new(Vec::new()),
            next: AtomicUsize::new(0),
            scope_marker: PhantomData,
            env_marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Always join before returning: spawned tasks may borrow locals of
        // the caller, so the scope must outlive them even when unwinding.
        let queued = std::mem::take(&mut *scope.queued.lock().unwrap());
        for task in queued.iter().rev().filter_map(take) {
            task();
        }
        if let Some(state) = scope.state.get() {
            state.wait_all();
            // Each task publishes the depth it saw when it started, and
            // tasks finish in any order: publish it once more after all
            // have.
            if let Some(t) = &scope.telemetry {
                t.queue_depth.set(self.depth.load(Ordering::Relaxed) as f64);
            }
            if let Some(p) = state.take_panic() {
                resume_unwind(p);
            }
        }
        result.unwrap_or_else(|p| resume_unwind(p))
    }

    /// Run two closures concurrently and return both results: the binary
    /// fork/join the sender and the receiver use for their colour ∥ depth
    /// lanes. It is a scope that spawns `a` and runs `b` on the caller, so
    /// the caller takes `a` back if no worker has started it by the time
    /// `b` is done: a join never costs more than the two sides run serially
    /// plus one queue push. On a one-thread pool `a` then `b` run inline.
    /// Each side counts once as a pool task. A panic in either side is
    /// propagated after both have finished; `a`'s payload wins if both
    /// panicked.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        let mut ra = None;
        let rb = self.scope(|s| {
            s.spawn(|| ra = Some(a()));
            run_task(&s.telemetry, b)
        });
        match rb {
            Ok(rb) => (ra.expect("join side a ran"), rb),
            Err(p) => resume_unwind(p),
        }
    }

    /// Split `items` into up to `2 × threads` contiguous shards and run
    /// `f` on each shard in parallel, returning once all shards finished.
    /// It serves loops that *mutate* their items: each shard owns its slice
    /// exclusively (`split_at_mut`), so per-item work needs no locking
    /// and runs exactly once regardless of the pool size — with one
    /// thread (or one item) this degenerates to `f(items)` inline.
    ///
    /// Shard sizes differ by at most one element and depend only on
    /// `items.len()` and the thread count, keeping the partition
    /// deterministic for a given pool.
    pub fn for_each_chunk_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(&mut [T]) + Sync,
    {
        let n = items.len();
        if n == 0 {
            return;
        }
        if self.threads() == 1 || n == 1 {
            f(items);
            return;
        }
        let shards = (self.threads() * 2).min(n);
        let base = n / shards;
        let rem = n % shards;
        self.scope(|s| {
            let fref = &f;
            let mut rest = items;
            for i in 0..shards {
                let take = base + usize::from(i < rem);
                let (chunk, tail) = rest.split_at_mut(take);
                rest = tail;
                s.spawn(move || fref(chunk));
            }
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for q in &self.queues {
            q.shutdown();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
///
/// `'scope` is the lifetime of the scope itself; `'env` the environment it
/// may borrow from (outliving the scope). Mirrors [`std::thread::scope`].
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope WorkerPool,
    /// Made by the first queued task (or inline panic), so an inline scope
    /// allocates nothing.
    state: OnceLock<Arc<ScopeState>>,
    telemetry: Option<Arc<PoolTelemetry>>,
    /// Every queued task, in spawn order: what the caller takes back.
    queued: Mutex<Vec<Claim>>,
    next: AtomicUsize,
    scope_marker: PhantomData<&'scope mut &'scope ()>,
    env_marker: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    fn state(&self) -> &Arc<ScopeState> {
        self.state.get_or_init(Default::default)
    }

    /// Spawn a task on the pool. Tasks are queued on the workers
    /// round-robin in spawn order; the scope's caller runs those no worker
    /// has started when the scope's closure is done. On a one-thread pool
    /// the task runs immediately on the calling thread. A panic in the
    /// task is captured and re-raised when the scope closes.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.pool.queues.is_empty() {
            // Same panic policy as a queued task, so one panicking stripe
            // doesn't skip its siblings.
            if let Err(p) = run_task(&self.telemetry, f) {
                self.state().store_panic(p);
            }
            return;
        }
        let state = self.state().clone();
        *state.pending.lock().unwrap() += 1;
        let (depth, telemetry) = (self.pool.depth.clone(), self.telemetry.clone());
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let queued = depth.fetch_sub(1, Ordering::Relaxed) - 1;
            if let Some(t) = &telemetry {
                t.queue_depth.set(queued as f64);
            }
            if let Err(p) = run_task(&telemetry, f) {
                state.store_panic(p);
            }
            state.task_finished();
        });
        // SAFETY: the task is erased to 'static to sit in a worker's queue.
        // It runs only in the hands of whoever takes it out of its claim
        // under the lock, a worker or the scope's caller. Before
        // `WorkerPool::scope` returns, including on unwind, the caller takes
        // every claim no worker has taken and runs it, then waits
        // (`wait_all`) for those a worker took, so no borrow of
        // 'scope/'env is dangling while the closure can still run; a claim
        // popped later is empty and touches nothing. Identical layout: only
        // the lifetime parameter of the trait object changes.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(task)
        };
        let claim: Claim = Arc::new(Mutex::new(Some(task)));
        self.queued.lock().unwrap().push(claim.clone());
        let queued = self.pool.depth.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(t) = &self.telemetry {
            t.queue_depth.set(queued as f64);
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.pool.queues.len();
        self.pool.queues[i].push(claim);
    }
}

/// Thread count for the process-wide pool: `LIVO_THREADS` if set to a
/// positive integer, else [`std::thread::available_parallelism`].
pub(crate) fn threads_from_env() -> usize {
    match std::env::var("LIVO_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();

/// The process-wide pool, built on first use with `threads_from_env`
/// threads. The conference runner and the SFU router use it by default; pass
/// an explicit pool (via `ConferenceRunner::set_worker_pool` or
/// `RouterBuilder::worker_pool`) to override it per component.
pub fn global() -> &'static Arc<WorkerPool> {
    GLOBAL.get_or_init(|| Arc::new(WorkerPool::new(threads_from_env())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::Duration;

    #[test]
    fn scope_runs_all_tasks_with_borrows() {
        let pool = WorkerPool::new(4);
        let mut results = vec![0u64; 64];
        pool.scope(|s| {
            for (i, slot) in results.iter_mut().enumerate() {
                s.spawn(move || *slot = (i as u64) * 3);
            }
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, (i as u64) * 3);
        }
    }

    #[test]
    fn serial_pool_spawns_no_threads_and_preserves_order() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..8 {
                let order = &order;
                s.spawn(move || order.lock().unwrap().push(i));
            }
        });
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_fails_the_scope_not_deadlocks_it() {
        let pool = WorkerPool::new(3);
        let ran = AtomicU64::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..12 {
                    let ran = &ran;
                    s.spawn(move || {
                        if i == 5 {
                            panic!("stripe 5 exploded");
                        }
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = outcome.expect_err("scope must propagate the task panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(
            msg.contains("stripe 5 exploded"),
            "unexpected payload {msg:?}"
        );
        // Sibling stripes still ran; the pool survives for the next scope.
        assert_eq!(ran.load(Ordering::Relaxed), 11);
        let after = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                let after = &after;
                s.spawn(move || {
                    after.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panic_in_scope_closure_still_joins_tasks() {
        let pool = WorkerPool::new(2);
        let ran = AtomicU64::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..6 {
                    let ran = &ran;
                    s.spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("closure bailed");
            });
        }));
        assert!(outcome.is_err());
        // wait_all ran before the unwind left scope(): all tasks finished.
        assert_eq!(ran.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn telemetry_records_tasks_and_latency() {
        let pool = WorkerPool::new(2);
        let registry = Arc::new(MetricsRegistry::new());
        pool.attach_telemetry(&registry, "runtime.pool");
        pool.scope(|s| {
            for i in 0..16usize {
                s.spawn(move || {
                    std::hint::black_box(i * i);
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("runtime.pool.tasks"), Some(16));
        assert_eq!(snap.gauge("runtime.pool.threads"), Some(2.0));
        let h = snap.histogram("runtime.pool.task_ms").expect("task_ms");
        assert_eq!(h.count, 16);
        // Queue fully drained by the time the scope closed.
        assert_eq!(snap.gauge("runtime.pool.queue_depth"), Some(0.0));
    }

    #[test]
    fn threads_from_env_parses_and_defaults() {
        // Not set in the test environment unless the harness exports it;
        // either way the result is a positive count.
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let (a, b) = pool.join(|| 2 + 2, || "depth".len());
            assert_eq!((a, b), (4, 5), "threads={threads}");
        }
    }

    #[test]
    fn join_propagates_panics() {
        let pool = WorkerPool::new(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || -> i32 { panic!("b exploded") })
        }));
        assert!(outcome.is_err());
        // Pool still usable afterwards.
        assert_eq!(pool.join(|| 1, || 2), (1, 2));
    }

    /// Every worker of a pool held busy by a task that waits for
    /// [`Blockers::release`], or [`HOLD`] at most.
    struct Blockers {
        released: Arc<AtomicBool>,
        thread: std::thread::JoinHandle<()>,
    }

    const HOLD: Duration = Duration::from_secs(5);

    impl Blockers {
        /// Returns once every worker has started its blocking task.
        fn start(pool: &Arc<WorkerPool>) -> Self {
            let workers = pool.threads() - 1;
            let released = Arc::new(AtomicBool::new(false));
            let started = Arc::new(AtomicUsize::new(0));
            let (p, r, st) = (pool.clone(), released.clone(), started.clone());
            let thread = std::thread::spawn(move || {
                p.scope(|s| {
                    for _ in 0..workers {
                        let (r, st) = (&r, &st);
                        s.spawn(move || {
                            st.fetch_add(1, Ordering::SeqCst);
                            let t0 = Instant::now();
                            while !r.load(Ordering::SeqCst) && t0.elapsed() < HOLD {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        });
                    }
                    // Leave nothing for this thread to take back.
                    while st.load(Ordering::SeqCst) < workers {
                        std::thread::yield_now();
                    }
                })
            });
            while started.load(Ordering::SeqCst) < workers {
                std::thread::yield_now();
            }
            Blockers { released, thread }
        }

        fn release(self) {
            self.released.store(true, Ordering::SeqCst);
            self.thread.join().unwrap();
        }
    }

    /// Wait until `flag` is set, or [`HOLD`] passed.
    fn wait_for(flag: &AtomicBool) {
        let t0 = Instant::now();
        while !flag.load(Ordering::SeqCst) && t0.elapsed() < HOLD {
            std::hint::spin_loop();
        }
    }

    fn tasks(registry: &MetricsRegistry) -> u64 {
        registry
            .snapshot()
            .counter("runtime.pool.tasks")
            .unwrap_or(0)
    }

    #[test]
    fn join_takes_back_a_side_no_worker_started() {
        let pool = Arc::new(WorkerPool::new(2));
        let registry = Arc::new(MetricsRegistry::new());
        pool.attach_telemetry(&registry, "runtime.pool");
        let blockers = Blockers::start(&pool);
        let runs = AtomicU64::new(0);
        let side = || {
            runs.fetch_add(1, Ordering::SeqCst);
            std::thread::current().id()
        };
        let t0 = Instant::now();
        let (a, b) = pool.join(side, side);
        let took = t0.elapsed();
        let counted = tasks(&registry);
        blockers.release();
        let caller = std::thread::current().id();
        assert_eq!((a, b), (caller, caller), "both sides ran on the caller");
        assert!(took < HOLD / 5, "join waited {took:?} for a busy worker");
        assert_eq!(counted, 2, "each side counts once");
        // The worker now pops the claim the caller emptied; it runs
        // nothing, and the pool goes on as before.
        assert_eq!(pool.join(|| 1, || 2), (1, 2));
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn join_counts_two_tasks_on_every_path() {
        let registry = Arc::new(MetricsRegistry::new());
        let inline = WorkerPool::new(1);
        inline.attach_telemetry(&registry, "runtime.pool");
        assert_eq!(inline.join(|| 1, || 2), (1, 2));
        assert_eq!(tasks(&registry), 2, "inline");

        let registry = Arc::new(MetricsRegistry::new());
        let pool = Arc::new(WorkerPool::new(2));
        pool.attach_telemetry(&registry, "runtime.pool");
        // Worker path: the caller's side holds until a worker started `a`.
        let started = AtomicBool::new(false);
        let caller = std::thread::current().id();
        let (ran_on, _) = pool.join(
            || {
                started.store(true, Ordering::SeqCst);
                std::thread::current().id()
            },
            || wait_for(&started),
        );
        assert_ne!(ran_on, caller, "a worker ran the queued side");
        assert_eq!(tasks(&registry), 2, "worker path");
        // Take-back path: every worker busy.
        let blockers = Blockers::start(&pool);
        pool.join(|| (), || ());
        assert_eq!(tasks(&registry), 4, "take-back path");
        blockers.release();
        // From inside a pool task: the task and its two sides.
        let before = tasks(&registry);
        pool.scope(|s| s.spawn(|| assert_eq!(pool.join(|| 1, || 2), (1, 2))));
        assert_eq!(tasks(&registry) - before, 3, "join inside a task");
    }

    #[test]
    fn join_panics_propagate_after_both_sides_finished() {
        let pool = Arc::new(WorkerPool::new(2));
        let message = |outcome: std::thread::Result<_>| {
            let payload = outcome.expect_err("the join must propagate the panic");
            let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
            text.or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        };
        let caller = std::thread::current().id();

        // Taken back: `a` panics on the caller after `b` finished, and `b`
        // panics with `a` still to run.
        for a_panics in [true, false] {
            let blockers = Blockers::start(&pool);
            let (a_ran, b_ran) = (AtomicBool::new(false), AtomicBool::new(false));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.join(
                    || {
                        a_ran.store(true, Ordering::SeqCst);
                        assert_eq!(std::thread::current().id(), caller);
                        assert!(!a_panics, "a exploded");
                    },
                    || {
                        b_ran.store(true, Ordering::SeqCst);
                        assert!(a_panics, "b exploded");
                    },
                )
            }));
            blockers.release();
            let expect = if a_panics { "a exploded" } else { "b exploded" };
            assert!(message(outcome).contains(expect));
            assert!(a_ran.load(Ordering::SeqCst) && b_ran.load(Ordering::SeqCst));
        }

        // Run by a worker: `a` panics there while `b` waits for it to
        // start, and `b` panics while `a` is still running there.
        for a_panics in [true, false] {
            let (started, a_done) = (AtomicBool::new(false), AtomicBool::new(false));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.join(
                    || {
                        started.store(true, Ordering::SeqCst);
                        assert_ne!(std::thread::current().id(), caller);
                        std::thread::sleep(Duration::from_millis(20));
                        a_done.store(true, Ordering::SeqCst);
                        assert!(!a_panics, "a exploded");
                    },
                    || {
                        wait_for(&started);
                        assert!(a_panics, "b exploded");
                    },
                )
            }));
            let expect = if a_panics { "a exploded" } else { "b exploded" };
            assert!(message(outcome).contains(expect));
            assert!(
                a_done.load(Ordering::SeqCst),
                "the worker's side finished first"
            );
        }
        assert_eq!(pool.join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn scope_takes_back_the_tasks_no_worker_started() {
        let pool = Arc::new(WorkerPool::new(2));
        let registry = Arc::new(MetricsRegistry::new());
        pool.attach_telemetry(&registry, "runtime.pool");
        let blockers = Blockers::start(&pool);
        let runs: Vec<AtomicU64> = (0..5).map(|_| AtomicU64::new(0)).collect();
        let ran_on = Mutex::new(Vec::new());
        let t0 = Instant::now();
        pool.scope(|s| {
            for run in &runs {
                let ran_on = &ran_on;
                s.spawn(move || {
                    run.fetch_add(1, Ordering::SeqCst);
                    ran_on.lock().unwrap().push(std::thread::current().id());
                });
            }
        });
        let took = t0.elapsed();
        let counted = tasks(&registry);
        blockers.release();
        assert!(
            took < HOLD / 5,
            "the scope waited {took:?} for a busy worker"
        );
        let caller = std::thread::current().id();
        assert!(ran_on.lock().unwrap().iter().all(|&id| id == caller));
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        assert_eq!(counted, 5, "each task counts once");
        assert_eq!(pool.join(|| 1, || 2), (1, 2));
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn nested_scope_from_worker_without_deadlock() {
        for threads in [2, 4] {
            let pool = WorkerPool::new(threads);
            let total = AtomicU64::new(0);
            // Outer tasks each open an inner scope on the same pool; inner
            // tasks queued behind a blocked outer task on a striped pool
            // would deadlock it, so the inner scope's owner takes them back.
            pool.scope(|s| {
                for _ in 0..4 {
                    let total = &total;
                    let pool = &pool;
                    s.spawn(move || {
                        pool.scope(|inner| {
                            for _ in 0..8 {
                                inner.spawn(move || {
                                    total.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    });
                }
            });
            assert_eq!(total.load(Ordering::Relaxed), 32, "threads={threads}");
        }
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = WorkerPool::new(2);
        let v = pool.scope(|s| {
            s.spawn(|| {});
            41 + 1
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn for_each_chunk_mut_touches_every_item_once() {
        // Every item incremented exactly once, for pool sizes spanning
        // the serial fallback, len < shards, and len > shards; chunks are
        // contiguous so the shard partition never splits an increment.
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            for len in [0usize, 1, 3, 7, 64] {
                let mut items: Vec<u32> = vec![0; len];
                pool.for_each_chunk_mut(&mut items, |chunk| {
                    for it in chunk.iter_mut() {
                        *it += 1;
                    }
                });
                assert!(
                    items.iter().all(|&v| v == 1),
                    "threads={threads} len={len}: {items:?}"
                );
            }
        }
    }
}
