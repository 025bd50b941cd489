//! Scoped worker pool for the LiVo hot path.
//!
//! The per-frame stages that pay for a second thread — per-camera ray
//! casting, the sender's colour ∥ depth encode, the receiver's colour ∥
//! depth decode and the SFU's per-cluster and per-subscriber passes — are
//! data-parallel over disjoint parts of their input. This crate provides
//! the concurrency primitives they share on a **fixed-size pool of worker
//! threads**:
//!
//! - **scoped spawning** ([`WorkerPool::scope`]): tasks may borrow from the
//!   caller's stack; the scope joins every task before it returns, so the
//!   borrow checker's usual `'static` bound is not needed;
//! - **striped dispatch**: tasks are assigned to workers round-robin in
//!   spawn order. There is **no work stealing** — the assignment of stripe
//!   *i* to worker *i mod n* is deterministic, which keeps scheduling out
//!   of the set of things that can perturb a run;
//! - **a two-sided join** ([`WorkerPool::join`]): one side on the caller,
//!   the other queued, and taken back by the caller if no worker has
//!   started it by the time the caller's side is done;
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
//! `scope` runs every task inline on the caller's thread, which is the
//! lever the bit-exactness tests use to compare the parallel stages
//! against serial execution.
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

std::thread_local! {
    /// Set on pool worker threads. A scope opened *from inside a task*
    /// runs its tasks inline on the spawning worker: queueing them would
    /// let a blocked `wait_all` sit in front of its own sub-tasks in the
    /// worker's FIFO and deadlock the striped (non-stealing) pool. A join
    /// from inside a task (a subscriber stand-in's colour ∥ depth decode
    /// inside the SFU's sharded fan-out) could not deadlock, since its
    /// caller takes the queued side back, but runs inline too: the
    /// enclosing pass already keeps every worker busy.
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One worker's private FIFO. Striped dispatch means there is exactly one
/// producer pattern per scope and no stealing between queues.
struct WorkerQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

impl WorkerQueue {
    fn new() -> Self {
        WorkerQueue {
            state: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, task: Task) {
        let mut st = self.state.lock().unwrap();
        st.tasks.push_back(task);
        drop(st);
        self.ready.notify_one();
    }

    /// Blocks until a task arrives or shutdown is flagged with the queue
    /// drained. `None` means the worker should exit.
    fn pop(&self) -> Option<Task> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(t) = st.tasks.pop_front() {
                return Some(t);
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

/// Count one queued task as started.
fn dequeued(depth: &AtomicUsize, telemetry: &Option<Arc<PoolTelemetry>>) {
    let queued = depth.fetch_sub(1, Ordering::Relaxed) - 1;
    if let Some(t) = telemetry {
        t.queue_depth.set(queued as f64);
    }
}

/// The queued side of a [`WorkerPool::join`]. Its job runs once, on
/// whichever thread claims it first: the worker that pops its queue entry,
/// or the joining caller once its own side is done.
struct Handoff {
    job: Mutex<Option<Task>>,
    state: ScopeState,
}

impl Handoff {
    /// Run the job unless the other party has claimed it.
    fn run(&self, depth: &AtomicUsize, telemetry: &Option<Arc<PoolTelemetry>>) {
        let Some(job) = self.job.lock().unwrap().take() else {
            return;
        };
        dequeued(depth, telemetry);
        job();
        self.state.task_finished();
    }
}

/// Join/panic bookkeeping shared between a scope and its in-flight tasks.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn task_started(&self) {
        *self.pending.lock().unwrap() += 1;
    }

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
/// (after draining their queues, which a finished scope leaves empty).
pub struct WorkerPool {
    queues: Vec<Arc<WorkerQueue>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Tasks queued but not yet started, across all queues.
    depth: Arc<AtomicUsize>,
    telemetry: Mutex<Option<Arc<PoolTelemetry>>>,
}

impl WorkerPool {
    /// A pool that runs scope tasks on `threads` OS threads. `threads <= 1`
    /// spawns **no** threads: every task runs inline on the caller's
    /// thread, in spawn order — the serial reference path.
    pub fn new(threads: usize) -> Self {
        let n = if threads <= 1 { 0 } else { threads };
        let queues: Vec<Arc<WorkerQueue>> = (0..n).map(|_| Arc::new(WorkerQueue::new())).collect();
        let workers = queues
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let q = q.clone();
                std::thread::Builder::new()
                    .name(format!("livo-worker-{i}"))
                    .spawn(move || {
                        IS_WORKER.with(|w| w.set(true));
                        while let Some(task) = q.pop() {
                            task();
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

    /// Degree of parallelism `scope` offers (1 for the inline pool).
    pub fn threads(&self) -> usize {
        self.queues.len().max(1)
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
    /// stack frame can be spawned. Returns only after every spawned task
    /// has finished. If any task (or `f` itself) panicked, the first panic
    /// payload is resumed here.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let telemetry = self.telemetry.lock().unwrap().clone();
        let scope = Scope {
            pool: self,
            state: state.clone(),
            telemetry,
            next: AtomicUsize::new(0),
            scope_marker: PhantomData,
            env_marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Always join before returning: spawned tasks may borrow locals of
        // the caller, so the scope must outlive them even when unwinding.
        state.wait_all();
        // Each task publishes the depth it saw when it started, and tasks
        // finish in any order: publish it once more after all have.
        if let Some(t) = &scope.telemetry {
            t.queue_depth.set(self.depth.load(Ordering::Relaxed) as f64);
        }
        match state.take_panic() {
            Some(p) => resume_unwind(p),
            None => match result {
                Ok(r) => r,
                Err(p) => resume_unwind(p),
            },
        }
    }

    /// Run two closures concurrently and return both results: the binary
    /// fork/join the sender and the receiver use for their colour ∥ depth
    /// lanes.
    ///
    /// `b` runs on the calling thread while `a` waits in the first worker's
    /// queue. Once `b` is done, the caller takes `a` back and runs it itself
    /// if no worker has started it yet, and otherwise waits for it, so a
    /// join never costs more than running both sides serially plus one
    /// queue push. On a one-thread pool, or when called from inside a pool
    /// task (see [`IS_WORKER`]), `a` then `b` run inline. Each side counts
    /// once as a pool task, whichever thread ran it. A panic in either side
    /// is propagated after both have finished; `a`'s payload wins if both
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
        let telemetry = self.telemetry.lock().unwrap().clone();
        let mut ra = None;
        let rb = if self.queues.is_empty() || IS_WORKER.with(|w| w.get()) {
            ra = Some(run_task(&telemetry, a));
            run_task(&telemetry, b)
        } else {
            let (slot, tel) = (&mut ra, &telemetry);
            let side_a: Box<dyn FnOnce() + Send + '_> =
                Box::new(move || *slot = Some(run_task(tel, a)));
            // SAFETY: `side_a` borrows `ra`, `telemetry` and whatever `a`
            // borrows, and is erased to 'static to sit in a worker's queue.
            // It is only ever called by whoever takes it out of
            // `handoff.job` under the lock, a worker or this caller; the
            // queue entry a worker pops after the caller took it back finds
            // nothing and touches nothing of this frame. If a worker took
            // it, `wait_all` below holds the caller until the job has run
            // and been dropped, before it reads `ra` or returns (`b` cannot
            // unwind past it: it runs under `catch_unwind`). Identical
            // layout: only the trait object's lifetime parameter changes.
            let side_a: Task = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(
                    side_a,
                )
            };
            let handoff = Arc::new(Handoff {
                job: Mutex::new(Some(side_a)),
                state: ScopeState::new(),
            });
            handoff.state.task_started();
            let (h, depth, tel) = (handoff.clone(), self.depth.clone(), telemetry.clone());
            self.push(0, Box::new(move || h.run(&depth, &tel)), &telemetry);
            let rb = run_task(&telemetry, b);
            handoff.run(&self.depth, &telemetry);
            handoff.state.wait_all();
            rb
        };
        match (ra.expect("join side a did not run"), rb) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(p), _) | (_, Err(p)) => resume_unwind(p),
        }
    }

    /// Queue `task` on worker `i`, counting it as queued.
    fn push(&self, i: usize, task: Task, telemetry: &Option<Arc<PoolTelemetry>>) {
        let queued = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(t) = telemetry {
            t.queue_depth.set(queued as f64);
        }
        self.queues[i].push(task);
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
    state: Arc<ScopeState>,
    telemetry: Option<Arc<PoolTelemetry>>,
    next: AtomicUsize,
    scope_marker: PhantomData<&'scope mut &'scope ()>,
    env_marker: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a task on the pool. Tasks are dispatched to workers
    /// round-robin in spawn order (striped, no stealing); on a one-thread
    /// pool the task runs immediately on the calling thread. A panic in
    /// the task is captured and re-raised when the scope closes.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.task_started();
        let state = self.state.clone();
        let telemetry = self.telemetry.clone();
        let depth = self.pool.depth.clone();

        if self.pool.queues.is_empty() || IS_WORKER.with(|w| w.get()) {
            // Inline: either a serial pool, or a scope opened from inside a
            // pool task (see [`IS_WORKER`]) — queueing sub-tasks behind a
            // worker that is about to block on them would deadlock. Same
            // panic policy as workers so one panicking stripe doesn't skip
            // its siblings.
            if let Err(p) = run_task(&telemetry, f) {
                state.store_panic(p);
            }
            state.task_finished();
            return;
        }

        let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            dequeued(&depth, &telemetry);
            if let Err(p) = run_task(&telemetry, f) {
                state.store_panic(p);
            }
            state.task_finished();
        });
        // SAFETY: the task is erased to 'static to live in the queue, but
        // `WorkerPool::scope` joins every task (wait_all) before returning,
        // including on unwind, so no borrow of 'scope/'env is dangling
        // while the closure can still run. Identical layout: only the
        // lifetime parameter of the trait object changes.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.pool.queues.len();
        self.pool.push(i, task, &self.telemetry);
    }
}

/// Thread count for the process-wide pool: `LIVO_THREADS` if set to a
/// positive integer, else [`std::thread::available_parallelism`].
pub fn threads_from_env() -> usize {
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

/// The process-wide pool, built on first use with [`threads_from_env`]
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
            let released = Arc::new(AtomicBool::new(false));
            let started = Arc::new(AtomicUsize::new(0));
            let (p, r, st) = (pool.clone(), released.clone(), started.clone());
            let thread = std::thread::spawn(move || {
                p.scope(|s| {
                    for _ in 0..p.threads() {
                        let (r, st) = (&r, &st);
                        s.spawn(move || {
                            st.fetch_add(1, Ordering::SeqCst);
                            let t0 = Instant::now();
                            while !r.load(Ordering::SeqCst) && t0.elapsed() < HOLD {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        });
                    }
                })
            });
            while started.load(Ordering::SeqCst) < pool.threads() {
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
        // The workers now pop the queue entry the caller emptied; it runs
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
        // Inline from inside a pool task: the task and its two sides.
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
    fn nested_scope_from_worker_runs_inline_without_deadlock() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        // Outer tasks each open an inner scope on the same pool: without the
        // worker re-entrancy guard this deadlocks (inner tasks queue behind
        // the blocked outer task on a striped pool).
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
        assert_eq!(total.load(Ordering::Relaxed), 32);
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
