//! Scoped worker pool for the LiVo hot path.
//!
//! The per-frame stages that pay for a second thread — per-camera ray
//! casting, the block-row DCT/quant/motion loop of the 2D encoder, the
//! receiver's colour ∥ depth decode and the SFU's per-cluster and
//! per-subscriber passes — are data-parallel over disjoint parts of their
//! input. This crate provides the one concurrency primitive they share: a
//! **fixed-size pool of worker threads** with
//!
//! - **scoped spawning** ([`WorkerPool::scope`]): tasks may borrow from the
//!   caller's stack; the scope joins every task before it returns, so the
//!   borrow checker's usual `'static` bound is not needed;
//! - **striped dispatch**: tasks are assigned to workers round-robin in
//!   spawn order. There is **no work stealing** — the assignment of stripe
//!   *i* to worker *i mod n* is deterministic, which keeps scheduling out
//!   of the set of things that can perturb a run;
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
//! change *output*. The 2D encoder therefore only stripes the
//! order-independent work (motion search, DCT, quantisation,
//! reconstruction) and keeps the adaptive range coder as a serial pass
//! over the already-quantised coefficients — see `livo-codec2d::encoder`.

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
    /// (e.g. a subscriber stand-in's colour/depth decode join inside the
    /// SFU's sharded fan-out) runs its tasks inline on the spawning worker:
    /// queueing them would let a blocked `wait_all` sit in front of its own
    /// sub-tasks in the worker's FIFO and deadlock the striped
    /// (non-stealing) pool.
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

    /// Run two closures concurrently and return both results — the binary
    /// fork/join form of [`WorkerPool::scope`], used by the receiver to
    /// decode the colour and depth streams side by side. On a one-thread
    /// pool (or when called from inside a pool task) `a` and `b` run
    /// sequentially on the calling thread; a panic in either is propagated
    /// after both have been joined.
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
        let mut rb = None;
        self.scope(|s| {
            let slot_a = &mut ra;
            let slot_b = &mut rb;
            s.spawn(move || *slot_a = Some(a()));
            s.spawn(move || *slot_b = Some(b()));
        });
        (
            ra.expect("join closure a did not run"),
            rb.expect("join closure b did not run"),
        )
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
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(f));
            if let Some(t) = &telemetry {
                t.task_ms.record(started.elapsed().as_secs_f64() * 1e3);
                t.tasks.inc();
            }
            if let Err(p) = result {
                state.store_panic(p);
            }
            state.task_finished();
            return;
        }

        let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let queued = depth.fetch_sub(1, Ordering::Relaxed) - 1;
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(f));
            if let Some(t) = &telemetry {
                t.queue_depth.set(queued as f64);
                t.task_ms.record(started.elapsed().as_secs_f64() * 1e3);
                t.tasks.inc();
            }
            if let Err(p) = result {
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
        let queued = self.pool.depth.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(t) = &self.telemetry {
            t.queue_depth.set(queued as f64);
        }
        self.pool.queues[i].push(task);
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
    use std::sync::atomic::AtomicU64;

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
