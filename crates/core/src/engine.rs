//! The persistent execution engine behind every parallel code path.
//!
//! PR 2 made candidate evaluation allocation-free and sharded, but each
//! batch still paid a `std::thread::scope` spawn (tens of microseconds
//! per worker) and three call sites carried their own
//! `available_parallelism()` heuristics. For the paper's H2O/Cr2-scale
//! runs — hundreds of thousands of small batches — thread churn, not the
//! tableau kernel, becomes the pacing item. This module replaces all of
//! that with one [`ExecEngine`]: a pool of long-lived worker threads fed
//! self-contained jobs over a channel, shared by
//! [`CliffordObjective::evaluate_batch`](crate::CliffordObjective::evaluate_batch),
//! [`exhaustive_search_on`](crate::exhaustive::exhaustive_search_on), the
//! polish sweeps in [`run_cafqa`](crate::run_cafqa), and (through the
//! [`cafqa_bayesopt::Executor`] seam) the random-forest surrogate's
//! batched scoring.
//!
//! # Determinism
//!
//! Jobs complete in arbitrary order, so every dispatch API here keys
//! results by shard index and reassembles them in submission order:
//! [`ExecEngine::map`] returns results positionally, exactly as the
//! serial fallback would produce them. Combined with the fixed
//! partial-sum association in the objective kernel, a search trace is
//! bit-identical at any worker count — including 1 — and across hosts.
//!
//! # Two-level dispatch
//!
//! [`ExecEngine::map`] called from inside a pool worker degrades to
//! serial (a saturated pool would deadlock otherwise).
//! [`ExecEngine::map_nested`] is the second dispatch level that does
//! *not*: the caller drains a shared claim queue itself while idle
//! workers opportunistically steal from it, so a worker evaluating one
//! huge candidate can shard its term sum across the rest of the pool —
//! the seam behind the 34-qubit Cr2-surrogate expectation path in
//! [`CliffordObjective`](crate::CliffordObjective).
//!
//! # Worker-count policy
//!
//! [`default_workers`] is the single source of truth (previously three
//! scattered `min(8)`/`min(16)` heuristics): the host parallelism capped
//! at 16, overridable with the `CAFQA_WORKERS` environment variable.
//! [`ExecEngine::global`] exposes one process-wide engine built from it,
//! so independent searches in one process share a single pool instead of
//! oversubscribing the host.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};
use std::thread::JoinHandle;

/// A self-contained unit of work: owns its inputs and reports through a
/// channel captured at build time (the one definition, shared with the
/// [`cafqa_bayesopt::Executor`] seam).
pub use cafqa_bayesopt::Job;

/// Upper bound on the auto-detected worker count: beyond this the
/// shard-merge overhead outweighs the parallelism for CAFQA's batch
/// sizes. `CAFQA_WORKERS` overrides it.
const MAX_AUTO_WORKERS: usize = 16;

/// Parses a `CAFQA_WORKERS` value: a positive thread count.
fn parse_workers(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The worker-count decision, env-free so it unit-tests without
/// touching the process environment (`setenv` during concurrent
/// `getenv` is UB in glibc): given the raw `CAFQA_WORKERS` value (if
/// set) and the host parallelism, returns the worker count and — when
/// the variable was set but rejected — the warning to emit, naming the
/// rejected value and the fallback count.
fn worker_policy(env_value: Option<&str>, host_parallelism: usize) -> (usize, Option<String>) {
    let fallback = host_parallelism.clamp(1, MAX_AUTO_WORKERS);
    match env_value {
        None => (fallback, None),
        Some(value) => match parse_workers(value) {
            Some(n) => (n, None),
            None => (
                fallback,
                Some(format!(
                    "cafqa: ignoring invalid CAFQA_WORKERS value {value:?} \
                     (expected a positive integer); falling back to {fallback} workers"
                )),
            ),
        },
    }
}

/// The process-wide worker-count policy, replacing the per-call-site
/// heuristics that PR 2 left scattered over the objective, exhaustive
/// and forest layers: the `CAFQA_WORKERS` environment variable when set
/// to a positive integer, otherwise the available parallelism capped at
/// 16. Always at least 1. An *invalid* `CAFQA_WORKERS` value (`"many"`,
/// `"0"`, `"-3"`, …) falls back to the auto-detected count and warns
/// once on stderr — silently ignoring an explicit override hides
/// misconfigured deployments.
pub fn default_workers() -> usize {
    static WARN_ONCE: Once = Once::new();
    let env = std::env::var("CAFQA_WORKERS").ok();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (workers, warning) = worker_policy(env.as_deref(), host);
    if let Some(warning) = warning {
        WARN_ONCE.call_once(|| eprintln!("{warning}"));
    }
    workers
}

thread_local! {
    /// Set once in every pool worker. Dispatching through [`ExecEngine::map`]
    /// from inside a worker would deadlock a saturated pool (the outer job
    /// blocks waiting for inner jobs no idle worker can take), so that
    /// level of nested dispatch degrades to the serial path — which is
    /// bit-identical anyway. [`ExecEngine::map_nested`] is the dispatch
    /// API that *is* safe from inside a worker.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// Set while a thread runs a task claimed from a [`NestedBatch`].
    /// Dispatch nests exactly two levels deep: a `map_nested` issued from
    /// inside a nested task runs serially inline, which bounds the chain
    /// of threads blocked on one another and keeps the claim/wait scheme
    /// trivially deadlock-free.
    static IN_NESTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One intra-candidate work batch shared between the caller of
/// [`ExecEngine::map_nested`] and the opportunistic helper jobs it posts
/// to the pool. Tasks are *claimed* (dequeued under the lock) before they
/// run, so a task is either pending, or actively executing on some
/// thread — the caller can therefore safely block once the queue is
/// drained: everything it waits on is guaranteed to be making progress.
struct NestedBatch<T> {
    state: Mutex<NestedState<T>>,
    all_done: Condvar,
}

struct NestedState<T> {
    /// Unclaimed `(submission index, task)` pairs, in submission order.
    pending: VecDeque<(usize, Box<dyn FnOnce() -> T + Send>)>,
    /// Results keyed by submission index (the determinism contract).
    results: Vec<Option<T>>,
    completed: usize,
    /// First panic payload observed; re-raised by the caller after the
    /// whole batch has finished, matching [`ExecEngine::execute`].
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl<T> NestedBatch<T> {
    fn new(tasks: Vec<Box<dyn FnOnce() -> T + Send>>) -> Self {
        let total = tasks.len();
        NestedBatch {
            state: Mutex::new(NestedState {
                pending: tasks.into_iter().enumerate().collect(),
                results: (0..total).map(|_| None).collect(),
                completed: 0,
                panic: None,
            }),
            all_done: Condvar::new(),
        }
    }

    /// Claims and runs one pending task; returns `false` once none are
    /// left to claim. The queue lock is held only for the claim and the
    /// result store, never while the task runs.
    fn run_one(&self) -> bool {
        let (index, task) = {
            let mut state = self.state.lock().expect("nested batch poisoned");
            match state.pending.pop_front() {
                Some(entry) => entry,
                None => return false,
            }
        };
        let was_nested = IN_NESTED.with(|flag| flag.replace(true));
        let outcome = catch_unwind(AssertUnwindSafe(task));
        IN_NESTED.with(|flag| flag.set(was_nested));
        let mut state = self.state.lock().expect("nested batch poisoned");
        match outcome {
            Ok(value) => state.results[index] = Some(value),
            Err(payload) => {
                if state.panic.is_none() {
                    state.panic = Some(payload);
                }
            }
        }
        state.completed += 1;
        if state.completed == state.results.len() {
            self.all_done.notify_all();
        }
        true
    }
}

/// The long-lived worker threads and the channel that feeds them.
struct WorkerPool {
    /// `None` only transiently during drop (taking it hangs up the
    /// channel so workers drain and exit).
    sender: Option<mpsc::Sender<Job>>,
    /// Workers currently parked on (or about to take) the job queue —
    /// an *advisory* count: [`ExecEngine::map_nested`] posts helper jobs
    /// only up to it, so a saturated pool is not flooded with no-op
    /// helpers. Raciness is harmless; helpers are opportunistic either
    /// way.
    idle: Arc<std::sync::atomic::AtomicUsize>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(workers: usize) -> WorkerPool {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let idle = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let idle = Arc::clone(&idle);
                std::thread::Builder::new()
                    .name(format!("cafqa-worker-{i}"))
                    .spawn(move || {
                        IN_WORKER.with(|flag| flag.set(true));
                        loop {
                            // Hold the queue lock only for the dequeue,
                            // never while running the job.
                            idle.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let job = receiver.lock().expect("worker queue poisoned").recv();
                            idle.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                            match job {
                                Ok(job) => job(),
                                Err(_) => break, // engine dropped: drain and exit
                            }
                        }
                    })
                    .expect("worker thread spawn failed")
            })
            .collect();
        WorkerPool { sender: Some(sender), idle, handles }
    }

    fn idle_workers(&self) -> usize {
        self.idle.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn send(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("pool sender alive until drop")
            .send(job)
            .expect("worker pool hung up");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Hang up the job channel first so idle workers see the
        // disconnect, then wait for in-flight jobs to finish.
        self.sender.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

struct Inner {
    workers: usize,
    /// `None` for a serial engine (1 worker): no threads at all.
    pool: Option<WorkerPool>,
}

/// A persistent worker-pool execution engine.
///
/// Cloning is cheap (an `Arc` handle) and clones share the same pool;
/// the threads shut down when the last handle drops. An engine with one
/// worker spawns no threads and runs everything on the calling thread —
/// the reference semantics every pooled dispatch reproduces exactly.
///
/// # Examples
///
/// ```
/// use cafqa_core::engine::ExecEngine;
///
/// let engine = ExecEngine::new(4);
/// let tasks: Vec<_> = (0..8u64).map(|i| move || i * i).collect();
/// // Results come back in submission order regardless of scheduling.
/// assert_eq!(engine.map(tasks), vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Clone)]
pub struct ExecEngine {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecEngine").field("workers", &self.inner.workers).finish()
    }
}

impl ExecEngine {
    /// An engine with exactly `workers` threads (clamped to ≥ 1; one
    /// worker means no threads and pure calling-thread execution).
    pub fn new(workers: usize) -> ExecEngine {
        let workers = workers.max(1);
        let pool = (workers > 1).then(|| WorkerPool::spawn(workers));
        ExecEngine { inner: Arc::new(Inner { workers, pool }) }
    }

    /// An engine sized by [`default_workers`] (`CAFQA_WORKERS` honored).
    pub fn from_env() -> ExecEngine {
        ExecEngine::new(default_workers())
    }

    /// A single-threaded engine (no worker threads).
    pub fn serial() -> ExecEngine {
        ExecEngine::new(1)
    }

    /// The process-wide shared engine, created on first use via
    /// [`ExecEngine::from_env`]. This is what the public entry points
    /// ([`run_cafqa`](crate::run_cafqa),
    /// [`CliffordObjective::new`](crate::CliffordObjective::new)) use
    /// unless handed an explicit engine; its threads live for the rest
    /// of the process.
    pub fn global() -> &'static ExecEngine {
        static GLOBAL: OnceLock<ExecEngine> = OnceLock::new();
        GLOBAL.get_or_init(ExecEngine::from_env)
    }

    /// The engine's worker count (1 for a serial engine).
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Whether dispatch would actually use pool threads right now (false
    /// for serial engines and when called from inside a worker, where
    /// nested dispatch degrades to serial execution).
    pub fn is_pooled(&self) -> bool {
        self.inner.pool.is_some() && !IN_WORKER.with(|flag| flag.get())
    }

    /// Runs every job to completion before returning. Panics inside
    /// jobs are collected and re-raised on the calling thread after the
    /// whole batch has finished (so no job is silently dropped).
    pub fn execute(&self, jobs: Vec<Job>) {
        let pool = match &self.inner.pool {
            Some(pool) if jobs.len() > 1 && self.is_pooled() => pool,
            _ => {
                for job in jobs {
                    job();
                }
                return;
            }
        };
        let pending = jobs.len();
        let (done_tx, done_rx) = mpsc::channel::<std::thread::Result<()>>();
        for job in jobs {
            let done = done_tx.clone();
            pool.send(Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(job));
                let _ = done.send(outcome);
            }));
        }
        drop(done_tx);
        let mut panic_payload = None;
        for _ in 0..pending {
            match done_rx.recv().expect("worker pool hung up mid-batch") {
                Ok(()) => {}
                Err(payload) => panic_payload = Some(payload),
            }
        }
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
    }

    /// Runs `tasks` across the pool and returns their results **in
    /// submission order** — the deterministic shard→result contract the
    /// whole search stack builds on. Serial engines (and nested calls
    /// from inside a worker) run the tasks in order on the calling
    /// thread, producing identical results. Delegates to the shared
    /// [`cafqa_bayesopt::map_jobs`] shard/merge implementation.
    pub fn map<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if !self.is_pooled() || tasks.len() <= 1 {
            return tasks.into_iter().map(|task| task()).collect();
        }
        let tasks: Vec<Box<dyn FnOnce() -> T + Send>> =
            tasks.into_iter().map(|task| Box::new(task) as Box<dyn FnOnce() -> T + Send>).collect();
        cafqa_bayesopt::map_jobs(self, tasks)
    }

    /// Two-level dispatch: runs `tasks` with the help of whatever pool
    /// workers happen to be idle, and returns results **in submission
    /// order** — the intra-candidate counterpart of [`ExecEngine::map`].
    ///
    /// Unlike `map`, this is safe to call *from inside a pool worker*
    /// (the seam that lets one worker split a large Hamiltonian term sum
    /// across the rest of the pool instead of degrading to serial): the
    /// calling thread claims and runs tasks itself, and only posts
    /// *opportunistic* helper jobs — an idle worker that picks one up
    /// steals pending tasks until the batch is drained, while on a
    /// saturated pool the helpers simply no-op later and the caller has
    /// already done all the work serially. The caller blocks only on
    /// tasks that were claimed by (and are actively running on) other
    /// workers, so the scheme cannot deadlock; a `map_nested` issued from
    /// within a nested task runs serially inline (dispatch nests exactly
    /// two levels).
    ///
    /// Panics inside tasks are re-raised on the calling thread after the
    /// whole batch has finished, and results are keyed by submission
    /// index — both exactly as in [`ExecEngine::map`], so serial, pooled
    /// and helper-assisted execution are indistinguishable result-wise.
    pub fn map_nested<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let pool = match &self.inner.pool {
            Some(pool) if tasks.len() > 1 && !IN_NESTED.with(|flag| flag.get()) => pool,
            _ => return tasks.into_iter().map(|task| task()).collect(),
        };
        let total = tasks.len();
        let tasks: Vec<Box<dyn FnOnce() -> T + Send>> =
            tasks.into_iter().map(|task| Box::new(task) as Box<dyn FnOnce() -> T + Send>).collect();
        let batch = Arc::new(NestedBatch::new(tasks));
        // Helper jobs capture only the batch (never the engine handle, so
        // a helper outliving this call can never be the last owner of the
        // pool and join a worker into itself). Only currently-idle
        // workers get one: on a saturated pool — every worker busy with
        // an outer shard that nests per candidate — posting blindly would
        // grow the queue by O(candidates × workers) no-op jobs. The count
        // is advisory; a worker going idle a moment later just misses
        // this batch, which helpers may anyway.
        let helpers = pool.idle_workers().min(self.inner.workers - 1).min(total - 1);
        for _ in 0..helpers {
            let batch = Arc::clone(&batch);
            pool.send(Box::new(move || while batch.run_one() {}));
        }
        while batch.run_one() {}
        let mut state = batch.state.lock().expect("nested batch poisoned");
        while state.completed < total {
            state = batch.all_done.wait(state).expect("nested batch poisoned");
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            resume_unwind(payload);
        }
        state
            .results
            .iter_mut()
            .map(|slot| slot.take().expect("every nested task completes exactly once"))
            .collect()
    }
}

impl cafqa_bayesopt::Executor for ExecEngine {
    fn workers(&self) -> usize {
        self.workers()
    }

    fn execute(&self, jobs: Vec<cafqa_bayesopt::Job>) {
        ExecEngine::execute(self, jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_submission_order() {
        for workers in [1usize, 2, 8] {
            let engine = ExecEngine::new(workers);
            let tasks: Vec<_> = (0..64u64).map(|i| move || i.wrapping_mul(0x9E37_79B9)).collect();
            let expected: Vec<u64> = (0..64).map(|i: u64| i.wrapping_mul(0x9E37_79B9)).collect();
            assert_eq!(engine.map(tasks), expected, "{workers} workers");
        }
    }

    #[test]
    fn pool_survives_many_batches() {
        // The whole point: one spawn, thousands of dispatches.
        let engine = ExecEngine::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..500 {
            let tasks: Vec<_> = (0..4)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    move || counter.fetch_add(1, Ordering::Relaxed)
                })
                .collect();
            engine.map(tasks);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn panics_propagate_after_batch_completes() {
        let engine = ExecEngine::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = (0..4)
            .map(|i| {
                let completed = Arc::clone(&completed);
                Box::new(move || {
                    if i == 1 {
                        panic!("job {i} exploded");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                }) as Job
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| engine.execute(jobs)));
        assert!(result.is_err(), "panic must propagate");
        // Every non-panicking job still ran before the re-raise.
        assert_eq!(completed.load(Ordering::SeqCst), 3);
        // The pool is still serviceable after a panicking batch.
        assert_eq!(engine.map(vec![|| 7usize]), vec![7]);
    }

    #[test]
    fn map_nested_preserves_submission_order() {
        for workers in [1usize, 2, 8] {
            let engine = ExecEngine::new(workers);
            let tasks: Vec<_> = (0..37u64).map(|i| move || i.wrapping_mul(0x85EB_CA6B)).collect();
            let expected: Vec<u64> = (0..37).map(|i: u64| i.wrapping_mul(0x85EB_CA6B)).collect();
            assert_eq!(engine.map_nested(tasks), expected, "{workers} workers");
        }
    }

    #[test]
    fn map_nested_from_inside_workers_uses_the_pool() {
        // The tentpole shape: every outer job splits its own work through
        // map_nested while the pool is partially idle. Results must be
        // identical to the serial nesting, and nothing may deadlock.
        let engine = ExecEngine::new(4);
        let tasks: Vec<_> = (0..2u64)
            .map(|offset| {
                let inner = engine.clone();
                move || {
                    let sub: Vec<_> =
                        (0..16u64).map(|i| move || (i + offset).wrapping_mul(3)).collect();
                    inner.map_nested(sub).into_iter().sum::<u64>()
                }
            })
            .collect();
        let results = engine.map(tasks);
        let expect = |offset: u64| (0..16u64).map(|i| (i + offset).wrapping_mul(3)).sum::<u64>();
        assert_eq!(results, vec![expect(0), expect(1)]);
    }

    #[test]
    fn map_nested_saturated_pool_does_not_deadlock() {
        // More outer jobs than workers, every one of them nesting: the
        // helpers never get an idle worker, so each caller must drain its
        // own queue serially — and still merge deterministically.
        let engine = ExecEngine::new(2);
        let tasks: Vec<_> = (0..8u64)
            .map(|offset| {
                let inner = engine.clone();
                move || inner.map_nested((0..8u64).map(|i| move || i ^ offset).collect::<Vec<_>>())
            })
            .collect();
        let results = engine.map(tasks);
        for (offset, row) in results.into_iter().enumerate() {
            let expected: Vec<u64> = (0..8u64).map(|i| i ^ offset as u64).collect();
            assert_eq!(row, expected);
        }
    }

    #[test]
    fn map_nested_third_level_runs_serially_inline() {
        let engine = ExecEngine::new(4);
        let outer = engine.clone();
        let results = engine.map_nested(
            (0..4u64)
                .map(|k| {
                    let inner = outer.clone();
                    move || {
                        // From inside a nested task, a further map_nested
                        // must run inline (and therefore never block).
                        inner.map_nested((0..2u64).map(|j| move || k * 10 + j).collect::<Vec<_>>())
                    }
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(results, vec![vec![0, 1], vec![10, 11], vec![20, 21], vec![30, 31]]);
    }

    #[test]
    fn map_nested_panics_propagate_after_batch_completes() {
        let engine = ExecEngine::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..6usize)
            .map(|i| {
                let completed = Arc::clone(&completed);
                move || {
                    if i == 2 {
                        panic!("nested task {i} exploded");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                    i
                }
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| engine.map_nested(tasks)));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(completed.load(Ordering::SeqCst), 5, "non-panicking tasks all ran");
        // The engine stays serviceable afterwards.
        assert_eq!(engine.map_nested(vec![|| 1, || 2]), vec![1, 2]);
    }

    #[test]
    fn nested_dispatch_degrades_to_serial() {
        let engine = ExecEngine::new(2);
        // Jobs that dispatch through the same engine: must not deadlock
        // even though every pool worker may be busy.
        let tasks: Vec<_> = (0..2u64)
            .map(|offset| {
                let inner = engine.clone();
                move || inner.map((0..8u64).map(|i| move || i + offset).collect::<Vec<_>>())
            })
            .collect();
        let results = engine.map(tasks);
        assert_eq!(results[0], vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(results[1], vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    /// The override logic is tested through the pure parser —
    /// `default_workers` is a one-line composition of it with
    /// `env::var`, and mutating the process environment from a test
    /// would race other tests reading it concurrently (`getenv` during
    /// `setenv` is UB in glibc).
    #[test]
    fn workers_env_parse_rules() {
        assert_eq!(parse_workers("4"), Some(4));
        assert_eq!(parse_workers(" 12 "), Some(12));
        assert_eq!(parse_workers("0"), None, "zero workers is meaningless");
        assert_eq!(parse_workers("-3"), None);
        assert_eq!(parse_workers("many"), None);
        assert_eq!(parse_workers(""), None);
        assert!(default_workers() >= 1);
    }

    /// The full decision function, env-free: valid overrides win, unset
    /// falls back silently, and *invalid* values fall back **with a
    /// warning** naming the rejected value and the fallback count.
    #[test]
    fn worker_policy_warns_on_invalid_override_only() {
        // Unset: host parallelism capped at MAX_AUTO_WORKERS, no warning.
        assert_eq!(worker_policy(None, 4), (4, None));
        assert_eq!(worker_policy(None, 64), (MAX_AUTO_WORKERS, None));
        assert_eq!(worker_policy(None, 0), (1, None), "degenerate host still gets 1");
        // Valid override: taken verbatim (not capped), no warning.
        assert_eq!(worker_policy(Some("12"), 4), (12, None));
        assert_eq!(worker_policy(Some(" 32 "), 4), (32, None));
        // Invalid override: fallback plus a one-line warning that names
        // both the rejected value and the count actually used.
        for bad in ["many", "0", "-3", ""] {
            let (workers, warning) = worker_policy(Some(bad), 6);
            assert_eq!(workers, 6, "{bad:?} falls back to the host count");
            let warning = warning.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(warning.contains(&format!("{bad:?}")), "{warning}");
            assert!(warning.contains("6 workers"), "{warning}");
            assert!(warning.contains("CAFQA_WORKERS"), "{warning}");
        }
    }

    #[test]
    fn serial_engine_spawns_no_threads() {
        let engine = ExecEngine::serial();
        assert_eq!(engine.workers(), 1);
        assert!(!engine.is_pooled());
        assert_eq!(engine.map(vec![|| 1, || 2, || 3]), vec![1, 2, 3]);
    }

    #[test]
    fn executor_trait_runs_jobs_to_completion() {
        let engine = ExecEngine::new(2);
        let (tx, rx) = mpsc::channel();
        let jobs: Vec<Job> = (0..16)
            .map(|i| {
                let tx = tx.clone();
                Box::new(move || tx.send(i).unwrap()) as Job
            })
            .collect();
        cafqa_bayesopt::Executor::execute(&engine, jobs);
        drop(tx);
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }
}
