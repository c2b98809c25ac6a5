//! The job server: admission control, the content-addressed cache, and
//! a fair-share scheduler thread slicing concurrent jobs over one
//! shared [`ExecEngine`].

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cafqa_core::fingerprint::{coefficient_vector, family_fingerprint, job_fingerprint};
use cafqa_core::{CafqaJob, CafqaResult, CliffordObjective, ExecEngine};

use crate::cache::{CacheRecord, ResultCache};
use crate::job::{Disposition, JobId, JobOutcome, JobSpec, JobStatus, ServeError};

/// Server policy knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Maximum jobs in flight (queued, running or suspended); further
    /// submissions reject with [`ServeError::QueueFull`] — the
    /// backpressure contract. Completed jobs do not count.
    pub capacity: usize,
    /// [`CafqaJob`] steps a job runs per scheduler slice before it is
    /// requeued round-robin: one step is one BO batch (the warm-up phase,
    /// then one per surrogate refit), the polish endgame, or an
    /// Ising-routed solve. The job's state stays in memory between
    /// slices, so slicing costs nothing beyond rebuilding the objective;
    /// small slices keep one Cr2-class job from starving H2-sized ones,
    /// and stepping is bit-identical to a solo run, so the slicing is
    /// invisible in every result.
    pub slice_batches: usize,
    /// Warm-start near hits: seed a new job's search with the incumbent
    /// of the nearest completed same-family job (same term masks,
    /// nearest coefficients). Disable to make every non-cached job's
    /// effective inputs exactly its submitted inputs.
    pub warm_start: bool,
    /// Completed results kept in the cache (FIFO eviction beyond this).
    /// The same bound caps the job table: once more than this many jobs
    /// are terminal (completed, answered from the cache, cancelled or
    /// failed), the oldest terminal entries are retired in the order
    /// they finished, and their ids answer [`ServeError::UnknownJob`].
    /// Memory therefore stays flat under sustained traffic; a caller
    /// must `wait` for a job before `cache_capacity` later jobs finish.
    pub cache_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { capacity: 64, slice_batches: 4, warm_start: true, cache_capacity: 256 }
    }
}

/// Lifetime serving statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Jobs accepted by [`CafqaServer::submit`].
    pub submitted: u64,
    /// Jobs rejected at admission (validation or backpressure).
    pub rejected: u64,
    /// Jobs that finished with a result (fresh, warm-started or cached).
    pub completed: u64,
    /// Completions answered from the cache without recompute.
    pub cache_hits: u64,
    /// Completions that ran with an injected warm-start seed.
    pub warm_starts: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Jobs whose slice panicked (an internal bug, isolated to the job).
    pub failed: u64,
    /// Scheduler slices executed (suspensions + completions).
    pub slices: u64,
}

struct JobEntry {
    status: JobStatus,
    /// The submission and its search state while the job is in flight;
    /// dropped once it is terminal.
    live: Option<LiveJob>,
    /// The completed result.
    finished: Option<Finished>,
    error: Option<String>,
    cancel: Arc<AtomicBool>,
}

impl JobEntry {
    fn new(status: JobStatus, live: Option<LiveJob>, finished: Option<Finished>) -> Self {
        JobEntry { status, live, finished, error: None, cancel: Arc::new(AtomicBool::new(false)) }
    }
}

/// What the scheduler needs of a job in flight.
struct LiveJob {
    spec: Arc<JobSpec>,
    /// Exact fingerprint of the spec as submitted.
    fingerprint_submitted: u64,
    /// Exact fingerprint of the spec actually run (differs from
    /// `fingerprint_submitted` when a warm-start seed was injected).
    fingerprint_effective: u64,
    family: u64,
    disposition: Disposition,
    /// The in-memory search state between slices (`None` before the
    /// first slice).
    job: Option<CafqaJob>,
}

/// A completed job: its result (shared with the cache record) and
/// provenance.
struct Finished {
    result: Arc<CafqaResult>,
    disposition: Disposition,
    seeds_used: Vec<Vec<usize>>,
}

impl Finished {
    fn outcome(&self, id: JobId) -> JobOutcome {
        JobOutcome {
            id,
            result: (*self.result).clone(),
            disposition: self.disposition,
            seeds_used: self.seeds_used.clone(),
        }
    }
}

struct ServerState {
    jobs: HashMap<u64, JobEntry>,
    /// Terminal job ids in the order they finished; the oldest are
    /// retired from `jobs` beyond `ServeOptions::cache_capacity`.
    terminal: VecDeque<u64>,
    terminal_capacity: usize,
    /// Round-robin run queue of job ids.
    queue: VecDeque<u64>,
    cache: ResultCache,
    next_id: u64,
    in_flight: usize,
    shutdown: bool,
    stats: ServerStats,
}

impl ServerState {
    /// Completes job `id` on the spot from the record cached under
    /// `fingerprint`; `false` on a miss.
    fn complete_from_cache(&mut self, id: u64, fingerprint: u64) -> bool {
        let Some(record) = self.cache.get(fingerprint) else {
            return false;
        };
        let finished = Finished {
            result: Arc::clone(&record.result),
            disposition: Disposition::CacheHit,
            seeds_used: record.seeds_used.clone(),
        };
        self.jobs.insert(id, JobEntry::new(JobStatus::Completed, None, Some(finished)));
        self.stats.completed += 1;
        self.stats.cache_hits += 1;
        self.retire_beyond_capacity(id);
        true
    }

    /// Records that job `id` just became terminal, then drops the oldest
    /// terminal entries beyond the capacity, so the job table (and the
    /// results its entries hold) cannot grow with throughput.
    fn retire_beyond_capacity(&mut self, id: u64) {
        self.terminal.push_back(id);
        while self.terminal.len() > self.terminal_capacity {
            let oldest = self.terminal.pop_front().expect("longer than the capacity");
            self.jobs.remove(&oldest);
        }
    }
}

struct Shared {
    engine: ExecEngine,
    opts: ServeOptions,
    state: Mutex<ServerState>,
    /// Wakes the scheduler (new work or shutdown).
    wake: Condvar,
    /// Wakes waiters (a job reached a terminal status).
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, ServerState> {
        recover(self.state.lock())
    }
}

/// Takes the guard out of a lock or condvar-wait result, poisoned or not.
/// A thread that panics while holding the state lock poisons it. Locked
/// sections check their invariants (`expect`) before they write, so a
/// panic leaves no half-updated job entry, and recovering keeps that one
/// panic from failing every later `submit`, `wait` and `stats` call, and
/// the scheduler with them.
fn recover<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// A long-running CAFQA job server over one shared engine. See the
/// crate docs for the serving model; construction starts the scheduler
/// thread, [`CafqaServer::shutdown`] (or drop) stops it after draining
/// in-flight jobs.
pub struct CafqaServer {
    shared: Arc<Shared>,
    scheduler: Option<JoinHandle<()>>,
}

impl CafqaServer {
    /// Starts a server scheduling onto `engine`.
    pub fn start(engine: ExecEngine, opts: ServeOptions) -> Self {
        let shared = Arc::new(Shared {
            engine,
            state: Mutex::new(ServerState {
                jobs: HashMap::new(),
                terminal: VecDeque::new(),
                terminal_capacity: opts.cache_capacity,
                queue: VecDeque::new(),
                cache: ResultCache::new(opts.cache_capacity),
                next_id: 0,
                in_flight: 0,
                shutdown: false,
                stats: ServerStats::default(),
            }),
            opts,
            wake: Condvar::new(),
            done: Condvar::new(),
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cafqa-serve-scheduler".into())
                .spawn(move || scheduler_loop(&shared))
                .expect("scheduler thread spawn failed")
        };
        CafqaServer { shared, scheduler: Some(scheduler) }
    }

    /// Submits a job. Validation failures, a full queue, and a
    /// shutting-down server reject with a structured [`ServeError`] —
    /// never a panic. An exact cache hit completes the job immediately
    /// (no queue slot consumed); otherwise the job enters the
    /// round-robin queue, possibly warm-started from the nearest cached
    /// same-family completion.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        let mut state = self.shared.lock();
        if state.shutdown {
            state.stats.rejected += 1;
            return Err(ServeError::ShuttingDown);
        }
        if let Err(err) = spec.validate() {
            state.stats.rejected += 1;
            return Err(err);
        }
        let penalties = spec.build_penalties();
        let fingerprint_submitted =
            job_fingerprint(&spec.ansatz, &spec.hamiltonian, &penalties, &spec.seeds, &spec.opts);
        let family = family_fingerprint(
            &spec.ansatz,
            &spec.hamiltonian,
            &penalties,
            &spec.seeds,
            &spec.opts,
        );
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.stats.submitted += 1;
        // Exact hit on the as-submitted spec: completed on the spot.
        if state.complete_from_cache(id.0, fingerprint_submitted) {
            drop(state);
            self.shared.done.notify_all();
            return Ok(id);
        }
        // Backpressure: only jobs that will occupy the scheduler count.
        if state.in_flight >= self.shared.opts.capacity {
            state.stats.rejected += 1;
            return Err(ServeError::QueueFull { capacity: self.shared.opts.capacity });
        }
        // Near hit: warm-start from the nearest cached family member.
        let mut spec = spec;
        let mut disposition = Disposition::Fresh;
        if self.shared.opts.warm_start {
            let coefficients = coefficient_vector(&spec.hamiltonian);
            if let Some(donor) =
                state.cache.nearest_in_family(family, &coefficients, fingerprint_submitted)
            {
                spec.seeds.insert(0, donor.incumbent);
                disposition = Disposition::WarmStarted { distance: donor.distance };
            }
        }
        let fingerprint_effective = match disposition {
            Disposition::Fresh => fingerprint_submitted,
            _ => job_fingerprint(
                &spec.ansatz,
                &spec.hamiltonian,
                &penalties,
                &spec.seeds,
                &spec.opts,
            ),
        };
        // The effective spec may itself be cached (same donor chosen on
        // an earlier identical submission whose as-submitted alias was
        // since evicted): still an exact hit.
        if fingerprint_effective != fingerprint_submitted
            && state.complete_from_cache(id.0, fingerprint_effective)
        {
            drop(state);
            self.shared.done.notify_all();
            return Ok(id);
        }
        let live = LiveJob {
            spec: Arc::new(spec),
            fingerprint_submitted,
            fingerprint_effective,
            family,
            disposition,
            job: None,
        };
        state.jobs.insert(id.0, JobEntry::new(JobStatus::Queued, Some(live), None));
        state.queue.push_back(id.0);
        state.in_flight += 1;
        drop(state);
        self.shared.wake.notify_all();
        Ok(id)
    }

    /// The job's current lifecycle status.
    pub fn status(&self, id: JobId) -> Result<JobStatus, ServeError> {
        let state = self.shared.lock();
        state.jobs.get(&id.0).map(|e| e.status).ok_or(ServeError::UnknownJob(id))
    }

    /// Blocks until the job reaches a terminal status and returns its
    /// outcome (or the structured failure).
    pub fn wait(&self, id: JobId) -> Result<JobOutcome, ServeError> {
        self.wait_until(id, None).map(|outcome| outcome.expect("waits without a deadline finish"))
    }

    /// [`Self::wait`] for at most `timeout`: `Ok(None)` if the job is
    /// still queued, running or suspended when the time runs out.
    pub fn wait_timeout(
        &self,
        id: JobId,
        timeout: Duration,
    ) -> Result<Option<JobOutcome>, ServeError> {
        // A timeout too long for an `Instant` waits without a deadline.
        self.wait_until(id, Instant::now().checked_add(timeout))
    }

    fn wait_until(
        &self,
        id: JobId,
        deadline: Option<Instant>,
    ) -> Result<Option<JobOutcome>, ServeError> {
        let mut state = self.shared.lock();
        loop {
            let Some(entry) = state.jobs.get(&id.0) else {
                return Err(ServeError::UnknownJob(id));
            };
            match entry.status {
                JobStatus::Completed => {
                    let finished = entry.finished.as_ref().expect("completed jobs carry a result");
                    return Ok(Some(finished.outcome(id)));
                }
                JobStatus::Cancelled => return Err(ServeError::Cancelled(id)),
                JobStatus::Failed => {
                    return Err(ServeError::JobFailed {
                        id,
                        message: entry.error.clone().unwrap_or_default(),
                    });
                }
                _ => {}
            }
            state = match deadline {
                None => recover(self.shared.done.wait(state)),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    recover(self.shared.done.wait_timeout(state, left)).0
                }
            };
        }
    }

    /// Requests cooperative cancellation. Queued jobs cancel before
    /// their first slice; running jobs stop before their next step.
    /// Returns whether the request landed on a live job (`false` once
    /// terminal).
    pub fn cancel(&self, id: JobId) -> Result<bool, ServeError> {
        let state = self.shared.lock();
        let Some(entry) = state.jobs.get(&id.0) else {
            return Err(ServeError::UnknownJob(id));
        };
        if entry.status.is_terminal() {
            return Ok(false);
        }
        entry.cancel.store(true, Ordering::Relaxed);
        drop(state);
        self.shared.wake.notify_all();
        Ok(true)
    }

    /// A snapshot of the lifetime statistics.
    pub fn stats(&self) -> ServerStats {
        self.shared.lock().stats
    }

    /// Number of cached completions currently held.
    pub fn cached_results(&self) -> usize {
        self.shared.lock().cache.len()
    }

    /// Stops admissions, drains every in-flight job (cancelled jobs
    /// stop before their next step), and joins the scheduler.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CafqaServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One slice of one job, run outside the state lock.
enum SliceOutcome {
    Completed(CafqaResult),
    Suspended(CafqaJob),
    Cancelled,
    Failed(String),
}

/// Steps `job` (started on the first slice) up to `steps` times on a
/// freshly built objective, checking for cancellation before each step.
fn run_slice(
    engine: &ExecEngine,
    spec: &JobSpec,
    job: Option<CafqaJob>,
    cancel: &AtomicBool,
    steps: usize,
) -> SliceOutcome {
    #[cfg(test)]
    if spec.opts.seed == tests::PANIC_SEED {
        panic!("injected slice panic");
    }
    let objective = spec.build_penalties().into_iter().fold(
        CliffordObjective::new(&spec.ansatz, &spec.hamiltonian).with_engine(engine.clone()),
        CliffordObjective::with_penalty,
    );
    let mut job = job.unwrap_or_else(|| CafqaJob::new(&objective, &spec.seeds, &spec.opts));
    for _ in 0..steps {
        if cancel.load(Ordering::Relaxed) {
            return SliceOutcome::Cancelled;
        }
        if let Some(result) = job.step(&objective) {
            return SliceOutcome::Completed(result);
        }
    }
    SliceOutcome::Suspended(job)
}

/// The message of a caught panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "slice panicked".to_string())
}

fn scheduler_loop(shared: &Shared) {
    loop {
        // Claim the next runnable job.
        let claimed = {
            let mut state = shared.lock();
            loop {
                if let Some(id) = state.queue.pop_front() {
                    break Some(id);
                }
                if state.shutdown {
                    break None;
                }
                state = recover(shared.wake.wait(state));
            }
        };
        let Some(id) = claimed else { return };
        // Take what the slice needs, mark Running.
        let (spec, job, cancel) = {
            let mut state = shared.lock();
            let entry = state.jobs.get_mut(&id).expect("queued jobs exist");
            if entry.cancel.load(Ordering::Relaxed) {
                entry.status = JobStatus::Cancelled;
                entry.live = None;
                state.in_flight -= 1;
                state.stats.cancelled += 1;
                state.retire_beyond_capacity(id);
                drop(state);
                shared.done.notify_all();
                continue;
            }
            let live = entry.live.as_mut().expect("queued jobs are live");
            let claimed = (Arc::clone(&live.spec), live.job.take(), Arc::clone(&entry.cancel));
            entry.status = JobStatus::Running;
            claimed
        };
        // Run one slice on the engine, lock released. The spec was
        // validated at admission; a panic anyway (an internal bug) fails
        // this job alone and drops its state — the scheduler lives on.
        let steps = shared.opts.slice_batches.max(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_slice(&shared.engine, &spec, job, &cancel, steps)
        }))
        .unwrap_or_else(|payload| SliceOutcome::Failed(panic_message(payload)));
        // Publish the slice result.
        let mut state = shared.lock();
        state.stats.slices += 1;
        match outcome {
            SliceOutcome::Completed(result) => {
                let entry = state.jobs.get_mut(&id).expect("running jobs exist");
                let live = entry.live.take().expect("running jobs are live");
                let result = Arc::new(result);
                entry.finished = Some(Finished {
                    result: Arc::clone(&result),
                    disposition: live.disposition,
                    seeds_used: live.spec.seeds.clone(),
                });
                entry.status = JobStatus::Completed;
                let record = CacheRecord {
                    keys: if live.fingerprint_submitted == live.fingerprint_effective {
                        vec![live.fingerprint_submitted]
                    } else {
                        vec![live.fingerprint_submitted, live.fingerprint_effective]
                    },
                    family: live.family,
                    coefficients: coefficient_vector(&live.spec.hamiltonian),
                    incumbent: result.best_config.clone(),
                    result,
                    seeds_used: live.spec.seeds.clone(),
                };
                state.cache.insert(record);
                state.in_flight -= 1;
                state.stats.completed += 1;
                if matches!(live.disposition, Disposition::WarmStarted { .. }) {
                    state.stats.warm_starts += 1;
                }
                state.retire_beyond_capacity(id);
                drop(state);
                shared.done.notify_all();
            }
            SliceOutcome::Suspended(job) => {
                let entry = state.jobs.get_mut(&id).expect("running jobs exist");
                entry.live.as_mut().expect("running jobs are live").job = Some(job);
                entry.status = JobStatus::Suspended;
                state.queue.push_back(id);
            }
            SliceOutcome::Cancelled => {
                let entry = state.jobs.get_mut(&id).expect("running jobs exist");
                entry.status = JobStatus::Cancelled;
                entry.live = None;
                state.in_flight -= 1;
                state.stats.cancelled += 1;
                state.retire_beyond_capacity(id);
                drop(state);
                shared.done.notify_all();
            }
            SliceOutcome::Failed(message) => {
                let entry = state.jobs.get_mut(&id).expect("running jobs exist");
                entry.status = JobStatus::Failed;
                entry.live = None;
                entry.error = Some(message);
                state.in_flight -= 1;
                state.stats.failed += 1;
                state.retire_beyond_capacity(id);
                drop(state);
                shared.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_circuit::EfficientSu2;
    use cafqa_core::{run_cafqa_on, CafqaOptions};
    use cafqa_pauli::PauliOp;

    use crate::job::ServeError;

    /// Jobs submitted with this BO seed panic at the start of their
    /// first slice.
    pub(super) const PANIC_SEED: u64 = 0xDEAD_5EED;

    fn three_qubit_job() -> (EfficientSu2, PauliOp, CafqaOptions) {
        let h: PauliOp = "0.5*XXI + 0.25*ZZI - 0.1*YIZ + 0.7*IZZ".parse().unwrap();
        let opts =
            CafqaOptions { warmup: 12, iterations: 16, polish_sweeps: 1, ..Default::default() };
        (EfficientSu2::new(3, 1), h, opts)
    }

    fn assert_matches_solo(served: &CafqaResult, solo: &CafqaResult) {
        assert_eq!(served.best_config, solo.best_config);
        assert_eq!(served.trace.len(), solo.trace.len());
        for (a, b) in served.trace.iter().zip(&solo.trace) {
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
            assert_eq!(a.penalized.to_bits(), b.penalized.to_bits());
        }
        assert_eq!(served.iterations_to_best, solo.iterations_to_best);
    }

    #[test]
    fn a_panicking_slice_fails_its_job_and_the_next_job_still_completes() {
        let (ansatz, h, opts) = three_qubit_job();
        let engine = ExecEngine::new(2);
        let serve_opts = ServeOptions { slice_batches: 1, warm_start: false, ..Default::default() };
        let mut server = CafqaServer::start(engine.clone(), serve_opts);
        let poisoned = JobSpec::new(
            ansatz.clone(),
            h.clone(),
            CafqaOptions { seed: PANIC_SEED, ..opts.clone() },
        );
        let bad = server.submit(poisoned).unwrap();
        let good = server.submit(JobSpec::new(ansatz.clone(), h.clone(), opts.clone())).unwrap();
        match server.wait(bad) {
            Err(ServeError::JobFailed { id, message }) => {
                assert_eq!(id, bad);
                assert!(message.contains("injected slice panic"), "message: {message}");
            }
            other => panic!("expected a structured failure, got {other:?}"),
        }
        assert_eq!(server.status(bad).unwrap(), JobStatus::Failed);
        let served = server.wait(good).unwrap();
        let solo = run_cafqa_on(&engine, &ansatz, &h, vec![], &[], &opts);
        assert_matches_solo(&served.result, &solo);
        let stats = server.stats();
        assert_eq!((stats.failed, stats.completed), (1, 1));
        server.shutdown();
    }

    #[test]
    fn terminal_entries_retire_fifo_beyond_the_cache_capacity() {
        let (ansatz, h, opts) = three_qubit_job();
        let engine = ExecEngine::new(2);
        let serve_opts =
            ServeOptions { cache_capacity: 3, warm_start: false, ..Default::default() };
        let mut server = CafqaServer::start(engine.clone(), serve_opts);
        let opts_with = |seed| CafqaOptions { seed, ..opts.clone() };
        let spec = |seed| JobSpec::new(ansatz.clone(), h.clone(), opts_with(seed));
        // One failed job, four fresh completions, one cache-hit completion.
        let failed = server.submit(spec(PANIC_SEED)).unwrap();
        assert!(matches!(server.wait(failed), Err(ServeError::JobFailed { .. })));
        let mut finished = Vec::new();
        for seed in [1, 2, 3, 4] {
            let id = server.submit(spec(seed)).unwrap();
            server.wait(id).unwrap();
            finished.push((id, seed));
        }
        finished.push((server.submit(spec(4)).unwrap(), 4));
        assert_eq!(server.stats().cache_hits, 1);
        // Six terminal jobs against a capacity of three: the three oldest
        // are gone, whatever way they ended.
        for retired in [failed, finished[0].0, finished[1].0] {
            assert!(
                matches!(server.status(retired), Err(ServeError::UnknownJob(id)) if id == retired)
            );
            assert!(
                matches!(server.wait(retired), Err(ServeError::UnknownJob(id)) if id == retired)
            );
            assert!(matches!(server.cancel(retired), Err(ServeError::UnknownJob(_))));
        }
        for &(id, seed) in &finished[2..] {
            let served = server.wait(id).unwrap();
            let solo = run_cafqa_on(&engine, &ansatz, &h, vec![], &[], &opts_with(seed));
            assert_matches_solo(&served.result, &solo);
        }
        server.shutdown();
    }

    #[test]
    fn a_poisoned_state_lock_is_recovered() {
        let (ansatz, h, opts) = three_qubit_job();
        let engine = ExecEngine::new(2);
        let serve_opts = ServeOptions { warm_start: false, ..Default::default() };
        let mut server = CafqaServer::start(engine.clone(), serve_opts);
        let shared = Arc::clone(&server.shared);
        let poisoner = std::thread::spawn(move || {
            let _state = shared.lock();
            panic!("poisoning the server state");
        });
        assert!(poisoner.join().is_err());
        assert!(server.shared.state.is_poisoned());
        let id = server.submit(JobSpec::new(ansatz.clone(), h.clone(), opts.clone())).unwrap();
        let served = server.wait(id).unwrap();
        let solo = run_cafqa_on(&engine, &ansatz, &h, vec![], &[], &opts);
        assert_matches_solo(&served.result, &solo);
        let stats = server.stats();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (1, 1, 0));
        server.shutdown();
    }

    #[test]
    fn over_budget_submissions_are_rejected_and_the_server_keeps_serving() {
        use crate::job::{MAX_EVALUATIONS, MAX_PROPOSALS_PER_REFIT};
        let (ansatz, h, opts) = three_qubit_job();
        let engine = ExecEngine::new(2);
        let serve_opts = ServeOptions { warm_start: false, ..Default::default() };
        let mut server = CafqaServer::start(engine.clone(), serve_opts);
        // Rejected at admission: none of these budgets is ever allocated.
        let over = [
            CafqaOptions { warmup: 1 << 40, ..opts.clone() },
            CafqaOptions { warmup: usize::MAX, iterations: usize::MAX, ..opts.clone() },
            CafqaOptions { iterations: MAX_EVALUATIONS + 1 - opts.warmup, ..opts.clone() },
            CafqaOptions { proposals_per_refit: usize::MAX, ..opts.clone() },
            CafqaOptions { proposals_per_refit: MAX_PROPOSALS_PER_REFIT + 1, ..opts.clone() },
        ];
        for bad in over {
            let rejected = server.submit(JobSpec::new(ansatz.clone(), h.clone(), bad));
            assert!(matches!(rejected, Err(ServeError::OverBudget { .. })), "{rejected:?}");
        }
        let id = server.submit(JobSpec::new(ansatz.clone(), h.clone(), opts.clone())).unwrap();
        let served = server.wait(id).unwrap();
        let solo = run_cafqa_on(&engine, &ansatz, &h, vec![], &[], &opts);
        assert_matches_solo(&served.result, &solo);
        let stats = server.stats();
        assert_eq!((stats.rejected, stats.submitted, stats.completed), (5, 1, 1));
        server.shutdown();
    }

    #[test]
    fn wait_timeout_returns_none_while_a_job_is_queued() {
        let (ansatz, h, opts) = three_qubit_job();
        let engine = ExecEngine::new(2);
        // One slice runs a whole job, so a long job ahead keeps the
        // scheduler busy until it is cancelled.
        let serve_opts =
            ServeOptions { slice_batches: usize::MAX, warm_start: false, ..Default::default() };
        let mut server = CafqaServer::start(engine.clone(), serve_opts);
        let long_opts = CafqaOptions { iterations: 1_000_000, seed: 7, ..opts.clone() };
        let long = server.submit(JobSpec::new(ansatz.clone(), h.clone(), long_opts)).unwrap();
        let queued = server.submit(JobSpec::new(ansatz.clone(), h.clone(), opts.clone())).unwrap();
        assert!(server.wait_timeout(queued, Duration::from_millis(20)).unwrap().is_none());
        assert_eq!(server.status(queued).unwrap(), JobStatus::Queued);
        assert!(server.cancel(long).unwrap());
        assert!(matches!(server.wait(long), Err(ServeError::Cancelled(id)) if id == long));
        // `Duration::MAX` overflows an `Instant`: it waits like `wait`.
        let served = server.wait_timeout(queued, Duration::MAX).unwrap();
        let solo = run_cafqa_on(&engine, &ansatz, &h, vec![], &[], &opts);
        assert_matches_solo(&served.expect("the job completes").result, &solo);
        // A terminal job answers at once, even with no time left.
        assert!(server.wait_timeout(queued, Duration::ZERO).unwrap().is_some());
        server.shutdown();
    }
}
