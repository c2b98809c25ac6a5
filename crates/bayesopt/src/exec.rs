//! Pluggable parallel-execution backends for the search loop.
//!
//! The Bayesian-optimization layer shards surrogate fits and scoring over
//! worker threads, but it must not own those threads: the CAFQA runner owns one
//! persistent execution engine for the whole search stack (see
//! `cafqa_core::engine`), and spawning a second pool here would
//! oversubscribe the host. This module defines the [`Executor`] seam the
//! engine plugs into: a backend that runs a batch of self-contained jobs
//! to completion. [`SerialExec`] is the dependency-free default used by
//! [`minimize`](crate::minimize) when no engine is supplied.

/// A self-contained unit of work: owns everything it touches, reports
/// its result through a channel (or other sink) captured at build time.
pub type Job = Box<dyn FnOnce() + Send>;

/// An execution backend that runs batches of independent jobs.
///
/// Contract: [`Executor::execute`] returns only after **every** job has
/// run to completion, and a panic inside any job propagates to the
/// caller (after the remaining jobs of the batch have been given the
/// chance to finish). Completion *order* is unspecified — callers encode
/// a shard index into each job so results can be reassembled
/// deterministically regardless of scheduling.
pub trait Executor: Sync {
    /// Number of jobs the backend can run concurrently (1 = serial).
    /// Callers use this to pick shard counts; it must be stable for the
    /// lifetime of the executor so sharding stays deterministic.
    fn workers(&self) -> usize;

    /// Runs every job to completion before returning.
    fn execute(&self, jobs: Vec<Job>);
}

/// The serial backend: runs jobs in submission order on the calling
/// thread. This is the reference semantics every parallel backend must
/// reproduce result-for-result.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExec;

impl Executor for SerialExec {
    fn workers(&self) -> usize {
        1
    }

    fn execute(&self, jobs: Vec<Job>) {
        for job in jobs {
            job();
        }
    }
}

/// Runs boxed tasks through `exec` and returns their results **in
/// submission order** — the one shard→channel→merge implementation the
/// whole stack shares (forest fits and scoring here, `ExecEngine::map` in
/// `cafqa_core`). Serial executors (and single tasks) run in order on
/// the calling thread with identical results; parallel executors may
/// complete in any order, and results are reassembled by index.
///
/// Panics inside tasks propagate per the [`Executor::execute`] contract.
pub fn map_jobs<T: Send + 'static>(
    exec: &dyn Executor,
    tasks: Vec<Box<dyn FnOnce() -> T + Send>>,
) -> Vec<T> {
    if exec.workers() <= 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(|task| task()).collect();
    }
    let shards = tasks.len();
    let (result_tx, result_rx) = std::sync::mpsc::channel::<(usize, T)>();
    let jobs: Vec<Job> = tasks
        .into_iter()
        .enumerate()
        .map(|(index, task)| {
            let tx = result_tx.clone();
            Box::new(move || {
                let _ = tx.send((index, task()));
            }) as Job
        })
        .collect();
    drop(result_tx);
    exec.execute(jobs);
    // `execute` returns only after every job completed (each result send
    // happens-before the executor observes the job as done), so all
    // results are already buffered.
    let mut slots: Vec<Option<T>> = (0..shards).map(|_| None).collect();
    for (index, value) in result_rx.try_iter() {
        slots[index] = Some(value);
    }
    slots.into_iter().map(|slot| slot.expect("every task reports exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn map_jobs_returns_results_in_submission_order() {
        // An executor that runs jobs in reverse on fresh threads: the
        // merge must still put results back in submission order.
        struct ReversedExec;
        impl Executor for ReversedExec {
            fn workers(&self) -> usize {
                4
            }
            fn execute(&self, mut jobs: Vec<Job>) {
                jobs.reverse();
                let handles: Vec<_> = jobs.into_iter().map(std::thread::spawn).collect();
                for h in handles {
                    h.join().expect("map_jobs test worker panicked");
                }
            }
        }
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..16u64)
            .map(|i| Box::new(move || i * 3) as Box<dyn FnOnce() -> u64 + Send>)
            .collect();
        assert_eq!(map_jobs(&ReversedExec, tasks), (0..16).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_exec_runs_all_jobs_in_order() {
        let (tx, rx) = mpsc::channel();
        let jobs: Vec<Job> = (0..5)
            .map(|i| {
                let tx = tx.clone();
                Box::new(move || tx.send(i).unwrap()) as Job
            })
            .collect();
        SerialExec.execute(jobs);
        drop(tx);
        let order: Vec<usize> = rx.iter().collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
