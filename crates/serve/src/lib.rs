//! CAFQA-as-a-service: a multi-tenant job server over the shared
//! [`ExecEngine`](cafqa_core::ExecEngine).
//!
//! # Serving model
//!
//! [`CafqaServer::start`] spawns one scheduler thread that round-robins
//! **slices** of work between all queued jobs: each slice runs a bounded
//! number of [`CafqaJob`](cafqa_core::CafqaJob) steps
//! ([`ServeOptions::slice_batches`]; a step is one BO batch — the warm-up
//! phase, then one per surrogate refit — the polish endgame, or an
//! Ising-routed solve), then requeues the job at the back. A small
//! Cr2-class job submitted behind a large one therefore completes after
//! a handful of slices instead of waiting for the large job's entire
//! search — fair-share scheduling without preemptive threads.
//!
//! Between slices the job's search state stays in memory, in the
//! server's job table: suspending a job just means it stops stepping,
//! and resuming rebuilds only its objective. Nothing is replayed, so a
//! sliced job costs the same compute as a solo run, and **a job sliced
//! N ways is bit-identical to the same job run solo**, at any engine
//! worker count.
//!
//! # Content-addressed caching and warm starts
//!
//! Completed results enter a bounded cache keyed by a canonical
//! fingerprint of the job identity (see [`cafqa_core::fingerprint`]).
//! An exact resubmission returns the cached
//! [`CafqaResult`](cafqa_core::CafqaResult) without recompute; a *near*
//! submission — same term masks, different coefficients, e.g. a
//! neighbouring bond length — is warm-started by injecting the nearest
//! cached incumbent as its first seed (disable with
//! [`ServeOptions::warm_start`]).
//!
//! # Panic-free serving
//!
//! Every error reachable from the serve API is a structured
//! [`ServeError`]: malformed specs reject at [`CafqaServer::submit`],
//! oversized Ising routes reject at validation, a full queue
//! backpressures with [`ServeError::QueueFull`], and non-finite
//! coefficients or penalty settings reject with [`ServeError::NonFinite`].
//! Each slice runs under `catch_unwind`: a panic (an internal bug) fails
//! only its own job, surfacing through [`CafqaServer::wait`] as
//! [`ServeError::JobFailed`], while the scheduler keeps serving. A panic
//! that poisons the server's state lock is recovered from too, and
//! [`CafqaServer::wait_timeout`] bounds how long a caller blocks.
//!
//! ```
//! use cafqa_circuit::EfficientSu2;
//! use cafqa_core::{CafqaOptions, ExecEngine};
//! use cafqa_pauli::PauliOp;
//! use cafqa_serve::{CafqaServer, Disposition, JobSpec, ServeOptions};
//!
//! let ham: PauliOp = "0.5*ZZ + 0.25*XX".parse().unwrap();
//! let opts = CafqaOptions { warmup: 8, iterations: 8, ..Default::default() };
//! let mut server = CafqaServer::start(ExecEngine::serial(), ServeOptions::default());
//! let spec = JobSpec::new(EfficientSu2::new(2, 1), ham, opts);
//! let first = server.submit(spec.clone()).unwrap();
//! let first = server.wait(first).unwrap();
//! let again = server.submit(spec).unwrap();
//! let again = server.wait(again).unwrap();
//! assert!(matches!(again.disposition, Disposition::CacheHit));
//! assert_eq!(first.result.energy.to_bits(), again.result.energy.to_bits());
//! server.shutdown();
//! ```

mod cache;
mod job;
mod server;

pub use job::{
    Disposition, JobId, JobOutcome, JobSpec, JobStatus, PenaltySpec, ServeError, MAX_EVALUATIONS,
    MAX_PROPOSALS_PER_REFIT,
};
pub use server::{CafqaServer, ServeOptions, ServerStats};
