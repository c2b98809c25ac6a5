//! Job API types: submissions, statuses, outcomes, and the structured
//! errors that replace every panic on the serving path.

use cafqa_circuit::{Ansatz, EfficientSu2};
use cafqa_core::{CafqaOptions, CafqaResult, Penalty};
use cafqa_pauli::PauliOp;

/// Opaque handle to a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// A sector penalty in submission form: the raw operator plus its
/// target eigenvalue and weight, exactly the arguments of
/// [`Penalty::new`] (the squared shifted operator is formed at job
/// start, not by the submitter).
#[derive(Debug, Clone)]
pub struct PenaltySpec {
    /// Human-readable label ("electron count", "sz", …).
    pub label: String,
    /// The constrained operator `O`.
    pub op: PauliOp,
    /// The target eigenvalue of `O` in the wanted sector.
    pub target: f64,
    /// Penalty weight.
    pub weight: f64,
}

impl PenaltySpec {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, op: PauliOp, target: f64, weight: f64) -> Self {
        PenaltySpec { label: label.into(), op, target, weight }
    }

    /// Builds the runner-side [`Penalty`].
    pub(crate) fn build(&self) -> Penalty {
        Penalty::new(self.label.clone(), &self.op, self.target, self.weight)
    }
}

/// The most objective evaluations a job may budget:
/// `warmup + iterations` of its [`CafqaOptions`]. The search allocates
/// its warm-up batch up front, and an allocation failure aborts the whole
/// process instead of failing the job, so absurd budgets are rejected at
/// admission ([`ServeError::OverBudget`]).
pub const MAX_EVALUATIONS: usize = 1 << 20;

/// The most proposals a job may evaluate per surrogate refit
/// ([`CafqaOptions::proposals_per_refit`]): each acquisition cycle holds
/// a candidate pool of 96 configurations per proposal.
pub const MAX_PROPOSALS_PER_REFIT: usize = 1 << 10;

/// A complete CAFQA job submission. The server owns everything it runs
/// (the ansatz is the concrete [`EfficientSu2`] so specs are `Send` and
/// hashable), and every field participates in the job's content
/// fingerprint — see
/// [`cafqa_core::fingerprint`](cafqa_core::fingerprint) for exactly
/// which [`CafqaOptions`] fields count.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The hardware-efficient ansatz to search.
    pub ansatz: EfficientSu2,
    /// The Hamiltonian to minimize.
    pub hamiltonian: PauliOp,
    /// Sector penalties (empty for unconstrained problems).
    pub penalties: Vec<PenaltySpec>,
    /// Seed configurations (e.g. the HF state). Each must have exactly
    /// `ansatz.num_parameters()` entries in `0..4`.
    pub seeds: Vec<Vec<usize>>,
    /// Search budget and determinism knobs.
    pub opts: CafqaOptions,
}

impl JobSpec {
    /// A spec with no penalties and no seeds.
    pub fn new(ansatz: EfficientSu2, hamiltonian: PauliOp, opts: CafqaOptions) -> Self {
        JobSpec { ansatz, hamiltonian, penalties: Vec::new(), seeds: Vec::new(), opts }
    }

    /// Builds the runner-side penalty list.
    pub(crate) fn build_penalties(&self) -> Vec<Penalty> {
        self.penalties.iter().map(PenaltySpec::build).collect()
    }

    /// Validates everything that could trip a `panic!`/`assert!` deeper
    /// in the stack, so the scheduler thread only ever runs specs that
    /// cannot kill it. Returns the first violation as a structured
    /// [`ServeError`].
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        let nq = self.ansatz.num_qubits();
        // Non-finite inputs would be hashed by their NaN bits and cached
        // as results; reject them at the door.
        if let Some((string, _)) =
            self.hamiltonian.iter().find(|(_, c)| !(c.re.is_finite() && c.im.is_finite()))
        {
            return Err(ServeError::NonFinite {
                what: format!("hamiltonian coefficient of {string}"),
            });
        }
        for (index, p) in self.penalties.iter().enumerate() {
            for (what, value) in [("target", p.target), ("weight", p.weight)] {
                if !value.is_finite() {
                    return Err(ServeError::NonFinite { what: format!("penalty {index} {what}") });
                }
            }
        }
        if self.hamiltonian.num_qubits() != nq {
            return Err(ServeError::QubitMismatch {
                what: "hamiltonian",
                ansatz: nq,
                found: self.hamiltonian.num_qubits(),
            });
        }
        for p in &self.penalties {
            if p.op.num_qubits() != nq {
                return Err(ServeError::QubitMismatch {
                    what: "penalty operator",
                    ansatz: nq,
                    found: p.op.num_qubits(),
                });
            }
        }
        let evaluations = self.opts.warmup.saturating_add(self.opts.iterations);
        for (what, value, cap) in [
            ("warmup + iterations", evaluations, MAX_EVALUATIONS),
            ("proposals_per_refit", self.opts.proposals_per_refit, MAX_PROPOSALS_PER_REFIT),
        ] {
            if value > cap {
                return Err(ServeError::OverBudget { what, value, cap });
            }
        }
        let d = self.ansatz.num_parameters();
        for (index, seed) in self.seeds.iter().enumerate() {
            if seed.len() != d {
                return Err(ServeError::BadSeed {
                    index,
                    reason: format!("has {} entries, the ansatz has {d} parameters", seed.len()),
                });
            }
            if let Some(&v) = seed.iter().find(|&&v| v >= 4) {
                return Err(ServeError::BadSeed {
                    index,
                    reason: format!("entry {v} out of the Clifford angle range 0..4"),
                });
            }
        }
        Ok(())
    }
}

/// Where a job's result came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disposition {
    /// Computed from scratch (no cache involvement).
    Fresh,
    /// Returned from the content-addressed cache without recompute.
    CacheHit,
    /// Computed, but warm-started: the incumbent of the nearest cached
    /// same-family job (same term masks, coefficients at this L2
    /// distance) was prepended to the seed list.
    WarmStarted {
        /// L2 distance between the two canonical coefficient vectors.
        distance: f64,
    },
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for its first scheduler slice.
    Queued,
    /// Currently running a slice on the engine.
    Running,
    /// Between slices, its search state parked in memory; will be
    /// rescheduled round-robin.
    Suspended,
    /// Finished; the outcome is available.
    Completed,
    /// Cancelled before completion.
    Cancelled,
    /// A slice panicked (an internal bug). The panic is isolated to this
    /// job: its state is dropped, the message is reported through
    /// [`ServeError::JobFailed`], and the scheduler keeps serving.
    Failed,
}

impl JobStatus {
    /// Whether the job will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Completed | JobStatus::Cancelled | JobStatus::Failed)
    }
}

/// A completed job's result plus its provenance.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job this outcome belongs to.
    pub id: JobId,
    /// The search result — bit-identical to a fresh
    /// [`run_cafqa_on`](cafqa_core::run_cafqa_on) with the same
    /// effective inputs ([`seeds_used`](Self::seeds_used)).
    pub result: CafqaResult,
    /// Cache hit, warm start, or fresh compute.
    pub disposition: Disposition,
    /// The *effective* seed list the search ran with: the submitted
    /// seeds, preceded by the warm-start incumbent when one was
    /// injected. Part of the job's content fingerprint, so equal
    /// effective inputs ⇒ bit-identical results.
    pub seeds_used: Vec<Vec<usize>>,
}

/// Structured rejection/failure codes of the serving API — the
/// panic-free contract: no submission, however malformed or oversized,
/// reaches an `assert!` in the search stack.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue is at capacity; resubmit after a completion.
    QueueFull {
        /// The configured in-flight capacity.
        capacity: usize,
    },
    /// An operator acts on a different register than the ansatz.
    QubitMismatch {
        /// Which operator ("hamiltonian" / "penalty operator").
        what: &'static str,
        /// The ansatz register width.
        ansatz: usize,
        /// The operator's width.
        found: usize,
    },
    /// A seed configuration is malformed.
    BadSeed {
        /// Index into [`JobSpec::seeds`].
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// A Hamiltonian coefficient, penalty target or penalty weight is NaN
    /// or infinite.
    NonFinite {
        /// Which input ("hamiltonian coefficient of XZI", "penalty 0
        /// weight", …).
        what: String,
    },
    /// A budget option exceeds its fixed cap ([`MAX_EVALUATIONS`],
    /// [`MAX_PROPOSALS_PER_REFIT`]).
    OverBudget {
        /// Which budget ("warmup + iterations", "proposals_per_refit").
        what: &'static str,
        /// The submitted value (saturated at `usize::MAX`).
        value: usize,
        /// The cap it exceeds.
        cap: usize,
    },
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// No job with this id was ever submitted.
    UnknownJob(JobId),
    /// The job was cancelled before completing.
    Cancelled(JobId),
    /// The job failed mid-flight (a slice panicked).
    JobFailed {
        /// The failing job.
        id: JobId,
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "job queue at capacity ({capacity} in flight)")
            }
            ServeError::QubitMismatch { what, ansatz, found } => {
                write!(f, "{what} acts on {found} qubits, the ansatz on {ansatz}")
            }
            ServeError::BadSeed { index, reason } => write!(f, "seed {index} {reason}"),
            ServeError::NonFinite { what } => write!(f, "{what} is not finite"),
            ServeError::OverBudget { what, value, cap } => {
                write!(f, "{what} of {value} exceeds the cap of {cap}")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::UnknownJob(id) => write!(f, "unknown {id}"),
            ServeError::Cancelled(id) => write!(f, "{id} was cancelled"),
            ServeError::JobFailed { id, message } => write!(f, "{id} failed: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_linalg::Complex64;
    use cafqa_pauli::PauliString;

    fn op(n: usize, terms: &[(f64, &str)]) -> PauliOp {
        let mut h = PauliOp::zero(n);
        for &(w, s) in terms {
            h.add_term(Complex64::from(w), s.parse::<PauliString>().unwrap());
        }
        h
    }

    #[test]
    fn validation_rejects_each_malformation_structurally() {
        let ansatz = EfficientSu2::new(3, 1);
        let h = op(3, &[(1.0, "ZZI")]);
        let good = JobSpec::new(ansatz.clone(), h.clone(), CafqaOptions::quick());
        assert!(good.validate().is_ok());
        // Register mismatch.
        let bad = JobSpec::new(ansatz.clone(), op(2, &[(1.0, "ZZ")]), CafqaOptions::quick());
        assert_eq!(
            bad.validate(),
            Err(ServeError::QubitMismatch { what: "hamiltonian", ansatz: 3, found: 2 })
        );
        // Penalty register mismatch.
        let mut bad = good.clone();
        bad.penalties.push(PenaltySpec::new("n", op(4, &[(1.0, "ZIII")]), 1.0, 1.0));
        assert!(matches!(
            bad.validate(),
            Err(ServeError::QubitMismatch { what: "penalty operator", .. })
        ));
        // Wrong seed length and out-of-range seed entry.
        let mut bad = good.clone();
        bad.seeds.push(vec![0; 3]);
        assert!(matches!(bad.validate(), Err(ServeError::BadSeed { index: 0, .. })));
        let mut bad = good.clone();
        bad.seeds.push(vec![0; 12]);
        bad.seeds.push(vec![4; 12]);
        assert!(matches!(bad.validate(), Err(ServeError::BadSeed { index: 1, .. })));
        // Non-finite Hamiltonian coefficient, penalty target and weight.
        let bad = JobSpec::new(
            ansatz.clone(),
            op(3, &[(1.0, "ZZI"), (f64::NAN, "XIZ")]),
            CafqaOptions::quick(),
        );
        assert_eq!(
            bad.validate(),
            Err(ServeError::NonFinite { what: "hamiltonian coefficient of XIZ".into() })
        );
        let mut bad = good.clone();
        bad.penalties.push(PenaltySpec::new("n", op(3, &[(1.0, "ZII")]), f64::INFINITY, 1.0));
        assert_eq!(bad.validate(), Err(ServeError::NonFinite { what: "penalty 0 target".into() }));
        let mut bad = good.clone();
        bad.penalties.push(PenaltySpec::new("n", op(3, &[(1.0, "ZII")]), 1.0, 0.5));
        bad.penalties.push(PenaltySpec::new("sz", op(3, &[(1.0, "IZI")]), 0.0, f64::NAN));
        assert_eq!(bad.validate(), Err(ServeError::NonFinite { what: "penalty 1 weight".into() }));
    }

    #[test]
    fn validation_caps_the_search_budget() {
        // Validation only: none of these specs is ever run, so nothing
        // of their budget is allocated.
        let ansatz = EfficientSu2::new(3, 1);
        let good = JobSpec::new(ansatz, op(3, &[(1.0, "ZZI")]), CafqaOptions::quick());
        let with = |opts: CafqaOptions| JobSpec { opts, ..good.clone() };
        let quick = CafqaOptions::quick();
        let over = |what, value, cap| Err(ServeError::OverBudget { what, value, cap });
        let budget = "warmup + iterations";
        // At the caps: admitted.
        let at_cap = CafqaOptions {
            warmup: MAX_EVALUATIONS - 7,
            iterations: 7,
            proposals_per_refit: MAX_PROPOSALS_PER_REFIT,
            ..quick.clone()
        };
        assert_eq!(with(at_cap.clone()).validate(), Ok(()));
        // One past a cap, from either budget term.
        let warmup = CafqaOptions { warmup: at_cap.warmup + 1, ..at_cap.clone() };
        assert_eq!(with(warmup).validate(), over(budget, MAX_EVALUATIONS + 1, MAX_EVALUATIONS));
        let iterations = CafqaOptions { iterations: 8, ..at_cap.clone() };
        assert_eq!(with(iterations).validate(), over(budget, MAX_EVALUATIONS + 1, MAX_EVALUATIONS));
        let proposals =
            CafqaOptions { proposals_per_refit: MAX_PROPOSALS_PER_REFIT + 1, ..at_cap.clone() };
        assert_eq!(
            with(proposals).validate(),
            over("proposals_per_refit", MAX_PROPOSALS_PER_REFIT + 1, MAX_PROPOSALS_PER_REFIT)
        );
        // `usize::MAX` everywhere, including a sum that would overflow.
        for (warmup, iterations) in [(usize::MAX, 0), (0, usize::MAX), (usize::MAX, usize::MAX)] {
            let opts = CafqaOptions { warmup, iterations, ..quick.clone() };
            assert_eq!(with(opts).validate(), over(budget, usize::MAX, MAX_EVALUATIONS));
        }
        let opts = CafqaOptions { proposals_per_refit: usize::MAX, ..quick.clone() };
        assert_eq!(
            with(opts).validate(),
            over("proposals_per_refit", usize::MAX, MAX_PROPOSALS_PER_REFIT)
        );
        let message = ServeError::OverBudget { what: budget, value: 9, cap: 8 }.to_string();
        assert_eq!(message, "warmup + iterations of 9 exceeds the cap of 8");
    }
}
