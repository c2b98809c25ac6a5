//! The suspend/resume bit-identity contract of a parked [`CafqaJob`] —
//! how `cafqa-serve` interrupts a job between slices.
//!
//! Three layers:
//!
//! 1. **Resume-at-refit-k equals uninterrupted**: step the job through k
//!    BO batches, park it (drop the objective, move the job to another
//!    thread), resume on a freshly built objective, and the completed
//!    `CafqaResult` — trace, configs, every energy bit — must equal the
//!    uninterrupted run's, for several k and at worker counts {1, 2, 8}.
//! 2. **Chained slices**: a job run as many one-refit slices (one step,
//!    park, rebuild, repeat — the serve scheduler's fair-share shape)
//!    completes bit-identical to the one-shot run.
//! 3. **Wrapper equivalence**: `run_cafqa_on` is the job loop driven to
//!    completion on one objective — pinned on a penalized, seeded
//!    instance, with and without a suspension.

use cafqa_circuit::EfficientSu2;
use cafqa_core::{
    run_cafqa_on, CafqaJob, CafqaOptions, CafqaResult, CliffordObjective, ExecEngine, Penalty,
};
use cafqa_pauli::PauliOp;

fn assert_results_bitwise(a: &CafqaResult, b: &CafqaResult, what: &str) {
    assert_eq!(a.best_config, b.best_config, "{what}: best_config");
    assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "{what}: energy");
    assert_eq!(a.penalized.to_bits(), b.penalized.to_bits(), "{what}: penalized");
    assert_eq!(a.evaluations, b.evaluations, "{what}: evaluations");
    assert_eq!(a.polish_evaluations, b.polish_evaluations, "{what}: polish_evaluations");
    assert_eq!(a.iterations_to_best, b.iterations_to_best, "{what}: iterations_to_best");
    assert_eq!(a.trace.len(), b.trace.len(), "{what}: trace length");
    for (i, (x, y)) in a.trace.iter().zip(&b.trace).enumerate() {
        assert_eq!(x.energy.to_bits(), y.energy.to_bits(), "{what}: trace[{i}].energy");
        assert_eq!(x.penalized.to_bits(), y.penalized.to_bits(), "{what}: trace[{i}].penalized");
        assert_eq!(
            x.best_so_far.to_bits(),
            y.best_so_far.to_bits(),
            "{what}: trace[{i}].best_so_far"
        );
    }
}

/// A non-Ising 3-qubit instance (mixed columns), so the BO search —
/// not the structured fast path — is what gets suspended.
fn problem() -> (EfficientSu2, PauliOp) {
    let h: PauliOp = "0.5*XXI + 0.25*ZZI - 0.1*YIZ + 0.7*IZZ + 0.3*XIX - 0.2*IYY".parse().unwrap();
    (EfficientSu2::new(3, 1), h)
}

fn opts() -> CafqaOptions {
    CafqaOptions { warmup: 24, iterations: 48, polish_sweeps: 2, ..Default::default() }
}

/// The objective a slice builds for itself: `h` plus `penalties` on `engine`.
fn objective<'a>(
    engine: &ExecEngine,
    ansatz: &'a EfficientSu2,
    h: &'a PauliOp,
    penalties: Vec<Penalty>,
) -> CliffordObjective<'a> {
    penalties.into_iter().fold(
        CliffordObjective::new(ansatz, h).with_engine(engine.clone()),
        CliffordObjective::with_penalty,
    )
}

/// Steps `job` on `objective` until it returns its result.
fn finish(job: &mut CafqaJob, objective: &CliffordObjective<'_>) -> CafqaResult {
    for _ in 0..10_000 {
        if let Some(result) = job.step(objective) {
            return result;
        }
    }
    panic!("runaway job");
}

/// Runs `k` steps, parks the job (its objective dropped), then resumes
/// it on another thread with a freshly built objective.
fn run_with_one_suspension(
    engine: &ExecEngine,
    k: usize,
    penalties: &dyn Fn() -> Vec<Penalty>,
    seeds: &[Vec<usize>],
) -> CafqaResult {
    let (ansatz, h) = problem();
    let opts = opts();
    let mut parked = {
        let first = objective(engine, &ansatz, &h, penalties());
        let mut job = CafqaJob::new(&first, seeds, &opts);
        for step in 0..k {
            assert!(job.step(&first).is_none(), "job finished early at step {step} of {k}");
        }
        job
    };
    let penalties = penalties();
    std::thread::scope(|scope| {
        scope
            .spawn(|| finish(&mut parked, &objective(engine, &ansatz, &h, penalties)))
            .join()
            .expect("resumed job must not panic")
    })
}

#[test]
fn resume_at_refit_k_is_bit_identical_to_uninterrupted() {
    let (ansatz, h) = problem();
    let opts = opts();
    let reference = run_cafqa_on(&ExecEngine::serial(), &ansatz, &h, vec![], &[], &opts);
    for workers in [1usize, 2, 8] {
        let engine = ExecEngine::new(workers);
        // k = 0 suspends before any work (warm-up included); larger k
        // land mid-acquisition.
        for k in [0usize, 1, 3, 7] {
            let resumed = run_with_one_suspension(&engine, k, &Vec::new, &[]);
            assert_results_bitwise(&resumed, &reference, &format!("k = {k} at {workers} workers"));
        }
    }
}

#[test]
fn chained_single_refit_slices_complete_bit_identical() {
    // The serve scheduler's fair-share shape: every slice runs exactly
    // one step on an objective built for that slice, then parks the job.
    let (ansatz, h) = problem();
    let opts = opts();
    let seeds = vec![vec![0usize; 12]];
    let reference = run_cafqa_on(&ExecEngine::serial(), &ansatz, &h, vec![], &seeds, &opts);
    for workers in [1usize, 2, 8] {
        let engine = ExecEngine::new(workers);
        let mut parked = CafqaJob::new(&objective(&engine, &ansatz, &h, vec![]), &seeds, &opts);
        let mut slices = 0usize;
        let result = loop {
            slices += 1;
            assert!(slices < 1000, "runaway slice loop");
            if let Some(result) = parked.step(&objective(&engine, &ansatz, &h, vec![])) {
                break result;
            }
        };
        assert!(slices > 3, "the budget must span several slices, got {slices}");
        assert_results_bitwise(&result, &reference, &format!("sliced at {workers} workers"));
    }
}

#[test]
fn wrapper_matches_resumable_with_penalties_and_seeds() {
    // run_cafqa_on is a loop over CafqaJob; pin the equivalence on a
    // penalized, seeded instance (the molecular shape).
    let (ansatz, h) = problem();
    let opts = opts();
    let pen_op: PauliOp = "1.0*ZII + 1.0*IZI".parse().unwrap();
    let seeds = vec![vec![1usize; 12], vec![0usize; 12]];
    let engine = ExecEngine::new(2);
    let penalties = || vec![Penalty::new("n", &pen_op, 2.0, 0.7)];
    let direct = run_cafqa_on(&engine, &ansatz, &h, penalties(), &seeds, &opts);
    let single = objective(&engine, &ansatz, &h, penalties());
    let via_job = finish(&mut CafqaJob::new(&single, &seeds, &opts), &single);
    assert_results_bitwise(&via_job, &direct, "wrapper vs job");
    // And a suspension mid-way through the penalized run still resumes
    // bit-identically.
    let resumed = run_with_one_suspension(&engine, 2, &penalties, &seeds);
    assert_results_bitwise(&resumed, &direct, "penalized resume");
}
