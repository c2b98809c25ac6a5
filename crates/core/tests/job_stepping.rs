//! The job-stepping bit-identity contract of [`CafqaJob`] — the serving
//! layer's foundation.
//!
//! A job advanced a few steps at a time, with its objective rebuilt
//! before every chunk of steps (exactly how `cafqa-serve` slices it),
//! must complete bit-identical to the one-shot [`run_cafqa_on`] — full
//! trace, energy, configuration and `iterations_to_best` — at worker
//! counts {1, 2, 8}. The cases cover plain, penalized, seeded, windowed
//! (`forest_window`), patience-stopped and Ising-routed searches.

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

/// One job: a Hamiltonian, its penalty list, seeds and options.
struct Case {
    name: &'static str,
    hamiltonian: PauliOp,
    penalties: Vec<(PauliOp, f64, f64)>,
    seeds: Vec<Vec<usize>>,
    opts: CafqaOptions,
}

impl Case {
    fn penalties(&self) -> Vec<Penalty> {
        self.penalties
            .iter()
            .map(|(op, target, weight)| Penalty::new("n", op, *target, *weight))
            .collect()
    }
}

/// A non-Ising 3-qubit Hamiltonian (mixed columns), so the BO search —
/// not the structured fast path — is what gets stepped.
fn mixed() -> PauliOp {
    "0.5*XXI + 0.25*ZZI - 0.1*YIZ + 0.7*IZZ + 0.3*XIX - 0.2*IYY".parse().unwrap()
}

fn base_opts() -> CafqaOptions {
    CafqaOptions { warmup: 24, iterations: 48, polish_sweeps: 2, ..Default::default() }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "plain",
            hamiltonian: mixed(),
            penalties: vec![],
            seeds: vec![],
            opts: base_opts(),
        },
        Case {
            name: "penalized and seeded",
            hamiltonian: mixed(),
            penalties: vec![("1.0*ZII + 1.0*IZI".parse().unwrap(), 2.0, 0.7)],
            seeds: vec![vec![1; 12], vec![0; 12]],
            opts: base_opts(),
        },
        Case {
            name: "windowed refits",
            hamiltonian: mixed(),
            penalties: vec![],
            seeds: vec![vec![2; 12]],
            opts: CafqaOptions { forest_window: 16, polish_screen_top: 8, ..base_opts() },
        },
        Case {
            name: "patience",
            hamiltonian: mixed(),
            penalties: vec![],
            seeds: vec![],
            opts: CafqaOptions {
                iterations: 400,
                patience: 12,
                proposals_per_refit: 3,
                ..base_opts()
            },
        },
        Case {
            name: "Ising-routed",
            hamiltonian: "-1.0*ZZI - 1.0*IZZ + 0.5*ZII".parse().unwrap(),
            penalties: vec![],
            seeds: vec![vec![0; 12]],
            opts: base_opts(),
        },
    ]
}

/// Steps the job `chunk` steps at a time, rebuilding the objective
/// before every chunk; returns the result and the number of steps.
fn stepped(engine: &ExecEngine, case: &Case, chunk: usize) -> (CafqaResult, usize) {
    let ansatz = EfficientSu2::new(3, 1);
    let objective = || {
        case.penalties().into_iter().fold(
            CliffordObjective::new(&ansatz, &case.hamiltonian).with_engine(engine.clone()),
            CliffordObjective::with_penalty,
        )
    };
    let mut job = CafqaJob::new(&objective(), &case.seeds, &case.opts);
    let mut steps = 0usize;
    loop {
        let objective = objective();
        for _ in 0..chunk {
            steps += 1;
            assert!(steps < 10_000, "{}: runaway job", case.name);
            if let Some(result) = job.step(&objective) {
                return (result, steps);
            }
        }
    }
}

#[test]
fn stepped_jobs_are_bit_identical_to_run_cafqa_on() {
    let ansatz = EfficientSu2::new(3, 1);
    for case in cases() {
        // The serial engine is the bit-identity reference for all pools.
        let reference = run_cafqa_on(
            &ExecEngine::serial(),
            &ansatz,
            &case.hamiltonian,
            case.penalties(),
            &case.seeds,
            &case.opts,
        );
        for workers in [1usize, 2, 8] {
            let engine = ExecEngine::new(workers);
            let solo = run_cafqa_on(
                &engine,
                &ansatz,
                &case.hamiltonian,
                case.penalties(),
                &case.seeds,
                &case.opts,
            );
            assert_results_bitwise(&solo, &reference, &format!("{} solo @ {workers}", case.name));
            for chunk in [1usize, 2, 4, usize::MAX] {
                let (result, _) = stepped(&engine, &case, chunk);
                let what = format!("{} stepped {chunk} at a time @ {workers} workers", case.name);
                assert_results_bitwise(&result, &reference, &what);
            }
        }
    }
}

#[test]
fn step_count_is_warmup_plus_cycles_plus_polish() {
    // One step per BO batch (warm-up, then ⌈iterations / B⌉ cycles), one
    // for the polish; a routed job is a single step.
    let cases = cases();
    let engine = ExecEngine::serial();
    let (_, steps) = stepped(&engine, &cases[0], 1);
    assert_eq!(steps, 1 + 48 / 4 + 1, "plain");
    let (_, steps) = stepped(&engine, &cases[4], 1);
    assert_eq!(steps, 1, "Ising-routed");
    // Patience ends the BO phase early: fewer cycles than the budget.
    let (result, steps) = stepped(&engine, &cases[3], 1);
    assert!(steps < 1 + 400 / 3 + 1, "patience must stop early, took {steps} steps");
    assert!(result.evaluations > 24);
}

#[test]
fn a_parked_job_owns_its_state() {
    // The server parks jobs across threads between slices.
    fn assert_owned<T: Send + 'static>() {}
    assert_owned::<CafqaJob>();
    // A clone taken mid-search continues exactly like the original.
    let case = &cases()[1];
    let ansatz = EfficientSu2::new(3, 1);
    let engine = ExecEngine::new(2);
    let objective = case.penalties().into_iter().fold(
        CliffordObjective::new(&ansatz, &case.hamiltonian).with_engine(engine.clone()),
        CliffordObjective::with_penalty,
    );
    let mut job = CafqaJob::new(&objective, &case.seeds, &case.opts);
    for _ in 0..3 {
        assert!(job.step(&objective).is_none());
    }
    let mut twin = job.clone();
    let finish = |job: &mut CafqaJob| loop {
        if let Some(result) = job.step(&objective) {
            break result;
        }
    };
    let a = finish(&mut job);
    let b = finish(&mut twin);
    assert_results_bitwise(&a, &b, "parked clone");
}
