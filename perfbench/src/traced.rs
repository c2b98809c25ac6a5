//! The traced rebuild: the same public calls the untraced pipeline makes
//! internally, issued one by one with a timer around each, so the wall
//! time of a point splits into the layers it passed through.

use std::time::Instant;

use cafqa_bayesopt::{minimize_with, BoOptions, ForestOptions, SearchSpace, SerialExec};
use cafqa_chem::mapping::{
    hf_bitstring, number_operator, qubit_hamiltonian, s_squared_operator, sz_operator,
    taper_two_qubits, Mapping,
};
use cafqa_chem::{
    active_space_integrals, compute_ao_integrals, fci_ground_state, rhf, select_active_space,
    BasisSet, MolecularProblem, MoleculeKind, ScfError, ScfOptions,
};
use cafqa_circuit::Ansatz;
use cafqa_core::{
    polish_on, run_cafqa_kt_on, CafqaKtResult, CafqaOptions, CafqaResult, CliffordObjective,
    ExecEngine, Penalty,
};
use cafqa_pauli::PauliOp;

use crate::checks::{self, Checks};
use crate::layers::Layers;

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// `ChemPipeline::build(kind, bond, Rhf)` followed by `pipe.problem` in
/// the catalog's default sector, one timed call at a time. The FCI
/// reference (when asked for) is timed as `chem.reference_s`, which
/// counts as attributed time but is not a reported layer.
pub fn problem(
    kind: MoleculeKind,
    bond: f64,
    compute_exact: bool,
    layers: &mut Layers,
) -> MolecularProblem {
    let t = Instant::now();
    let molecule = kind.geometry(bond);
    let basis = BasisSet::sto3g(&molecule);
    let integrals = compute_ao_integrals(&molecule, &basis);
    layers.add("chem.integrals_s", secs(t));

    let t = Instant::now();
    let electrons = molecule.num_electrons();
    let (scf, scf_converged, retries) = match rhf(&integrals, electrons, &ScfOptions::default()) {
        Ok(r) => (r, true, 0.0),
        Err(ScfError::NotConverged(_)) => match rhf(&integrals, electrons, &ScfOptions::robust()) {
            Ok(r) => (r, true, 1.0),
            Err(ScfError::NotConverged(r)) => (*r, false, 1.0),
            Err(e) => panic!("{} at {bond} Å: scf failure: {e}", kind.name()),
        },
        Err(e) => panic!("{} at {bond} Å: scf failure: {e}", kind.name()),
    };
    layers.add("chem.scf_s", secs(t));
    layers.add("chem.scf_retries", retries);

    let t = Instant::now();
    let space = select_active_space(kind, &basis, &scf);
    let si = active_space_integrals(&integrals, &scf, &space);
    layers.add("chem.active_space_s", secs(t));

    let t = Instant::now();
    let full = qubit_hamiltonian(&si, Mapping::Parity);
    layers.add("chem.mapping_s", secs(t));

    let t = Instant::now();
    let (nact, na, nb) = (si.n, si.n_alpha, si.n_beta);
    let taper = |op: &PauliOp| taper_two_qubits(op, na, nb);
    let hamiltonian = taper(&full);
    let number_op = taper(&number_operator(nact, Mapping::Parity));
    let sz_op = taper(&sz_operator(nact, Mapping::Parity));
    let s_squared_op = taper(&s_squared_operator(nact, Mapping::Parity));
    let hf_bits = hf_bitstring(Mapping::Parity, nact, na, nb, true);
    let hf_energy = hamiltonian.expectation_basis(hf_bits);
    layers.add("chem.taper_s", secs(t));
    layers.add("chem.terms", hamiltonian.num_terms() as f64);

    let t = Instant::now();
    let exact_energy = compute_exact.then(|| {
        fci_ground_state(&si, na, nb).expect("FCI reference for a catalog molecule").energy
    });
    layers.add("chem.reference_s", secs(t));
    MolecularProblem {
        n_qubits: 2 * nact - 2,
        hamiltonian,
        number_op,
        sz_op,
        s_squared_op,
        hf_bits,
        hf_energy,
        exact_energy,
        n_alpha: na,
        n_beta: nb,
        scf_energy: scf.energy,
        scf_converged,
    }
}

/// The penalties `MolecularCafqa::run_on` attaches for `opts`.
pub fn molecular_penalties(problem: &MolecularProblem, opts: &CafqaOptions) -> Vec<Penalty> {
    let mut penalties = Vec::new();
    if opts.number_penalty > 0.0 {
        penalties.push(Penalty::new(
            "electron count",
            &problem.number_op,
            problem.n_electrons() as f64,
            opts.number_penalty,
        ));
    }
    let s = 0.5 * (problem.n_alpha as f64 - problem.n_beta as f64);
    if opts.sz_penalty > 0.0 {
        penalties.push(Penalty::new("sz", &problem.sz_op, s, opts.sz_penalty));
    }
    if opts.s2_penalty > 0.0 {
        penalties.push(Penalty::new(
            "s-squared",
            &problem.s_squared_op,
            s * (s + 1.0),
            opts.s2_penalty,
        ));
    }
    penalties
}

/// The BO options the runner derives from `opts`.
pub fn bo_options(opts: &CafqaOptions) -> BoOptions {
    BoOptions {
        warmup: opts.warmup,
        iterations: opts.iterations,
        seed: opts.seed,
        patience: opts.patience,
        proposals_per_refit: opts.proposals_per_refit,
        forest: ForestOptions { window: opts.forest_window, ..Default::default() },
        ..Default::default()
    }
}

/// A traced search's result, plus the BO batches it evaluated (kept for
/// the engine probe).
#[derive(Debug, Clone)]
pub struct Search {
    /// Final configuration.
    pub best_config: Vec<usize>,
    /// Raw energy of the final configuration.
    pub energy: f64,
    /// Its penalized value.
    pub penalized: f64,
    /// `(raw, penalized)` per evaluation, BO phase then polish.
    pub trace: Vec<(f64, f64)>,
    /// The BO phase's objective batches, in order.
    pub batches: Vec<Vec<Vec<usize>>>,
    /// The penalized values returned for each batch.
    pub values: Vec<Vec<f64>>,
}

/// The `(raw, penalized)` trace of an untraced result, for bit-identity
/// comparisons against [`Search::trace`].
pub fn trace_of(result: &CafqaResult) -> Vec<(f64, f64)> {
    result.trace.iter().map(|p| (p.energy, p.penalized)).collect()
}

/// The non-routed `run_cafqa_on` pipeline — objective set-up, the BO
/// loop with the objective as its batch callback, then the polish
/// endgame — with the objective, the surrogate (BO wall time minus the
/// callback) and polish timed separately.
pub fn search(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
    layers: &mut Layers,
) -> Search {
    let t = Instant::now();
    let mut objective = CliffordObjective::new(ansatz, hamiltonian).with_engine(engine.clone());
    for p in penalties {
        objective = objective.with_penalty(p);
    }
    let space = SearchSpace::uniform(objective.num_parameters(), 4);
    layers.add("objective.prepare_s", secs(t));

    let terms = hamiltonian.num_terms() as f64;
    let mut trace: Vec<(f64, f64)> = Vec::new();
    let mut batches: Vec<Vec<Vec<usize>>> = Vec::new();
    let mut values: Vec<Vec<f64>> = Vec::new();
    let mut objective_s = 0.0;
    let bo_clock = Instant::now();
    let result = minimize_with(
        &space,
        |batch: &[Vec<usize>]| {
            let t = Instant::now();
            let evaluated = objective.evaluate_batch(batch);
            objective_s += secs(t);
            let penalized: Vec<f64> = evaluated.iter().map(|v| v.penalized).collect();
            trace.extend(evaluated.iter().map(|v| (v.energy, v.penalized)));
            batches.push(batch.to_vec());
            values.push(penalized.clone());
            penalized
        },
        seeds,
        &bo_options(opts),
        engine,
    );
    let bo_wall = secs(bo_clock);
    let evals = trace.len() as f64;
    layers.add("objective.s", objective_s);
    layers.add("objective.evals", evals);
    layers.add("objective.batches", batches.len() as f64);
    layers.add("objective.term_evals", evals * terms);
    layers.add("bayesopt.s", bo_wall - objective_s);
    // One refit per acquisition cycle (`refit_every = 1`): every batch
    // after the seeds-plus-warm-up batch.
    layers.add("bayesopt.refits", batches.len().saturating_sub(1) as f64);
    layers.add("bayesopt.iterations_to_best", result.iterations_to_best as f64);

    let history: Vec<(Vec<usize>, f64)> = if opts.polish_screen_top > 0 && opts.polish_sweeps > 0 {
        result.history.iter().map(|e| (e.config.clone(), e.value)).collect()
    } else {
        Vec::new()
    };
    let bo_energy = trace[result.iterations_to_best - 1].0;
    let t = Instant::now();
    let outcome = polish_on(engine, &objective, &result.best_config, opts, &history);
    layers.add("polish.s", secs(t));
    layers.add("polish.evals", outcome.trace.len() as f64);
    layers.add("polish.backward_seeks", outcome.seek_stats.0 as f64);
    layers.add("polish.stack_restores", outcome.seek_stats.1 as f64);
    layers.add("polish.pairs", outcome.pairs.len() as f64);
    layers.add("polish.gain_mha", 1e3 * (bo_energy - outcome.best_value.energy));
    trace.extend(outcome.trace.iter().copied());
    Search {
        best_config: outcome.best_config,
        energy: outcome.best_value.energy,
        penalized: outcome.best_value.penalized,
        trace,
        batches,
        values,
    }
}

/// A kT refinement call with the `kt` layer's timer and counters around
/// it.
#[allow(clippy::too_many_arguments)]
pub fn kt(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    k_max: usize,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
    layers: &mut Layers,
) -> CafqaKtResult {
    let t = Instant::now();
    let result = run_cafqa_kt_on(engine, ansatz, hamiltonian, penalties, k_max, seeds, opts)
        .expect("kT refinement seeded within its budget");
    layers.add("kt.s", secs(t));
    layers.add("kt.evals", result.feasible_evaluations as f64);
    layers.add("kt.rejected", result.rejected_evaluations as f64);
    layers.add("kt.screened_classes", result.screened_classes as f64);
    layers.add("kt.screened_moves", result.screened_moves as f64);
    result
}

/// The engine layer, measured on one traced search's recorded work: the
/// same objective batches through a serial engine and through the pool,
/// and the same BO loop (objective values replayed) under `SerialExec`
/// and under the engine. Both pairs must agree bit for bit. The probe is
/// a measurement of its own: its time is in neither wall-time total.
#[allow(clippy::too_many_arguments)]
pub fn engine_probe(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: &[Penalty],
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
    recorded: &Search,
    layers: &mut Layers,
    checks: &mut Checks,
) {
    let objective_on = |engine: ExecEngine| {
        let mut objective = CliffordObjective::new(ansatz, hamiltonian).with_engine(engine);
        for p in penalties {
            objective = objective.with_penalty(p.clone());
        }
        objective
    };
    let evaluate_all = |objective: &CliffordObjective<'_>| {
        let t = Instant::now();
        let out: Vec<f64> = recorded
            .batches
            .iter()
            .flat_map(|batch| objective.evaluate_batch(batch))
            .map(|v| v.penalized)
            .collect();
        (out, secs(t))
    };
    let (serial, serial_s) = evaluate_all(&objective_on(ExecEngine::serial()));
    let (pooled, pooled_s) = evaluate_all(&objective_on(engine.clone()));
    let agree = serial.iter().zip(&pooled).all(|(a, b)| a.to_bits() == b.to_bits());
    checks.record(
        "engine_objective_identical",
        if agree { Ok(()) } else { Err("serial and pooled batch values differ".into()) },
    );

    let space = SearchSpace::uniform(ansatz.num_parameters(), 4);
    let bo_opts = bo_options(opts);
    let replay = |exec: &dyn cafqa_bayesopt::Executor| {
        let mut next = 0usize;
        let mut diverged = false;
        let t = Instant::now();
        let result = minimize_with(
            &space,
            |batch: &[Vec<usize>]| {
                diverged |= recorded.batches.get(next).is_none_or(|b| b.as_slice() != batch);
                let values =
                    recorded.values.get(next).cloned().unwrap_or_else(|| vec![0.0; batch.len()]);
                next += 1;
                values
            },
            seeds,
            &bo_opts,
            exec,
        );
        (result, diverged, secs(t))
    };
    let (serial_bo, serial_diverged, serial_bo_s) = replay(&SerialExec);
    let (pooled_bo, pooled_diverged, pooled_bo_s) = replay(engine);
    let same_history = serial_bo.history.len() == pooled_bo.history.len()
        && serial_bo
            .history
            .iter()
            .zip(&pooled_bo.history)
            .all(|(a, b)| a.config == b.config && a.value.to_bits() == b.value.to_bits());
    checks.record(
        "engine_surrogate_identical",
        if same_history && !serial_diverged && !pooled_diverged {
            Ok(())
        } else {
            Err("the replayed BO loop differs between SerialExec and the engine".into())
        },
    );
    layers.set("engine.workers", engine.workers() as f64);
    layers.set("engine.objective_speedup", serial_s / pooled_s);
    // The replay's objective is a table lookup, so its wall time is the
    // surrogate's.
    layers.set("engine.surrogate_speedup", serial_bo_s / pooled_bo_s);
}

/// Records the checks comparing a traced search against its untraced
/// twin: energies, penalized values, configuration and the whole trace.
pub fn check_against(checks: &mut Checks, what: &str, traced: &Search, untraced: &CafqaResult) {
    checks.record(
        "traced_equals_untraced",
        checks::traces_identical(what, &traced.trace, &trace_of(untraced))
            .and_then(|()| checks::bit_identical(what, traced.energy, untraced.energy))
            .and_then(|()| checks::bit_identical(what, traced.penalized, untraced.penalized))
            .and_then(|()| {
                if traced.best_config == untraced.best_config {
                    Ok(())
                } else {
                    Err(format!("{what}: final configurations differ"))
                }
            }),
    );
}
