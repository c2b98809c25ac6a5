//! Exhaustive enumeration of tiny Clifford spaces.
//!
//! For registers small enough that `4^#params` is enumerable this gives
//! the *true* Clifford optimum — the oracle against which the Bayesian
//! search is validated (and the ground truth behind the paper's claim
//! that CAFQA's H2 points reach the global minimum of the Clifford
//! space).

use std::sync::Arc;

use cafqa_circuit::Ansatz;
use cafqa_pauli::PauliOp;

use crate::engine::ExecEngine;
use crate::objective::{CliffordObjective, ObjectiveValue, Penalty};

/// Upper bound on enumerable configurations (4^12).
pub const MAX_EXHAUSTIVE: u64 = 1 << 24;

/// The verified global optimum of a Clifford space.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult {
    /// The optimal configuration.
    pub best_config: Vec<usize>,
    /// Its raw `⟨H⟩`.
    pub energy: f64,
    /// Its penalized objective value (the minimized quantity).
    pub penalized: f64,
    /// Number of configurations enumerated.
    pub evaluations: u64,
}

/// Decodes enumeration code `code` into `config` (base-4 little-endian).
#[inline]
fn decode(mut code: u64, config: &mut [usize]) {
    for slot in config.iter_mut() {
        *slot = (code & 3) as usize;
        code >>= 2;
    }
}

/// The winner of one contiguous code range: `(code, value)` of the
/// earliest strict minimum of the penalized objective. Generic over the
/// evaluation closure so the engine-sharded (owned `EvalCore`) and the
/// serial fallback (borrowed ansatz) paths share one scan, guaranteeing
/// identical fold semantics.
fn scan_range(
    mut eval: impl FnMut(&[usize]) -> ObjectiveValue,
    d: usize,
    codes: std::ops::Range<u64>,
) -> (u64, ObjectiveValue) {
    let mut config = vec![0usize; d];
    decode(codes.start, &mut config);
    let mut best_code = codes.start;
    let mut best = eval(&config);
    for code in codes.start + 1..codes.end {
        decode(code, &mut config);
        let value = eval(&config);
        if value.penalized < best.penalized {
            best = value;
            best_code = code;
        }
    }
    (best_code, best)
}

fn guarded_space_size(d: usize) -> Result<u64, u64> {
    // Gate purely on the (saturating) space size: a 12-parameter ansatz
    // saturates MAX_EXHAUSTIVE exactly and is enumerable.
    let total = 4u64.saturating_pow(d as u32);
    if total > MAX_EXHAUSTIVE {
        return Err(total);
    }
    Ok(total)
}

fn build_objective<'a>(
    ansatz: &'a dyn Ansatz,
    hamiltonian: &'a PauliOp,
    penalties: Vec<Penalty>,
) -> CliffordObjective<'a> {
    let mut objective = CliffordObjective::new(ansatz, hamiltonian);
    for p in penalties {
        objective = objective.with_penalty(p);
    }
    objective
}

fn result_from(best_code: u64, best: ObjectiveValue, d: usize, total: u64) -> ExhaustiveResult {
    let mut best_config = vec![0usize; d];
    decode(best_code, &mut best_config);
    ExhaustiveResult {
        best_config,
        energy: best.energy,
        penalized: best.penalized,
        evaluations: total,
    }
}

/// Enumerates every Clifford configuration of the ansatz and returns the
/// global optimum of the penalized objective, sharding the enumeration
/// across `engine`. The result does not depend on the engine's width:
/// ties on the penalized value resolve to the lowest enumeration code
/// on every shard count, [`ExecEngine::serial`] included.
///
/// # Errors
///
/// Returns the space size when it exceeds [`MAX_EXHAUSTIVE`].
pub fn exhaustive_search_on(
    engine: &ExecEngine,
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
) -> Result<ExhaustiveResult, u64> {
    let d = ansatz.num_parameters();
    let total = guarded_space_size(d)?;
    let objective = build_objective(ansatz, hamiltonian, penalties);
    let shards = engine.workers() as u64;
    if shards <= 1 || total < 4096 || !objective.is_compiled() || !engine.is_pooled() {
        // Serial scan through the objective (handles non-compiled
        // ansätze via per-candidate lowering) — the reference fold.
        let mut scratch = objective.scratch();
        let (best_code, best) =
            scan_range(|config| objective.evaluate_with(config, &mut scratch), d, 0..total);
        return Ok(result_from(best_code, best, d, total));
    }
    let shard = total.div_ceil(shards);
    let tasks: Vec<_> = (0..total)
        .step_by(shard as usize)
        .map(|start| {
            let core = Arc::clone(objective.core());
            let codes = start..(start + shard).min(total);
            move || {
                let mut scratch = core.scratch();
                scan_range(|config| core.evaluate(config, &mut scratch), d, codes)
            }
        })
        .collect();
    let winners: Vec<(u64, ObjectiveValue)> = engine.map(tasks);
    // Merge in shard order: strictly-better wins, so ties keep the
    // earliest code — exactly the serial scan's behavior.
    let (mut best_code, mut best) = winners[0];
    for &(code, value) in &winners[1..] {
        if value.penalized < best.penalized {
            best = value;
            best_code = code;
        }
    }
    Ok(result_from(best_code, best, d, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbench::{xx_hamiltonian, XxMicrobenchAnsatz};
    use crate::runner::{run_cafqa, CafqaOptions};
    use cafqa_chem::{ChemPipeline, MoleculeKind, ScfKind};
    use cafqa_circuit::EfficientSu2;

    #[test]
    fn microbenchmark_space_is_exhausted() {
        let h = xx_hamiltonian();
        let result =
            exhaustive_search_on(&ExecEngine::serial(), &XxMicrobenchAnsatz, &h, vec![]).unwrap();
        assert_eq!(result.evaluations, 4);
        assert_eq!(result.energy, -1.0);
        assert_eq!(result.best_config, vec![3]); // θ = 3π/2
    }

    #[test]
    fn refuses_large_spaces() {
        let ansatz = EfficientSu2::new(4, 1); // 16 parameters → 4^16
        let h = PauliOp::identity(4);
        assert!(exhaustive_search_on(&ExecEngine::serial(), &ansatz, &h, vec![]).is_err());
    }

    /// A deliberately cheap wide ansatz: `H` then `d` RZ slots on one
    /// qubit, so enumerating 4^12 configurations stays fast. The net
    /// rotation is `(Σ kᵢ)·π/2`, giving `⟨X⟩ = cos(Σ kᵢ · π/2)`.
    struct ManyRz(usize);

    impl Ansatz for ManyRz {
        fn num_qubits(&self) -> usize {
            1
        }
        fn num_parameters(&self) -> usize {
            self.0
        }
        fn bind(&self, params: &[f64]) -> cafqa_circuit::Circuit {
            assert_eq!(params.len(), self.0);
            let mut c = cafqa_circuit::Circuit::new(1);
            c.h(0);
            for &theta in params {
                c.rz(0, theta);
            }
            c
        }
    }

    /// Regression for the off-by-one boundary: `MAX_EXHAUSTIVE` is 4^12,
    /// so a 12-parameter ansatz saturates the bound exactly and must be
    /// enumerated; 13 parameters must be refused with the true size.
    #[test]
    fn twelve_parameter_boundary_is_enumerable() {
        let h: PauliOp = "X".parse().unwrap();
        assert_eq!(4u64.pow(12), MAX_EXHAUSTIVE);
        let engine = ExecEngine::serial();
        let result = exhaustive_search_on(&engine, &ManyRz(12), &h, vec![]).unwrap();
        assert_eq!(result.evaluations, MAX_EXHAUSTIVE);
        // ⟨X⟩ = −1 needs Σ kᵢ ≡ 2 (mod 4); the earliest code is [2, 0, …].
        assert_eq!(result.energy, -1.0);
        let mut expected = vec![0usize; 12];
        expected[0] = 2;
        assert_eq!(result.best_config, expected);
        let refused = exhaustive_search_on(&engine, &ManyRz(13), &h, vec![]);
        assert!(refused.is_err_and(|size| size == 4u64.pow(13)));
    }

    /// The sharded enumeration must return exactly the serial result,
    /// including tie resolution toward the lowest enumeration code. Worker
    /// counts are forced so the shard/merge path runs even on one core.
    #[test]
    fn sharded_matches_serial() {
        let h: PauliOp = "0.5*XX + 0.25*ZZ - 0.1*YI".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 1); // 8 parameters → 4^8
        let serial = exhaustive_search_on(&ExecEngine::serial(), &ansatz, &h, vec![]).unwrap();
        for workers in [2, 5, 8] {
            let engine = ExecEngine::new(workers);
            let sharded = exhaustive_search_on(&engine, &ansatz, &h, vec![]).unwrap();
            assert_eq!(sharded.best_config, serial.best_config, "{workers} workers");
            assert_eq!(sharded.energy.to_bits(), serial.energy.to_bits());
            assert_eq!(sharded.penalized.to_bits(), serial.penalized.to_bits());
            assert_eq!(sharded.evaluations, serial.evaluations);
        }
    }

    /// Ties across shard boundaries must resolve to the earliest code:
    /// with an identity Hamiltonian every configuration ties, so every
    /// shard count must report the all-zeros configuration.
    #[test]
    fn tie_resolution_prefers_lowest_code_across_shards() {
        let h = PauliOp::identity(2);
        let ansatz = EfficientSu2::new(2, 1);
        for workers in [3, 7] {
            let engine = ExecEngine::new(workers);
            let result = exhaustive_search_on(&engine, &ansatz, &h, vec![]).unwrap();
            assert_eq!(result.best_config, vec![0; 8], "{workers} workers");
            assert_eq!(result.energy, 1.0);
        }
    }

    /// The headline oracle test: BO + polish finds the *global* Clifford
    /// optimum of the full H2 ansatz space (4^8 = 65 536 configurations).
    #[test]
    fn bo_matches_exhaustive_on_h2() {
        let pipe = ChemPipeline::build(MoleculeKind::H2, 2.5, &ScfKind::Rhf).unwrap();
        let problem = pipe.problem(1, 1, true).unwrap();
        let ansatz = EfficientSu2::new(2, 1);
        let penalty = Penalty::new("n", &problem.number_op, problem.n_electrons() as f64, 1.0);
        let engine = ExecEngine::global();
        let oracle = exhaustive_search_on(engine, &ansatz, &problem.hamiltonian, vec![penalty]);
        let oracle = oracle.unwrap();
        let penalty = Penalty::new("n", &problem.number_op, problem.n_electrons() as f64, 1.0);
        let seeds = vec![ansatz.basis_state_config(problem.hf_bits)];
        let opts = CafqaOptions { warmup: 150, iterations: 250, ..Default::default() };
        let searched = run_cafqa(&ansatz, &problem.hamiltonian, vec![penalty], &seeds, &opts);
        assert!(
            (searched.penalized - oracle.penalized).abs() < 1e-9,
            "search {} vs oracle {}",
            searched.penalized,
            oracle.penalized
        );
        // And the global Clifford optimum sits between exact and HF.
        let exact = problem.exact_energy.unwrap();
        assert!(oracle.energy >= exact - 1e-9);
        assert!(oracle.energy <= problem.hf_energy + 1e-9);
    }
}
