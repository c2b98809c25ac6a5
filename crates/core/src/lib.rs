//! CAFQA — a Clifford Ansatz For Quantum Accuracy.
//!
//! This crate is the paper's primary contribution: choose a VQA ansatz
//! initialization by searching the *Clifford-restricted* parameter space
//! of a hardware-efficient ansatz entirely on classical hardware.
//! Candidate configurations are stabilizer states, evaluated exactly and
//! noise-free in polynomial time by the tableau simulator; the discrete
//! space (four angles per parameter) is searched by Bayesian optimization
//! with a random-forest surrogate; the winner seeds ordinary (noisy) VQE
//! tuning.
//!
//! Entry points:
//!
//! - [`MolecularCafqa`] — the paper's main workload: molecular
//!   ground-state energy estimation from a [`cafqa_chem::MolecularProblem`].
//! - [`run_cafqa`] — the same search for any Hamiltonian/ansatz pair
//!   (e.g. [`maxcut`] problems).
//! - [`run_cafqa_kt`] — the beyond-Clifford CAFQA+kT extension (§8).
//!
//! # Examples
//!
//! ```
//! use cafqa_chem::{ChemPipeline, MoleculeKind, ScfKind};
//! use cafqa_core::{CafqaOptions, MolecularCafqa};
//!
//! // H2 at a stretched geometry, where HF loses correlation energy.
//! let pipe = ChemPipeline::build(MoleculeKind::H2, 2.0, &ScfKind::Rhf)?;
//! let problem = pipe.problem(1, 1, true)?;
//! let exact = problem.exact_energy.unwrap();
//! let runner = MolecularCafqa::new(problem);
//! let result = runner.run(&CafqaOptions::quick());
//! // CAFQA is never worse than HF and (here) close to exact.
//! assert!(result.energy <= runner.problem().hf_energy + 1e-9);
//! assert!(result.energy >= exact - 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod cursor;
pub mod engine;
pub mod exhaustive;
pub mod fingerprint;
pub mod ising;
mod kt;
pub mod maxcut;
pub mod metrics;
pub mod microbench;
mod objective;
mod runner;

pub use engine::{default_workers, ExecEngine};
pub use fingerprint::{coefficient_vector, family_fingerprint, job_fingerprint};
pub use ising::{
    classify_ising, solve_ising_batch_on, IsingError, IsingFastPath, IsingForm, IsingInstance,
};
pub use kt::{
    kt_session, run_cafqa_kt, run_cafqa_kt_on, t_count_of, widen_clifford_config, CafqaKtResult,
    KtError, KtPolishSession,
};
pub use objective::{
    CliffordObjective, EvalScratch, ObjectiveValue, Penalty, PolishMove, PolishSession,
};
pub use runner::{
    polish_on, polish_pair_list, run_cafqa, run_cafqa_on, CafqaJob, CafqaOptions, CafqaResult,
    MolecularCafqa, PolishOutcome, SearchPoint,
};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use cafqa_chem::{ChemPipeline, MoleculeKind, ScfKind};

    /// Paper Fig. 8(a): the H2+ cation curve sits above neutral H2, and
    /// the electron-count penalty keeps CAFQA in the right sector.
    #[test]
    fn cation_constraint_selects_one_electron_sector() {
        let pipe = ChemPipeline::build(MoleculeKind::H2, 1.0, &ScfKind::Rhf).unwrap();
        let cation = pipe.problem(1, 0, true).unwrap();
        let cation_exact = cation.exact_energy.unwrap();
        let runner = MolecularCafqa::new(cation);
        let opts = CafqaOptions {
            warmup: 100,
            iterations: 200,
            number_penalty: 2.0,
            ..Default::default()
        };
        let result = runner.run(&opts);
        // Must not dip below the 1-electron exact energy (which would mean
        // the penalty failed and the search escaped the sector).
        assert!(
            result.energy >= cation_exact - 1e-9,
            "CAFQA {} below cation exact {cation_exact}",
            result.energy
        );
        // And must land at (or very near) the cation ground state, which
        // is a stabilizer-reachable single-electron state.
        assert!(
            result.energy <= cation_exact + 0.05,
            "CAFQA {} too far above cation exact {cation_exact}",
            result.energy
        );
    }
}
