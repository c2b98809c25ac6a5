//! Ab initio quantum chemistry for CAFQA, built from scratch.
//!
//! This crate replaces the paper's PySCF/Psi4/Qiskit-Nature stack
//! (DESIGN.md §4.5): STO-3G Gaussian [`integrals`], restricted and
//! unrestricted Hartree-Fock ([`rhf`]/[`uhf`]), active-space reduction,
//! Jordan–Wigner and parity fermion-to-qubit [`mapping`]s with the
//! two-qubit Z2 reduction, and a determinant-space FCI reference solver
//! ([`fci_ground_state`]) standing in for the paper's "Exact" curves.
//!
//! The top-level entry point is [`ChemPipeline`], which takes a catalog
//! molecule ([`MoleculeKind`]) and a bond length to a ready-to-search
//! [`MolecularProblem`] (qubit Hamiltonian + HF bitstring + FCI
//! reference).
//!
//! # Examples
//!
//! ```
//! use cafqa_chem::{ChemPipeline, MoleculeKind, ScfKind};
//!
//! let pipe = ChemPipeline::build(MoleculeKind::H2, 0.74, &ScfKind::Rhf)?;
//! let (na, nb) = pipe.default_sector();
//! let problem = pipe.problem(na, nb, true)?;
//! assert_eq!(problem.n_qubits, 2);
//! assert!(problem.exact_energy.unwrap() < problem.hf_energy);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![warn(missing_docs)]

mod active_space;
mod basis;
mod fci;
mod geometry;
pub mod integrals;
pub mod mapping;
mod molecules;
mod problem;
mod scf;

pub use active_space::{
    active_space_integrals, hf_energy_from_integrals, ActiveSpace, Spin, SpinIntegrals,
};
pub use basis::{AoKind, BasisFunction, BasisSet};
pub use fci::{fci_ground_state, FciError, FciResult, MAX_DETERMINANTS};
pub use geometry::{dist, Atom, Element, Molecule, BOHR_PER_ANGSTROM};
pub use integrals::{compute_ao_integrals, AoIntegrals, EriTensor};
pub use mapping::{
    hf_bitstring, lowering_op, number_operator, qubit_hamiltonian, raising_op, s_squared_operator,
    spin_orbital, sz_operator, taper_two_qubits, Mapping,
};
pub use molecules::{
    hydrogen_chain, hydrogen_ring, select_active_space, MoleculeKind, ALL_MOLECULES,
};
pub use problem::{qubit_ground_energy, ChemError, ChemPipeline, MolecularProblem, ScfKind};
pub use scf::{rhf, uhf, FockBuilder, ScfError, ScfOptions, ScfResult};
