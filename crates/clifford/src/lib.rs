//! Stabilizer simulation for CAFQA.
//!
//! Three engines implement the paper's classical-evaluation layer:
//!
//! - [`Tableau`] — Aaronson–Gottesman stabilizer simulation with exact
//!   `{+1, 0, −1}` Pauli expectations (paper §2.3/§3). This evaluates every
//!   candidate in the CAFQA discrete search in polynomial time; whole
//!   Hamiltonians are summed from a bit-sliced [`SlicedTerms`] layout,
//!   64 terms per stabilizer pass.
//! - [`CliffordTState`] / [`BranchDecomposition`] — the beyond-Clifford
//!   extension (paper §8): circuits with `t` non-Clifford rotations expand
//!   into `2^t` Clifford branches via `R_P(θ) = cos(θ/2)·I − i·sin(θ/2)·P`,
//!   summed densely (the ≤ [`cafqa_sim::MAX_DENSE_QUBITS`]-qubit reference
//!   oracle).
//! - [`BranchEnsemble`] — the same branch decomposition held as one
//!   stabilizer tableau plus `t` frame Paulis, with all `O(4^t)` cross
//!   terms recovered through phase-sensitive stabilizer inner products;
//!   exact at any tableau-supported width, which is what lets the CAFQA+kT
//!   search run on 34-qubit systems.
//!
//! # Examples
//!
//! ```
//! use cafqa_circuit::{Ansatz, EfficientSu2};
//! use cafqa_clifford::Tableau;
//!
//! // Evaluate one Clifford-ansatz configuration, paper-style.
//! let ansatz = EfficientSu2::new(4, 1);
//! let circuit = ansatz.bind_clifford(&vec![2; 16]);
//! let tableau = Tableau::from_circuit(&circuit).unwrap();
//! let h = "0.1*XYXY + 0.5*IZZI".parse().unwrap();
//! let energy = tableau.expectation(&h);
//! assert!(energy.abs() <= 0.6);
//! ```

#![warn(missing_docs)]

mod clifford_t;
mod ensemble;
mod sliced;
mod tableau;

pub use clifford_t::{BranchDecomposition, CliffordTError, CliffordTState, MAX_BRANCH_GATES};
pub use ensemble::{BranchEnsemble, BranchFrames, ScreenedSum};
pub use sliced::SlicedTerms;
pub use tableau::{NonCliffordError, Tableau};

#[cfg(test)]
mod proptests {
    use super::*;
    use cafqa_circuit::{Circuit, Gate};
    use cafqa_pauli::PauliString;
    use cafqa_sim::Statevector;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Move {
        H(usize),
        S(usize),
        Sdg(usize),
        X(usize),
        Y(usize),
        Z(usize),
        Cx(usize, usize),
        Cz(usize, usize),
        RotY(usize, usize),
        RotZ(usize, usize),
        RotX(usize, usize),
    }

    fn clifford_circuit(n: usize, len: usize) -> impl Strategy<Value = Circuit> {
        let mv = (0usize..11, 0usize..n, 1usize..n.max(2), 0usize..4).prop_map(
            move |(kind, q, offset, rot)| {
                let q2 = (q + offset) % n;
                match kind {
                    0 => Move::H(q),
                    1 => Move::S(q),
                    2 => Move::Sdg(q),
                    3 => Move::X(q),
                    4 => Move::Y(q),
                    5 => Move::Z(q),
                    6 => Move::Cx(q, q2),
                    7 => Move::Cz(q, q2),
                    8 => Move::RotY(q, rot),
                    9 => Move::RotZ(q, rot),
                    _ => Move::RotX(q, rot),
                }
            },
        );
        proptest::collection::vec(mv, 0..len).prop_map(move |moves| {
            let mut c = Circuit::new(n);
            for m in moves {
                match m {
                    Move::H(q) => c.h(q),
                    Move::S(q) => c.s(q),
                    Move::Sdg(q) => c.sdg(q),
                    Move::X(q) => c.x(q),
                    Move::Y(q) => c.y(q),
                    Move::Z(q) => c.z(q),
                    Move::Cx(a, b) if a != b => c.cx(a, b),
                    Move::Cz(a, b) if a != b => c.cz(a, b),
                    Move::Cx(..) | Move::Cz(..) => &mut c,
                    Move::RotY(q, k) => c.ry(q, k as f64 * std::f64::consts::FRAC_PI_2),
                    Move::RotZ(q, k) => c.rz(q, k as f64 * std::f64::consts::FRAC_PI_2),
                    Move::RotX(q, k) => c.rx(q, k as f64 * std::f64::consts::FRAC_PI_2),
                };
            }
            c
        })
    }

    fn pauli_string(n: usize) -> impl Strategy<Value = PauliString> {
        proptest::collection::vec(0u8..4, n).prop_map(move |v| {
            let mut x = 0u64;
            let mut z = 0u64;
            for (q, p) in v.iter().enumerate() {
                x |= ((p & 1) as u64) << q;
                z |= (((p >> 1) & 1) as u64) << q;
            }
            PauliString::from_masks(n, x, z)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The Gottesman–Knill oracle test: tableau expectations equal the
        /// dense-simulation expectations on random Clifford circuits.
        #[test]
        fn tableau_matches_statevector(c in clifford_circuit(4, 30), p in pauli_string(4)) {
            let t = Tableau::from_circuit(&c).unwrap();
            let sv = Statevector::from_circuit(&c);
            let op = cafqa_pauli::PauliOp::from_terms(4, [(cafqa_linalg::Complex64::ONE, p)]);
            let dense = sv.expectation(&op).re;
            let tab = f64::from(t.expectation_pauli(&p));
            prop_assert!((dense - tab).abs() < 1e-9, "{:?} {}: {} vs {}", c, p, dense, tab);
        }

        /// Stabilizer expectations are always exactly −1, 0, or +1.
        #[test]
        fn stabilizer_expectations_quantized(c in clifford_circuit(5, 40), p in pauli_string(5)) {
            let t = Tableau::from_circuit(&c).unwrap();
            let v = t.expectation_pauli(&p);
            prop_assert!(v == -1 || v == 0 || v == 1);
        }

        /// Branch decomposition reproduces dense simulation with T gates.
        #[test]
        fn clifford_t_matches_statevector(
            c in clifford_circuit(3, 15),
            p in pauli_string(3),
            t_qubits in proptest::collection::vec(0usize..3, 0..4),
        ) {
            let mut circuit = c.clone();
            for q in t_qubits {
                circuit.push(Gate::T(q));
            }
            let state = CliffordTState::from_circuit(&circuit).unwrap();
            let sv = Statevector::from_circuit(&circuit);
            let op = cafqa_pauli::PauliOp::from_terms(3, [(cafqa_linalg::Complex64::ONE, p)]);
            let dense = sv.expectation(&op).re;
            let branch = state.expectation(&op);
            prop_assert!((dense - branch).abs() < 1e-9);
        }

        /// The tableau-backed branch ensemble agrees with the dense branch
        /// backend — cross terms, weights, and phases included — on random
        /// Clifford+T circuits (T gates *and* off-grid eighth rotations).
        #[test]
        fn branch_ensemble_matches_dense(
            c in clifford_circuit(6, 40),
            p in pauli_string(6),
            t_moves in proptest::collection::vec((0usize..6, 0usize..3, 1usize..8), 0..5),
        ) {
            let mut circuit = c.clone();
            for (q, kind, odd) in t_moves {
                match kind {
                    0 => { circuit.push(Gate::T(q)); }
                    1 => { circuit.push(Gate::Tdg(q)); }
                    // An odd eighth turn: k·π/4 with k odd.
                    _ => { circuit.rz(q, (odd | 1) as f64 * std::f64::consts::FRAC_PI_4); }
                }
            }
            let ensemble = BranchEnsemble::from_circuit(&circuit).unwrap();
            let dense = CliffordTState::from_circuit(&circuit).unwrap();
            let op = cafqa_pauli::PauliOp::from_terms(6, [(cafqa_linalg::Complex64::ONE, p)]);
            let d = dense.expectation(&op);
            let e = ensemble.expectation(&op);
            prop_assert!((d - e).abs() < 1e-10, "dense {} vs ensemble {}", d, e);
        }

        /// Measuring all qubits of a stabilizer state yields a bitstring
        /// with nonzero amplitude in the dense simulation.
        #[test]
        fn measurement_supported_outcomes(c in clifford_circuit(4, 25)) {
            let mut t = Tableau::from_circuit(&c).unwrap();
            let sv = Statevector::from_circuit(&c);
            let mut bit = false;
            let mut flip = || { bit = !bit; bit };
            let mut outcome = 0u64;
            for q in 0..4 {
                if t.measure(q, &mut flip) {
                    outcome |= 1 << q;
                }
            }
            prop_assert!(sv.amplitude(outcome).norm_sqr() > 1e-12);
        }
    }
}
