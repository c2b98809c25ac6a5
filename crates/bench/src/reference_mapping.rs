//! Frozen pre-optimization Hamiltonian builder.
//!
//! `cafqa_chem::qubit_hamiltonian` was rewritten to accumulate the
//! two-body chunks in place over precomputed mask-form pair products
//! instead of re-cloning a `PauliOp` per `(r, s)` term. The rewrite's
//! contract is a *bit-identical* output: the same term list and the same
//! bits in every coefficient. This module freezes the original
//! operator-algebra builder verbatim so the equivalence suite and the
//! `hamiltonian_build` A/B always compare against the genuine original,
//! no matter how the production builder evolves.

use cafqa_chem::mapping::{lowering_op, raising_op, spin_orbital, Mapping};
use cafqa_chem::{Spin, SpinIntegrals};
use cafqa_linalg::Complex64;
use cafqa_pauli::{PauliOp, PauliString};

/// The original `qubit_hamiltonian`: the full (untapered) qubit
/// Hamiltonian on `2n` qubits built with `PauliOp` products and sums.
pub fn reference_qubit_hamiltonian(si: &SpinIntegrals, mapping: Mapping) -> PauliOp {
    let n = si.n;
    let m = 2 * n;
    let spins = [Spin::Alpha, Spin::Beta];
    // Cache ladder operators.
    let lower: Vec<PauliOp> = (0..m).map(|j| lowering_op(mapping, m, j)).collect();
    let raise: Vec<PauliOp> = (0..m).map(|j| raising_op(mapping, m, j)).collect();
    let mut h = PauliOp::zero(m);
    h.add_term(Complex64::from(si.core_energy), PauliString::identity(m));
    // One-body terms.
    for &sigma in &spins {
        for p in 0..n {
            for q in 0..n {
                let v = si.h(sigma, p, q);
                if v.abs() < 1e-12 {
                    continue;
                }
                let term = raise[spin_orbital(n, p, sigma)]
                    .mul_op(&lower[spin_orbital(n, q, sigma)])
                    .scaled(Complex64::from(v));
                for (ps, c) in term.iter() {
                    h.add_term(*c, *ps);
                }
            }
        }
    }
    // Two-body terms: accumulate in a scratch op per (p, q) pair to keep
    // the running simplification cheap.
    for &sigma in &spins {
        for &tau in &spins {
            for p in 0..n {
                for q in 0..n {
                    let ap = &raise[spin_orbital(n, p, sigma)];
                    let aq = &lower[spin_orbital(n, q, sigma)];
                    let mut chunk = PauliOp::zero(m);
                    let mut any = false;
                    for r in 0..n {
                        for s in 0..n {
                            let v = si.eri(sigma, tau, p, q, r, s);
                            if v.abs() < 1e-12 {
                                continue;
                            }
                            let (ri, sidx) = (spin_orbital(n, r, tau), spin_orbital(n, s, tau));
                            if ri == spin_orbital(n, p, sigma) || sidx == spin_orbital(n, q, sigma)
                            {
                                // a†_p a†_p = 0 and a_q a_q = 0: skip terms
                                // the algebra would cancel anyway.
                                continue;
                            }
                            // ½ a†_pσ a†_rτ a_sτ a_qσ.
                            let inner = raise[ri].mul_op(&lower[sidx]);
                            chunk = &chunk + &inner.scaled(Complex64::from(0.5 * v));
                            any = true;
                        }
                    }
                    if any {
                        let term = ap.mul_op(&chunk.pruned(1e-14)).mul_op(aq);
                        for (ps, c) in term.iter() {
                            h.add_term(*c, *ps);
                        }
                    }
                }
            }
        }
    }
    h.pruned(1e-10)
}

/// `Ok` when two operators have the same term list and `to_bits`-equal
/// real and imaginary parts on every coefficient; otherwise `Err` names
/// the first difference.
pub fn bitwise_diff(built: &PauliOp, reference: &PauliOp) -> Result<(), String> {
    if built.num_qubits() != reference.num_qubits() {
        return Err(format!("{} vs {} qubits", built.num_qubits(), reference.num_qubits()));
    }
    if built.num_terms() != reference.num_terms() {
        return Err(format!("{} vs {} terms", built.num_terms(), reference.num_terms()));
    }
    for ((p, c), (q, d)) in built.iter().zip(reference.iter()) {
        if p != q {
            return Err(format!("term {p} vs {q}"));
        }
        if c.re.to_bits() != d.re.to_bits() || c.im.to_bits() != d.im.to_bits() {
            return Err(format!("{p}: {c:?} vs {d:?}"));
        }
    }
    Ok(())
}
