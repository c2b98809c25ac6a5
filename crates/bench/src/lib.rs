//! Criterion benchmark crate (see benches/), plus the frozen reference
//! kernels and search loops the A/B benchmarks and equivalence tests
//! compare against.

mod reference_forest;
mod reference_kt;
mod reference_mapping;
mod reference_search;

pub use reference_forest::{
    reference_forest_fit, reference_v1_tree, ReferenceForest, ReferenceTree,
};
pub use reference_kt::{reference_kt, ReferenceKtResult};
pub use reference_mapping::{bitwise_diff, reference_qubit_hamiltonian};
pub use reference_search::{
    reference_evaluate_batch_spawn, reference_minimize, reference_polish, reference_run_cafqa,
    ReferencePolishOutcome,
};

use cafqa_clifford::Tableau;
use cafqa_pauli::{PauliOp, PauliString};

/// Signed generators extracted once per tableau, so the frozen baseline
/// is not charged for re-extraction on every term (the pre-rewrite kernel
/// read rows in place).
pub struct ReferenceGenerators {
    /// `(sign, string)` stabilizer generators.
    pub stabilizers: Vec<(bool, PauliString)>,
    /// `(sign, string)` destabilizers, index-paired with the stabilizers.
    pub destabilizers: Vec<(bool, PauliString)>,
}

impl ReferenceGenerators {
    /// Extracts both generator sets from a tableau.
    pub fn from_tableau(tableau: &Tableau) -> Self {
        ReferenceGenerators {
            stabilizers: tableau.stabilizers(),
            destabilizers: tableau.destabilizers(),
        }
    }
}

/// The pre-optimization expectation kernel, frozen as the benchmark
/// baseline: decompose the Pauli over the stabilizer generators through
/// the destabilizer pairing, accumulating the product phase with
/// materialized [`PauliString`] values via [`PauliString::mul`] —
/// exactly what `Tableau::expectation_pauli` did before the bitwise
/// rewrite. Must always agree with the production kernel (the
/// `kernel_equivalence` suite in `cafqa-clifford` asserts this).
pub fn reference_expectation_pauli(generators: &ReferenceGenerators, p: &PauliString) -> i8 {
    if generators.stabilizers.iter().any(|(_, s)| !s.commutes_with(p)) {
        return 0;
    }
    let mut acc = PauliString::identity(p.num_qubits());
    let mut k: i32 = 0;
    for ((_, d), (sign, s)) in generators.destabilizers.iter().zip(&generators.stabilizers) {
        if !d.commutes_with(p) {
            let (dk, prod) = acc.mul(s);
            k += dk + if *sign { 2 } else { 0 };
            acc = prod;
        }
    }
    debug_assert_eq!((acc.x_mask(), acc.z_mask()), (p.x_mask(), p.z_mask()));
    match k.rem_euclid(4) {
        0 => 1,
        2 => -1,
        _ => unreachable!("hermitian pauli product acquired an odd i power"),
    }
}

/// The pre-optimization operator expectation: per-term
/// [`reference_expectation_pauli`] sums, mirroring the old
/// `Tableau::expectation` path.
pub fn reference_expectation(tableau: &Tableau, op: &PauliOp) -> f64 {
    let generators = ReferenceGenerators::from_tableau(tableau);
    op.iter().map(|(p, c)| c.re * f64::from(reference_expectation_pauli(&generators, p))).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafqa_circuit::Circuit;

    #[test]
    fn reference_matches_production_kernel_on_bell() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let t = Tableau::from_circuit(&c).unwrap();
        let generators = ReferenceGenerators::from_tableau(&t);
        for s in ["XX", "ZZ", "YY", "XY", "IZ", "II"] {
            let p: PauliString = s.parse().unwrap();
            assert_eq!(
                reference_expectation_pauli(&generators, &p),
                t.expectation_pauli(&p),
                "{s}"
            );
        }
    }
}
