//! Hamiltonian-builder equivalence suite (tier-1): the production
//! `qubit_hamiltonian` must reproduce the frozen operator-algebra builder
//! `reference_qubit_hamiltonian` **bit for bit** — the same term list,
//! and `to_bits`-equal real and imaginary parts on every coefficient —
//! for every catalog molecule in both encodings, and for random
//! active-space integrals that straddle the builder's skip and pruning
//! thresholds.

use cafqa_bench::{bitwise_diff, reference_qubit_hamiltonian};
use cafqa_chem::mapping::Mapping;
use cafqa_chem::{
    qubit_hamiltonian, ChemPipeline, EriTensor, MoleculeKind, ScfKind, SpinIntegrals, ALL_MOLECULES,
};
use cafqa_linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAPPINGS: [Mapping; 2] = [Mapping::JordanWigner, Mapping::Parity];

/// Every catalog molecule at its equilibrium bond, plus the 34-qubit Cr2
/// surrogate at the two stretched bonds the Cr2 bond benchmark sweeps.
#[test]
fn catalog_hamiltonians_are_bit_identical_to_the_reference() {
    let mut cases: Vec<(MoleculeKind, f64)> =
        ALL_MOLECULES.iter().map(|&kind| (kind, kind.equilibrium_bond())).collect();
    cases.retain(|&(kind, _)| kind != MoleculeKind::Cr2Surrogate);
    cases.extend([(MoleculeKind::Cr2Surrogate, 2.85), (MoleculeKind::Cr2Surrogate, 3.8)]);
    for (kind, bond) in cases {
        let pipe = ChemPipeline::build(kind, bond, &ScfKind::Rhf).expect("catalog chemistry");
        for mapping in MAPPINGS {
            let si = &pipe.spin_integrals;
            let built = qubit_hamiltonian(si, mapping);
            let reference = reference_qubit_hamiltonian(si, mapping);
            assert!(built.num_terms() > 1, "{} {bond} Å {mapping:?}: empty", kind.name());
            if let Err(diff) = bitwise_diff(&built, &reference) {
                panic!("{} at {bond} Å, {mapping:?}: {diff}", kind.name());
            }
        }
    }
}

/// An integral value: exact zeros of both signs, values on both sides of
/// the `1e-12` skip, values that land near the `1e-10` final pruning
/// after the ladder factors' `½`s, near-cancelling pairs whose chunk
/// residuals fall below and above the `1e-14` chunk pruning, or a
/// generic value.
fn integral(rng: &mut StdRng) -> f64 {
    const PALETTE: [f64; 13] = [
        0.0,
        -0.0,
        9.99e-13,
        -9.99e-13,
        1e-12,
        1.001e-12,
        -1.001e-12,
        4e-10,
        -8.1e-10,
        0.25,
        -0.25,
        0.250_000_000_000_04,
        0.250_000_000_000_4,
    ];
    if rng.gen::<f64>() < 0.6 {
        PALETTE[rng.gen_range(0..PALETTE.len())]
    } else {
        rng.gen_range(-1.0..1.0)
    }
}

/// Random, deliberately unsymmetrized active-space integrals on `n`
/// spatial orbitals (the builder is pure operator algebra, so it must
/// match the reference for any values, not just physical ones).
fn random_integrals(n: usize, seed: u64) -> SpinIntegrals {
    let mut rng = StdRng::seed_from_u64(seed);
    let matrix = |rng: &mut StdRng| {
        let mut h = Matrix::zeros(n, n);
        for p in 0..n {
            for q in 0..n {
                h[(p, q)] = integral(rng);
            }
        }
        h
    };
    let h_alpha = matrix(&mut rng);
    let h_beta = matrix(&mut rng);
    let tensor = |rng: &mut StdRng| EriTensor::from_fn(n, |_, _, _, _| integral(rng));
    let eri_aa = tensor(&mut rng);
    let eri_ab = tensor(&mut rng);
    let eri_bb = tensor(&mut rng);
    SpinIntegrals {
        n,
        h_alpha,
        h_beta,
        eri_aa,
        eri_ab,
        eri_bb,
        core_energy: rng.gen_range(-10.0..10.0),
        n_alpha: n / 2,
        n_beta: n / 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_integrals_build_bit_identical_hamiltonians(n in 1usize..5, seed in 0u64..u64::MAX) {
        let si = random_integrals(n, seed);
        for mapping in MAPPINGS {
            let built = qubit_hamiltonian(&si, mapping);
            let reference = reference_qubit_hamiltonian(&si, mapping);
            let diff = bitwise_diff(&built, &reference);
            prop_assert!(diff.is_ok(), "n = {n}, seed = {seed}, {mapping:?}: {diff:?}");
        }
    }
}
