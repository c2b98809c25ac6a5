//! Chemistry fast-path equivalence suite (tier-1): the production chain
//! — `compute_ao_integrals`, `rhf`/`uhf` with the streaming Fock build,
//! `Matrix::eigh`, `qubit_hamiltonian` and `taper_two_qubits` behind
//! `ChemPipeline::build` + `problem` — must reproduce the frozen chain of
//! `cafqa_bench::reference_chem` **bit for bit**: AO integrals, the SCF
//! result (energy, coefficients, orbital energies, iterations, converged),
//! the active-space integrals, the tapered H/N/Sz/S² and `hf_energy`.
//!
//! Cases: every catalog molecule at each `bond_sweep` point with RHF, the
//! fig10 (H2O triplet) and fig11 (H6 broken-symmetry singlet and triplet)
//! UHF settings over the same sweeps, the 34-qubit Cr2 surrogate at the
//! literal 2.85 and 3.8 Å the Cr2 bond benchmark runs, and proptests of
//! the Fock build, the eigensolver, the Boys function and the tapering on
//! random inputs.

use cafqa_bench::{
    bitwise_diff, reference_boys, reference_chem_pipeline, reference_eigh, reference_fock_2e,
    reference_problem, reference_taper_two_qubits, ReferenceChem,
};
use cafqa_chem::integrals::boys;
use cafqa_chem::mapping::taper_two_qubits;
use cafqa_chem::{
    compute_ao_integrals, AoIntegrals, BasisSet, ChemPipeline, EriTensor, FockBuilder,
    MoleculeKind, ScfKind, SpinIntegrals, ALL_MOLECULES,
};
use cafqa_linalg::{Complex64, Matrix};
use cafqa_pauli::{PauliOp, PauliString};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn assert_slice_bits(built: &[f64], reference: &[f64], what: &str) {
    assert_eq!(built.len(), reference.len(), "{what}: length");
    for (i, (a, b)) in built.iter().zip(reference).enumerate() {
        assert!(same_bits(*a, *b), "{what}[{i}]: {a:e} vs {b:e}");
    }
}

fn assert_matrix_bits(built: &Matrix, reference: &Matrix, what: &str) {
    assert_eq!((built.rows(), built.cols()), (reference.rows(), reference.cols()), "{what}");
    assert_slice_bits(built.as_slice(), reference.as_slice(), what);
}

fn assert_eri_bits(built: &EriTensor, reference: &EriTensor, what: &str) {
    let n = reference.len();
    assert_eq!(built.len(), n, "{what}: size");
    for p in 0..n {
        for q in 0..n {
            for r in 0..n {
                for s in 0..n {
                    let (a, b) = (built.get(p, q, r, s), reference.get(p, q, r, s));
                    assert!(same_bits(a, b), "{what}({p}{q}|{r}{s}): {a:e} vs {b:e}");
                }
            }
        }
    }
}

fn assert_ao_bits(built: &AoIntegrals, reference: &AoIntegrals, what: &str) {
    assert_matrix_bits(&built.overlap, &reference.overlap, &format!("{what} overlap"));
    assert_matrix_bits(
        &built.core_hamiltonian,
        &reference.core_hamiltonian,
        &format!("{what} core Hamiltonian"),
    );
    assert_eri_bits(&built.eri, &reference.eri, &format!("{what} AO ERI"));
    assert!(same_bits(built.nuclear_repulsion, reference.nuclear_repulsion), "{what}: E_nuc");
}

fn assert_spin_integral_bits(built: &SpinIntegrals, reference: &SpinIntegrals, what: &str) {
    assert_eq!(
        (built.n, built.n_alpha, built.n_beta),
        (reference.n, reference.n_alpha, reference.n_beta),
        "{what}: active space"
    );
    assert_matrix_bits(&built.h_alpha, &reference.h_alpha, &format!("{what} h_alpha"));
    assert_matrix_bits(&built.h_beta, &reference.h_beta, &format!("{what} h_beta"));
    assert_eri_bits(&built.eri_aa, &reference.eri_aa, &format!("{what} eri_aa"));
    assert_eri_bits(&built.eri_ab, &reference.eri_ab, &format!("{what} eri_ab"));
    assert_eri_bits(&built.eri_bb, &reference.eri_bb, &format!("{what} eri_bb"));
    assert!(same_bits(built.core_energy, reference.core_energy), "{what}: core energy");
}

fn assert_op_bits(built: &PauliOp, reference: &PauliOp, what: &str) {
    if let Err(diff) = bitwise_diff(built, reference) {
        panic!("{what}: {diff}");
    }
}

/// Runs both chains for one case and compares every stage.
fn check(kind: MoleculeKind, bond: f64, scf_kind: &ScfKind) {
    let what = format!("{} at {bond} Å ({scf_kind:?})", kind.name());
    let reference = reference_chem_pipeline(kind, bond, scf_kind);
    let pipe = ChemPipeline::build(kind, bond, scf_kind);
    let (pipe, reference): (ChemPipeline, ReferenceChem) = match (pipe, reference) {
        (Ok(p), Ok(r)) => (p, r),
        (Err(e), Err(r)) => {
            assert_eq!(format!("{e}"), format!("scf failure: {r}"), "{what}");
            return;
        }
        (p, r) => panic!("{what}: outcomes differ: {:?} vs {:?}", p.err(), r.err()),
    };
    assert_ao_bits(&pipe.integrals, &reference.integrals, &what);
    let (scf, ref_scf) = (&pipe.scf, &reference.scf);
    assert_eq!(pipe.scf_converged, reference.scf_converged, "{what}: converged");
    assert_eq!(
        (scf.converged, scf.iterations, scf.n_alpha, scf.n_beta),
        (ref_scf.converged, ref_scf.iterations, ref_scf.n_alpha, ref_scf.n_beta),
        "{what}: SCF iterations"
    );
    assert!(same_bits(scf.energy, ref_scf.energy), "{what}: SCF energy");
    assert_matrix_bits(&scf.coefficients, &ref_scf.coefficients, &format!("{what} C"));
    assert_slice_bits(&scf.orbital_energies, &ref_scf.orbital_energies, &format!("{what} ε"));
    match (&scf.coefficients_beta, &ref_scf.coefficients_beta) {
        (Some(a), Some(b)) => assert_matrix_bits(a, b, &format!("{what} C_β")),
        (None, None) => {}
        _ => panic!("{what}: β coefficients present on one side only"),
    }
    match (&scf.orbital_energies_beta, &ref_scf.orbital_energies_beta) {
        (Some(a), Some(b)) => assert_slice_bits(a, b, &format!("{what} ε_β")),
        (None, None) => {}
        _ => panic!("{what}: β orbital energies present on one side only"),
    }
    assert_spin_integral_bits(&pipe.spin_integrals, &reference.spin_integrals, &what);
    let (na, nb) = pipe.default_sector();
    let problem = pipe.problem(na, nb, false).expect("catalog problem");
    let ref_problem = reference_problem(&reference.spin_integrals, na, nb);
    assert_op_bits(&problem.hamiltonian, &ref_problem.hamiltonian, &format!("{what} H"));
    assert_op_bits(&problem.number_op, &ref_problem.number_op, &format!("{what} N"));
    assert_op_bits(&problem.sz_op, &ref_problem.sz_op, &format!("{what} Sz"));
    assert_op_bits(&problem.s_squared_op, &ref_problem.s_squared_op, &format!("{what} S²"));
    assert_eq!(problem.hf_bits, ref_problem.hf_bits, "{what}: HF bits");
    assert!(same_bits(problem.hf_energy, ref_problem.hf_energy), "{what}: hf_energy");
}

fn check_sweep(kind: MoleculeKind, scf_kind: &ScfKind) {
    for bond in kind.bond_sweep() {
        check(kind, bond, scf_kind);
    }
}

#[test]
fn small_catalog_sweeps_are_bit_identical() {
    for kind in ALL_MOLECULES {
        if !matches!(kind, MoleculeKind::H2S1Surrogate | MoleculeKind::Cr2Surrogate) {
            check_sweep(kind, &ScfKind::Rhf);
        }
    }
}

#[test]
fn h2s1_surrogate_sweep_is_bit_identical() {
    check_sweep(MoleculeKind::H2S1Surrogate, &ScfKind::Rhf);
}

#[test]
fn cr2_surrogate_sweep_is_bit_identical() {
    check_sweep(MoleculeKind::Cr2Surrogate, &ScfKind::Rhf);
}

/// The literal bonds of the Cr2 bond benchmark: 2.85 Å fails both SCF
/// attempts (900 iterations, best effort kept), 3.8 Å converges on the
/// robust retry.
#[test]
fn cr2_surrogate_benchmark_bonds_are_bit_identical() {
    for bond in [2.85, 3.8] {
        check(MoleculeKind::Cr2Surrogate, bond, &ScfKind::Rhf);
    }
}

/// fig10's triplet H2O and fig11's broken-symmetry singlet and triplet
/// H6 references.
#[test]
fn uhf_sweeps_are_bit_identical() {
    check_sweep(MoleculeKind::H2O, &ScfKind::Uhf { n_alpha: 6, n_beta: 4, guess_mix: 0.3 });
    for (n_alpha, n_beta, guess_mix) in [(3, 3, 0.4), (4, 2, 0.3)] {
        check_sweep(MoleculeKind::H6, &ScfKind::Uhf { n_alpha, n_beta, guess_mix });
    }
}

/// `(μν|λσ) ≡ (νμ|λσ)` bit for bit makes `J` exactly symmetric, which is
/// what lets the streaming build sum only its upper triangle: a full,
/// element-wise `J` on every catalog tensor is symmetric to the bit.
#[test]
fn coulomb_matrix_is_bitwise_symmetric_on_catalog_integrals() {
    let mut rng = StdRng::seed_from_u64(0x5E7);
    for kind in ALL_MOLECULES {
        let molecule = kind.geometry(kind.equilibrium_bond());
        let ints = compute_ao_integrals(&molecule, &BasisSet::sto3g(&molecule));
        let n = ints.eri.len();
        let d = random_symmetric(n, &mut rng);
        let j = Matrix::from_fn(n, n, |mu, nu| {
            let mut acc = 0.0;
            for lam in 0..n {
                for sig in 0..n {
                    acc += d[(lam, sig)] * ints.eri.get(mu, nu, lam, sig);
                }
            }
            acc
        });
        for mu in 0..n {
            for nu in 0..mu {
                assert!(same_bits(j[(mu, nu)], j[(nu, mu)]), "{}: J{mu}{nu}", kind.name());
            }
        }
    }
}

fn random_symmetric(n: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = match rng.gen_range(0..8usize) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0..2.0),
            };
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

fn random_matrix(n: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(n, n, |_, _| rng.gen_range(-2.0..2.0))
}

/// AO integrals for the Fock-build proptest: catalog tensors (pair
/// symmetric, the streaming build's mirrored-`J` path) and random
/// unsymmetrized tensors (its full-`J` path).
fn fock_case_integrals(case: usize, rng: &mut StdRng) -> AoIntegrals {
    const KINDS: [MoleculeKind; 4] =
        [MoleculeKind::H2, MoleculeKind::LiH, MoleculeKind::H2O, MoleculeKind::H6];
    if case < KINDS.len() {
        let kind = KINDS[case];
        let molecule = kind.geometry(kind.bond_sweep()[rng.gen_range(0..4usize)]);
        return compute_ao_integrals(&molecule, &BasisSet::sto3g(&molecule));
    }
    let n = rng.gen_range(1..7usize);
    let eri = EriTensor::from_fn(n, |_, _, _, _| rng.gen_range(-1.0..1.0));
    AoIntegrals {
        overlap: Matrix::identity(n),
        core_hamiltonian: Matrix::zeros(n, n),
        eri,
        nuclear_repulsion: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streaming Fock build equals the element-wise original bit for
    /// bit on random symmetric densities, for RHF (`s = ½`, one density)
    /// and UHF (`s = 1`, separate total and same-spin densities).
    #[test]
    fn fock_build_is_bit_identical(case in 0usize..6, seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ints = fock_case_integrals(case, &mut rng);
        let n = ints.eri.len();
        let builder = FockBuilder::new(&ints.eri);
        let d = random_symmetric(n, &mut rng);
        let da = random_symmetric(n, &mut rng);
        for (d_total, d_same, scale) in [(&d, &d, 0.5), (&d, &da, 1.0)] {
            let built = builder.two_electron(d_total, d_same, scale);
            let reference = reference_fock_2e(&ints, d_total, d_same, scale);
            for (i, (a, b)) in built.as_slice().iter().zip(reference.as_slice()).enumerate() {
                prop_assert!(same_bits(*a, *b), "case {case}, seed {seed}, G[{i}]: {a:e} vs {b:e}");
            }
        }
    }

    /// `Matrix::eigh` equals the frozen index-based Jacobi solver bit for
    /// bit, on symmetric and on unsymmetric input.
    #[test]
    fn eigh_is_bit_identical(n in 0usize..12, symmetric in 0usize..2, seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = if symmetric == 1 { random_symmetric(n, &mut rng) } else { random_matrix(n, &mut rng) };
        match (m.eigh(), reference_eigh(&m)) {
            (Ok(a), Ok(b)) => {
                for (x, y) in a.values.iter().zip(&b.values) {
                    prop_assert!(same_bits(*x, *y), "n = {n}, seed = {seed}: {x:e} vs {y:e}");
                }
                prop_assert_eq!(a.values.len(), b.values.len());
                for (x, y) in a.vectors.as_slice().iter().zip(b.vectors.as_slice()) {
                    prop_assert!(same_bits(*x, *y), "n = {n}, seed = {seed}: {x:e} vs {y:e}");
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "n = {n}, seed = {seed}: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }

    /// `boys` equals the allocating original across its three branches
    /// and their boundaries.
    #[test]
    fn boys_is_bit_identical(m_max in 0usize..9, seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        const EDGES: [f64; 8] = [0.0, 1e-14, 1e-13, 0.5, 34.999_999_999, 35.0, 35.000_001, 80.0];
        let t = if rng.gen_range(0..3usize) == 0 {
            EDGES[rng.gen_range(0..EDGES.len())]
        } else {
            rng.gen_range(0.0..60.0)
        };
        let (a, b) = (boys(m_max, t), reference_boys(m_max, t));
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!(same_bits(*x, *y), "m_max = {m_max}, t = {t}: {x:e} vs {y:e}");
        }
    }

    /// The flat tapering equals the two `map_terms` rebuilds bit for bit.
    /// Few qubits and few Z patterns make both stages merge colliding
    /// keys often; the coefficient palette holds ±0, exact cancellations
    /// and values on both sides of the final `1e-12` prune.
    #[test]
    fn tapering_is_bit_identical(
        half in 1usize..5,
        terms in 1usize..80,
        sector in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = 2 * half;
        let symmetry = (1u64 << (half - 1)) | (1u64 << (m - 1));
        let all = (1u64 << m) - 1;
        const PALETTE: [f64; 8] = [0.0, -0.0, 0.25, -0.25, 6e-13, -1.5e-12, 1e-12, 0.125];
        let value = |rng: &mut StdRng| {
            if rng.gen_range(0..2usize) == 0 {
                PALETTE[rng.gen_range(0..PALETTE.len())]
            } else {
                rng.gen_range(-1.0..1.0)
            }
        };
        let op = PauliOp::from_terms(
            m,
            (0..terms).map(|_| {
                let x = rng.gen::<u64>() & all & !symmetry & if rng.gen_range(0..2usize) == 0 { 0 } else { all };
                let z = rng.gen::<u64>() & all;
                let c = Complex64::new(value(&mut rng), value(&mut rng));
                (c, PauliString::from_masks(m, x, z))
            }),
        );
        let (n_alpha, n_beta) = (sector / 2, sector % 2);
        let built = taper_two_qubits(&op, n_alpha, n_beta);
        let reference = reference_taper_two_qubits(&op, n_alpha, n_beta);
        let diff = bitwise_diff(&built, &reference);
        prop_assert!(diff.is_ok(), "m = {m}, seed = {seed}: {diff:?}");
    }
}
