//! Routing contract of the Ising fast path.
//!
//! Four layers:
//!
//! 1. **Classifier soundness** (proptest): `classify_ising` partitions
//!    every generated Hamiltonian — `Some` exactly when an independent
//!    reimplementation of the structural predicate (all term weights
//!    ≤ 2, every qubit column single-axis, zero-coefficient terms
//!    ignored) says so, so a non-Ising term set can never route; and on
//!    classified instances the reduced objective agrees with the
//!    tableau objective through the eigenstate lift at every probed
//!    assignment.
//! 2. **Exactness on MaxCut** (proptest): the routed `run_cafqa_on`
//!    energy equals `−max_cut_exact` on n ≤ 16 Erdős–Rényi instances,
//!    in a single evaluation.
//! 3. **Batch worker invariance**: `solve_ising_batch_on` returns
//!    bit-identical results at worker counts {1, 2, 8}, on a mixed
//!    batch (fast-path and full-search instances).
//! 4. **Fallback bit-identity**: non-Ising inputs produce results
//!    bit-for-bit equal to the unrouted (`IsingFastPath::Off`) path —
//!    the hook is invisible when it does not fire.

use cafqa_circuit::{Ansatz, EfficientSu2, LocalBasis};
use cafqa_core::ising::EXACT_SOLVE_CAP;
use cafqa_core::maxcut::{maxcut_hamiltonian, Graph};
use cafqa_core::{
    classify_ising, run_cafqa_on, solve_ising_batch_on, CafqaOptions, CafqaResult,
    CliffordObjective, ExecEngine, IsingFastPath, IsingInstance,
};
use cafqa_linalg::Complex64;
use cafqa_pauli::{Pauli, PauliOp, PauliString};
use proptest::prelude::*;

/// The structural predicate, reimplemented independently of the
/// production classifier: Ising-class iff every term with nonzero real
/// coefficient has weight ≤ 2 and no qubit is touched by two different
/// Pauli axes.
fn is_ising_class(h: &PauliOp) -> bool {
    let mut axis: Vec<Option<Pauli>> = vec![None; h.num_qubits()];
    for (s, c) in h.iter() {
        if c.re == 0.0 {
            continue;
        }
        if s.weight() > 2 {
            return false;
        }
        for (q, slot) in axis.iter_mut().enumerate() {
            let p = s.pauli_at(q);
            if p == Pauli::I {
                continue;
            }
            match *slot {
                Some(a) if a != p => return false,
                _ => *slot = Some(p),
            }
        }
    }
    true
}

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

/// A small full-search budget for the fallback instances, so the mixed
/// batch and bit-identity runs stay fast.
fn tiny_opts() -> CafqaOptions {
    CafqaOptions { warmup: 10, iterations: 15, polish_sweeps: 1, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Layer 1: the classifier decision matches the independent
    /// predicate on arbitrary mask-form term sets — in particular, no
    /// non-Ising Hamiltonian ever classifies — and classified forms
    /// agree with the tableau objective through the lift.
    #[test]
    fn classifier_partitions_and_matches_tableau(
        raw in proptest::collection::vec((0u64..64, 0u64..64, -2.0f64..2.0), 1..10),
        diagonal_code in 0u32..2,
        probe in 0u64..(1 << 20),
    ) {
        let n = 6usize;
        let mask = (1u64 << n) - 1;
        let diagonal_only = diagonal_code == 0;
        let h = PauliOp::from_terms(
            n,
            raw.iter().map(|&(x, z, w)| {
                let x = if diagonal_only { 0 } else { x & mask };
                (Complex64::from(w), PauliString::from_masks(n, x, z & mask))
            }),
        );
        let classified = classify_ising(&h);
        prop_assert_eq!(classified.is_some(), is_ising_class(&h));
        if let Some(form) = classified {
            // All-I columns default to Z.
            prop_assert_eq!(form.bases.len(), n);
            let ansatz = EfficientSu2::new(n, 1);
            let objective = CliffordObjective::new(&ansatz, &h);
            for bits in [0u64, probe & mask, !probe & mask] {
                let cfg = ansatz.eigenstate_config(bits, &form.bases).unwrap();
                let v = objective.evaluate(&cfg);
                prop_assert!(
                    (form.energy_of(bits) - v.energy).abs() < 1e-9,
                    "reduced {} vs tableau {} at {:06b}", form.energy_of(bits), v.energy, bits
                );
            }
        }
    }

    /// Layer 2: on n ≤ 16 MaxCut the routed energy is the exact
    /// optimum, found in one evaluation (the instance never enters the
    /// BO pipeline).
    #[test]
    fn fast_path_is_exact_on_maxcut(
        n in 4usize..17,
        p_percent in 20u32..80,
        seed in 0u64..1_000,
    ) {
        assert!(n <= EXACT_SOLVE_CAP, "n ≤ 16 instances must solve exactly");
        let g = Graph::random(n, f64::from(p_percent) / 100.0, seed);
        let h = maxcut_hamiltonian(&g);
        let ansatz = EfficientSu2::new(n, 1);
        let engine = ExecEngine::serial();
        let result = run_cafqa_on(&engine, &ansatz, &h, vec![], &[], &tiny_opts());
        prop_assert_eq!(result.evaluations, 1);
        prop_assert_eq!(result.polish_evaluations, 0);
        let optimum = g.max_cut_exact();
        prop_assert!(
            (result.energy + optimum).abs() < 1e-9,
            "routed energy {} vs optimum {}", result.energy, -optimum
        );
    }
}

/// The X/Y column lifts against the tableau, on hand-checked instances:
/// `w·P₀P₁ − 0.5·P₀` minimizes to `−1.5` at eigenvalues `(+1, −1)` for
/// each axis `P ∈ {X, Y, Z}`.
#[test]
fn rotated_columns_route_to_exact_product_eigenstates() {
    for (label, bases) in [
        ("1.0*XX - 0.5*XI", [LocalBasis::X; 2]),
        ("1.0*YY - 0.5*YI", [LocalBasis::Y; 2]),
        ("1.0*ZZ - 0.5*ZI", [LocalBasis::Z; 2]),
    ] {
        let h: PauliOp = label.parse().unwrap();
        let form = classify_ising(&h).unwrap();
        assert_eq!(form.bases, bases, "{label}");
        let ansatz = EfficientSu2::new(2, 1);
        let engine = ExecEngine::serial();
        let result = run_cafqa_on(&engine, &ansatz, &h, vec![], &[], &tiny_opts());
        assert_eq!(result.evaluations, 1, "{label} must route");
        assert!((result.energy - (-1.5)).abs() < 1e-12, "{label}: {}", result.energy);
    }
}

/// Layer 3: whole-instance sharding is a pure throughput knob — the
/// batch results are bit-identical at 1, 2 and 8 workers, including the
/// full-search instance that falls back inside a pool worker.
#[test]
fn batch_results_bit_identical_across_worker_counts() {
    let mut instances: Vec<IsingInstance> = vec![
        IsingInstance::new(EfficientSu2::new(8, 1), maxcut_hamiltonian(&Graph::random(8, 0.5, 17))),
        IsingInstance::new(EfficientSu2::new(9, 1), maxcut_hamiltonian(&Graph::ring(9))),
        IsingInstance::new(EfficientSu2::new(8, 1), maxcut_hamiltonian(&Graph::complete(8))),
        IsingInstance::new(
            EfficientSu2::new(10, 1),
            maxcut_hamiltonian(&Graph::random_weighted(10, 0.4, 7)),
        ),
    ];
    // A non-Ising instance exercises the in-worker full-search fallback.
    instances.push(IsingInstance::new(
        EfficientSu2::new(2, 1),
        "0.5*XX + 0.25*ZZ - 0.1*YI + 0.7*IZ".parse().unwrap(),
    ));
    let opts = tiny_opts();
    let reference = solve_ising_batch_on(&ExecEngine::new(1), &instances, &opts);
    assert_eq!(reference.len(), instances.len());
    for workers in [2usize, 8] {
        let engine = ExecEngine::new(workers);
        let results = solve_ising_batch_on(&engine, &instances, &opts);
        for (i, (r, s)) in reference.iter().zip(&results).enumerate() {
            assert_results_bitwise(r, s, &format!("instance {i} at {workers} workers"));
        }
    }
    // The fast-path instances solved to their exact optima on the way.
    for (instance, result) in instances.iter().zip(&reference).take(4) {
        let form = classify_ising(&instance.hamiltonian).expect("MaxCut classifies");
        let (_, reduced) = form.solve(opts.seed).expect("within the solve cap");
        assert!((result.energy - reduced).abs() < 1e-9);
    }
}

/// Layer 4: when the hook does not fire, it is invisible — non-Ising
/// inputs run bit-for-bit the unrouted pipeline.
#[test]
fn non_ising_inputs_pin_to_unrouted_run_cafqa() {
    let cases: Vec<(&str, PauliOp, usize)> = vec![
        ("mixed column", "0.5*XX + 0.25*ZZ - 0.1*YI + 0.7*IZ".parse().unwrap(), 2),
        ("weight 3", "0.3*ZZZ + 0.5*ZIZ - 0.2*IZI".parse().unwrap(), 3),
    ];
    let engine = ExecEngine::new(2);
    for (what, h, n) in cases {
        let ansatz = EfficientSu2::new(n, 1);
        let seeds = vec![vec![0usize; ansatz.num_parameters()]];
        let auto = CafqaOptions { ising_fast_path: IsingFastPath::Auto, ..tiny_opts() };
        let off = CafqaOptions { ising_fast_path: IsingFastPath::Off, ..tiny_opts() };
        let routed = run_cafqa_on(&engine, &ansatz, &h, vec![], &seeds, &auto);
        let unrouted = run_cafqa_on(&engine, &ansatz, &h, vec![], &seeds, &off);
        assert!(routed.evaluations > 1, "{what}: must fall back to the full search");
        assert_results_bitwise(&routed, &unrouted, what);
    }
}

/// Routed runs keep the never-worse-than-seed guarantee: the seed is
/// evaluated in the same batch and the first minimiser wins.
#[test]
fn routed_run_never_worse_than_seed() {
    let g = Graph::random(10, 0.4, 41);
    let h = maxcut_hamiltonian(&g);
    let ansatz = EfficientSu2::new(10, 1);
    let objective = CliffordObjective::new(&ansatz, &h);
    let seed_cfg = ansatz.basis_state_config(0b10110);
    let seed_energy = objective.evaluate(&seed_cfg).energy;
    let engine = ExecEngine::serial();
    let result = run_cafqa_on(&engine, &ansatz, &h, vec![], &[seed_cfg], &tiny_opts());
    assert_eq!(result.evaluations, 2, "winner + seed, one batch");
    assert!(result.energy <= seed_energy + 1e-12);
}
