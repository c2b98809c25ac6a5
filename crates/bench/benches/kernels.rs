//! Ablation benches for the design decisions called out in DESIGN.md §5.

use std::time::Duration;

use cafqa_bayesopt::{minimize, BoOptions, ForestOptions, RandomForest, SearchSpace, SerialExec};
use cafqa_chem::{BasisSet, Element, Molecule};
use cafqa_circuit::{Ansatz, EfficientSu2};
use cafqa_clifford::Tableau;
use cafqa_linalg::Complex64;
use cafqa_pauli::{PauliOp, PauliString};
use cafqa_sim::Statevector;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn random_pauli(n: usize, seed: &mut u64) -> PauliString {
    let mut next = || {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    };
    let mask = if n == 64 { u64::MAX } else { (1 << n) - 1 };
    PauliString::from_masks(n, next() & mask, next() & mask)
}

/// Bit-packed Pauli products (DESIGN §5: one word per axis).
fn bench_pauli_ops(c: &mut Criterion) {
    let mut seed = 42;
    let pairs: Vec<(PauliString, PauliString)> =
        (0..512).map(|_| (random_pauli(34, &mut seed), random_pauli(34, &mut seed))).collect();
    c.bench_function("pauli_mul_512_pairs_34q", |b| {
        b.iter(|| {
            let mut acc = 0i32;
            for (p, q) in &pairs {
                acc += p.mul(q).0;
            }
            black_box(acc)
        })
    });
}

/// Tableau expectation scaling in register width (polynomial, per
/// Gottesman–Knill) vs dense statevector (exponential).
fn bench_clifford_vs_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("clifford_vs_dense_expectation");
    for &n in &[8usize, 12, 16] {
        let ansatz = EfficientSu2::new(n, 1);
        let circuit = ansatz.bind_clifford(&vec![1; ansatz.num_parameters()]);
        let mut seed = 7;
        let op = PauliOp::from_terms(
            n,
            (0..64).map(|_| (Complex64::from(0.01), random_pauli(n, &mut seed))),
        );
        group.bench_with_input(BenchmarkId::new("tableau", n), &n, |b, _| {
            let t = Tableau::from_circuit(&circuit).unwrap();
            b.iter(|| black_box(t.expectation(&op)))
        });
        group.bench_with_input(BenchmarkId::new("statevector", n), &n, |b, _| {
            let psi = Statevector::from_circuit(&circuit);
            b.iter(|| black_box(psi.expectation(&op)))
        });
    }
    group.finish();
}

/// Wide-register tableau evaluation (the 34-qubit Cr2-class kernel).
fn bench_tableau_34q(c: &mut Criterion) {
    let ansatz = EfficientSu2::new(34, 1);
    c.bench_function("tableau_simulate_34q_ansatz", |b| {
        b.iter(|| {
            let circuit = ansatz.bind_clifford(&vec![3; ansatz.num_parameters()]);
            black_box(Tableau::from_circuit(&circuit).unwrap())
        })
    });
}

/// Surrogate-guided search vs pure random sampling at equal budgets
/// (DESIGN §5 ablation: the value of the RF surrogate).
fn bench_bo_vs_random(c: &mut Criterion) {
    let space = SearchSpace::uniform(16, 4);
    let objective = |batch: &[Vec<usize>]| {
        batch
            .iter()
            .map(|cfg| {
                cfg.iter()
                    .enumerate()
                    .map(|(i, &k)| (k as f64 - (i % 4) as f64).powi(2))
                    .sum::<f64>()
            })
            .collect::<Vec<f64>>()
    };
    let mut group = c.benchmark_group("bo_vs_random_160_evals");
    group.bench_function("bo_surrogate", |b| {
        b.iter(|| {
            let opts = BoOptions { warmup: 60, iterations: 100, ..Default::default() };
            black_box(minimize(&space, objective, &[], &opts).best_value)
        })
    });
    group.bench_function("pure_random", |b| {
        b.iter(|| {
            let opts = BoOptions { warmup: 160, iterations: 0, ..Default::default() };
            black_box(minimize(&space, objective, &[], &opts).best_value)
        })
    });
    group.finish();
}

/// Random-forest fitting cost at search-loop sizes.
fn bench_forest_fit(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(9);
    let xs: Vec<Vec<usize>> =
        (0..500).map(|_| (0..40).map(|_| rng.gen_range(0..4usize)).collect()).collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<usize>() as f64).collect();
    c.bench_function("forest_fit_500x40", |b| {
        b.iter(|| {
            black_box(RandomForest::fit(
                &xs,
                &ys,
                &[4; 40],
                &ForestOptions::default(),
                &mut rng,
                &SerialExec,
            ))
        })
    });
}

/// Two-electron integral evaluation (the chemistry-stack hot spot).
fn bench_eri(c: &mut Criterion) {
    let m = Molecule::from_angstrom(&[
        (Element::O, [0.0, 0.0, 0.0]),
        (Element::H, [0.0, 0.76, 0.59]),
        (Element::H, [0.0, -0.76, 0.59]),
    ]);
    let basis = BasisSet::sto3g(&m);
    c.bench_function("eri_h2o_full_tensor", |b| {
        b.iter(|| black_box(cafqa_chem::compute_ao_integrals(&m, &basis)))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = kernels;
    config = config();
    targets = bench_pauli_ops, bench_clifford_vs_dense, bench_tableau_34q,
              bench_bo_vs_random, bench_forest_fit, bench_eri
}
criterion_main!(kernels);
