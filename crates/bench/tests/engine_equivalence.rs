//! Bit-identity contract of the persistent-engine refactor.
//!
//! Three layers of guarantees, each asserted bitwise:
//!
//! 1. **Refactor equivalence** — at `proposals_per_refit = 1` the new
//!    batched `minimize` / `run_cafqa` reproduce the frozen pre-refactor
//!    serial implementations ([`cafqa_bench::reference_minimize`],
//!    [`cafqa_bench::reference_run_cafqa`]) trace-for-trace. The frozen
//!    loop fits the frozen serial [`cafqa_bench::reference_forest_fit`]
//!    (surrogate v2: per-tree RNG streams, weighted bootstrap rows), so
//!    this also pins the production surrogate, whose trees grow as
//!    engine jobs, against it.
//! 2. **Worker-count invariance** — the same search on engines of 1, 2
//!    and 8 workers yields the same `CafqaResult` (energy, trace,
//!    iterations_to_best), at any batch size.
//! 3. **Spawn-vs-pool equivalence** — the engine-backed batch evaluation
//!    equals the frozen `thread::scope` spawn-per-batch path.

use cafqa_bayesopt::{minimize, minimize_with, BoOptions};
use cafqa_bench::{reference_evaluate_batch_spawn, reference_minimize, reference_run_cafqa};
use cafqa_chem::{ChemPipeline, MoleculeKind, ScfKind};
use cafqa_circuit::EfficientSu2;
use cafqa_core::{run_cafqa_on, CafqaOptions, CafqaResult, CliffordObjective, ExecEngine, Penalty};
use cafqa_linalg::Complex64;
use cafqa_pauli::{PauliOp, PauliString};
use proptest::prelude::*;

fn assert_bo_results_identical(a: &cafqa_bayesopt::BoResult, b: &cafqa_bayesopt::BoResult) {
    assert_eq!(a.history.len(), b.history.len(), "history length");
    for (i, (x, y)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(x.config, y.config, "config at evaluation {i}");
        assert_eq!(x.value.to_bits(), y.value.to_bits(), "value at evaluation {i}");
        assert_eq!(x.best_so_far.to_bits(), y.best_so_far.to_bits(), "best at evaluation {i}");
    }
    assert_eq!(a.best_config, b.best_config);
    assert_eq!(a.best_value.to_bits(), b.best_value.to_bits());
    assert_eq!(a.iterations_to_best, b.iterations_to_best);
}

fn assert_cafqa_results_identical(a: &CafqaResult, b: &CafqaResult, label: &str) {
    assert_eq!(a.trace.len(), b.trace.len(), "{label}: trace length");
    for (i, (x, y)) in a.trace.iter().zip(&b.trace).enumerate() {
        assert_eq!(x.energy.to_bits(), y.energy.to_bits(), "{label}: energy at {i}");
        assert_eq!(x.penalized.to_bits(), y.penalized.to_bits(), "{label}: penalized at {i}");
        assert_eq!(x.best_so_far.to_bits(), y.best_so_far.to_bits(), "{label}: best at {i}");
    }
    assert_eq!(a.best_config, b.best_config, "{label}: best_config");
    assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "{label}: energy");
    assert_eq!(a.penalized.to_bits(), b.penalized.to_bits(), "{label}: penalized");
    assert_eq!(a.iterations_to_best, b.iterations_to_best, "{label}: iterations_to_best");
    assert_eq!(a.evaluations, b.evaluations, "{label}: evaluations");
}

fn rugged(c: &[usize]) -> f64 {
    let s: f64 = c.iter().enumerate().map(|(i, &v)| ((v as f64) - ((i % 4) as f64)).abs()).sum();
    s + if c[0] == c[c.len() - 1] { 0.0 } else { 2.0 }
}

/// Layer 1: the batched loop at B = 1 *is* the classic loop — same RNG
/// stream, same pool, same tie-breaks — across refit cadences, seeds and
/// patience settings.
#[test]
fn minimize_b1_matches_frozen_reference() {
    let cardinalities = vec![4usize; 10];
    let seeds = vec![vec![1usize; 10], vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]];
    for refit_every in [1usize, 3, 7] {
        for (use_seeds, patience) in [(false, 0usize), (true, 0), (true, 25)] {
            let opts = BoOptions {
                warmup: 40,
                iterations: 120,
                refit_every,
                proposals_per_refit: 1,
                patience,
                seed: 0xFEED + refit_every as u64,
                ..Default::default()
            };
            let seed_slice: &[Vec<usize>] = if use_seeds { &seeds } else { &[] };
            let frozen = reference_minimize(&cardinalities, rugged, seed_slice, &opts);
            let space = cafqa_bayesopt::SearchSpace { cardinalities: cardinalities.clone() };
            let batched = minimize(
                &space,
                |batch: &[Vec<usize>]| batch.iter().map(|c| rugged(c)).collect(),
                seed_slice,
                &opts,
            );
            assert_bo_results_identical(&batched, &frozen);
        }
    }
}

/// Layer 2 (BO): surrogate scoring sharded over 1/2/8-worker engines is
/// trajectory-identical — predictions are independent per candidate and
/// reassembled in pool order. B = 4 with the default pool makes the
/// scoring pass large enough to actually dispatch to the pool.
#[test]
fn minimize_trace_invariant_across_engine_widths() {
    let space = cafqa_bayesopt::SearchSpace::uniform(12, 4);
    let opts = BoOptions {
        warmup: 60,
        iterations: 80,
        proposals_per_refit: 4,
        seed: 0xD15C,
        ..Default::default()
    };
    let run = |engine: &ExecEngine| {
        minimize_with(
            &space,
            |batch: &[Vec<usize>]| batch.iter().map(|c| rugged(c)).collect(),
            &[],
            &opts,
            engine,
        )
    };
    let serial = run(&ExecEngine::serial());
    for workers in [2usize, 8] {
        let engine = ExecEngine::new(workers);
        let pooled = run(&engine);
        assert_bo_results_identical(&pooled, &serial);
    }
}

fn h2_ingredients() -> (PauliOp, PauliOp, f64) {
    let pipe = ChemPipeline::build(MoleculeKind::H2, 2.2, &ScfKind::Rhf).unwrap();
    let problem = pipe.problem(1, 1, false).unwrap();
    (problem.hamiltonian.clone(), problem.number_op.clone(), problem.n_electrons() as f64)
}

/// Layer 1 (runner): the full CAFQA run at B = 1 — warm-up, acquisition,
/// both polish phases — reproduces the frozen serial runner bit-for-bit
/// on a real molecular problem with a sector penalty.
#[test]
fn run_cafqa_b1_matches_frozen_runner() {
    let (hamiltonian, number_op, electrons) = h2_ingredients();
    let ansatz = EfficientSu2::new(2, 1);
    let opts =
        CafqaOptions { warmup: 50, iterations: 80, proposals_per_refit: 1, ..Default::default() };
    let penalty = || vec![Penalty::new("n", &number_op, electrons, 1.0)];
    let seeds = vec![ansatz.basis_state_config(0b01)];
    let frozen = reference_run_cafqa(&ansatz, &hamiltonian, penalty(), &seeds, &opts);
    for workers in [1usize, 2, 8] {
        let engine = ExecEngine::new(workers);
        let result = run_cafqa_on(&engine, &ansatz, &hamiltonian, penalty(), &seeds, &opts);
        assert_cafqa_results_identical(&result, &frozen, &format!("{workers} workers vs frozen"));
    }
}

/// Layer 2 (runner): a wide-register search (large enough that warm-up
/// batches really dispatch to the pool) is bit-identical at 1/2/8
/// workers with the default batched acquisition.
#[test]
fn run_cafqa_trace_invariant_across_worker_counts() {
    // A synthetic 6-qubit Hamiltonian dense enough to clear the batch
    // dispatch threshold (per-candidate cost ∝ terms × qubits).
    let mut seed = 0x5EED_u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let hamiltonian = PauliOp::from_terms(
        6,
        (0..64).map(|i| {
            let x = next() & 0x3F;
            let z = next() & 0x3F;
            (Complex64::from(0.02 * (i as f64 + 1.0)), PauliString::from_masks(6, x, z))
        }),
    );
    let ansatz = EfficientSu2::new(6, 1);
    let opts = CafqaOptions { warmup: 80, iterations: 60, polish_sweeps: 2, ..Default::default() };
    let reference = run_cafqa_on(&ExecEngine::serial(), &ansatz, &hamiltonian, vec![], &[], &opts);
    for workers in [2usize, 8] {
        let engine = ExecEngine::new(workers);
        let result = run_cafqa_on(&engine, &ansatz, &hamiltonian, vec![], &[], &opts);
        assert_cafqa_results_identical(&result, &reference, &format!("{workers} vs serial"));
    }
}

/// Layer 2 (term sharding): a full search over a ≥ 4096-term Hamiltonian
/// — where every candidate's term sum shards across the pool from inside
/// the batch workers ([`cafqa_core::ExecEngine::map_nested`]) — is
/// bit-identical at 1/2/8 workers.
#[test]
fn run_cafqa_term_sharded_trace_invariant_across_worker_counts() {
    let mut seed = 0xC12_u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    // 4300 distinct terms on 10 qubits: over the sharding threshold, and
    // distinct by construction (code packed into the masks).
    let hamiltonian = PauliOp::from_terms(
        10,
        (0..4300u64).map(|code| {
            let x = code & 0x3FF;
            let z = (code >> 10) & 0x3FF;
            (
                Complex64::from(1e-3 * ((next() % 89) as f64 + 1.0)),
                PauliString::from_masks(10, x, z),
            )
        }),
    );
    assert!(hamiltonian.num_terms() >= 4096);
    let ansatz = EfficientSu2::new(10, 1);
    let opts = CafqaOptions {
        warmup: 24,
        iterations: 16,
        polish_sweeps: 0,
        forest_window: 12, // windowed refits must not break invariance either
        ..Default::default()
    };
    let reference = run_cafqa_on(&ExecEngine::serial(), &ansatz, &hamiltonian, vec![], &[], &opts);
    for workers in [2usize, 8] {
        let engine = ExecEngine::new(workers);
        let result = run_cafqa_on(&engine, &ansatz, &hamiltonian, vec![], &[], &opts);
        assert_cafqa_results_identical(
            &result,
            &reference,
            &format!("term-sharded {workers} vs serial"),
        );
    }
}

/// Layer 3: pooled batch evaluation equals the frozen spawn-per-batch
/// path (and the plain serial loop) on every candidate, bit for bit.
#[test]
fn pooled_batches_match_frozen_spawn_path() {
    let h: PauliOp = "0.5*XXII + 0.25*ZZZZ - 0.1*YIYI + 0.7*IZIZ + 0.3*XYZX".parse().unwrap();
    let ansatz = EfficientSu2::new(4, 1);
    let engine = ExecEngine::new(4);
    let objective = CliffordObjective::new(&ansatz, &h).with_engine(engine);
    let configs: Vec<Vec<usize>> = (0..256u64)
        .map(|code| (0..16).map(|i| ((code.wrapping_mul(193) >> i) & 3) as usize).collect())
        .collect();
    let pooled = objective.evaluate_batch(&configs);
    for workers in [2usize, 4, 8] {
        let spawned = reference_evaluate_batch_spawn(&objective, &configs, workers);
        for (p, s) in pooled.iter().zip(&spawned) {
            assert_eq!(p.energy.to_bits(), s.energy.to_bits(), "{workers} spawn workers");
            assert_eq!(p.penalized.to_bits(), s.penalized.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form of layer 1: for random seeds and budgets, B = 1
    /// batched minimize equals the frozen reference exactly.
    #[test]
    fn minimize_b1_equivalence_holds_for_random_seeds(
        rng_seed in 0u64..10_000,
        warmup in 5usize..40,
        iterations in 10usize..60,
    ) {
        let cardinalities = vec![4usize; 6];
        let opts = BoOptions {
            warmup,
            iterations,
            proposals_per_refit: 1,
            seed: rng_seed,
            ..Default::default()
        };
        let f = |c: &[usize]| {
            c.iter().enumerate().map(|(i, &v)| (v as f64 - (i % 3) as f64).powi(2)).sum::<f64>()
        };
        let frozen = reference_minimize(&cardinalities, f, &[], &opts);
        let space = cafqa_bayesopt::SearchSpace { cardinalities: cardinalities.clone() };
        let batched = minimize(
            &space,
            |batch: &[Vec<usize>]| batch.iter().map(|c| f(c)).collect(),
            &[],
            &opts,
        );
        prop_assert_eq!(batched.history.len(), frozen.history.len());
        for (x, y) in batched.history.iter().zip(&frozen.history) {
            prop_assert_eq!(&x.config, &y.config);
            prop_assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
        prop_assert_eq!(batched.best_config, frozen.best_config);
        prop_assert_eq!(batched.iterations_to_best, frozen.iterations_to_best);
    }

    /// Property form of layer 2: random batches evaluate bit-identically
    /// through the engine at any worker count.
    #[test]
    fn batch_evaluation_worker_invariance(
        codes in proptest::collection::vec(0u64..65_536, 1..48),
        workers in 2usize..9,
    ) {
        let h: PauliOp = "0.5*XX + 0.25*ZZ - 0.1*YI + 0.7*IZ".parse().unwrap();
        let ansatz = EfficientSu2::new(2, 1);
        let objective = CliffordObjective::new(&ansatz, &h);
        let configs: Vec<Vec<usize>> = codes
            .iter()
            .map(|&code| (0..8).map(|i| ((code >> (2 * i)) & 3) as usize).collect())
            .collect();
        let sharded = objective.evaluate_batch_with_workers(&configs, workers);
        let serial = objective.evaluate_batch_with_workers(&configs, 1);
        for (s, r) in sharded.iter().zip(&serial) {
            prop_assert_eq!(s.energy.to_bits(), r.energy.to_bits());
            prop_assert_eq!(s.penalized.to_bits(), r.penalized.to_bits());
        }
    }
}
