//! A/B benchmarks for the batched, allocation-free search stack: the
//! bitwise expectation kernel vs the frozen allocation-based reference,
//! per-candidate evaluation through the compiled template vs the full
//! bind-and-lower path, the H2 exhaustive oracle (4^8 configurations)
//! serial vs sharded, the persistent worker pool vs the frozen
//! spawn-per-batch path on an H2O-class objective, batched vs
//! single-proposal BO acquisition, the intra-candidate term-sharded
//! expectation vs the chunked serial sum on a Cr2-class objective,
//! the lane-blocked phase kernel vs the pinned scalar mask fold, the
//! polish layer-checkpoint stack vs rebuild-from-zero backward seeks,
//! the 32-chunk wide association on a ≥ 65 536-term sum,
//! windowed vs full-history surrogate refits, the Clifford+T branch
//! evaluator (tableau ensemble vs dense branch sum), the full
//! CAFQA+kT search (branch-engine stack vs the frozen dense/serial
//! rejection-sampling loop), the Ising fast path (structure-routed
//! reduced-space solve vs the full BO pipeline, in instances/second),
//! a job sliced by the job server vs the same job run solo, the
//! 34-qubit Cr2 Hamiltonian builder vs its frozen operator-algebra
//! original, the H2O-scale surrogate refit vs its frozen row-major
//! original, and the bit-sliced Hamiltonian sum vs the row-wise
//! per-term sum on H6 and Cr2 polish neighbours.
//!
//! The engine and BO A/Bs additionally time themselves with raw
//! `Instant` measurements (independent of the harness sampling), assert
//! the pooled/batched side is not slower, and record the numbers in
//! `BENCH_search.json` at the workspace root.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use cafqa_bayesopt::{minimize, BoOptions, ForestOptions, RandomForest, SearchSpace};
use cafqa_bench::{
    bitwise_diff, reference_evaluate_batch_spawn, reference_expectation_pauli,
    reference_forest_fit, reference_kt, reference_polish, reference_qubit_hamiltonian,
    ReferenceGenerators,
};
use cafqa_chem::mapping::Mapping;
use cafqa_chem::{qubit_hamiltonian, ChemPipeline, MoleculeKind, ScfKind};
use cafqa_circuit::{Ansatz, CompiledAnsatz, EfficientSu2};
use cafqa_clifford::{BranchEnsemble, CliffordTState, SlicedTerms, Tableau};
use cafqa_core::exhaustive::exhaustive_search_on;
use cafqa_core::maxcut::{maxcut_hamiltonian, Graph};
use cafqa_core::{
    classify_ising, kt_session, polish_on, run_cafqa_kt_on, run_cafqa_on, solve_ising_batch_on,
    widen_clifford_config, CafqaOptions, CafqaResult, CliffordObjective, ExecEngine, IsingFastPath,
    IsingInstance, KtPolishSession, MolecularCafqa,
};
use cafqa_linalg::Complex64;
use cafqa_pauli::{PauliOp, PauliString};
use cafqa_serve::{CafqaServer, JobSpec, ServeOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hint::black_box;

/// Mirrors the harness's substring filter (`cargo bench -- <filter>`):
/// the raw-timing A/B passes below are heavyweight and carry their own
/// assertions, so a filtered run (e.g. the CI `-- h2` kernel smoke) must
/// skip the ones it did not ask for — criterion's filter only gates
/// `bench_function` sampling, not the target function bodies.
fn filter_matches(name: &str) -> bool {
    match std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        Some(filter) => name.contains(&filter),
        None => true,
    }
}

/// Rewrites every numeric token equal to negative zero (`-0.0`,
/// `-0.000000`, `-0e5`, …) without its sign, so formatted values like
/// `{:.6}` of an exactly-zero-but-negative f64 never land in the
/// recorded JSON as `-0.0`. Tokens that merely *start* with `-0` (e.g.
/// `-0.05`) parse nonzero and pass through untouched.
fn normalize_negative_zero(json: &str) -> String {
    let bytes = json.as_bytes();
    let mut out = String::with_capacity(json.len());
    let mut i = 0;
    while i < bytes.len() {
        let is_number_start = bytes[i] == b'-'
            && i + 1 < bytes.len()
            && bytes[i + 1].is_ascii_digit()
            && !matches!(out.as_bytes().last(), Some(p) if p.is_ascii_alphanumeric() || *p == b'.');
        if is_number_start {
            let mut j = i + 1;
            while j < bytes.len()
                && (bytes[j].is_ascii_digit()
                    || bytes[j] == b'.'
                    || bytes[j] == b'e'
                    || bytes[j] == b'E'
                    || ((bytes[j] == b'+' || bytes[j] == b'-')
                        && matches!(bytes[j - 1], b'e' | b'E')))
            {
                j += 1;
            }
            let token = &json[i..j];
            if token.parse::<f64>() == Ok(0.0) {
                out.push_str(&token[1..]); // drop the sign: −0 → 0
            } else {
                out.push_str(token);
            }
            i = j;
        } else {
            out.push(json.as_bytes()[i] as char);
            i += 1;
        }
    }
    out
}

/// Accumulates `name → json` entries and rewrites `BENCH_search.json`
/// (workspace root) on every record. Entries already on disk from
/// *other* (e.g. filtered) runs are preserved — a `-- term_sharded`
/// smoke must not clobber the pooled or windowed numbers — with
/// in-process entries overriding same-named ones. Keys are emitted in
/// sorted order and negative zeros normalized away (both for new and
/// merged-from-disk entries), so re-recorded runs produce clean diffs.
fn record_bench_json(name: &str, json: String) {
    static RESULTS: OnceLock<Mutex<Vec<(String, String)>>> = OnceLock::new();
    let results = RESULTS.get_or_init(|| Mutex::new(Vec::new()));
    let mut results = results.lock().expect("bench json lock");
    results.retain(|(n, _)| n != name);
    results.push((name.to_string(), json));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_search.json");
    // Read-modify-write: the file is our own one-entry-per-line format,
    // so each body line splits into a quoted key and a `{...}` value at
    // the first `": "` (which by construction ends the key).
    let mut merged: Vec<(String, String)> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let line = line.trim().trim_end_matches(',');
            if let Some((key, value)) = line.split_once("\": ") {
                let key = key.trim_start_matches('"');
                if !key.is_empty() && value.starts_with('{') && value.ends_with('}') {
                    merged.push((key.to_string(), value.to_string()));
                }
            }
        }
    }
    for (n, j) in results.iter() {
        merged.retain(|(k, _)| k != n);
        merged.push((n.clone(), j.clone()));
    }
    merged.sort_by(|a, b| a.0.cmp(&b.0));
    let body: Vec<String> =
        merged.iter().map(|(n, j)| format!("  \"{n}\": {}", normalize_negative_zero(j))).collect();
    let _ = std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")));
}

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

/// The per-term expectation kernel, old (PauliString::mul accumulation)
/// vs new (bitwise phase accumulation) on a 14-qubit ansatz state.
///
/// Uniformly random Paulis almost surely anticommute with some stabilizer
/// and take the early-exit zero path, which the rewrite left untouched —
/// so the interesting workload is Paulis drawn from the stabilizer group
/// itself (random generator products, expectation ±1), which drive the
/// full destabilizer-decomposition loop on every term.
fn bench_expectation_kernel(c: &mut Criterion) {
    let ansatz = EfficientSu2::new(14, 1);
    let config: Vec<usize> = (0..ansatz.num_parameters()).map(|i| (i * 5 + 1) % 4).collect();
    let tableau = Tableau::from_circuit(&ansatz.bind_clifford(&config)).unwrap();
    let generators = ReferenceGenerators::from_tableau(&tableau);
    let mut seed = 19;
    let paulis: Vec<PauliString> = (0..256)
        .map(|_| {
            // A random product of stabilizer generators: nonzero expectation.
            let mut pick = random_pauli(14, &mut seed).x_mask() | 1;
            let mut x = 0u64;
            let mut z = 0u64;
            for (_, s) in &generators.stabilizers {
                if pick & 1 != 0 {
                    x ^= s.x_mask();
                    z ^= s.z_mask();
                }
                pick >>= 1;
            }
            PauliString::from_masks(14, x, z)
        })
        .collect();
    assert!(paulis.iter().all(|p| tableau.expectation_pauli(p) != 0));
    let mut group = c.benchmark_group("expectation_kernel_256x14q_in_group");
    group.bench_function("old_allocating", |b| {
        b.iter(|| {
            let s: i32 =
                paulis.iter().map(|p| i32::from(reference_expectation_pauli(&generators, p))).sum();
            black_box(s)
        })
    });
    group.bench_function("new_bitwise", |b| {
        b.iter(|| {
            let s: i32 = paulis.iter().map(|p| i32::from(tableau.expectation_pauli(p))).sum();
            black_box(s)
        })
    });
    group.finish();
}

/// One full candidate evaluation, old style (bind + lower + fresh tableau
/// + allocating expectation) vs the compiled-template scratch path.
fn bench_candidate_evaluation(c: &mut Criterion) {
    let ansatz = EfficientSu2::new(12, 1);
    let mut seed = 77;
    let op = PauliOp::from_terms(
        12,
        (0..128).map(|_| (cafqa_linalg::Complex64::from(0.01), random_pauli(12, &mut seed))),
    );
    let objective = CliffordObjective::new(&ansatz, &op);
    assert!(objective.is_compiled());
    let config: Vec<usize> = (0..ansatz.num_parameters()).map(|i| (i * 3 + 2) % 4).collect();
    let mut group = c.benchmark_group("candidate_evaluation_12q_128terms");
    group.bench_function("old_bind_lower_allocate", |b| {
        b.iter(|| {
            let circuit = ansatz.bind_clifford(&config);
            let tableau = Tableau::from_circuit(&circuit).unwrap();
            black_box(cafqa_bench::reference_expectation(&tableau, &op))
        })
    });
    group.bench_function("new_compiled_scratch", |b| {
        let mut scratch = objective.scratch();
        b.iter(|| black_box(objective.evaluate_with(&config, &mut scratch).energy))
    });
    group.finish();
}

/// Per-evaluation kernel at the paper's headline operating point: one
/// candidate of the H2 ansatz against the tapered H2 Hamiltonian.
fn bench_h2_candidate_evaluation(c: &mut Criterion) {
    let pipe = ChemPipeline::build(MoleculeKind::H2, 2.5, &ScfKind::Rhf).unwrap();
    let problem = pipe.problem(1, 1, true).unwrap();
    let ansatz = EfficientSu2::new(2, 1);
    let hamiltonian = problem.hamiltonian.clone();
    let objective = CliffordObjective::new(&ansatz, &hamiltonian);
    let config = vec![1usize, 2, 3, 0, 1, 2, 3, 0];
    let mut group = c.benchmark_group("candidate_evaluation_h2");
    group.bench_function("old_bind_lower_allocate", |b| {
        b.iter(|| {
            let circuit = ansatz.bind_clifford(&config);
            let tableau = Tableau::from_circuit(&circuit).unwrap();
            black_box(cafqa_bench::reference_expectation(&tableau, &hamiltonian))
        })
    });
    group.bench_function("new_compiled_scratch", |b| {
        let mut scratch = objective.scratch();
        b.iter(|| black_box(objective.evaluate_with(&config, &mut scratch).energy))
    });
    group.finish();
}

/// The H2 exhaustive oracle (4^8 = 65 536 configurations): old-style
/// per-candidate evaluation vs the new serial kernel vs the sharded
/// enumeration. All three must report identical energies.
fn bench_h2_oracle(c: &mut Criterion) {
    let pipe = ChemPipeline::build(MoleculeKind::H2, 2.5, &ScfKind::Rhf).unwrap();
    let problem = pipe.problem(1, 1, true).unwrap();
    let ansatz = EfficientSu2::new(2, 1);
    let hamiltonian = problem.hamiltonian.clone();
    let mut group = c.benchmark_group("h2_exhaustive_oracle_4pow8");
    let serial = ExecEngine::serial();
    let sharded = ExecEngine::new(8);
    let reference = exhaustive_search_on(&serial, &ansatz, &hamiltonian, vec![]).unwrap();
    group.bench_function("old_per_candidate", |b| {
        b.iter(|| {
            let mut best = f64::INFINITY;
            let mut config = vec![0usize; 8];
            for code in 0..65_536u64 {
                let mut bits = code;
                for slot in config.iter_mut() {
                    *slot = (bits & 3) as usize;
                    bits >>= 2;
                }
                let circuit = ansatz.bind_clifford(&config);
                let tableau = Tableau::from_circuit(&circuit).unwrap();
                let energy = cafqa_bench::reference_expectation(&tableau, &hamiltonian);
                if energy < best {
                    best = energy;
                }
            }
            assert_eq!(best, reference.energy);
            black_box(best)
        })
    });
    group.bench_function("new_serial", |b| {
        b.iter(|| {
            let result = exhaustive_search_on(&serial, &ansatz, &hamiltonian, vec![]).unwrap();
            assert_eq!(result.energy, reference.energy);
            black_box(result.penalized)
        })
    });
    group.bench_function("new_sharded_8", |b| {
        b.iter(|| {
            let result = exhaustive_search_on(&sharded, &ansatz, &hamiltonian, vec![]).unwrap();
            assert_eq!(result.energy, reference.energy);
            black_box(result.penalized)
        })
    });
    group.finish();
}

/// An H2O-class objective: 14-qubit `EfficientSu2` (56 parameters)
/// against a dense synthetic Hamiltonian of the same order as the
/// paper's 12–14-qubit molecular operators.
fn h2o_class_objective() -> (EfficientSu2, PauliOp) {
    let ansatz = EfficientSu2::new(14, 1);
    let mut seed = 0xB0B5_u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let hamiltonian = PauliOp::from_terms(
        14,
        (0..640).map(|i| {
            let x = next() & 0x3FFF;
            let z = next() & 0x3FFF;
            (Complex64::from(0.01 * ((i % 37) as f64 + 1.0)), PauliString::from_masks(14, x, z))
        }),
    );
    (ansatz, hamiltonian)
}

/// Search-shaped batches: the BO acquisition proposes a handful of
/// candidates per cycle and the polish sweeps try 3–16 alternatives per
/// move, so the production workload is *many small batches* — exactly
/// where per-batch thread spawns hurt most.
fn search_shaped_batches(num_parameters: usize) -> Vec<Vec<Vec<usize>>> {
    (0..200u64)
        .map(|round| {
            (0..8u64)
                .map(|k| {
                    let code = round.wrapping_mul(0x9E37_79B9).wrapping_add(k * 0x85EB_CA6B);
                    (0..num_parameters).map(|i| ((code >> (2 * (i % 29))) & 3) as usize).collect()
                })
                .collect()
        })
        .collect()
}

/// The tentpole A/B: persistent pool vs frozen spawn-per-batch on an
/// H2O-class objective, 200 batches of 8 candidates (the acquisition /
/// polish shape). Asserts pooled energies equal the spawn path bit for
/// bit AND that the pool is at least at pre-refactor throughput, then
/// records the numbers in `BENCH_search.json`.
fn bench_h2o_pooled_vs_spawn(c: &mut Criterion) {
    // Group name deliberately avoids the substring "h2" so the H2
    // kernel smoke filter does not drag this heavyweight A/B along.
    const GROUP: &str = "water_class_pooled_vs_spawn";
    if !filter_matches(GROUP) {
        return;
    }
    const WORKERS: usize = 4;
    let (ansatz, hamiltonian) = h2o_class_objective();
    let engine = ExecEngine::new(WORKERS);
    let objective = CliffordObjective::new(&ansatz, &hamiltonian).with_engine(engine);
    assert!(objective.is_compiled());
    let batches = search_shaped_batches(ansatz.num_parameters());

    // Raw A/B timing (one pass each, interleaved warmup already done by
    // the harness below): the assertion and the recorded numbers.
    let run_pooled = || {
        let mut acc = 0.0f64;
        for batch in &batches {
            acc += objective.evaluate_batch(batch).iter().map(|v| v.energy).sum::<f64>();
        }
        acc
    };
    let run_spawn = || {
        let mut acc = 0.0f64;
        for batch in &batches {
            acc += reference_evaluate_batch_spawn(&objective, batch, WORKERS)
                .iter()
                .map(|v| v.energy)
                .sum::<f64>();
        }
        acc
    };
    // Bitwise equality of every energy on one batch set.
    for batch in batches.iter().take(16) {
        let pooled = objective.evaluate_batch(batch);
        let spawned = reference_evaluate_batch_spawn(&objective, batch, WORKERS);
        for (p, s) in pooled.iter().zip(&spawned) {
            assert_eq!(p.energy.to_bits(), s.energy.to_bits(), "pool/spawn energy mismatch");
            assert_eq!(p.penalized.to_bits(), s.penalized.to_bits());
        }
    }
    // Warm both paths, then time: best of 3 passes each to shave
    // scheduler noise on busy hosts.
    black_box(run_pooled());
    black_box(run_spawn());
    let pooled_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_pooled());
            t.elapsed()
        })
        .min()
        .unwrap();
    let spawn_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_spawn());
            t.elapsed()
        })
        .min()
        .unwrap();
    let speedup = spawn_elapsed.as_secs_f64() / pooled_elapsed.as_secs_f64();
    record_bench_json(
        "h2o_class_pooled_vs_spawn",
        format!(
            "{{\"workers\": {WORKERS}, \"batches\": {}, \"batch_size\": 8, \
             \"spawn_ms\": {:.3}, \"pooled_ms\": {:.3}, \"speedup\": {:.3}, \
             \"energies_bit_identical\": true}}",
            batches.len(),
            spawn_elapsed.as_secs_f64() * 1e3,
            pooled_elapsed.as_secs_f64() * 1e3,
            speedup
        ),
    );
    // The acceptance gate: the persistent pool must be at least at
    // pre-refactor throughput (5 % tolerance for timer/scheduler noise).
    assert!(
        pooled_elapsed.as_secs_f64() <= spawn_elapsed.as_secs_f64() * 1.05,
        "pooled engine slower than spawn-per-batch: {pooled_elapsed:?} vs {spawn_elapsed:?}"
    );

    let mut group = c.benchmark_group(GROUP);
    group.bench_function("old_spawn_per_batch", |b| b.iter(|| black_box(run_spawn())));
    group.bench_function("new_persistent_pool", |b| b.iter(|| black_box(run_pooled())));
    group.finish();
}

/// The acquisition A/B: one candidate per surrogate refit (classic) vs
/// the batched top-B acquisition, same evaluation budget. The objective
/// is cheap, so the measured gap is the refit amortization itself — the
/// pacing item of the paper's H2O (1000 warm-up) and Cr2 runs.
fn bench_bo_batched_vs_single_proposal(c: &mut Criterion) {
    const GROUP: &str = "bo_acquisition_48dim_300evals";
    if !filter_matches(GROUP) {
        return;
    }
    let space = SearchSpace::uniform(48, 4);
    let objective = |batch: &[Vec<usize>]| {
        batch
            .iter()
            .map(|cfg| {
                cfg.iter()
                    .enumerate()
                    .map(|(i, &k)| (k as f64 - ((i * 5 + 1) % 4) as f64).powi(2))
                    .sum::<f64>()
            })
            .collect::<Vec<f64>>()
    };
    let run = |proposals: usize| {
        let opts = BoOptions {
            warmup: 100,
            iterations: 200,
            proposals_per_refit: proposals,
            seed: 0xCAF9A,
            ..Default::default()
        };
        minimize(&space, objective, &[], &opts)
    };
    // Warm both arms (keeping the results — the runs are deterministic
    // given the seed), then take the best of 3 passes each so a noisy
    // host cannot flip the comparison.
    let single = run(1);
    let batched = run(4);
    let single_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run(1));
            t.elapsed()
        })
        .min()
        .unwrap();
    let batched_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run(4));
            t.elapsed()
        })
        .min()
        .unwrap();
    assert_eq!(single.history.len(), batched.history.len(), "same evaluation budget");
    let speedup = single_elapsed.as_secs_f64() / batched_elapsed.as_secs_f64();
    record_bench_json(
        "bo_batched_vs_single_proposal_48dim_300evals",
        format!(
            "{{\"single_ms\": {:.3}, \"batched_b4_ms\": {:.3}, \"speedup\": {:.3}, \
             \"single_best\": {:.6}, \"batched_best\": {:.6}}}",
            single_elapsed.as_secs_f64() * 1e3,
            batched_elapsed.as_secs_f64() * 1e3,
            speedup,
            single.best_value,
            batched.best_value
        ),
    );
    // 5 % tolerance for timer/scheduler noise; the measured gap is ~3.5×.
    assert!(
        batched_elapsed.as_secs_f64() <= single_elapsed.as_secs_f64() * 1.05,
        "batched acquisition not faster: {batched_elapsed:?} vs {single_elapsed:?}"
    );

    let mut group = c.benchmark_group(GROUP);
    group.bench_function("single_proposal_per_refit", |b| b.iter(|| black_box(run(1))));
    group.bench_function("batched_top4_per_refit", |b| b.iter(|| black_box(run(4))));
    group.finish();
}

/// A Cr2-shaped objective: 20 qubits, 24 576 distinct Pauli terms — far
/// over the 4096-term sharding threshold, so one candidate evaluation is
/// hundreds of microseconds of term summing (the regime where the
/// intra-candidate dispatch overhead is genuinely negligible, as at the
/// real 10⁵-term Cr2 operating point).
fn cr2_class_objective() -> (EfficientSu2, PauliOp) {
    const TERMS: u64 = 24_576;
    let ansatz = EfficientSu2::new(20, 1);
    let mut seed = 0xC47_u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let hamiltonian = PauliOp::from_terms(
        20,
        (0..TERMS).map(|code| {
            // The 15-bit code is packed into the low x-mask bits so terms
            // are distinct by construction; the remaining bits come from
            // the xorshift stream for coverage of the whole register.
            let x = (code & 0x7FFF) | (next() & 0xF8000);
            let z = next() & 0xFFFFF;
            (Complex64::from(1e-3 * ((code % 53) as f64 + 1.0)), PauliString::from_masks(20, x, z))
        }),
    );
    assert_eq!(hamiltonian.num_terms(), TERMS as usize, "terms must not collide");
    (ansatz, hamiltonian)
}

/// The intra-candidate A/B: term-sharded expectation (chunks of the
/// fixed 8-chunk association dispatched over the pool from inside each
/// evaluation) vs the chunked serial sum, on single-candidate
/// evaluations — the polish/incumbent shape where outer batching cannot
/// help.
///
/// Two separate concerns, handled separately: **bit-identity** is
/// checked on a *forced* 4-worker engine (exercising the real nested
/// dispatch on any host), while the **throughput gate** times a
/// host-fitting pool (`min(4, cores)` workers) so the comparison never
/// oversubscribes the machine — on a 1-core host that degenerates to
/// serial-vs-serial (the same configuration production would pick via
/// `default_workers()`), and on multicore hosts it shows the real
/// parallel speedup. Energies and numbers land in `BENCH_search.json`.
fn bench_term_sharded_vs_chunked_serial(c: &mut Criterion) {
    const GROUP: &str = "term_sharded_expectation_20q_24k_terms";
    if !filter_matches(GROUP) {
        return;
    }
    let (ansatz, hamiltonian) = cr2_class_objective();
    assert!(hamiltonian.num_terms() >= 4096, "must clear the sharding threshold");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timing_workers = host_cores.min(4);
    let serial = CliffordObjective::new(&ansatz, &hamiltonian).with_engine(ExecEngine::serial());
    let sharded =
        CliffordObjective::new(&ansatz, &hamiltonian).with_engine(ExecEngine::new(timing_workers));
    let forced = CliffordObjective::new(&ansatz, &hamiltonian).with_engine(ExecEngine::new(4));
    let configs: Vec<Vec<usize>> = (0..12u64)
        .map(|k| {
            (0..ansatz.num_parameters())
                .map(|i| ((k.wrapping_mul(0x9E37_79B9) >> (2 * (i % 31))) & 3) as usize)
                .collect()
        })
        .collect();
    // Bitwise equality of every energy — through the forced 4-worker
    // nested dispatch AND the host-fitting pool — before any timing.
    let mut scratch_serial = serial.scratch();
    let mut scratch_sharded = sharded.scratch();
    let mut scratch_forced = forced.scratch();
    for config in &configs {
        let reference = serial.evaluate_with(config, &mut scratch_serial);
        let nested = forced.evaluate_with(config, &mut scratch_forced);
        let hostfit = sharded.evaluate_with(config, &mut scratch_sharded);
        assert_eq!(
            reference.energy.to_bits(),
            nested.energy.to_bits(),
            "term-sharded energy mismatch"
        );
        assert_eq!(reference.penalized.to_bits(), nested.penalized.to_bits());
        assert_eq!(reference.energy.to_bits(), hostfit.energy.to_bits());
    }
    // A 1-core host cannot time a parallel speedup: the host-fitting
    // pool degenerates to serial-vs-serial and the recorded ~1.0×
    // number measures nothing. Keep the bit-identity gate above, log
    // the skip, and record no entry — a multicore host supplies the
    // real measurement.
    if host_cores == 1 {
        eprintln!(
            "[{GROUP}] 1-core host: bit-identity checked (forced 4-worker nested dispatch); \
             skipping the serial-vs-serial timing and recording nothing"
        );
        return;
    }
    let run_serial = || {
        let mut scratch = serial.scratch();
        configs.iter().map(|c| serial.evaluate_with(c, &mut scratch).energy).sum::<f64>()
    };
    let run_sharded = || {
        let mut scratch = sharded.scratch();
        configs.iter().map(|c| sharded.evaluate_with(c, &mut scratch).energy).sum::<f64>()
    };
    // Warm both arms, then best of 3 passes each.
    black_box(run_serial());
    black_box(run_sharded());
    let serial_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_serial());
            t.elapsed()
        })
        .min()
        .unwrap();
    let sharded_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_sharded());
            t.elapsed()
        })
        .min()
        .unwrap();
    let speedup = serial_elapsed.as_secs_f64() / sharded_elapsed.as_secs_f64();
    record_bench_json(
        "term_sharded_vs_chunked_serial_20q_24576terms",
        format!(
            "{{\"timing_workers\": {timing_workers}, \"host_cores\": {host_cores}, \
             \"candidates\": {}, \"terms\": 24576, \"chunked_serial_ms\": {:.3}, \
             \"term_sharded_ms\": {:.3}, \"speedup\": {:.3}, \
             \"energies_bit_identical\": true}}",
            configs.len(),
            serial_elapsed.as_secs_f64() * 1e3,
            sharded_elapsed.as_secs_f64() * 1e3,
            speedup
        ),
    );
    // The acceptance gate: at the host-fitting worker count the sharded
    // path must be at least at serial throughput (5 % timer tolerance).
    assert!(
        sharded_elapsed.as_secs_f64() <= serial_elapsed.as_secs_f64() * 1.05,
        "term-sharded slower than chunked serial ({timing_workers} workers, \
         {host_cores} cores): {sharded_elapsed:?} vs {serial_elapsed:?}"
    );

    let mut group = c.benchmark_group(GROUP);
    group.bench_function("chunked_serial", |b| b.iter(|| black_box(run_serial())));
    group.bench_function("term_sharded_hostfit", |b| b.iter(|| black_box(run_sharded())));
    group.finish();
}

/// The lane-blocked kernel A/B: `Tableau::expectation_masks` (4-row
/// lane blocks, branchless parity folds, select-mask phase
/// accumulation) vs the pinned scalar reference
/// (`expectation_masks_scalar`, the pre-refactor loop kept verbatim),
/// at the Cr2-class register width (34 qubits) where the ≥ 10⁵-term
/// sums spend their time. The workload mixes stabilizer-group products
/// (nonzero expectation: the full destabilizer phase fold runs on
/// every call) with uniform random Paulis (almost surely
/// anticommuting: the screen early-exit path). Bit-identity on every
/// mask pair is asserted before timing; numbers land in
/// `BENCH_search.json`. Single-threaded, so the gate is meaningful on
/// any host.
fn bench_lane_blocked_kernel(c: &mut Criterion) {
    const GROUP: &str = "lane_blocked_phase_kernel_34q";
    if !filter_matches(GROUP) {
        return;
    }
    const QUBITS: usize = 34;
    let ansatz = EfficientSu2::new(QUBITS, 1);
    let config: Vec<usize> = (0..ansatz.num_parameters()).map(|i| (i * 5 + 1) % 4).collect();
    let tableau = Tableau::from_circuit(&ansatz.bind_clifford(&config)).unwrap();
    let generators = ReferenceGenerators::from_tableau(&tableau);
    let mut seed = 0x1A9E_u64;
    let mut masks: Vec<(u64, u64)> = (0..192)
        .map(|_| {
            // A random product of stabilizer generators: nonzero
            // expectation, so the phase fold cannot early-exit.
            let mut pick = random_pauli(QUBITS, &mut seed).x_mask() | 1;
            let (mut x, mut z) = (0u64, 0u64);
            for (_, s) in &generators.stabilizers {
                if pick & 1 != 0 {
                    x ^= s.x_mask();
                    z ^= s.z_mask();
                }
                pick >>= 1;
            }
            (x, z)
        })
        .collect();
    masks.extend((0..64).map(|_| {
        let p = random_pauli(QUBITS, &mut seed);
        (p.x_mask(), p.z_mask())
    }));
    assert!(
        masks[..192].iter().all(|&(x, z)| tableau.expectation_masks(x, z) != 0),
        "generator products must take the nonzero phase-fold path"
    );
    // Bit-identity on every mask pair — the frozen-semantics gate.
    for &(x, z) in &masks {
        assert_eq!(
            tableau.expectation_masks(x, z),
            tableau.expectation_masks_scalar(x, z),
            "lane-blocked kernel diverged from the scalar reference"
        );
    }
    const REPS: usize = 64;
    let run_scalar = || {
        let mut acc = 0i32;
        for _ in 0..REPS {
            acc += masks
                .iter()
                .map(|&(x, z)| i32::from(tableau.expectation_masks_scalar(x, z)))
                .sum::<i32>();
        }
        acc
    };
    let run_blocked = || {
        let mut acc = 0i32;
        for _ in 0..REPS {
            acc +=
                masks.iter().map(|&(x, z)| i32::from(tableau.expectation_masks(x, z))).sum::<i32>();
        }
        acc
    };
    assert_eq!(run_scalar(), run_blocked());
    black_box(run_scalar());
    black_box(run_blocked());
    let scalar_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_scalar());
            t.elapsed()
        })
        .min()
        .unwrap();
    let blocked_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_blocked());
            t.elapsed()
        })
        .min()
        .unwrap();
    let speedup = scalar_elapsed.as_secs_f64() / blocked_elapsed.as_secs_f64();
    record_bench_json(
        "lane_blocked_vs_scalar_kernel_34q_256paulis",
        format!(
            "{{\"qubits\": 34, \"paulis\": 256, \"nonzero_paulis\": 192, \"reps\": {REPS}, \
             \"scalar_ms\": {:.3}, \"lane_blocked_ms\": {:.3}, \"speedup\": {:.3}, \
             \"expectations_bit_identical\": true}}",
            scalar_elapsed.as_secs_f64() * 1e3,
            blocked_elapsed.as_secs_f64() * 1e3,
            speedup
        ),
    );
    // The acceptance gate: the lane-blocked kernel must be at least at
    // scalar throughput (5 % timer tolerance).
    assert!(
        blocked_elapsed.as_secs_f64() <= scalar_elapsed.as_secs_f64() * 1.05,
        "lane-blocked kernel slower than scalar: {blocked_elapsed:?} vs {scalar_elapsed:?}"
    );

    let mut group = c.benchmark_group(GROUP);
    group.bench_function("scalar_reference", |b| b.iter(|| black_box(run_scalar())));
    group.bench_function("lane_blocked", |b| b.iter(|| black_box(run_blocked())));
    group.finish();
}

/// A deliberately adversarial polish ansatz: the parameter index order
/// is *reversed* relative to execution order (slot 0 is read by the
/// last rotation layer), so the ascending-slot order of the polish
/// sweeps issues a deep backward seek at every slot-group transition —
/// the access pattern the layered checkpoint stack exists for. Real
/// ansätze hit the same shape whenever a screened pair list revisits
/// parameters that execute late in the circuit.
struct ReversedLayoutAnsatz {
    qubits: usize,
    layers: usize,
}

impl Ansatz for ReversedLayoutAnsatz {
    fn num_qubits(&self) -> usize {
        self.qubits
    }
    fn num_parameters(&self) -> usize {
        self.qubits * self.layers
    }
    fn bind(&self, params: &[f64]) -> cafqa_circuit::Circuit {
        assert_eq!(params.len(), self.num_parameters());
        let mut c = cafqa_circuit::Circuit::new(self.qubits);
        for layer in 0..self.layers {
            for q in 0..self.qubits - 1 {
                c.cx(q, q + 1);
            }
            // Reversed layout: execution layer `layer` reads the slot
            // block counted from the END of the parameter vector.
            let base = (self.layers - 1 - layer) * self.qubits;
            for q in 0..self.qubits {
                c.ry(q, params[base + q]);
            }
        }
        c
    }
}

/// The backward-seek A/B: `PolishSession`, whose prefix cursor restores
/// a layer snapshot on a backward seek, vs a frozen loop of public
/// `Tableau` primitives that rebuilds the prefix from `|0…0⟩` on every
/// backward seek (the pre-stack behavior). The move stream is a
/// screened-pair-sweep shape on the reversed-layout ansatz — two
/// screened pairs whose seek targets sit in the two deepest execution
/// layers, so every sweep issues a deep backward seek. Energies are
/// asserted bit-identical between the two arms AND against full
/// re-preparation, the incremental `polish_on` trace is pinned to the
/// frozen `reference_polish` on the standard 96-dim workload, and the
/// stack must deliver a measured ≥ 1.2× on the sweep. Single-threaded;
/// numbers land in `BENCH_search.json`.
fn bench_backward_seek_polish(c: &mut Criterion) {
    const GROUP: &str = "backward_seek_checkpoint_stack_384dim";
    if !filter_matches(GROUP) {
        return;
    }
    // Frozen-reference gate on the standard workload: the stack-enabled
    // polish endgame (the production default) reproduces the frozen
    // full-re-preparation trace bit for bit.
    {
        let (ansatz, hamiltonian, start) = polish_workload();
        let engine = ExecEngine::serial();
        let objective = CliffordObjective::new(&ansatz, &hamiltonian).with_engine(engine.clone());
        let opts = CafqaOptions { polish_sweeps: 1, ..Default::default() };
        let frozen = reference_polish(&objective, 24, &start, opts.polish_sweeps);
        let incremental = polish_on(&engine, &objective, &start, &opts, &[]);
        assert_eq!(incremental.trace.len(), frozen.trace.len(), "stacked polish trace length");
        for (k, (a, b)) in incremental.trace.iter().zip(&frozen.trace).enumerate() {
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "stacked polish energy at {k}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "stacked polish penalized at {k}");
        }
        assert_eq!(incremental.best_config, frozen.best_config, "stacked polish best_config");
    }
    let ansatz = ReversedLayoutAnsatz { qubits: 12, layers: 32 };
    let mut seed = 0xBEEF_u64;
    let hamiltonian = PauliOp::from_terms(
        12,
        (0..8)
            .map(|i| (Complex64::from(0.05 * ((i % 7) as f64 + 1.0)), random_pauli(12, &mut seed))),
    );
    let objective = CliffordObjective::new(&ansatz, &hamiltonian);
    assert!(objective.is_compiled(), "the reversed-layout ansatz must compile");
    let d = ansatz.num_parameters();
    let start: Vec<usize> = (0..d).map(|i| (i * 3 + 1) % 4).collect();
    // The screened pair list: slots (0, 1) execute in the deepest layer
    // and (12, 13) one layer above it, so the ascending sweep order
    // seeks backward from pair 1's target to pair 2's every sweep.
    let pairs = [(0usize, 1usize), (12, 13)];
    let pair_moves: Vec<Vec<cafqa_core::PolishMove>> = pairs
        .iter()
        .map(|&(i, j)| (0..16).map(|code| vec![(i, code / 4), (j, code % 4)]).collect())
        .collect();
    const SWEEPS: usize = 64;
    let run = || -> (Vec<f64>, (u64, u64)) {
        let mut session =
            objective.polish_session(start.clone()).expect("compiled ansatz has a session");
        let mut values = Vec::new();
        for _ in 0..SWEEPS {
            for moves in &pair_moves {
                values.extend(session.evaluate_moves(moves).iter().map(|v| v.energy));
            }
        }
        (values, session.seek_stats())
    };
    // The frozen rebuild arm: the same seek stream and neighbour replay,
    // with every backward seek re-preparing the prefix from |0…0⟩.
    let template = CompiledAnsatz::compile(&ansatz).expect("the reversed-layout ansatz compiles");
    let terms = SlicedTerms::from_op(&hamiltonian);
    let seek_targets: Vec<usize> =
        pairs.iter().map(|&(i, j)| template.first_op_of(i).min(template.first_op_of(j))).collect();
    let run_rebuild = || -> (Vec<f64>, u64) {
        let mut prefix = Tableau::zero_state(12);
        let mut scratch = prefix.clone();
        let mut prefix_end = 0;
        let mut config = start.clone();
        let mut backward_seeks = 0;
        let mut values = Vec::new();
        for _ in 0..SWEEPS {
            for (moves, &target) in pair_moves.iter().zip(&seek_targets) {
                if target < prefix_end {
                    backward_seeks += 1;
                    prefix.run_compiled_prefix(&template, &start, target);
                } else {
                    prefix.apply_range(&template, &start, prefix_end, target);
                }
                prefix_end = target;
                for mv in moves {
                    for &(slot, value) in mv {
                        config[slot] = value;
                    }
                    scratch.copy_from(&prefix);
                    scratch.apply_from(&template, &config, target);
                    values.push(scratch.expectation_sum(&terms, 0..terms.len()));
                    for &(slot, _) in mv {
                        config[slot] = start[slot];
                    }
                }
            }
        }
        (values, backward_seeks)
    };
    let (stacked_values, stacked_stats) = run();
    let (plain_values, plain_seeks) = run_rebuild();
    // Both arms agree bit for bit, and with full re-preparation.
    assert_eq!(stacked_values.len(), plain_values.len());
    for (k, (a, b)) in stacked_values.iter().zip(&plain_values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "stack changed an energy at move {k}");
    }
    let reprepared: Vec<f64> = pairs
        .iter()
        .flat_map(|&(i, j)| {
            let objective = &objective;
            let start = &start;
            (0..16).map(move |code| {
                let mut config = start.clone();
                config[i] = code / 4;
                config[j] = code % 4;
                objective.evaluate(&config).energy
            })
        })
        .collect();
    for (k, (a, b)) in stacked_values.iter().zip(&reprepared).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "incremental energy diverged at move {k}");
    }
    // The structural claim: every sweep seeks backward once, and every
    // one of those restores a layer checkpoint.
    assert_eq!(stacked_stats.0, SWEEPS as u64, "one backward seek per sweep");
    assert_eq!(stacked_stats.1, SWEEPS as u64, "every backward seek must restore a checkpoint");
    assert_eq!(plain_seeks, stacked_stats.0, "both arms see the same seek stream");
    black_box(run());
    black_box(run_rebuild());
    let stacked_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run());
            t.elapsed()
        })
        .min()
        .unwrap();
    let plain_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_rebuild());
            t.elapsed()
        })
        .min()
        .unwrap();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = plain_elapsed.as_secs_f64() / stacked_elapsed.as_secs_f64();
    record_bench_json(
        "backward_seek_checkpoint_stack_384dim",
        format!(
            "{{\"host_cores\": {host_cores}, \"qubits\": 12, \"layers\": 32, \"dims\": {d}, \
             \"terms\": 8, \"sweeps\": {SWEEPS}, \"pairs\": 2, \"backward_seeks\": {}, \
             \"stack_restores\": {}, \"rebuild_ms\": {:.3}, \"stack_ms\": {:.3}, \
             \"speedup\": {:.3}, \"energies_bit_identical\": true, \
             \"reference_polish_trace_bit_identical\": true}}",
            stacked_stats.0,
            stacked_stats.1,
            plain_elapsed.as_secs_f64() * 1e3,
            stacked_elapsed.as_secs_f64() * 1e3,
            speedup
        ),
    );
    // The acceptance gate: the ISSUE requires a measured ≥ 1.2× on the
    // screened sweep (the observed margin is well above it).
    assert!(
        speedup >= 1.2,
        "checkpoint stack below the 1.2x acceptance bar: {speedup:.3}x \
         ({stacked_elapsed:?} vs {plain_elapsed:?})"
    );

    let mut group = c.benchmark_group(GROUP);
    group.bench_function("rebuild_from_zero", |b| b.iter(|| black_box(run_rebuild())));
    group.bench_function("checkpoint_stack", |b| b.iter(|| black_box(run())));
    group.finish();
}

/// A Cr2-scale objective over the wide-chunk threshold: 20 qubits,
/// 81 920 distinct Pauli terms (the real Cr2 surrogate spans 76k–149k),
/// so every term sum uses the 32-chunk wide association.
fn wide_tier_objective() -> (EfficientSu2, PauliOp) {
    const TERMS: u64 = 81_920;
    let ansatz = EfficientSu2::new(20, 1);
    let mut seed = 0x51DE_u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let hamiltonian = PauliOp::from_terms(
        20,
        (0..TERMS).map(|code| {
            // The 17-bit code fills the low x-mask bits so terms are
            // distinct by construction; the rest of both masks comes
            // from the xorshift stream.
            let x = (code & 0x1_FFFF) | (next() & 0xE_0000);
            let z = next() & 0xF_FFFF;
            (Complex64::from(1e-3 * ((code % 61) as f64 + 1.0)), PauliString::from_masks(20, x, z))
        }),
    );
    assert_eq!(hamiltonian.num_terms(), TERMS as usize, "terms must not collide");
    (ansatz, hamiltonian)
}

/// The wide-chunk tier A/B: the 32-chunk association on a Cr2-scale
/// 81 920-term sum. Three contracts, asserted before any timing:
/// energies are bit-identical across worker counts {2, 4, 8} *within*
/// the tier (the chunk count, not the worker count, fixes the fold);
/// the 32-chunk sum agrees with a manually-folded 8-chunk association
/// of the same per-term expectations to reassociation tolerance; and
/// the per-term sweep (association-free) agrees likewise. Timing
/// records the serial wide-tier evaluation cost on any host and the
/// sharded speedup only on multicore hosts (a 1-core host would time
/// serial-vs-serial, which measures nothing — logged and skipped).
fn bench_wide_chunk_tier(c: &mut Criterion) {
    const GROUP: &str = "wide_chunk_tier_20q_82k_terms";
    if !filter_matches(GROUP) {
        return;
    }
    let (ansatz, hamiltonian) = wide_tier_objective();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timing_workers = host_cores.min(4);
    let serial = CliffordObjective::new(&ansatz, &hamiltonian).with_engine(ExecEngine::serial());
    let configs: Vec<Vec<usize>> = (0..3u64)
        .map(|k| {
            (0..ansatz.num_parameters())
                .map(|i| ((k.wrapping_mul(0x9E37_79B9) >> (2 * (i % 31))) & 3) as usize)
                .collect()
        })
        .collect();
    let expected: Vec<f64> = configs.iter().map(|c| serial.evaluate(c).energy).collect();
    // Bit-identity across worker counts within the wide tier.
    for workers in [2usize, 4, 8] {
        let sharded =
            CliffordObjective::new(&ansatz, &hamiltonian).with_engine(ExecEngine::new(workers));
        for (config, &reference) in configs.iter().zip(&expected) {
            assert_eq!(
                sharded.evaluate(config).energy.to_bits(),
                reference.to_bits(),
                "wide-tier energy must be bit-identical at {workers} workers"
            );
        }
    }
    // Association A/B: fold the same per-term expectations under the
    // legacy 8-chunk association and the association-free per-term
    // sweep; both must agree with the 32-chunk sum to reassociation
    // tolerance (the tiers differ only in float fold order).
    let terms = serial.term_expectations(&configs[0]);
    let chunk = terms.len().div_ceil(8);
    let eight_chunk: f64 =
        terms.chunks(chunk).map(|ch| ch.iter().map(|(_, c, e)| c * *e as f64).sum::<f64>()).sum();
    let per_term: f64 = terms.iter().map(|(_, c, e)| c * *e as f64).sum();
    let scale = expected[0].abs().max(1.0);
    assert!(
        (eight_chunk - expected[0]).abs() <= 1e-9 * scale,
        "8-chunk vs 32-chunk must differ only by reassociation: {eight_chunk} vs {}",
        expected[0]
    );
    assert!(
        (per_term - expected[0]).abs() <= 1e-9 * scale,
        "per-term vs 32-chunk must differ only by reassociation: {per_term} vs {}",
        expected[0]
    );
    // Serial wide-tier evaluation cost: meaningful on any host.
    let run_serial = || configs.iter().map(|c| serial.evaluate(c).energy).sum::<f64>();
    black_box(run_serial());
    let serial_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_serial());
            t.elapsed()
        })
        .min()
        .unwrap();
    if host_cores == 1 {
        eprintln!(
            "[{GROUP}] 1-core host: bit-identity and association contracts checked; \
             skipping the serial-vs-serial sharded timing"
        );
        record_bench_json(
            "wide_chunk_tier_20q_81920terms",
            format!(
                "{{\"qubits\": 20, \"terms\": 81920, \"chunks\": 32, \"host_cores\": 1, \
                 \"candidates\": {}, \"serial_ms\": {:.3}, \
                 \"sharded_timing\": \"skipped_1core\", \
                 \"workers_bit_identical\": [2, 4, 8], \
                 \"eight_chunk_association_delta\": {:.3e}, \
                 \"per_term_association_delta\": {:.3e}}}",
                configs.len(),
                serial_elapsed.as_secs_f64() * 1e3,
                (eight_chunk - expected[0]).abs(),
                (per_term - expected[0]).abs()
            ),
        );
        let mut group = c.benchmark_group(GROUP);
        group.bench_function("serial_32chunk", |b| b.iter(|| black_box(run_serial())));
        group.finish();
        return;
    }
    let sharded =
        CliffordObjective::new(&ansatz, &hamiltonian).with_engine(ExecEngine::new(timing_workers));
    let run_sharded = || configs.iter().map(|c| sharded.evaluate(c).energy).sum::<f64>();
    black_box(run_sharded());
    let sharded_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_sharded());
            t.elapsed()
        })
        .min()
        .unwrap();
    let speedup = serial_elapsed.as_secs_f64() / sharded_elapsed.as_secs_f64();
    record_bench_json(
        "wide_chunk_tier_20q_81920terms",
        format!(
            "{{\"qubits\": 20, \"terms\": 81920, \"chunks\": 32, \
             \"timing_workers\": {timing_workers}, \"host_cores\": {host_cores}, \
             \"candidates\": {}, \"serial_ms\": {:.3}, \"sharded_ms\": {:.3}, \
             \"speedup\": {:.3}, \"workers_bit_identical\": [2, 4, 8], \
             \"eight_chunk_association_delta\": {:.3e}, \
             \"per_term_association_delta\": {:.3e}}}",
            configs.len(),
            serial_elapsed.as_secs_f64() * 1e3,
            sharded_elapsed.as_secs_f64() * 1e3,
            speedup,
            (eight_chunk - expected[0]).abs(),
            (per_term - expected[0]).abs()
        ),
    );
    // The acceptance gate: wider sharding must be at least at serial
    // throughput at the host-fitting worker count (5 % timer tolerance).
    assert!(
        sharded_elapsed.as_secs_f64() <= serial_elapsed.as_secs_f64() * 1.05,
        "wide-chunk sharded slower than serial ({timing_workers} workers, \
         {host_cores} cores): {sharded_elapsed:?} vs {serial_elapsed:?}"
    );

    let mut group = c.benchmark_group(GROUP);
    group.bench_function("serial_32chunk", |b| b.iter(|| black_box(run_serial())));
    group.bench_function("sharded_32chunk", |b| b.iter(|| black_box(run_sharded())));
    group.finish();
}

/// The refit-cost A/B: windowed surrogate refits vs classic full-history
/// refits at an identical evaluation budget. The objective is cheap, so
/// the measured gap is the fit cost itself — the component that
/// otherwise grows linearly with the trace. The no-op window is asserted
/// trace-identical to the classic fit before timing.
fn bench_windowed_vs_full_refit(c: &mut Criterion) {
    const GROUP: &str = "bo_windowed_refit_48dim_500evals";
    if !filter_matches(GROUP) {
        return;
    }
    let space = SearchSpace::uniform(48, 4);
    let objective = |batch: &[Vec<usize>]| {
        batch
            .iter()
            .map(|cfg| {
                cfg.iter()
                    .enumerate()
                    .map(|(i, &k)| (k as f64 - ((i * 5 + 1) % 4) as f64).powi(2))
                    .sum::<f64>()
            })
            .collect::<Vec<f64>>()
    };
    let run = |window: usize| {
        let opts = BoOptions {
            warmup: 100,
            iterations: 400,
            proposals_per_refit: 4,
            seed: 0xCAF9A,
            forest: ForestOptions { window, ..Default::default() },
            ..Default::default()
        };
        minimize(&space, objective, &[], &opts)
    };
    // Determinism gate: a non-binding window is the classic loop, bit
    // for bit, over the whole trace.
    let full = run(0);
    let noop = run(usize::MAX);
    assert_eq!(full.history.len(), noop.history.len(), "no-op window must not change the trace");
    for (a, b) in full.history.iter().zip(&noop.history) {
        assert_eq!(a.config, b.config, "no-op window changed a proposal");
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }
    let windowed = run(64);
    assert_eq!(full.history.len(), windowed.history.len(), "same evaluation budget");
    let full_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run(0));
            t.elapsed()
        })
        .min()
        .unwrap();
    let windowed_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run(64));
            t.elapsed()
        })
        .min()
        .unwrap();
    let speedup = full_elapsed.as_secs_f64() / windowed_elapsed.as_secs_f64();
    record_bench_json(
        "bo_windowed_vs_full_refit_48dim_500evals",
        format!(
            "{{\"window\": 64, \"full_ms\": {:.3}, \"windowed_ms\": {:.3}, \"speedup\": {:.3}, \
             \"full_best\": {:.6}, \"windowed_best\": {:.6}, \"noop_window_bit_identical\": true}}",
            full_elapsed.as_secs_f64() * 1e3,
            windowed_elapsed.as_secs_f64() * 1e3,
            speedup,
            full.best_value,
            windowed.best_value
        ),
    );
    // The refit-cost gate: windowed refits must not be slower (the
    // measured gap is ~2×+ — the fit is the dominant cost here).
    assert!(
        windowed_elapsed.as_secs_f64() <= full_elapsed.as_secs_f64() * 1.05,
        "windowed refits not faster: {windowed_elapsed:?} vs {full_elapsed:?}"
    );

    let mut group = c.benchmark_group(GROUP);
    group.bench_function("full_history_refit", |b| b.iter(|| black_box(run(0))));
    group.bench_function("windowed_64_refit", |b| b.iter(|| black_box(run(64))));
    group.finish();
}

/// A wide-register polish workload: 24 qubits, 96 parameters (over the
/// d = 24 exhaustive-pair threshold, so the sweep uses the local pair
/// list exactly like the 136-parameter Cr2 register) against a
/// 192-term Hamiltonian — the preparation-heavy regime where full
/// re-preparation per neighbor is pure overhead.
fn polish_workload() -> (EfficientSu2, PauliOp, Vec<usize>) {
    let ansatz = EfficientSu2::new(24, 1);
    let mut seed = 0x90115_u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let hamiltonian = PauliOp::from_terms(
        24,
        (0..192u64).map(|i| {
            let x = next() & 0xFF_FFFF;
            let z = next() & 0xFF_FFFF;
            (Complex64::from(5e-3 * ((i % 43) as f64 + 1.0)), PauliString::from_masks(24, x, z))
        }),
    );
    let start: Vec<usize> = (0..ansatz.num_parameters())
        .map(|i| ((0x9E37_79B9u64.wrapping_mul(i as u64 + 1) >> 7) & 3) as usize)
        .collect();
    (ansatz, hamiltonian, start)
}

/// The incremental-polish A/B: prefix-checkpoint + suffix-replay
/// neighbor evaluation (`polish_on`, screen off) vs the frozen
/// full-re-preparation endgame (`reference_polish`), on a 96-dim
/// register. Bit-identity of the full polish trace is asserted on a
/// serial engine AND a forced 4-worker engine before any timing; the
/// throughput gate runs at a host-fitting `min(4, cores)` worker count
/// (as in the PR 4 term-sharded gate), and a screened run
/// (`polish_screen_top = 16`) is timed and sanity-checked (pair subset,
/// final energy never above the start incumbent). Numbers land in
/// `BENCH_search.json`.
fn bench_incremental_polish(c: &mut Criterion) {
    const GROUP: &str = "polish_incremental_96dim";
    if !filter_matches(GROUP) {
        return;
    }
    let (ansatz, hamiltonian, start) = polish_workload();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timing_workers = host_cores.min(4);
    let opts = CafqaOptions { polish_sweeps: 2, ..Default::default() };
    let frozen_objective =
        CliffordObjective::new(&ansatz, &hamiltonian).with_engine(ExecEngine::serial());
    let serial_engine = ExecEngine::serial();
    let serial_objective =
        CliffordObjective::new(&ansatz, &hamiltonian).with_engine(serial_engine.clone());
    let forced_engine = ExecEngine::new(4);
    let forced_objective =
        CliffordObjective::new(&ansatz, &hamiltonian).with_engine(forced_engine.clone());
    let hostfit_engine = ExecEngine::new(timing_workers);
    let hostfit_objective =
        CliffordObjective::new(&ansatz, &hamiltonian).with_engine(hostfit_engine.clone());

    // Bit-identity gate: the incremental endgame reproduces the frozen
    // full-re-preparation trace exactly, serial and through the forced
    // 4-worker nested dispatch, before any timing happens.
    let frozen = reference_polish(&frozen_objective, 24, &start, opts.polish_sweeps);
    for (label, engine, objective) in [
        ("serial", &serial_engine, &serial_objective),
        ("forced-4-workers", &forced_engine, &forced_objective),
    ] {
        let incremental = polish_on(engine, objective, &start, &opts, &[]);
        assert_eq!(incremental.trace.len(), frozen.trace.len(), "{label}: trace length");
        for (k, (a, b)) in incremental.trace.iter().zip(&frozen.trace).enumerate() {
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "{label}: energy at {k}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "{label}: penalized at {k}");
        }
        assert_eq!(incremental.best_config, frozen.best_config, "{label}: best_config");
        assert_eq!(
            incremental.best_value.penalized.to_bits(),
            frozen.best_value.penalized.to_bits(),
            "{label}: best value"
        );
        assert_eq!(incremental.last_accept, frozen.last_accept, "{label}: last accept");
        assert_eq!(incremental.pairs, frozen.pairs, "{label}: unscreened pair list");
    }

    // Screened run: subset pair list, never worse than the incumbent.
    let screened_opts = CafqaOptions { polish_screen_top: 16, ..opts.clone() };
    let history: Vec<(Vec<usize>, f64)> = (0..200u64)
        .map(|k| {
            let config: Vec<usize> = (0..ansatz.num_parameters())
                .map(|i| ((k.wrapping_mul(0x85EB_CA6B) >> (2 * (i % 29))) & 3) as usize)
                .collect();
            let value = frozen_objective.evaluate(&config).penalized;
            (config, value)
        })
        .collect();
    let screened = polish_on(&hostfit_engine, &hostfit_objective, &start, &screened_opts, &history);
    assert_eq!(screened.pairs.len(), 16, "screen must bind");
    assert!(
        screened.pairs.iter().all(|p| frozen.pairs.contains(p)),
        "screened pair list must be a subset of the exhaustive one"
    );
    let incumbent = frozen_objective.evaluate(&start).penalized;
    assert!(
        screened.best_value.penalized <= incumbent + 1e-12,
        "screened polish must never end above the incumbent: {} vs {incumbent}",
        screened.best_value.penalized
    );

    // Timing: frozen full re-preparation vs incremental replay, both at
    // the host-fitting configuration; plus the screened variant.
    let run_frozen = || {
        black_box(reference_polish(&frozen_objective, 24, &start, opts.polish_sweeps).trace.len())
    };
    let run_incremental = || {
        black_box(polish_on(&hostfit_engine, &hostfit_objective, &start, &opts, &[]).trace.len())
    };
    let run_screened = || {
        black_box(
            polish_on(&hostfit_engine, &hostfit_objective, &start, &screened_opts, &history)
                .trace
                .len(),
        )
    };
    black_box(run_frozen());
    black_box(run_incremental());
    black_box(run_screened());
    let time_best_of_3 = |f: &dyn Fn() -> usize| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let frozen_elapsed = time_best_of_3(&run_frozen);
    let incremental_elapsed = time_best_of_3(&run_incremental);
    let screened_elapsed = time_best_of_3(&run_screened);
    let speedup = frozen_elapsed.as_secs_f64() / incremental_elapsed.as_secs_f64();
    let screened_speedup = frozen_elapsed.as_secs_f64() / screened_elapsed.as_secs_f64();
    record_bench_json(
        "polish_incremental_vs_full_reprep_96dim",
        format!(
            "{{\"dims\": 96, \"qubits\": 24, \"terms\": 192, \"timing_workers\": {timing_workers}, \
             \"host_cores\": {host_cores}, \"polish_evals\": {}, \"full_reprep_ms\": {:.3}, \
             \"incremental_ms\": {:.3}, \"speedup\": {:.3}, \"screened_top16_ms\": {:.3}, \
             \"screened_evals\": {}, \"screened_speedup\": {:.3}, \
             \"trace_bit_identical\": true, \"screened_subset\": true}}",
            frozen.trace.len(),
            frozen_elapsed.as_secs_f64() * 1e3,
            incremental_elapsed.as_secs_f64() * 1e3,
            speedup,
            screened_elapsed.as_secs_f64() * 1e3,
            screened.trace.len(),
            screened_speedup
        ),
    );
    // The acceptance gate: incremental replay must be at least at frozen
    // full-re-preparation throughput (5 % timer tolerance).
    assert!(
        incremental_elapsed.as_secs_f64() <= frozen_elapsed.as_secs_f64() * 1.05,
        "incremental polish slower than full re-preparation ({timing_workers} workers, \
         {host_cores} cores): {incremental_elapsed:?} vs {frozen_elapsed:?}"
    );

    let mut group = c.benchmark_group(GROUP);
    group.bench_function("frozen_full_reprep", |b| b.iter(run_frozen));
    group.bench_function("incremental_replay", |b| b.iter(run_incremental));
    group.bench_function("screened_top16", |b| b.iter(run_screened));
    group.finish();
}

/// A Clifford+T objective at the frozen dense oracle's comfort point:
/// 12 qubits, 128 random Pauli terms — wide enough that the dense
/// `2^t`-branch statevector sum is real work, small enough that the
/// dense path still runs (its cap is 24 qubits).
fn kt_class_objective() -> (EfficientSu2, PauliOp) {
    let ansatz = EfficientSu2::new(12, 1);
    let mut seed = 0x2B7_u64;
    let op = PauliOp::from_terms(
        12,
        (0..128).map(|i| {
            (Complex64::from(0.01 * ((i % 29) as f64 + 1.0)), random_pauli(12, &mut seed))
        }),
    );
    (ansatz, op)
}

/// 8-ary configurations with exactly three odd (T-like) entries each —
/// the `2^3 = 8`-branch evaluation shape of a `k_max = 3` search.
fn kt_class_configs(num_parameters: usize) -> Vec<Vec<usize>> {
    (0..8usize)
        .map(|k| {
            let mut config: Vec<usize> = (0..num_parameters)
                .map(|i| {
                    let code = (k as u64 + 1).wrapping_mul(0x9E37_79B9) >> (2 * (i % 23));
                    2 * (code & 3) as usize
                })
                .collect();
            for (slot, j) in [k, 16 + k, 32 + k].into_iter().enumerate() {
                config[j % num_parameters] = 2 * ((k + slot) % 4) + 1;
            }
            config
        })
        .collect()
}

/// The branch-evaluator A/B: the tableau-backed [`BranchEnsemble`]
/// (one tableau + `t` frame Paulis, cross terms via phase-sensitive
/// stabilizer inner products) vs the frozen dense [`CliffordTState`]
/// branch sum, on per-candidate Clifford+T evaluations at 12 qubits and
/// `t = 3`. Agreement to 1e-10 is asserted on every candidate before
/// any timing; numbers land in `BENCH_search.json`.
fn bench_kt_tableau_vs_dense(c: &mut Criterion) {
    const GROUP: &str = "kt_branch_evaluator_12q_t3";
    if !filter_matches(GROUP) {
        return;
    }
    let (ansatz, hamiltonian) = kt_class_objective();
    let configs = kt_class_configs(ansatz.num_parameters());
    // Exact agreement of the two backends on every candidate — the
    // ensemble must reproduce the dense branch sum, cross terms and
    // branch phases included.
    for config in &configs {
        assert_eq!(cafqa_core::t_count_of(config), 3);
        let circuit = ansatz.bind_eighth(config);
        let dense = CliffordTState::from_circuit(&circuit).unwrap();
        let ensemble = BranchEnsemble::from_circuit(&circuit).unwrap();
        let d = dense.expectation(&hamiltonian);
        let e = ensemble.expectation(&hamiltonian);
        assert!((d - e).abs() < 1e-10, "dense {d} vs ensemble {e}");
    }
    let run_dense = || {
        configs
            .iter()
            .map(|config| {
                let circuit = ansatz.bind_eighth(config);
                CliffordTState::from_circuit(&circuit).unwrap().expectation(&hamiltonian)
            })
            .sum::<f64>()
    };
    let run_ensemble = || {
        configs
            .iter()
            .map(|config| {
                let circuit = ansatz.bind_eighth(config);
                BranchEnsemble::from_circuit(&circuit).unwrap().expectation(&hamiltonian)
            })
            .sum::<f64>()
    };
    black_box(run_dense());
    black_box(run_ensemble());
    let dense_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_dense());
            t.elapsed()
        })
        .min()
        .unwrap();
    let ensemble_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_ensemble());
            t.elapsed()
        })
        .min()
        .unwrap();
    let speedup = dense_elapsed.as_secs_f64() / ensemble_elapsed.as_secs_f64();
    record_bench_json(
        "kt_tableau_vs_dense_12q_t3_128terms",
        format!(
            "{{\"qubits\": 12, \"t\": 3, \"terms\": 128, \"candidates\": {}, \
             \"dense_ms\": {:.3}, \"ensemble_ms\": {:.3}, \"speedup\": {:.3}, \
             \"agreement\": \"1e-10\"}}",
            configs.len(),
            dense_elapsed.as_secs_f64() * 1e3,
            ensemble_elapsed.as_secs_f64() * 1e3,
            speedup
        ),
    );
    // The acceptance gate: the ensemble evaluator must be at least at
    // dense-branch throughput where both can run (5 % timer tolerance) —
    // beyond 24 qubits only the ensemble runs at all.
    assert!(
        ensemble_elapsed.as_secs_f64() <= dense_elapsed.as_secs_f64() * 1.05,
        "branch ensemble slower than dense branch sum: \
         {ensemble_elapsed:?} vs {dense_elapsed:?}"
    );

    let mut group = c.benchmark_group(GROUP);
    group.bench_function("old_dense_branch_sum", |b| b.iter(|| black_box(run_dense())));
    group.bench_function("new_tableau_ensemble", |b| b.iter(|| black_box(run_ensemble())));
    group.finish();
}

/// The search-tier A/B: the ported CAFQA+kT search (feasible-by-
/// construction genome space, engine-batched tableau-ensemble
/// evaluation, 8-ary polish endgame) vs the frozen classic loop (8-ary
/// uniform space with `1e6` rejection constants, serial dense
/// evaluation, no polish) at the same BO budget and seed. Records the
/// feasible/rejected split of both sides and asserts the new tier
/// wastes no evaluations and ends at least as low as the frozen search.
fn bench_kt_engine_vs_reference(c: &mut Criterion) {
    const GROUP: &str = "kt_search_engine_vs_reference_12q";
    if !filter_matches(GROUP) {
        return;
    }
    const K_MAX: usize = 2;
    let (ansatz, hamiltonian) = kt_class_objective();
    let seed_config: Vec<usize> = (0..ansatz.num_parameters()).map(|i| (i * 3 + 2) % 4).collect();
    let seeds = vec![widen_clifford_config(&seed_config)];
    let opts = CafqaOptions { warmup: 30, iterations: 40, polish_sweeps: 1, ..Default::default() };
    let engine = ExecEngine::new(4);
    let run_reference = || reference_kt(&ansatz, &hamiltonian, &[], K_MAX, &seeds, &opts);
    let run_engine = || {
        run_cafqa_kt_on(&engine, &ansatz, &hamiltonian, vec![], K_MAX, &seeds, &opts)
            .expect("budget within branch-engine limits")
    };
    let reference = run_reference();
    let engine_result = run_engine();
    // The structural claim of the port: the genome space never proposes
    // an over-budget candidate, while the frozen uniform space burns
    // most of its budget on `1e6`-rejected samples at this `d`/`k_max`.
    assert_eq!(engine_result.rejected_evaluations, 0, "genome space must be feasible");
    assert!(
        reference.rejected_evaluations > 0,
        "frozen loop should reject over-budget samples at d = 48, k_max = 2"
    );
    assert!(engine_result.t_count <= K_MAX);
    // Same seed, strictly feasible search + polish endgame: the ported
    // tier must end at least as low as the frozen rejection-sampling
    // loop (both runs are deterministic at this seed).
    assert!(
        engine_result.energy <= reference.energy + 1e-9,
        "ported kT search worse than frozen loop: {} vs {}",
        engine_result.energy,
        reference.energy
    );
    let reference_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_reference());
            t.elapsed()
        })
        .min()
        .unwrap();
    let engine_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_engine());
            t.elapsed()
        })
        .min()
        .unwrap();
    let speedup = reference_elapsed.as_secs_f64() / engine_elapsed.as_secs_f64();
    record_bench_json(
        "kt_engine_vs_reference_12q_48dim_kmax2",
        format!(
            "{{\"qubits\": 12, \"dims\": 48, \"k_max\": {K_MAX}, \"terms\": 128, \
             \"reference_ms\": {:.3}, \"engine_ms\": {:.3}, \"speedup\": {:.3}, \
             \"reference_energy\": {:.6}, \"engine_energy\": {:.6}, \
             \"reference_feasible\": {}, \"reference_rejected\": {}, \
             \"engine_feasible\": {}, \"engine_rejected\": 0, \
             \"engine_polish_evals\": {}}}",
            reference_elapsed.as_secs_f64() * 1e3,
            engine_elapsed.as_secs_f64() * 1e3,
            speedup,
            reference.energy,
            engine_result.energy,
            reference.evaluations - reference.rejected_evaluations,
            reference.rejected_evaluations,
            engine_result.feasible_evaluations,
            engine_result.polish_evaluations
        ),
    );

    let mut group = c.benchmark_group(GROUP);
    group.bench_function("old_dense_rejection_loop", |b| b.iter(|| black_box(run_reference())));
    group.bench_function("new_branch_engine_tier", |b| b.iter(|| black_box(run_engine())));
    group.finish();
}

/// A Clifford+T objective with *tiered* coefficient weights (heavy,
/// mid, light, feather), the workload shape screening is built for: the
/// per-term tolerance `tol / |w|` prunes nearly every cross-term class
/// of the feather tiers while leaving the heavy tier exact.
fn kt_screened_objective() -> (EfficientSu2, PauliOp) {
    let ansatz = EfficientSu2::new(12, 1);
    let mut seed = 0x5C4EE_u64;
    let tier = [0.15, 0.01, 1e-3, 1e-4];
    let op = PauliOp::from_terms(
        12,
        (0..192).map(|i| {
            let c = tier[i % 4] * ((i % 7) as f64 + 1.0);
            (Complex64::from(c), random_pauli(12, &mut seed))
        }),
    );
    (ansatz, op)
}

/// 8-ary configurations with exactly `t` odd (branching) entries each —
/// the `2^t`-branch evaluation shape of a `k_max = t` search endgame.
fn kt_screened_configs(num_parameters: usize, t: usize, count: usize) -> Vec<Vec<usize>> {
    (0..count)
        .map(|s| {
            let mut config: Vec<usize> =
                (0..num_parameters).map(|i| 2 * ((s.wrapping_mul(31) + i * 7) % 4)).collect();
            for j in 0..t {
                let slot = (s.wrapping_mul(13) + j * 5) % num_parameters;
                config[(slot + j) % num_parameters] |= 1;
            }
            config
        })
        .collect()
}

/// The screened-pair-sum A/B: `screen_tolerance = 2e-3` vs the exact
/// `screen_tolerance = 0` evaluator on the same candidates, at 12
/// qubits and `t = 4..=6`. Before any timing, every screened candidate
/// is asserted within the configured tolerance of its exact energy, the
/// skipped-class counters are asserted nonzero and their fraction
/// *growing* with `t` (the quadratic-Clifford bounds `2^{-ν/2}` shrink
/// as classes get heavier, so deeper branch spaces screen harder).
/// The throughput gate holds at `t = 4` — the screening advantage is
/// algorithmic (fewer class sums), not parallelism, so it applies on
/// any host — and the growing advantage with `t` is recorded in
/// `BENCH_search.json`.
fn bench_kt_screened_vs_exact(c: &mut Criterion) {
    const GROUP: &str = "kt_screened_vs_exact_12q";
    if !filter_matches(GROUP) {
        return;
    }
    const EPS: f64 = 2e-3;
    const CANDIDATES: usize = 12;
    let (ansatz, hamiltonian) = kt_screened_objective();
    let d = ansatz.num_parameters();
    let engine = ExecEngine::new(4);
    let mut exact_ms = Vec::new();
    let mut screened_ms = Vec::new();
    let mut speedups = Vec::new();
    let mut skip_fractions: Vec<f64> = Vec::new();
    let mut drifts = Vec::new();
    let mut t4_gate = None;
    for t in 4..=6usize {
        let configs = kt_screened_configs(d, t, CANDIDATES);
        for config in &configs {
            assert_eq!(cafqa_core::t_count_of(config), t);
        }
        let mut exact =
            kt_session(&engine, &ansatz, &hamiltonian, &[], 0.0).expect("template compiles");
        let mut screened =
            kt_session(&engine, &ansatz, &hamiltonian, &[], EPS).expect("template compiles");
        let ev = exact.evaluate_batch(&configs);
        let sv = screened.evaluate_batch(&configs);
        assert_eq!(exact.skipped_classes(), 0, "tol = 0 must never skip");
        let skipped = screened.skipped_classes();
        assert!(skipped > 0, "tolerance {EPS} never fired at t = {t}");
        // Every candidate within the configured tolerance of exact.
        let mut max_drift = 0.0f64;
        for (e, s) in ev.iter().zip(&sv) {
            let drift = (e.energy - s.energy).abs();
            assert!(
                drift <= EPS,
                "t = {t}: screened {} vs exact {} beyond {EPS}",
                s.energy,
                e.energy
            );
            max_drift = max_drift.max(drift);
        }
        // Skipped fraction of all (candidate, term, class) triples —
        // must grow with t as class weights ν climb.
        let total = (CANDIDATES * hamiltonian.num_terms() * (1 << t)) as f64;
        let fraction = skipped as f64 / total;
        if let Some(prev) = skip_fractions.last() {
            assert!(
                fraction > *prev,
                "skip fraction must grow with t: {fraction:.4} at t = {t} vs {prev:.4}"
            );
        }
        let time_best3 = |session: &mut KtPolishSession| {
            black_box(session.evaluate_batch(&configs)); // warm
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(session.evaluate_batch(&configs));
                    t0.elapsed()
                })
                .min()
                .unwrap()
        };
        let exact_elapsed = time_best3(&mut exact);
        let screened_elapsed = time_best3(&mut screened);
        if t == 4 {
            t4_gate = Some((exact_elapsed, screened_elapsed));
        }
        exact_ms.push(format!("{:.3}", exact_elapsed.as_secs_f64() * 1e3));
        screened_ms.push(format!("{:.3}", screened_elapsed.as_secs_f64() * 1e3));
        speedups
            .push(format!("{:.3}", exact_elapsed.as_secs_f64() / screened_elapsed.as_secs_f64()));
        skip_fractions.push(fraction);
        drifts.push(format!("{max_drift:.3e}"));
    }
    record_bench_json(
        "kt_screened_vs_exact_12q_t4to6_192terms",
        format!(
            "{{\"qubits\": 12, \"terms\": 192, \"candidates\": {CANDIDATES}, \
             \"tolerance\": {EPS}, \"t\": [4, 5, 6], \"exact_ms\": [{}], \
             \"screened_ms\": [{}], \"speedup\": [{}], \"skip_fraction\": [{}], \
             \"max_drift\": [{}], \"within_tolerance\": true}}",
            exact_ms.join(", "),
            screened_ms.join(", "),
            speedups.join(", "),
            skip_fractions.iter().map(|f| format!("{f:.4}")).collect::<Vec<_>>().join(", "),
            drifts.join(", ")
        ),
    );
    // The acceptance gate: screened evaluation must be at least at exact
    // throughput already at t = 4 (5 % timer tolerance) — the advantage
    // then grows with t, which the recorded speedups show.
    let (exact_t4, screened_t4) = t4_gate.unwrap();
    assert!(
        screened_t4.as_secs_f64() <= exact_t4.as_secs_f64() * 1.05,
        "screened evaluation slower than exact at t = 4: {screened_t4:?} vs {exact_t4:?}"
    );

    let configs = kt_screened_configs(d, 6, CANDIDATES);
    let mut exact =
        kt_session(&engine, &ansatz, &hamiltonian, &[], 0.0).expect("template compiles");
    let mut screened =
        kt_session(&engine, &ansatz, &hamiltonian, &[], EPS).expect("template compiles");
    let mut group = c.benchmark_group(GROUP);
    group.bench_function("exact_t6", |b| b.iter(|| black_box(exact.evaluate_batch(&configs))));
    group
        .bench_function("screened_t6", |b| b.iter(|| black_box(screened.evaluate_batch(&configs))));
    group.finish();
}

/// The serving-shape instance pool for the Ising throughput A/B:
/// 16–24-vertex MaxCut across all four generator families (sparse and
/// dense Erdős–Rényi, structured rings, complete, weighted), each an
/// `EfficientSu2(n, 1)` instance exactly as a service would submit it.
fn ising_instance_pool() -> Vec<IsingInstance> {
    let graphs = [
        Graph::random(16, 0.4, 101),
        Graph::random(20, 0.3, 103),
        Graph::random(24, 0.25, 107),
        Graph::ring(18),
        Graph::ring(24),
        Graph::complete(16),
        Graph::random_weighted(20, 0.35, 109),
        Graph::random_weighted(24, 0.3, 113),
    ];
    graphs
        .into_iter()
        .map(|g| IsingInstance::new(EfficientSu2::new(g.n, 1), maxcut_hamiltonian(&g)))
        .collect()
}

fn assert_cafqa_results_bitwise(a: &CafqaResult, b: &CafqaResult, what: &str) {
    assert_eq!(a.best_config, b.best_config, "{what}: best_config");
    assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "{what}: energy");
    assert_eq!(a.penalized.to_bits(), b.penalized.to_bits(), "{what}: penalized");
    assert_eq!(a.evaluations, b.evaluations, "{what}: evaluations");
    assert_eq!(a.iterations_to_best, b.iterations_to_best, "{what}: iterations_to_best");
    assert_eq!(a.trace.len(), b.trace.len(), "{what}: trace length");
    for (i, (x, y)) in a.trace.iter().zip(&b.trace).enumerate() {
        assert_eq!(x.energy.to_bits(), y.energy.to_bits(), "{what}: trace[{i}].energy");
        assert_eq!(x.penalized.to_bits(), y.penalized.to_bits(), "{what}: trace[{i}].penalized");
    }
}

/// The Ising fast path vs the full BO pipeline on a 16–24-vertex MaxCut
/// batch — the per-instance *throughput* asymmetry a high-traffic
/// service would serve, both arms through the same
/// [`solve_ising_batch_on`] serving layer on the same engine, differing
/// only in [`CafqaOptions::ising_fast_path`] (`Auto` vs `Off`).
///
/// Asserted before any timing: the fast path routes every instance in
/// one evaluation and its energy is ≤ the full-BO energy per instance;
/// the routed batch is bit-identical at worker counts {1, 2, 8}; and a
/// non-Ising instance under `Auto` is bit-identical to the unrouted
/// path. The timing gate requires ≥ 100× instance throughput; both
/// arms' instances/second land in `BENCH_search.json`.
fn bench_ising_fast_path(c: &mut Criterion) {
    const GROUP: &str = "ising_fast_path_vs_bo";
    if !filter_matches(GROUP) {
        return;
    }
    let engine = ExecEngine::from_env();
    let instances = ising_instance_pool();
    // A modest-but-honest full-pipeline budget: warm-up + BO + one
    // polish round (coordinate and pair sweeps) per instance.
    let bo_opts = CafqaOptions {
        warmup: 60,
        iterations: 120,
        polish_sweeps: 1,
        ising_fast_path: IsingFastPath::Off,
        ..Default::default()
    };
    let fast_opts = CafqaOptions { ising_fast_path: IsingFastPath::Auto, ..bo_opts.clone() };

    // Warm both arms and keep the results (deterministic given the seed).
    let fast = solve_ising_batch_on(&engine, &instances, &fast_opts);
    let bo = solve_ising_batch_on(&engine, &instances, &bo_opts);
    for (i, (f, b)) in fast.iter().zip(&bo).enumerate() {
        assert_eq!(f.evaluations, 1, "instance {i} must route in one evaluation");
        assert!(
            f.energy <= b.energy + 1e-9,
            "instance {i}: fast path {} worse than BO {}",
            f.energy,
            b.energy
        );
    }
    // Worker invariance of the routed batch: a pure throughput knob.
    let reference = solve_ising_batch_on(&ExecEngine::new(1), &instances, &fast_opts);
    for workers in [2usize, 8] {
        let routed = solve_ising_batch_on(&ExecEngine::new(workers), &instances, &fast_opts);
        for (i, (r, s)) in reference.iter().zip(&routed).enumerate() {
            assert_cafqa_results_bitwise(r, s, &format!("instance {i} at {workers} workers"));
        }
    }
    // Non-Ising inputs are untouched by the hook: Auto == Off bitwise.
    {
        let h: PauliOp = "0.5*XX + 0.25*ZZ - 0.1*YI + 0.7*IZ".parse().expect("mixed-axis op");
        let ansatz = EfficientSu2::new(2, 1);
        let tiny = CafqaOptions { warmup: 10, iterations: 15, polish_sweeps: 1, ..bo_opts.clone() };
        let auto = CafqaOptions { ising_fast_path: IsingFastPath::Auto, ..tiny.clone() };
        let routed = run_cafqa_on(&engine, &ansatz, &h, vec![], &[], &auto);
        let unrouted = run_cafqa_on(&engine, &ansatz, &h, vec![], &[], &tiny);
        assert_cafqa_results_bitwise(&routed, &unrouted, "non-Ising fallback");
    }

    // Raw throughput, best of 3 batch passes per arm.
    let fast_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(solve_ising_batch_on(&engine, &instances, &fast_opts));
            t.elapsed()
        })
        .min()
        .unwrap();
    let bo_elapsed = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(solve_ising_batch_on(&engine, &instances, &bo_opts));
            t.elapsed()
        })
        .min()
        .unwrap();
    let count = instances.len() as f64;
    let fast_per_s = count / fast_elapsed.as_secs_f64();
    let bo_per_s = count / bo_elapsed.as_secs_f64();
    let speedup = bo_elapsed.as_secs_f64() / fast_elapsed.as_secs_f64();
    record_bench_json(
        "ising_fast_path_vs_bo_16to24v_8instances",
        format!(
            "{{\"instances\": {}, \"vertices\": \"16-24\", \"workers\": {}, \
             \"fast_ms\": {:.3}, \"bo_ms\": {:.3}, \"fast_instances_per_s\": {:.1}, \
             \"bo_instances_per_s\": {:.3}, \"speedup\": {:.1}, \
             \"fast_never_worse\": true, \"batch_bit_identical_workers_1_2_8\": true, \
             \"non_ising_bit_identical\": true}}",
            instances.len(),
            engine.workers(),
            fast_elapsed.as_secs_f64() * 1e3,
            bo_elapsed.as_secs_f64() * 1e3,
            fast_per_s,
            bo_per_s,
            speedup,
        ),
    );
    // The headline gate: the routed batch serves ≥ 100× the instance
    // throughput of the full pipeline (measured gaps are far larger).
    assert!(
        speedup >= 100.0,
        "fast path only {speedup:.1}× the BO route: {fast_elapsed:?} vs {bo_elapsed:?}"
    );

    let single_bo = vec![instances[0].clone()];
    let mut group = c.benchmark_group(GROUP);
    group.bench_function("fast_path_batch8", |b| {
        b.iter(|| black_box(solve_ising_batch_on(&engine, &instances, &fast_opts)))
    });
    group.bench_function("full_bo_single_16v", |b| {
        b.iter(|| black_box(solve_ising_batch_on(&engine, &single_bo, &bo_opts)))
    });
    group.finish();
}

/// The job server's slicing overhead: jobs on an idle server, sliced at
/// `slice_batches` ∈ {1, 4} (4 is the default), against the same jobs
/// through [`run_cafqa_on`] — 6 qubits, 24 parameters, a non-Ising
/// Hamiltonian, default [`CafqaOptions`], serial engine. Served jobs keep
/// their search state in memory between slices, so the only extra work
/// per slice is rebuilding the objective.
///
/// Each round runs one fresh BO seed through all three arms, back to
/// back, so host-speed drift hits every arm alike; each served arm keeps
/// one long-lived server across rounds, as a deployment would. Every
/// served result is asserted bit-identical to its solo run. The gate
/// requires the median per-round served/solo ratio ≤ 1.1× at both slice
/// sizes; the numbers land in `BENCH_search.json`.
fn bench_served_sliced_vs_solo(_: &mut Criterion) {
    const GROUP: &str = "served_sliced_vs_solo";
    const ROUNDS: u64 = 7;
    if !filter_matches(GROUP) {
        return;
    }
    let ansatz = EfficientSu2::new(6, 1);
    let mut seed = 0x5E_4BE5_u64;
    let mut hamiltonian = PauliOp::zero(6);
    for k in 0..24 {
        let coefficient = 0.1 + 0.05 * ((k * 7) % 11) as f64;
        hamiltonian.add_term(Complex64::from(coefficient), random_pauli(6, &mut seed));
    }
    assert!(classify_ising(&hamiltonian).is_none(), "the workload must run the BO search");
    let engine = ExecEngine::serial();
    let opts_for = |round: u64| CafqaOptions { seed: 0xCAF9A + round, ..Default::default() };
    let solo = |opts: &CafqaOptions| {
        let t = Instant::now();
        let result = run_cafqa_on(&engine, &ansatz, &hamiltonian, vec![], &[], opts);
        (result, t.elapsed())
    };
    let mut servers: Vec<CafqaServer> = [1usize, 4]
        .into_iter()
        .map(|slice_batches| {
            let serve_opts =
                ServeOptions { slice_batches, warm_start: false, ..Default::default() };
            CafqaServer::start(engine.clone(), serve_opts)
        })
        .collect();
    let serve = |server: &CafqaServer, opts: &CafqaOptions| {
        let spec = JobSpec::new(ansatz.clone(), hamiltonian.clone(), opts.clone());
        let t = Instant::now();
        let outcome = server.submit(spec).and_then(|id| server.wait(id)).expect("job completes");
        (outcome.result, t.elapsed())
    };
    // Round 0 warms every arm up and is not timed.
    let (mut solo_ms, mut served_ms) = (Vec::new(), [Vec::new(), Vec::new()]);
    let mut ratios = [Vec::new(), Vec::new()];
    let mut evaluations = 0;
    for round in 0..=ROUNDS {
        let opts = opts_for(round);
        let (reference, solo_elapsed) = solo(&opts);
        evaluations = reference.evaluations;
        for (arm, server) in servers.iter().enumerate() {
            let (result, elapsed) = serve(server, &opts);
            assert_cafqa_results_bitwise(&result, &reference, &format!("round {round}, arm {arm}"));
            if round > 0 {
                served_ms[arm].push(elapsed.as_secs_f64() * 1e3);
                ratios[arm].push(elapsed.as_secs_f64() / solo_elapsed.as_secs_f64());
            }
        }
        if round > 0 {
            solo_ms.push(solo_elapsed.as_secs_f64() * 1e3);
        }
    }
    let slices_per_job: Vec<u64> =
        servers.iter().map(|server| server.stats().slices / (ROUNDS + 1)).collect();
    for server in &mut servers {
        server.shutdown();
    }
    let median = |values: &mut Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    let ratio_1 = median(&mut ratios[0]);
    let ratio_4 = median(&mut ratios[1]);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    record_bench_json(
        "served_sliced_vs_solo_6q_24dim",
        format!(
            "{{\"host_cores\": {host_cores}, \"workers\": 1, \"rounds\": {ROUNDS}, \
             \"evaluations\": {evaluations}, \"solo_ms\": {:.3}, \"served_slice1_ms\": {:.3}, \
             \"served_slice4_ms\": {:.3}, \"ratio_slice1\": {ratio_1:.3}, \
             \"ratio_slice4\": {ratio_4:.3}, \"slices_per_job_slice1\": {}, \
             \"slices_per_job_slice4\": {}, \"bit_identical\": true}}",
            median(&mut solo_ms),
            median(&mut served_ms[0]),
            median(&mut served_ms[1]),
            slices_per_job[0],
            slices_per_job[1],
        ),
    );
    assert!(ratio_1 <= 1.1, "1 step/slice costs {ratio_1:.3}× solo (median of {ROUNDS})");
    assert!(ratio_4 <= 1.1, "4 steps/slice cost {ratio_4:.3}× solo (median of {ROUNDS})");
}

/// The Hamiltonian builder A/B on the 34-qubit Cr2 surrogate at 2.85 Å
/// (the stretched bond the Cr2 bond sweep and fig12 `--quick` run):
/// `qubit_hamiltonian` (precomputed mask-form pair products, in-place
/// chunk accumulation, reused scratch maps) vs the frozen
/// `reference_qubit_hamiltonian` (a `PauliOp` clone and a fresh product
/// map per `(r, s)` term), both in the parity encoding `pipe.problem`
/// uses.
///
/// Rounds alternate the two builders so host-speed drift hits both
/// alike; the first round warms up and is not timed. Every round asserts
/// the same term list and bit-identical coefficients. The gate requires
/// a median speedup ≥ 4×; the numbers land in `BENCH_search.json`.
fn bench_hamiltonian_build_cr2(_: &mut Criterion) {
    const GROUP: &str = "hamiltonian_build_cr2_34q";
    const ROUNDS: usize = 3;
    if !filter_matches(GROUP) {
        return;
    }
    let pipe = ChemPipeline::build(MoleculeKind::Cr2Surrogate, 2.85, &ScfKind::Rhf)
        .expect("Cr2 surrogate chemistry");
    let si = &pipe.spin_integrals;
    let time = |build: &dyn Fn() -> PauliOp| {
        let t = Instant::now();
        let h = build();
        (h, t.elapsed().as_secs_f64())
    };
    let (mut new_s, mut reference_s) = (Vec::new(), Vec::new());
    let mut terms = 0;
    for round in 0..=ROUNDS {
        let (built, built_s) = time(&|| qubit_hamiltonian(si, Mapping::Parity));
        let (reference, ref_s) = time(&|| reference_qubit_hamiltonian(si, Mapping::Parity));
        if let Err(diff) = bitwise_diff(&built, &reference) {
            panic!("round {round}: {diff}");
        }
        terms = built.num_terms();
        if round > 0 {
            new_s.push(built_s);
            reference_s.push(ref_s);
        }
    }
    let median = |values: &mut Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    let (new_s, reference_s) = (median(&mut new_s), median(&mut reference_s));
    let speedup = reference_s / new_s;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    record_bench_json(
        GROUP,
        format!(
            "{{\"host_cores\": {host_cores}, \"bond_angstrom\": 2.85, \"mapping\": \"parity\", \
             \"rounds\": {ROUNDS}, \"terms\": {terms}, \"new_s\": {new_s:.3}, \
             \"reference_s\": {reference_s:.3}, \"speedup\": {speedup:.2}, \
             \"bit_identical\": true}}"
        ),
    );
    println!(
        "{GROUP}: {terms} terms, new {new_s:.3} s vs reference {reference_s:.3} s \
         ({speedup:.2}x, median of {ROUNDS}), bit-identical"
    );
    assert!(speedup >= 4.0, "new builder only {speedup:.2}x the reference (gate 4x)");
}

/// The surrogate-refit A/B at H2O scale: `RandomForest::fit` on a
/// 2-worker engine (column-major features, reused buffers, trees grown
/// as engine jobs from their own RNG streams) vs the frozen serial,
/// row-major `reference_forest_fit`, both with the default 24-tree
/// options, on a 1000-sample history of 48 four-valued parameters
/// (H2O's register at the end of its BO budget).
///
/// Rounds alternate the two fits so host-speed drift hits both alike;
/// the first round warms up and is not timed. Every round asserts
/// `to_bits`-equal predictions on a probe pool and the same RNG state
/// after the fit. On a host with at least 2 cores the gate requires a
/// median speedup ≥ 1.3×; a 1-core host cannot run the two workers at
/// once, so it checks bit-identity, logs the skip and records no
/// timing. The numbers land in `BENCH_search.json`.
fn bench_forest_fit_h2o(_: &mut Criterion) {
    const GROUP: &str = "forest_fit_h2o_48dim_1000";
    const ROUNDS: usize = 9;
    const FITS_PER_ROUND: u64 = 4;
    const WORKERS: usize = 2;
    if !filter_matches(GROUP) {
        return;
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine = ExecEngine::new(WORKERS);
    let (n, d) = (1000, 48);
    let mut rng = StdRng::seed_from_u64(0x48D1);
    let xs: Vec<Vec<usize>> =
        (0..n).map(|_| (0..d).map(|_| rng.gen_range(0..4usize)).collect()).collect();
    // An energy-like landscape: a per-parameter preferred angle plus a
    // pair coupling, quantized so that exact ties occur.
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            let field: f64 = x.iter().enumerate().map(|(i, &k)| f64::from(k == i % 4)).sum();
            let coupling: f64 = x.windows(2).map(|w| f64::from(w[0] == w[1])).sum();
            -75.0 - 0.25 * field + 0.125 * coupling
        })
        .collect();
    let probes: Vec<Vec<usize>> =
        (0..256).map(|_| (0..d).map(|_| rng.gen_range(0..4usize)).collect()).collect();
    let cards = vec![4usize; d];
    let opts = ForestOptions::default();
    let rounds = if host_cores >= 2 { ROUNDS } else { 0 };
    let (mut new_s, mut reference_s) = (Vec::new(), Vec::new());
    for round in 0..=rounds {
        let seed = 0xF0 + round as u64;
        let t = Instant::now();
        let mut fits = Vec::new();
        for fit in 0..FITS_PER_ROUND {
            let mut rng = StdRng::seed_from_u64(seed + 1000 * fit);
            let forest = RandomForest::fit(&xs, &ys, &cards, &opts, &mut rng, &engine);
            fits.push((forest, rng.next_u64()));
        }
        let fit_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut references = Vec::new();
        for fit in 0..FITS_PER_ROUND {
            let mut rng = StdRng::seed_from_u64(seed + 1000 * fit);
            let forest = reference_forest_fit(&xs, &ys, &cards, &opts, &mut rng);
            references.push((forest, rng.next_u64()));
        }
        let ref_s = t.elapsed().as_secs_f64();
        for ((forest, next), (reference, reference_next)) in fits.iter().zip(&references) {
            assert_eq!(next, reference_next, "round {round}: RNG state diverged after the fit");
            for probe in &probes {
                assert_eq!(
                    forest.predict(probe).to_bits(),
                    reference.predict(probe).to_bits(),
                    "round {round}: prediction differs at {probe:?}"
                );
            }
        }
        if round > 0 {
            new_s.push(fit_s / FITS_PER_ROUND as f64);
            reference_s.push(ref_s / FITS_PER_ROUND as f64);
        }
    }
    if host_cores == 1 {
        eprintln!(
            "[{GROUP}] 1-core host: bit-identity checked on the {WORKERS}-worker engine; \
             skipping the timing and recording nothing"
        );
        return;
    }
    let median = |values: &mut Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };
    let (new_s, reference_s) = (median(&mut new_s), median(&mut reference_s));
    let speedup = reference_s / new_s;
    record_bench_json(
        GROUP,
        format!(
            "{{\"host_cores\": {host_cores}, \"workers\": {WORKERS}, \"samples\": {n}, \
             \"dims\": {d}, \"cardinality\": 4, \"n_trees\": {}, \"rounds\": {ROUNDS}, \
             \"new_s\": {new_s:.5}, \"reference_s\": {reference_s:.5}, \
             \"speedup\": {speedup:.2}, \"bit_identical\": true}}",
            opts.n_trees
        ),
    );
    println!(
        "{GROUP}: new {:.2} ms ({WORKERS} workers) vs reference {:.2} ms per fit \
         ({speedup:.2}x, median of {ROUNDS}), bit-identical",
        new_s * 1e3,
        reference_s * 1e3
    );
    assert!(speedup >= 1.3, "new fit only {speedup:.2}x the reference (gate 1.3x)");
}

/// The Hamiltonian-sum A/B on polish-neighbour tableaus: the bit-sliced
/// `Tableau::expectation_sum` (64 terms screened per stabilizer pass,
/// survivors folded in term order) vs the row-wise sum it replaced (one
/// `expectation_pauli` per term over a `(PauliString, f64)` list,
/// folded by `Iterator::sum`), for H6 at 1.5 Å (10 qubits) and the Cr2
/// surrogate at 3.8 Å (34 qubits).
///
/// The tableaus are the HF configuration with one or two rotation slots
/// changed, the states a polish sweep evaluates. Rounds alternate the two
/// sums so host-speed drift hits both alike; the first round warms up
/// and is not timed. Every round asserts `to_bits`-equal sums on every
/// tableau. The gates require a median speedup ≥ 1.8× at H6 scale and
/// ≥ 3× at Cr2 scale; the numbers land in `BENCH_search.json`.
fn bench_sliced_vs_rowwise_sum(_: &mut Criterion) {
    const GROUP: &str = "sliced_vs_rowwise_sum";
    const ROUNDS: usize = 7;
    const NEIGHBOURS: usize = 32;
    if !filter_matches(GROUP) {
        return;
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cases = [
        (MoleculeKind::H6, 1.5, "h6_1.5A", 1.8, 40),
        (MoleculeKind::Cr2Surrogate, 3.8, "cr2_3.8A", 3.0, 1),
    ];
    for (kind, bond, label, gate, passes) in cases {
        let pipe = ChemPipeline::build(kind, bond, &ScfKind::Rhf).expect("catalog chemistry");
        let (na, nb) = pipe.default_sector();
        let runner = MolecularCafqa::new(pipe.problem(na, nb, false).expect("catalog problem"));
        let hamiltonian = &runner.problem().hamiltonian;
        let template = CompiledAnsatz::compile(&runner.ansatz).expect("EfficientSU2 compiles");
        let hf = runner.hf_config();
        let mut rng = StdRng::seed_from_u64(0x511CE);
        let tableaus: Vec<Tableau> = (0..NEIGHBOURS)
            .map(|k| {
                let mut config = hf.clone();
                for _ in 0..1 + k % 2 {
                    let slot = rng.gen_range(0..config.len());
                    config[slot] = (config[slot] + rng.gen_range(1..4usize)) % 4;
                }
                let mut t = Tableau::zero_state(hamiltonian.num_qubits());
                t.run_compiled(&template, &config);
                t
            })
            .collect();
        let rows: Vec<(PauliString, f64)> = hamiltonian.iter().map(|(p, c)| (*p, c.re)).collect();
        let sliced = SlicedTerms::from_op(hamiltonian);
        let survivors = tableaus
            .iter()
            .map(|t| rows.iter().filter(|(p, _)| t.expectation_pauli(p) != 0).count())
            .sum::<usize>() as f64
            / (NEIGHBOURS * rows.len()) as f64;
        let rowwise = |t: &Tableau| -> f64 {
            rows.iter().map(|(p, c)| c * f64::from(t.expectation_pauli(p))).sum()
        };
        let time = |sum: &dyn Fn(&Tableau) -> f64| {
            let start = Instant::now();
            let mut out = Vec::with_capacity(NEIGHBOURS);
            for _ in 0..passes {
                out.clear();
                out.extend(tableaus.iter().map(|t| black_box(sum(black_box(t)))));
            }
            (out, start.elapsed().as_secs_f64() / (passes * NEIGHBOURS) as f64)
        };
        let (mut sliced_s, mut rowwise_s) = (Vec::new(), Vec::new());
        for round in 0..=ROUNDS {
            let (fast, fast_s) = time(&|t| t.expectation_sum(&sliced, 0..sliced.len()));
            let (slow, slow_s) = time(&rowwise);
            for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{label} round {round} tableau {k}: {a} vs {b}"
                );
            }
            if round > 0 {
                sliced_s.push(fast_s);
                rowwise_s.push(slow_s);
            }
        }
        let median = |values: &mut Vec<f64>| {
            values.sort_by(f64::total_cmp);
            values[values.len() / 2]
        };
        let (sliced_s, rowwise_s) = (median(&mut sliced_s), median(&mut rowwise_s));
        let speedup = rowwise_s / sliced_s;
        record_bench_json(
            &format!("{GROUP}_{label}"),
            format!(
                "{{\"host_cores\": {host_cores}, \"qubits\": {}, \"terms\": {}, \
                 \"neighbours\": {NEIGHBOURS}, \"rounds\": {ROUNDS}, \
                 \"survivor_frac\": {survivors:.4}, \"sliced_us\": {:.2}, \
                 \"rowwise_us\": {:.2}, \"speedup\": {speedup:.2}, \"gate\": {gate}, \
                 \"bit_identical\": true}}",
                hamiltonian.num_qubits(),
                rows.len(),
                sliced_s * 1e6,
                rowwise_s * 1e6
            ),
        );
        println!(
            "{GROUP} {label}: {} terms, {:.1}% survive; sliced {:.2} us vs row-wise {:.2} us \
             per sum ({speedup:.2}x, median of {ROUNDS}), bit-identical",
            rows.len(),
            100.0 * survivors,
            sliced_s * 1e6,
            rowwise_s * 1e6
        );
        assert!(speedup >= gate, "{label}: sliced sum only {speedup:.2}x row-wise (gate {gate}x)");
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = search;
    config = config();
    targets = bench_expectation_kernel, bench_candidate_evaluation,
              bench_h2_candidate_evaluation, bench_h2_oracle,
              bench_h2o_pooled_vs_spawn, bench_bo_batched_vs_single_proposal,
              bench_term_sharded_vs_chunked_serial, bench_lane_blocked_kernel,
              bench_backward_seek_polish, bench_wide_chunk_tier,
              bench_windowed_vs_full_refit,
              bench_incremental_polish, bench_kt_tableau_vs_dense,
              bench_kt_engine_vs_reference, bench_kt_screened_vs_exact,
              bench_ising_fast_path, bench_served_sliced_vs_solo,
              bench_hamiltonian_build_cr2, bench_forest_fit_h2o,
              bench_sliced_vs_rowwise_sum
}
criterion_main!(search);
