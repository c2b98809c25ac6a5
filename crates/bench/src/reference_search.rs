//! Frozen pre-refactor search baselines.
//!
//! PR 3 replaced the per-batch `thread::scope` spawns with a persistent
//! worker-pool engine and rebuilt `bayesopt::minimize` around a batch
//! objective. The refactor's contract is *bit-identical results*: at
//! `proposals_per_refit = 1` the new loop must reproduce the classic
//! one-candidate-per-refit trajectory exactly, at any worker count. This
//! module freezes the classic implementations — the serial BO loop, the
//! spawn-per-batch evaluation, and the full serial CAFQA runner — so the
//! equivalence tests and the pooled-vs-spawn benchmarks always have the
//! genuine pre-refactor semantics to compare against, no matter how the
//! production code evolves.
//!
//! The surrogate is the frozen serial [`reference_forest_fit`] (v2:
//! per-tree RNG streams and weighted bootstrap rows), so the search
//! equivalence tests pin the production forest against it end to end. Everything else goes through the *public* API of the
//! production crates (`evaluate`), relying on the already-tested
//! invariant that batched evaluation equals serial evaluation
//! bit-for-bit.

use std::collections::HashSet;

use cafqa_bayesopt::{BoOptions, BoResult, Evaluation};
use cafqa_circuit::Ansatz;
use cafqa_core::{
    CafqaOptions, CafqaResult, CliffordObjective, ObjectiveValue, Penalty, SearchPoint,
};
use cafqa_pauli::PauliOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::reference_forest::{reference_forest_fit, ReferenceForest};

/// Frozen copy of the classic uniform sample over a discrete space
/// (identical RNG draw order to `SearchSpace::sample`).
fn sample(cardinalities: &[usize], rng: &mut StdRng) -> Vec<usize> {
    cardinalities.iter().map(|&c| rng.gen_range(0..c)).collect()
}

/// Frozen copy of the classic incumbent mutation (identical RNG draw
/// order to `SearchSpace::mutate`).
fn mutate(
    cardinalities: &[usize],
    base: &[usize],
    rng: &mut StdRng,
    max_changes: usize,
) -> Vec<usize> {
    let mut out = base.to_vec();
    let changes = rng.gen_range(1..=max_changes.max(1));
    for _ in 0..changes {
        let i = rng.gen_range(0..out.len());
        out[i] = rng.gen_range(0..cardinalities[i]);
    }
    out
}

/// The pre-refactor `bayesopt::minimize`, frozen: one candidate proposed
/// per surrogate refit, per-configuration objective, fully serial.
/// `opts.proposals_per_refit` is ignored (the classic loop predates it);
/// every other option keeps its classic meaning.
pub fn reference_minimize(
    cardinalities: &[usize],
    mut objective: impl FnMut(&[usize]) -> f64,
    seeds: &[Vec<usize>],
    opts: &BoOptions,
) -> BoResult {
    let dims = cardinalities.len();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut xs: Vec<Vec<usize>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut history: Vec<Evaluation> = Vec::new();
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    let mut best = f64::INFINITY;
    let mut best_config: Vec<usize> = Vec::new();
    let mut iterations_to_best = 0usize;
    let mut stale = 0usize;

    macro_rules! evaluate {
        ($config:expr) => {{
            let config: Vec<usize> = $config;
            let value = objective(&config);
            if value < best - 1e-15 {
                best = value;
                best_config = config.clone();
                iterations_to_best = history.len() + 1;
            }
            seen.insert(config.clone());
            history.push(Evaluation { config: config.clone(), value, best_so_far: best });
            xs.push(config);
            ys.push(value);
        }};
    }

    for seed in seeds {
        assert_eq!(seed.len(), dims, "seed dimensionality mismatch");
        evaluate!(seed.clone());
    }
    for _ in 0..opts.warmup {
        let c = sample(cardinalities, &mut rng);
        evaluate!(c);
    }

    let mut forest: Option<ReferenceForest> = None;
    for it in 0..opts.iterations {
        let pick = if xs.is_empty() {
            sample(cardinalities, &mut rng)
        } else {
            if forest.is_none() || it % opts.refit_every.max(1) == 0 {
                forest =
                    Some(reference_forest_fit(&xs, &ys, cardinalities, &opts.forest, &mut rng));
            }
            let model = forest.as_ref().expect("fitted above");
            let mut pool: Vec<Vec<usize>> = Vec::with_capacity(opts.candidates);
            let mut order: Vec<usize> = (0..ys.len()).filter(|&i| !ys[i].is_nan()).collect();
            order.sort_by(|&a, &b| ys[a].total_cmp(&ys[b]));
            if !order.is_empty() {
                let n_mut = (opts.candidates / 2).max(1);
                for k in 0..n_mut {
                    let base = &xs[order[k % opts.top_k.min(order.len()).max(1)]];
                    pool.push(mutate(cardinalities, base, &mut rng, 3));
                }
            }
            while pool.len() < opts.candidates {
                pool.push(sample(cardinalities, &mut rng));
            }
            if rng.gen::<f64>() < opts.epsilon {
                pool[rng.gen_range(0..pool.len())].clone()
            } else {
                let predictions = model.predict_batch(&pool);
                pool.iter()
                    .zip(&predictions)
                    .filter(|(c, p)| !seen.contains(*c) && !p.is_nan())
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c.clone())
                    .unwrap_or_else(|| sample(cardinalities, &mut rng))
            }
        };
        let prev_best = best;
        evaluate!(pick);
        if opts.patience > 0 {
            if prev_best - best > opts.patience_tol {
                stale = 0;
            } else {
                stale += 1;
                if stale >= opts.patience {
                    break;
                }
            }
        }
    }

    BoResult { best_config, best_value: best, history, iterations_to_best }
}

/// The pre-refactor batched candidate evaluation, frozen: a fresh
/// `thread::scope` spawn per batch, one scratch per spawned worker, shard
/// results written in input order — exactly what
/// `CliffordObjective::evaluate_batch_with_workers` did before the
/// persistent engine. This is the spawn-overhead baseline of the
/// pooled-vs-spawn benchmark.
pub fn reference_evaluate_batch_spawn(
    objective: &CliffordObjective<'_>,
    configs: &[Vec<usize>],
    workers: usize,
) -> Vec<ObjectiveValue> {
    let zero = ObjectiveValue { energy: 0.0, penalized: 0.0 };
    let mut out = vec![zero; configs.len()];
    let workers = workers.min(configs.len());
    if workers <= 1 {
        let mut scratch = objective.scratch();
        for (config, slot) in configs.iter().zip(out.iter_mut()) {
            *slot = objective.evaluate_with(config, &mut scratch);
        }
        return out;
    }
    let chunk = configs.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (config_chunk, out_chunk) in configs.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                let mut scratch = objective.scratch();
                for (config, slot) in config_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = objective.evaluate_with(config, &mut scratch);
                }
            });
        }
    });
    out
}

/// The pre-refactor CAFQA runner, frozen: [`reference_minimize`] for the
/// search phase (serial, one candidate per refit) and fully serial polish
/// sweeps with the classic greedy fold. `opts.proposals_per_refit` is
/// ignored, like the classic runner that predates it.
pub fn reference_run_cafqa(
    ansatz: &dyn Ansatz,
    hamiltonian: &PauliOp,
    penalties: Vec<Penalty>,
    seeds: &[Vec<usize>],
    opts: &CafqaOptions,
) -> CafqaResult {
    let mut objective = CliffordObjective::new(ansatz, hamiltonian);
    for p in penalties {
        objective = objective.with_penalty(p);
    }
    let dims = objective.num_parameters();
    let cardinalities = vec![4usize; dims];
    let mut raw_trace: Vec<(f64, f64)> = Vec::new();
    let bo_opts = BoOptions {
        warmup: opts.warmup,
        iterations: opts.iterations,
        seed: opts.seed,
        patience: opts.patience,
        ..Default::default()
    };
    let mut scratch = objective.scratch();
    let result = reference_minimize(
        &cardinalities,
        |config| {
            let v = objective.evaluate_with(config, &mut scratch);
            raw_trace.push((v.energy, v.penalized));
            v.penalized
        },
        seeds,
        &bo_opts,
    );
    let mut best_config = result.best_config;
    let mut best_value = objective.evaluate(&best_config);
    let mut iterations_to_best = result.iterations_to_best;
    let bo_evaluations = raw_trace.len();
    let polish_clock = std::time::Instant::now();
    for _sweep in 0..opts.polish_sweeps {
        let mut improved = false;
        for i in 0..best_config.len() {
            let current = best_config[i];
            let candidates: Vec<Vec<usize>> = (0..4)
                .filter(|&v| v != current)
                .map(|v| {
                    let mut candidate = best_config.clone();
                    candidate[i] = v;
                    candidate
                })
                .collect();
            for candidate in candidates {
                let value = objective.evaluate_with(&candidate, &mut scratch);
                raw_trace.push((value.energy, value.penalized));
                if value.penalized < best_value.penalized - 1e-12 {
                    best_config = candidate;
                    best_value = value;
                    iterations_to_best = raw_trace.len();
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    if opts.polish_sweeps > 0 {
        let d = best_config.len();
        let nq = ansatz.num_qubits();
        let pairs: Vec<(usize, usize)> = if d <= 24 {
            (0..d).flat_map(|i| ((i + 1)..d).map(move |j| (i, j))).collect()
        } else {
            let offsets = [1, 2, nq / 2, nq / 2 + 1, nq.saturating_sub(1), nq, nq + 1, 2 * nq];
            let mut out = Vec::new();
            for i in 0..d {
                for &off in &offsets {
                    if off > 0 && i + off < d {
                        out.push((i, i + off));
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        };
        let sweeps = if d <= 24 { 3 } else { 2 };
        for _sweep in 0..sweeps {
            let mut improved = false;
            for &(i, j) in &pairs {
                let candidates: Vec<Vec<usize>> = (0..16)
                    .map(|code| {
                        let mut candidate = best_config.clone();
                        candidate[i] = code / 4;
                        candidate[j] = code % 4;
                        candidate
                    })
                    .collect();
                for candidate in candidates {
                    if candidate[i] == best_config[i] && candidate[j] == best_config[j] {
                        continue;
                    }
                    let value = objective.evaluate_with(&candidate, &mut scratch);
                    raw_trace.push((value.energy, value.penalized));
                    if value.penalized < best_value.penalized - 1e-12 {
                        best_config = candidate;
                        best_value = value;
                        iterations_to_best = raw_trace.len();
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }
    let polish_seconds = polish_clock.elapsed().as_secs_f64();
    let mut best = f64::INFINITY;
    let trace: Vec<SearchPoint> = raw_trace
        .iter()
        .map(|&(energy, penalized)| {
            best = best.min(penalized);
            SearchPoint { energy, penalized, best_so_far: best }
        })
        .collect();
    CafqaResult {
        best_config,
        energy: best_value.energy,
        penalized: best_value.penalized,
        evaluations: trace.len(),
        iterations_to_best,
        polish_evaluations: trace.len() - bo_evaluations,
        bo_seconds: 0.0,
        polish_seconds,
        polish_seek_stats: (0, 0),
        trace,
    }
}

/// The outcome of the frozen [`reference_polish`] endgame, mirroring
/// `cafqa_core::PolishOutcome` field-for-field so the incremental-polish
/// A/B can assert bitwise trace identity.
pub struct ReferencePolishOutcome {
    /// The polished configuration.
    pub best_config: Vec<usize>,
    /// Its objective value.
    pub best_value: ObjectiveValue,
    /// `(raw energy, penalized)` per polish evaluation, in fold order.
    pub trace: Vec<(f64, f64)>,
    /// 1-based index into `trace` of the final accepted improvement.
    pub last_accept: Option<usize>,
    /// The (always exhaustive/local, never screened) pair list swept.
    pub pairs: Vec<(usize, usize)>,
}

/// The pre-incremental polish endgame, frozen: every candidate is
/// re-prepared from scratch (`reset_zero` + full compiled replay inside
/// `evaluate_with`), the pair list is never screened, and the greedy
/// fold runs fully serially — exactly the polish phase of
/// [`reference_run_cafqa`], exposed standalone so the incremental-polish
/// A/B benchmark can time just the endgame. Pass an objective with a
/// serial (or no) engine to keep the baseline genuinely serial.
pub fn reference_polish(
    objective: &CliffordObjective<'_>,
    num_qubits: usize,
    start: &[usize],
    polish_sweeps: usize,
) -> ReferencePolishOutcome {
    let mut scratch = objective.scratch();
    let mut best_config = start.to_vec();
    let mut best_value = objective.evaluate(&best_config);
    let mut trace: Vec<(f64, f64)> = Vec::new();
    let mut last_accept: Option<usize> = None;
    for _sweep in 0..polish_sweeps {
        let mut improved = false;
        for i in 0..best_config.len() {
            let current = best_config[i];
            let candidates: Vec<Vec<usize>> = (0..4)
                .filter(|&v| v != current)
                .map(|v| {
                    let mut candidate = best_config.clone();
                    candidate[i] = v;
                    candidate
                })
                .collect();
            for candidate in candidates {
                let value = objective.evaluate_with(&candidate, &mut scratch);
                trace.push((value.energy, value.penalized));
                if value.penalized < best_value.penalized - 1e-12 {
                    best_config = candidate;
                    best_value = value;
                    last_accept = Some(trace.len());
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    if polish_sweeps > 0 {
        let d = best_config.len();
        let nq = num_qubits;
        pairs = if d <= 24 {
            (0..d).flat_map(|i| ((i + 1)..d).map(move |j| (i, j))).collect()
        } else {
            let offsets = [1, 2, nq / 2, nq / 2 + 1, nq.saturating_sub(1), nq, nq + 1, 2 * nq];
            let mut out = Vec::new();
            for i in 0..d {
                for &off in &offsets {
                    if off > 0 && i + off < d {
                        out.push((i, i + off));
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        };
        let sweeps = if d <= 24 { 3 } else { 2 };
        for _sweep in 0..sweeps {
            let mut improved = false;
            for &(i, j) in &pairs {
                let candidates: Vec<Vec<usize>> = (0..16)
                    .map(|code| {
                        let mut candidate = best_config.clone();
                        candidate[i] = code / 4;
                        candidate[j] = code % 4;
                        candidate
                    })
                    .collect();
                for candidate in candidates {
                    if candidate[i] == best_config[i] && candidate[j] == best_config[j] {
                        continue;
                    }
                    let value = objective.evaluate_with(&candidate, &mut scratch);
                    trace.push((value.energy, value.penalized));
                    if value.penalized < best_value.penalized - 1e-12 {
                        best_config = candidate;
                        best_value = value;
                        last_accept = Some(trace.len());
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }
    ReferencePolishOutcome { best_config, best_value, trace, last_accept, pairs }
}
