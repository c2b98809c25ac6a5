//! The Bayesian-optimization minimization loop (paper §5 / Fig. 7).
//!
//! Warm-up: uniform random sampling of the discrete space (the paper uses
//! 1000 warm-up iterations for H2O), evaluated as **one batch** — warm-up
//! samples are independent given the seed, so they parallelize perfectly.
//! Search: fit the random-forest surrogate on everything evaluated so
//! far, score a candidate pool (uniform samples + coordinate mutations of
//! the incumbents), and evaluate the **top-B** predicted candidates per
//! refit (ε-greedy per proposal for exploration). `B` is
//! [`BoOptions::proposals_per_refit`]; at `B = 1` the trajectory is
//! exactly the classic one-candidate-per-refit loop, while larger `B`
//! amortizes the surrogate refit — the dominant cost at H2O/Cr2 scale —
//! over several objective evaluations.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::exec::{Executor, SerialExec};
use crate::forest::{ForestOptions, RandomForest};

/// The discrete search space: parameter `i` takes values
/// `0..cardinalities[i]` (CAFQA: 4 Clifford angles per parameter).
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Per-parameter value counts.
    pub cardinalities: Vec<usize>,
}

impl SearchSpace {
    /// A uniform space of `dims` parameters with `card` values each.
    pub fn uniform(dims: usize, card: usize) -> Self {
        SearchSpace { cardinalities: vec![card; dims] }
    }

    /// Number of parameters.
    pub fn dims(&self) -> usize {
        self.cardinalities.len()
    }

    /// log₂ of the space size (the paper's `O(4^#params)`).
    pub fn log2_size(&self) -> f64 {
        self.cardinalities.iter().map(|&c| (c as f64).log2()).sum()
    }

    fn sample(&self, rng: &mut impl Rng) -> Vec<usize> {
        self.cardinalities.iter().map(|&c| rng.gen_range(0..c)).collect()
    }

    fn mutate(&self, base: &[usize], rng: &mut impl Rng, max_changes: usize) -> Vec<usize> {
        let mut out = base.to_vec();
        let changes = rng.gen_range(1..=max_changes.max(1));
        for _ in 0..changes {
            let i = rng.gen_range(0..out.len());
            out[i] = rng.gen_range(0..self.cardinalities[i]);
        }
        out
    }
}

/// Options for [`minimize`] and [`BoSearch`].
///
/// # Determinism and refit cadence
///
/// Three knobs govern how often (and on how much data) the surrogate is
/// refit, and they compose — this section is the single source of truth
/// for their interaction:
///
/// - [`refit_every`](Self::refit_every): a refit happens every
///   `refit_every` acquisition **cycles**; stale cycles reuse the forest
///   but still rebuild and re-score a fresh candidate pool.
/// - [`proposals_per_refit`](Self::proposals_per_refit) (`B`): each
///   cycle proposes and evaluates the top-`B` unseen candidates, so one
///   fit amortizes over `refit_every · B` objective evaluations.
/// - [`ForestOptions::window`](crate::ForestOptions::window) (via
///   [`forest`](Self::forest)): each fit trains on only the `window`
///   most recent evaluations plus the incumbent, capping the fit cost
///   itself — without it, refits grow `O(history)` no matter how rarely
///   they happen.
///
/// The determinism contract, in decreasing strictness:
///
/// 1. **Every** configuration is deterministic given
///    [`seed`](Self::seed): the same options and objective produce the
///    same trace, bit for bit, on any host — and executor width never
///    matters. [`minimize_with`] shards only independent work and
///    reassembles it in submission order: per-candidate predictions,
///    and the forest's trees, each grown from its own RNG stream seeded
///    by one draw of the search RNG per tree (see
///    [`RandomForest::fit`]). Driving a [`BoSearch`] by hand is the same
///    loop, so it is bit-identical too, however long the caller pauses
///    between batches.
/// 2. `B = 1` reproduces the classic one-candidate-per-refit loop
///    exactly (same RNG draws, same `min_by` tie-breaks, same
///    `refit_every` staleness).
/// 3. `window = 0` — or any `window >=` the current history length —
///    reproduces the full-history fit bit-for-bit on the same RNG
///    stream (window selection draws no randomness).
///
/// Changing `B`, `refit_every` or a *binding* `window` changes which
/// candidates are proposed (a different-but-still-deterministic
/// trajectory); they trade surrogate freshness for refit cost, they do
/// not trade away reproducibility.
#[derive(Debug, Clone)]
pub struct BoOptions {
    /// Random warm-up evaluations before the surrogate turns on.
    pub warmup: usize,
    /// Surrogate-guided iterations (objective evaluations) after warm-up.
    pub iterations: usize,
    /// Candidate-pool size per acquisition cycle.
    pub candidates: usize,
    /// Number of incumbent configurations to mutate into the pool.
    pub top_k: usize,
    /// ε-greedy exploration probability (drawn per proposal).
    pub epsilon: f64,
    /// Refit the surrogate every `refit_every` acquisition cycles
    /// (1 = every cycle). Stale cycles still rebuild and score the
    /// *current* candidate pool — only the forest is reused.
    pub refit_every: usize,
    /// Proposals evaluated per acquisition cycle (the paper-scale knob):
    /// the acquisition ranks the pool once and takes the best `B` unseen
    /// candidates, so one surrogate refit amortizes over `B` objective
    /// evaluations. `1` reproduces the classic loop exactly. The default
    /// is 4; at H2O scale an evaluation costs tens of microseconds and a
    /// refit milliseconds, so even at 4 the refit and acquisition take
    /// ~97 % of the loop's wall time (a traced `perfbench` `h2o_sweep`
    /// on 2 cores, trees grown on both: 6.0 ms per refit, 8.1 s of
    /// surrogate work against 0.22 s of objective).
    pub proposals_per_refit: usize,
    /// Random-forest options, including the refit
    /// [`window`](ForestOptions::window) (see the [determinism and refit
    /// cadence](Self#determinism-and-refit-cadence) notes).
    pub forest: ForestOptions,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// Stop early when the best value has not improved by more than
    /// `patience_tol` for `patience` consecutive evaluations (0 disables).
    pub patience: usize,
    /// Improvement tolerance for the patience counter.
    pub patience_tol: f64,
}

impl Default for BoOptions {
    fn default() -> Self {
        BoOptions {
            warmup: 200,
            iterations: 300,
            candidates: 96,
            top_k: 5,
            epsilon: 0.05,
            refit_every: 1,
            proposals_per_refit: 4,
            forest: ForestOptions::default(),
            seed: 0xCAF9A,
            patience: 0,
            patience_tol: 1e-10,
        }
    }
}

/// One evaluated point.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The configuration.
    pub config: Vec<usize>,
    /// Its objective value.
    pub value: f64,
    /// Best value seen up to and including this evaluation.
    pub best_so_far: f64,
}

/// The outcome of a [`minimize`] run.
#[derive(Debug, Clone)]
pub struct BoResult {
    /// The best configuration found.
    pub best_config: Vec<usize>,
    /// Its objective value.
    pub best_value: f64,
    /// Every evaluation in order (warm-up included) — this is the trace
    /// plotted in the paper's Fig. 7.
    pub history: Vec<Evaluation>,
    /// Index (1-based) of the evaluation that first achieved the final
    /// best value — the paper's Fig. 15 metric.
    pub iterations_to_best: usize,
}

/// Minimizes a black-box **batch** objective over a discrete space.
///
/// The objective receives a slice of configurations and must return one
/// value per configuration, in order — the seam that lets the CAFQA
/// runner evaluate whole warm-up phases and acquisition batches on its
/// worker-pool engine. `seeds` are evaluated first (CAFQA seeds the
/// Hartree-Fock configuration, guaranteeing the result is never worse
/// than HF). The surrogate runs serially; use [`minimize_with`] to
/// shard its fit and scoring over an [`Executor`].
///
/// # Examples
///
/// ```
/// use cafqa_bayesopt::{minimize, BoOptions, SearchSpace};
///
/// // Minimize the Hamming distance to a hidden target.
/// let target = [3usize, 1, 0, 2, 3, 0];
/// let space = SearchSpace::uniform(6, 4);
/// let opts = BoOptions { warmup: 40, iterations: 120, ..Default::default() };
/// let result = minimize(
///     &space,
///     |batch| {
///         batch
///             .iter()
///             .map(|c| c.iter().zip(&target).filter(|(a, b)| a != b).count() as f64)
///             .collect()
///     },
///     &[],
///     &opts,
/// );
/// assert_eq!(result.best_value, 0.0);
/// ```
pub fn minimize(
    space: &SearchSpace,
    objective: impl FnMut(&[Vec<usize>]) -> Vec<f64>,
    seeds: &[Vec<usize>],
    opts: &BoOptions,
) -> BoResult {
    minimize_with(space, objective, seeds, opts, &SerialExec)
}

/// [`minimize`] with surrogate fitting and scoring sharded over `exec`
/// (the CAFQA runner passes its persistent worker-pool engine). The
/// trajectory is bit-identical to [`minimize`] at any executor width:
/// trees grow from their own RNG streams and predictions are independent
/// per candidate, and both are reassembled in order. This is a short
/// loop over [`BoSearch`].
pub fn minimize_with(
    space: &SearchSpace,
    mut objective: impl FnMut(&[Vec<usize>]) -> Vec<f64>,
    seeds: &[Vec<usize>],
    opts: &BoOptions,
    exec: &dyn Executor,
) -> BoResult {
    let mut search = BoSearch::new(space, seeds, opts);
    while let Some(batch) = search.propose(exec) {
        let values = objective(batch);
        search.observe(&values);
    }
    search.finish()
}

/// The BO loop as an ask/tell state machine: [`propose`](Self::propose)
/// the next batch, evaluate it however and whenever the caller likes,
/// [`observe`](Self::observe) the values, repeat until `propose` returns
/// `None`, then [`finish`](Self::finish).
///
/// The search owns all of its state (RNG cursor, history, surrogate,
/// budget and patience counters) and borrows nothing, so a caller can
/// park it between batches at no cost — the job server's fair-share
/// slicing simply stops stepping a job. Driving it by hand with the same
/// values is bit-identical to [`minimize_with`], which is exactly such a
/// loop.
///
/// # Examples
///
/// ```
/// use cafqa_bayesopt::{BoOptions, BoSearch, SearchSpace, SerialExec};
///
/// let space = SearchSpace::uniform(4, 4);
/// let opts = BoOptions { warmup: 20, iterations: 40, ..Default::default() };
/// let mut search = BoSearch::new(&space, &[], &opts);
/// while let Some(batch) = search.propose(&SerialExec) {
///     let values: Vec<f64> = batch.iter().map(|c| c.iter().sum::<usize>() as f64).collect();
///     search.observe(&values);
/// }
/// assert_eq!(search.finish().best_value, 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct BoSearch {
    space: SearchSpace,
    opts: BoOptions,
    rng: StdRng,
    /// Every evaluated configuration and its value, in fold order.
    xs: Vec<Vec<usize>>,
    ys: Vec<f64>,
    /// The best value so far after each evaluation.
    bests: Vec<f64>,
    seen: HashSet<Vec<usize>>,
    /// 1-based index of the evaluation that set the current best (0: none).
    iterations_to_best: usize,
    /// The proposed batch awaiting its values (empty when none is): the
    /// seeds + warm-up draws until the first `observe`.
    batch: Vec<Vec<usize>>,
    /// No batch beyond the seeds + warm-up phase has been proposed.
    in_warmup: bool,
    forest: Option<Arc<RandomForest>>,
    evaluated: usize,
    cycle: usize,
    stale: usize,
    /// Patience ran out.
    stopped: bool,
}

impl BoSearch {
    /// Starts a search: `seeds` (e.g. the HF configuration) come first,
    /// then `opts.warmup` uniform samples. Sampling touches the RNG,
    /// evaluation does not, so drawing the whole phase up front consumes
    /// the same RNG stream as the classic interleaved loop — and the
    /// phase becomes the first (embarrassingly parallel) batch.
    ///
    /// # Panics
    ///
    /// Panics if a seed's length differs from `space.dims()`.
    pub fn new(space: &SearchSpace, seeds: &[Vec<usize>], opts: &BoOptions) -> Self {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut batch: Vec<Vec<usize>> = Vec::with_capacity(seeds.len() + opts.warmup);
        for seed in seeds {
            assert_eq!(seed.len(), space.dims(), "seed dimensionality mismatch");
            batch.push(seed.clone());
        }
        for _ in 0..opts.warmup {
            batch.push(space.sample(&mut rng));
        }
        BoSearch {
            space: space.clone(),
            opts: opts.clone(),
            rng,
            xs: Vec::new(),
            ys: Vec::new(),
            bests: Vec::new(),
            seen: HashSet::new(),
            iterations_to_best: 0,
            batch,
            in_warmup: true,
            forest: None,
            evaluated: 0,
            cycle: 0,
            stale: 0,
            stopped: false,
        }
    }

    /// The next batch to evaluate — the seeds + warm-up phase first, then
    /// one acquisition cycle of at most
    /// [`proposals_per_refit`](BoOptions::proposals_per_refit) candidates
    /// (surrogate fit and scoring sharded over `exec`) — or `None` once the
    /// iteration budget is spent or patience ran out. Batches are never
    /// empty. Calling it again before [`observe`](Self::observe) returns
    /// the same batch.
    pub fn propose(&mut self, exec: &dyn Executor) -> Option<&[Vec<usize>]> {
        if self.batch.is_empty() {
            // Nothing pending, so the warm-up phase is over (or was empty).
            self.in_warmup = false;
            if self.stopped || self.evaluated >= self.opts.iterations {
                return None;
            }
            self.batch = self.acquire(exec);
        }
        Some(&self.batch)
    }

    /// Folds the values of the proposed batch into the search, in
    /// submission order, so the trace is identical however the batch was
    /// computed.
    ///
    /// # Panics
    ///
    /// Panics if no batch is awaiting values, or if `values` does not
    /// hold exactly one value per proposed configuration.
    pub fn observe(&mut self, values: &[f64]) {
        assert!(!self.batch.is_empty(), "observe called without a proposed batch");
        assert_eq!(
            values.len(),
            self.batch.len(),
            "batch objective must return one value per configuration"
        );
        let batch = std::mem::take(&mut self.batch);
        let batch_len = batch.len();
        // Patience counts acquisition evaluations only, replaying each
        // `(before, after)` best-so-far transition exactly as the classic
        // per-evaluation loop would.
        let count_patience = !self.in_warmup && self.opts.patience > 0;
        for (config, &value) in batch.into_iter().zip(values) {
            let before = self.bests.last().copied().unwrap_or(f64::INFINITY);
            let mut best = before;
            if value < before - 1e-15 {
                best = value;
                self.iterations_to_best = self.xs.len() + 1;
            }
            self.seen.insert(config.clone());
            self.xs.push(config);
            self.ys.push(value);
            self.bests.push(best);
            if count_patience && !self.stopped {
                if before - best > self.opts.patience_tol {
                    self.stale = 0;
                } else {
                    self.stale += 1;
                    self.stopped = self.stale >= self.opts.patience;
                }
            }
        }
        if self.in_warmup {
            self.in_warmup = false;
        } else {
            self.evaluated += batch_len;
            self.cycle += 1;
        }
    }

    /// The search outcome over every observed evaluation.
    pub fn finish(self) -> BoResult {
        let best_config = match self.iterations_to_best {
            0 => Vec::new(),
            k => self.xs[k - 1].clone(),
        };
        let history: Vec<Evaluation> = (self.xs.into_iter().zip(self.ys).zip(&self.bests))
            .map(|((config, value), &best_so_far)| Evaluation { config, value, best_so_far })
            .collect();
        BoResult {
            best_config,
            best_value: self.bests.last().copied().unwrap_or(f64::INFINITY),
            history,
            iterations_to_best: self.iterations_to_best,
        }
    }

    /// One acquisition cycle's proposals.
    fn acquire(&mut self, exec: &dyn Executor) -> Vec<Vec<usize>> {
        let opts = &self.opts;
        let space = &self.space;
        let rng = &mut self.rng;
        let (xs, ys) = (&self.xs, &self.ys);
        let batch_size = opts.proposals_per_refit.max(1).min(opts.iterations - self.evaluated);
        // With no history at all (`warmup == 0`, no seeds) there is
        // nothing to fit or mutate: fall back to uniform sampling until
        // the first evaluations land.
        if xs.is_empty() {
            return (0..batch_size).map(|_| space.sample(rng)).collect();
        }
        if self.forest.is_none() || self.cycle % opts.refit_every.max(1) == 0 {
            let forest = RandomForest::fit(xs, ys, &space.cardinalities, &opts.forest, rng, exec);
            self.forest = Some(Arc::new(forest));
        }
        let model = self.forest.as_ref().expect("fitted above");
        // Candidate pool: incumbent mutations + uniform samples. The pool
        // scales with the batch size — `candidates` is a *per-proposal*
        // budget, so a B-proposal cycle explores the same diversity per
        // evaluation as B classic iterations (and at B = 1 this is
        // exactly the classic pool). NaN objective values (either sign —
        // `0.0/0.0` is −NaN on x86) are excluded outright so they can
        // never seed the incumbent mutations; `total_cmp` keeps the
        // remaining ordering well-defined.
        let pool_size = opts.candidates.saturating_mul(batch_size).max(1);
        let mut pool: Vec<Vec<usize>> = Vec::with_capacity(pool_size);
        let mut order: Vec<usize> = (0..ys.len()).filter(|&i| !ys[i].is_nan()).collect();
        order.sort_by(|&a, &b| ys[a].total_cmp(&ys[b]));
        if !order.is_empty() {
            let n_mut = (pool_size / 2).max(1);
            for k in 0..n_mut {
                let base = &xs[order[k % opts.top_k.min(order.len()).max(1)]];
                pool.push(space.mutate(base, rng, 3));
            }
        }
        while pool.len() < pool_size {
            pool.push(space.sample(rng));
        }
        let pool = Arc::new(pool);
        // Acquisition: the surrogate ranks the whole pool once (a stale
        // forest still scores the *current* pool), then each of the
        // `batch_size` proposal slots draws ε-greedy: explore → uniform
        // pool member, exploit → next-best unseen prediction. Ranking is
        // lazy so an all-explore cycle never pays for it; it consumes no
        // RNG either way, keeping `B = 1` draws identical to the classic
        // loop.
        let mut ranked: Option<Vec<usize>> = None;
        let mut picks: Vec<Vec<usize>> = Vec::with_capacity(batch_size);
        let mut picked: HashSet<Vec<usize>> = HashSet::new();
        for _ in 0..batch_size {
            let pick = if rng.gen::<f64>() < opts.epsilon {
                pool[rng.gen_range(0..pool.len())].clone()
            } else {
                let ranked = ranked.get_or_insert_with(|| {
                    let predictions = model.predict_batch_on(&pool, exec);
                    // Stable ascending sort: among equal predictions the
                    // earliest pool entry ranks first, matching the
                    // classic `min_by` tie-break.
                    let mut indices: Vec<usize> =
                        (0..pool.len()).filter(|&i| !predictions[i].is_nan()).collect();
                    indices.sort_by(|&a, &b| predictions[a].total_cmp(&predictions[b]));
                    indices
                });
                ranked
                    .iter()
                    .map(|&i| &pool[i])
                    .find(|c| !self.seen.contains(*c) && !picked.contains(*c))
                    .cloned()
                    .unwrap_or_else(|| space.sample(rng))
            };
            picked.insert(pick.clone());
            picks.push(pick);
        }
        picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lifts a per-configuration objective into the batch API.
    fn batched<'f>(f: impl Fn(&[usize]) -> f64 + 'f) -> impl FnMut(&[Vec<usize>]) -> Vec<f64> + 'f {
        move |batch: &[Vec<usize>]| batch.iter().map(|c| f(c)).collect()
    }

    fn quadratic(target: &[usize]) -> impl Fn(&[usize]) -> f64 + '_ {
        move |c: &[usize]| c.iter().zip(target).map(|(&a, &t)| (a as f64 - t as f64).powi(2)).sum()
    }

    #[test]
    fn finds_global_minimum_of_quadratic() {
        let target = vec![2usize, 0, 3, 1, 2, 3, 0, 1];
        let space = SearchSpace::uniform(8, 4);
        let opts = BoOptions { warmup: 60, iterations: 250, ..Default::default() };
        let result = minimize(&space, batched(quadratic(&target)), &[], &opts);
        assert_eq!(result.best_value, 0.0, "best config {:?}", result.best_config);
        assert_eq!(result.best_config, target);
    }

    #[test]
    fn beats_pure_random_search() {
        // Compare best-of-N for BO vs pure random on a rugged function.
        let space = SearchSpace::uniform(10, 4);
        let f = |c: &[usize]| {
            let s: f64 =
                c.iter().enumerate().map(|(i, &v)| ((v as f64) - ((i % 4) as f64)).abs()).sum();
            s + if c[0] == c[9] { 0.0 } else { 2.0 }
        };
        let opts = BoOptions { warmup: 50, iterations: 200, seed: 3, ..Default::default() };
        let bo = minimize(&space, batched(f), &[], &opts);
        let random_opts = BoOptions { warmup: 250, iterations: 0, seed: 3, ..Default::default() };
        let random = minimize(&space, batched(f), &[], &random_opts);
        assert!(bo.best_value <= random.best_value, "{} vs {}", bo.best_value, random.best_value);
    }

    #[test]
    fn seed_guarantees_upper_bound() {
        // A seed at the optimum can never be lost.
        let target = vec![1usize, 1, 1, 1];
        let space = SearchSpace::uniform(4, 4);
        let opts = BoOptions { warmup: 5, iterations: 10, ..Default::default() };
        let result =
            minimize(&space, batched(quadratic(&target)), std::slice::from_ref(&target), &opts);
        assert_eq!(result.best_value, 0.0);
        assert_eq!(result.iterations_to_best, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let space = SearchSpace::uniform(6, 4);
        let f = |c: &[usize]| c.iter().map(|&v| (v as f64 - 1.7).powi(2)).sum::<f64>();
        let opts = BoOptions { warmup: 30, iterations: 50, seed: 42, ..Default::default() };
        let a = minimize(&space, batched(f), &[], &opts);
        let b = minimize(&space, batched(f), &[], &opts);
        assert_eq!(a.best_config, b.best_config);
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.value, y.value);
        }
    }

    #[test]
    fn history_best_so_far_is_monotone() {
        let space = SearchSpace::uniform(5, 4);
        let f = |c: &[usize]| c.iter().map(|&v| v as f64).sum::<f64>();
        let opts = BoOptions { warmup: 40, iterations: 40, ..Default::default() };
        let result = minimize(&space, batched(f), &[], &opts);
        for w in result.history.windows(2) {
            assert!(w[1].best_so_far <= w[0].best_so_far + 1e-15);
        }
    }

    #[test]
    fn patience_stops_early() {
        let space = SearchSpace::uniform(3, 4);
        let f = |_: &[usize]| 1.0; // flat: nothing to improve
        let opts = BoOptions { warmup: 10, iterations: 500, patience: 20, ..Default::default() };
        let result = minimize(&space, batched(f), &[], &opts);
        assert!(result.history.len() < 100, "stopped after {}", result.history.len());
    }

    #[test]
    fn zero_warmup_without_seeds_does_not_panic() {
        // Regression: an empty history used to hit `k % 0` (and an empty
        // forest fit) on the first surrogate iteration. The search must
        // fall back to uniform sampling instead.
        let space = SearchSpace::uniform(4, 4);
        let f = |c: &[usize]| c.iter().sum::<usize>() as f64;
        let opts = BoOptions { warmup: 0, iterations: 30, ..Default::default() };
        let result = minimize(&space, batched(f), &[], &opts);
        assert_eq!(result.history.len(), 30);
        assert!(result.best_value.is_finite());
        assert_eq!(result.best_config.len(), 4);
    }

    #[test]
    fn nan_objective_degrades_instead_of_panicking() {
        // A NaN objective value must never panic the comparators and must
        // never be reported as the incumbent. `0.0 / 0.0` produces the
        // sign-bit-set NaN on x86, which `total_cmp` sorts *first* — the
        // search must filter it, not merely order it.
        let space = SearchSpace::uniform(3, 4);
        let zero = std::hint::black_box(0.0f64);
        let f = |c: &[usize]| {
            if c[0] == 2 {
                zero / zero
            } else {
                c.iter().sum::<usize>() as f64
            }
        };
        let opts = BoOptions { warmup: 30, iterations: 60, ..Default::default() };
        let result = minimize(&space, batched(f), &[], &opts);
        assert!(result.best_value.is_finite());
        assert_ne!(result.best_config[0], 2);
    }

    #[test]
    fn all_nan_history_falls_back_to_uniform_pool() {
        // Every evaluation NaN: mutation bases are unavailable, so the
        // pool must degrade to uniform sampling without panicking.
        let space = SearchSpace::uniform(3, 4);
        let zero = std::hint::black_box(0.0f64);
        let opts = BoOptions { warmup: 5, iterations: 20, ..Default::default() };
        let result = minimize(&space, batched(move |_| zero / zero), &[], &opts);
        assert_eq!(result.history.len(), 25);
        assert!(result.best_value.is_nan() || result.best_value.is_infinite());
    }

    #[test]
    fn warmup_arrives_as_one_batch_and_proposals_as_cycles() {
        // The batch seam itself: seeds + warm-up come in a single call,
        // then every acquisition cycle hands over at most B proposals.
        let space = SearchSpace::uniform(4, 4);
        let mut batch_sizes: Vec<usize> = Vec::new();
        let seeds = vec![vec![0usize; 4]];
        let opts =
            BoOptions { warmup: 17, iterations: 10, proposals_per_refit: 4, ..Default::default() };
        let result = minimize(
            &space,
            |batch: &[Vec<usize>]| {
                batch_sizes.push(batch.len());
                batch.iter().map(|c| c.iter().sum::<usize>() as f64).collect()
            },
            &seeds,
            &opts,
        );
        assert_eq!(result.history.len(), 1 + 17 + 10);
        assert_eq!(batch_sizes[0], 18, "seeds + warm-up in one batch");
        assert_eq!(&batch_sizes[1..], &[4, 4, 2], "B-sized cycles, truncated at the budget");
    }

    #[test]
    fn proposals_within_a_cycle_are_distinct_unless_exploring() {
        // With ε = 0 every proposal is greedy, and greedy picks must not
        // repeat within a cycle (the pool is ranked once, the batch walks
        // down distinct unseen candidates).
        let space = SearchSpace::uniform(5, 4);
        let f = |c: &[usize]| c.iter().map(|&v| (v as f64 - 2.0).powi(2)).sum::<f64>();
        let opts = BoOptions {
            warmup: 20,
            iterations: 40,
            epsilon: 0.0,
            proposals_per_refit: 8,
            ..Default::default()
        };
        let mut cycles: Vec<Vec<Vec<usize>>> = Vec::new();
        minimize(
            &space,
            |batch: &[Vec<usize>]| {
                cycles.push(batch.to_vec());
                batch.iter().map(|c| f(c)).collect()
            },
            &[],
            &opts,
        );
        for cycle in &cycles[1..] {
            let unique: std::collections::HashSet<_> = cycle.iter().collect();
            assert_eq!(unique.len(), cycle.len(), "duplicate proposal in {cycle:?}");
        }
    }

    #[test]
    fn stale_forest_still_scores_fresh_pools() {
        // refit_every > 1: the forest is reused across cycles, but the
        // candidate pool must be rebuilt and re-scored every cycle — a
        // search that cached scored candidates alongside the stale forest
        // would stop discovering new incumbent mutations and stall. The
        // quadratic must still be solved exactly.
        let target = vec![2usize, 0, 3, 1, 2, 0];
        let space = SearchSpace::uniform(6, 4);
        for refit_every in [3usize, 7] {
            let opts = BoOptions { warmup: 40, iterations: 220, refit_every, ..Default::default() };
            let result = minimize(&space, batched(quadratic(&target)), &[], &opts);
            assert_eq!(result.best_value, 0.0, "refit_every = {refit_every}");
            assert_eq!(result.best_config, target, "refit_every = {refit_every}");
        }
    }

    #[test]
    fn batched_acquisition_matches_single_proposal_budget() {
        // B > 1 changes the trajectory but not the evaluation budget or
        // the trace bookkeeping invariants.
        let target = vec![1usize, 3, 0, 2, 1, 3];
        let space = SearchSpace::uniform(6, 4);
        for b in [1usize, 4, 16] {
            let opts = BoOptions {
                warmup: 50,
                iterations: 150,
                proposals_per_refit: b,
                ..Default::default()
            };
            let result = minimize(&space, batched(quadratic(&target)), &[], &opts);
            assert_eq!(result.history.len(), 200, "B = {b}");
            assert_eq!(result.best_value, 0.0, "B = {b}");
            for w in result.history.windows(2) {
                assert!(w[1].best_so_far <= w[0].best_so_far + 1e-15);
            }
        }
    }

    #[test]
    fn minimize_with_serial_exec_is_the_default_path() {
        let space = SearchSpace::uniform(5, 4);
        let f = |c: &[usize]| c.iter().map(|&v| v as f64).sum::<f64>();
        let opts = BoOptions { warmup: 25, iterations: 40, ..Default::default() };
        let a = minimize(&space, batched(f), &[], &opts);
        let b = minimize_with(&space, batched(f), &[], &opts, &SerialExec);
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.value.to_bits(), y.value.to_bits());
            assert_eq!(x.config, y.config);
        }
    }

    #[test]
    fn hand_driven_search_is_bit_identical_to_minimize() {
        // The ask/tell contract: a caller that proposes, evaluates and
        // observes by hand — pausing between batches, re-asking for a
        // pending batch, cloning the parked state — reproduces `minimize`
        // bit for bit (same configs, same value bits, same incumbent).
        let space = SearchSpace::uniform(6, 4);
        let f = |c: &[usize]| {
            c.iter().enumerate().map(|(i, &v)| (v as f64 - (i % 3) as f64).powi(2)).sum::<f64>()
                / 1.7
        };
        let seeds = vec![vec![1usize; 6]];
        for opts in [
            BoOptions { warmup: 20, iterations: 37, seed: 9, ..Default::default() },
            BoOptions { warmup: 0, iterations: 13, seed: 2, ..Default::default() },
            BoOptions { warmup: 12, iterations: 200, patience: 9, ..Default::default() },
        ] {
            let full = minimize(&space, batched(f), &seeds, &opts);
            let mut search = BoSearch::new(&space, &seeds, &opts);
            let mut batches = 0usize;
            while let Some(batch) = search.propose(&SerialExec) {
                let batch = batch.to_vec();
                assert!(!batch.is_empty(), "batches are never empty");
                // Re-asking before observing hands out the same batch.
                assert_eq!(search.propose(&SerialExec).unwrap(), &batch[..]);
                if batches % 2 == 1 {
                    // A parked copy continues exactly like the original.
                    search = search.clone();
                }
                let values: Vec<f64> = batch.iter().map(|c| f(c)).collect();
                search.observe(&values);
                batches += 1;
            }
            assert!(search.propose(&SerialExec).is_none(), "a finished search stays finished");
            let driven = search.finish();
            assert_eq!(driven.history.len(), full.history.len());
            for (a, b) in driven.history.iter().zip(&full.history) {
                assert_eq!(a.config, b.config);
                assert_eq!(a.value.to_bits(), b.value.to_bits());
                assert_eq!(a.best_so_far.to_bits(), b.best_so_far.to_bits());
            }
            assert_eq!(driven.best_config, full.best_config);
            assert_eq!(driven.best_value.to_bits(), full.best_value.to_bits());
            assert_eq!(driven.iterations_to_best, full.iterations_to_best);
        }
    }

    #[test]
    fn log2_size_matches_paper_complexity() {
        // H2O: 48 parameters with 4 angles each → 4^48 configurations.
        let space = SearchSpace::uniform(48, 4);
        assert_eq!(space.log2_size(), 96.0);
    }
}
