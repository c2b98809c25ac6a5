//! Bagged random-forest regression — the CAFQA surrogate model.
//!
//! The paper (§5) picks a random forest "as it is flexible enough to model
//! the discrete space and scales well", following HyperMapper.

use std::sync::Arc;

use rand::Rng;

use crate::exec::{map_jobs, Executor};
use crate::tree::{RegressionTree, TrainingSet, TreeOptions};

/// Random-forest options.
#[derive(Debug, Clone)]
pub struct ForestOptions {
    /// Number of trees.
    pub n_trees: usize,
    /// Bootstrap sample size (`0` = same as training-set size).
    pub bootstrap: usize,
    /// Per-split feature subsample (`0` = `√d + 1`).
    pub feature_subsample: usize,
    /// Windowed refits: fit on only the `window` most recent samples —
    /// plus the **incumbent** (the earliest minimum of `ys`), which is
    /// kept in the training set even after it slides out of the window,
    /// so the surrogate never forgets the best point found. `0` (the
    /// default) fits on the full history.
    ///
    /// This is what bounds the refit cost by the window size instead of
    /// letting it grow with the evaluation count (the pacing item of
    /// Cr2-scale searches); see [`RandomForest::fit`] for the cost.
    /// Index selection is pure — it draws nothing from the
    /// RNG — so `window == 0` *and* any `window >= ys.len()` reproduce
    /// the classic full-history fit bit-for-bit on the same RNG stream;
    /// see the determinism notes on
    /// [`BoOptions`](crate::BoOptions#determinism-and-refit-cadence).
    pub window: usize,
    /// Tree growth options.
    pub tree: TreeOptions,
}

impl Default for ForestOptions {
    fn default() -> Self {
        ForestOptions {
            n_trees: 24,
            bootstrap: 0,
            feature_subsample: 0,
            window: 0,
            tree: TreeOptions::default(),
        }
    }
}

/// The training indices of a windowed fit: the `window` most recent
/// samples plus the incumbent (earliest index achieving the minimum of
/// `ys`, NaN excluded) when it precedes the window. Returns all indices
/// for `window == 0` or `window >= ys.len()` — and consumes no
/// randomness in any case, which is what keeps the no-op configurations
/// bit-identical to the classic full-history fit.
fn window_indices(ys: &[f64], window: usize) -> Vec<usize> {
    let n = ys.len();
    if window == 0 || window >= n {
        return (0..n).collect();
    }
    let start = n - window;
    let incumbent = ys
        .iter()
        .enumerate()
        .filter(|(_, y)| !y.is_nan())
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i);
    let mut selected = Vec::with_capacity(window + 1);
    if let Some(best) = incumbent {
        if best < start {
            selected.push(best);
        }
    }
    selected.extend(start..n);
    selected
}

/// The least work worth dispatching to an executor: `bootstrap · n_trees`
/// samples for a fit, `configs · n_trees` tree traversals for a scoring
/// pass. Smaller batches run on the calling thread, where they finish
/// before a dispatch would.
const INLINE_WORK: usize = 4096;

/// A bagged ensemble of [`RegressionTree`]s.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fits the forest on the `(xs, ys)` pairs selected by
    /// [`ForestOptions::window`]: the whole history when `window` is `0`
    /// (or at least `ys.len()`), otherwise the most recent `window`
    /// samples plus the incumbent.
    ///
    /// The fit first draws one seed per tree from `rng` (so it consumes
    /// exactly `n_trees` draws, whatever the data), and tree `t` then
    /// draws its bootstrap and its split features from its own stream
    /// seeded with seed `t`. Bootstrap resampling draws only from the
    /// selected indices, and a tree grows over the distinct rows it drew,
    /// each weighted by its draw count. So the fit costs
    /// `O(n_trees · k · w · depth)` in the window size `w`, not in the
    /// history length: every tree level scans its (at most `w`) rows once
    /// per sampled feature, `k = √d + 1` of them per node by default.
    ///
    /// The selected rows are copied once into a column-major training
    /// set shared by all trees and dropped when the fit returns (the
    /// growth kernel and its summation-order invariant are documented in
    /// `tree.rs`).
    ///
    /// # Executor contract
    ///
    /// Fits with at least 4096 bootstrap samples in total
    /// (`bootstrap · n_trees`) split the trees into one contiguous shard
    /// per `exec` worker and grow the shards as `exec` jobs, each with
    /// its own scratch buffers; smaller fits grow inline on the calling
    /// thread. Trees are reassembled in tree order, so the forest is
    /// bit-identical at any executor width and for any job completion
    /// order. Callers without an engine pass
    /// [`SerialExec`](crate::SerialExec). A panic inside a job propagates
    /// to the caller.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or lengths mismatch.
    pub fn fit(
        xs: &[Vec<usize>],
        ys: &[f64],
        cardinalities: &[usize],
        opts: &ForestOptions,
        rng: &mut impl Rng,
        exec: &dyn Executor,
    ) -> Self {
        assert!(!xs.is_empty(), "cannot fit a forest on no samples");
        assert_eq!(xs.len(), ys.len());
        let selected = window_indices(ys, opts.window);
        let m = selected.len();
        let boot = if opts.bootstrap == 0 { m } else { opts.bootstrap.min(m) };
        let d = cardinalities.len();
        let feature_subsample = if opts.feature_subsample == 0 {
            ((d as f64).sqrt() as usize + 1).min(d)
        } else {
            opts.feature_subsample
        };
        let tree_opts = TreeOptions { feature_subsample, ..opts.tree.clone() };
        let seeds: Vec<u64> = (0..opts.n_trees).map(|_| rng.gen()).collect();
        // Row `j` of the training set is `selected[j]`, so a bootstrap
        // draw of `j` picks history sample `selected[j]`.
        let data = Arc::new(TrainingSet::new(xs, ys, &selected, cardinalities));
        let shards =
            if boot.saturating_mul(opts.n_trees) < INLINE_WORK { 1 } else { exec.workers() };
        let chunk = seeds.len().div_ceil(shards.max(1)).max(1);
        let tasks: Vec<Box<dyn FnOnce() -> Vec<RegressionTree> + Send>> = seeds
            .chunks(chunk)
            .map(|shard| {
                let data = Arc::clone(&data);
                let shard = shard.to_vec();
                let tree_opts = tree_opts.clone();
                Box::new(move || RegressionTree::grow_seeded(&data, boot, &shard, &tree_opts))
                    as Box<dyn FnOnce() -> Vec<RegressionTree> + Send>
            })
            .collect();
        RandomForest { trees: map_jobs(exec, tasks).into_iter().flatten().collect() }
    }

    /// Mean prediction over the ensemble.
    pub fn predict(&self, config: &[usize]) -> f64 {
        self.trees.iter().map(|t| t.predict(config)).sum::<f64>() / self.trees.len() as f64
    }

    /// [`Self::predict`] over a whole candidate pool, in input order.
    /// The serial convenience path; the search loop shards large pools
    /// over the runner's execution engine via [`Self::predict_batch_on`].
    pub fn predict_batch(&self, configs: &[Vec<usize>]) -> Vec<f64> {
        configs.iter().map(|c| self.predict(c)).collect()
    }

    /// [`Self::predict_batch`] sharded across an [`Executor`] (the
    /// CAFQA runner passes its persistent worker-pool engine). Results
    /// are in input order and bit-identical to per-candidate calls at
    /// any worker count — each prediction is independent, and shard
    /// results are reassembled by index. Pools with less than 4096 tree
    /// traversals (`configs · n_trees`, the same dispatch bound as
    /// [`Self::fit`]) stay on the calling thread.
    ///
    /// Takes both the forest and the pool behind an [`Arc`] because the
    /// executor's workers outlive this call frame: each shard carries a
    /// handle to both and scores its own index range, so nothing is
    /// copied.
    pub fn predict_batch_on(
        self: &Arc<Self>,
        configs: &Arc<Vec<Vec<usize>>>,
        exec: &dyn Executor,
    ) -> Vec<f64> {
        let shards =
            if configs.len() * self.trees.len() < INLINE_WORK { 1 } else { exec.workers() };
        let shards = shards.min(configs.len());
        if shards <= 1 {
            return self.predict_batch(configs);
        }
        let chunk = configs.len().div_ceil(shards);
        let tasks: Vec<Box<dyn FnOnce() -> Vec<f64> + Send>> = (0..configs.len())
            .step_by(chunk)
            .map(|start| {
                let forest = Arc::clone(self);
                let configs = Arc::clone(configs);
                let range = start..(start + chunk).min(configs.len());
                Box::new(move || forest.predict_batch(&configs[range]))
                    as Box<dyn FnOnce() -> Vec<f64> + Send>
            })
            .collect();
        map_jobs(exec, tasks).into_iter().flatten().collect()
    }

    /// The forest's predicted minimum over each *group* of candidate
    /// configurations, with all groups flattened through one sharded
    /// [`Self::predict_batch_on`] pass — the screening score behind
    /// CAFQA's surrogate-screened pair polish: group `g` holds the joint
    /// moves of one coordinate pair, and the pairs whose groups predict
    /// the lowest minima are the ones worth sweeping. `NaN` predictions
    /// are excluded; an all-`NaN` (or empty) group scores `+∞`, i.e.
    /// last. Results are in group order and bit-identical at any
    /// executor width (each prediction is independent, and the per-group
    /// fold is a plain minimum).
    pub fn predict_group_min_on(
        self: &Arc<Self>,
        groups: &[Vec<Vec<usize>>],
        exec: &dyn Executor,
    ) -> Vec<f64> {
        let flat: Arc<Vec<Vec<usize>>> = Arc::new(groups.iter().flatten().cloned().collect());
        let predictions = self.predict_batch_on(&flat, exec);
        let mut cursor = 0usize;
        groups
            .iter()
            .map(|group| {
                let scores = &predictions[cursor..cursor + group.len()];
                cursor += group.len();
                scores.iter().copied().filter(|p| !p.is_nan()).fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Mean and standard deviation over the ensemble (a cheap uncertainty
    /// proxy, useful for exploration diagnostics).
    pub fn predict_with_std(&self, config: &[usize]) -> (f64, f64) {
        let preds: Vec<f64> = self.trees.iter().map(|t| t.predict(config)).collect();
        let m = preds.iter().sum::<f64>() / preds.len() as f64;
        let var = preds.iter().map(|p| (p - m).powi(2)).sum::<f64>() / preds.len() as f64;
        (m, var.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Job, SerialExec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forest_beats_mean_baseline() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..600 {
            let x: Vec<usize> = (0..6).map(|_| rng.gen_range(0..4usize)).collect();
            let y = (x[0] as f64 - 1.5).powi(2) + 0.5 * x[3] as f64 - 0.2 * x[5] as f64;
            xs.push(x);
            ys.push(y);
        }
        let forest =
            RandomForest::fit(&xs, &ys, &[4; 6], &ForestOptions::default(), &mut rng, &SerialExec);
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut sse_forest = 0.0;
        let mut sse_mean = 0.0;
        for (x, y) in xs.iter().zip(&ys) {
            sse_forest += (forest.predict(x) - y).powi(2);
            sse_mean += (mean_y - y).powi(2);
        }
        assert!(sse_forest < 0.3 * sse_mean, "forest {sse_forest} vs mean {sse_mean}");
    }

    /// A deliberately unfair test double: runs jobs in *reverse*
    /// submission order on freshly spawned threads, so any ordering
    /// assumption in the shard/merge logic fails loudly.
    struct ReversedThreadExec(usize);

    impl Executor for ReversedThreadExec {
        fn workers(&self) -> usize {
            self.0
        }
        fn execute(&self, mut jobs: Vec<Job>) {
            jobs.reverse();
            let handles: Vec<_> = jobs.into_iter().map(std::thread::spawn).collect();
            for h in handles {
                h.join().expect("exec test worker panicked");
            }
        }
    }

    #[test]
    fn batch_predictions_match_serial() {
        let mut rng = StdRng::seed_from_u64(23);
        let xs: Vec<Vec<usize>> =
            (0..300).map(|_| (0..8).map(|_| rng.gen_range(0..4usize)).collect()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<usize>() as f64).collect();
        let forest = Arc::new(RandomForest::fit(
            &xs,
            &ys,
            &[4; 8],
            &ForestOptions::default(),
            &mut rng,
            &SerialExec,
        ));
        let pool: Arc<Vec<Vec<usize>>> = Arc::new(
            (0..512).map(|_| (0..8).map(|_| rng.gen_range(0..4usize)).collect()).collect(),
        );
        // Forced executor widths exercise the sharded path on any host;
        // the reversed executor proves order-independence of the merge.
        for workers in [4usize, 16] {
            let batch = forest.predict_batch_on(&pool, &ReversedThreadExec(workers));
            for (config, &predicted) in pool.iter().zip(&batch) {
                assert_eq!(predicted.to_bits(), forest.predict(config).to_bits());
            }
        }
        let serial = forest.predict_batch_on(&pool, &SerialExec);
        assert_eq!(serial.len(), pool.len());
        assert_eq!(forest.predict_batch(&pool), serial);
    }

    #[test]
    fn tiny_pools_stay_on_the_calling_thread() {
        // Below the dispatch threshold the sharded entry point must not
        // submit jobs at all (the executor would panic if used).
        struct PanicExec;
        impl Executor for PanicExec {
            fn workers(&self) -> usize {
                8
            }
            fn execute(&self, _jobs: Vec<Job>) {
                panic!("tiny pool must not dispatch");
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<Vec<usize>> = (0..50).map(|i| vec![i % 4, (i / 4) % 4]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] as f64).collect();
        let forest = Arc::new(RandomForest::fit(
            &xs,
            &ys,
            &[4, 4],
            &ForestOptions::default(),
            &mut rng,
            &SerialExec,
        ));
        let pool: Arc<Vec<Vec<usize>>> =
            Arc::new((0..16).map(|i| vec![i % 4, (i / 4) % 4]).collect());
        assert_eq!(forest.predict_batch_on(&pool, &PanicExec), forest.predict_batch(&pool));
    }

    #[test]
    fn group_min_scores_match_per_group_serial_minima() {
        let mut rng = StdRng::seed_from_u64(41);
        let xs: Vec<Vec<usize>> =
            (0..200).map(|_| (0..6).map(|_| rng.gen_range(0..4usize)).collect()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<usize>() as f64).collect();
        let forest = Arc::new(RandomForest::fit(
            &xs,
            &ys,
            &[4; 6],
            &ForestOptions::default(),
            &mut rng,
            &SerialExec,
        ));
        let groups: Vec<Vec<Vec<usize>>> = (0..40)
            .map(|g| (0..16).map(|k| (0..6).map(|i| (g + k + i) % 4).collect()).collect())
            .collect();
        // Sharded scores equal the serial per-group fold, bit for bit,
        // through an order-scrambling executor.
        for exec in [&ReversedThreadExec(6) as &dyn Executor, &SerialExec] {
            let scores = forest.predict_group_min_on(&groups, exec);
            assert_eq!(scores.len(), groups.len());
            for (group, &score) in groups.iter().zip(&scores) {
                let expected =
                    group.iter().map(|c| forest.predict(c)).fold(f64::INFINITY, f64::min);
                assert_eq!(score.to_bits(), expected.to_bits());
            }
        }
        // Empty groups score +∞ (rank last), without disturbing others.
        let with_empty = vec![groups[0].clone(), Vec::new(), groups[1].clone()];
        let scores = forest.predict_group_min_on(&with_empty, &SerialExec);
        assert_eq!(scores[1], f64::INFINITY);
        assert!(scores[0].is_finite() && scores[2].is_finite());
    }

    #[test]
    fn window_selection_keeps_the_incumbent() {
        let ys = [5.0, 1.0, 7.0, 9.0, 8.0, 6.0];
        // Window of 2 → most recent two indices, plus incumbent 1.
        assert_eq!(window_indices(&ys, 2), vec![1, 4, 5]);
        // Incumbent already inside the window → no duplicate.
        assert_eq!(window_indices(&ys, 5), vec![1, 2, 3, 4, 5]);
        // No-op configurations return the identity selection.
        assert_eq!(window_indices(&ys, 0), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(window_indices(&ys, 6), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(window_indices(&ys, 100), vec![0, 1, 2, 3, 4, 5]);
        // Ties resolve to the earliest index (stable incumbent identity).
        assert_eq!(window_indices(&[3.0, 1.0, 1.0, 2.0, 4.0], 1), vec![1, 4]);
        // NaN values can never be the incumbent; an all-NaN history
        // degrades to the bare window.
        let nan = f64::NAN;
        assert_eq!(window_indices(&[nan, 1.0, 5.0, 6.0], 1), vec![1, 3]);
        assert_eq!(window_indices(&[nan, nan, nan], 2), vec![1, 2]);
    }

    #[test]
    fn windowed_fit_trains_only_on_window_and_incumbent() {
        // History where the early (incumbent) region and the recent
        // window disagree wildly with the middle: a windowed forest must
        // reflect window + incumbent, not the middle.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        xs.push(vec![0usize, 0]);
        ys.push(-10.0); // the incumbent, far before the window
        for _ in 0..50 {
            xs.push(vec![3usize, 3]);
            ys.push(100.0); // stale middle, must be forgotten
        }
        for _ in 0..20 {
            xs.push(vec![1usize, 1]);
            ys.push(5.0); // the live window
        }
        let mut rng = StdRng::seed_from_u64(3);
        let opts = ForestOptions { window: 20, ..Default::default() };
        let forest = RandomForest::fit(&xs, &ys, &[4, 4], &opts, &mut rng, &SerialExec);
        // Every training target is either −10 or 5, so no prediction can
        // come anywhere near the forgotten 100.0 plateau.
        for probe in [[3usize, 3], [1, 1], [0, 0]] {
            assert!(forest.predict(&probe) <= 5.0 + 1e-9, "probe {probe:?}");
        }
    }

    #[test]
    fn prediction_std_is_finite_and_nonnegative() {
        let mut rng = StdRng::seed_from_u64(5);
        let xs: Vec<Vec<usize>> = (0..50).map(|i| vec![i % 4, (i / 4) % 4]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] as f64).collect();
        let forest =
            RandomForest::fit(&xs, &ys, &[4, 4], &ForestOptions::default(), &mut rng, &SerialExec);
        let (m, s) = forest.predict_with_std(&[2, 1]);
        assert!(m.is_finite() && s >= 0.0);
    }
}
