//! Surrogate v2 properties (tier-1).
//!
//! 1. **Executor identity.** `RandomForest::fit` grows each tree from its
//!    own RNG stream and, above 4096 bootstrap samples per fit
//!    (`bootstrap · n_trees`), grows tree shards as executor jobs. The
//!    forest must be the same bits on `SerialExec`, on engines of 1, 2
//!    and 8 workers, and on an executor that runs jobs in reverse order
//!    on fresh threads, and it must equal the frozen serial
//!    `reference_forest_fit`: `to_bits`-equal predictions and the same
//!    RNG state after the fit. Cases cover fits on both sides of the
//!    inline bound, tree counts of 1, 5 and 24 (not all divisible by the
//!    worker counts), bootstrap sizes below the training-set size and
//!    binding windows.
//! 2. **Weighting changes rounding only.** A tree grown over the distinct
//!    bootstrap rows, each weighted by its draw count, is in exact
//!    arithmetic the tree the original growth builds over the duplicate
//!    list of the same draws. On dyadic targets every sum is exact, so
//!    the two must agree node for node when fed the same tree stream and
//!    the same draws.

use std::sync::OnceLock;

use cafqa_bayesopt::{
    Executor, ForestOptions, Job, RandomForest, RegressionTree, SerialExec, TreeOptions,
};
use cafqa_bench::{reference_forest_fit, reference_v1_tree};
use cafqa_core::ExecEngine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Runs jobs in *reverse* submission order on freshly spawned threads,
/// so any ordering assumption in the shard/merge logic fails loudly.
struct ReversedThreadExec(usize);

impl Executor for ReversedThreadExec {
    fn workers(&self) -> usize {
        self.0
    }
    fn execute(&self, mut jobs: Vec<Job>) {
        jobs.reverse();
        let handles: Vec<_> = jobs.into_iter().map(std::thread::spawn).collect();
        for h in handles {
            h.join().expect("reversed executor worker panicked");
        }
    }
}

/// Engines of 1, 2 and 8 workers, shared by every case.
fn engines() -> &'static [ExecEngine] {
    static ENGINES: OnceLock<Vec<ExecEngine>> = OnceLock::new();
    ENGINES.get_or_init(|| [1, 2, 8].into_iter().map(ExecEngine::new).collect())
}

/// A random history of `n` samples over `d` parameters with mixed
/// cardinalities and energy-like targets (including exact ties).
fn history(seed: u64, n: usize, d: usize) -> (Vec<Vec<usize>>, Vec<f64>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cards: Vec<usize> = (0..d).map(|_| [1, 2, 4, 4, 9][rng.gen_range(0..5usize)]).collect();
    let xs: Vec<Vec<usize>> =
        (0..n).map(|_| cards.iter().map(|&c| rng.gen_range(0..c)).collect()).collect();
    let ys: Vec<f64> = if rng.gen::<bool>() {
        (0..n).map(|_| rng.gen_range(-80.0..-70.0)).collect()
    } else {
        (0..n).map(|_| -75.0 + 0.125 * rng.gen_range(0..8u32) as f64).collect()
    };
    (xs, ys, cards)
}

/// Probe configurations: every training row plus random ones.
fn probes(xs: &[Vec<usize>], cards: &[usize], seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51DE);
    let mut probes = xs.to_vec();
    probes.extend((0..32).map(|_| cards.iter().map(|&c| rng.gen_range(0..c + 1)).collect()));
    probes
}

/// The fitted forest's predictions on `probes` and the next draw of the
/// caller's RNG after the fit.
fn fit_bits(
    (xs, ys, cards): &(Vec<Vec<usize>>, Vec<f64>, Vec<usize>),
    opts: &ForestOptions,
    seed: u64,
    probes: &[Vec<usize>],
    exec: &dyn Executor,
) -> (Vec<u64>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let forest = RandomForest::fit(xs, ys, cards, opts, &mut rng, exec);
    (probes.iter().map(|p| forest.predict(p).to_bits()).collect(), rng.next_u64())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fits_are_bit_identical_at_any_executor_width(
        seed in 0u64..u64::MAX,
        n in 1usize..1100,
        d in 1usize..40,
        trees in 0usize..3,
        shape in 0usize..4,
    ) {
        let data = history(seed, n, d);
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(29));
        let n_trees = [1, 5, 24][trees];
        // Full fits, bootstraps below the training-set size, binding
        // windows (incumbent kept from outside), and both at once.
        let bootstrap = if shape % 2 == 1 { rng.gen_range(1..=n) } else { 0 };
        let window = if shape >= 2 { rng.gen_range(1..=n) } else { 0 };
        let opts = ForestOptions {
            n_trees,
            bootstrap,
            window,
            tree: TreeOptions { min_leaf: rng.gen_range(1..=3usize), ..Default::default() },
            ..Default::default()
        };
        let probes = probes(&data.0, &data.2, seed);
        let serial = fit_bits(&data, &opts, seed, &probes, &SerialExec);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let reference = reference_forest_fit(&data.0, &data.1, &data.2, &opts, &mut reference_rng);
        let reference_bits: Vec<u64> =
            probes.iter().map(|p| reference.predict(p).to_bits()).collect();
        prop_assert_eq!(&serial, &(reference_bits, reference_rng.next_u64()));
        let reversed = [ReversedThreadExec(2), ReversedThreadExec(3)];
        let executors = engines()
            .iter()
            .map(|e| e as &dyn Executor)
            .chain(reversed.iter().map(|e| e as &dyn Executor));
        for exec in executors {
            let pooled = fit_bits(&data, &opts, seed, &probes, exec);
            prop_assert!(
                pooled == serial,
                "n = {}, {} workers, {:?}: the forest differs from the serial fit",
                n,
                exec.workers(),
                opts
            );
        }
    }

    #[test]
    fn weighted_trees_equal_duplicate_list_trees_on_dyadic_targets(
        seed in 0u64..u64::MAX,
        n in 1usize..400,
        d in 0usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cards: Vec<usize> = (0..d).map(|_| [1, 2, 4, 4, 13][rng.gen_range(0..5usize)]).collect();
        let xs: Vec<Vec<usize>> =
            (0..n).map(|_| cards.iter().map(|&c| rng.gen_range(0..c)).collect()).collect();
        // Distinct multiples of 2⁻²⁰ in [-1, 1]: with at most 800 draws
        // every weighted sum and sum of squares stays below 2⁵³ quanta,
        // so it is exact in any order, and the means, child SSEs and
        // leaf values round alike. The parent SSE, `Σ w·(y − mean)²`,
        // does not: it enters every gain of a node as the same offset,
        // so it can only decide between candidate splits whose gains tie
        // exactly. Distinct targets make such ties coincidences, except
        // for two features splitting the node's rows into the same two
        // sets with opposite sides; one candidate feature per node rules
        // those out.
        let mut seen = std::collections::HashSet::new();
        let ys: Vec<f64> = (0..n)
            .map(|_| loop {
                let k = rng.gen_range(0..(1u64 << 21)) as i64 - (1 << 20);
                if seen.insert(k) {
                    break k as f64 / (1u64 << 20) as f64;
                }
            })
            .collect();
        let opts = TreeOptions {
            min_leaf: rng.gen_range(1..=4usize),
            max_depth: if rng.gen::<bool>() { 18 } else { rng.gen_range(0..=20usize) },
            feature_subsample: 1,
        };
        let mut tree_rng = StdRng::seed_from_u64(rng.gen());
        let draws: Vec<usize> =
            (0..rng.gen_range(1..=2 * n)).map(|_| tree_rng.gen_range(0..n)).collect();
        let mut v1_rng = tree_rng.clone();
        let tree = RegressionTree::fit(&xs, &ys, &draws, &cards, &opts, &mut tree_rng);
        let v1 = reference_v1_tree(&xs, &ys, &draws, &cards, &opts, &mut v1_rng);
        // Both renderings print the same `Node` enum, so equal strings
        // mean equal trees node for node (`f64` prints round-trip).
        let rendered = format!("{tree:?}");
        let v1_rendered = format!("{v1:?}");
        prop_assert_eq!(
            rendered.strip_prefix("RegressionTree"),
            v1_rendered.strip_prefix("ReferenceTree")
        );
        prop_assert_eq!(tree_rng.next_u64(), v1_rng.next_u64());
        for probe in probes(&xs, &cards, seed) {
            prop_assert_eq!(tree.predict(&probe).to_bits(), v1.predict(&probe).to_bits());
        }
    }
}

/// The rendering comparison above is only meaningful if distinct trees
/// render differently: two different fits must not print alike.
#[test]
fn renderings_tell_trees_apart() {
    let xs: Vec<Vec<usize>> = (0..64).map(|i| vec![i % 4, (i / 4) % 4]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| x[0] as f64 - 0.5 * x[1] as f64).collect();
    let all: Vec<usize> = (0..64).collect();
    let opts = TreeOptions { min_leaf: 1, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(1);
    let tree = RegressionTree::fit(&xs, &ys, &all, &[4, 4], &opts, &mut rng);
    let shallow = TreeOptions { max_depth: 1, ..opts.clone() };
    let stump = RegressionTree::fit(&xs, &ys, &all, &[4, 4], &shallow, &mut rng);
    assert_ne!(format!("{tree:?}"), format!("{stump:?}"));
    let mut rng = StdRng::seed_from_u64(1);
    let v1 = reference_v1_tree(&xs, &ys, &all, &[4, 4], &opts, &mut rng);
    assert_eq!(
        format!("{tree:?}").strip_prefix("RegressionTree"),
        format!("{v1:?}").strip_prefix("ReferenceTree")
    );
}
