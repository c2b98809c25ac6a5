//! Forest-fit equivalence suite (tier-1): the production
//! `RandomForest::fit` must reproduce the frozen, serial, row-major
//! `reference_forest_fit` (per-tree RNG streams, weighted bootstrap
//! rows) **bit for bit** — `to_bits`-equal predictions
//! on every probe, and the RNG left in the same state, so the next draw
//! after the fit is the same — on random histories that cover empty and
//! single-feature spaces, every cardinality class the searches use (1, 2,
//! 4, and kT-like `2d + 1` up to 273), signed zeros, NaN, exact ties,
//! near-constant targets at the `1e-18` leaf cut-off, binding windows
//! with the incumbent outside them, explicit bootstrap sizes and
//! feature subsamples larger than `d`.

use cafqa_bayesopt::{ForestOptions, RandomForest, RegressionTree, SerialExec, TreeOptions};
use cafqa_bench::reference_forest_fit;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A training history and its per-parameter cardinalities.
struct History {
    xs: Vec<Vec<usize>>,
    ys: Vec<f64>,
    cards: Vec<usize>,
}

/// A cardinality: unit, binary, Clifford (4), a kT insertion dimension
/// (`2d + 1`, 273 at 34 qubits) or a generic value up to 100.
fn cardinality(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..5usize) {
        0 => 1,
        1 => 2,
        2 => 4,
        3 => 2 * rng.gen_range(1..=136usize) + 1,
        _ => rng.gen_range(1..=100usize),
    }
}

/// A target value in one of five styles: generic energies, quantized
/// energies (exact ties), a near-constant run whose node SSEs straddle
/// the `1e-18` leaf cut-off, special values (signed zeros and ties) or a
/// per-sample mix of all of them.
fn target(rng: &mut StdRng, style: usize, spread: f64) -> f64 {
    match style {
        0 => rng.gen_range(-80.0..-70.0),
        1 => -75.0 + 0.125 * rng.gen_range(0..8u32) as f64,
        2 => -75.0 + spread * rng.gen_range(-1.0..1.0),
        3 => [0.0, -0.0, -0.0, 1.0, -1.0, 0.5][rng.gen_range(0..6usize)],
        _ => {
            let style = rng.gen_range(0..4usize);
            target(rng, style, spread)
        }
    }
}

/// A random history of `n` samples over `d` parameters.
fn random_history(seed: u64, n: usize, d: usize) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let cards: Vec<usize> = (0..d).map(|_| cardinality(&mut rng)).collect();
    // Some parameters use only their lowest values, leaving buckets empty.
    let used: Vec<usize> =
        cards.iter().map(|&c| if rng.gen::<f64>() < 0.3 { c.min(2) } else { c }).collect();
    let xs: Vec<Vec<usize>> =
        (0..n).map(|_| used.iter().map(|&c| rng.gen_range(0..c)).collect()).collect();
    let style = rng.gen_range(0..5usize);
    // Per-sample deviations of ~1e-9/√n put the node SSEs near 1e-18.
    let spread = 10f64.powf(rng.gen_range(-10.5..-8.5)) / (n as f64).sqrt();
    let mut ys: Vec<f64> = (0..n).map(|_| target(&mut rng, style, spread)).collect();
    // A NaN poisons every node it reaches, so plant at most one.
    if rng.gen::<f64>() < 0.25 {
        ys[rng.gen_range(0..n)] = f64::NAN;
    }
    History { xs, ys, cards }
}

/// Probe configurations: every training row, plus random configurations
/// that include values beyond each cardinality.
fn probes(history: &History, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
    let mut probes = history.xs.clone();
    probes
        .extend((0..64).map(|_| history.cards.iter().map(|&c| rng.gen_range(0..c + 2)).collect()));
    probes
}

/// Fits both forests from the same RNG seed and compares them.
fn compare(history: &History, opts: &ForestOptions, seed: u64) -> Result<(), String> {
    let History { xs, ys, cards } = history;
    let mut rng = StdRng::seed_from_u64(seed);
    let forest = RandomForest::fit(xs, ys, cards, opts, &mut rng, &SerialExec);
    let mut reference_rng = StdRng::seed_from_u64(seed);
    let reference = reference_forest_fit(xs, ys, cards, opts, &mut reference_rng);
    if rng.next_u64() != reference_rng.next_u64() {
        return Err("the RNG state differs after the fit".into());
    }
    for probe in probes(history, seed) {
        let (got, want) = (forest.predict(&probe), reference.predict(&probe));
        if got.to_bits() != want.to_bits() {
            return Err(format!("prediction at {probe:?}: {got:e} vs {want:e}"));
        }
    }
    Ok(())
}

/// Random forest options: binding and non-binding windows, explicit
/// bootstrap sizes, and feature subsamples of 0 (`√d + 1`), `1..=d` and
/// more than `d`.
fn random_options(rng: &mut StdRng, n: usize, d: usize) -> ForestOptions {
    let window = match rng.gen_range(0..4usize) {
        0 => 0,
        1 => rng.gen_range(1..=n),
        2 => n,
        _ => usize::MAX,
    };
    let bootstrap = if rng.gen::<bool>() { 0 } else { rng.gen_range(1..=2 * n) };
    let feature_subsample = match rng.gen_range(0..3usize) {
        0 => 0,
        1 => rng.gen_range(1..=d.max(1)),
        _ => d + rng.gen_range(1..4usize),
    };
    let max_depth = if rng.gen::<bool>() { 18 } else { rng.gen_range(0..=20usize) };
    ForestOptions {
        n_trees: rng.gen_range(1..=24usize),
        bootstrap,
        feature_subsample,
        window,
        tree: TreeOptions { min_leaf: rng.gen_range(1..=4usize), max_depth, feature_subsample: 0 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_histories_fit_bit_identical_forests(
        seed in 0u64..u64::MAX,
        n in 1usize..1300,
        d in 0usize..60,
    ) {
        let mut history = random_history(seed, n, d);
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
        let opts = random_options(&mut rng, n, d);
        // Make the first sample the incumbent, so that a binding window
        // keeps it from outside the window.
        if rng.gen::<bool>() {
            history.ys[0] = -100.0;
        }
        let result = compare(&history, &opts, seed);
        prop_assert!(result.is_ok(), "n = {n}, d = {d}, {opts:?}: {result:?}");
    }

    /// `RegressionTree::fit` on explicit indices is the same tree as a
    /// one-tree reference forest that drew those indices as its
    /// bootstrap, from the tree stream seeded by its one seed draw.
    #[test]
    fn single_trees_match_one_tree_reference_forests(
        seed in 0u64..u64::MAX,
        n in 1usize..400,
        d in 1usize..30,
    ) {
        let history = random_history(seed, n, d);
        let k = 1 + (seed as usize) % d;
        let opts = ForestOptions {
            n_trees: 1,
            feature_subsample: k,
            tree: TreeOptions { min_leaf: 1 + (seed as usize >> 8) % 3, ..Default::default() },
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree_rng = StdRng::seed_from_u64(rng.gen());
        let idx: Vec<usize> = (0..n).map(|_| tree_rng.gen_range(0..n)).collect();
        let tree_opts = TreeOptions { feature_subsample: k, ..opts.tree.clone() };
        let tree = RegressionTree::fit(&history.xs, &history.ys, &idx, &history.cards, &tree_opts, &mut tree_rng);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let reference =
            reference_forest_fit(&history.xs, &history.ys, &history.cards, &opts, &mut reference_rng);
        prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
        for probe in probes(&history, seed) {
            prop_assert_eq!(tree.predict(&probe).to_bits(), reference.predict(&probe).to_bits());
        }
    }
}

/// With no parameters every tree is one leaf; with one, every split is
/// on it. Both at the default options and at an explicit subsample.
#[test]
fn empty_and_single_feature_spaces_match() {
    for d in [0, 1] {
        for seed in 0..8 {
            let history = random_history(seed, 300, d);
            for feature_subsample in [0, 1, 5] {
                let opts = ForestOptions { feature_subsample, ..Default::default() };
                if let Err(diff) = compare(&history, &opts, seed) {
                    panic!("d = {d}, seed = {seed}, subsample {feature_subsample}: {diff}");
                }
            }
        }
    }
}

/// Every cardinality class at H2O-like history sizes, with the default
/// options the searches use.
#[test]
fn search_shaped_histories_match() {
    let shapes: [(usize, Vec<usize>); 5] = [
        (1000, vec![4; 48]),
        (500, vec![4; 40]),
        (400, vec![2; 24]),
        (300, vec![1; 12]),
        (600, (0..40).map(|i| if i % 5 == 0 { 273 } else { 4 }).collect()),
    ];
    for (shape, (n, cards)) in shapes.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(shape as u64);
        let xs: Vec<Vec<usize>> =
            (0..n).map(|_| cards.iter().map(|&c| rng.gen_range(0..c)).collect()).collect();
        for style in 0..5 {
            let ys: Vec<f64> = (0..n).map(|_| target(&mut rng, style, 1e-10)).collect();
            let history = History { xs: xs.clone(), ys, cards: cards.clone() };
            if let Err(diff) = compare(&history, &ForestOptions::default(), 7 + style as u64) {
                panic!("shape {shape}, style {style}: {diff}");
            }
        }
    }
}
