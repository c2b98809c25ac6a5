//! Frozen random-forest fits.
//!
//! `cafqa_bayesopt::RandomForest::fit` grows its trees over a column-major
//! copy of the features with reused buffers, shards the trees over an
//! executor, and weights each tree's distinct bootstrap rows by their draw
//! counts. Its contract is a *bit-identical* forest: the same trees,
//! `to_bits`-equal predictions, and the caller's RNG left in the same
//! state. This module freezes that fit's semantics in the plainest form —
//! serial, row-major, per-node index `Vec`s — as
//! [`reference_forest_fit`], so the `forest_equivalence` suite, the search
//! equivalence tests (through [`crate::reference_minimize`]) and the
//! `forest_fit` A/B always compare against it, no matter how the
//! production fit evolves.
//!
//! It also keeps the original (v1) tree growth over a duplicate-list
//! bootstrap, [`reference_v1_tree`], as the oracle of the `forest_v2`
//! proptest: on targets where every sum is exact, weighting a row by its
//! draw count must grow the same tree as listing it that many times.

use cafqa_bayesopt::{ForestOptions, TreeOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A binary regression tree node.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        /// Go left when `config[feature] <= threshold`.
        threshold: usize,
        left: Box<Node>,
        right: Box<Node>,
    },
}

fn predict_node(root: &Node, config: &[usize]) -> f64 {
    let mut node = root;
    loop {
        match node {
            Node::Leaf { value } => return *value,
            Node::Split { feature, threshold, left, right } => {
                node = if config[*feature] <= *threshold { left } else { right };
            }
        }
    }
}

/// Draws `k` distinct features of `d` by a partial Fisher–Yates shuffle.
fn sample_features(d: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut features: Vec<usize> = (0..d).collect();
    for i in 0..k {
        let j = rng.gen_range(i..d);
        features.swap(i, j);
    }
    features.truncate(k);
    features
}

/// The best `(feature, threshold)` split from per-value bucket counts,
/// sums and sums of squares, or `None` when no split gains more than
/// `1e-15`. `best` carries the running best across features.
#[allow(clippy::too_many_arguments)]
fn scan_thresholds(
    feature: usize,
    count: &[usize],
    sum: &[f64],
    sumsq: &[f64],
    total_n: f64,
    parent_sse: f64,
    min_leaf: usize,
    best: &mut Option<(usize, usize, f64)>,
) {
    let total_sum: f64 = sum.iter().sum();
    let total_sumsq: f64 = sumsq.iter().sum();
    let mut ln = 0.0;
    let mut ls = 0.0;
    let mut lss = 0.0;
    for t in 0..count.len() - 1 {
        ln += count[t] as f64;
        ls += sum[t];
        lss += sumsq[t];
        let rn = total_n - ln;
        if (ln as usize) < min_leaf || (rn as usize) < min_leaf {
            continue;
        }
        let left_sse = lss - ls * ls / ln;
        let right_sse = (total_sumsq - lss) - (total_sum - ls).powi(2) / rn;
        let gain = parent_sse - left_sse - right_sse;
        if best.map_or(true, |(_, _, g)| gain > g) && gain > 1e-15 {
            *best = Some((feature, t, gain));
        }
    }
}

/// The v2 tree growth: `idx` lists distinct rows, row `i` weighing
/// `w[i]`; every node sum is weighted.
#[allow(clippy::too_many_arguments)]
fn grow(
    xs: &[Vec<usize>],
    ys: &[f64],
    w: &[usize],
    idx: &[usize],
    cards: &[usize],
    opts: &TreeOptions,
    rng: &mut impl Rng,
    depth: usize,
) -> Node {
    let weight: usize = idx.iter().map(|&i| w[i]).sum();
    let mean = idx.iter().map(|&i| w[i] as f64 * ys[i]).sum::<f64>() / weight as f64;
    if weight < 2 * opts.min_leaf || depth >= opts.max_depth {
        return Node::Leaf { value: mean };
    }
    let parent_sse: f64 = idx.iter().map(|&i| w[i] as f64 * (ys[i] - mean).powi(2)).sum();
    if parent_sse < 1e-18 {
        return Node::Leaf { value: mean };
    }
    let d = cards.len();
    let k = if opts.feature_subsample == 0 { d } else { opts.feature_subsample.min(d) };
    let mut best: Option<(usize, usize, f64)> = None;
    for f in sample_features(d, k, rng) {
        let card = cards[f];
        if card < 2 {
            continue;
        }
        let mut count = vec![0usize; card];
        let mut sum = vec![0.0; card];
        let mut sumsq = vec![0.0; card];
        for &i in idx {
            let v = xs[i][f];
            count[v] += w[i];
            sum[v] += w[i] as f64 * ys[i];
            sumsq[v] += w[i] as f64 * (ys[i] * ys[i]);
        }
        let total_n = weight as f64;
        scan_thresholds(f, &count, &sum, &sumsq, total_n, parent_sse, opts.min_leaf, &mut best);
    }
    match best {
        None => Node::Leaf { value: mean },
        Some((feature, threshold, _)) => {
            let (li, ri): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| xs[i][feature] <= threshold);
            let left = grow(xs, ys, w, &li, cards, opts, rng, depth + 1);
            let right = grow(xs, ys, w, &ri, cards, opts, rng, depth + 1);
            Node::Split { feature, threshold, left: Box::new(left), right: Box::new(right) }
        }
    }
}

/// The v1 tree growth, over a duplicate list: a row drawn `w` times is
/// listed `w` times, and every node sum adds each copy.
fn grow_v1(
    xs: &[Vec<usize>],
    ys: &[f64],
    idx: &[usize],
    cards: &[usize],
    opts: &TreeOptions,
    rng: &mut impl Rng,
    depth: usize,
) -> Node {
    let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64;
    if idx.len() < 2 * opts.min_leaf || depth >= opts.max_depth {
        return Node::Leaf { value: mean };
    }
    let parent_sse: f64 = idx.iter().map(|&i| (ys[i] - mean).powi(2)).sum();
    if parent_sse < 1e-18 {
        return Node::Leaf { value: mean };
    }
    let d = cards.len();
    let k = if opts.feature_subsample == 0 { d } else { opts.feature_subsample.min(d) };
    let mut best: Option<(usize, usize, f64)> = None;
    for f in sample_features(d, k, rng) {
        let card = cards[f];
        if card < 2 {
            continue;
        }
        let mut count = vec![0usize; card];
        let mut sum = vec![0.0; card];
        let mut sumsq = vec![0.0; card];
        for &i in idx {
            let v = xs[i][f];
            count[v] += 1;
            sum[v] += ys[i];
            sumsq[v] += ys[i] * ys[i];
        }
        let total_n = idx.len() as f64;
        scan_thresholds(f, &count, &sum, &sumsq, total_n, parent_sse, opts.min_leaf, &mut best);
    }
    match best {
        None => Node::Leaf { value: mean },
        Some((feature, threshold, _)) => {
            let (li, ri): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| xs[i][feature] <= threshold);
            let left = grow_v1(xs, ys, &li, cards, opts, rng, depth + 1);
            let right = grow_v1(xs, ys, &ri, cards, opts, rng, depth + 1);
            Node::Split { feature, threshold, left: Box::new(left), right: Box::new(right) }
        }
    }
}

/// A single tree grown by [`reference_v1_tree`]. Its `Debug` form prints
/// the nodes exactly as `RegressionTree`'s does, so two trees can be
/// compared node for node by their renderings.
#[derive(Debug, Clone)]
pub struct ReferenceTree {
    root: Node,
}

impl ReferenceTree {
    /// Predicted value for a configuration.
    pub fn predict(&self, config: &[usize]) -> f64 {
        predict_node(&self.root, config)
    }
}

/// The v1 tree growth: a tree on `(xs[i], ys[i])` over the duplicate
/// list `indices`, in list order, drawing its split features from `rng`.
///
/// # Panics
///
/// Panics if `indices` is empty.
pub fn reference_v1_tree(
    xs: &[Vec<usize>],
    ys: &[f64],
    indices: &[usize],
    cardinalities: &[usize],
    opts: &TreeOptions,
    rng: &mut impl Rng,
) -> ReferenceTree {
    assert!(!indices.is_empty(), "cannot fit a tree on no samples");
    ReferenceTree { root: grow_v1(xs, ys, indices, cardinalities, opts, rng, 0) }
}

/// The windowed index selection: the `window` most recent samples plus
/// the incumbent (earliest minimum of `ys`, NaN excluded) when it
/// precedes the window; all indices for `window == 0` or
/// `window >= ys.len()`. Always ascending.
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

/// A forest fitted by [`reference_forest_fit`].
#[derive(Debug, Clone)]
pub struct ReferenceForest {
    trees: Vec<Node>,
}

impl ReferenceForest {
    /// Mean prediction over the ensemble.
    pub fn predict(&self, config: &[usize]) -> f64 {
        self.trees.iter().map(|t| predict_node(t, config)).sum::<f64>() / self.trees.len() as f64
    }

    /// [`Self::predict`] over a candidate pool, in input order.
    pub fn predict_batch(&self, configs: &[Vec<usize>]) -> Vec<f64> {
        configs.iter().map(|c| self.predict(c)).collect()
    }
}

/// The v2 `RandomForest::fit`, serial: one seed per tree drawn from
/// `rng` up front, then per tree, from its own stream, `boot` bootstrap
/// draws from the window selection and a weighted growth over the
/// distinct rows drawn, in ascending order.
///
/// # Panics
///
/// Panics if `xs` is empty or lengths mismatch.
pub fn reference_forest_fit(
    xs: &[Vec<usize>],
    ys: &[f64],
    cardinalities: &[usize],
    opts: &ForestOptions,
    rng: &mut impl Rng,
) -> ReferenceForest {
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
    let trees = seeds
        .into_iter()
        .map(|seed| {
            let mut tree_rng = StdRng::seed_from_u64(seed);
            let mut w = vec![0usize; xs.len()];
            for _ in 0..boot {
                w[selected[tree_rng.gen_range(0..m)]] += 1;
            }
            let idx: Vec<usize> = selected.iter().copied().filter(|&i| w[i] > 0).collect();
            grow(xs, ys, &w, &idx, cardinalities, &tree_opts, &mut tree_rng, 0)
        })
        .collect();
    ReferenceForest { trees }
}
