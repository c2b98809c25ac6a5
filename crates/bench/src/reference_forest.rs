//! Frozen pre-optimization random-forest fit.
//!
//! `cafqa_bayesopt::RandomForest::fit` was rewritten to grow its trees
//! over a column-major copy of the features, with reused bucket and
//! partition buffers, instead of row-major `xs[i][f]` reads, per-feature
//! bucket `Vec`s and per-split child index `Vec`s. The rewrite's contract
//! is a *bit-identical* forest: the same trees, `to_bits`-equal
//! predictions, and the RNG left in the same state. This module freezes
//! the original tree growth and forest fit verbatim so the
//! `forest_equivalence` suite, the search equivalence tests (through
//! [`crate::reference_minimize`]) and the `forest_fit` A/B always compare
//! against the genuine original, no matter how the production fit
//! evolves.

use cafqa_bayesopt::{ForestOptions, TreeOptions};
use rand::Rng;

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

fn mean(ys: &[f64], idx: &[usize]) -> f64 {
    idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64
}

fn sse(ys: &[f64], idx: &[usize]) -> f64 {
    let m = mean(ys, idx);
    idx.iter().map(|&i| (ys[i] - m).powi(2)).sum()
}

fn grow(
    xs: &[Vec<usize>],
    ys: &[f64],
    idx: &[usize],
    cards: &[usize],
    opts: &TreeOptions,
    rng: &mut impl Rng,
    depth: usize,
) -> Node {
    if idx.len() < 2 * opts.min_leaf || depth >= opts.max_depth {
        return Node::Leaf { value: mean(ys, idx) };
    }
    let parent_sse = sse(ys, idx);
    if parent_sse < 1e-18 {
        return Node::Leaf { value: mean(ys, idx) };
    }
    let d = cards.len();
    let k = if opts.feature_subsample == 0 { d } else { opts.feature_subsample.min(d) };
    // Sample k distinct features.
    let mut features: Vec<usize> = (0..d).collect();
    for i in 0..k {
        let j = rng.gen_range(i..d);
        features.swap(i, j);
    }
    let mut best: Option<(usize, usize, f64)> = None;
    for &f in &features[..k] {
        let card = cards[f];
        if card < 2 {
            continue;
        }
        // Bucket statistics per feature value.
        let mut count = vec![0usize; card];
        let mut sum = vec![0.0; card];
        let mut sumsq = vec![0.0; card];
        for &i in idx {
            let v = xs[i][f];
            count[v] += 1;
            sum[v] += ys[i];
            sumsq[v] += ys[i] * ys[i];
        }
        // Prefix scan over thresholds.
        let total_n = idx.len() as f64;
        let total_sum: f64 = sum.iter().sum();
        let total_sumsq: f64 = sumsq.iter().sum();
        let mut ln = 0.0;
        let mut ls = 0.0;
        let mut lss = 0.0;
        for t in 0..card - 1 {
            ln += count[t] as f64;
            ls += sum[t];
            lss += sumsq[t];
            let rn = total_n - ln;
            if (ln as usize) < opts.min_leaf || (rn as usize) < opts.min_leaf {
                continue;
            }
            let left_sse = lss - ls * ls / ln;
            let right_sse = (total_sumsq - lss) - (total_sum - ls).powi(2) / rn;
            let gain = parent_sse - left_sse - right_sse;
            if best.map_or(true, |(_, _, g)| gain > g) && gain > 1e-15 {
                best = Some((f, t, gain));
            }
        }
    }
    match best {
        None => Node::Leaf { value: mean(ys, idx) },
        Some((feature, threshold, _)) => {
            let (li, ri): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| xs[i][feature] <= threshold);
            let left = grow(xs, ys, &li, cards, opts, rng, depth + 1);
            let right = grow(xs, ys, &ri, cards, opts, rng, depth + 1);
            Node::Split { feature, threshold, left: Box::new(left), right: Box::new(right) }
        }
    }
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

/// The original windowed index selection: the `window` most recent
/// samples plus the incumbent (earliest minimum of `ys`, NaN excluded)
/// when it precedes the window; all indices for `window == 0` or
/// `window >= ys.len()`.
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

/// The original `RandomForest::fit`: bootstrap indices drawn from the
/// window selection, one row-major tree growth per tree.
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
    let trees = (0..opts.n_trees)
        .map(|_| {
            let idx: Vec<usize> = (0..boot).map(|_| selected[rng.gen_range(0..m)]).collect();
            assert!(!idx.is_empty(), "cannot fit a tree on no samples");
            grow(xs, ys, &idx, cardinalities, &tree_opts, rng, 0)
        })
        .collect();
    ReferenceForest { trees }
}
