//! Regression trees over discrete integer configurations.
//!
//! # The growth kernel
//!
//! A forest fit copies its training rows once into a column-major
//! [`TrainingSet`] (`u32` feature values, plus `ys` and the precomputed
//! squares `ys[i] * ys[i]`) shared by every tree. A tree's bootstrap is a
//! weight per row: the number of times the row was drawn. The tree grows
//! over the *distinct* drawn rows only (about 63% of the draws), in
//! ascending row order, over one index buffer: a split partitions the
//! node's slice in place, stably, and the children recurse on the two
//! halves. One [`GrowScratch`] (row weights, feature permutation,
//! per-value buckets, partition staging, the node's weighted terms) is
//! reused across every node of every tree a worker grows. Nothing is
//! allocated per node except the node itself.
//!
//! # Summation-order invariant
//!
//! A fitted tree is a pure function of the training set, its bootstrap
//! draws and its own RNG stream, pinned bit for bit by the frozen
//! reference fit in the bench crate (`forest_equivalence`). That rests
//! on every floating-point sum adding its terms in a fixed order:
//!
//! - every node sum is weighted: the node's weight adds `w` (an integer),
//!   its mean adds `w·y` and its SSE `w·(y − mean)²`, over the node's
//!   index slice in slice order;
//! - each bucket's `count`/`sum`/`sumsq` adds `w`/`w·y`/`w·y²` in slice
//!   order, starting from `+0.0`, and the bucket totals fold over the
//!   buckets in value order; `min_leaf` bounds the weight, not the
//!   number of distinct rows;
//! - the root slice is the distinct rows in ascending order, and the
//!   partition is stable, so each child's slice keeps its parent's order;
//! - the threshold scan adds every bucket into its prefix, empty ones
//!   included (so no sign of zero moves), but evaluates the gain only
//!   after a nonempty bucket: an empty bucket repeats the previous
//!   threshold's split and gain, which the strict `gain > best` never
//!   takes.
//!
//! In exact arithmetic a weighted tree is the tree the duplicate list of
//! the same draws would grow; only the rounding differs, and with it the
//! tie-breaks (the `forest_v2` proptests in the bench crate checks
//! node-for-node equality on dyadic targets, where every sum is exact).
//!
//! The RNG draws are ordered too: a tree's bootstrap draws precede its
//! feature draws, the `k` feature draws of a node precede its children's,
//! and the left subtree grows before the right. Each tree draws from its
//! own stream (see `RandomForest::fit`), so trees do not depend on one
//! another and may grow on any thread in any order.
//!
//! # Why no histogram subtraction
//!
//! A child's buckets are recounted from its own samples rather than
//! derived as parent minus sibling. Subtraction would change the
//! rounding, and it would not pay here anyway: a node scans only the
//! `k = √d + 1` features it samples (7 of 48 at H2O), and its children
//! sample their own, mostly different, features. Keeping every feature's
//! histogram to subtract from would cost about `d / k` times the
//! recount it saves.

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

/// Tree growth options.
#[derive(Debug, Clone)]
pub struct TreeOptions {
    /// Minimum sample weight (bootstrap draws) in a leaf.
    pub min_leaf: usize,
    /// Maximum depth.
    pub max_depth: usize,
    /// Number of candidate features per split (`0` = all).
    pub feature_subsample: usize,
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions { min_leaf: 3, max_depth: 18, feature_subsample: 0 }
    }
}

/// A variance-reduction regression tree on integer feature vectors.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    root: Node,
}

/// Training rows in column-major form, built once per fit and shared by
/// every tree (and every worker) of the fit.
pub(crate) struct TrainingSet {
    /// `cols[f * n + j]`: feature `f` of row `j`.
    cols: Vec<u32>,
    n: usize,
    ys: Vec<f64>,
    /// `ys[j] * ys[j]`, the same bits as the inline product.
    ysq: Vec<f64>,
    cards: Vec<usize>,
}

impl TrainingSet {
    /// Copies `rows` of `(xs, ys)` (row `j` of the set is
    /// `rows[j]` of the input) restricted to the `cards.len()` features.
    ///
    /// # Panics
    ///
    /// Panics if a feature value does not fit in a `u32`.
    pub(crate) fn new(xs: &[Vec<usize>], ys: &[f64], rows: &[usize], cards: &[usize]) -> Self {
        let n = rows.len();
        let mut cols = Vec::with_capacity(n * cards.len());
        for f in 0..cards.len() {
            cols.extend(
                rows.iter()
                    .map(|&r| u32::try_from(xs[r][f]).expect("feature values must fit in a u32")),
            );
        }
        let ys: Vec<f64> = rows.iter().map(|&r| ys[r]).collect();
        let ysq = ys.iter().map(|y| y * y).collect();
        TrainingSet { cols, n, ys, ysq, cards: cards.to_vec() }
    }

    fn column(&self, f: usize) -> &[u32] {
        &self.cols[f * self.n..(f + 1) * self.n]
    }
}

/// Per-value statistics of one candidate feature at one node.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    count: usize,
    sum: f64,
    sumsq: f64,
}

/// Buffers reused across every node of every tree one worker grows.
struct GrowScratch {
    /// Bootstrap weight of each row for the tree being grown.
    weights: Vec<usize>,
    /// The tree's distinct rows, reordered by the growth.
    rows: Vec<usize>,
    features: Vec<usize>,
    buckets: Vec<Bucket>,
    right: Vec<usize>,
    /// `(w, w·y, w·y²)` of the node's rows, in slice order.
    node: Vec<(usize, f64, f64)>,
}

impl GrowScratch {
    fn new(data: &TrainingSet) -> Self {
        let max_card = data.cards.iter().copied().max().unwrap_or(0);
        GrowScratch {
            weights: vec![0; data.n],
            rows: Vec::new(),
            features: Vec::with_capacity(data.cards.len()),
            buckets: vec![Bucket::default(); max_card],
            right: Vec::new(),
            node: Vec::new(),
        }
    }

    /// Turns a list of row draws into per-row weights and the ascending
    /// list of distinct drawn rows.
    fn weigh(&mut self, draws: impl Iterator<Item = usize>) {
        self.weights.fill(0);
        for row in draws {
            self.weights[row] += 1;
        }
        self.rows.clear();
        self.rows.extend((0..self.weights.len()).filter(|&row| self.weights[row] > 0));
    }
}

/// Stable in-place partition of `idx` by `col[i] <= threshold`; returns
/// the size of the left part.
fn partition(idx: &mut [usize], col: &[u32], threshold: usize, right: &mut Vec<usize>) -> usize {
    right.clear();
    let mut n_left = 0;
    for j in 0..idx.len() {
        let i = idx[j];
        if col[i] as usize <= threshold {
            idx[n_left] = i;
            n_left += 1;
        } else {
            right.push(i);
        }
    }
    idx[n_left..].copy_from_slice(right);
    n_left
}

impl RegressionTree {
    /// Fits a tree on `(xs[i], ys[i])` pairs restricted to `indices`. An
    /// index listed `w` times weighs `w` (a bootstrap sample with
    /// repeats).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or `xs` and `ys` differ in length.
    pub fn fit(
        xs: &[Vec<usize>],
        ys: &[f64],
        indices: &[usize],
        cardinalities: &[usize],
        opts: &TreeOptions,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(xs.len(), ys.len());
        let rows: Vec<usize> = (0..xs.len()).collect();
        let data = TrainingSet::new(xs, ys, &rows, cardinalities);
        let mut scratch = GrowScratch::new(&data);
        scratch.weigh(indices.iter().copied());
        Self::grow_tree(&data, &mut scratch, opts, rng)
    }

    /// Grows one tree per seed on `data`, reusing one scratch: tree `t`
    /// draws `boot` rows uniformly with replacement from the stream
    /// seeded with `seeds[t]`, then its split features from the same
    /// stream.
    pub(crate) fn grow_seeded(
        data: &TrainingSet,
        boot: usize,
        seeds: &[u64],
        opts: &TreeOptions,
    ) -> Vec<Self> {
        let mut scratch = GrowScratch::new(data);
        seeds
            .iter()
            .map(|&seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                scratch.weigh((0..boot).map(|_| rng.gen_range(0..data.n)));
                Self::grow_tree(data, &mut scratch, opts, &mut rng)
            })
            .collect()
    }

    /// Grows a tree on the rows and weights held in `scratch`.
    fn grow_tree(
        data: &TrainingSet,
        scratch: &mut GrowScratch,
        opts: &TreeOptions,
        rng: &mut impl Rng,
    ) -> Self {
        let mut rows = std::mem::take(&mut scratch.rows);
        assert!(!rows.is_empty(), "cannot fit a tree on no samples");
        let root = grow(data, &mut rows, scratch, opts, rng, 0);
        scratch.rows = rows;
        RegressionTree { root }
    }

    /// Predicted value for a configuration.
    pub fn predict(&self, config: &[usize]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    node = if config[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }
}

fn grow(
    data: &TrainingSet,
    idx: &mut [usize],
    scratch: &mut GrowScratch,
    opts: &TreeOptions,
    rng: &mut impl Rng,
    depth: usize,
) -> Node {
    // The node's weighted terms in slice order, contiguous.
    let weights = &scratch.weights;
    let node = &mut scratch.node;
    node.clear();
    node.extend(idx.iter().map(|&i| {
        let w = weights[i];
        (w, w as f64 * data.ys[i], w as f64 * data.ysq[i])
    }));
    let weight: usize = node.iter().map(|&(w, _, _)| w).sum();
    let mean = node.iter().map(|&(_, wy, _)| wy).sum::<f64>() / weight as f64;
    if weight < 2 * opts.min_leaf || depth >= opts.max_depth {
        return Node::Leaf { value: mean };
    }
    let parent_sse: f64 =
        idx.iter().map(|&i| weights[i] as f64 * (data.ys[i] - mean).powi(2)).sum();
    if parent_sse < 1e-18 {
        return Node::Leaf { value: mean };
    }
    let cards = &data.cards;
    let d = cards.len();
    let k = if opts.feature_subsample == 0 { d } else { opts.feature_subsample.min(d) };
    // Sample k distinct features.
    let features = &mut scratch.features;
    features.clear();
    features.extend(0..d);
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
        // Weighted bucket statistics per feature value.
        let col = data.column(f);
        let buckets = &mut scratch.buckets[..card];
        buckets.fill(Bucket::default());
        for (&i, &(w, wy, wysq)) in idx.iter().zip(node.iter()) {
            let bucket = &mut buckets[col[i] as usize];
            bucket.count += w;
            bucket.sum += wy;
            bucket.sumsq += wysq;
        }
        // Prefix scan over thresholds.
        let total_n = weight as f64;
        let total_sum: f64 = buckets.iter().map(|b| b.sum).sum();
        let total_sumsq: f64 = buckets.iter().map(|b| b.sumsq).sum();
        let mut ln = 0.0;
        let mut ls = 0.0;
        let mut lss = 0.0;
        for (t, bucket) in buckets[..card - 1].iter().enumerate() {
            ln += bucket.count as f64;
            ls += bucket.sum;
            lss += bucket.sumsq;
            if bucket.count == 0 {
                // The same split as the previous threshold: an equal gain,
                // which the strict `gain > best` below never takes.
                continue;
            }
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
        None => Node::Leaf { value: mean },
        Some((feature, threshold, _)) => {
            let n_left = partition(idx, data.column(feature), threshold, &mut scratch.right);
            let (li, ri) = idx.split_at_mut(n_left);
            let left = grow(data, li, scratch, opts, rng, depth + 1);
            let right = grow(data, ri, scratch, opts, rng, depth + 1);
            Node::Split { feature, threshold, left: Box::new(left), right: Box::new(right) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid_data(f: impl Fn(&[usize]) -> f64) -> (Vec<Vec<usize>>, Vec<f64>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    let x = vec![a, b, c];
                    ys.push(f(&x));
                    xs.push(x);
                }
            }
        }
        (xs, ys)
    }

    #[test]
    fn fits_separable_function() {
        let (xs, ys) = grid_data(|x| x[0] as f64 * 2.0 - x[2] as f64);
        let idx: Vec<usize> = (0..xs.len()).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = RegressionTree::fit(
            &xs,
            &ys,
            &idx,
            &[4, 4, 4],
            &TreeOptions { min_leaf: 1, ..Default::default() },
            &mut rng,
        );
        let mut worst = 0.0f64;
        for (x, y) in xs.iter().zip(&ys) {
            worst = worst.max((tree.predict(x) - y).abs());
        }
        assert!(worst < 1e-9, "worst residual {worst}");
    }

    #[test]
    fn constant_data_gives_constant_leaf() {
        let (xs, ys) = grid_data(|_| 7.5);
        let idx: Vec<usize> = (0..xs.len()).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let tree =
            RegressionTree::fit(&xs, &ys, &idx, &[4, 4, 4], &TreeOptions::default(), &mut rng);
        assert_eq!(tree.predict(&[0, 0, 0]), 7.5);
        assert_eq!(tree.predict(&[3, 3, 3]), 7.5);
    }

    #[test]
    fn respects_min_leaf() {
        let (xs, ys) = grid_data(|x| x[0] as f64);
        let idx: Vec<usize> = (0..xs.len()).collect();
        let mut rng = StdRng::seed_from_u64(3);
        // Huge min_leaf forces a single leaf = global mean.
        let tree = RegressionTree::fit(
            &xs,
            &ys,
            &idx,
            &[4, 4, 4],
            &TreeOptions { min_leaf: 100, ..Default::default() },
            &mut rng,
        );
        let global_mean = ys.iter().sum::<f64>() / ys.len() as f64;
        assert_eq!(tree.predict(&[0, 0, 0]), global_mean);
    }
}
