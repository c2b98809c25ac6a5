//! Regression trees over discrete integer configurations.
//!
//! # The growth kernel
//!
//! A forest fit copies its training rows once into a column-major
//! [`TrainingSet`] (`u32` feature values, plus `ys` and the precomputed
//! squares `ys[i] * ys[i]`) shared by every tree, and reuses one
//! [`GrowScratch`] (feature permutation, per-value buckets, partition
//! staging, the node's `(y, y²)`) across every node of every tree. Each tree grows over one
//! index buffer: a split partitions the node's slice in place, stably,
//! and the children recurse on the two halves. Nothing is allocated per
//! node except the node itself.
//!
//! # Summation-order invariant
//!
//! The fitted trees are bit-identical to the original row-major kernel
//! (frozen in the bench crate and pinned by its `forest_equivalence`
//! suite), and that rests on every floating-point sum adding its terms
//! in the same order:
//!
//! - a node's mean and SSE add `ys[i]` over the node's index slice in
//!   slice order;
//! - each bucket's `sum`/`sumsq` adds its samples' terms in slice order,
//!   starting from `+0.0`, and the bucket totals fold over the buckets in
//!   value order;
//! - the partition is stable, so each child's slice keeps its parent's
//!   order.
//!
//! So a child's buckets must be recounted from its own samples: deriving
//! them by histogram subtraction (parent minus sibling), or reusing a
//! parent's sums in any other way, changes the rounding and therefore
//! the trees. The RNG draws are ordered too: the `k` feature draws of a
//! node precede its children's, and the left subtree grows before the
//! right.

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

/// Tree growth options.
#[derive(Debug, Clone)]
pub struct TreeOptions {
    /// Minimum samples in a leaf.
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

/// Training rows in column-major form, built once per fit.
pub(crate) struct TrainingSet<'a> {
    /// `cols[f * n + j]`: feature `f` of row `j`.
    cols: Vec<u32>,
    n: usize,
    ys: Vec<f64>,
    /// `ys[j] * ys[j]`, the same bits as the inline product.
    ysq: Vec<f64>,
    cards: &'a [usize],
}

impl<'a> TrainingSet<'a> {
    /// Copies `rows` of `(xs, ys)` (row `j` of the set is
    /// `rows[j]` of the input) restricted to the `cards.len()` features.
    ///
    /// # Panics
    ///
    /// Panics if a feature value does not fit in a `u32`.
    pub(crate) fn new(xs: &[Vec<usize>], ys: &[f64], rows: &[usize], cards: &'a [usize]) -> Self {
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
        TrainingSet { cols, n, ys, ysq, cards }
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

/// Buffers reused across every node of every tree in one fit.
pub(crate) struct GrowScratch {
    features: Vec<usize>,
    buckets: Vec<Bucket>,
    right: Vec<usize>,
    /// `(ys[i], ysq[i])` of the node's samples, in slice order.
    node_ys: Vec<(f64, f64)>,
}

impl GrowScratch {
    pub(crate) fn new(cards: &[usize]) -> Self {
        let max_card = cards.iter().copied().max().unwrap_or(0);
        GrowScratch {
            features: Vec::with_capacity(cards.len()),
            buckets: vec![Bucket::default(); max_card],
            right: Vec::new(),
            node_ys: Vec::new(),
        }
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
    /// Fits a tree on `(xs[i], ys[i])` pairs restricted to `indices`.
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
        Self::fit_on(&data, &mut indices.to_vec(), &mut GrowScratch::new(cardinalities), opts, rng)
    }

    /// Fits a tree on the rows of `data` listed in `idx`, which the
    /// growth reorders.
    pub(crate) fn fit_on(
        data: &TrainingSet<'_>,
        idx: &mut [usize],
        scratch: &mut GrowScratch,
        opts: &TreeOptions,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!idx.is_empty(), "cannot fit a tree on no samples");
        RegressionTree { root: grow(data, idx, scratch, opts, rng, 0) }
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
    data: &TrainingSet<'_>,
    idx: &mut [usize],
    scratch: &mut GrowScratch,
    opts: &TreeOptions,
    rng: &mut impl Rng,
    depth: usize,
) -> Node {
    // The node's `(y, y²)` in slice order: the same terms, in the same
    // order, as reading `ys[i]` through `idx`, but contiguous.
    let node_ys = &mut scratch.node_ys;
    node_ys.clear();
    node_ys.extend(idx.iter().map(|&i| (data.ys[i], data.ysq[i])));
    let mean = node_ys.iter().map(|&(y, _)| y).sum::<f64>() / idx.len() as f64;
    if idx.len() < 2 * opts.min_leaf || depth >= opts.max_depth {
        return Node::Leaf { value: mean };
    }
    let parent_sse: f64 = node_ys.iter().map(|&(y, _)| (y - mean).powi(2)).sum();
    if parent_sse < 1e-18 {
        return Node::Leaf { value: mean };
    }
    let cards = data.cards;
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
        // Bucket statistics per feature value.
        let col = data.column(f);
        let buckets = &mut scratch.buckets[..card];
        buckets.fill(Bucket::default());
        for (&i, &(y, ysq)) in idx.iter().zip(node_ys.iter()) {
            let bucket = &mut buckets[col[i] as usize];
            bucket.count += 1;
            bucket.sum += y;
            bucket.sumsq += ysq;
        }
        // Prefix scan over thresholds.
        let total_n = idx.len() as f64;
        let total_sum: f64 = buckets.iter().map(|b| b.sum).sum();
        let total_sumsq: f64 = buckets.iter().map(|b| b.sumsq).sum();
        let mut ln = 0.0;
        let mut ls = 0.0;
        let mut lss = 0.0;
        for (t, bucket) in buckets[..card - 1].iter().enumerate() {
            ln += bucket.count as f64;
            ls += bucket.sum;
            lss += bucket.sumsq;
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
