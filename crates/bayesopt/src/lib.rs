//! Discrete Bayesian optimization with a random-forest surrogate.
//!
//! This is the search engine of CAFQA's classical loop (paper §5): the
//! Clifford parameter space is discrete (`4^#params`), so the surrogate
//! is a bagged [`RandomForest`] over integer configurations and the
//! acquisition is greedy (ε-greedy) over a candidate pool of incumbent
//! mutations and uniform samples, after a random warm-up phase — the
//! HyperMapper recipe the paper follows.
//!
//! The objective is a **batch** function (`&[Vec<usize>] → Vec<f64>`):
//! warm-up arrives as one embarrassingly-parallel batch and the
//! acquisition proposes the top-B predicted candidates per surrogate
//! refit ([`BoOptions::proposals_per_refit`]), so callers can shard
//! evaluation over a worker pool. Surrogate fits and scoring shard over
//! the [`Executor`] seam — `cafqa_core`'s persistent engine implements
//! it, [`SerialExec`] is the dependency-free default. At Cr2 scale the
//! refit *itself* is bounded by [`ForestOptions::window`] (fit on a
//! recent window plus the incumbent instead of the whole history); the
//! knobs and their determinism contract are documented on
//! [`BoOptions`](BoOptions#determinism-and-refit-cadence).
//!
//! [`minimize`] runs the loop to completion; [`BoSearch`] is the same
//! loop as an ask/tell state object (`propose` a batch, `observe` its
//! values, `finish`) for callers that evaluate batches on their own
//! schedule — the CAFQA job server parks a search between slices this
//! way, bit-identically to the uninterrupted run.
//!
//! # Examples
//!
//! ```
//! use cafqa_bayesopt::{minimize, BoOptions, SearchSpace};
//!
//! let space = SearchSpace::uniform(4, 4);
//! let opts = BoOptions { warmup: 20, iterations: 40, ..Default::default() };
//! let result = minimize(
//!     &space,
//!     |batch| batch.iter().map(|c| c.iter().sum::<usize>() as f64).collect(),
//!     &[],
//!     &opts,
//! );
//! assert_eq!(result.best_value, 0.0); // all-zeros config
//! ```
#![warn(missing_docs)]

mod exec;
mod forest;
mod search;
mod tree;

pub use exec::{map_jobs, Executor, Job, SerialExec};
pub use forest::{ForestOptions, RandomForest};
pub use search::{minimize, minimize_with, BoOptions, BoResult, BoSearch, Evaluation, SearchSpace};
pub use tree::{RegressionTree, TreeOptions};
