//! Property contract of windowed surrogate refits: the no-op window
//! configurations (`window == 0` and any `window >= history.len()`) must
//! reproduce the classic full-history `RandomForest::fit` **bit for
//! bit**, on the **same RNG stream** — window selection draws no
//! randomness, so the bootstrap indices, the tree structure and every
//! prediction are unchanged.

use cafqa_bayesopt::{minimize, BoOptions, ForestOptions, RandomForest, SearchSpace, SerialExec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: usize = 6;
const CARD: usize = 4;

/// A deterministic random history of `n` evaluations.
fn random_history(seed: u64, n: usize) -> (Vec<Vec<usize>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<usize>> =
        (0..n).map(|_| (0..DIMS).map(|_| rng.gen_range(0..CARD)).collect()).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            let base: f64 = x.iter().map(|&v| (v as f64 - 1.3).powi(2)).sum();
            base + rng.gen::<f64>()
        })
        .collect();
    (xs, ys)
}

fn fit_with_window(
    xs: &[Vec<usize>],
    ys: &[f64],
    window: usize,
    rng_seed: u64,
) -> (RandomForest, StdRng) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let opts = ForestOptions { window, ..Default::default() };
    let forest = RandomForest::fit(xs, ys, &[CARD; DIMS], &opts, &mut rng, &SerialExec);
    (forest, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `window = 0` and `window >= n` are exact no-ops: identical
    /// predictions on arbitrary probes, and identical RNG state after
    /// the fit (proving the same draws were consumed).
    #[test]
    fn noop_windows_reproduce_full_fit_bitwise(
        data_seed in 0u64..10_000,
        rng_seed in 0u64..10_000,
        n in 5usize..120,
        slack in 0usize..40,
    ) {
        let (xs, ys) = random_history(data_seed, n);
        for window in [n, n + slack, usize::MAX] {
            let (reference, mut reference_rng) = fit_with_window(&xs, &ys, 0, rng_seed);
            let (forest, mut rng) = fit_with_window(&xs, &ys, window, rng_seed);
            // Same RNG stream: the generators are in identical states.
            for _ in 0..4 {
                prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
            }
            // Bit-identical predictions everywhere we probe.
            let mut probe_rng = StdRng::seed_from_u64(data_seed ^ 0xABCD);
            for _ in 0..32 {
                let probe: Vec<usize> =
                    (0..DIMS).map(|_| probe_rng.gen_range(0..CARD)).collect();
                prop_assert_eq!(
                    forest.predict(&probe).to_bits(),
                    reference.predict(&probe).to_bits()
                );
            }
        }
    }

    /// A binding window still yields a valid forest, and the incumbent's
    /// neighborhood stays represented: predictions remain finite and the
    /// fit only sees `window + 1` samples (cost contract — indirectly
    /// observed through determinism: two fits over histories that agree
    /// on the window and the incumbent are identical).
    #[test]
    fn binding_window_ignores_pre_window_noise(
        data_seed in 0u64..10_000,
        rng_seed in 0u64..10_000,
        n in 40usize..120,
        window in 8usize..32,
    ) {
        let (xs, ys) = random_history(data_seed, n);
        // Locate the incumbent as the windowed fit defines it.
        let incumbent = ys
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        let (forest, _) = fit_with_window(&xs, &ys, window, rng_seed);
        // Scramble everything outside the window and the incumbent: the
        // windowed fit must not see any of it.
        let mut scrambled_ys = ys.clone();
        for i in 0..n - window {
            if i != incumbent {
                scrambled_ys[i] += 1e6;
            }
        }
        // The scramble may not displace the incumbent (1e6 dwarfs the
        // objective scale, and the incumbent itself is untouched).
        let (scrambled, _) = fit_with_window(&xs, &scrambled_ys, window, rng_seed);
        let mut probe_rng = StdRng::seed_from_u64(data_seed ^ 0xF00D);
        for _ in 0..16 {
            let probe: Vec<usize> = (0..DIMS).map(|_| probe_rng.gen_range(0..CARD)).collect();
            prop_assert_eq!(
                forest.predict(&probe).to_bits(),
                scrambled.predict(&probe).to_bits()
            );
        }
    }
}

/// End-to-end no-op equivalence through `minimize`: a huge window and the
/// classic full-history refits produce the *same search trace*, bit for
/// bit (windowing changes nothing until it binds).
#[test]
fn minimize_with_huge_window_matches_full_history() {
    let space = SearchSpace::uniform(8, 4);
    let objective = |batch: &[Vec<usize>]| {
        batch
            .iter()
            .map(|c| {
                c.iter()
                    .enumerate()
                    .map(|(i, &v)| (v as f64 - ((i * 3 + 1) % 4) as f64).powi(2))
                    .sum::<f64>()
            })
            .collect::<Vec<f64>>()
    };
    let run = |window: usize| {
        let opts = BoOptions {
            warmup: 40,
            iterations: 80,
            seed: 0xCAF9A,
            forest: ForestOptions { window, ..Default::default() },
            ..Default::default()
        };
        minimize(&space, objective, &[], &opts)
    };
    let full = run(0);
    let huge = run(1 << 30);
    assert_eq!(full.history.len(), huge.history.len());
    for (a, b) in full.history.iter().zip(&huge.history) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.best_so_far.to_bits(), b.best_so_far.to_bits());
    }
    assert_eq!(full.best_config, huge.best_config);
    assert_eq!(full.iterations_to_best, huge.iterations_to_best);
}
