//! Summary statistics for the run record: medians, the tail-percentile
//! rule, and failure fractions.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The percentiles the tail rule considers, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must have strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A latency tail reported by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 means the maximum, used only when
    /// no percentile has enough samples beyond it).
    pub percentile: f64,
    /// The latency at that percentile (nearest-rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
    /// Whether the reported percentile meets the ≥ [`TAIL_MIN_BEYOND`]
    /// rule (`false` only for the maximum fallback).
    pub rule_met: bool,
}

impl Tail {
    /// Which percentile this is and how many samples lie beyond it.
    pub fn describe(&self) -> String {
        format!(
            "p{} with {} of {} samples beyond{}",
            self.percentile,
            self.beyond,
            self.samples,
            if self.rule_met { "" } else { " (too few samples for the rule: the maximum)" }
        )
    }
}

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, by nearest rank: percentile `p` of `n` sorted samples is
/// the sample at 1-based rank `ceil(p/100 · n)`, and the samples beyond
/// it are the `n − rank` above that rank. Runs too short for any
/// percentile to qualify report their maximum with `rule_met = false`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = sorted.len();
    for p in TAIL_PERCENTILES {
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        let beyond = n - rank;
        if beyond >= TAIL_MIN_BEYOND {
            return Tail {
                percentile: p,
                value: sorted[rank - 1],
                beyond,
                samples: n,
                rule_met: true,
            };
        }
    }
    Tail { percentile: 100.0, value: sorted[n - 1], beyond: 0, samples: n, rule_met: false }
}

/// Completions per second as the median over `bins` equal slices of a
/// window of `window_s` seconds (`ends` are completion times from the
/// window's start). A median of slice rates, unlike the overall mean,
/// is not dragged by a short stall of the host.
pub fn windowed_rate(ends: &[f64], window_s: f64, bins: usize) -> f64 {
    assert!(bins >= 1 && window_s > 0.0, "empty window");
    let width = window_s / bins as f64;
    let mut counts = vec![0usize; bins];
    for &end in ends {
        let bin = ((end / width) as usize).min(bins - 1);
        counts[bin] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

/// Failed or refused requests over attempted ones. A refused request
/// never ran, so it counts as a failure (and as missing every latency
/// limit), not as a shorter run.
pub fn failed_frac(attempted: usize, failed: usize, refused: usize) -> f64 {
    assert!(attempted >= 1, "no request was attempted");
    (failed + refused) as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 is rank 90 with exactly 10 beyond; p95 has 5.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert!(t.rule_met);
        // 99 samples: p90 is rank 90 with only 9 beyond, so p75 it is.
        let t = tail(&values[..99]);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.beyond, 99 - 75);
        // 1000 samples: p99 is rank 990, exactly 10 beyond.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.percentile, t.beyond), (99.0, 10));
    }

    #[test]
    fn tail_sample_count_is_reported_and_order_free() {
        let mut values: Vec<f64> = (0..40).map(|k| ((k * 17) % 40) as f64).collect();
        let a = tail(&values);
        values.reverse();
        assert_eq!(a, tail(&values));
        assert_eq!(a.samples, 40);
        assert_eq!(a.percentile, 75.0);
        assert_eq!(a.beyond, 10);
    }

    #[test]
    fn short_runs_fall_back_to_the_maximum_and_say_so() {
        let t = tail(&[0.5, 2.0, 1.0]);
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (100.0, 2.0, 0, 3));
        assert!(!t.rule_met);
        // 20 samples: p50 is rank 10 with 10 beyond, the rule is met.
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
        assert!(t.rule_met);
    }

    #[test]
    fn windowed_rate_is_the_median_slice_rate() {
        // 10 s window, 5 slices of 2 s: 4, 4, 0 (a stall), 4, 6 completions.
        let mut ends = Vec::new();
        for (slice, count) in [4, 4, 0, 4, 6].into_iter().enumerate() {
            ends.extend((0..count).map(|k| 2.0 * slice as f64 + 0.1 + 0.3 * k as f64));
        }
        assert_eq!(windowed_rate(&ends, 10.0, 5), 2.0);
        // Completions at the very end of the window land in the last slice.
        assert_eq!(windowed_rate(&[10.0], 10.0, 1), 0.1);
    }

    #[test]
    fn failed_frac_counts_refusals() {
        assert_eq!(failed_frac(10, 0, 0), 0.0);
        assert_eq!(failed_frac(10, 1, 0), 0.1);
        // Refused submissions never ran but still count against the run.
        assert_eq!(failed_frac(10, 0, 2), 0.2);
        assert_eq!(failed_frac(8, 1, 1), 0.25);
    }
}
