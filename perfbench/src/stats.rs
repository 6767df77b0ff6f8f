//! Order statistics over samples: nearest-rank percentiles and the rule
//! that a percentile is reported only when at least ten samples lie
//! beyond it.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` (in `[0, 100]`) among `n`
/// samples: the smallest rank whose share of samples at or below it is at
/// least `p` percent, clamped to `[1, n]`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    // Round the product first so p = 99.9 over 10_000 samples is exactly
    // rank 9_990, not 9_991 from the binary error in 0.999.
    let exact = (p * n as f64 / 100.0 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending). `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    sorted.get(nearest_rank(sorted.len(), p) - 1).copied()
}

/// True when at least [`TAIL_SAMPLES`] of `n` samples lie beyond the
/// nearest rank of percentile `p`.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= TAIL_SAMPLES
}

/// Samples per window of a windowed p99: the fewest that put
/// [`TAIL_SAMPLES`] samples beyond it.
pub const WINDOW_P99: usize = 1000;

/// Samples per window of a windowed p50: small, so a run has many windows
/// and a host stall spoils few of them.
pub const WINDOW_P50: usize = 200;

/// Median, over consecutive windows of at least `window` samples (one
/// window when there are fewer than two windows' worth), of each window's
/// nearest-rank percentile `p`. `values` are in arrival order, so a stall
/// of the host that spoils some windows moves the result only as far as
/// it moves the median window. `None` when empty.
pub fn windowed_percentile(values: &[f64], p: f64, window: usize) -> Option<f64> {
    let n = values.len();
    let windows = (n / window.max(1)).max(1);
    let per_window: Vec<f64> = (0..windows)
        .filter_map(|w| {
            percentile(
                &sorted(values[w * n / windows..(w + 1) * n / windows].to_vec()),
                p,
            )
        })
        .collect();
    if per_window.is_empty() {
        None
    } else {
        Some(median(&per_window))
    }
}

/// Sort ascending (total order; NaN sorts last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median by nearest rank (the lower middle for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0).unwrap_or(0.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // 99.5% of 100 samples needs rank 100 (ceil of 99.5).
        assert_eq!(percentile(&v, 99.5), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p999_rank_is_exact_at_round_counts() {
        assert_eq!(nearest_rank(10_000, 99.9), 9_990);
        assert_eq!(nearest_rank(1_000, 99.9), 999);
        assert_eq!(nearest_rank(1_001, 99.9), 1_000);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 over 1000 samples: rank 990, ten samples beyond.
        assert!(tail_supported(1_000, 99.0));
        assert!(!tail_supported(999, 99.0));
        // p99.9 needs 10_000 samples.
        assert!(tail_supported(10_000, 99.9));
        assert!(!tail_supported(9_999, 99.9));
        assert!(!tail_supported(0, 50.0));
        assert!(tail_supported(20, 50.0));
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Three windows of 1000; the middle one holds a stall.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[1000..1100] {
            *x += 5000.0;
        }
        // Per-window p99: 989, 5099 (the stall), 989.
        assert_eq!(windowed_percentile(&v, 99.0, WINDOW_P99), Some(989.0));
        assert_eq!(percentile(&sorted(v.clone()), 99.0), Some(5069.0));
        // Fewer than two windows' worth: one window, the plain percentile.
        let w: Vec<f64> = (1..=1500).map(f64::from).collect();
        assert_eq!(
            windowed_percentile(&w, 99.0, WINDOW_P99),
            percentile(&w, 99.0)
        );
        assert_eq!(windowed_percentile(&[], 99.0, WINDOW_P99), None);
    }

    #[test]
    fn windowed_p50_ignores_a_stall_over_a_minority_of_windows() {
        // Ten windows of 200 samples 0..199; a stall multiplies four of
        // them by ten. The pooled p50 moves from 99 to 155, the median
        // window's p50 does not.
        let v: Vec<f64> = (0..2000)
            .map(|i| {
                let x = f64::from(i % 200);
                if (200..1000).contains(&i) {
                    10.0 * x
                } else {
                    x
                }
            })
            .collect();
        assert_eq!(windowed_percentile(&v, 50.0, WINDOW_P50), Some(99.0));
        assert_eq!(percentile(&sorted(v), 50.0), Some(155.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
