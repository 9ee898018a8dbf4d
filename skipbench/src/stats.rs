//! Order statistics used by every reported timing.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let sorted = sorted(xs);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (in whole percent, 0 < p < 100) of `xs`,
/// reported only when at least [`TAIL_SAMPLES_BEYOND`] samples lie beyond
/// its rank; `None` otherwise. For p90 that means at least 100 samples.
pub fn tail_percentile(xs: &[f64], p: usize) -> Option<f64> {
    let sorted = sorted(xs);
    let n = sorted.len();
    if n == 0 || p == 0 || p >= 100 {
        return None;
    }
    let rank = nearest_rank(n, p);
    (n - rank >= TAIL_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Smallest sample count for which [`tail_percentile`] reports `p`.
pub fn min_samples_for(p: usize) -> usize {
    (1..)
        .find(|&n| n - nearest_rank(n, p) >= TAIL_SAMPLES_BEYOND)
        .expect("some sample count always suffices for p < 100")
}

/// 1-based rank `ceil(p·n / 100)`, in integers so no rounding moves it.
fn nearest_rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&xs, 90),
            None,
            "99 samples leave 9 beyond p90"
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90), Some(90.0));
        assert_eq!(min_samples_for(90), 100);
    }

    #[test]
    fn tail_rule_counts_samples_strictly_beyond_the_rank() {
        // p50 of 20 samples: rank 10, ten samples beyond.
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 50), Some(10.0));
        assert_eq!(tail_percentile(&xs[..19], 50), None);
        assert_eq!(min_samples_for(50), 20);
        assert_eq!(min_samples_for(99), 1000);
    }

    #[test]
    fn out_of_range_percentiles_are_refused() {
        let xs: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0), None);
        assert_eq!(tail_percentile(&xs, 100), None);
    }
}
