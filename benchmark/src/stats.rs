//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by the nearest-rank rule: the smallest
/// sample with at least `q` of the samples at or below it. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median, averaging the middle pair of an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The highest percentile, of 99, 95 and 90, that has at least ten samples
/// beyond it; `None` below 100 samples.
pub fn tail_quantile(count: usize) -> Option<f64> {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|q| count - ((q * count as f64).ceil() as usize).min(count) >= 10)
}

/// Slice-wise minimum across rounds. Every round does identical work in
/// slice `i`, so the minimum drops host interference and keeps what the
/// algorithm itself does there (an alias rebuild, say). Rounds may differ
/// in length only when one was cut short; the common prefix is used.
pub fn slice_min(rounds: &[Vec<f64>]) -> Vec<f64> {
    let len = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Standard deviation over mean, in percent.
pub fn cv_pct(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    if mean == 0.0 {
        0.0
    } else {
        100.0 * var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(500.0));
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs, 1.0), Some(1000.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(250), Some(0.95));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(60), None);
    }

    #[test]
    fn slice_min_filters_a_slow_round_but_keeps_a_common_spike() {
        let quiet = vec![10.0, 10.0, 50.0, 10.0];
        let noisy = vec![10.0, 30.0, 55.0, 12.0];
        assert_eq!(slice_min(&[quiet, noisy]), vec![10.0, 10.0, 50.0, 10.0]);
        assert_eq!(slice_min(&[vec![1.0, 2.0], vec![3.0]]), vec![1.0]);
        assert!(slice_min(&[]).is_empty());
    }

    #[test]
    fn cv_of_a_constant_is_zero() {
        assert_eq!(cv_pct(&[5.0, 5.0, 5.0]), 0.0);
        assert!((cv_pct(&[9.0, 11.0]) - 14.142).abs() < 0.01);
    }
}
