//! Fixed-width histograms.
//!
//! Figure 11 of the paper reports mutex waiting times as frequency
//! histograms annotated with the mean and one standard deviation; this
//! module provides exactly that.

use crate::summary::Summary;

/// A histogram over `[lo, hi)` with equal-width buckets plus overflow /
/// underflow counters.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    summary: Summary,
}

impl Histogram {
    /// Creates a histogram spanning `[lo, hi)` with `buckets` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `buckets == 0`; histogram shape is a static
    /// configuration error, not a runtime condition.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Self {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            summary: Summary::new(),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.summary.record(x);
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.buckets.len() as f64;
            let i = ((x - self.lo) / w) as usize;
            // Floating division can round up to the bucket count at the
            // extreme top of the range.
            let i = i.min(self.buckets.len() - 1);
            self.buckets[i] += 1;
        }
    }

    /// Bucket counts, in range order.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The half-open value range covered by bucket `i`.
    fn bucket_range(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range top.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Summary statistics over *all* observations, including out-of-range
    /// ones.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the bucket counts by
    /// linear interpolation within the containing bucket.
    ///
    /// Underflow counts map to the range bottom and overflow counts to the
    /// range top; returns `None` when no observations were recorded.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = q * total as f64;
        let mut seen = self.underflow as f64;
        if rank <= seen {
            return Some(self.lo);
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            let next = seen + c as f64;
            if rank <= next && c > 0 {
                let (lo, hi) = self.bucket_range(i);
                let frac = (rank - seen) / c as f64;
                return Some(lo + (hi - lo) * frac);
            }
            seen = next;
        }
        Some(self.hi)
    }

    /// Renders an ASCII bar chart, `width` characters at the tallest bar.
    ///
    /// The output mimics Figure 11: one row per bucket, the mean marked in
    /// the annotation line below.
    pub fn render(&self, width: usize) -> String {
        let tallest = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            let (lo, hi) = self.bucket_range(i);
            let bar = "#".repeat((c as usize * width).div_ceil(tallest as usize).min(width));
            out.push_str(&format!("[{lo:8.2}, {hi:8.2}) {c:6} {bar}\n"));
        }
        out.push_str(&format!(
            "mean = {:.3}, stddev = {:.3}, n = {} (under {}, over {})\n",
            self.summary.mean(),
            self.summary.stddev(),
            self.count(),
            self.underflow,
            self.overflow,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.5);
        h.record(9.99);
        h.record(5.0);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.buckets()[5], 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn out_of_range_counted() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.buckets().iter().sum::<u64>(), 0);
        // Summary still sees everything.
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn bucket_ranges_tile_the_domain() {
        let h = Histogram::new(2.0, 4.0, 4);
        assert_eq!(h.bucket_range(0), (2.0, 2.5));
        assert_eq!(h.bucket_range(3), (3.5, 4.0));
    }

    #[test]
    fn top_edge_rounding_is_clamped() {
        // A value just below `hi` whose division rounds to the bucket count
        // must land in the last bucket, not panic.
        let mut h = Histogram::new(0.0, 0.3, 3);
        h.record(0.3 - 1e-17);
        assert_eq!(h.buckets().iter().sum::<u64>() + h.overflow(), 1);
    }

    #[test]
    fn render_contains_mean() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(1.0);
        h.record(9.0);
        let s = h.render(10);
        assert!(s.contains("mean = 5.000"), "{s}");
    }

    #[test]
    fn percentile_interpolates() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let p50 = h.percentile(0.5).unwrap();
        assert!((p50 - 50.0).abs() < 1.5, "{p50}");
        let p99 = h.percentile(0.99).unwrap();
        assert!((p99 - 99.0).abs() < 1.5, "{p99}");
        assert_eq!(h.percentile(0.0).unwrap(), 0.0);
        assert_eq!(h.percentile(1.0).unwrap(), 100.0);
    }

    #[test]
    fn percentile_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn percentile_overflow_maps_to_top() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(100.0);
        h.record(200.0);
        assert_eq!(h.percentile(0.9), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn percentile_out_of_range_panics() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(0.5);
        let _ = h.percentile(1.5);
    }

    #[test]
    #[should_panic(expected = "histogram range")]
    fn empty_range_panics() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
