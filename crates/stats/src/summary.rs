//! Online summary statistics.
//!
//! Welford's algorithm keeps numerically stable running mean and variance
//! without storing samples — the experiment drivers feed millions of
//! per-quantum observations through these accumulators. A
//! [`LazySummary`] is one that most of its owners never record into: it
//! costs a pointer until its first sample.

use core::ops::Deref;

/// Streaming mean / variance / extrema accumulator.
///
/// # Examples
///
/// ```
/// use lottery_stats::summary::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub const fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice in one pass.
    pub fn of(samples: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in samples {
            s.record(x);
        }
        s
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (divides by `n - 1`); zero for fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Coefficient of variation (`stddev / mean`); zero when the mean is.
    ///
    /// Section 2 of the paper predicts `cv = sqrt((1 - p) / (n p))` for a
    /// client's observed win proportion.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.stddev() / m
        }
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

/// The summary every [`LazySummary`] reads as until its first sample.
static EMPTY: Summary = Summary::new();

/// A [`Summary`] boxed on its first sample: a pointer until then, and an
/// empty summary to every reader through `Deref`.
#[derive(Debug, Default)]
pub struct LazySummary(Option<Box<Summary>>);

impl LazySummary {
    /// Adds one observation, allocating the summary on the first.
    pub fn record(&mut self, x: f64) {
        self.0.get_or_insert_default().record(x);
    }
}

impl Deref for LazySummary {
    type Target = Summary;

    fn deref(&self) -> &Summary {
        self.0.as_deref().unwrap_or(&EMPTY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn default_is_empty() {
        assert_eq!(Summary::default(), Summary::new());
        assert_eq!(Summary::default().min(), f64::INFINITY);
        assert_eq!(Summary::default().max(), f64::NEG_INFINITY);
    }

    #[test]
    fn lazy_summary_reads_empty_until_recorded() {
        let mut lazy = LazySummary::default();
        assert_eq!(*lazy, Summary::new());
        for x in [3.0, 1.0, 2.0] {
            lazy.record(x);
        }
        assert_eq!(*lazy, Summary::of(&[3.0, 1.0, 2.0]));
        let mut merged = Summary::new();
        merged.merge(&lazy);
        assert_eq!(merged.sum(), 6.0);
    }

    #[test]
    fn single_observation() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn known_variance() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole = Summary::of(&all);
        let mut left = Summary::of(&all[..37]);
        let right = Summary::of(&all[37..]);
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Summary::of(&[1.0, 2.0]);
        a.merge(&Summary::new());
        assert_eq!(a.count(), 2);
        let mut b = Summary::new();
        b.merge(&Summary::of(&[1.0, 2.0]));
        assert_eq!(b.count(), 2);
        assert_eq!(b.mean(), 1.5);
    }

    #[test]
    fn cv_matches_direct_computation() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert!((s.cv() - s.stddev() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn sum_roundtrips() {
        let s = Summary::of(&[1.5, 2.5, 6.0]);
        assert!((s.sum() - 10.0).abs() < 1e-12);
    }
}
