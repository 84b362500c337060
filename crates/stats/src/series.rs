//! Windowed time series.
//!
//! The paper's evaluation plots cumulative progress (Figures 6, 8, 9) and
//! windowed rates (Figure 5: average iterations per second over a series of
//! 8-second windows). [`ProgressSeries`] records monotonically increasing
//! progress counters against simulation time and derives both views.

/// A `(time, value)` progress recording for one task.
///
/// Times are arbitrary `u64` units (the simulator uses microseconds);
/// values are cumulative counters (iterations, frames, queries).
#[derive(Debug, Clone, Default)]
pub struct ProgressSeries {
    points: Vec<(u64, f64)>,
}

impl ProgressSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `time` moves backwards — the simulator's clock is
    /// monotone, so a regression is a caller bug.
    pub fn record(&mut self, time: u64, value: f64) {
        if let Some(&(t, _)) = self.points.last() {
            assert!(time >= t, "time moved backwards: {time} < {t}");
        }
        self.points.push((time, value));
    }

    /// Raw points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The cumulative value at `time`: the last observation at or before it
    /// (zero before the first observation).
    pub fn value_at(&self, time: u64) -> f64 {
        match self.points.binary_search_by_key(&time, |&(t, _)| t) {
            Ok(mut i) => {
                // Ties: take the last observation at this timestamp.
                while i + 1 < self.points.len() && self.points[i + 1].0 == time {
                    i += 1;
                }
                self.points[i].1
            }
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// The cumulative curve sampled at multiples of `step` up to `end`
    /// inclusive — the series the paper's cumulative plots draw.
    pub fn sampled(&self, step: u64, end: u64) -> Vec<(u64, f64)> {
        assert!(step > 0, "step must be positive");
        let mut out = Vec::new();
        let mut t = 0u64;
        loop {
            out.push((t, self.value_at(t)));
            if t >= end {
                break;
            }
            t = (t + step).min(end);
        }
        out
    }

    /// Total value accrued over the whole series.
    pub fn final_value(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_series() -> ProgressSeries {
        // Value grows 2 per time unit.
        let mut s = ProgressSeries::new();
        for t in 0..=100u64 {
            s.record(t, (t * 2) as f64);
        }
        s
    }

    #[test]
    fn value_at_interpolates_stepwise() {
        let mut s = ProgressSeries::new();
        s.record(10, 5.0);
        s.record(20, 9.0);
        assert_eq!(s.value_at(0), 0.0);
        assert_eq!(s.value_at(10), 5.0);
        assert_eq!(s.value_at(15), 5.0);
        assert_eq!(s.value_at(20), 9.0);
        assert_eq!(s.value_at(1000), 9.0);
    }

    #[test]
    fn duplicate_timestamps_take_last() {
        let mut s = ProgressSeries::new();
        s.record(5, 1.0);
        s.record(5, 2.0);
        s.record(5, 3.0);
        assert_eq!(s.value_at(5), 3.0);
    }

    #[test]
    fn sampled_endpoints() {
        let s = linear_series();
        let pts = s.sampled(25, 100);
        assert_eq!(pts.first(), Some(&(0, 0.0)));
        assert_eq!(pts.last(), Some(&(100, 200.0)));
        assert_eq!(pts.len(), 5);
    }

    #[test]
    fn sampled_clamps_to_end() {
        let s = linear_series();
        let pts = s.sampled(40, 100);
        assert_eq!(
            pts.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![0, 40, 80, 100]
        );
    }

    #[test]
    #[should_panic(expected = "time moved backwards")]
    fn time_regression_panics() {
        let mut s = ProgressSeries::new();
        s.record(10, 1.0);
        s.record(9, 2.0);
    }

    #[test]
    fn final_value() {
        let s = linear_series();
        assert_eq!(s.final_value(), 200.0);
        assert_eq!(ProgressSeries::new().final_value(), 0.0);
    }
}
