//! Simulated time.
//!
//! The simulator's clock counts microseconds in a `u64`, giving more than
//! half a million simulated years of range — far beyond any experiment.
//! Newtypes keep instants and durations from being confused and make every
//! experiment parameter (`quantum`, run lengths, window sizes) explicit
//! about units.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// An instant `us` microseconds after the epoch.
    pub const fn from_us(us: u64) -> Self {
        Self(us)
    }

    /// An instant `ms` milliseconds after the epoch.
    pub const fn from_ms(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// An instant `s` seconds after the epoch.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics when `earlier` is later than `self`; the simulator's clock is
    /// monotone, so this indicates a harness bug.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is later than self"),
        )
    }

    /// Saturating duration since `earlier` (zero when `earlier` is later).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        Self(us)
    }

    /// `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000)
    }

    /// Microseconds.
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// Seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Whether the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The fraction `self / whole`, for compensation factors.
    ///
    /// Returns 1.0 when `whole` is zero.
    pub fn fraction_of(self, whole: SimDuration) -> f64 {
        if whole.0 == 0 {
            1.0
        } else {
            self.0 as f64 / whole.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ms(5).as_us(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_us(), 1_000_000);
        assert!((SimTime::from_ms(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(10) + SimDuration::from_ms(5);
        assert_eq!(t, SimTime::from_ms(15));
        assert_eq!(t.since(SimTime::from_ms(10)), SimDuration::from_ms(5));
        let mut d = SimDuration::from_ms(1);
        d += SimDuration::from_us(500);
        assert_eq!(d.as_us(), 1_500);
        assert_eq!(d * 2, SimDuration::from_us(3_000));
        assert_eq!(d / 3, SimDuration::from_us(500));
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_ms(1);
        let late = SimTime::from_ms(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_us(1).saturating_sub(SimDuration::from_us(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn since_panics_on_regression() {
        let _ = SimTime::from_ms(1).since(SimTime::from_ms(2));
    }

    #[test]
    fn fraction_of() {
        let q = SimDuration::from_ms(100);
        assert_eq!(SimDuration::from_ms(20).fraction_of(q), 0.2);
        assert_eq!(SimDuration::from_ms(20).fraction_of(SimDuration::ZERO), 1.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_us(7)), "7us");
        assert_eq!(format!("{}", SimDuration::from_ms(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(3)), "3.000s");
    }

    #[test]
    fn min_and_is_zero() {
        assert_eq!(
            SimDuration::from_ms(2).min(SimDuration::from_ms(1)),
            SimDuration::from_ms(1)
        );
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_us(1).is_zero());
    }
}
