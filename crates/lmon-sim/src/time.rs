//! Virtual time for the simulator: nanosecond ticks with ergonomic
//! constructors and arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of virtual time, in nanoseconds.
///
/// A distinct type (rather than `std::time::Duration`) keeps simulated and
/// wall-clock time from being mixed accidentally; conversions are explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// From fractional seconds (rounds to nanoseconds; negative clamps to 0).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    /// As nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scale by a dimensionless factor.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
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

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, fractional.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier` (saturates at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max_of(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3000));
        assert_eq!(SimDuration::from_micros(5), SimDuration::from_nanos(5000));
        assert_eq!(SimDuration::from_secs_f64(0.25), SimDuration::from_millis(250));
    }

    #[test]
    fn arithmetic_and_ordering() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(10);
        let t2 = t1 + SimDuration::from_millis(5);
        assert!(t2 > t1 && t1 > t0);
        assert_eq!(t2 - t0, SimDuration::from_millis(15));
        assert_eq!(t0 - t2, SimDuration::ZERO, "since() saturates");
        assert_eq!(t1.max_of(t2), t2);
        assert_eq!(t2.max_of(t1), t2);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_uses_sensible_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert!(SimTime(1_500_000_000).to_string().starts_with("t+1.5"));
    }

    #[test]
    fn sum_and_scale() {
        let total: SimDuration = [1u64, 2, 3].into_iter().map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(6));
        assert_eq!(SimDuration::from_millis(10).mul_f64(2.5), SimDuration::from_millis(25));
    }
}
