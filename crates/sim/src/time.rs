//! Simulated time.
//!
//! All simulation time is measured in integer nanoseconds from the start of
//! the run. [`Time`] is an absolute instant; [`Nanos`] (a plain `u64`) is a
//! duration. Keeping durations as raw `u64` keeps cost-model arithmetic
//! terse, while the [`Time`] newtype prevents accidentally mixing instants
//! with durations.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

/// An absolute instant of simulated time, in nanoseconds since the start of
/// the simulation.
///
/// `Time` is totally ordered and supports adding a [`Nanos`] duration and
/// subtracting another `Time` (yielding a duration).
///
/// ```
/// use latr_sim::{Time, MICROSECOND};
/// let t = Time::ZERO + 5 * MICROSECOND;
/// assert_eq!(t.as_ns(), 5_000);
/// assert_eq!(t - Time::ZERO, 5_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; useful as an "infinitely far away"
    /// sentinel when computing minima.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant `ns` nanoseconds after the start of the simulation.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns)
    }

    /// Returns the instant as nanoseconds since the start of the simulation.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the instant in (fractional) microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / MICROSECOND as f64
    }

    /// Returns the instant in (fractional) seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / SECOND as f64
    }

    /// Saturating duration since `earlier`; zero if `earlier` is later than
    /// `self`.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Nanos {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of `self` and `other`.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of `self` and `other`.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<Nanos> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Nanos) -> Time {
        Time(self.0 + rhs)
    }
}

impl AddAssign<Nanos> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Nanos;
    /// Duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Time) -> Nanos {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        self.0 - rhs.0
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= SECOND {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= MILLISECOND {
            write!(f, "{:.3}ms", self.0 as f64 / MILLISECOND as f64)
        } else if self.0 >= MICROSECOND {
            write!(f, "{:.3}us", self.as_us())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration() {
        let t = Time::from_ns(100) + 50;
        assert_eq!(t.as_ns(), 150);
    }

    #[test]
    fn add_assign_duration() {
        let mut t = Time::from_ns(1);
        t += 2;
        assert_eq!(t, Time::from_ns(3));
    }

    #[test]
    fn subtract_instants() {
        assert_eq!(Time::from_ns(150) - Time::from_ns(100), 50);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time went backwards")]
    fn subtract_reversed_panics_in_debug() {
        let _ = Time::from_ns(1) - Time::from_ns(2);
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(Time::from_ns(1).saturating_since(Time::from_ns(2)), 0);
        assert_eq!(Time::from_ns(5).saturating_since(Time::from_ns(2)), 3);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Time::from_ns(1);
        let b = Time::from_ns(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Time::from_ns(5).to_string(), "5ns");
        assert_eq!(Time::from_ns(5_000).to_string(), "5.000us");
        assert_eq!(Time::from_ns(5_000_000).to_string(), "5.000ms");
        assert_eq!(Time::from_ns(5_000_000_000).to_string(), "5.000s");
    }

    #[test]
    fn conversions() {
        let t = Time::from_ns(2_500_000_000);
        assert!((t.as_secs() - 2.5).abs() < 1e-12);
        assert!((t.as_us() - 2_500_000.0).abs() < 1e-9);
    }
}
