//! Virtual time for the deterministic simulation.
//!
//! The paper's measurements are in milliseconds and microseconds on
//! mid-1980s VAX hardware; we track virtual time in integer nanoseconds,
//! which is fine-grained enough that no calibrated cost loses precision and
//! coarse enough that a `u64` spans centuries of simulated time.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch, as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds since the epoch, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` must not be later than `self`"),
        )
    }

    /// Saturating difference (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero duration.
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

    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds (truncating).
    /// Read by pf-net's and pf-proto's unit tests.
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds, as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Scales by an integer factor.
    pub fn times(self, n: u64) -> Self {
        SimDuration(self.0 * n)
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
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000_000 {
            write!(f, "{:.1} µs", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{:.3} ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(2);
        assert_eq!(t.as_nanos(), 2_000_000);
        let t2 = t + SimDuration::from_micros(500);
        assert_eq!(t2.since(t), SimDuration::from_micros(500));
        assert_eq!(t2.as_millis_f64(), 2.5);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime(100);
        let b = SimTime(200);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration(100));
    }

    #[test]
    #[should_panic(expected = "`earlier` must not be later")]
    fn since_panics_on_reversed_order() {
        let _ = SimTime(100).since(SimTime(200));
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_millis(1).as_micros(), 1000);
        assert_eq!(SimDuration::from_secs(1).as_millis_f64(), 1000.0);
        assert_eq!(SimDuration::from_micros(7).times(3).as_micros(), 21);
    }

    #[test]
    fn display() {
        assert_eq!(SimDuration::from_micros(400).to_string(), "400.0 µs");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000 ms");
        assert_eq!(SimTime(1_500_000).to_string(), "1.500 ms");
    }
}
