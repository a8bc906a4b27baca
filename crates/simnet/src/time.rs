//! Virtual time primitives.
//!
//! All timestamps in the simulation are nanoseconds since the start of the
//! run, mirroring the nanosecond-level timestamping MopEye uses on Android
//! (`System.nanoTime()`); the paper identifies coarse timestamps as one of
//! the reasons MobiPerf's RTTs are inaccurate (§4.1.1).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in virtual time, stored as nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: Self = Self(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Creates a duration from a floating-point number of milliseconds.
    ///
    /// Negative and non-finite inputs are clamped to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return Self::ZERO;
        }
        Self(round_positive(ms * 1_000_000.0))
    }

    /// The duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in whole microseconds.
    pub(crate) const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Checked multiplication by an integer factor.
    pub fn saturating_mul(self, factor: u64) -> Self {
        Self(self.0.saturating_mul(factor))
    }
}

impl Add for SimDuration {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{}us", self.as_micros())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A point in virtual time: nanoseconds since the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: Self = Self(0);

    /// Creates a time from nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates a time from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Creates a time from seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The elapsed duration since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two times.
    pub(crate) fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = Self;
    fn add(self, rhs: SimDuration) -> Self {
        Self(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_nanos(self.0))
    }
}

/// `x.round() as u64` for a positive `x`, without calling `f64::round`
/// below 2^52 (on baseline x86-64 that is a library call, and every latency
/// draw ends in it). There the truncation `t` is exact, and so is `x - t`
/// (Sterbenz: `t <= x < 2t` once `t >= 1`), so comparing the fraction with
/// one half rounds half away from zero exactly as `round` does. From 2^52
/// up every `f64` is already an integer.
fn round_positive(x: f64) -> u64 {
    const EXACT_FRACTIONS: f64 = (1u64 << 52) as f64;
    if x >= EXACT_FRACTIONS {
        return x.round() as u64;
    }
    let truncated = x as u64;
    truncated + u64::from(x - truncated as f64 >= 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_rounding_matches_f64_round() {
        let two_52 = (1u64 << 52) as f64;
        let mut values = vec![
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            4_503_599_627_370_495.5, // 2^52 - 0.5, the last tie below 2^52
            two_52,
            two_52 + 1.0,
            two_52 * 2.0 + 2.0,
            f64::MIN_POSITIVE,
            5e-324,
            1e-300,
            1.8446744073709552e19, // 2^64: saturates
            1e300,
            f64::MAX,
        ];
        for k in 0..1_000u64 {
            let k = k as f64;
            values.extend([k + 0.5, k + 0.49999999999999994, k + 0.5000000000000001, k + 0.25]);
        }
        let mut x = two_52;
        for _ in 0..64 {
            x = f64::from_bits(x.to_bits() - 1); // walks down from 2^52 one ulp at a time
            values.push(x);
        }
        let mut x = 1e-9;
        while x < 1e22 {
            values.push(x);
            x *= 1.0137;
        }
        for &x in &values {
            assert_eq!(round_positive(x), x.round() as u64, "{x:e}");
            let ms = x / 1e6;
            assert_eq!(SimDuration::from_millis_f64(ms).as_nanos(), (ms * 1e6).round() as u64);
        }
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert!((SimDuration::from_millis(76).as_millis_f64() - 76.0).abs() < 1e-9);
    }

    #[test]
    fn float_millis_clamps_bad_input() {
        assert_eq!(SimDuration::from_millis_f64(-5.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1500);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_millis(100);
        let t1 = t0 + SimDuration::from_millis(76);
        assert_eq!((t1 - t0), SimDuration::from_millis(76));
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
        assert_eq!(t1.max(t0), t1);
        assert_eq!(t1.min(t0), t0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(500).to_string(), "500ns");
        assert_eq!(SimDuration::from_micros(42).to_string(), "42us");
        assert_eq!(SimDuration::from_millis(1).to_string(), "1.000ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
        assert!(SimTime::from_millis(5).to_string().starts_with("t+"));
    }

    #[test]
    fn sum_and_scaling() {
        let total: SimDuration =
            [SimDuration::from_millis(1), SimDuration::from_millis(2)].into_iter().sum();
        assert_eq!(total, SimDuration::from_millis(3));
        assert_eq!(SimDuration::from_millis(10).saturating_mul(3), SimDuration::from_millis(30));
    }
}
