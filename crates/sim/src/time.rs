//! Virtual-time arithmetic.
//!
//! All simulated clocks in the workspace are nanosecond counters. The paper
//! reports overheads in microseconds and runtimes in milliseconds; keeping a
//! nanosecond base unit lets cost models express sub-microsecond per-element
//! charges (e.g. 291.7 ns per synapse in the neural-network model) without
//! rounding error accumulating over millions of operations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on a simulated clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualDuration(u64);

impl VirtualTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: VirtualTime = VirtualTime(0);
    /// The latest representable instant; used as an "idle forever" sentinel.
    pub const MAX: VirtualTime = VirtualTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        VirtualTime(ns)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the epoch (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional milliseconds since the epoch.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// The duration since an earlier instant. Panics in debug builds if
    /// `earlier` is actually later.
    pub fn since(self, earlier: VirtualTime) -> VirtualDuration {
        debug_assert!(earlier.0 <= self.0, "since() with a later instant");
        VirtualDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max_of(self, other: VirtualTime) -> VirtualTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl VirtualDuration {
    /// The zero-length span.
    pub const ZERO: VirtualDuration = VirtualDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        VirtualDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        VirtualDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        VirtualDuration(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        VirtualDuration(s * 1_000_000_000)
    }

    /// Construct from fractional microseconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs clamp to zero.
    pub fn from_us_f64(us: f64) -> Self {
        if !us.is_finite() || us <= 0.0 {
            return VirtualDuration(0);
        }
        VirtualDuration((us * 1_000.0).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1.0e3
    }

    /// Fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// True if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0.saturating_add(rhs.0))
    }

    /// Multiply by an integer count (e.g. per-element cost × element count).
    pub const fn times(self, n: u64) -> VirtualDuration {
        VirtualDuration(self.0 * n)
    }

    /// Scale by a float factor, rounding to the nearest nanosecond.
    /// Computed directly in nanoseconds so `scaled(1.0)` is the identity
    /// for any span an experiment can produce (a round-trip through
    /// fractional microseconds would shave nanoseconds off long spans).
    /// Negative or non-finite factors clamp to zero.
    pub fn scaled(self, factor: f64) -> VirtualDuration {
        if !factor.is_finite() || factor <= 0.0 {
            return VirtualDuration::ZERO;
        }
        VirtualDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<VirtualDuration> for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: VirtualDuration) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign<VirtualDuration> for VirtualTime {
    fn add_assign(&mut self, rhs: VirtualDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<VirtualDuration> for VirtualTime {
    type Output = VirtualTime;
    fn sub(self, rhs: VirtualDuration) -> VirtualTime {
        VirtualTime(self.0 - rhs.0)
    }
}

impl Add for VirtualDuration {
    type Output = VirtualDuration;
    fn add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualDuration {
    fn add_assign(&mut self, rhs: VirtualDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtualDuration {
    type Output = VirtualDuration;
    fn sub(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0 - rhs.0)
    }
}

impl SubAssign for VirtualDuration {
    fn sub_assign(&mut self, rhs: VirtualDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for VirtualDuration {
    type Output = VirtualDuration;
    fn mul(self, rhs: u64) -> VirtualDuration {
        VirtualDuration(self.0 * rhs)
    }
}

impl Div<u64> for VirtualDuration {
    type Output = VirtualDuration;
    fn div(self, rhs: u64) -> VirtualDuration {
        VirtualDuration(self.0 / rhs)
    }
}

impl Sum for VirtualDuration {
    fn sum<I: Iterator<Item = VirtualDuration>>(iter: I) -> Self {
        iter.fold(VirtualDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", VirtualDuration(self.0))
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&VirtualDuration(self.0), f)
    }
}

impl fmt::Debug for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1.0e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1.0e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1.0e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(VirtualDuration::from_us(3).as_ns(), 3_000);
        assert_eq!(VirtualDuration::from_ms(2).as_us(), 2_000);
        assert_eq!(VirtualDuration::from_secs(1).as_ms_f64(), 1_000.0);
        assert_eq!(VirtualTime::from_ns(42).as_ns(), 42);
    }

    #[test]
    fn time_arithmetic() {
        let t = VirtualTime::ZERO + VirtualDuration::from_us(5);
        assert_eq!(t.as_us(), 5);
        let u = t + VirtualDuration::from_us(7);
        assert_eq!(u.since(t), VirtualDuration::from_us(7));
        assert_eq!(t.max_of(u), u);
        assert_eq!(u.max_of(t), u);
    }

    #[test]
    fn duration_arithmetic() {
        let a = VirtualDuration::from_us(10);
        let b = VirtualDuration::from_us(4);
        assert_eq!(a + b, VirtualDuration::from_us(14));
        assert_eq!(a - b, VirtualDuration::from_us(6));
        assert_eq!(a * 3, VirtualDuration::from_us(30));
        assert_eq!(a / 2, VirtualDuration::from_us(5));
        assert_eq!(a.times(2), VirtualDuration::from_us(20));
        let mut c = a;
        c += b;
        c -= VirtualDuration::from_us(2);
        assert_eq!(c, VirtualDuration::from_us(12));
    }

    #[test]
    fn float_construction_clamps() {
        assert_eq!(VirtualDuration::from_us_f64(-1.0), VirtualDuration::ZERO);
        assert_eq!(
            VirtualDuration::from_us_f64(f64::NAN),
            VirtualDuration::ZERO
        );
        assert_eq!(
            VirtualDuration::from_us_f64(1.5),
            VirtualDuration::from_ns(1_500)
        );
    }

    #[test]
    fn scaled_rounds() {
        let d = VirtualDuration::from_us(100);
        assert_eq!(d.scaled(0.5), VirtualDuration::from_us(50));
        assert_eq!(d.scaled(0.0), VirtualDuration::ZERO);
        assert_eq!(d.scaled(f64::NAN), VirtualDuration::ZERO);
        assert_eq!(d.scaled(-1.0), VirtualDuration::ZERO);
    }

    #[test]
    fn scaled_keeps_ns_precision_on_long_spans() {
        // 1 hour + 1 ns: the old µs round-trip lost the trailing ns.
        let d = VirtualDuration::from_secs(3600) + VirtualDuration::from_ns(1);
        assert_eq!(d.scaled(1.0), d);
        let odd = VirtualDuration::from_ns(1_234_567_891_234_567);
        assert_eq!(odd.scaled(1.0), odd);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(VirtualDuration::from_ns(12).to_string(), "12ns");
        assert_eq!(VirtualDuration::from_us(12).to_string(), "12.000us");
        assert_eq!(VirtualDuration::from_ms(12).to_string(), "12.000ms");
        assert_eq!(VirtualDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: VirtualDuration = (1..=4).map(VirtualDuration::from_us).sum();
        assert_eq!(total, VirtualDuration::from_us(10));
    }
}
