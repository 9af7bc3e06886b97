//! Virtual time for the discrete-event kernel.
//!
//! Simulated time is kept as an integer number of **nanoseconds** since the
//! start of the simulation. Integer time makes event ordering exact and the
//! whole simulation bit-reproducible; nanosecond resolution is fine enough
//! for sub-microsecond serialization delays on multi-gigabit links while
//! still allowing simulations of several simulated years in a `u64`.
//!
//! Two newtypes are provided, mirroring `std::time`:
//!
//! * [`SimTime`] — an *instant* on the simulation clock.
//! * [`SimDuration`] — a *span* between two instants.
//!
//! # Examples
//!
//! ```
//! use fh_sim::{SimDuration, SimTime};
//!
//! let start = SimTime::ZERO;
//! let t = start + SimDuration::from_millis(200);
//! assert_eq!(t.as_nanos(), 200_000_000);
//! assert_eq!(t - start, SimDuration::from_millis(200));
//! assert!(t > start);
//! ```

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since simulation start.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since simulation start,
    /// saturating at [`SimTime::MAX`] on overflow.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Creates an instant from milliseconds since simulation start,
    /// saturating at [`SimTime::MAX`] on overflow.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Creates an instant from whole seconds since simulation start,
    /// saturating at [`SimTime::MAX`] on overflow.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000_000))
    }

    /// Creates an instant from fractional seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).as_nanos())
    }

    /// Raw nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This instant expressed in fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is actually later.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds, saturating at
    /// [`SimDuration::MAX`] on overflow.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Creates a span from milliseconds, saturating at
    /// [`SimDuration::MAX`] on overflow.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Creates a span from whole seconds, saturating at
    /// [`SimDuration::MAX`] on overflow.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// Creates a span from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        let ns = secs * 1e9;
        assert!(ns <= u64::MAX as f64, "duration overflows u64 nanoseconds");
        SimDuration(ns.round() as u64)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span expressed in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span expressed in fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if this is the zero-length span.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(rhs.0).map(SimDuration)
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// Saturates at [`SimTime::MAX`]: a span that saturated on purpose (a
/// 4 GiB frame on a 1 bit/s link) must not wrap an arrival time back to
/// "soon". Use [`SimTime::checked_add`] to detect the overflow instead.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

/// Saturates at [`SimDuration::MAX`], like `SimTime + SimDuration`.
impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
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

impl From<SimDuration> for SimTime {
    fn from(d: SimDuration) -> SimTime {
        SimTime(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_millis(2), SimDuration::from_micros(2_000));
        assert_eq!(SimDuration::from_micros(2), SimDuration::from_nanos(2_000));
    }

    #[test]
    fn instant_plus_span_arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(t - SimDuration::from_millis(15), SimTime::ZERO);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn fractional_second_round_trip() {
        let d = SimDuration::from_secs_f64(0.123_456_789);
        assert_eq!(d.as_nanos(), 123_456_789);
        assert!((d.as_secs_f64() - 0.123_456_789).abs() < 1e-12);
        let t = SimTime::from_secs_f64(2.5);
        assert_eq!(t, SimTime::from_millis(2_500));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
    }

    #[test]
    fn checked_ops_detect_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert!(SimDuration::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }

    #[test]
    fn addition_saturates_instead_of_wrapping() {
        let late = SimTime::from_nanos(u64::MAX - 5);
        assert_eq!(late + SimDuration::from_nanos(5), SimTime::MAX);
        assert_eq!(late + SimDuration::from_nanos(6), SimTime::MAX);
        assert_eq!(SimTime::from_secs(1) + SimDuration::MAX, SimTime::MAX);
        assert_eq!(
            SimDuration::MAX + SimDuration::from_millis(1),
            SimDuration::MAX
        );
        let mut t = SimTime::from_secs(1);
        t += SimDuration::MAX;
        assert_eq!(t, SimTime::MAX);
        let mut d = SimDuration::from_secs(1);
        d += SimDuration::MAX;
        assert_eq!(d, SimDuration::MAX);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1.500000s");
    }

    #[test]
    fn unit_constructors_saturate_at_max() {
        // One past the largest exactly-representable input saturates instead
        // of wrapping (release builds would otherwise wrap silently).
        assert_eq!(SimTime::from_micros(u64::MAX / 1_000 + 1), SimTime::MAX);
        assert_eq!(SimTime::from_millis(u64::MAX / 1_000_000 + 1), SimTime::MAX);
        assert_eq!(
            SimTime::from_secs(u64::MAX / 1_000_000_000 + 1),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_micros(u64::MAX / 1_000 + 1),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::from_millis(u64::MAX / 1_000_000 + 1),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::from_secs(u64::MAX / 1_000_000_000 + 1),
            SimDuration::MAX
        );
        assert_eq!(SimTime::from_micros(u64::MAX), SimTime::MAX);
        assert_eq!(SimDuration::from_secs(u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn unit_constructors_exact_at_boundary() {
        // The largest input that still fits must not saturate.
        let us = u64::MAX / 1_000;
        assert_eq!(SimTime::from_micros(us).as_nanos(), us * 1_000);
        let ms = u64::MAX / 1_000_000;
        assert_eq!(SimDuration::from_millis(ms).as_nanos(), ms * 1_000_000);
        let secs = u64::MAX / 1_000_000_000;
        assert_eq!(
            SimDuration::from_secs(secs).as_nanos(),
            secs * 1_000_000_000
        );
    }

    #[test]
    fn ordering_is_chronological() {
        let mut ts = vec![
            SimTime::from_secs(3),
            SimTime::ZERO,
            SimTime::from_millis(1),
        ];
        ts.sort();
        assert_eq!(
            ts,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(1),
                SimTime::from_secs(3)
            ]
        );
    }
}
