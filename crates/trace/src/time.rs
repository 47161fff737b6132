//! Simulated time.
//!
//! The paper maps the `t` of a timed implication constraint "directly to the
//! simulation time of the SystemC simulation kernel" (Section 4). [`SimTime`]
//! plays the role of `sc_core::sc_time`: a monotone, integer simulated clock.
//! The resolution is one picosecond, which covers the paper's case-study
//! delays (nanoseconds to milliseconds) with a `u64` range of about 213 days
//! of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) simulated time, in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp (time since simulation
/// start) and as a duration; arithmetic is saturating-free and panics on
/// overflow in debug builds, like the standard integer types.
///
/// # Example
///
/// ```
/// use lomon_trace::SimTime;
/// let t = SimTime::from_ns(90) + SimTime::from_ns(20);
/// assert_eq!(t, SimTime::from_ns(110));
/// assert_eq!(t.as_ps(), 110_000);
/// assert_eq!(format!("{t}"), "110ns");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as "never" for deadlines.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Construct from seconds.
    pub const fn from_sec(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// The raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Saturating subtraction: `self - other`, or zero if `other > self`.
    pub const fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition, `None` on overflow. Useful when computing
    /// deadlines from `SimTime::MAX` sentinels.
    pub const fn checked_add(self, other: SimTime) -> Option<SimTime> {
        match self.0.checked_add(other.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    /// Render with the coarsest unit that divides the value exactly:
    /// `1500ps`, `3ns`, `25us`, `1ms`, `2s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        let (value, unit) = if ps == 0 {
            (0, "s")
        } else if ps.is_multiple_of(1_000_000_000_000) {
            (ps / 1_000_000_000_000, "s")
        } else if ps.is_multiple_of(1_000_000_000) {
            (ps / 1_000_000_000, "ms")
        } else if ps.is_multiple_of(1_000_000) {
            (ps / 1_000_000, "us")
        } else if ps.is_multiple_of(1_000) {
            (ps / 1_000, "ns")
        } else {
            (ps, "ps")
        };
        write!(f, "{value}{unit}")
    }
}

/// Why [`scale_time`] refused a `(value, unit)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleError {
    /// The unit is not one of `ps`, `ns`, `us`, `ms`, `s`.
    UnknownUnit,
    /// `value` units lie past [`SimTime::MAX`].
    OutOfRange,
}

/// `value` units of `unit` as a [`SimTime`]: the one unit table every
/// time-literal reader shares (trace text, NDJSON, the property
/// language). The scaling is checked, so a literal past [`SimTime::MAX`]
/// is refused instead of wrapping to a small time.
///
/// # Errors
///
/// [`ScaleError::UnknownUnit`] for a unit outside `ps`/`ns`/`us`/`ms`/`s`,
/// [`ScaleError::OutOfRange`] when the product overflows.
pub fn scale_time(value: u64, unit: &[u8]) -> Result<SimTime, ScaleError> {
    let ps_per_unit: u64 = match unit {
        b"ps" => 1,
        b"ns" => 1_000,
        b"us" => 1_000_000,
        b"ms" => 1_000_000_000,
        b"s" => 1_000_000_000_000,
        _ => return Err(ScaleError::UnknownUnit),
    };
    value
        .checked_mul(ps_per_unit)
        .map(SimTime::from_ps)
        .ok_or(ScaleError::OutOfRange)
}

/// Parse a time literal like `100ns`, `25 us`, `3ms`, `1s`, `500ps`.
///
/// Used by the property language (`within 60000 ns`) and the trace file
/// reader. Bare numbers are rejected: a unit keeps specifications readable
/// and unambiguous.
///
/// # Errors
///
/// Returns a human-readable message when the number or the unit is
/// malformed, or when the literal lies past [`SimTime::MAX`].
pub fn parse_sim_time(text: &str) -> Result<SimTime, String> {
    let text = text.trim();
    let split = text
        .find(|c: char| !c.is_ascii_digit())
        .ok_or_else(|| format!("time literal `{text}` is missing a unit (ps/ns/us/ms/s)"))?;
    if split == 0 {
        return Err(format!("time literal `{text}` is missing digits"));
    }
    let (digits, unit) = text.split_at(split);
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("invalid number in time literal `{text}`"))?;
    let unit = unit.trim();
    scale_time(value, unit.as_bytes()).map_err(|e| match e {
        ScaleError::UnknownUnit => format!("unknown time unit `{unit}` in `{text}`"),
        ScaleError::OutOfRange => format!("time literal `{text}` is out of range"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_sec(1), SimTime::from_ms(1_000));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(40);
        assert_eq!(a - b, SimTime::from_ns(60));
        assert_eq!(a + b, SimTime::from_ns(140));
        assert_eq!(a * 3, SimTime::from_ns(300));
        assert_eq!(a / 4, SimTime::from_ns(25));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        c -= SimTime::from_ns(10);
        assert_eq!(c, SimTime::from_ns(130));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_ps(1)), None);
        assert_eq!(
            SimTime::from_ps(1).checked_add(SimTime::from_ps(2)),
            Some(SimTime::from_ps(3))
        );
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = [SimTime::from_ns(1), SimTime::from_ns(2)].into_iter().sum();
        assert_eq!(total, SimTime::from_ns(3));
    }

    #[test]
    fn display_picks_coarsest_exact_unit() {
        assert_eq!(SimTime::ZERO.to_string(), "0s");
        assert_eq!(SimTime::from_ps(1500).to_string(), "1500ps");
        assert_eq!(SimTime::from_ns(3).to_string(), "3ns");
        assert_eq!(SimTime::from_us(25).to_string(), "25us");
        assert_eq!(SimTime::from_ms(1).to_string(), "1ms");
        assert_eq!(SimTime::from_sec(2).to_string(), "2s");
    }

    #[test]
    fn parse_valid_literals() {
        assert_eq!(parse_sim_time("100ns"), Ok(SimTime::from_ns(100)));
        assert_eq!(parse_sim_time("25 us"), Ok(SimTime::from_us(25)));
        assert_eq!(parse_sim_time(" 3ms "), Ok(SimTime::from_ms(3)));
        assert_eq!(parse_sim_time("7s"), Ok(SimTime::from_sec(7)));
        assert_eq!(parse_sim_time("500ps"), Ok(SimTime::from_ps(500)));
    }

    #[test]
    fn parse_rejects_malformed_literals() {
        assert!(parse_sim_time("100").is_err());
        assert!(parse_sim_time("ns").is_err());
        assert!(parse_sim_time("12parsecs").is_err());
        assert!(parse_sim_time("").is_err());
    }

    #[test]
    fn scale_time_is_exact_up_to_each_units_boundary() {
        for (unit, ps_per_unit) in [
            (&b"ps"[..], 1u64),
            (b"ns", 1_000),
            (b"us", 1_000_000),
            (b"ms", 1_000_000_000),
            (b"s", 1_000_000_000_000),
        ] {
            let max = u64::MAX / ps_per_unit;
            assert_eq!(
                scale_time(max, unit),
                Ok(SimTime::from_ps(max * ps_per_unit))
            );
            assert_eq!(scale_time(1, unit), Ok(SimTime::from_ps(ps_per_unit)));
            assert_eq!(scale_time(0, unit), Ok(SimTime::ZERO));
            if ps_per_unit > 1 {
                assert_eq!(scale_time(max + 1, unit), Err(ScaleError::OutOfRange));
            }
            assert_eq!(
                scale_time(u64::MAX, unit).is_ok(),
                ps_per_unit == 1,
                "only picoseconds span the whole u64 range"
            );
        }
        assert_eq!(scale_time(1, b"xs"), Err(ScaleError::UnknownUnit));
        assert_eq!(scale_time(1, b""), Err(ScaleError::UnknownUnit));
        assert_eq!(scale_time(1, b"NS"), Err(ScaleError::UnknownUnit));
    }

    #[test]
    fn parse_rejects_out_of_range_literals() {
        // 18446744073709552 ns is 384 ps past u64::MAX picoseconds: an
        // unchecked multiply wraps it to 384ps.
        assert_eq!(
            parse_sim_time("18446744073709552ns"),
            Err("time literal `18446744073709552ns` is out of range".to_owned())
        );
        assert_eq!(
            parse_sim_time("18446744073709551ns"),
            Ok(SimTime::from_ps(18_446_744_073_709_551_000))
        );
        assert!(parse_sim_time("18446744073709551615ps").is_ok());
        assert!(parse_sim_time("18446744073709552 ns").is_err());
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_ns(1) < SimTime::from_us(1));
        assert!(SimTime::MAX > SimTime::from_sec(1_000_000));
    }
}
