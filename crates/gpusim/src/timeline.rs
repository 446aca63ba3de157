//! Simulated time and per-phase accounting.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, stored in nanoseconds.
///
/// All simulator components express cost as `SimTime`; no wall-clock
/// measurement ever enters the model, so runs reproduce exactly.
///
/// # Example
///
/// ```
/// use fastgl_gpusim::SimTime;
///
/// let t = SimTime::from_micros(3) + SimTime::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// assert!(t < SimTime::from_millis(1));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// Zero duration.
    pub const ZERO: SimTime = SimTime(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From fractional seconds (rounds to nanoseconds, saturating at zero).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * 1e9).round() as u64)
    }

    /// Nanoseconds as an integer.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two times.
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
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

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime((self.0 as f64 * rhs).round() as u64)
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
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Time attributed to the three phases of sampling-based GNN training
/// (paper Fig. 2): subgraph sample, memory IO, and computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Sample phase: subgraph sampling plus the ID-map process.
    pub sample: SimTime,
    /// Memory IO phase: host-side gather plus PCIe transfer.
    pub io: SimTime,
    /// Computation phase: forward and backward passes.
    pub compute: SimTime,
}

impl PhaseBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total time across phases.
    pub fn total(&self) -> SimTime {
        self.sample + self.io + self.compute
    }

    /// Fraction of total time spent in each phase `(sample, io, compute)`.
    ///
    /// Returns zeros when the total is zero.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total().as_nanos() as f64;
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.sample.as_nanos() as f64 / t,
            self.io.as_nanos() as f64 / t,
            self.compute.as_nanos() as f64 / t,
        )
    }

    /// Scales every phase by `factor` (e.g. to average over epochs).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            sample: self.sample * factor,
            io: self.io * factor,
            compute: self.compute * factor,
        }
    }

    /// Records this breakdown on the telemetry subsystem's simulated-time
    /// track: one enclosing span named `label` with the three phases laid
    /// out back-to-back inside it. No-op while telemetry is disabled.
    pub fn emit_telemetry(&self, label: &'static str) {
        fastgl_telemetry::record_sim_phases(
            label,
            &[
                ("sample", self.sample.as_nanos()),
                ("io", self.io.as_nanos()),
                ("compute", self.compute.as_nanos()),
            ],
        );
    }
}

impl Add for PhaseBreakdown {
    type Output = PhaseBreakdown;
    fn add(self, rhs: PhaseBreakdown) -> PhaseBreakdown {
        PhaseBreakdown {
            sample: self.sample + rhs.sample,
            io: self.io + rhs.io,
            compute: self.compute + rhs.compute,
        }
    }
}

impl AddAssign for PhaseBreakdown {
    fn add_assign(&mut self, rhs: PhaseBreakdown) {
        *self = *self + rhs;
    }
}

impl Sum for PhaseBreakdown {
    fn sum<I: Iterator<Item = PhaseBreakdown>>(iter: I) -> PhaseBreakdown {
        iter.fold(PhaseBreakdown::default(), Add::add)
    }
}

impl fmt::Display for PhaseBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sample {} | io {} | compute {} | total {}",
            self.sample,
            self.io,
            self.compute,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimTime::from_secs_f64(-2.0), SimTime::ZERO);
        assert!((SimTime::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(50);
        assert_eq!((a + b).as_nanos(), 150);
        assert_eq!((a - b).as_nanos(), 50);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((a * 0.5).as_nanos(), 50);
        assert_eq!((a / 4).as_nanos(), 25);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: SimTime = [a, b, b].into_iter().sum();
        assert_eq!(total.as_nanos(), 200);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_nanos(1_200).to_string(), "1.200us");
        assert_eq!(SimTime::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimTime::from_secs_f64(2.0).to_string(), "2.000s");
    }

    #[test]
    fn breakdown_total_and_fractions() {
        let b = PhaseBreakdown {
            sample: SimTime::from_nanos(100),
            io: SimTime::from_nanos(300),
            compute: SimTime::from_nanos(600),
        };
        assert_eq!(b.total().as_nanos(), 1_000);
        let (s, i, c) = b.fractions();
        assert!((s - 0.1).abs() < 1e-12);
        assert!((i - 0.3).abs() < 1e-12);
        assert!((c - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_breakdown_fractions_are_zero() {
        assert_eq!(PhaseBreakdown::default().fractions(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn emit_telemetry_reproduces_phase_totals() {
        let _guard = crate::test_sync::TELEMETRY_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        fastgl_telemetry::set_enabled(true);
        fastgl_telemetry::reset();
        let b = PhaseBreakdown {
            sample: SimTime::from_nanos(111),
            io: SimTime::from_nanos(222),
            compute: SimTime::from_nanos(333),
        };
        b.emit_telemetry("epoch");
        b.emit_telemetry("epoch");
        let snap = fastgl_telemetry::drain();
        fastgl_telemetry::set_enabled(false);
        let totals = snap.sim_phase_totals();
        assert_eq!(totals.get("sample").copied(), Some(222));
        assert_eq!(totals.get("io").copied(), Some(444));
        assert_eq!(totals.get("compute").copied(), Some(666));
    }

    #[test]
    fn breakdown_addition_and_scaling() {
        let b = PhaseBreakdown {
            sample: SimTime::from_nanos(10),
            io: SimTime::from_nanos(20),
            compute: SimTime::from_nanos(30),
        };
        let sum: PhaseBreakdown = [b, b].into_iter().sum();
        assert_eq!(sum.total().as_nanos(), 120);
        let half = sum.scaled(0.5);
        assert_eq!(half.total().as_nanos(), 60);
    }
}
