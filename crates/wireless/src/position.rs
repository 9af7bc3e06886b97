//! Geometry and mobility models.
//!
//! The thesis' simulations (§4.1) place two access routers 212 m apart with
//! 112 m coverage radii (a 12 m overlap) and move mobile hosts linearly at
//! 10 m/s, or back and forth for the repeated-handoff experiments. This
//! module provides exactly those models: a 2-D [`Position`] and a
//! [`Mobility`] description evaluated as a pure function of time, so every
//! component observes identical positions without integration error.
//!
//! # Examples
//!
//! ```
//! use fh_wireless::{Mobility, Position};
//! use fh_sim::SimTime;
//!
//! let m = Mobility::linear(Position::new(0.0, 0.0), Position::new(212.0, 0.0), 10.0);
//! assert_eq!(m.position_at(SimTime::ZERO), Position::new(0.0, 0.0));
//! let mid = m.position_at(SimTime::from_secs(10));
//! assert!((mid.x - 100.0).abs() < 1e-9);
//! ```

use serde::{Deserialize, Serialize};

use fh_sim::SimTime;

/// A point in the 2-D simulation plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// East-west coordinate in meters.
    pub x: f64,
    /// North-south coordinate in meters.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other` in meters.
    #[must_use]
    pub fn distance(self, other: Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    fn lerp(self, other: Position, f: f64) -> Position {
        Position {
            x: self.x + (other.x - self.x) * f,
            y: self.y + (other.y - self.y) * f,
        }
    }
}

impl std::fmt::Display for Position {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.1}m, {:.1}m)", self.x, self.y)
    }
}

/// A mobility model: position as a pure function of simulation time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mobility {
    /// Never moves.
    Stationary(Position),
    /// Moves from `from` toward `to` at `speed` m/s, then stops at `to`.
    Linear {
        /// Starting point.
        from: Position,
        /// End point (the host parks here).
        to: Position,
        /// Speed in meters per second.
        speed: f64,
        /// When movement begins; the host waits at `from` before this.
        depart: SimTime,
    },
    /// Shuttles between `a` and `b` at `speed` m/s forever (the
    /// 100-handoff experiments of Figs 4.3–4.5).
    PingPong {
        /// One turnaround point.
        a: Position,
        /// The other turnaround point.
        b: Position,
        /// Speed in meters per second.
        speed: f64,
        /// When movement begins (at `a`).
        depart: SimTime,
    },
}

impl Mobility {
    /// Convenience constructor for a [`Mobility::Linear`] departing at t=0.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not finite and positive.
    #[must_use]
    pub fn linear(from: Position, to: Position, speed: f64) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        Mobility::Linear {
            from,
            to,
            speed,
            depart: SimTime::ZERO,
        }
    }

    /// Convenience constructor for a [`Mobility::PingPong`] departing at t=0.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not finite and positive, or `a == b`.
    #[must_use]
    pub fn ping_pong(a: Position, b: Position, speed: f64) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        assert!(a.distance(b) > 0.0, "ping-pong endpoints must differ");
        Mobility::PingPong {
            a,
            b,
            speed,
            depart: SimTime::ZERO,
        }
    }

    /// The position at simulated time `t`.
    #[must_use]
    pub fn position_at(&self, t: SimTime) -> Position {
        match *self {
            Mobility::Stationary(p) => p,
            Mobility::Linear {
                from,
                to,
                speed,
                depart,
            } => {
                let elapsed = t.saturating_since(depart).as_secs_f64();
                let total = from.distance(to);
                if total == 0.0 {
                    return to;
                }
                let f = (elapsed * speed / total).min(1.0);
                from.lerp(to, f)
            }
            Mobility::PingPong {
                a,
                b,
                speed,
                depart,
            } => {
                let elapsed = t.saturating_since(depart).as_secs_f64();
                let leg = a.distance(b) / speed; // seconds per one-way trip
                let phase = elapsed % (2.0 * leg);
                if phase <= leg {
                    a.lerp(b, phase / leg)
                } else {
                    b.lerp(a, (phase - leg) / leg)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn stationary_never_moves() {
        let p = Position::new(7.0, 9.0);
        let m = Mobility::Stationary(p);
        assert_eq!(m.position_at(SimTime::ZERO), p);
        assert_eq!(m.position_at(SimTime::from_secs(1000)), p);
    }

    #[test]
    fn linear_reaches_and_parks() {
        // The paper's walk: 212 m at 10 m/s.
        let m = Mobility::linear(Position::new(0.0, 0.0), Position::new(212.0, 0.0), 10.0);
        assert!((m.position_at(SimTime::from_secs(5)).x - 50.0).abs() < 1e-9);
        let done = m.position_at(SimTime::from_secs(22));
        assert!((done.x - 212.0).abs() < 1e-9);
    }

    #[test]
    fn linear_waits_for_departure() {
        let m = Mobility::Linear {
            from: Position::new(0.0, 0.0),
            to: Position::new(100.0, 0.0),
            speed: 10.0,
            depart: SimTime::from_secs(5),
        };
        assert_eq!(m.position_at(SimTime::from_secs(4)).x, 0.0);
        assert!((m.position_at(SimTime::from_secs(6)).x - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ping_pong_oscillates() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(100.0, 0.0);
        let m = Mobility::ping_pong(a, b, 10.0); // 10 s per leg
        assert!((m.position_at(SimTime::from_secs(5)).x - 50.0).abs() < 1e-9);
        assert!((m.position_at(SimTime::from_secs(10)).x - 100.0).abs() < 1e-9);
        assert!((m.position_at(SimTime::from_secs(15)).x - 50.0).abs() < 1e-9);
        assert!((m.position_at(SimTime::from_secs(20)).x - 0.0).abs() < 1e-9);
        // Periodicity.
        assert!(
            (m.position_at(SimTime::from_secs(3)).x - m.position_at(SimTime::from_secs(23)).x)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn degenerate_linear_is_parked() {
        let p = Position::new(1.0, 1.0);
        let m = Mobility::Linear {
            from: p,
            to: p,
            speed: 1.0,
            depart: SimTime::ZERO,
        };
        assert_eq!(m.position_at(SimTime::from_secs(1)), p);
    }

    #[test]
    #[should_panic(expected = "speed")]
    fn zero_speed_panics() {
        let _ = Mobility::linear(Position::default(), Position::new(1.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn ping_pong_same_endpoints_panics() {
        let _ = Mobility::ping_pong(Position::default(), Position::default(), 1.0);
    }
}
