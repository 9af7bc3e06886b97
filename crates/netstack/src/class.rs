//! Traffic classes — Table 3.1 of the thesis.
//!
//! The proposed scheme reads a packet's priority from the IPv6 *class of
//! service* (traffic class) field. The thesis defines the field values in
//! Table 3.1; value 0 (unspecified) is treated as best effort.
//!
//! As the thesis' future-work section suggests, the classes also map onto
//! DiffServ per-hop behaviours so the scheme can run inside a DiffServ
//! domain: see [`ServiceClass::phb`].
//!
//! # Examples
//!
//! ```
//! use fh_net::ServiceClass;
//!
//! assert_eq!(ServiceClass::from_field(1), ServiceClass::RealTime);
//! assert_eq!(ServiceClass::from_field(0).effective(), ServiceClass::BestEffort);
//! assert_eq!(ServiceClass::RealTime.field(), 1);
//! ```

use serde::{Deserialize, Serialize};

/// A packet's class of service (IPv6 traffic-class field, Table 3.1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum ServiceClass {
    /// Field value 0 — no class specified; treated as best effort.
    #[default]
    Unspecified,
    /// Field value 1 — delay-sensitive packets; useless if they arrive late,
    /// never retransmitted.
    RealTime,
    /// Field value 2 — the most important packets; drop rate must be
    /// minimized.
    HighPriority,
    /// Field value 3 — low-priority packets; may be delayed or dropped when
    /// buffers run out.
    BestEffort,
}

/// DiffServ per-hop behaviour groups, for running the scheme inside a
/// DiffServ domain (thesis §3.3 / future work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PerHopBehavior {
    /// Expedited forwarding — low delay, low jitter.
    Expedited,
    /// Assured forwarding — low loss.
    Assured,
    /// Default forwarding.
    Default,
}

impl ServiceClass {
    /// All four field values, in Table 3.1 order.
    pub const ALL: [ServiceClass; 4] = [
        ServiceClass::Unspecified,
        ServiceClass::RealTime,
        ServiceClass::HighPriority,
        ServiceClass::BestEffort,
    ];

    /// The three classes the buffer manager tells apart, in
    /// [`ServiceClass::index`] order: real time, high priority, best
    /// effort (also the F1–F3 flow order of §4.2).
    pub const EFFECTIVE: [ServiceClass; 3] = [
        ServiceClass::RealTime,
        ServiceClass::HighPriority,
        ServiceClass::BestEffort,
    ];

    /// Decodes the IPv6 class-of-service field (Table 3.1). Unknown values
    /// decode to [`ServiceClass::Unspecified`].
    #[must_use]
    pub fn from_field(value: u8) -> Self {
        match value {
            1 => ServiceClass::RealTime,
            2 => ServiceClass::HighPriority,
            3 => ServiceClass::BestEffort,
            _ => ServiceClass::Unspecified,
        }
    }

    /// Encodes this class as the IPv6 class-of-service field value.
    #[must_use]
    pub fn field(self) -> u8 {
        match self {
            ServiceClass::Unspecified => 0,
            ServiceClass::RealTime => 1,
            ServiceClass::HighPriority => 2,
            ServiceClass::BestEffort => 3,
        }
    }

    /// The class the buffer manager actually applies: `Unspecified` is
    /// "treated as best effort packets" (Table 3.1).
    #[must_use]
    pub fn effective(self) -> Self {
        match self {
            ServiceClass::Unspecified => ServiceClass::BestEffort,
            other => other,
        }
    }

    /// Index of the effective class into per-class arrays: RT = 0, HP = 1,
    /// BE = 2, with `Unspecified` counted as best effort — the position
    /// of [`ServiceClass::effective`] in [`ServiceClass::EFFECTIVE`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ServiceClass::RealTime => 0,
            ServiceClass::HighPriority => 1,
            ServiceClass::Unspecified | ServiceClass::BestEffort => 2,
        }
    }

    /// Maps the class to a DiffServ per-hop behaviour.
    #[must_use]
    pub fn phb(self) -> PerHopBehavior {
        match self.effective() {
            ServiceClass::RealTime => PerHopBehavior::Expedited,
            ServiceClass::HighPriority => PerHopBehavior::Assured,
            _ => PerHopBehavior::Default,
        }
    }
}

impl ServiceClass {
    /// The lowercase name used by [`std::fmt::Display`] and parsed back by
    /// [`std::str::FromStr`] — the vocabulary scenario plans use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ServiceClass::Unspecified => "unspecified",
            ServiceClass::RealTime => "real-time",
            ServiceClass::HighPriority => "high-priority",
            ServiceClass::BestEffort => "best-effort",
        }
    }
}

impl std::fmt::Display for ServiceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a string names no [`ServiceClass`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseClassError(String);

impl std::fmt::Display for ParseClassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown service class \"{}\" (expected one of: ", self.0)?;
        for (i, c) in ServiceClass::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(c.name())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParseClassError {}

impl std::str::FromStr for ServiceClass {
    type Err = ParseClassError;

    /// Parses the Table 3.1 name (`real-time`, `high-priority`,
    /// `best-effort`, `unspecified`), case-insensitively — the exact
    /// round trip of [`ServiceClass::name`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ServiceClass::ALL
            .into_iter()
            .find(|c| c.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseClassError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_3_1_round_trip() {
        for class in ServiceClass::ALL {
            assert_eq!(ServiceClass::from_field(class.field()), class);
        }
    }

    #[test]
    fn unknown_field_values_are_unspecified() {
        for v in 4..=255u8 {
            assert_eq!(ServiceClass::from_field(v), ServiceClass::Unspecified);
        }
    }

    #[test]
    fn unspecified_is_best_effort_in_effect() {
        assert_eq!(
            ServiceClass::Unspecified.effective(),
            ServiceClass::BestEffort
        );
        assert_eq!(ServiceClass::RealTime.effective(), ServiceClass::RealTime);
        assert_eq!(
            ServiceClass::HighPriority.effective(),
            ServiceClass::HighPriority
        );
    }

    #[test]
    fn index_is_the_position_of_the_effective_class() {
        for class in ServiceClass::ALL {
            assert_eq!(ServiceClass::EFFECTIVE[class.index()], class.effective());
        }
    }

    #[test]
    fn diffserv_mapping_is_consistent() {
        assert_eq!(ServiceClass::RealTime.phb(), PerHopBehavior::Expedited);
        assert_eq!(ServiceClass::HighPriority.phb(), PerHopBehavior::Assured);
        assert_eq!(ServiceClass::BestEffort.phb(), PerHopBehavior::Default);
        assert_eq!(ServiceClass::Unspecified.phb(), PerHopBehavior::Default);
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(ServiceClass::RealTime.to_string(), "real-time");
        assert_eq!(ServiceClass::HighPriority.to_string(), "high-priority");
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for class in ServiceClass::ALL {
            assert_eq!(class.name().parse::<ServiceClass>(), Ok(class));
            assert_eq!(
                class.name().to_uppercase().parse::<ServiceClass>(),
                Ok(class)
            );
        }
        let err = "bulk".parse::<ServiceClass>().unwrap_err();
        assert!(err.to_string().contains("best-effort"), "{err}");
    }
}
