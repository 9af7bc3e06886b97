//! Radio technologies and host interfaces.
//!
//! The thesis evaluates horizontal WLAN→WLAN handovers only; the vertical
//! case — WLAN↔cellular, where bandwidth, latency and coverage are
//! asymmetric — is where buffer management matters most (SafetyNet,
//! MIH-triggered FPMIPv6). This module names the axis along which the two
//! differ: a [`RadioTechnology`] carries the per-technology channel
//! parameters, coverage scale and black-out behaviour, and an [`IfaceId`]
//! distinguishes the radios of a multi-homed host so a second interface can
//! come up on the target technology *before* the serving one goes down
//! (make-before-break).

use serde::{Deserialize, Serialize};

use crate::radio::WirelessSpec;
use fh_sim::SimDuration;

/// The link-layer technology behind one access point.
///
/// Two concrete technologies are modelled:
///
/// * [`RadioTechnology::Wlan`] — the thesis' 802.11b substrate: high rate,
///   small cells, and a hard L2 black-out (~200 ms) on every handoff
///   because the single card must leave the old channel to join the new.
/// * [`RadioTechnology::Cellular`] — a wide-area overlay: lower rate,
///   higher access latency, a coverage disc an order of magnitude larger,
///   and **no micro-black-out** — a dedicated second radio performs network
///   entry while the WLAN card keeps receiving (make-before-break).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RadioTechnology {
    /// 802.11-style wireless LAN (the thesis' radio).
    #[default]
    Wlan,
    /// Wide-area cellular overlay (UMTS/LTE-flavoured).
    Cellular,
}

impl RadioTechnology {
    /// Short human-readable label ("wlan" / "cellular").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RadioTechnology::Wlan => "wlan",
            RadioTechnology::Cellular => "cellular",
        }
    }

    /// Default channel parameters for the technology.
    ///
    /// WLAN keeps the 802.11b defaults (11 Mb/s, 1 ms). Cellular defaults
    /// to 2 Mb/s with a 40 ms access delay — the bandwidth/latency
    /// asymmetry that makes vertical handovers interesting.
    #[must_use]
    pub fn default_spec(self) -> WirelessSpec {
        match self {
            RadioTechnology::Wlan => WirelessSpec::default_80211b(),
            RadioTechnology::Cellular => WirelessSpec {
                bandwidth_bps: 2_000_000,
                delay: SimDuration::from_millis(40),
            },
        }
    }

    /// Default coverage radius in meters (112 m WLAN cell vs a wide-area
    /// 1500 m cellular sector).
    #[must_use]
    pub fn default_radius_m(self) -> f64 {
        match self {
            RadioTechnology::Wlan => 112.0,
            RadioTechnology::Cellular => 1_500.0,
        }
    }
}

/// Identifier of one radio interface on a multi-homed mobile host.
///
/// Interface 0 is the host's primary (WLAN) radio — every legacy
/// single-interface scenario uses only this one. Interface 1 is the
/// wide-area radio a vertical-handover host brings up for
/// make-before-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IfaceId(pub u8);

impl IfaceId {
    /// The wide-area secondary interface of a multi-homed host.
    pub const WIDE_AREA: IfaceId = IfaceId(1);
}

impl std::fmt::Display for IfaceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "if{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wlan_defaults_match_the_thesis_substrate() {
        let spec = RadioTechnology::Wlan.default_spec();
        assert_eq!(spec, WirelessSpec::default_80211b());
        assert!((RadioTechnology::Wlan.default_radius_m() - 112.0).abs() < f64::EPSILON);
    }

    #[test]
    fn cellular_is_slower_wider_and_blackout_free() {
        let wlan = RadioTechnology::Wlan.default_spec();
        let cell = RadioTechnology::Cellular.default_spec();
        assert!(cell.bandwidth_bps < wlan.bandwidth_bps);
        assert!(cell.delay > wlan.delay);
        assert!(
            RadioTechnology::Cellular.default_radius_m() > RadioTechnology::Wlan.default_radius_m()
        );
    }

    #[test]
    fn labels_and_iface_display() {
        assert_eq!(RadioTechnology::Wlan.label(), "wlan");
        assert_eq!(RadioTechnology::Cellular.label(), "cellular");
        assert_eq!(IfaceId(0).to_string(), "if0");
        assert_eq!(IfaceId::WIDE_AREA.to_string(), "if1");
        assert!(IfaceId(0) < IfaceId::WIDE_AREA);
    }

    #[test]
    fn default_technology_is_wlan() {
        assert_eq!(RadioTechnology::default(), RadioTechnology::Wlan);
    }
}
