//! Received-signal-strength modeling: log-distance path loss and the
//! hysteresis trigger rule real 802.11 stations use.
//!
//! The geometric coverage disc of [`crate::AccessPoint`] answers *whether*
//! a host can talk to an AP; this module answers *how well*, so handoff
//! triggers can be driven the way the thesis describes them ("when poor
//! connection quality on a wireless link is detected", §3.3) instead of by
//! raw distance.
//!
//! The model is the standard log-distance path loss:
//!
//! ```text
//! rssi(d) = tx_power − 10·n·log10(max(d, 1 m))
//! ```
//!
//! and the trigger rule is hysteresis-based: switch candidates only when
//! the neighbor is at least `hysteresis_db` stronger than the serving AP,
//! which suppresses ping-pong at cell boundaries.
//!
//! # Examples
//!
//! ```
//! use fh_wireless::SignalModel;
//!
//! let model = SignalModel::default();
//! let near = model.rssi_at(10.0);
//! let far = model.rssi_at(100.0);
//! assert!(near > far);
//! assert!(model.is_usable(near));
//! // A neighbor must beat the serving AP by the hysteresis margin.
//! assert!(!model.should_switch(-60.0, -58.0));
//! assert!(model.should_switch(-80.0, -70.0));
//! ```

use serde::{Deserialize, Serialize};

/// Log-distance path loss model with a hysteresis switching rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignalModel {
    /// Transmit power minus fixed losses, in dBm at 1 m.
    pub tx_power_dbm: f64,
    /// Path-loss exponent (2 free space, 3–4 indoor/urban).
    pub path_loss_exponent: f64,
    /// Receiver sensitivity: below this the link is unusable.
    pub sensitivity_dbm: f64,
    /// A neighbor must be this much stronger before switching.
    pub hysteresis_db: f64,
}

impl Default for SignalModel {
    /// 802.11b-flavoured defaults: −20 dBm at 1 m, exponent 3.3, −90 dBm
    /// sensitivity, 5 dB hysteresis. With these numbers the usable range
    /// is ≈132 m — a disc comparable to the thesis' 112 m coverage.
    fn default() -> Self {
        SignalModel {
            tx_power_dbm: -20.0,
            path_loss_exponent: 3.3,
            sensitivity_dbm: -90.0,
            hysteresis_db: 5.0,
        }
    }
}

impl SignalModel {
    /// Received signal strength at `distance_m` meters.
    #[must_use]
    pub fn rssi_at(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(1.0);
        self.tx_power_dbm - 10.0 * self.path_loss_exponent * d.log10()
    }

    /// `true` if a link at this signal level is usable at all.
    #[must_use]
    pub fn is_usable(&self, rssi_dbm: f64) -> bool {
        rssi_dbm >= self.sensitivity_dbm
    }

    /// The hysteresis rule: switch from `serving_dbm` to `candidate_dbm`?
    #[must_use]
    pub fn should_switch(&self, serving_dbm: f64, candidate_dbm: f64) -> bool {
        candidate_dbm >= serving_dbm + self.hysteresis_db
    }

    /// The distance at which the signal drops to the sensitivity floor —
    /// the model's equivalent of a coverage radius.
    #[must_use]
    pub fn usable_range_m(&self) -> f64 {
        10f64.powf((self.tx_power_dbm - self.sensitivity_dbm) / (10.0 * self.path_loss_exponent))
    }

    /// The same propagation environment re-budgeted so the usable range
    /// equals `range_m`: only the transmit power changes (exponent,
    /// sensitivity and hysteresis stay put). A wide-area sector has a link
    /// budget matched to its cell size; judging its signal with a WLAN
    /// budget would report a healthy 1500 m cell as permanently
    /// going-down. Media-independent triggers scale the model to the
    /// serving link's coverage before sampling.
    #[must_use]
    pub fn scaled_to_range(&self, range_m: f64) -> SignalModel {
        SignalModel {
            tx_power_dbm: self.sensitivity_dbm
                + 10.0 * self.path_loss_exponent * range_m.max(1.0).log10(),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rssi_decreases_monotonically() {
        let m = SignalModel::default();
        let mut last = f64::INFINITY;
        for d in [1.0, 5.0, 20.0, 50.0, 100.0, 130.0] {
            let r = m.rssi_at(d);
            assert!(r < last, "rssi must fall with distance");
            last = r;
        }
    }

    #[test]
    fn sub_meter_distances_clamp() {
        let m = SignalModel::default();
        assert_eq!(m.rssi_at(0.0), m.rssi_at(1.0));
        assert_eq!(m.rssi_at(0.5), m.rssi_at(1.0));
    }

    #[test]
    fn default_range_matches_thesis_scale() {
        let m = SignalModel::default();
        let range = m.usable_range_m();
        assert!(
            (100.0..160.0).contains(&range),
            "default range should be near the thesis' 112 m, got {range:.1}"
        );
        // At the range edge the signal equals the sensitivity.
        let edge = m.rssi_at(range);
        assert!((edge - m.sensitivity_dbm).abs() < 1e-6);
        assert!(m.is_usable(edge));
        assert!(!m.is_usable(m.rssi_at(range + 1.0)));
    }

    #[test]
    fn hysteresis_suppresses_marginal_switches() {
        let m = SignalModel::default();
        assert!(!m.should_switch(-70.0, -70.0));
        assert!(!m.should_switch(-70.0, -66.0));
        assert!(m.should_switch(-70.0, -65.0));
        // At equal strength midway between two APs, nobody switches —
        // ping-pong is impossible by construction.
        let mid = m.rssi_at(106.0);
        assert!(!m.should_switch(mid, mid));
    }

    #[test]
    fn scaled_model_ranges_track_the_target() {
        let m = SignalModel::default();
        for range in [50.0, 112.0, 1_500.0] {
            let s = m.scaled_to_range(range);
            assert!((s.usable_range_m() - range).abs() < 1e-6, "range {range}");
            assert_eq!(s.sensitivity_dbm, m.sensitivity_dbm);
            assert_eq!(s.path_loss_exponent, m.path_loss_exponent);
        }
        // Scaling to the model's own range is the identity.
        let id = m.scaled_to_range(m.usable_range_m());
        assert!((id.tx_power_dbm - m.tx_power_dbm).abs() < 1e-9);
    }
}
