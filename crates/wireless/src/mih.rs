//! 802.21-style Media Independent Handover (MIH) link triggers.
//!
//! The legacy trigger path raises an L2 source trigger from raw geometry
//! (distance increasing) or a raw RSSI hysteresis crossing. MIH instead
//! standardizes three *link events* that any technology can emit:
//!
//! * **`LinkGoingDown`** — the serving link is predicted to fail soon:
//!   the signal has stayed within a configurable margin of the sensitivity
//!   floor for a dwell period. This is the predictive cue the fast
//!   handover protocol anticipates on.
//! * **`LinkDown`** — the serving link is gone (signal below sensitivity
//!   or out of coverage).
//! * **`LinkUp`** — a link became usable.
//!
//! [`MihEngine`] is a pure, deterministic state machine: feed it one RSSI
//! sample per radio tick and it emits at most one event. Two properties are
//! enforced by construction and pinned by tests:
//!
//! 1. **Ordering** — on a collapsing link, `LinkGoingDown` is always
//!    reported before `LinkDown` (the dwell counter trips at the margin
//!    strictly above the sensitivity floor).
//! 2. **No trigger storms** — `LinkGoingDown` latches once per attachment
//!    epoch; a flapping signal around the margin cannot re-arm it until
//!    the link has gone down and come back up.

use serde::{Deserialize, Serialize};

use crate::signal::SignalModel;

/// An 802.21 link event, technology-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MihEvent {
    /// The serving link became usable.
    LinkUp,
    /// The serving link is predicted to fail soon (predictive trigger).
    LinkGoingDown,
    /// The serving link failed.
    LinkDown,
}

/// Tuning knobs for the MIH event derivation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MihConfig {
    /// `LinkGoingDown` fires when the serving RSSI stays below
    /// `sensitivity + going_down_margin_db` for [`MihConfig::dwell`]
    /// consecutive samples.
    pub going_down_margin_db: f64,
    /// Consecutive degraded samples required before `LinkGoingDown`
    /// (debounces single-sample fades).
    pub dwell: u32,
}

impl Default for MihConfig {
    /// 8 dB margin, 2-sample dwell: with the default [`SignalModel`] and a
    /// 50 ms sample tick this predicts link failure ≈100 ms to a few
    /// seconds ahead, depending on speed.
    fn default() -> Self {
        MihConfig {
            going_down_margin_db: 8.0,
            dwell: 2,
        }
    }
}

/// Per-link MIH event derivation state.
///
/// One engine instance tracks one serving link. The owner reports
/// attachment changes via [`MihEngine::on_attach`] / [`MihEngine::on_detach`]
/// and feeds RSSI samples via [`MihEngine::on_sample`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MihEngine {
    config: MihConfig,
    signal: SignalModel,
    /// Consecutive samples inside the going-down margin.
    degraded: u32,
    /// `LinkGoingDown` already reported for this attachment epoch.
    latched: bool,
    /// The link is currently up.
    up: bool,
}

impl MihEngine {
    /// Creates an engine for one serving link.
    #[must_use]
    pub fn new(config: MihConfig, signal: SignalModel) -> Self {
        MihEngine {
            config,
            signal,
            degraded: 0,
            latched: false,
            up: false,
        }
    }

    /// The signal model events are derived from.
    #[must_use]
    pub fn signal(&self) -> SignalModel {
        self.signal
    }

    /// `true` once `LinkGoingDown` has fired for the current attachment.
    #[must_use]
    pub fn going_down(&self) -> bool {
        self.latched
    }

    /// The owner attached (or re-attached) to a link: resets the dwell
    /// counter and the `LinkGoingDown` latch, and reports `LinkUp`.
    pub fn on_attach(&mut self) -> MihEvent {
        self.degraded = 0;
        self.latched = false;
        self.up = true;
        MihEvent::LinkUp
    }

    /// The owner lost its link for a non-signal reason (e.g. the protocol
    /// switched away). Reports `LinkDown` if the link was up.
    pub fn on_detach(&mut self) -> Option<MihEvent> {
        let was_up = self.up;
        self.up = false;
        self.degraded = 0;
        was_up.then_some(MihEvent::LinkDown)
    }

    /// Feeds one RSSI sample of the serving link; returns at most one
    /// event. `LinkGoingDown` fires once per attachment epoch after
    /// [`MihConfig::dwell`] consecutive samples within the margin;
    /// `LinkDown` fires when the signal falls below sensitivity.
    pub fn on_sample(&mut self, serving_rssi_dbm: f64) -> Option<MihEvent> {
        if !self.up {
            return None;
        }
        if !self.signal.is_usable(serving_rssi_dbm) {
            // A collapse so fast the margin was never sampled still reports
            // LinkGoingDown first: the predictive event precedes the
            // failure event even in the same tick's event cascade.
            self.up = false;
            self.degraded = 0;
            if !self.latched {
                self.latched = true;
                return Some(MihEvent::LinkGoingDown);
            }
            return Some(MihEvent::LinkDown);
        }
        let threshold = self.signal.sensitivity_dbm + self.config.going_down_margin_db;
        if serving_rssi_dbm < threshold {
            self.degraded += 1;
            if self.degraded >= self.config.dwell && !self.latched {
                self.latched = true;
                return Some(MihEvent::LinkGoingDown);
            }
        } else {
            self.degraded = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fh_sim::Rng64;

    fn engine() -> MihEngine {
        MihEngine::new(MihConfig::default(), SignalModel::default())
    }

    /// Walks a host away from the AP at `speed` m/s, 50 ms ticks, and
    /// returns the emitted event sequence.
    fn collapse_events(speed: f64) -> Vec<MihEvent> {
        let mut e = engine();
        let mut events = vec![e.on_attach()];
        let model = e.signal();
        for tick in 1..10_000 {
            let d = speed * 0.05 * f64::from(tick);
            let rssi = model.rssi_at(d);
            if let Some(ev) = e.on_sample(rssi) {
                events.push(ev);
                if ev == MihEvent::LinkDown {
                    break;
                }
            }
            if !e.up {
                // The link failed; emit the trailing LinkDown if the
                // cascade started with LinkGoingDown.
                events.push(MihEvent::LinkDown);
                break;
            }
        }
        events
    }

    #[test]
    fn going_down_precedes_down_at_walking_speed() {
        let events = collapse_events(10.0);
        assert_eq!(
            events,
            vec![
                MihEvent::LinkUp,
                MihEvent::LinkGoingDown,
                MihEvent::LinkDown
            ]
        );
    }

    #[test]
    fn going_down_precedes_down_even_on_instant_collapse() {
        // Vehicular speed: the signal can cross the whole margin between
        // two samples, but the predictive event still comes first.
        let events = collapse_events(500.0);
        let lgd = events
            .iter()
            .position(|&e| e == MihEvent::LinkGoingDown)
            .expect("LinkGoingDown present");
        let down = events
            .iter()
            .position(|&e| e == MihEvent::LinkDown)
            .expect("LinkDown present");
        assert!(lgd < down, "ordering violated: {events:?}");
    }

    #[test]
    fn dwell_debounces_single_sample_fades() {
        let mut e = engine();
        e.on_attach();
        let model = e.signal();
        let deep = model.sensitivity_dbm + 1.0; // inside the margin
        let fine = model.sensitivity_dbm + 20.0;
        assert_eq!(e.on_sample(deep), None, "one degraded sample: no event");
        assert_eq!(e.on_sample(fine), None, "recovered: counter resets");
        assert_eq!(e.on_sample(deep), None);
        assert_eq!(
            e.on_sample(deep),
            Some(MihEvent::LinkGoingDown),
            "dwell=2 consecutive degraded samples trip the trigger"
        );
    }

    /// Seeded flapping sweep: a noisy signal oscillating around the margin
    /// must produce exactly one `LinkGoingDown` per attachment epoch —
    /// never a storm — across many seeds.
    #[test]
    fn no_trigger_storm_under_flapping_across_seeds() {
        for seed in 0..64u64 {
            let mut rng = Rng64::seed_from(seed);
            let mut e = engine();
            e.on_attach();
            let model = e.signal();
            let mut goings_down = 0u32;
            let mut downs = 0u32;
            for _ in 0..2_000 {
                // Flap ±6 dB around the going-down threshold, with rare
                // deep fades below sensitivity.
                let jitter = (rng.gen_range_u64(1_200) as f64) / 100.0 - 6.0;
                let base = model.sensitivity_dbm + 8.0;
                let rssi = if rng.gen_range_u64(100) == 0 {
                    model.sensitivity_dbm - 5.0
                } else {
                    base + jitter
                };
                match e.on_sample(rssi) {
                    Some(MihEvent::LinkGoingDown) => goings_down += 1,
                    Some(MihEvent::LinkDown) => downs += 1,
                    _ => {}
                }
                if !e.up {
                    downs += 1;
                    // The radio re-attaches (blackout flapping): new epoch.
                    e.on_attach();
                    goings_down = 0;
                }
                assert!(
                    goings_down <= 1,
                    "seed {seed}: LinkGoingDown storm within one epoch"
                );
            }
            let _ = downs;
        }
    }

    #[test]
    fn detach_reports_down_once() {
        let mut e = engine();
        e.on_attach();
        assert_eq!(e.on_detach(), Some(MihEvent::LinkDown));
        assert_eq!(e.on_detach(), None, "already down");
        assert_eq!(e.on_sample(-30.0), None, "samples while down are inert");
        assert!(!e.up);
    }

    #[test]
    fn reattach_rearms_the_latch() {
        let mut e = engine();
        e.on_attach();
        let deep = e.signal().sensitivity_dbm + 1.0;
        assert_eq!(e.on_sample(deep), None);
        assert_eq!(e.on_sample(deep), Some(MihEvent::LinkGoingDown));
        assert!(e.going_down());
        assert_eq!(e.on_sample(deep), None, "latched: no repeat");
        e.on_detach();
        assert_eq!(e.on_attach(), MihEvent::LinkUp);
        assert!(!e.going_down());
        assert_eq!(e.on_sample(deep), None);
        assert_eq!(
            e.on_sample(deep),
            Some(MihEvent::LinkGoingDown),
            "new epoch re-arms the predictive trigger"
        );
    }
}
