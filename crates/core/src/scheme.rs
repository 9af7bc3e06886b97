//! Buffering schemes and protocol configuration.
//!
//! [`Scheme`] selects which handover buffer management the network runs —
//! the proposed dual-router scheme or one of the baselines the thesis
//! compares against in Fig 4.2:
//!
//! | Scheme | Fig 4.2 line | Meaning |
//! |---|---|---|
//! | [`Scheme::NoBuffer`] | FH   | fast handover without any buffering |
//! | [`Scheme::NarOnly`]  | NAR  | the original FMIPv6: buffer at the new access router only |
//! | [`Scheme::ParOnly`]  | PAR  | the smooth-handover draft: buffer at the previous router only |
//! | [`Scheme::Dual`]     | DUAL | the proposed scheme; `classify` switches Table 3.3 on/off |
//! | [`Scheme::SafetyNet`] | SAFETY | multicast to old + new router, selective delivery at the winner |
//!
//! `SAFETY` is not a thesis baseline: it reproduces the SafetyNet flavour
//! of vertical-handover buffering (Petander et al.), added alongside the
//! heterogeneous-radio layer. The PAR bicasts every redirected packet —
//! one copy attempted on the old link, one tunneled to the NAR's buffer —
//! and the mobile host suppresses whichever copy arrives second.

use fh_sim::{Backoff, SimDuration};
use serde::{Deserialize, Serialize};

/// Which buffer management scheme the network runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Fast handover with no buffering at all (the `FH` baseline).
    NoBuffer,
    /// Original fast handover: all packets buffered at the NAR.
    NarOnly,
    /// Smooth-handover draft: all packets buffered at the PAR.
    ParOnly,
    /// The proposed enhanced scheme: both routers' buffers cooperate.
    Dual {
        /// `true` enables the class-aware operation matrix (Table 3.3);
        /// `false` treats every packet the same (Figs 4.4 / 4.8).
        classify: bool,
    },
    /// SafetyNet-style bicast: the PAR duplicates every redirected packet
    /// (deliver on the old link *and* park a copy at the NAR) and the
    /// mobile host drops whichever copy loses the race. Zero-loss across
    /// a make-before-break vertical handover, at the price of duplicate
    /// airtime; the conservation ledger accounts the second copy as
    /// `duplicated`, not `sent`.
    SafetyNet,
}

impl Scheme {
    /// The thesis' proposal with classification enabled.
    pub const PROPOSED: Scheme = Scheme::Dual { classify: true };

    /// Every scheme, in the Fig 4.2 legend order (`NAR`, `PAR`, `DUAL`,
    /// `FH`) with the class-aware proposal after its class-blind
    /// variant and the SafetyNet bicast appended after the thesis
    /// baselines. The single source of truth: figure series, CSV headers,
    /// CLI listings and exhaustive tests all derive from this array
    /// instead of repeating the list.
    pub const ALL: [Scheme; 6] = [
        Scheme::NarOnly,
        Scheme::ParOnly,
        Scheme::Dual { classify: false },
        Scheme::Dual { classify: true },
        Scheme::NoBuffer,
        Scheme::SafetyNet,
    ];

    /// `true` if the mobile host should request buffering at the NAR.
    /// SafetyNet parks its duplicate copies there, so it counts.
    #[must_use]
    pub fn uses_nar_buffer(self) -> bool {
        matches!(
            self,
            Scheme::NarOnly | Scheme::Dual { .. } | Scheme::SafetyNet
        )
    }

    /// `true` if the mobile host deduplicates deliveries by `(flow, seq)`
    /// — only SafetyNet, whose bicast intentionally races two copies.
    #[must_use]
    pub fn bicasts(self) -> bool {
        matches!(self, Scheme::SafetyNet)
    }

    /// `true` if the mobile host should request buffering at the PAR.
    #[must_use]
    pub fn uses_par_buffer(self) -> bool {
        matches!(self, Scheme::ParOnly | Scheme::Dual { .. })
    }

    /// `true` if the Table 3.3 class-aware matrix is active.
    #[must_use]
    pub fn classifies(self) -> bool {
        matches!(self, Scheme::Dual { classify: true })
    }

    /// `true` if any buffering happens at all.
    #[must_use]
    pub fn buffers(self) -> bool {
        !matches!(self, Scheme::NoBuffer)
    }

    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scheme::NoBuffer => "FH",
            Scheme::NarOnly => "NAR",
            Scheme::ParOnly => "PAR",
            Scheme::Dual { classify: false } => "DUAL",
            Scheme::Dual { classify: true } => "DUAL+class",
            Scheme::SafetyNet => "SAFETY",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when a string names no [`Scheme`] label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError(String);

impl std::fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scheme \"{}\" (expected one of: ", self.0)?;
        for (i, s) in Scheme::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(s.label())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParseSchemeError {}

impl std::str::FromStr for Scheme {
    type Err = ParseSchemeError;

    /// Parses a figure-legend label (`FH`, `NAR`, `PAR`, `DUAL`,
    /// `DUAL+class`, `SAFETY`), case-insensitively — the exact round
    /// trip of [`Scheme::label`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::ALL
            .into_iter()
            .find(|scheme| scheme.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseSchemeError(s.to_owned()))
    }
}

/// Tunable protocol parameters shared by mobile hosts and access routers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Active buffering scheme.
    pub scheme: Scheme,
    /// Buffer space (packets) a mobile host requests per handover.
    pub buffer_request: u32,
    /// Reservation lifetime the host asks for.
    pub reservation_lifetime: SimDuration,
    /// BI start-time: the PAR auto-starts buffering this long after the
    /// request even if no FBU arrives (protection against fast movers).
    /// Zero disables auto-start.
    pub buffer_start_time: SimDuration,
    /// The administrator constant `a` (Table 3.3 case 1.c / 3.c): best
    /// effort is buffered at the PAR only while free space exceeds this.
    pub threshold_a: u32,
    /// Require the handover authentication token (thesis future work).
    pub auth_required: bool,
    /// Enable the precise per-class negotiation extension (thesis future
    /// work): HI carries per-class packet counts instead of one total.
    pub precise_negotiation: bool,
    /// Router-advertisement beacon interval (1 s in the thesis).
    pub ra_interval: SimDuration,
    /// Spacing between packets of a buffer flush. Zero hands the whole
    /// buffer to the interface at once (it still serializes on the
    /// channel); a positive value models the per-packet processing delay
    /// the thesis observes when a router "cannot dump all the buffered
    /// packets at the same time" (§4.2.3).
    pub flush_spacing: SimDuration,
    /// Signaling retransmission + graceful degradation (off by default —
    /// the thesis drafts have no retransmissions, and the faithful figures
    /// depend on that).
    pub rtx: RetransmitConfig,
    /// Soft-state lifetime of a host route installed at an access router.
    /// Routes are refreshed by the host's FNA (re-sent on each router
    /// advertisement while finite); a route whose refresh never arrives is
    /// reclaimed by the expiry sweep. `SimDuration::MAX` (the default)
    /// makes routes hard state, exactly as the faithful figures assume.
    pub host_route_lifetime: SimDuration,
    /// Dead-peer timeout for inter-router handover sessions: a PAR
    /// session whose NAR has been silent this long is reclaimed (its
    /// buffered packets released as `DropReason::Reclaimed`).
    /// `SimDuration::MAX` (the default) disables the sweep.
    pub dead_peer_timeout: SimDuration,
    /// Overload-control knobs: byte budget, shed watermarks and the
    /// handover watchdog. Everything off by default so the faithful
    /// figures and golden artifacts are untouched.
    pub pressure: PressureConfig,
}

/// Overload-control parameters for the access routers' buffer pools.
///
/// The packet-count capacity of the pool is how the thesis counts (§3.1.1);
/// this layer adds the dimension real routers die on — memory. With a
/// finite [`PressureConfig::byte_budget`], admission is additionally judged
/// in bytes, and crossing the high watermark engages the shed ladder, which
/// sacrifices parked packets (`DropReason::PressureShed`) in the policy's
/// declared rung order until usage falls back to the low watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PressureConfig {
    /// Byte budget for each router's buffer pool. 0 (the default)
    /// disables byte accounting entirely.
    pub byte_budget: usize,
    /// Shed-ladder trigger, as a percentage of the byte budget.
    pub high_watermark_pct: u8,
    /// Shed-ladder release point: shedding stops once parked bytes fall
    /// to this percentage of the budget.
    pub low_watermark_pct: u8,
    /// Deadline for each buffering handover session: a session that
    /// neither flushes nor expires in time is force-resolved by the
    /// watchdog. `SimDuration::MAX` (the default) disables it.
    pub watchdog_deadline: SimDuration,
}

impl PressureConfig {
    /// `true` if byte accounting (and with it the shed ladder) is armed.
    #[must_use]
    pub fn engaged(&self) -> bool {
        self.byte_budget > 0
    }

    /// Parked bytes at which the shed ladder engages.
    #[must_use]
    pub fn high_bytes(&self) -> usize {
        self.byte_budget / 100 * u8::min(self.high_watermark_pct, 100) as usize
            + self.byte_budget % 100 * u8::min(self.high_watermark_pct, 100) as usize / 100
    }

    /// Parked bytes down to which the shed ladder drains.
    #[must_use]
    pub fn low_bytes(&self) -> usize {
        self.byte_budget / 100 * u8::min(self.low_watermark_pct, 100) as usize
            + self.byte_budget % 100 * u8::min(self.low_watermark_pct, 100) as usize / 100
    }
}

impl Default for PressureConfig {
    fn default() -> Self {
        PressureConfig {
            byte_budget: 0,
            high_watermark_pct: 90,
            low_watermark_pct: 70,
            watchdog_deadline: SimDuration::MAX,
        }
    }
}

/// Retransmission policy for the handover signaling exchanges.
///
/// When enabled, the MH retries RtSolPr+BI and FNA/BU, and the PAR retries
/// HI+BR, each on an exponential-backoff schedule with a retry cap. A
/// predictive exchange that exhausts its retries degrades to the reactive
/// path (attach first, FNA+BF after) instead of wedging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetransmitConfig {
    /// Master switch. `false` reproduces the draft exactly: one shot per
    /// message, recovery only via the router-advertisement beacon.
    pub enabled: bool,
    /// The shared backoff schedule for all hardened exchanges.
    pub backoff: Backoff,
}

impl RetransmitConfig {
    /// Retransmissions enabled with the default schedule
    /// (200 ms initial, doubling, 2 s cap, 3 retries).
    #[must_use]
    pub fn hardened() -> Self {
        RetransmitConfig {
            enabled: true,
            ..RetransmitConfig::default()
        }
    }

    /// The named presets scenario plans use, in listing order: `off` (the
    /// draft-faithful single-shot signaling) and `hardened`
    /// ([`RetransmitConfig::hardened`]).
    pub const PRESETS: [(&'static str, Preset); 2] = [
        ("off", RetransmitConfig::default),
        ("hardened", RetransmitConfig::hardened),
    ];
}

/// Builds one [`RetransmitConfig::PRESETS`] entry.
type Preset = fn() -> RetransmitConfig;

/// Error returned when a string names no [`RetransmitConfig`] preset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRetransmitError(String);

impl std::fmt::Display for ParseRetransmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown retransmit policy \"{}\" (expected one of: {})",
            self.0,
            RetransmitConfig::PRESETS.map(|(name, _)| name).join(", ")
        )
    }
}

impl std::error::Error for ParseRetransmitError {}

impl std::str::FromStr for RetransmitConfig {
    type Err = ParseRetransmitError;

    /// Parses a [`RetransmitConfig::PRESETS`] name, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        RetransmitConfig::PRESETS
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(s))
            .map(|(_, preset)| preset())
            .ok_or_else(|| ParseRetransmitError(s.to_owned()))
    }
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            enabled: false,
            // Initial timeout must exceed the worst-case RtSolPr→PrRtAdv
            // round trip (wireless + PAR↔NAR RTT, ~110 ms at a 50 ms AR
            // link) so timers only fire on actual loss.
            backoff: Backoff::new(
                SimDuration::from_millis(200),
                2,
                SimDuration::from_secs(2),
                3,
            ),
        }
    }
}

impl ProtocolConfig {
    /// The thesis' simulation defaults (§4.1) with the proposed scheme.
    #[must_use]
    pub fn proposed() -> Self {
        ProtocolConfig {
            scheme: Scheme::PROPOSED,
            ..ProtocolConfig::default()
        }
    }

    /// Same defaults with a different scheme.
    #[must_use]
    pub fn with_scheme(scheme: Scheme) -> Self {
        ProtocolConfig {
            scheme,
            ..ProtocolConfig::default()
        }
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            scheme: Scheme::PROPOSED,
            buffer_request: 20,
            reservation_lifetime: SimDuration::from_secs(5),
            buffer_start_time: SimDuration::from_millis(1500),
            threshold_a: 10,
            auth_required: false,
            precise_negotiation: false,
            ra_interval: SimDuration::from_secs(1),
            flush_spacing: SimDuration::ZERO,
            rtx: RetransmitConfig::default(),
            host_route_lifetime: SimDuration::MAX,
            dead_peer_timeout: SimDuration::MAX,
            pressure: PressureConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_capabilities() {
        assert!(!Scheme::NoBuffer.buffers());
        assert!(!Scheme::NoBuffer.uses_nar_buffer());
        assert!(!Scheme::NoBuffer.uses_par_buffer());

        assert!(Scheme::NarOnly.uses_nar_buffer());
        assert!(!Scheme::NarOnly.uses_par_buffer());

        assert!(!Scheme::ParOnly.uses_nar_buffer());
        assert!(Scheme::ParOnly.uses_par_buffer());

        assert!(Scheme::PROPOSED.uses_nar_buffer());
        assert!(Scheme::PROPOSED.uses_par_buffer());

        // SafetyNet parks only at the NAR (the PAR bicasts, never parks),
        // and is the only scheme whose host deduplicates.
        assert!(Scheme::SafetyNet.uses_nar_buffer());
        assert!(!Scheme::SafetyNet.uses_par_buffer());
        assert!(Scheme::SafetyNet.buffers());
        assert!(Scheme::SafetyNet.bicasts());
        for scheme in Scheme::ALL {
            assert_eq!(scheme.bicasts(), scheme == Scheme::SafetyNet);
        }
    }

    #[test]
    fn classification_only_in_dual_classify() {
        assert!(Scheme::PROPOSED.classifies());
        assert!(!Scheme::Dual { classify: false }.classifies());
        assert!(!Scheme::NarOnly.classifies());
        assert!(!Scheme::ParOnly.classifies());
        assert!(!Scheme::NoBuffer.classifies());
        assert!(!Scheme::SafetyNet.classifies());
    }

    #[test]
    fn labels_are_figure_legends() {
        assert_eq!(Scheme::NoBuffer.label(), "FH");
        assert_eq!(Scheme::NarOnly.label(), "NAR");
        assert_eq!(Scheme::ParOnly.label(), "PAR");
        assert_eq!(Scheme::Dual { classify: false }.to_string(), "DUAL");
        assert_eq!(Scheme::PROPOSED.to_string(), "DUAL+class");
        assert_eq!(Scheme::SafetyNet.label(), "SAFETY");
    }

    #[test]
    fn all_is_exhaustive_and_labels_round_trip() {
        // Every variant appears exactly once …
        assert_eq!(Scheme::ALL.len(), 6);
        for (i, a) in Scheme::ALL.iter().enumerate() {
            for b in &Scheme::ALL[i + 1..] {
                assert_ne!(a, b, "duplicate entry in Scheme::ALL");
            }
        }
        // … and label → parse is the identity, case-insensitively.
        for scheme in Scheme::ALL {
            assert_eq!(scheme.label().parse::<Scheme>(), Ok(scheme));
            assert_eq!(scheme.label().to_lowercase().parse::<Scheme>(), Ok(scheme));
        }
        let err = "bogus".parse::<Scheme>().unwrap_err();
        assert!(err.to_string().contains("DUAL+class"), "{err}");
    }

    #[test]
    fn retransmission_is_opt_in() {
        // The draft-faithful default has no retransmissions; hardening is
        // explicit so baseline figures stay byte-identical.
        assert!(!ProtocolConfig::default().rtx.enabled);
        let hard = RetransmitConfig::hardened();
        assert!(hard.enabled);
        assert!(hard.backoff.max_retries > 0);
        assert!(hard.backoff.initial >= SimDuration::from_millis(150));
    }

    #[test]
    fn retransmit_presets_parse_by_name() {
        assert_eq!(
            "off".parse::<RetransmitConfig>(),
            Ok(RetransmitConfig::default())
        );
        assert_eq!(
            "HARDENED".parse::<RetransmitConfig>(),
            Ok(RetransmitConfig::hardened())
        );
        let err = "sometimes".parse::<RetransmitConfig>().unwrap_err();
        assert!(err.to_string().contains("hardened"), "{err}");
    }

    #[test]
    fn soft_state_is_hard_by_default() {
        // The faithful figures assume routes and sessions never time out;
        // finite lifetimes are an explicit robustness opt-in.
        let c = ProtocolConfig::default();
        assert_eq!(c.host_route_lifetime, SimDuration::MAX);
        assert_eq!(c.dead_peer_timeout, SimDuration::MAX);
        // Overload control is an opt-in too.
        assert!(!c.pressure.engaged());
        assert_eq!(c.pressure.byte_budget, 0);
        assert_eq!(c.pressure.watchdog_deadline, SimDuration::MAX);
    }

    #[test]
    fn watermarks_scale_with_the_byte_budget() {
        let p = PressureConfig {
            byte_budget: 10_000,
            high_watermark_pct: 90,
            low_watermark_pct: 70,
            ..PressureConfig::default()
        };
        assert_eq!(p.high_bytes(), 9_000);
        assert_eq!(p.low_bytes(), 7_000);
        assert!(p.engaged());
        // Percentages are clamped and odd budgets stay exact-ish without
        // overflowing.
        let odd = PressureConfig {
            byte_budget: 333,
            high_watermark_pct: 200,
            low_watermark_pct: 100,
            ..PressureConfig::default()
        };
        assert_eq!(odd.high_bytes(), odd.low_bytes());
        assert_eq!(odd.high_bytes(), 333);
        let huge = PressureConfig {
            byte_budget: usize::MAX,
            high_watermark_pct: 90,
            low_watermark_pct: 70,
            ..PressureConfig::default()
        };
        assert!(huge.high_bytes() > huge.low_bytes());
    }

    #[test]
    fn default_config_matches_thesis_parameters() {
        let c = ProtocolConfig::default();
        assert_eq!(c.ra_interval, SimDuration::from_secs(1));
        assert!(c.buffer_request > 0);
        assert!(!c.auth_required);
        let p = ProtocolConfig::with_scheme(Scheme::NarOnly);
        assert_eq!(p.scheme, Scheme::NarOnly);
        assert_eq!(ProtocolConfig::proposed().scheme, Scheme::PROPOSED);
    }
}
