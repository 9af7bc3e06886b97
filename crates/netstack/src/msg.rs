//! Wire formats of every signaling message in the reproduction.
//!
//! This module is pure vocabulary: router discovery, Mobile IPv6 binding
//! management, HMIPv6, the FMIPv6 fast-handover messages (Fig 2.3), the
//! smooth-handover buffer-management messages (Fig 2.4), and the thesis'
//! piggybacked combinations (Fig 3.2). Protocol *behaviour* lives in the
//! `fh-mip` and `fh-core` crates.
//!
//! Each message knows its approximate on-wire size so the experiment harness
//! can account signaling overhead (thesis §3.3: "most of the control messages
//! are piggybacked … only the BF message is added").
//!
//! # Examples
//!
//! ```
//! use fh_net::msg::{BufferInit, ControlMsg};
//! use fh_sim::SimDuration;
//!
//! let bi = BufferInit {
//!     size: 20,
//!     start_time: SimDuration::from_millis(500),
//!     lifetime: SimDuration::from_secs(2),
//! };
//! let standalone = ControlMsg::BufferInit(bi.clone());
//! let piggybacked = ControlMsg::RtSolPr { target_ap: fh_net::ApId(1), bi: Some(bi) };
//! // Piggybacking saves one IPv6+ICMPv6 header relative to two messages.
//! assert!(piggybacked.wire_size() < ControlMsg::RtSolPr { target_ap: fh_net::ApId(1), bi: None }.wire_size() + standalone.wire_size());
//! ```

use std::net::Ipv6Addr;

use fh_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::addr::Prefix;

/// Link-layer identifier of a WLAN access point.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ApId(pub u32);

impl std::fmt::Display for ApId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ap{}", self.0)
    }
}

const ICMP_BASE: u32 = 8;
const ADDR: u32 = 16;
const PREFIX_OPT: u32 = 32;
const TIME_FIELD: u32 = 4;

/// Buffer Initialization option (thesis §3.2.2.1).
///
/// Piggybacked on RtSolPr (or sent standalone in the original smooth-handover
/// draft). Carries the requested buffer size, the time at which the router
/// should start buffering even without an FBU (protection against moving out
/// of range too fast), and the reservation lifetime. Both times zero cancels
/// a pending handover.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BufferInit {
    /// Requested buffer space, in packets.
    pub size: u32,
    /// Delay after which the router must start buffering on its own.
    pub start_time: SimDuration,
    /// How long the reservation stays valid.
    pub lifetime: SimDuration,
}

impl BufferInit {
    /// A cancel request: start time and lifetime both zero (§3.2.2.1).
    #[must_use]
    pub fn cancel() -> Self {
        BufferInit {
            size: 0,
            start_time: SimDuration::ZERO,
            lifetime: SimDuration::ZERO,
        }
    }

    /// `true` if this request cancels the handover.
    #[must_use]
    pub fn is_cancel(&self) -> bool {
        self.start_time.is_zero() && self.lifetime.is_zero()
    }

    fn wire_size(&self) -> u32 {
        4 + 2 * TIME_FIELD
    }
}

/// Buffer Request option — PAR→NAR inside HI, relaying the MH's request.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BufferRequest {
    /// Requested buffer space at the NAR, in packets.
    pub size: u32,
    /// Reservation lifetime.
    pub lifetime: SimDuration,
}

impl BufferRequest {
    fn wire_size(&self) -> u32 {
        4 + TIME_FIELD
    }
}

/// Buffer Acknowledgement option — whether buffer space was granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BufferAck {
    /// Space granted at the NAR, in packets (0 = denied).
    pub nar_granted: u32,
    /// Space granted at the PAR, in packets (0 = denied).
    pub par_granted: u32,
}

impl BufferAck {
    fn wire_size(self) -> u32 {
        8
    }
}

/// Status code carried in HAck / FBAck / BindingAck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AckStatus {
    /// Request accepted.
    #[default]
    Accepted,
    /// Request rejected.
    Rejected,
}

impl AckStatus {
    /// `true` for [`AckStatus::Accepted`].
    #[must_use]
    pub fn is_accepted(self) -> bool {
        matches!(self, AckStatus::Accepted)
    }
}

/// Who a Mobile IPv6 binding update is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BindingKind {
    /// Home-agent registration (macro mobility): home address ↔ RCoA.
    HomeAgent,
    /// HMIPv6 local registration at the MAP: RCoA ↔ LCoA.
    Map,
    /// Route-optimization binding at a correspondent node.
    Correspondent,
}

/// Simple pre-shared handover authentication token (thesis future work:
/// "authentication mechanism is required before the NAR accepts handoffs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AuthToken(pub u64);

/// Every signaling message the simulation exchanges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlMsg {
    // ---- Router discovery -------------------------------------------------
    /// Periodic router advertisement (RFC 4861), extended with the HMIPv6
    /// MAP option and the smooth-handover "B" (buffering-capable) flag.
    RouterAdvertisement {
        /// The on-link prefix mobile hosts form their LCoA from.
        prefix: Prefix,
        /// The advertising router's address.
        router: Ipv6Addr,
        /// The Mobility Anchor Point serving this access network, if any.
        map: Option<Ipv6Addr>,
        /// The "B" flag: this router offers handover buffering.
        buffering: bool,
    },
    /// Router solicitation.
    RouterSolicitation,

    // ---- FMIPv6 (Fig 2.3) with piggybacked buffer options (Fig 3.2) ------
    /// Router Solicitation for Proxy; `bi` piggybacks the Buffer
    /// Initialization option (RtSolPr+BI, Fig 3.3).
    RtSolPr {
        /// Link-layer id of the AP the MH intends to move to.
        target_ap: ApId,
        /// Piggybacked buffer request, if the MH wants buffering.
        bi: Option<BufferInit>,
    },
    /// Proxy Router Advertisement; answers RtSolPr with the NAR's prefix and
    /// address and (piggybacked) the result of the buffer negotiation.
    PrRtAdv {
        /// The AP the advertisement concerns.
        target_ap: ApId,
        /// Prefix of the new access router's subnet.
        nar_prefix: Prefix,
        /// The new access router's address.
        nar_addr: Ipv6Addr,
        /// Outcome of the PAR/NAR buffer negotiation.
        ba: Option<BufferAck>,
        /// Token the MH must present to the NAR when authentication is on.
        auth: Option<AuthToken>,
    },
    /// Handover Initiate, PAR→NAR; `br` piggybacks the Buffer Request
    /// (HI+BR).
    HandoverInitiate {
        /// The MH's current (previous) care-of address.
        pcoa: Ipv6Addr,
        /// The MH's link-layer address (FMIPv6 carries it so the NAR can
        /// reach the host before any IP binding exists). In the simulation
        /// the L2 address *is* the host's node id.
        mh_l2: crate::topology::NodeId,
        /// The MH's prospective new care-of address, when already formed.
        ncoa: Option<Ipv6Addr>,
        /// Piggybacked buffer request.
        br: Option<BufferRequest>,
        /// Class-of-service the MH asked buffering for, when the precise
        /// negotiation extension is active (future work §5): per-class
        /// packet counts requested at the NAR.
        per_class: Option<[u32; 3]>,
        /// Authentication token the NAR should expect in the FNA.
        auth: Option<AuthToken>,
    },
    /// Handover Acknowledge, NAR→PAR; `ba` piggybacks the Buffer
    /// Acknowledgement (HAck+BA).
    HandoverAck {
        /// The MH this acknowledgement concerns.
        pcoa: Ipv6Addr,
        /// Whether the NAR accepted the handover.
        status: AckStatus,
        /// Buffer space granted at the NAR.
        ba: Option<BufferAck>,
    },
    /// Fast Binding Update, MH→PAR: start redirecting traffic.
    FastBindingUpdate {
        /// Previous care-of address (source of the binding).
        pcoa: Ipv6Addr,
        /// New care-of address.
        ncoa: Ipv6Addr,
    },
    /// Fast Binding Acknowledgement, PAR→MH (old link) and PAR→NAR.
    FastBindingAck {
        /// The MH this acknowledgement concerns.
        pcoa: Ipv6Addr,
        /// Whether the fast binding was accepted.
        status: AckStatus,
    },
    /// Fast Neighbor Advertisement, MH→NAR on attach; `bf` piggybacks the
    /// Buffer Forward request (FNA+BF, Fig 3.4).
    FastNeighborAdvertisement {
        /// The MH's new care-of address.
        ncoa: Ipv6Addr,
        /// Previous care-of address, so the NAR can find the session.
        pcoa: Ipv6Addr,
        /// Piggybacked buffer-forward request.
        bf: bool,
        /// Authentication token, when the NAR demands one.
        auth: Option<AuthToken>,
    },

    // ---- Buffer management (Fig 2.4 + thesis additions) -------------------
    /// Standalone Buffer Initialization (smooth-handover draft, and the
    /// pure-L2 path of Fig 3.5 reuses RtSolPr+BI instead).
    BufferInit(BufferInit),
    /// Standalone Buffer Acknowledgement (smooth-handover draft).
    BufferAck(BufferAck),
    /// Buffer Forward: flush buffered packets to the MH. Sent MH→AR in the
    /// draft and pure-L2 case, and NAR→PAR in the proposed scheme (the only
    /// *new* standalone message, §3.3).
    BufferForward {
        /// The MH (previous care-of address) whose buffer should flush.
        pcoa: Ipv6Addr,
    },
    /// Buffer Full: NAR→PAR, case 1.b of Table 3.3 — the NAR ran out of
    /// space for high-priority packets, the PAR must buffer the rest.
    BufferFull {
        /// The MH (previous care-of address) whose NAR buffer filled up.
        pcoa: Ipv6Addr,
    },

    // ---- Mobile IPv6 / HMIPv6 ---------------------------------------------
    /// Binding update (home agent, MAP, or correspondent registration).
    BindingUpdate {
        /// Which binding is being updated.
        kind: BindingKind,
        /// The stable address (home address, or RCoA for MAP bindings).
        home: Ipv6Addr,
        /// The current care-of address (RCoA or LCoA).
        coa: Ipv6Addr,
        /// Registration lifetime (zero deregisters).
        lifetime: SimDuration,
    },
    /// Binding acknowledgement.
    BindingAck {
        /// Which binding was updated.
        kind: BindingKind,
        /// The stable address the update concerned.
        home: Ipv6Addr,
        /// Whether the registration was accepted.
        status: AckStatus,
    },
}

impl ControlMsg {
    /// Approximate on-wire size of the ICMPv6/MH message body in bytes
    /// (excluding the IPv6 header, which [`crate::Packet::control`] adds).
    #[must_use]
    pub fn wire_size(&self) -> u32 {
        match self {
            ControlMsg::RouterAdvertisement { map, .. } => {
                ICMP_BASE + PREFIX_OPT + map.map_or(0, |_| ADDR)
            }
            ControlMsg::RouterSolicitation => ICMP_BASE,
            ControlMsg::RtSolPr { bi, .. } => {
                ICMP_BASE + 8 + bi.as_ref().map_or(0, BufferInit::wire_size)
            }
            ControlMsg::PrRtAdv { ba, auth, .. } => {
                ICMP_BASE
                    + 8
                    + PREFIX_OPT
                    + ADDR
                    + ba.map_or(0, BufferAck::wire_size)
                    + auth.map_or(0, |_| 8)
            }
            ControlMsg::HandoverInitiate {
                ncoa,
                br,
                per_class,
                auth,
                ..
            } => {
                ICMP_BASE
                    + ADDR
                    + 8 // link-layer address option
                    + ncoa.map_or(0, |_| ADDR)
                    + br.as_ref().map_or(0, BufferRequest::wire_size)
                    + per_class.map_or(0, |_| 12)
                    + auth.map_or(0, |_| 8)
            }
            ControlMsg::HandoverAck { ba, .. } => {
                ICMP_BASE + ADDR + 1 + ba.map_or(0, BufferAck::wire_size)
            }
            ControlMsg::FastBindingUpdate { .. } => ICMP_BASE + 2 * ADDR,
            ControlMsg::FastBindingAck { .. } => ICMP_BASE + ADDR + 1,
            ControlMsg::FastNeighborAdvertisement { bf, auth, .. } => {
                ICMP_BASE + 2 * ADDR + u32::from(*bf) + auth.map_or(0, |_| 8)
            }
            ControlMsg::BufferInit(bi) => ICMP_BASE + bi.wire_size(),
            ControlMsg::BufferAck(ba) => ICMP_BASE + ba.wire_size(),
            ControlMsg::BufferForward { .. } => ICMP_BASE + ADDR,
            ControlMsg::BufferFull { .. } => ICMP_BASE + ADDR,
            ControlMsg::BindingUpdate { .. } => ICMP_BASE + 2 * ADDR + TIME_FIELD,
            ControlMsg::BindingAck { .. } => ICMP_BASE + ADDR + 1,
        }
    }

    /// Short names of the message kinds, indexed by
    /// [`ControlMsg::kind_index`].
    pub const KIND_NAMES: [&'static str; 15] = [
        "RA",
        "RS",
        "RtSolPr",
        "PrRtAdv",
        "HI",
        "HAck",
        "FBU",
        "FBAck",
        "FNA",
        "BI",
        "BA",
        "BF",
        "BufferFull",
        "BU",
        "BAck",
    ];

    /// Dense index of this message's kind, for per-kind counter arrays.
    #[must_use]
    pub fn kind_index(&self) -> usize {
        match self {
            ControlMsg::RouterAdvertisement { .. } => 0,
            ControlMsg::RouterSolicitation => 1,
            ControlMsg::RtSolPr { .. } => 2,
            ControlMsg::PrRtAdv { .. } => 3,
            ControlMsg::HandoverInitiate { .. } => 4,
            ControlMsg::HandoverAck { .. } => 5,
            ControlMsg::FastBindingUpdate { .. } => 6,
            ControlMsg::FastBindingAck { .. } => 7,
            ControlMsg::FastNeighborAdvertisement { .. } => 8,
            ControlMsg::BufferInit(_) => 9,
            ControlMsg::BufferAck(_) => 10,
            ControlMsg::BufferForward { .. } => 11,
            ControlMsg::BufferFull { .. } => 12,
            ControlMsg::BindingUpdate { .. } => 13,
            ControlMsg::BindingAck { .. } => 14,
        }
    }

    /// Short name for statistics and traces.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        Self::KIND_NAMES[self.kind_index()]
    }

    /// `true` if this message carries a piggybacked buffer-management option
    /// (the thesis' signaling-overhead argument, §3.3).
    #[must_use]
    pub fn has_piggyback(&self) -> bool {
        match self {
            ControlMsg::RtSolPr { bi, .. } => bi.is_some(),
            ControlMsg::PrRtAdv { ba, .. } => ba.is_some(),
            ControlMsg::HandoverInitiate { br, .. } => br.is_some(),
            ControlMsg::HandoverAck { ba, .. } => ba.is_some(),
            ControlMsg::FastNeighborAdvertisement { bf, .. } => *bf,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0x2001, 0xdb8, n, 0, 0, 0, 0, 1)
    }

    #[test]
    fn cancel_semantics() {
        assert!(BufferInit::cancel().is_cancel());
        let live = BufferInit {
            size: 10,
            start_time: SimDuration::ZERO,
            lifetime: SimDuration::from_secs(1),
        };
        assert!(!live.is_cancel());
    }

    #[test]
    fn piggyback_grows_message_but_less_than_standalone() {
        let bi = BufferInit {
            size: 20,
            start_time: SimDuration::from_millis(100),
            lifetime: SimDuration::from_secs(1),
        };
        let bare = ControlMsg::RtSolPr {
            target_ap: ApId(1),
            bi: None,
        };
        let piggy = ControlMsg::RtSolPr {
            target_ap: ApId(1),
            bi: Some(bi.clone()),
        };
        let standalone = ControlMsg::BufferInit(bi);
        assert!(piggy.wire_size() > bare.wire_size());
        assert!(piggy.wire_size() < bare.wire_size() + standalone.wire_size());
        assert!(piggy.has_piggyback());
        assert!(!bare.has_piggyback());
    }

    #[test]
    fn every_message_has_positive_size_and_name() {
        // One message per variant, in `kind_index` order.
        let msgs = vec![
            ControlMsg::RouterAdvertisement {
                prefix: crate::addr::doc_subnet(1),
                router: a(1),
                map: Some(a(9)),
                buffering: true,
            },
            ControlMsg::RouterSolicitation,
            ControlMsg::RtSolPr {
                target_ap: ApId(2),
                bi: None,
            },
            ControlMsg::PrRtAdv {
                target_ap: ApId(2),
                nar_prefix: crate::addr::doc_subnet(2),
                nar_addr: a(2),
                ba: Some(BufferAck {
                    nar_granted: 20,
                    par_granted: 20,
                }),
                auth: Some(AuthToken(7)),
            },
            ControlMsg::HandoverInitiate {
                pcoa: a(1),
                mh_l2: crate::topology::Topology::new().add_node("mh"),
                ncoa: Some(a(2)),
                br: Some(BufferRequest {
                    size: 20,
                    lifetime: SimDuration::from_secs(1),
                }),
                per_class: Some([5, 10, 5]),
                auth: None,
            },
            ControlMsg::HandoverAck {
                pcoa: a(1),
                status: AckStatus::Accepted,
                ba: None,
            },
            ControlMsg::FastBindingUpdate {
                pcoa: a(1),
                ncoa: a(2),
            },
            ControlMsg::FastBindingAck {
                pcoa: a(1),
                status: AckStatus::Rejected,
            },
            ControlMsg::FastNeighborAdvertisement {
                ncoa: a(2),
                pcoa: a(1),
                bf: true,
                auth: None,
            },
            ControlMsg::BufferInit(BufferInit::cancel()),
            ControlMsg::BufferAck(BufferAck {
                nar_granted: 1,
                par_granted: 1,
            }),
            ControlMsg::BufferForward { pcoa: a(1) },
            ControlMsg::BufferFull { pcoa: a(1) },
            ControlMsg::BindingUpdate {
                kind: BindingKind::Map,
                home: a(3),
                coa: a(2),
                lifetime: SimDuration::from_secs(60),
            },
            ControlMsg::BindingAck {
                kind: BindingKind::Map,
                home: a(3),
                status: AckStatus::Accepted,
            },
        ];
        assert_eq!(msgs.len(), ControlMsg::KIND_NAMES.len());
        for (i, m) in msgs.iter().enumerate() {
            assert!(m.wire_size() >= ICMP_BASE, "{} too small", m.kind_name());
            assert_eq!(m.kind_index(), i);
            assert!(!m.kind_name().is_empty());
        }
        let mut names = ControlMsg::KIND_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ControlMsg::KIND_NAMES.len(), "names unique");
    }

    #[test]
    fn ack_status_predicate() {
        assert!(AckStatus::Accepted.is_accepted());
        assert!(!AckStatus::Rejected.is_accepted());
        assert_eq!(AckStatus::default(), AckStatus::Accepted);
    }

    #[test]
    fn fna_piggyback_flag() {
        let m = ControlMsg::FastNeighborAdvertisement {
            ncoa: a(2),
            pcoa: a(1),
            bf: true,
            auth: None,
        };
        assert!(m.has_piggyback());
        let m2 = ControlMsg::FastNeighborAdvertisement {
            ncoa: a(2),
            pcoa: a(1),
            bf: false,
            auth: None,
        };
        assert!(!m2.has_piggyback());
    }
}
