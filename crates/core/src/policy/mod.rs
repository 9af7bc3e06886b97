//! The buffer-policy layer: *what* to do with a packet, never *how*.
//!
//! This is the bottom layer of the refactored access-router stack
//! (policy ← datapath ← signaling). Every decision comes from one table:
//! [`matrix`], the transcription of the thesis' Tables 3.2 / 3.3 with the
//! baselines and the SafetyNet bicast as further rows. [`PolicyEngine`]
//! wraps a [`Scheme`] and translates those rows into the datapath's
//! vocabulary:
//!
//! * [`BufferPolicy::admit`] — park, forward, tunnel or drop;
//! * [`BufferPolicy::overflow`] — what to do when the pool rejects a
//!   packet the policy wanted parked;
//! * [`PolicyEngine::on_grant`] — how a host's buffer request is split
//!   between the previous and the new access router.
//!
//! Adding a scheme is a [`Scheme`] variant plus its rows in [`matrix`];
//! the golden-matrix snapshot (`tests/golden/table_3_3.txt`) then shows
//! the new surface for review. Nothing here may import signaling,
//! datapath or simulator types — the layering test (`tests/layering.rs`)
//! keeps this module a table you can read against the thesis.

#![deny(missing_docs)]

pub mod matrix;

pub use matrix::{
    nar_action, nar_overflow, par_action, AvailabilityCase, NarAction, NarOverflow, ParAction,
};

use fh_net::ServiceClass;

use crate::scheme::Scheme;

/// Session-level admission rule for `BufferPool::try_buffer` — the
/// vocabulary a policy uses to bound how much a session may park.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionLimit {
    /// Admit while the session holds fewer packets than its grant.
    Grant,
    /// Admit while the pool's free space exceeds the threshold `a`
    /// (best-effort spill-over).
    Threshold(u32),
    /// Admit while the pool has any free space (class-blind schemes).
    PoolOnly,
}

/// Which end of the handover the decision is made at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The previous access router, redirecting departing traffic.
    Par,
    /// The new access router, receiving tunneled traffic.
    Nar,
}

/// Everything a policy may consult when admitting one packet.
///
/// Deliberately plain data: the datapath snapshots these from live
/// session state so policies never touch signaling or pool internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitCtx {
    /// Which routers granted buffer space (Table 3.2).
    pub case: AvailabilityCase,
    /// The packet's effective service class (Table 3.1).
    pub class: ServiceClass,
    /// `true` once the peer NAR reported BufferFull for this session.
    pub nar_full: bool,
    /// `true` if this router holds a non-zero grant for the session.
    pub par_granted: bool,
    /// The administrator constant `a` (best-effort spill threshold).
    pub threshold_a: u32,
}

/// A policy's verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Park the packet in the local pool under the given admission limit.
    Park(AdmissionLimit),
    /// Forward toward the host immediately (radio delivery attempt —
    /// lost while the host is detached).
    Forward,
    /// Tunnel to the peer router. `park_at_peer` records what the peer
    /// is *expected* to do (Table 3.3's tunnel-and-buffer vs plain
    /// tunnel); the peer still runs its own [`BufferPolicy::admit`].
    Tunnel {
        /// `true` if the peer is expected to buffer the packet.
        park_at_peer: bool,
    },
    /// Bicast (SafetyNet): attempt delivery toward the host on the local
    /// link *and* tunnel a duplicate to the peer router, which is
    /// expected to park it. The duplicate must be accounted as
    /// `duplicated` in the conservation ledger — never as fresh `sent` —
    /// and the host suppresses whichever copy arrives second.
    Multicast,
    /// Drop by policy (Table 3.3 case 4, best effort).
    Drop,
}

/// What to do when the pool rejects a packet the policy wanted parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overflow {
    /// Evict the oldest buffered real-time packet and admit the new one
    /// (fresh media samples outrank stale ones — case 1.a / 2.a).
    DropFrontRealtime,
    /// Tell the peer router to take over (BufferFull) and bounce the
    /// overflowing packet back through the tunnel — case 1.b.
    NotifyPeer,
    /// Tunnel the overflowing packet to the peer unbuffered instead of
    /// dropping it (the PAR-side reaction for high-priority traffic).
    SpillPeer,
    /// Plain tail drop.
    TailDrop,
}

/// How a host's buffer request is split across the two routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSplit {
    /// Slots requested from the previous access router's pool.
    pub par: u32,
    /// Slots requested from the new access router (rides HI+BR).
    pub nar: u32,
}

/// One rung of the overload shed ladder — what the router sacrifices
/// next once parked bytes cross the high watermark.
///
/// Every scheme sheds in the one order of [`ShedRung::ALL`], so overload
/// degrades in a chosen order, not an accidental one, and the
/// `shed_order_respected` expectation can audit it after the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedRung {
    /// Shed the oldest parked best-effort packet anywhere in the pool.
    BestEffort,
    /// Drop-front the oldest parked real-time packet (fresh media samples
    /// outrank stale ones, the same logic as `Overflow::DropFrontRealtime`).
    DropFrontRealtime,
    /// Force an early reactive flush of the oldest buffering session —
    /// its packets are delivered down the reactive path rather than shed.
    ForceFlushOldest,
}

impl ShedRung {
    /// Every rung, in the canonical ladder order.
    pub const ALL: [ShedRung; 3] = [
        ShedRung::BestEffort,
        ShedRung::DropFrontRealtime,
        ShedRung::ForceFlushOldest,
    ];

    /// The label traces and metrics use for this rung.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShedRung::BestEffort => "best-effort",
            ShedRung::DropFrontRealtime => "drop-front",
            ShedRung::ForceFlushOldest => "force-flush",
        }
    }
}

/// One buffering scheme's decision surface.
///
/// Implementations must be pure: same inputs, same verdicts. The
/// datapath is the only caller on the hot path and executes the returned
/// actions; policies never send, park or drop anything themselves.
pub trait BufferPolicy {
    /// Decide what happens to one packet at `role`.
    fn admit(&self, role: Role, ctx: &AdmitCtx) -> Admit;

    /// The reaction when the pool rejects a packet this policy parked.
    fn overflow(&self, role: Role, class: ServiceClass) -> Overflow;
}

/// A policy's verdicts for every service class under one `(role,
/// session)` snapshot.
///
/// Everything in an [`AdmitCtx`] except the packet class is session
/// state, so one [`PolicyEngine::classify_batch`] call answers for a
/// whole flush; each packet then indexes this table on its effective
/// class. Kept for the `fh-perf` policy probe; the datapath asks the
/// engine per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassVerdicts {
    admit: [Admit; 3],
    overflow: [Overflow; 3],
}

impl ClassVerdicts {
    /// The admission verdict for a packet of `class`.
    #[must_use]
    pub fn admit(&self, class: ServiceClass) -> Admit {
        self.admit[class.index()]
    }

    /// The overflow reaction for a packet of `class`.
    #[must_use]
    pub fn overflow(&self, class: ServiceClass) -> Overflow {
        self.overflow[class.index()]
    }
}

/// The policy engine: Table 3.3 ([`matrix`]) for one [`Scheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyEngine {
    scheme: Scheme,
}

impl PolicyEngine {
    /// The policy implementing a [`Scheme`].
    #[must_use]
    pub fn for_scheme(scheme: Scheme) -> Self {
        PolicyEngine { scheme }
    }

    /// Splits a host's buffer request between the two routers: a scheme
    /// that buffers at both asks each for half (§3.1.2 "maximize buffer
    /// utilization", the PAR taking the odd slot); a single-router
    /// scheme puts everything on its router.
    #[must_use]
    pub fn on_grant(self, requested: u32) -> RequestSplit {
        match (self.scheme.uses_par_buffer(), self.scheme.uses_nar_buffer()) {
            (true, true) => RequestSplit {
                par: requested.div_ceil(2),
                nar: requested / 2,
            },
            (true, false) => RequestSplit {
                par: requested,
                nar: 0,
            },
            (false, true) => RequestSplit {
                par: 0,
                nar: requested,
            },
            (false, false) => RequestSplit { par: 0, nar: 0 },
        }
    }

    /// The verdicts for every class under one session snapshot.
    ///
    /// `ctx.class` is ignored; the other `AdmitCtx` fields must hold for
    /// the whole batch. Equivalent, class by class, to calling
    /// [`BufferPolicy::admit`] / [`BufferPolicy::overflow`] per packet
    /// (pinned by the `classify_batch_matches_per_packet_dispatch` test).
    #[must_use]
    pub fn classify_batch(&self, role: Role, ctx: &AdmitCtx) -> ClassVerdicts {
        ClassVerdicts {
            admit: ServiceClass::EFFECTIVE
                .map(|class| self.admit(role, &AdmitCtx { class, ..*ctx })),
            overflow: ServiceClass::EFFECTIVE.map(|class| self.overflow(role, class)),
        }
    }

    /// The admission limit of a PAR-side park: a classifying scheme
    /// holds best effort to the spill threshold `a` and everything else
    /// to the grant; a class-blind scheme uses the grant when it has one
    /// and otherwise whatever the pool will take.
    fn par_limit(self, ctx: &AdmitCtx) -> AdmissionLimit {
        if self.scheme.classifies() {
            if ctx.class.effective() == ServiceClass::BestEffort {
                AdmissionLimit::Threshold(ctx.threshold_a)
            } else {
                AdmissionLimit::Grant
            }
        } else if ctx.par_granted {
            AdmissionLimit::Grant
        } else {
            AdmissionLimit::PoolOnly
        }
    }
}

impl BufferPolicy for PolicyEngine {
    fn admit(&self, role: Role, ctx: &AdmitCtx) -> Admit {
        match role {
            Role::Par => match par_action(self.scheme, ctx.case, ctx.class, ctx.nar_full) {
                ParAction::TunnelBuffer => Admit::Tunnel { park_at_peer: true },
                ParAction::TunnelUnbuffered => Admit::Tunnel {
                    park_at_peer: false,
                },
                ParAction::BufferLocal => Admit::Park(self.par_limit(ctx)),
                ParAction::Drop => Admit::Drop,
                ParAction::Bicast => Admit::Multicast,
            },
            // The NAR always parks under the session grant.
            Role::Nar => match nar_action(self.scheme, ctx.case, ctx.class) {
                NarAction::Buffer => Admit::Park(AdmissionLimit::Grant),
                NarAction::Deliver => Admit::Forward,
            },
        }
    }

    fn overflow(&self, role: Role, class: ServiceClass) -> Overflow {
        match role {
            // Every scheme: a rejected high-priority packet is spilled to
            // the peer unbuffered (the drop-rate promise matters most),
            // anything else tail-drops.
            Role::Par if class.effective() == ServiceClass::HighPriority => Overflow::SpillPeer,
            Role::Par => Overflow::TailDrop,
            Role::Nar => match nar_overflow(self.scheme, class) {
                NarOverflow::DropOldestRealtime => Overflow::DropFrontRealtime,
                NarOverflow::NotifyPar => Overflow::NotifyPeer,
                NarOverflow::TailDrop => Overflow::TailDrop,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Batch classification must be a pure cache of the per-packet
    /// dispatch: for every scheme, role, availability case, session-flag
    /// combination and class (including `Unspecified`), the table lookup
    /// equals a fresh `admit` / `overflow` call.
    #[test]
    fn classify_batch_matches_per_packet_dispatch() {
        let engines = Scheme::ALL.map(PolicyEngine::for_scheme);
        let cases = [
            AvailabilityCase::BothAvailable,
            AvailabilityCase::NarOnly,
            AvailabilityCase::ParOnly,
            AvailabilityCase::NoneAvailable,
        ];
        for engine in engines {
            for role in [Role::Par, Role::Nar] {
                for case in cases {
                    for nar_full in [false, true] {
                        for par_granted in [false, true] {
                            for threshold_a in [0, 4] {
                                let base = AdmitCtx {
                                    case,
                                    class: ServiceClass::Unspecified,
                                    nar_full,
                                    par_granted,
                                    threshold_a,
                                };
                                let verdicts = engine.classify_batch(role, &base);
                                for class in ServiceClass::ALL {
                                    let ctx = AdmitCtx { class, ..base };
                                    assert_eq!(
                                        verdicts.admit(class),
                                        engine.admit(role, &ctx),
                                        "admit mismatch: {engine:?} {role:?} {ctx:?}"
                                    );
                                    assert_eq!(
                                        verdicts.overflow(class),
                                        engine.overflow(role, class),
                                        "overflow mismatch: {engine:?} {role:?} {class:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
