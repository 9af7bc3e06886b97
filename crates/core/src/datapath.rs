//! The packet datapath: the single pipeline every packet crosses.
//!
//! This is the middle layer of the access-router stack (policy ←
//! **datapath** ← signaling). Whatever the role — PAR redirection, NAR
//! tunnel ingress, intra-subnet L2 delivery, buffer flushes — a packet
//! moves through one `classify → admit → park | forward | tunnel`
//! pipeline owned by [`Datapath`], so telemetry, drop accounting and
//! conservation hooks live at a single choke point instead of being
//! sprinkled across the signaling handlers.
//!
//! The datapath owns the transmission state (pinned peer links, host
//! routes, the buffer pool) but none of the protocol state machines: the
//! signaling layer snapshots its session state into plain-data views
//! ([`RedirectView`], [`TunnelView`]) and the datapath executes the
//! [`crate::policy::BufferPolicy`] verdict for the packet. Anything the
//! signaling layer must learn back (e.g. "I told the peer my buffer is
//! full") is returned as a [`TunnelVerdict`], keeping the dependency
//! arrow one-way.

use std::net::Ipv6Addr;

use fh_net::{
    send_from, transmit_on, ApId, ControlMsg, DropReason, LinkId, NetCtx, NodeId, Packet, Payload,
    Prefix,
};
use fh_sim::FastMap;
use fh_wireless::{send_downlink, RadioWorld};

use crate::buffer::BufferPool;
use crate::policy::{
    Admit, AdmitCtx, AvailabilityCase, BufferPolicy, Overflow, PolicyEngine, Role,
};
use crate::scheme::ProtocolConfig;

/// Accounts a packet arriving at a crashed node so conservation still
/// balances: data (including the inner flow of a tunneled packet — the
/// outer header copies it) is recorded as [`DropReason::Reclaimed`];
/// signaling rides the unaudited control flow and is silently lost.
pub(crate) fn reclaim_at_dead_node<S: RadioWorld>(ctx: &mut NetCtx<'_, S>, pkt: &Packet) {
    match &pkt.payload {
        Payload::Control(_) => {}
        Payload::Data | Payload::Tcp(_) | Payload::Encap(_) => {
            fh_net::record_drop(ctx, pkt.flow, DropReason::Reclaimed);
        }
    }
}

/// Where a paced flush sends its packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushTarget {
    /// Through the inter-router tunnel toward this NAR address.
    Tunnel(Ipv6Addr),
    /// Over the air to this host.
    Radio(NodeId),
}

/// A PAR-role session snapshot for one redirected packet: everything the
/// datapath needs, nothing it could mutate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RedirectView {
    /// The departing host (radio fallback for intra-router handoffs).
    pub mh: NodeId,
    /// The peer NAR's address; `None` for an intra-router handoff.
    pub peer: Option<Ipv6Addr>,
    /// The negotiated availability case (Table 3.2).
    pub case: AvailabilityCase,
    /// `true` once the NAR reported BufferFull for this session.
    pub nar_full: bool,
    /// `true` after the flush: the tunnel stays up for stragglers only.
    pub released: bool,
}

/// A NAR-role session snapshot for one tunneled packet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TunnelView {
    /// The arriving host's link-layer identity.
    pub mh: NodeId,
    /// The PAR the tunnel came from (spill-back destination).
    pub peer: Ipv6Addr,
    /// Slots granted to this session in the HAck+BA negotiation.
    pub granted: u32,
    /// `true` once BufferFull has already been sent for this session.
    pub already_spilling: bool,
}

/// What the signaling layer must learn from a tunnel-ingress admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TunnelVerdict {
    /// Nothing to record.
    Done,
    /// The datapath sent BufferFull and bounced the overflowing packet:
    /// the session must be marked as spilling.
    PeerNotified,
}

/// The access router's packet pipeline and transmission state.
///
/// Owned by [`crate::ArAgent`]; the signaling handlers call into it for
/// every send, delivery, redirection and flush.
#[derive(Debug)]
pub(crate) struct Datapath {
    /// The node this datapath transmits from.
    pub(crate) node: NodeId,
    /// The router's own address.
    pub(crate) addr: Ipv6Addr,
    /// The on-link prefix.
    pub(crate) prefix: Prefix,
    /// Access points belonging to this router.
    pub(crate) aps: Vec<ApId>,
    /// The handover buffer pool.
    pub(crate) pool: BufferPool,
    /// Pinned point-to-point tunnel links per peer router.
    pub(crate) peer_links: FastMap<Ipv6Addr, LinkId>,
    /// Installed host routes (FMIPv6 serves the PCoA off-prefix).
    pub(crate) neighbors: FastMap<Ipv6Addr, NodeId>,
}

impl Datapath {
    pub(crate) fn new(
        node: NodeId,
        addr: Ipv6Addr,
        prefix: Prefix,
        aps: Vec<ApId>,
        pool_capacity: usize,
    ) -> Self {
        assert!(prefix.contains(addr), "router address must be on-link");
        Datapath {
            node,
            addr,
            prefix,
            aps,
            pool: BufferPool::new(pool_capacity),
            peer_links: FastMap::default(),
            neighbors: FastMap::default(),
        }
    }

    /// `true` if `ap` belongs to this router.
    pub(crate) fn owns_ap(&self, ap: ApId) -> bool {
        self.aps.contains(&ap)
    }

    /// Sends a packet toward another router, preferring a pinned peer link.
    pub(crate) fn send_wired<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, pkt: Packet) {
        if let Some(&link) = self.peer_links.get(&pkt.dst) {
            let node = self.node;
            let _ = transmit_on(ctx, link, node, pkt);
            return;
        }
        let node = self.node;
        let _ = send_from(ctx, node, pkt);
    }

    /// Builds, accounts and sends a control message to another router.
    pub(crate) fn send_control_wired<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        dst: Ipv6Addr,
        msg: ControlMsg,
    ) {
        fh_net::record_control(ctx, &msg);
        let pkt = Packet::control(self.addr, dst, msg, ctx.now());
        self.send_wired(ctx, pkt);
    }

    /// Attempts over-the-air delivery to `mh`.
    pub(crate) fn radio_deliver<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        mh: NodeId,
        pkt: Packet,
    ) {
        // Pick the AP the host is actually attached to, if it is one of
        // ours; otherwise use our first AP (the attempt will be counted as
        // a radio drop).
        let attached = ctx.shared.radio().attachment(mh);
        let ap = match attached {
            Some(ap) if self.owns_ap(ap) => ap,
            _ => self.aps[0],
        };
        send_downlink(ctx, ap, mh, pkt);
    }

    /// Plain delivery: a host route wins, then on-link prefix delivery,
    /// then wired forwarding. The PAR-redirection check happens above
    /// this, in the signaling layer — by the time a packet gets here it
    /// is ordinary traffic.
    pub(crate) fn deliver<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, pkt: Packet) {
        if let Some(&mh) = self.neighbors.get(&pkt.dst) {
            self.radio_deliver(ctx, mh, pkt);
            return;
        }
        if self.prefix.contains(pkt.dst) {
            // On-link address with no neighbor entry: undeliverable.
            fh_net::record_drop(ctx, pkt.flow, DropReason::Unroutable);
            return;
        }
        let node = self.node;
        if let Some(local) = send_from(ctx, node, pkt) {
            // Routing bounced it back to us without matching our prefix:
            // nothing sensible to do.
            fh_net::record_drop(ctx, local.flow, DropReason::Unroutable);
        }
    }

    /// PAR-side pipeline stage: classify, admit per the active policy,
    /// then park locally, tunnel to the peer, or drop.
    pub(crate) fn redirect<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        cfg: &ProtocolConfig,
        pcoa: Ipv6Addr,
        view: RedirectView,
        pkt: Packet,
    ) {
        let class = pkt.effective_class();
        let engine = PolicyEngine::for_scheme(cfg.scheme);
        let verdict = if view.released {
            // After the flush the tunnel stays up for stragglers.
            Admit::Tunnel {
                park_at_peer: false,
            }
        } else {
            engine.admit(
                Role::Par,
                &AdmitCtx {
                    case: view.case,
                    class,
                    nar_full: view.nar_full,
                    par_granted: self.pool.granted(pcoa) > 0,
                    threshold_a: cfg.threshold_a,
                },
            )
        };
        match verdict {
            Admit::Tunnel { .. } => match view.peer {
                Some(nar) => {
                    let outer = pkt.encapsulate(self.addr, nar);
                    self.send_wired(ctx, outer);
                }
                None => {
                    // Intra-router handoff: nowhere to tunnel; attempt radio
                    // delivery (lost while the host is detached).
                    self.radio_deliver(ctx, view.mh, pkt);
                }
            },
            Admit::Forward => self.radio_deliver(ctx, view.mh, pkt),
            Admit::Multicast => {
                // SafetyNet bicast: the original copy rides the old link
                // exactly as if no handover were happening; an insurance
                // copy is tunneled to the NAR's buffer. The copy enters
                // the ledger as `duplicated` — never as a fresh send — so
                // `sent + duplicated == delivered + dropped` still holds
                // once the host suppresses the losing copy.
                match view.peer {
                    Some(nar) => {
                        ctx.shared.stats_mut().record_duplicate(pkt.flow);
                        let outer = pkt.clone().encapsulate(self.addr, nar);
                        self.radio_deliver(ctx, view.mh, pkt);
                        self.send_wired(ctx, outer);
                    }
                    // Intra-router handoff: no peer to insure with.
                    None => self.radio_deliver(ctx, view.mh, pkt),
                }
            }
            Admit::Park(limit) => {
                let ar = self.node;
                let flow = pkt.flow;
                match self.pool.try_buffer(pcoa, pkt, limit) {
                    Ok(()) => {
                        fh_net::record_trace(ctx, || fh_net::TraceEvent::BufferAdmit {
                            ar,
                            class,
                            flow,
                        });
                    }
                    Err(rejected) => match (engine.overflow(Role::Par, class), view.peer) {
                        // Rejected high-priority: tunnel unbuffered rather
                        // than drop — the drop-rate promise matters most.
                        (Overflow::SpillPeer, Some(nar)) => {
                            let outer = rejected.encapsulate(self.addr, nar);
                            self.send_wired(ctx, outer);
                        }
                        _ => {
                            fh_net::record_drop(ctx, rejected.flow, DropReason::BufferOverflow);
                        }
                    },
                }
            }
            Admit::Drop => {
                fh_net::record_drop(ctx, pkt.flow, DropReason::Policy);
            }
        }
    }

    /// NAR-side pipeline stage for a tunneled packet during the black-out:
    /// admit per the active policy, handling overflow per its class —
    /// real-time drop-front, BufferFull spill-back, or tail drop.
    pub(crate) fn ingress_tunneled<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        cfg: &ProtocolConfig,
        pcoa: Ipv6Addr,
        view: TunnelView,
        pkt: Packet,
    ) -> TunnelVerdict {
        let class = pkt.effective_class();
        let engine = PolicyEngine::for_scheme(cfg.scheme);
        let verdict = engine.admit(
            Role::Nar,
            &AdmitCtx {
                case: AvailabilityCase::from_grants(view.granted > 0, false),
                class,
                nar_full: false,
                par_granted: false,
                threshold_a: cfg.threshold_a,
            },
        );
        let limit = match verdict {
            Admit::Park(limit) => limit,
            // Everything else degenerates to an immediate delivery attempt
            // (lost during the black-out): NAR policies never tunnel onward
            // or policy-drop.
            Admit::Forward | Admit::Tunnel { .. } | Admit::Multicast | Admit::Drop => {
                self.radio_deliver(ctx, view.mh, pkt);
                return TunnelVerdict::Done;
            }
        };
        let ar = self.node;
        let flow = pkt.flow;
        match engine.overflow(Role::Nar, class) {
            Overflow::DropFrontRealtime => {
                match self.pool.buffer_realtime_dropfront(pcoa, pkt) {
                    Ok(None) => {
                        fh_net::record_trace(ctx, || fh_net::TraceEvent::BufferAdmit {
                            ar,
                            class,
                            flow,
                        });
                    }
                    Ok(Some(evicted)) => {
                        let evicted_flow = evicted.flow;
                        let evicted_class = evicted.effective_class();
                        fh_net::record_drop(ctx, evicted.flow, DropReason::BufferOverflow);
                        fh_net::record_trace(ctx, || fh_net::TraceEvent::BufferEvict {
                            ar,
                            class: evicted_class,
                            flow: evicted_flow,
                        });
                        fh_net::record_trace(ctx, || fh_net::TraceEvent::BufferAdmit {
                            ar,
                            class,
                            flow,
                        });
                    }
                    Err(rejected) => {
                        fh_net::record_drop(ctx, rejected.flow, DropReason::BufferOverflow);
                    }
                }
                TunnelVerdict::Done
            }
            Overflow::NotifyPeer => match self.pool.try_buffer(pcoa, pkt, limit) {
                Ok(()) => {
                    fh_net::record_trace(ctx, || fh_net::TraceEvent::BufferAdmit {
                        ar,
                        class,
                        flow,
                    });
                    TunnelVerdict::Done
                }
                Err(rejected) => {
                    if !view.already_spilling {
                        // Case 1.b: tell the PAR to buffer the rest, and send
                        // the packet that did not fit back through the reverse
                        // tunnel so the PAR can buffer it too (the
                        // notification travels the same link and arrives
                        // first).
                        let addr = self.addr;
                        self.send_control_wired(ctx, view.peer, ControlMsg::BufferFull { pcoa });
                        let back = rejected.encapsulate(addr, view.peer);
                        self.send_wired(ctx, back);
                        TunnelVerdict::PeerNotified
                    } else {
                        // Already spilling: last-ditch delivery attempt
                        // (bounces are not allowed to loop).
                        self.radio_deliver(ctx, view.mh, rejected);
                        TunnelVerdict::Done
                    }
                }
            },
            Overflow::SpillPeer | Overflow::TailDrop => {
                match self.pool.try_buffer(pcoa, pkt, limit) {
                    Ok(()) => {
                        fh_net::record_trace(ctx, || fh_net::TraceEvent::BufferAdmit {
                            ar,
                            class,
                            flow,
                        });
                    }
                    Err(rejected) => {
                        fh_net::record_drop(ctx, rejected.flow, DropReason::BufferOverflow);
                    }
                }
                TunnelVerdict::Done
            }
        }
    }

    /// Transmits one flushed packet toward its target.
    pub(crate) fn flush_one<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        target: FlushTarget,
        pkt: Packet,
    ) {
        match target {
            FlushTarget::Tunnel(nar) => {
                let outer = pkt.encapsulate(self.addr, nar);
                self.send_wired(ctx, outer);
            }
            FlushTarget::Radio(mh) => self.radio_deliver(ctx, mh, pkt),
        }
    }
}
