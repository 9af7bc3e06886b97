//! The mobile host's fast-handover protocol engine.
//!
//! [`MhAgent`] glues together the link layer ([`fh_wireless::MhRadio`]),
//! the mobility client ([`fh_mip::MipClient`]) and the fast-handover
//! message exchange of Figs 3.2–3.5:
//!
//! 1. **L2 source trigger** → RtSolPr+BI to the current router.
//! 2. **PrRtAdv** → form the NCoA, send FBU, start the L2 handoff.
//! 3. **LinkUp on the new AP** → FNA+BF (flush the NAR buffer; the NAR
//!    relays BF to the PAR), adopt the NCoA, and send the HMIPv6 local
//!    binding update to the MAP.
//!
//! A PrRtAdv naming the host's *current* router (same prefix) means the
//! move is a pure link-layer handoff (Fig 3.5): the host sends FBU, hands
//! off, and releases the buffer with a standalone BF.
//!
//! The agent is a component: the owning actor forwards events to
//! [`MhAgent::handle`] and receives application-bound packets back.

use std::net::Ipv6Addr;

use fh_sim::{EventKey, FastSet, SimDuration};

use fh_mip::MipClient;
use fh_net::{
    msg::{AuthToken, BufferInit},
    ApId, ControlMsg, DropReason, FlowId, HandoffPhase, HandoverAttempt, HandoverOutcome, L2Event,
    NetCtx, NetMsg, NetStats, NodeFaultSpec, NodeId, Packet, Payload, Prefix, TimerKind,
};
use fh_wireless::{send_uplink, MhRadio, RadioWorld};

use crate::scheme::ProtocolConfig;

/// `TimerKind::App` discriminator for the FBAck fallback timer.
const FBU_FALLBACK: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MhState {
    /// Attached, no handover in progress.
    Idle,
    /// RtSolPr sent, waiting for PrRtAdv.
    Soliciting,
    /// FBU sent; still on the old link waiting for FBAck (Fig 3.2 shows
    /// the FBAck arriving on the old link before the radio switches).
    AwaitFback,
    /// Radio switching.
    InBlackout,
}

/// Where the host currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Attachment {
    ap: ApId,
    router: Ipv6Addr,
    prefix: Prefix,
}

#[derive(Debug, Clone, Copy)]
struct PendingHandoff {
    target_ap: ApId,
    nar_addr: Ipv6Addr,
    nar_prefix: Prefix,
    ncoa: Ipv6Addr,
    auth: Option<AuthToken>,
    intra: bool,
}

/// In-flight RtSolPr(+BI) retransmission state.
#[derive(Debug, Clone, Copy)]
struct SolicitRtx {
    key: EventKey,
    /// Transmissions made so far (the initial send counts).
    sent: u32,
    target_ap: ApId,
}

/// In-flight FNA+BU retransmission state (post-attach registration).
#[derive(Debug, Clone, Copy)]
struct FnaRtx {
    key: EventKey,
    /// Transmissions made so far (the initial send counts).
    sent: u32,
    ncoa: Ipv6Addr,
    pcoa: Ipv6Addr,
    nar_addr: Ipv6Addr,
    auth: Option<AuthToken>,
}

/// The mobile host protocol agent.
#[derive(Debug)]
pub struct MhAgent {
    /// The host's node id.
    pub node: NodeId,
    /// Link-layer radio process.
    pub radio: MhRadio,
    /// Mobile IPv6 / HMIPv6 client.
    pub mip: MipClient,
    /// Protocol parameters.
    pub config: ProtocolConfig,
    /// Interface identifier used to form care-of addresses.
    pub iid: u64,
    /// Scheduled power-loss fault, if any (noop by default).
    pub node_fault: NodeFaultSpec,
    /// `true` after the power-loss fires: the radio is detached and every
    /// further event is swallowed (in-flight downlink data is reclaimed).
    powered_off: bool,
    state: MhState,
    current: Option<Attachment>,
    pending: Option<PendingHandoff>,
    booted: bool,
    fbu_seq: u64,
    guard_active: bool,
    rtx_solicit: Option<SolicitRtx>,
    rtx_fna: Option<FnaRtx>,
    /// With retransmissions on, `Predictive` is only recorded once the
    /// MAP binding completes (not merely on attach).
    awaiting_binding: bool,
    /// Signaling retransmissions performed (all hardened exchanges).
    pub retransmissions: u64,
    /// Exchanges that exhausted their retry budget and degraded.
    pub degradations: u64,
    /// Completed handovers.
    pub handoffs: u64,
    /// Index of the host's latest attempt in [`NetStats::handovers`];
    /// `None` before the first accepted trigger.
    latest: Option<usize>,
    /// Set at FNA time so the next delivered data packet stamps the
    /// `FirstDelivery` mark on the attempt (FNA→first-delivery latency).
    await_first_delivery: bool,
    /// `(flow, seq)` pairs already delivered to the application —
    /// SafetyNet's selective delivery: the winning copy of a bicast is
    /// passed up, the loser is suppressed as a `Policy` drop. Populated
    /// only when the scheme bicasts; always empty otherwise.
    delivered_seqs: FastSet<(FlowId, u64)>,
}

impl MhAgent {
    /// Creates a host agent.
    #[must_use]
    pub fn new(
        node: NodeId,
        radio: MhRadio,
        mip: MipClient,
        config: ProtocolConfig,
        iid: u64,
    ) -> Self {
        MhAgent {
            node,
            radio,
            mip,
            config,
            iid,
            node_fault: NodeFaultSpec::default(),
            powered_off: false,
            state: MhState::Idle,
            current: None,
            pending: None,
            booted: false,
            fbu_seq: 0,
            guard_active: false,
            rtx_solicit: None,
            rtx_fna: None,
            awaiting_binding: false,
            retransmissions: 0,
            degradations: 0,
            handoffs: 0,
            latest: None,
            await_first_delivery: false,
            delivered_seqs: FastSet::default(),
        }
    }

    /// The host's latest attempt, if it has opened one.
    fn attempt<'s>(&self, stats: &'s mut NetStats) -> Option<&'s mut HandoverAttempt> {
        stats.handovers.get_mut(self.latest?)
    }

    /// Records a protocol phase on the latest attempt (none before the
    /// first accepted trigger).
    fn phase<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, phase: HandoffPhase) {
        let now = ctx.now();
        if let Some(attempt) = self.attempt(ctx.shared.stats_mut()) {
            attempt.mark(now, phase);
        }
    }

    /// Pre-configures the initial attachment so the host need not wait a
    /// full RA interval at simulation start. `router`/`prefix` must match
    /// the AP the mobility model starts under.
    pub fn configure_initial(&mut self, ap: ApId, router: Ipv6Addr, prefix: Prefix) {
        self.current = Some(Attachment { ap, router, prefix });
        self.mip.set_lcoa(prefix.host(self.iid));
    }

    /// The host's current on-link care-of address.
    #[must_use]
    pub fn lcoa(&self) -> Option<Ipv6Addr> {
        self.mip.lcoa()
    }

    /// The current default router's address.
    #[must_use]
    pub fn router(&self) -> Option<Ipv6Addr> {
        self.current.map(|a| a.router)
    }

    /// Sends an application packet upstream (returns `false` during the
    /// black-out, when the radio cannot transmit).
    pub fn send_data<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, pkt: Packet) -> bool {
        send_uplink(ctx, self.node, pkt)
    }

    /// Asks the current access router to start guard-buffering: a
    /// standalone Buffer Initialization (Fig 2.4), used when the host
    /// anticipates a disruption the fast-handover protocol cannot see —
    /// poor link quality, a suspend, an application-level pause (§3.3).
    ///
    /// Returns `false` if the host is not attached or not configured.
    pub fn request_guard_buffering<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        size: u32,
        lifetime: SimDuration,
    ) -> bool {
        let (Some(att), Some(lcoa)) = (self.current, self.mip.lcoa()) else {
            return false;
        };
        let bi = ControlMsg::BufferInit(BufferInit {
            size,
            start_time: SimDuration::ZERO,
            lifetime,
        });
        self.send_control_up(ctx, lcoa, att.router, bi);
        true
    }

    /// Releases a guard-buffering episode: the router flushes everything
    /// it parked (standalone BF).
    pub fn release_guard_buffering<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) -> bool {
        let (Some(att), Some(lcoa)) = (self.current, self.mip.lcoa()) else {
            return false;
        };
        self.guard_active = false;
        let bf = ControlMsg::BufferForward { pcoa: lcoa };
        self.send_control_up(ctx, lcoa, att.router, bf);
        true
    }

    /// The full §3.3 episode in one call: ask the router to guard-buffer,
    /// then suspend the radio for `duration`. When the radio comes back,
    /// the buffer is released automatically and every parked packet is
    /// delivered — a planned outage with zero loss.
    pub fn pause_with_guard<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        duration: SimDuration,
        buffer_size: u32,
    ) -> bool {
        if !self.request_guard_buffering(ctx, buffer_size, duration + SimDuration::from_secs(5)) {
            return false;
        }
        self.guard_active = true;
        self.radio.suspend(ctx, duration);
        true
    }

    /// Handles one simulator event. Application-bound packets (UDP/TCP
    /// payloads that survived decapsulation) are returned to the caller.
    pub fn handle<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        msg: NetMsg,
    ) -> Option<Packet> {
        if self.powered_off {
            // A dead host: downlink data already in flight over the air is
            // reclaimed so conservation balances; everything else is lost.
            if let NetMsg::RadioPacket { pkt, .. } = msg {
                match &pkt.payload {
                    Payload::Control(_) => {}
                    Payload::Data | Payload::Tcp(_) | Payload::Encap(_) => {
                        fh_net::record_drop(ctx, pkt.flow, DropReason::Reclaimed);
                    }
                }
            }
            return None;
        }
        match msg {
            NetMsg::Start => {
                self.radio.start(ctx);
                if let Some(at) = self.node_fault.power_off_at {
                    let me = ctx.self_id();
                    ctx.send_at(
                        me,
                        at,
                        NetMsg::Timer {
                            kind: TimerKind::PowerOff,
                            token: 0,
                        },
                    );
                }
                None
            }
            NetMsg::Timer { kind, token } => {
                match kind {
                    TimerKind::App(FBU_FALLBACK) => {
                        if token == self.fbu_seq {
                            self.detach_now(ctx);
                        }
                    }
                    TimerKind::RtxSolicit => self.on_rtx_solicit(ctx),
                    TimerKind::RtxFna => self.on_rtx_fna(ctx),
                    TimerKind::PowerOff => self.power_off(ctx),
                    _ => {
                        let _ = self.radio.on_timer(ctx, kind, token);
                    }
                }
                None
            }
            NetMsg::L2(ev) => {
                self.on_l2(ctx, ev);
                None
            }
            NetMsg::RadioPacket { pkt, .. } => self.on_radio_packet(ctx, pkt),
            NetMsg::LinkPacket { .. } => None,
        }
    }

    fn on_l2<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, ev: L2Event) {
        match ev {
            L2Event::SourceTrigger { current, next } => {
                if self.state != MhState::Idle {
                    return;
                }
                let Some(att) = self.current else { return };
                if att.ap != current {
                    return;
                }
                // One attempt per handover. A degraded attempt that
                // re-triggers before resolving stays open and takes the
                // new marks.
                let now = ctx.now();
                let stats = ctx.shared.stats_mut();
                if !self.attempt(stats).is_some_and(|a| a.is_open()) {
                    self.latest = Some(stats.handovers.len());
                    stats.handovers.push(HandoverAttempt::open(self.node, now));
                }
                self.phase(ctx, HandoffPhase::Trigger);
                let bi = self.config.scheme.buffers().then_some(BufferInit {
                    size: self.config.buffer_request,
                    start_time: self.config.buffer_start_time,
                    lifetime: self.config.reservation_lifetime,
                });
                let pcoa = self.mip.lcoa().expect("attached host has an LCoA");
                let msg = ControlMsg::RtSolPr {
                    target_ap: next,
                    bi,
                };
                self.send_control_up(ctx, pcoa, att.router, msg);
                self.state = MhState::Soliciting;
                if self.config.rtx.enabled {
                    let key = ctx.send_self_keyed(
                        self.config.rtx.backoff.delay(0),
                        NetMsg::Timer {
                            kind: TimerKind::RtxSolicit,
                            token: 0,
                        },
                    );
                    self.rtx_solicit = Some(SolicitRtx {
                        key,
                        sent: 1,
                        target_ap: next,
                    });
                }
                self.phase(ctx, HandoffPhase::SolicitSent);
            }
            L2Event::LinkDown { .. } => {
                self.phase(ctx, HandoffPhase::LinkDown);
            }
            L2Event::LinkUp { ap } => {
                self.phase(ctx, HandoffPhase::LinkUp);
                self.on_link_up(ctx, ap);
            }
        }
    }

    fn on_link_up<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, ap: ApId) {
        // Whatever we were waiting for on the old link is moot now.
        self.cancel_rtx(ctx);
        if let Some(p) = self.pending {
            if p.target_ap == ap {
                // Anticipated handover completed.
                self.pending = None;
                self.state = MhState::Idle;
                self.handoffs += 1;
                let pcoa = self.mip.lcoa().expect("had an address before moving");
                self.current = Some(Attachment {
                    ap,
                    router: p.nar_addr,
                    prefix: p.nar_prefix,
                });
                if p.intra {
                    // Pure L2 handoff: release the buffer with a plain BF.
                    if self.config.scheme.buffers() {
                        let msg = ControlMsg::BufferForward { pcoa };
                        self.send_control_up(ctx, pcoa, p.nar_addr, msg);
                    }
                    self.phase(ctx, HandoffPhase::FnaSent);
                    self.await_first_delivery = true;
                    self.resolve_attempt(ctx, HandoverOutcome::Predictive);
                    return;
                }
                let fna = ControlMsg::FastNeighborAdvertisement {
                    ncoa: p.ncoa,
                    pcoa,
                    bf: self.config.scheme.buffers(),
                    auth: p.auth,
                };
                self.send_control_up(ctx, p.ncoa, p.nar_addr, fna);
                self.phase(ctx, HandoffPhase::FnaSent);
                self.await_first_delivery = true;
                // Adopt the new address and update the MAP binding.
                self.mip.set_lcoa(p.ncoa);
                let bu = self.mip.make_map_bu(ctx.now());
                fh_net::record_control(ctx, bu.as_control().expect("binding update is control"));
                let node = self.node;
                let _ = send_uplink(ctx, node, bu);
                if self.config.rtx.enabled {
                    // The handover only counts as predictive once the MAP
                    // binding completes; keep retrying FNA+BU until then.
                    self.awaiting_binding = true;
                    let key = ctx.send_self_keyed(
                        self.config.rtx.backoff.delay(0),
                        NetMsg::Timer {
                            kind: TimerKind::RtxFna,
                            token: 0,
                        },
                    );
                    self.rtx_fna = Some(FnaRtx {
                        key,
                        sent: 1,
                        ncoa: p.ncoa,
                        pcoa,
                        nar_addr: p.nar_addr,
                        auth: p.auth,
                    });
                } else {
                    self.resolve_attempt(ctx, HandoverOutcome::Predictive);
                }
                return;
            }
        }
        if !self.booted {
            // First attach: register with the router and the MAP.
            self.booted = true;
            if let Some(att) = self.current {
                let lcoa = self.mip.lcoa().expect("configure_initial sets the LCoA");
                let fna = ControlMsg::FastNeighborAdvertisement {
                    ncoa: lcoa,
                    pcoa: lcoa,
                    bf: false,
                    auth: None,
                };
                self.send_control_up(ctx, lcoa, att.router, fna);
                let bu = self.mip.make_map_bu(ctx.now());
                fh_net::record_control(ctx, bu.as_control().expect("binding update is control"));
                let node = self.node;
                let _ = send_uplink(ctx, node, bu);
                // Hosts with a real home (home address distinct from the
                // RCoA) also register the RCoA with their home agent.
                if self.mip.rcoa() != Some(self.mip.home_addr) {
                    let ha_bu = self.mip.make_ha_bu(ctx.now());
                    fh_net::record_control(ctx, ha_bu.as_control().expect("control"));
                    let _ = send_uplink(ctx, node, ha_bu);
                }
                self.send_correspondent_bus(ctx);
            }
            return;
        }
        if self.guard_active {
            // Resuming from a guarded radio pause: flush the parked packets.
            let _ = self.release_guard_buffering(ctx);
            return;
        }
        // Unanticipated attach (handoff without anticipation): wait for the
        // next router advertisement to learn where we are; handled in
        // `on_router_advertisement`.
        self.state = MhState::Idle;
        self.pending = None;
    }

    fn on_radio_packet<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        pkt: Packet,
    ) -> Option<Packet> {
        // Unwrap MAP (and any nested) tunnels addressed to us.
        let pkt = match pkt.payload {
            Payload::Encap(_) => pkt.decapsulate().expect("checked encap"),
            _ => pkt,
        };
        let pkt = match pkt.payload {
            Payload::Encap(_) => pkt.decapsulate().expect("checked encap"),
            _ => pkt,
        };
        match pkt.payload {
            Payload::Control(msg) => {
                self.on_control(ctx, pkt.src, *msg);
                None
            }
            _ => {
                // SafetyNet selective delivery: under a bicasting scheme
                // the same datagram can arrive twice — once on the old
                // link, once flushed from the NAR's insurance buffer. The
                // first copy wins; the loser is recorded as a policy drop
                // so `sent + duplicated == delivered + dropped` balances.
                // Only plain datagrams are deduplicated here: TCP reuses
                // the byte sequence on retransmission and handles its own
                // duplicates.
                if self.config.scheme.bicasts()
                    && matches!(pkt.payload, Payload::Data)
                    && !self.delivered_seqs.insert((pkt.flow, pkt.seq))
                {
                    fh_net::record_drop(ctx, pkt.flow, DropReason::Policy);
                    return None;
                }
                if self.await_first_delivery {
                    // First data packet after the FNA: the tail latency of
                    // the handover (FNA→first-delivery) is now measurable.
                    self.await_first_delivery = false;
                    self.phase(ctx, HandoffPhase::FirstDelivery);
                }
                Some(pkt)
            }
        }
    }

    fn on_control<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        _src: Ipv6Addr,
        msg: ControlMsg,
    ) {
        let node = self.node;
        fh_net::record_trace(ctx, || fh_net::TraceEvent::ControlReceived {
            kind: msg.kind_name(),
            at: node,
        });
        if self.mip.on_control(ctx.now(), &msg) {
            if self.mip.map_registered() {
                self.phase(ctx, HandoffPhase::BindingComplete);
                if self.awaiting_binding {
                    if let Some(r) = self.rtx_fna.take() {
                        let _ = ctx.cancel(r.key);
                    }
                    self.resolve_attempt(ctx, HandoverOutcome::Predictive);
                }
            }
            return;
        }
        match msg {
            ControlMsg::PrRtAdv {
                target_ap,
                nar_prefix,
                nar_addr,
                auth,
                ..
            } => self.on_prrtadv(ctx, target_ap, nar_prefix, nar_addr, auth),
            ControlMsg::RouterAdvertisement {
                prefix,
                router,
                map,
                ..
            } => {
                self.on_router_advertisement(ctx, prefix, router, map);
            }
            ControlMsg::FastBindingAck { .. } => {
                self.detach_now(ctx);
            }
            _ => {}
        }
    }

    fn on_prrtadv<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        target_ap: ApId,
        nar_prefix: Prefix,
        nar_addr: Ipv6Addr,
        auth: Option<AuthToken>,
    ) {
        if self.state != MhState::Soliciting {
            return;
        }
        let Some(att) = self.current else { return };
        if let Some(r) = self.rtx_solicit.take() {
            let _ = ctx.cancel(r.key);
        }
        self.phase(ctx, HandoffPhase::AdvReceived);
        let intra = nar_addr == att.router;
        let pcoa = self.mip.lcoa().expect("attached host has an LCoA");
        let ncoa = if intra {
            pcoa
        } else {
            nar_prefix.host(self.iid)
        };
        self.pending = Some(PendingHandoff {
            target_ap,
            nar_addr,
            nar_prefix,
            ncoa,
            auth,
            intra,
        });
        // FBU before disconnecting (§2.3.2 packet forwarding). The radio
        // stays on the old link until the FBAck confirms the PAR has begun
        // redirecting — after that nothing more is in flight over the old
        // air interface. A fallback timer bounds the wait in case the
        // FBAck is lost.
        let fbu = ControlMsg::FastBindingUpdate { pcoa, ncoa };
        self.send_control_up(ctx, pcoa, att.router, fbu);
        self.phase(ctx, HandoffPhase::FbuSent);
        self.state = MhState::AwaitFback;
        self.fbu_seq += 1;
        ctx.send_self(
            SimDuration::from_millis(50),
            NetMsg::Timer {
                kind: TimerKind::App(FBU_FALLBACK),
                token: self.fbu_seq,
            },
        );
    }

    /// Closes the current handover attempt and records its outcome.
    fn resolve_attempt<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        outcome: HandoverOutcome,
    ) {
        self.awaiting_binding = false;
        let now = ctx.now();
        let stats = ctx.shared.stats_mut();
        stats.record_outcome(outcome);
        // The attempt stays the latest, so trailing marks such as the
        // first delivery still land on it.
        if let Some(attempt) = self.attempt(stats) {
            attempt.close(now, outcome);
        }
    }

    /// Cancels any armed retransmission timers (O(1) keyed cancel — the
    /// queued events vanish without perturbing event counts or ordering).
    fn cancel_rtx<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        if let Some(r) = self.rtx_solicit.take() {
            let _ = ctx.cancel(r.key);
        }
        if let Some(r) = self.rtx_fna.take() {
            let _ = ctx.cancel(r.key);
        }
    }

    /// RtSolPr retransmission timer fired: the PrRtAdv never came.
    fn on_rtx_solicit<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        let Some(mut rtx) = self.rtx_solicit.take() else {
            return;
        };
        if self.state != MhState::Soliciting || !self.config.rtx.enabled {
            return;
        }
        let bo = self.config.rtx.backoff;
        if bo.exhausted(rtx.sent) {
            // Give up on anticipation. The radio will still hand off on
            // its own; recovery then rides the reactive RA path.
            self.state = MhState::Idle;
            self.degradations += 1;
            self.phase(ctx, HandoffPhase::Degraded);
            return;
        }
        let Some(att) = self.current else { return };
        let bi = self.config.scheme.buffers().then_some(BufferInit {
            size: self.config.buffer_request,
            start_time: self.config.buffer_start_time,
            lifetime: self.config.reservation_lifetime,
        });
        let pcoa = self.mip.lcoa().expect("attached host has an LCoA");
        let msg = ControlMsg::RtSolPr {
            target_ap: rtx.target_ap,
            bi,
        };
        self.send_control_up(ctx, pcoa, att.router, msg);
        self.retransmissions += 1;
        let node = self.node;
        fh_net::record_trace(ctx, || fh_net::TraceEvent::ControlRetransmit {
            kind: "RtSolPr",
            by: node,
        });
        rtx.key = ctx.send_self_keyed(
            bo.delay(rtx.sent),
            NetMsg::Timer {
                kind: TimerKind::RtxSolicit,
                token: u64::from(rtx.sent),
            },
        );
        rtx.sent += 1;
        self.rtx_solicit = Some(rtx);
    }

    /// FNA+BU retransmission timer fired: the MAP binding never completed.
    fn on_rtx_fna<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        let Some(mut rtx) = self.rtx_fna.take() else {
            return;
        };
        if !self.awaiting_binding || !self.config.rtx.enabled {
            return;
        }
        let bo = self.config.rtx.backoff;
        if bo.exhausted(rtx.sent) {
            // In-band registration failed for good. Forget the attachment
            // so the next router advertisement re-registers from scratch
            // (reactive fallback); if even the beacon never arrives the
            // attempt ends the run open and is classified `Failed`.
            self.awaiting_binding = false;
            self.current = None;
            self.degradations += 1;
            self.phase(ctx, HandoffPhase::Degraded);
            return;
        }
        let fna = ControlMsg::FastNeighborAdvertisement {
            ncoa: rtx.ncoa,
            pcoa: rtx.pcoa,
            bf: self.config.scheme.buffers(),
            auth: rtx.auth,
        };
        self.send_control_up(ctx, rtx.ncoa, rtx.nar_addr, fna);
        let bu = self.mip.make_map_bu(ctx.now());
        fh_net::record_control(ctx, bu.as_control().expect("binding update is control"));
        let node = self.node;
        let _ = send_uplink(ctx, node, bu);
        self.retransmissions += 1;
        fh_net::record_trace(ctx, || fh_net::TraceEvent::ControlRetransmit {
            kind: "FNA",
            by: node,
        });
        rtx.key = ctx.send_self_keyed(
            bo.delay(rtx.sent),
            NetMsg::Timer {
                kind: TimerKind::RtxFna,
                token: u64::from(rtx.sent),
            },
        );
        rtx.sent += 1;
        self.rtx_fna = Some(rtx);
    }

    /// `true` once the scheduled power-loss fault has fired.
    #[must_use]
    pub fn is_powered_off(&self) -> bool {
        self.powered_off
    }

    /// Scheduled power loss: the host vanishes mid-whatever-it-was-doing.
    /// The radio detaches at the environment level (downlink attempts then
    /// count as radio drops), retransmission timers are cancelled, and any
    /// open handover attempt is left to be classified `Failed` at end of
    /// run. State the network holds for us — an orphaned NAR buffer, host
    /// routes — is reclaimed by the routers' own soft-state lifetimes.
    fn power_off<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        if self.powered_off {
            return;
        }
        self.powered_off = true;
        self.cancel_rtx(ctx);
        let node = self.node;
        fh_net::record_trace(ctx, || fh_net::TraceEvent::FaultFired {
            node,
            what: "power-off",
        });
        let _ = ctx.shared.radio_mut().detach(self.node);
    }

    /// The FBAck arrived (or its wait timed out): actually switch links.
    fn detach_now<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        if self.state != MhState::AwaitFback {
            return;
        }
        let Some(p) = self.pending else { return };
        self.state = MhState::InBlackout;
        self.radio.begin_handoff(ctx, p.target_ap);
    }

    fn on_router_advertisement<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        prefix: Prefix,
        router: Ipv6Addr,
        map: Option<Ipv6Addr>,
    ) {
        let Some(ap) = self.radio.current_ap() else {
            return;
        };
        match self.current {
            Some(att) if att.prefix == prefix => {
                // Periodic RA from the current network: refresh router info.
                self.current = Some(Attachment { ap, router, prefix });
                // With soft-state host routes the beacon doubles as the
                // refresh trigger: re-announce ourselves so the router
                // re-arms our route's lifetime (and re-learns it after a
                // crash wiped its tables). Hard-state routes (the `MAX`
                // default) need no refresh and send nothing extra.
                let lifetime = self.config.host_route_lifetime;
                if !lifetime.is_zero() && lifetime != SimDuration::MAX {
                    if let Some(lcoa) = self.mip.lcoa() {
                        let fna = ControlMsg::FastNeighborAdvertisement {
                            ncoa: lcoa,
                            pcoa: lcoa,
                            bf: false,
                            auth: None,
                        };
                        self.send_control_up(ctx, lcoa, router, fna);
                    }
                }
                self.adopt_map_if_new(ctx, map);
            }
            _ => {
                // While deliberately dual-attached (make-before-break) the
                // other cell's beacons still reach us on the second
                // interface; they are not evidence of an unanticipated
                // move, and reacting to them would flap the address
                // between the two networks once per advertisement. Only
                // the serving network defines the address until the aux
                // link retires.
                if ctx.shared.radio().aux_attachment(self.node).is_some() {
                    return;
                }
                // New network discovered after an unanticipated move:
                // configure, register, redirect, and update the MAP.
                let old = self.mip.lcoa();
                let ncoa = prefix.host(self.iid);
                self.current = Some(Attachment { ap, router, prefix });
                let fna = ControlMsg::FastNeighborAdvertisement {
                    ncoa,
                    pcoa: old.unwrap_or(ncoa),
                    // Hardened mode asks the NAR to flush anything it
                    // buffered for us under a session whose HAck/PrRtAdv
                    // leg was lost; without a session the flag is inert.
                    bf: self.config.rtx.enabled && self.config.scheme.buffers(),
                    auth: None,
                };
                self.send_control_up(ctx, ncoa, router, fna);
                if let Some(pcoa) = old {
                    // FBU to the previous router, relayed through the wired
                    // network (no-anticipation path of §2.3.2).
                    if let Some(prev_router) = self.previous_router(pcoa) {
                        let fbu = ControlMsg::FastBindingUpdate { pcoa, ncoa };
                        self.send_control_up(ctx, ncoa, prev_router, fbu);
                        if self.config.rtx.enabled && self.config.scheme.buffers() {
                            // Hardened degradation: pull whatever the old
                            // router buffered during the blind spot with a
                            // standalone BF instead of letting it expire.
                            let bf = ControlMsg::BufferForward { pcoa };
                            self.send_control_up(ctx, ncoa, prev_router, bf);
                        }
                    }
                }
                self.mip.set_lcoa(ncoa);
                let bu = self.mip.make_map_bu(ctx.now());
                fh_net::record_control(ctx, bu.as_control().expect("binding update is control"));
                let node = self.node;
                let _ = send_uplink(ctx, node, bu);
                self.handoffs += 1;
                self.state = MhState::Idle;
                self.pending = None;
                self.resolve_attempt(ctx, HandoverOutcome::Reactive);
                self.adopt_map_if_new(ctx, map);
            }
        }
    }

    /// Macro mobility (§2.2.1): a router advertisement naming a *different*
    /// MAP means the host crossed a MAP-domain boundary. It forms a new
    /// RCoA on the advertised MAP's subnet, registers locally, and updates
    /// its home agent (the only time the HA hears about local movement).
    fn adopt_map_if_new<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, map: Option<Ipv6Addr>) {
        let Some(map_addr) = map else { return };
        if self.mip.map_addr() == Some(map_addr) {
            return;
        }
        // The RCoA is formed from the MAP's /48, as LCoAs are from ARs'.
        let rcoa = Prefix::new(map_addr, 48).host(self.iid);
        self.mip.enter_map_domain(map_addr, rcoa);
        let node = self.node;
        let bu = self.mip.make_map_bu(ctx.now());
        fh_net::record_control(ctx, bu.as_control().expect("control"));
        let _ = send_uplink(ctx, node, bu);
        let ha_bu = self.mip.make_ha_bu(ctx.now());
        fh_net::record_control(ctx, ha_bu.as_control().expect("control"));
        let _ = send_uplink(ctx, node, ha_bu);
        self.send_correspondent_bus(ctx);
    }

    /// Route optimization (§2.2.1 step 2): tell every registered
    /// correspondent the current RCoA so it can bypass the home agent.
    fn send_correspondent_bus<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        let node = self.node;
        for bu in self.mip.make_correspondent_bus(ctx.now()) {
            fh_net::record_control(ctx, bu.as_control().expect("control"));
            let _ = send_uplink(ctx, node, bu);
        }
    }

    /// The router that owns `pcoa` — derived from the address, as a real
    /// host would from its destroyed attachment state.
    fn previous_router(&self, pcoa: Ipv6Addr) -> Option<Ipv6Addr> {
        let att = self.current?;
        let prev_prefix = Prefix::new(pcoa, att.prefix.len());
        Some(prev_prefix.host(1))
    }

    fn send_control_up<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        msg: ControlMsg,
    ) {
        fh_net::record_control(ctx, &msg);
        let pkt = Packet::control(src, dst, msg, ctx.now());
        let node = self.node;
        let _ = send_uplink(ctx, node, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fh_sim::SimDuration;

    // MhAgent construction helpers are exercised end-to-end in the
    // scenarios crate; here we test the pure pieces.

    #[test]
    fn previous_router_derives_from_prefix() {
        let radio = MhRadio::new(
            fh_net::Topology::new().add_node("mh"),
            fh_wireless::Mobility::Stationary(fh_wireless::Position::new(0.0, 0.0)),
            fh_wireless::RadioConfig::default(),
        );
        let mip = MipClient::new(
            "2001:db8:100::9".parse().unwrap(),
            "2001:db8:100::1".parse().unwrap(),
            SimDuration::from_secs(60),
        );
        let mut agent = MhAgent::new(
            fh_net::Topology::new().add_node("mh2"),
            radio,
            mip,
            ProtocolConfig::default(),
            9,
        );
        agent.configure_initial(
            ApId(0),
            "2001:db8:2::1".parse().unwrap(),
            fh_net::doc_subnet(2),
        );
        let prev = agent.previous_router("2001:db8:1::9".parse().unwrap());
        assert_eq!(prev, Some("2001:db8:1::1".parse().unwrap()));
    }

    #[test]
    fn configure_initial_sets_lcoa() {
        let radio = MhRadio::new(
            fh_net::Topology::new().add_node("mh"),
            fh_wireless::Mobility::Stationary(fh_wireless::Position::new(0.0, 0.0)),
            fh_wireless::RadioConfig::default(),
        );
        let mip = MipClient::new(
            "2001:db8:100::9".parse().unwrap(),
            "2001:db8:100::1".parse().unwrap(),
            SimDuration::from_secs(60),
        );
        let mut agent = MhAgent::new(
            fh_net::Topology::new().add_node("x"),
            radio,
            mip,
            ProtocolConfig::default(),
            0x42,
        );
        agent.configure_initial(
            ApId(1),
            "2001:db8:5::1".parse().unwrap(),
            fh_net::doc_subnet(5),
        );
        assert_eq!(agent.lcoa(), Some("2001:db8:5::42".parse().unwrap()));
        assert_eq!(agent.router(), Some("2001:db8:5::1".parse().unwrap()));
    }
}
