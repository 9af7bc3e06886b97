//! The access-router agent: orchestrator of the layered PAR/NAR stack.
//!
//! One [`ArAgent`] runs on every access router and plays **both** roles,
//! per handover session:
//!
//! * **PAR role** (the router the host is leaving) — answers RtSolPr+BI,
//!   reserves local buffer space, negotiates with the NAR through HI+BR /
//!   HAck+BA, advertises the outcome in PrRtAdv, and on FBU redirects every
//!   packet for the departing host according to the Table 3.3 operation
//!   matrix ([`crate::policy`]). On BufferForward it flushes its buffer
//!   through the inter-router tunnel.
//! * **NAR role** (the router the host is joining) — grants or denies
//!   buffer space, installs a host route for the previous care-of address,
//!   buffers or immediately delivers tunneled packets, reports BufferFull
//!   so the PAR can take over high-priority traffic, and on FNA+BF flushes
//!   its buffer over the air and relays BF to the PAR.
//!
//! A handover within the router's own cell set (the pure link-layer
//! handoff of Fig 3.5) short-circuits the negotiation: the router grants
//! from its own pool and answers PrRtAdv directly.
//!
//! The agent itself is only the event loop and wiring. The work lives in
//! three layers:
//!
//! * [`crate::policy`] — pure per-packet decision tables (Table 3.3);
//! * [`crate::datapath`] — the one `classify → admit → park | forward |
//!   tunnel` pipeline every packet crosses, owning the buffer pool, host
//!   routes and pinned tunnel links;
//! * [`crate::signaling`] — the PAR/NAR/MH state machines (session
//!   creation, negotiation, flush release), plus the soft-state
//!   reclamation in [`crate::soft_state`].

use std::net::Ipv6Addr;

use fh_sim::{EventKey, FastMap, SimDuration, SimTime};

use fh_net::{
    send_from, ApId, ControlMsg, DropReason, NetCtx, NetMsg, NodeFaultSpec, NodeId, Packet,
    Payload, Prefix, ServiceClass, TimerKind,
};
use fh_wireless::{send_downlink, RadioWorld};

use crate::buffer::BufferPool;
use crate::datapath::{reclaim_at_dead_node, Datapath, FlushTarget, RedirectView};
use crate::metrics::ArMetrics;
use crate::policy::ShedRung;
use crate::scheme::ProtocolConfig;
use crate::signaling::nar::{NarEvent, NarSession};
use crate::signaling::par::{HiRtx, ParSession, ParState};

/// The access-router protocol agent (PAR + NAR roles).
#[derive(Debug)]
pub struct ArAgent {
    /// The router's own address.
    pub addr: Ipv6Addr,
    /// The on-link prefix mobile hosts form care-of addresses from.
    pub prefix: Prefix,
    /// The MAP advertised in router advertisements.
    pub map_addr: Ipv6Addr,
    /// Protocol parameters.
    pub config: ProtocolConfig,
    /// Activity counters.
    pub metrics: ArMetrics,
    /// Scheduled crash / restart fault, if any (noop by default).
    pub node_fault: NodeFaultSpec,
    /// The packet pipeline: pool, host routes, peer links, transmission.
    pub(crate) dp: Datapath,
    /// `false` while crashed: every event except the restart timer is
    /// swallowed, and arriving data packets are reclaimed.
    pub(crate) alive: bool,
    pub(crate) ap_directory: FastMap<ApId, Ipv6Addr>,
    /// Live expiry token and timer key per soft-state host route (empty
    /// while `host_route_lifetime` is `MAX`: routes are then hard state).
    pub(crate) route_tokens: FastMap<Ipv6Addr, (u64, EventKey)>,
    /// Last time each peer router was heard from (dead-peer discovery).
    pub(crate) peer_last_heard: FastMap<Ipv6Addr, SimTime>,
    pub(crate) par_sessions: FastMap<Ipv6Addr, ParSession>,
    pub(crate) nar_sessions: FastMap<Ipv6Addr, NarSession>,
    pub(crate) hi_rtx: FastMap<Ipv6Addr, HiRtx>,
    pub(crate) flushing: FastMap<Ipv6Addr, (FlushTarget, u64)>,
    pub(crate) timer_sessions: FastMap<u64, Ipv6Addr>,
    pub(crate) next_token: u64,
    pub(crate) auth_seed: u64,
    /// Scratch for [`ArAgent::broadcast_ra`]'s per-AP host list, kept so
    /// a beacon allocates only its packets.
    ra_targets: Vec<NodeId>,
}

impl ArAgent {
    /// Creates an access-router agent.
    #[must_use]
    pub fn new(
        node: NodeId,
        addr: Ipv6Addr,
        prefix: Prefix,
        aps: Vec<ApId>,
        map_addr: Ipv6Addr,
        config: ProtocolConfig,
        pool_capacity: usize,
    ) -> Self {
        let mut dp = Datapath::new(node, addr, prefix, aps, pool_capacity);
        dp.pool.set_byte_budget(config.pressure.byte_budget);
        ArAgent {
            addr,
            prefix,
            map_addr,
            config,
            metrics: ArMetrics::default(),
            node_fault: NodeFaultSpec::default(),
            dp,
            alive: true,
            ap_directory: FastMap::default(),
            route_tokens: FastMap::default(),
            peer_last_heard: FastMap::default(),
            par_sessions: FastMap::default(),
            nar_sessions: FastMap::default(),
            hi_rtx: FastMap::default(),
            flushing: FastMap::default(),
            timer_sessions: FastMap::default(),
            next_token: 1,
            auth_seed: 0x5eed,
            ra_targets: Vec::new(),
        }
    }

    /// The node this agent runs on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.dp.node
    }

    /// The handover buffer pool (owned by the datapath).
    #[must_use]
    pub fn pool(&self) -> &BufferPool {
        &self.dp.pool
    }

    /// Access points belonging to this router.
    #[must_use]
    pub fn aps(&self) -> &[ApId] {
        &self.dp.aps
    }

    /// Teaches this router which address serves a (foreign) access point,
    /// so RtSolPr targets can be resolved to the right NAR.
    pub fn learn_ap(&mut self, ap: ApId, router_addr: Ipv6Addr) {
        self.ap_directory.insert(ap, router_addr);
    }

    /// Pins traffic toward `peer` to a specific link — the FMIPv6
    /// bidirectional tunnel is a point-to-point interface between the two
    /// access routers, not subject to shortest-path routing.
    pub fn learn_peer_link(&mut self, peer: Ipv6Addr, link: fh_net::LinkId) {
        self.dp.peer_links.insert(peer, link);
    }

    /// The registered on-link neighbor for `addr`, if any.
    #[must_use]
    pub fn neighbor(&self, addr: Ipv6Addr) -> Option<NodeId> {
        self.dp.neighbors.get(&addr).copied()
    }

    /// `false` while the router is crashed.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// All installed host routes, sorted by address (map iteration order
    /// is hash order). The leak auditor cross-checks each
    /// entry against the radio attachment table.
    #[must_use]
    pub fn neighbor_entries(&self) -> Vec<(Ipv6Addr, NodeId)> {
        let mut v: Vec<(Ipv6Addr, NodeId)> =
            self.dp.neighbors.iter().map(|(&a, &n)| (a, n)).collect();
        v.sort();
        v
    }

    /// `true` if `ap` belongs to this router.
    #[must_use]
    pub fn owns_ap(&self, ap: ApId) -> bool {
        self.dp.owns_ap(ap)
    }

    // ------------------------------------------------------------------
    // Event entry point
    // ------------------------------------------------------------------

    /// Handles one simulator event for this router.
    pub fn handle<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, msg: NetMsg) {
        if !self.alive {
            self.handle_while_dead(ctx, msg);
            return;
        }
        match msg {
            NetMsg::Start => {
                let jitter = SimDuration::from_micros(ctx.rng.gen_range_u64(1000));
                ctx.send_self(
                    jitter,
                    NetMsg::Timer {
                        kind: TimerKind::RouterAdvertisement,
                        token: 0,
                    },
                );
                if let Some(at) = self.node_fault.crash_at {
                    let me = ctx.self_id();
                    ctx.send_at(
                        me,
                        at,
                        NetMsg::Timer {
                            kind: TimerKind::NodeCrash,
                            token: 0,
                        },
                    );
                }
                self.arm_dead_peer_sweep(ctx);
            }
            NetMsg::Timer { kind, token } => self.on_timer(ctx, kind, token),
            NetMsg::LinkPacket { pkt, .. } => {
                let node = self.dp.node;
                if let Some(local) = send_from(ctx, node, pkt) {
                    self.handle_local(ctx, local);
                }
            }
            NetMsg::RadioPacket { from, pkt, .. } => self.handle_uplink(ctx, from, pkt),
            NetMsg::L2(_) => {}
        }
    }

    /// Event handling while crashed: only the restart timer does anything;
    /// arriving data (wired or radio) is reclaimed so flow conservation
    /// still balances, and everything else — signaling, stale timers, the
    /// router-advertisement chain — is silently lost, exactly like a host
    /// whose default router went dark.
    fn handle_while_dead<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, msg: NetMsg) {
        match msg {
            NetMsg::Timer {
                kind: TimerKind::NodeRestart,
                ..
            } => self.restart(ctx),
            NetMsg::LinkPacket { pkt, .. } | NetMsg::RadioPacket { pkt, .. } => {
                reclaim_at_dead_node(ctx, &pkt);
            }
            NetMsg::Start | NetMsg::Timer { .. } | NetMsg::L2(_) => {}
        }
    }

    fn on_timer<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, kind: TimerKind, token: u64) {
        match kind {
            TimerKind::RouterAdvertisement => {
                self.broadcast_ra(ctx);
                ctx.send_self(
                    self.config.ra_interval,
                    NetMsg::Timer {
                        kind: TimerKind::RouterAdvertisement,
                        token: 0,
                    },
                );
            }
            TimerKind::BufferStart => {
                // One-shot: reclaim the token so long-running routers do
                // not accumulate stale entries.
                if let Some(pcoa) = self.timer_sessions.remove(&token) {
                    self.on_buffer_start(pcoa);
                }
            }
            TimerKind::BufferLifetime => {
                if let Some(pcoa) = self.timer_sessions.remove(&token) {
                    self.expire_session(ctx, pcoa, token);
                }
            }
            TimerKind::FlushStep => self.flush_step(ctx, token),
            TimerKind::RtxHi => {
                if let Some(pcoa) = self.timer_sessions.remove(&token) {
                    self.on_rtx_hi(ctx, pcoa);
                }
            }
            TimerKind::NodeCrash => self.crash(ctx),
            TimerKind::NodeRestart => {} // only meaningful while dead
            TimerKind::HostRouteExpiry => self.on_route_expiry(ctx, token),
            TimerKind::DeadPeerSweep => self.dead_peer_sweep(ctx),
            TimerKind::HandoverWatchdog => self.on_watchdog(ctx, token),
            _ => {}
        }
    }

    fn broadcast_ra<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        let ra = ControlMsg::RouterAdvertisement {
            prefix: self.prefix,
            router: self.addr,
            map: Some(self.map_addr),
            buffering: self.config.scheme.buffers(),
        };
        let mut mhs = std::mem::take(&mut self.ra_targets);
        for &ap in &self.dp.aps {
            ctx.shared.radio().attached_mhs(ap, &mut mhs);
            for &mh in &mhs {
                fh_net::record_control(ctx, &ra);
                let pkt =
                    Packet::control(self.addr, self.prefix.host(0xffff), ra.clone(), ctx.now());
                send_downlink(ctx, ap, mh, pkt);
            }
        }
        self.ra_targets = mhs;
    }

    // ------------------------------------------------------------------
    // Uplink (radio) handling
    // ------------------------------------------------------------------

    fn handle_uplink<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, from: NodeId, pkt: Packet) {
        if pkt.dst == self.addr {
            if let Payload::Control(msg) = pkt.payload {
                self.handle_mh_control(ctx, from, pkt.src, *msg);
                return;
            }
        }
        // Anything else from a host is forwarded into the network (or to an
        // on-link neighbor).
        self.deliver_or_forward(ctx, pkt);
    }

    fn handle_mh_control<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        from: NodeId,
        src: Ipv6Addr,
        msg: ControlMsg,
    ) {
        let node = self.dp.node;
        fh_net::record_trace(ctx, || fh_net::TraceEvent::ControlReceived {
            kind: msg.kind_name(),
            at: node,
        });
        match msg {
            ControlMsg::RtSolPr { target_ap, bi } => {
                self.on_rtsolpr(ctx, from, src, target_ap, bi);
            }
            ControlMsg::FastBindingUpdate { pcoa, ncoa } => {
                self.on_fbu(ctx, pcoa, ncoa);
            }
            ControlMsg::FastNeighborAdvertisement {
                ncoa,
                pcoa,
                bf,
                auth,
            } => {
                self.on_fna(ctx, from, ncoa, pcoa, bf, auth);
            }
            ControlMsg::BufferForward { pcoa } => {
                // Standalone BF from the host: pure-L2 flush (Fig 3.5) or
                // the end of a guard-buffering episode.
                self.flush_par(ctx, pcoa);
            }
            ControlMsg::BufferInit(bi) => {
                // Standalone BI (smooth-handover draft, Fig 2.4): the host
                // asks its current router to buffer — e.g. because it
                // detected poor link quality (§3.3). Buffering starts at
                // once and releases on a standalone BF.
                self.on_guard_buffer_init(ctx, from, src, bi);
            }
            ControlMsg::RouterSolicitation => {
                let ra = ControlMsg::RouterAdvertisement {
                    prefix: self.prefix,
                    router: self.addr,
                    map: Some(self.map_addr),
                    buffering: self.config.scheme.buffers(),
                };
                if let Some(ap) = ctx.shared.radio().attachment(from) {
                    if self.owns_ap(ap) {
                        fh_net::record_control(ctx, &ra);
                        let pkt = Packet::control(self.addr, src, ra, ctx.now());
                        send_downlink(ctx, ap, from, pkt);
                    }
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Wired-side handling
    // ------------------------------------------------------------------

    /// Processes a packet that terminates at this router (after routing).
    pub fn handle_local<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, pkt: Packet) {
        if pkt.dst == self.addr {
            match pkt.payload {
                Payload::Encap(inner) => {
                    // Tunnel terminates here: NAR-side processing.
                    self.on_tunneled(ctx, *inner);
                }
                Payload::Control(msg) => self.on_wired_control(ctx, pkt.src, *msg),
                _ => {}
            }
            return;
        }
        self.deliver_or_forward(ctx, pkt);
    }

    fn on_wired_control<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        src: Ipv6Addr,
        msg: ControlMsg,
    ) {
        // Any signaling from a peer router proves it is alive.
        self.peer_last_heard.insert(src, ctx.now());
        let node = self.dp.node;
        fh_net::record_trace(ctx, || fh_net::TraceEvent::ControlReceived {
            kind: msg.kind_name(),
            at: node,
        });
        match msg {
            ControlMsg::HandoverInitiate {
                pcoa,
                mh_l2,
                br,
                auth,
                per_class,
                ..
            } => {
                self.on_hi(ctx, src, pcoa, mh_l2, br, per_class, auth);
            }
            ControlMsg::HandoverAck { pcoa, status, ba } => {
                self.on_hack(ctx, pcoa, status, ba);
            }
            ControlMsg::BufferFull { pcoa } => {
                if let Some(sess) = self.par_sessions.get_mut(&pcoa) {
                    sess.nar_full = true;
                }
            }
            ControlMsg::BufferForward { pcoa } => {
                self.flush_par(ctx, pcoa);
            }
            ControlMsg::FastBindingUpdate { pcoa, ncoa } => {
                // Forwarded FBU (host attached to the NAR before sending it).
                self.on_fbu(ctx, pcoa, ncoa);
            }
            ControlMsg::FastBindingAck { .. } => {}
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Datapath orchestration
    // ------------------------------------------------------------------

    /// Delivers on-link (radio) or forwards into the wired network.
    ///
    /// Order matters: an active PAR-role redirection wins (the host left)
    /// and enters the datapath's redirect stage with a snapshot of the
    /// session; everything else is the datapath's plain delivery — FMIPv6
    /// host routes (the NAR serves the PCoA even though the address is
    /// topologically foreign), then prefix delivery, then forwarding.
    pub(crate) fn deliver_or_forward<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        pkt: Packet,
    ) {
        if let Some(sess) = self.par_sessions.get(&pkt.dst) {
            if matches!(sess.state, ParState::Redirecting | ParState::Released) {
                let view = RedirectView {
                    mh: sess.mh,
                    peer: sess.nar_addr,
                    case: sess.case,
                    nar_full: sess.nar_full,
                    released: sess.state == ParState::Released,
                };
                let pcoa = pkt.dst;
                self.dp.redirect(ctx, &self.config, pcoa, view, pkt);
                // The redirect may have parked bytes: run the shed ladder
                // if the pool crossed the high watermark.
                self.relieve_pressure(ctx);
                return;
            }
        }
        self.dp.deliver(ctx, pkt);
    }

    /// Dispatches a flush: everything at once with zero spacing, or one
    /// packet per [`ProtocolConfig::flush_spacing`] tick to model the
    /// router's per-packet forwarding cost (§4.2.3).
    pub(crate) fn start_flush<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        pcoa: Ipv6Addr,
        target: FlushTarget,
    ) {
        if self.config.flush_spacing.is_zero() {
            for pkt in self.dp.pool.drain(pcoa) {
                self.dp.flush_one(ctx, target, pkt);
            }
            return;
        }
        let token = self.fresh_token(pcoa);
        self.flushing.insert(pcoa, (target, token));
        ctx.send_self(
            SimDuration::ZERO,
            NetMsg::Timer {
                kind: TimerKind::FlushStep,
                token,
            },
        );
    }

    /// One step of a paced flush.
    fn flush_step<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, token: u64) {
        let Some(&pcoa) = self.timer_sessions.get(&token) else {
            return;
        };
        let Some(&(target, active)) = self.flushing.get(&pcoa) else {
            self.timer_sessions.remove(&token);
            return;
        };
        if active != token {
            self.timer_sessions.remove(&token);
            return; // superseded by a newer flush
        }
        let Some(first) = self.dp.pool.pop_front(pcoa) else {
            self.flushing.remove(&pcoa);
            self.timer_sessions.remove(&token);
            return;
        };
        self.dp.flush_one(ctx, target, first);
        ctx.send_self(
            self.config.flush_spacing,
            NetMsg::Timer {
                kind: TimerKind::FlushStep,
                token,
            },
        );
    }

    // ------------------------------------------------------------------
    // Overload survival: the deterministic shed ladder
    // ------------------------------------------------------------------

    /// Walks the shed ladder ([`ShedRung::ALL`]) while the pool sits above
    /// its high watermark, shedding down to the low watermark. Rungs engage
    /// strictly in ladder order — a rung is only entered once every
    /// earlier one is exhausted — and [`ArMetrics::shed_order_violations`]
    /// audits that invariant at runtime. Every shed is a recorded
    /// [`fh_net::TraceEvent::PressureShed`] plus a
    /// [`DropReason::PressureShed`] so conservation still balances. No-op
    /// while the `[pressure]` knobs are off.
    pub(crate) fn relieve_pressure<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>) {
        let pressure = self.config.pressure;
        if !pressure.engaged() || self.dp.pool.bytes_used() <= pressure.high_bytes() {
            return;
        }
        let low = pressure.low_bytes();
        let node = self.dp.node;
        for (idx, rung) in ShedRung::ALL.into_iter().enumerate() {
            loop {
                if self.dp.pool.bytes_used() <= low {
                    return;
                }
                let class = match rung {
                    ShedRung::BestEffort => ServiceClass::BestEffort,
                    ShedRung::DropFrontRealtime => ServiceClass::RealTime,
                    ShedRung::ForceFlushOldest => {
                        // Last resort: force the oldest wedged session down
                        // the flush ladder. A session already mid-flush is
                        // draining paced — give it the chance to finish
                        // before escalating further.
                        let Some(victim) = self.dp.pool.oldest_buffering_session() else {
                            return;
                        };
                        if self.flushing.contains_key(&victim) {
                            return;
                        }
                        self.audit_shed_order(idx);
                        self.force_flush(ctx, victim);
                        continue;
                    }
                };
                let Some((_, pkt)) = self.dp.pool.shed_class_front(class) else {
                    break; // rung exhausted: escalate to the next one
                };
                self.audit_shed_order(idx);
                self.metrics.pressure_sheds += 1;
                fh_net::record_drop(ctx, pkt.flow, DropReason::PressureShed);
                let (rung_label, shed_class, flow) = (rung.label(), pkt.class, pkt.flow);
                fh_net::record_trace(ctx, || fh_net::TraceEvent::PressureShed {
                    ar: node,
                    rung: rung_label,
                    class: shed_class,
                    flow,
                });
            }
        }
    }

    /// Runtime audit of the ladder invariant: shedding at rung `idx` while
    /// an earlier class rung still has packets parked is out of order.
    fn audit_shed_order(&mut self, idx: usize) {
        for earlier in &ShedRung::ALL[..idx] {
            let class = match earlier {
                ShedRung::BestEffort => ServiceClass::BestEffort,
                ShedRung::DropFrontRealtime => ServiceClass::RealTime,
                ShedRung::ForceFlushOldest => continue,
            };
            if self.dp.pool.has_class_parked(class) {
                self.metrics.shed_order_violations += 1;
            }
        }
    }

    /// Force-resolves a wedged session down the existing flush ladder: a
    /// PAR-role session flushes predictively (tunnel) or reactively
    /// (radio), a NAR-role session releases over the air as if the host
    /// had just attached, and a key with no live session is expired
    /// outright so its packets are re-accounted either way.
    fn force_flush<S: RadioWorld>(&mut self, ctx: &mut NetCtx<'_, S>, pcoa: Ipv6Addr) {
        if self.par_sessions.contains_key(&pcoa) {
            self.flush_par(ctx, pcoa);
            return;
        }
        if let Some(sess) = self.nar_sessions.get_mut(&pcoa) {
            sess.on(NarEvent::HostAttached);
            let mh = sess.mh_l2;
            self.flush_nar(ctx, pcoa, mh);
            return;
        }
        for pkt in self.dp.pool.expire(pcoa) {
            fh_net::record_drop(ctx, pkt.flow, DropReason::Expired);
        }
    }

    pub(crate) fn send_to_mh<S: RadioWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        mh: NodeId,
        dst: Ipv6Addr,
        msg: ControlMsg,
    ) {
        fh_net::record_control(ctx, &msg);
        let pkt = Packet::control(self.addr, dst, msg, ctx.now());
        self.dp.radio_deliver(ctx, mh, pkt);
    }
}
