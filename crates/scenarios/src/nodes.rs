//! The composed node actors: correspondent node, MAP, access router and
//! mobile host.
//!
//! Each actor is a thin shell around the protocol components of the lower
//! crates: the [`CnNode`] drives traffic generators and a TCP sender, the
//! [`MapNode`] wraps an HMIPv6 [`MobilityAnchor`], the [`ArNode`] wraps
//! the fast-handover [`ArAgent`], and the [`MhNode`] wraps the [`MhAgent`]
//! plus per-flow sinks and an optional TCP receiver.

use std::net::Ipv6Addr;

use fh_sim::{Actor, SimDuration, SimTime};

use fh_core::{ArAgent, MhAgent};
use fh_mip::{BindingCache, MobilityAnchor};
use fh_net::{
    msg::{AckStatus, BindingKind},
    send_from, start_timer, ControlMsg, NetCtx, NetMsg, NodeId, Packet, Payload, TimerKind,
};
use fh_tcp::{TcpReceiver, TcpSender};
use fh_traffic::{CbrSource, UdpSink};

use crate::world::World;

/// A correspondent node: CBR sources and/or one greedy TCP connection.
pub struct CnNode {
    /// This node's id.
    pub node: NodeId,
    /// CBR flows this node generates.
    pub cbr: Vec<CbrSource>,
    /// When to start generating (lets bindings settle first).
    pub cbr_start: SimTime,
    /// When to stop generating (lets in-flight packets drain before the
    /// harness reads final counters).
    pub cbr_stop: SimTime,
    /// Optional greedy TCP sender (the FTP workload).
    pub tcp: Option<TcpSender>,
    /// When the TCP transfer starts.
    pub tcp_start: SimTime,
    tcp_tick: SimDuration,
    /// Route-optimization bindings learned from mobile peers
    /// (home address → current RCoA).
    pub bindings: BindingCache,
    /// This node's own address (needed to answer binding updates).
    pub addr: Ipv6Addr,
    /// Reusable buffer for segments the TCP sender releases — the 500 ms
    /// tick and every ACK run through here, so the capacity is allocated
    /// once per connection lifetime instead of once per event.
    tcp_out: Vec<Packet>,
}

impl CnNode {
    /// Creates a correspondent node at `addr` with no traffic configured.
    #[must_use]
    pub fn new(node: NodeId, addr: Ipv6Addr) -> Self {
        CnNode {
            node,
            cbr: Vec::new(),
            cbr_start: SimTime::from_millis(500),
            cbr_stop: SimTime::MAX,
            tcp: None,
            tcp_start: SimTime::from_millis(500),
            tcp_tick: SimDuration::from_millis(500),
            bindings: BindingCache::new(),
            addr,
            tcp_out: Vec::new(),
        }
    }

    /// Transmits everything the TCP sender queued in `tcp_out`, leaving
    /// the buffer empty but with its capacity intact.
    fn transmit_tcp_out(&mut self, ctx: &mut NetCtx<'_, World>) {
        let mut pkts = std::mem::take(&mut self.tcp_out);
        for p in pkts.drain(..) {
            self.transmit(ctx, p);
        }
        self.tcp_out = pkts;
    }

    fn transmit(&mut self, ctx: &mut NetCtx<'_, World>, mut pkt: Packet) {
        // Route optimization: if a mobile peer told us its current RCoA,
        // address it directly instead of via its home agent.
        if let Some(coa) = self.bindings.lookup(pkt.dst, ctx.now()) {
            pkt.dst = coa;
        }
        let node = self.node;
        let _ = send_from(ctx, node, pkt);
    }
}

impl Actor<NetMsg, World> for CnNode {
    fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
        match msg {
            NetMsg::Start => {
                for i in 0..self.cbr.len() {
                    // Stagger flows by a few microseconds so same-instant
                    // bursts do not alias.
                    let at = self.cbr_start + SimDuration::from_micros(i as u64 * 7);
                    ctx.send_at(
                        ctx.self_id(),
                        at,
                        NetMsg::Timer {
                            kind: TimerKind::CbrSend,
                            token: i as u64,
                        },
                    );
                }
                if self.tcp.is_some() {
                    let at = self.tcp_start;
                    ctx.send_at(
                        ctx.self_id(),
                        at,
                        NetMsg::Timer {
                            kind: TimerKind::App(0),
                            token: 0,
                        },
                    );
                }
            }
            NetMsg::Timer {
                kind: TimerKind::CbrSend,
                token,
            } => {
                let i = token as usize;
                if i >= self.cbr.len() || ctx.now() >= self.cbr_stop {
                    return;
                }
                let now = ctx.now();
                let pkt = self.cbr[i].next_packet(now);
                let interval = self.cbr[i].interval;
                // Per-flow source accounting for the end-of-run packet
                // conservation audit (sent == delivered + Σ drops).
                ctx.shared.stats.record_sent(pkt.flow);
                self.transmit(ctx, pkt);
                start_timer(ctx, interval, TimerKind::CbrSend, token);
            }
            NetMsg::Timer {
                kind: TimerKind::App(0),
                ..
            } => {
                // TCP connection establishment.
                if let Some(tcp) = self.tcp.as_mut() {
                    let now = ctx.now();
                    tcp.on_start_into(now, &mut self.tcp_out);
                    self.transmit_tcp_out(ctx);
                    start_timer(ctx, self.tcp_tick, TimerKind::TcpTick, 0);
                }
            }
            NetMsg::Timer {
                kind: TimerKind::TcpTick,
                ..
            } => {
                if let Some(tcp) = self.tcp.as_mut() {
                    let now = ctx.now();
                    tcp.on_tick_into(now, &mut self.tcp_out);
                    self.transmit_tcp_out(ctx);
                    start_timer(ctx, self.tcp_tick, TimerKind::TcpTick, 0);
                }
            }
            NetMsg::LinkPacket { pkt, .. } => {
                let node = self.node;
                if let Some(local) = send_from(ctx, node, pkt) {
                    match &local.payload {
                        Payload::Tcp(seg) if seg.flags.ack => {
                            let seg = *seg;
                            if let Some(tcp) = self.tcp.as_mut() {
                                let now = ctx.now();
                                tcp.on_ack_into(now, &seg, &mut self.tcp_out);
                                self.transmit_tcp_out(ctx);
                            }
                        }
                        Payload::Control(msg) => {
                            if let ControlMsg::BindingUpdate {
                                kind: BindingKind::Correspondent,
                                home,
                                coa,
                                lifetime,
                            } = msg.as_ref()
                            {
                                // Route optimization: accept and acknowledge.
                                let (home, coa, lifetime) = (*home, *coa, *lifetime);
                                let now = ctx.now();
                                self.bindings.update(home, coa, lifetime, now);
                                let ack = ControlMsg::BindingAck {
                                    kind: BindingKind::Correspondent,
                                    home,
                                    status: AckStatus::Accepted,
                                };
                                fh_net::record_control(ctx, &ack);
                                let reply = Packet::control(self.addr, local.src, ack, now);
                                self.transmit(ctx, reply);
                            }
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
}

/// A router node hosting the HMIPv6 mobility anchor point.
pub struct MapNode {
    /// The anchor component.
    pub anchor: MobilityAnchor,
}

impl Actor<NetMsg, World> for MapNode {
    fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
        if let NetMsg::LinkPacket { pkt, .. } = msg {
            let node = self.anchor.node;
            if let Some(local) = send_from(ctx, node, pkt) {
                let _ = self.anchor.handle_local(ctx, local);
            }
        }
    }
}

/// An access-router node (fast handover PAR/NAR roles + WLAN AP).
pub struct ArNode {
    /// The protocol agent.
    pub agent: ArAgent,
}

impl Actor<NetMsg, World> for ArNode {
    fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
        self.agent.handle(ctx, msg);
    }
}

/// A mobile-host node: protocol agent plus application endpoints.
pub struct MhNode {
    /// The fast-handover protocol agent (radio + Mobile IP inside).
    pub agent: MhAgent,
    /// Per-flow UDP sinks.
    pub sinks: Vec<UdpSink>,
    /// Optional TCP receiver (the FTP download endpoint).
    pub tcp_rx: Option<TcpReceiver>,
}

impl MhNode {
    /// Creates a host node around a protocol agent.
    #[must_use]
    pub fn new(agent: MhAgent) -> Self {
        MhNode {
            agent,
            sinks: Vec::new(),
            tcp_rx: None,
        }
    }
}

impl Actor<NetMsg, World> for MhNode {
    fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
        if let Some(app) = self.agent.handle(ctx, msg) {
            match &app.payload {
                Payload::Tcp(seg) => {
                    if let Some(rx) = self.tcp_rx.as_mut() {
                        let now = ctx.now();
                        if let Some(ack) = rx.on_segment(now, seg) {
                            let _ = self.agent.send_data(ctx, ack);
                        }
                    }
                }
                _ => {
                    let now = ctx.now();
                    ctx.shared.stats.record_delivered(app.flow);
                    for sink in &mut self.sinks {
                        sink.on_packet(now, &app);
                    }
                }
            }
        }
    }
}
