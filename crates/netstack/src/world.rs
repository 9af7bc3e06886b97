//! The shared-world contract and the network message vocabulary.
//!
//! Every simulation in this repository instantiates
//! `fh_sim::Simulator<NetMsg, S>` where `S` implements [`NetWorld`] (and
//! usually richer traits from higher crates). This module defines:
//!
//! * [`NetMsg`] — everything a node actor can receive: wired packet
//!   arrivals, radio packet arrivals, timers, link-layer trigger events.
//! * [`NetWorld`] — access to the [`Topology`] and the [`NetStats`] hub.
//! * transmission helpers ([`transmit_on`], [`send_from`], [`send_control`])
//!   that do the link math, statistics accounting and event scheduling.
//!
//! # Examples
//!
//! See the crate-level documentation for a two-node end-to-end example.

use std::net::Ipv6Addr;

use fh_sim::{Ctx, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::handover::{HandoverAttempt, HandoverOutcome};
use crate::link::LinkId;
use crate::msg::{ApId, ControlMsg};
use crate::packet::{FlowId, Packet};
use crate::topology::{NodeId, RouteDecision, Topology};

/// Convenience alias for the dispatch context every node actor sees.
pub type NetCtx<'a, S> = Ctx<'a, NetMsg, S>;

/// Link-layer events delivered to a mobile host (and mirrored to interested
/// routers by the radio environment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Event {
    /// L2 source trigger (L2-ST): the radio predicts a handoff toward
    /// `next`, typically on entering the coverage overlap.
    SourceTrigger {
        /// The AP the MH is currently attached to.
        current: ApId,
        /// The AP the MH is about to move to.
        next: ApId,
    },
    /// The radio lost its association (start of the L2 black-out).
    LinkDown {
        /// The AP the MH detached from.
        ap: ApId,
    },
    /// The radio (re)associated with `ap` (end of the L2 black-out).
    LinkUp {
        /// The AP the MH attached to.
        ap: ApId,
    },
}

/// What a timer event means to its receiving actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Periodic router advertisement beacon.
    RouterAdvertisement,
    /// Mobility-model position update.
    Mobility,
    /// CBR source: emit the next packet.
    CbrSend,
    /// TCP coarse clock tick (500 ms in the reproduction, as in BSD/ns-2).
    TcpTick,
    /// Application-level custom timer.
    App(u32),
    /// The radio completes an attach at this instant.
    Attach,
    /// Buffer reservation: auto-start buffering (BI start-time field).
    BufferStart,
    /// Buffer reservation: lifetime expired, release resources.
    BufferLifetime,
    /// Paced flush of a handover buffer: send the next buffered packet.
    FlushStep,
    /// Retransmission timer for an unanswered RtSolPr+BI (mobile host).
    RtxSolicit,
    /// Retransmission timer for an unanswered HI+BR (previous AR).
    RtxHi,
    /// Retransmission timer for an unacknowledged FNA/binding update
    /// (mobile host, after attaching to the new AR).
    RtxFna,
    /// Scheduled node fault: an access router crashes (volatile state lost).
    NodeCrash,
    /// Scheduled node fault: a crashed access router comes back up.
    NodeRestart,
    /// Scheduled node fault: a mobile host loses power permanently.
    PowerOff,
    /// Soft-state sweep: a host route installed at an access router
    /// reached its lifetime without a refresh.
    HostRouteExpiry,
    /// Soft-state sweep: periodic dead-peer scan over handover sessions
    /// whose remote router has gone silent.
    DeadPeerSweep,
    /// Handover watchdog: a buffering session's deadline elapsed without
    /// a flush or an expiry — force-resolve it.
    HandoverWatchdog,
}

/// Every event a network node actor can receive.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// A packet arrived over a wired link.
    LinkPacket {
        /// The link it arrived on.
        link: LinkId,
        /// The packet.
        pkt: Packet,
    },
    /// A packet arrived over the air.
    RadioPacket {
        /// The AP whose cell carried the frame.
        ap: ApId,
        /// The transmitting node (the 802.11 source-address analog):
        /// the mobile host on the uplink, the AP's router on the downlink.
        from: NodeId,
        /// The packet.
        pkt: Packet,
    },
    /// A scheduled timer fired. `token` disambiguates timer instances
    /// (flow ids, session numbers, …) and lets stale timers be ignored.
    Timer {
        /// What the timer means.
        kind: TimerKind,
        /// Caller-chosen discriminator.
        token: u64,
    },
    /// A link-layer event from the radio environment.
    L2(L2Event),
    /// Kick-off event sent once to every actor at simulation start.
    Start,
}

/// Why a packet was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// Drop-tail queue overflow on a wired link.
    QueueOverflow,
    /// Sent over the air while the MH was detached (L2 black-out).
    RadioDetached,
    /// A handover buffer had no space left.
    BufferOverflow,
    /// The buffering policy chose to drop (e.g. Table 3.3 case 4 best
    /// effort, or the best-effort `a` threshold).
    Policy,
    /// No route to the destination.
    Unroutable,
    /// A buffer reservation expired with packets still queued.
    LifetimeExpired,
    /// The IPv6 hop limit reached zero (a forwarding loop or an absurdly
    /// long path).
    HopLimitExceeded,
    /// The deterministic fault-injection layer discarded the packet at
    /// link entry (seeded loss, burst loss, or a scheduled outage).
    FaultInjected,
    /// A piece of soft state (host route, guard-buffer episode, dead-peer
    /// session) expired without a refresh and its queued packets were
    /// released.
    Expired,
    /// A node fault reclaimed the packet: it was buffered at a router
    /// that crashed, or arrived at a node that is down.
    Reclaimed,
    /// The overload-control layer shed the packet to relieve memory
    /// pressure (byte budget high-watermark crossed). Distinct from
    /// overflow rejection: the packet *was* admitted, then sacrificed.
    PressureShed,
}

impl DropReason {
    /// Every drop reason, in declaration order. Audit and CSV code
    /// iterates this instead of pattern-matching with a `_` arm, so a new
    /// variant cannot be silently uncounted.
    pub const ALL: [DropReason; 11] = [
        DropReason::QueueOverflow,
        DropReason::RadioDetached,
        DropReason::BufferOverflow,
        DropReason::Policy,
        DropReason::Unroutable,
        DropReason::LifetimeExpired,
        DropReason::HopLimitExceeded,
        DropReason::FaultInjected,
        DropReason::Expired,
        DropReason::Reclaimed,
        DropReason::PressureShed,
    ];

    /// Position in [`DropReason::ALL`]; indexes the [`NetStats`] drop
    /// ledger.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable short label for tables and CSV columns. Exhaustive on
    /// purpose — adding a variant without a label is a compile error.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DropReason::QueueOverflow => "queue_overflow",
            DropReason::RadioDetached => "radio_detached",
            DropReason::BufferOverflow => "buffer_overflow",
            DropReason::Policy => "policy",
            DropReason::Unroutable => "unroutable",
            DropReason::LifetimeExpired => "lifetime_expired",
            DropReason::HopLimitExceeded => "hop_limit",
            DropReason::FaultInjected => "fault_injected",
            DropReason::Expired => "expired",
            DropReason::Reclaimed => "reclaimed",
            DropReason::PressureShed => "pressure_shed",
        }
    }
}

/// Global statistics hub, one per simulation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetStats {
    /// Optional protocol event trace (off by default).
    #[serde(skip)]
    pub trace: fh_telemetry::FlightRecorder<crate::trace::TraceEvent>,
    /// The handover ledger: every host's attempts, in the order they
    /// opened (always on; a host agent keeps the index of its latest).
    #[serde(skip)]
    pub handovers: Vec<HandoverAttempt>,
    /// Drops by reason, indexed by [`DropReason::index`].
    drops: [u64; DropReason::ALL.len()],
    /// One conservation row per flow, indexed by `FlowId.0` (ids are
    /// dense by construction); grows on first touch.
    flows: Vec<FlowAudit>,
    /// Data packets delivered to their final destination.
    pub delivered: u64,
    /// Control messages sent, indexed by [`ControlMsg::kind_index`].
    control_sent: [u64; ControlMsg::KIND_NAMES.len()],
    /// Total control bytes sent (bodies + IPv6 headers).
    pub control_bytes: u64,
    /// Control messages that carried a piggybacked buffer option.
    pub piggybacked: u64,
    /// Handover outcome tally, indexed by [`HandoverOutcome`].
    outcomes: [u64; 3],
}

/// End-of-run packet-conservation snapshot for one flow.
///
/// Once all queues and handover buffers have drained, every packet that
/// entered the network (plus every fault-injected duplicate) must either
/// have reached its sink or be accounted to a [`DropReason`]:
/// `sent + duplicated == delivered + dropped`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowAudit {
    /// Packets the source pushed into the network.
    pub sent: u64,
    /// Packets the sink received.
    pub delivered: u64,
    /// Extra copies created by fault-injected duplication.
    pub duplicated: u64,
    /// Packets accounted to any [`DropReason`].
    pub dropped: u64,
}

impl FlowAudit {
    /// `true` if every packet is accounted for.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.sent + self.duplicated == self.delivered + self.dropped
    }
}

impl NetStats {
    /// Creates an empty hub.
    #[must_use]
    pub fn new() -> Self {
        NetStats::default()
    }

    /// The ledger row of `flow`, grown on first touch.
    #[inline]
    fn flow_mut(&mut self, flow: FlowId) -> &mut FlowAudit {
        let i = flow.0 as usize;
        if i >= self.flows.len() {
            self.flows.resize(i + 1, FlowAudit::default());
        }
        &mut self.flows[i]
    }

    /// Records the loss of a data packet. Control-plane losses are counted
    /// under flow 0.
    pub fn record_drop(&mut self, now: SimTime, flow: FlowId, reason: DropReason) {
        self.drops[reason.index()] += 1;
        self.flow_mut(flow).dropped += 1;
        self.trace
            .record(now, crate::trace::TraceEvent::Drop { flow, reason });
    }

    /// Records a sent control message.
    pub fn record_control(&mut self, now: SimTime, msg: &ControlMsg) {
        self.control_sent[msg.kind_index()] += 1;
        self.control_bytes += u64::from(msg.wire_size()) + u64::from(Packet::IPV6_HEADER);
        if msg.has_piggyback() {
            self.piggybacked += 1;
        }
        self.trace.record(
            now,
            crate::trace::TraceEvent::ControlSent {
                kind: msg.kind_name(),
                bytes: msg.wire_size() + Packet::IPV6_HEADER,
                piggybacked: msg.has_piggyback(),
            },
        );
    }

    /// Total drops for one reason.
    #[must_use]
    pub fn drops(&self, reason: DropReason) -> u64 {
        self.drops[reason.index()]
    }

    /// Total drops across all reasons.
    #[must_use]
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// The full per-reason drop breakdown, in [`DropReason::ALL`] order.
    /// Every variant shows up in tables, zero or not.
    #[must_use]
    pub fn drops_by_reason(&self) -> [(DropReason, u64); DropReason::ALL.len()] {
        DropReason::ALL.map(|r| (r, self.drops(r)))
    }

    /// Number of control messages of the given kind sent so far.
    #[must_use]
    pub fn control_count(&self, kind: &str) -> u64 {
        ControlMsg::KIND_NAMES
            .iter()
            .position(|&name| name == kind)
            .map_or(0, |i| self.control_sent[i])
    }

    /// Total control messages sent.
    #[must_use]
    pub fn control_total(&self) -> u64 {
        self.control_sent.iter().sum()
    }

    /// Records a data packet entering the network on `flow`.
    #[inline]
    pub fn record_sent(&mut self, flow: FlowId) {
        self.flow_mut(flow).sent += 1;
    }

    /// Records a data packet reaching its application sink on `flow`.
    #[inline]
    pub fn record_delivered(&mut self, flow: FlowId) {
        self.delivered += 1;
        self.flow_mut(flow).delivered += 1;
    }

    /// Records a fault-injected duplicate created on `flow`.
    pub fn record_duplicate(&mut self, flow: FlowId) {
        self.flow_mut(flow).duplicated += 1;
    }

    /// Packets recorded as sent on `flow`.
    #[must_use]
    pub fn flow_sent(&self, flow: FlowId) -> u64 {
        self.flow_audit(flow).sent
    }

    /// Packets recorded as delivered on `flow`.
    #[must_use]
    pub fn flow_delivered(&self, flow: FlowId) -> u64 {
        self.flow_audit(flow).delivered
    }

    /// The packet-conservation snapshot for one flow.
    #[must_use]
    pub fn flow_audit(&self, flow: FlowId) -> FlowAudit {
        self.flows.get(flow.0 as usize).copied().unwrap_or_default()
    }

    /// All flows with recorded sends, sorted (the audit set).
    #[must_use]
    pub fn audited_flows(&self) -> Vec<FlowId> {
        (0u32..)
            .zip(&self.flows)
            .filter(|(_, audit)| audit.sent > 0)
            .map(|(id, _)| FlowId(id))
            .collect()
    }

    /// The flows whose conservation equation does not balance, with their
    /// audits — the non-panicking form of
    /// [`NetStats::assert_conservation`], used by expectation engines that
    /// want to report violations instead of aborting. Empty means every
    /// audited flow conserved. Call only after queues and buffers have
    /// drained (traffic stopped, reservations expired).
    #[must_use]
    pub fn conservation_violations(&self) -> Vec<(FlowId, FlowAudit)> {
        self.audited_flows()
            .into_iter()
            .map(|flow| (flow, self.flow_audit(flow)))
            .filter(|(_, audit)| !audit.conserved())
            .collect()
    }

    /// Asserts `sent + duplicated == delivered + Σ drops` for every flow
    /// with recorded sends. Call only after queues and buffers have
    /// drained (traffic stopped, reservations expired).
    ///
    /// # Panics
    ///
    /// Panics with the offending flow's [`FlowAudit`] if conservation is
    /// violated.
    pub fn assert_conservation(&self) {
        if let Some((flow, audit)) = self.conservation_violations().first() {
            panic!("packet conservation violated on {flow:?}: {audit:?}");
        }
    }

    /// Records the resolution of one handover attempt.
    pub fn record_outcome(&mut self, outcome: HandoverOutcome) {
        self.outcomes[outcome.index()] += 1;
    }

    /// The full outcome tally as `(outcome, count)` pairs.
    #[must_use]
    pub fn outcomes(&self) -> [(HandoverOutcome, u64); 3] {
        HandoverOutcome::ALL.map(|o| (o, self.outcomes[o.index()]))
    }

    /// End-of-run classification: every attempt still open at `now` is a
    /// failed handover. Closes and tallies each; returns how many.
    pub fn fail_open_handovers(&mut self, now: SimTime) -> u64 {
        let mut failed = 0;
        for attempt in self.handovers.iter_mut().filter(|a| a.is_open()) {
            attempt.close(now, HandoverOutcome::Failed);
            failed += 1;
        }
        self.outcomes[HandoverOutcome::Failed.index()] += failed;
        failed
    }
}

/// Shared-state contract required by the network layer.
pub trait NetWorld: 'static {
    /// The network graph.
    fn topology(&self) -> &Topology;
    /// Mutable network graph (links mutate on transmission).
    fn topology_mut(&mut self) -> &mut Topology;
    /// The statistics hub.
    fn stats(&self) -> &NetStats;
    /// Mutable statistics hub.
    fn stats_mut(&mut self) -> &mut NetStats;
}

/// Transmits `pkt` from `from` on the given link, scheduling its arrival at
/// the peer. Returns `false` (and records the drop) when the link refused
/// the packet — queue overflow or an injected fault, each under its own
/// [`DropReason`]. Fault-injected duplicates are scheduled as a second
/// arrival of the same packet.
pub fn transmit_on<S: NetWorld>(
    ctx: &mut NetCtx<'_, S>,
    link_id: LinkId,
    from: NodeId,
    pkt: Packet,
) -> bool {
    let now = ctx.now();
    let link = ctx.shared.topology_mut().link_mut(link_id);
    let peer = link
        .peer(from)
        .expect("transmit_on: node not attached to link");
    let result = link.try_transmit(now, from, pkt.size);
    let dup_arrival = if result.is_ok() {
        link.take_duplicate(from)
    } else {
        None
    };
    match result {
        Ok(arrival) => {
            if let Some(at) = dup_arrival {
                ctx.shared.stats_mut().record_duplicate(pkt.flow);
                ctx.send_at(
                    peer,
                    at,
                    NetMsg::LinkPacket {
                        link: link_id,
                        pkt: pkt.clone(),
                    },
                );
            }
            ctx.send_at(peer, arrival, NetMsg::LinkPacket { link: link_id, pkt });
            true
        }
        Err(crate::link::LinkError::Faulted) => {
            record_drop(ctx, pkt.flow, DropReason::FaultInjected);
            false
        }
        Err(_) => {
            record_drop(ctx, pkt.flow, DropReason::QueueOverflow);
            false
        }
    }
}

/// Routes and transmits `pkt` from node `from`.
///
/// Returns `Some(pkt)` when the destination is local to `from` (the caller
/// must consume it); `None` when the packet was forwarded or dropped
/// (drops are recorded in the statistics hub).
#[must_use]
pub fn send_from<S: NetWorld>(
    ctx: &mut NetCtx<'_, S>,
    from: NodeId,
    mut pkt: Packet,
) -> Option<Packet> {
    match ctx.shared.topology().route(from, pkt.dst) {
        RouteDecision::Local => Some(pkt),
        RouteDecision::Forward(link) => {
            match pkt.hop_limit.checked_sub(1) {
                Some(h) if h > 0 => pkt.hop_limit = h,
                _ => {
                    record_drop(ctx, pkt.flow, DropReason::HopLimitExceeded);
                    return None;
                }
            }
            transmit_on(ctx, link, from, pkt);
            None
        }
        RouteDecision::Unroutable => {
            record_drop(ctx, pkt.flow, DropReason::Unroutable);
            None
        }
    }
}

/// Builds a control packet, accounts it, and routes it from node `from`.
///
/// Returns `Some(pkt)` if the destination is local (loopback control, which
/// callers usually treat as an immediate self-delivery).
pub fn send_control<S: NetWorld>(
    ctx: &mut NetCtx<'_, S>,
    from: NodeId,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    msg: ControlMsg,
) -> Option<Packet> {
    record_control(ctx, &msg);
    let pkt = Packet::control(src, dst, msg, ctx.now());
    send_from(ctx, from, pkt)
}

/// Schedules a timer for the current actor.
pub fn start_timer<S>(ctx: &mut NetCtx<'_, S>, delay: SimDuration, kind: TimerKind, token: u64) {
    ctx.send_self(delay, NetMsg::Timer { kind, token });
}

/// Records a drop with the current simulation time (avoids the borrow
/// dance at call sites).
pub fn record_drop<S: NetWorld>(ctx: &mut NetCtx<'_, S>, flow: FlowId, reason: DropReason) {
    let now = ctx.now();
    ctx.shared.stats_mut().record_drop(now, flow, reason);
}

/// Records a sent control message with the current simulation time.
pub fn record_control<S: NetWorld>(ctx: &mut NetCtx<'_, S>, msg: &ControlMsg) {
    let now = ctx.now();
    ctx.shared.stats_mut().record_control(now, msg);
}

/// Records a structured trace event with the current simulation time.
///
/// The closure only runs while tracing is enabled, so instrumentation in
/// hot paths (buffer admits, flush steps) costs one branch when off —
/// no event construction, no string work.
pub fn record_trace<S, F>(ctx: &mut NetCtx<'_, S>, make: F)
where
    S: NetWorld,
    F: FnOnce() -> crate::trace::TraceEvent,
{
    let now = ctx.now();
    let stats = ctx.shared.stats_mut();
    if stats.trace.is_enabled() {
        stats.trace.record(now, make());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::doc_subnet;
    use crate::class::ServiceClass;
    use crate::link::LinkSpec;
    use fh_sim::{Actor, ActorId, SimTime, Simulator};

    /// Minimal world for tests.
    #[derive(Default)]
    struct World {
        topo: Topology,
        stats: NetStats,
    }

    impl NetWorld for World {
        fn topology(&self) -> &Topology {
            &self.topo
        }
        fn topology_mut(&mut self) -> &mut Topology {
            &mut self.topo
        }
        fn stats(&self) -> &NetStats {
            &self.stats
        }
        fn stats_mut(&mut self) -> &mut NetStats {
            &mut self.stats
        }
    }

    #[test]
    fn event_payload_layout_stays_small() {
        // Every scheduled event moves one `NetMsg` into a queue slot and one
        // out of it; the slot payload is `Option<(ActorId, NetMsg)>` (the
        // niche keeps the `Option` free), 128 bytes a slot with its stamp.
        assert!(
            std::mem::size_of::<NetMsg>() <= 112,
            "NetMsg grew to {} bytes",
            std::mem::size_of::<NetMsg>()
        );
        assert!(
            std::mem::size_of::<Option<(ActorId, NetMsg)>>() <= 120,
            "event slot payload grew to {} bytes",
            std::mem::size_of::<Option<(ActorId, NetMsg)>>()
        );
    }

    /// A node that forwards anything not local and counts local deliveries.
    struct Node {
        delivered: u64,
    }

    impl Actor<NetMsg, World> for Node {
        fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
            if let NetMsg::LinkPacket { pkt, .. } = msg {
                let me = ctx.self_id();
                if let Some(local) = send_from(ctx, me, pkt) {
                    let _ = local;
                    self.delivered += 1;
                    ctx.shared.stats_mut().delivered += 1;
                }
            }
        }
    }

    fn build_chain(n: usize) -> (Simulator<NetMsg, World>, Vec<NodeId>) {
        let mut sim = Simulator::new(World::default(), 7);
        let ids: Vec<NodeId> = (0..n)
            .map(|_| sim.add_actor(Box::new(Node { delivered: 0 })))
            .collect();
        for &id in &ids {
            sim.shared.topo.register_node(id);
        }
        let spec = LinkSpec::new(8_000_000, SimDuration::from_millis(2), 50);
        for w in ids.windows(2) {
            sim.shared.topo.add_link(w[0], w[1], spec);
        }
        sim.shared.topo.add_prefix(doc_subnet(0), ids[0]);
        sim.shared
            .topo
            .add_prefix(doc_subnet((n - 1) as u16), ids[n - 1]);
        sim.shared.topo.compute_routes();
        (sim, ids)
    }

    fn data_packet(n: usize) -> Packet {
        Packet::data(
            FlowId(1),
            0,
            doc_subnet(0).host(1),
            doc_subnet((n - 1) as u16).host(1),
            ServiceClass::BestEffort,
            1000,
            SimTime::ZERO,
        )
    }

    #[test]
    fn packet_crosses_a_three_hop_chain() {
        let (mut sim, ids) = build_chain(4);
        let pkt = data_packet(4);
        // Inject at node 0 as if it had arrived on a link.
        sim.schedule(
            SimTime::ZERO,
            ids[0],
            NetMsg::LinkPacket {
                link: LinkId(0),
                pkt,
            },
        );
        sim.run();
        assert_eq!(sim.shared.stats.delivered, 1);
        assert_eq!(sim.actor::<Node>(ids[3]).unwrap().delivered, 1);
        // 3 hops * (1 ms serialization + 2 ms propagation).
        assert_eq!(sim.now(), SimTime::from_millis(9));
    }

    #[test]
    fn unroutable_packets_are_counted() {
        let (mut sim, ids) = build_chain(2);
        let mut pkt = data_packet(2);
        pkt.dst = "fd00::1".parse().unwrap();
        sim.schedule(
            SimTime::ZERO,
            ids[0],
            NetMsg::LinkPacket {
                link: LinkId(0),
                pkt,
            },
        );
        sim.run();
        assert_eq!(sim.shared.stats.drops(DropReason::Unroutable), 1);
        assert_eq!(sim.shared.stats.flow_audit(FlowId(1)).dropped, 1);
        assert_eq!(sim.shared.stats.delivered, 0);
    }

    #[test]
    fn queue_overflow_is_counted() {
        let (mut sim, ids) = build_chain(2);
        // Shrink the queue to zero and saturate it.
        sim.shared.topo.link_mut(LinkId(0)).spec.queue_limit = 0;
        for _ in 0..3 {
            let pkt = data_packet(2);
            sim.schedule(
                SimTime::ZERO,
                ids[0],
                NetMsg::LinkPacket {
                    link: LinkId(0),
                    pkt,
                },
            );
        }
        sim.run();
        assert_eq!(sim.shared.stats.drops(DropReason::QueueOverflow), 2);
        assert_eq!(sim.shared.stats.delivered, 1);
    }

    #[test]
    fn control_accounting() {
        let (mut sim, ids) = build_chain(2);
        struct Sender;
        impl Actor<NetMsg, World> for Sender {
            fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
                if let NetMsg::Start = msg {
                    let me = ctx.self_id();
                    let _ = send_control(
                        ctx,
                        me,
                        doc_subnet(0).host(9),
                        doc_subnet(1).host(1),
                        ControlMsg::RouterSolicitation,
                    );
                }
            }
        }
        // Sender shares node 0's position by registering its own node id.
        let s = sim.add_actor(Box::new(Sender));
        sim.shared.topo.register_node(s);
        let spec = LinkSpec::new(8_000_000, SimDuration::from_millis(1), 10);
        sim.shared.topo.add_link(s, ids[0], spec);
        sim.shared.topo.compute_routes();
        sim.schedule(SimTime::ZERO, s, NetMsg::Start);
        sim.run();
        assert_eq!(sim.shared.stats.control_count("RS"), 1);
        assert_eq!(sim.shared.stats.control_total(), 1);
        assert!(sim.shared.stats.control_bytes >= 48);
        assert_eq!(sim.shared.stats.piggybacked, 0);
    }

    #[test]
    fn fault_injected_drops_have_their_own_reason() {
        let (mut sim, ids) = build_chain(2);
        sim.shared
            .topo
            .link_mut(LinkId(0))
            .set_fault(ids[0], crate::FaultSpec::with_loss(1.0), 13);
        let pkt = data_packet(2);
        sim.shared.stats.record_sent(pkt.flow);
        sim.schedule(
            SimTime::ZERO,
            ids[0],
            NetMsg::LinkPacket {
                link: LinkId(0),
                pkt,
            },
        );
        sim.run();
        assert_eq!(sim.shared.stats.drops(DropReason::FaultInjected), 1);
        assert_eq!(sim.shared.stats.drops(DropReason::QueueOverflow), 0);
        assert_eq!(sim.shared.stats.delivered, 0);
        sim.shared.stats.assert_conservation();
    }

    #[test]
    fn duplicated_packets_arrive_twice_and_conserve() {
        let (mut sim, ids) = build_chain(2);
        sim.shared.topo.link_mut(LinkId(0)).set_fault(
            ids[0],
            crate::FaultSpec::default().duplicate(1.0),
            5,
        );
        let pkt = data_packet(2);
        sim.shared.stats.record_sent(pkt.flow);
        sim.schedule(
            SimTime::ZERO,
            ids[0],
            NetMsg::LinkPacket {
                link: LinkId(0),
                pkt,
            },
        );
        sim.run();
        // The test Node bumps `delivered` but not the per-flow ledger, so
        // mirror it here: both copies reached the far node.
        assert_eq!(sim.actor::<Node>(ids[1]).unwrap().delivered, 2);
        sim.shared.stats.record_delivered(FlowId(1));
        sim.shared.stats.record_delivered(FlowId(1));
        let audit = sim.shared.stats.flow_audit(FlowId(1));
        assert_eq!(audit.sent, 1);
        assert_eq!(audit.duplicated, 1);
        assert_eq!(audit.delivered, 2);
        assert!(audit.conserved());
    }

    #[test]
    fn conservation_audit_catches_a_missing_packet() {
        let mut stats = NetStats::new();
        stats.record_sent(FlowId(3));
        let audit = stats.flow_audit(FlowId(3));
        assert!(!audit.conserved(), "unaccounted packet must fail the audit");
        stats.record_drop(SimTime::ZERO, FlowId(3), DropReason::BufferOverflow);
        assert!(stats.flow_audit(FlowId(3)).conserved());
        stats.assert_conservation();
    }

    #[test]
    fn every_drop_reason_round_trips_through_the_audit() {
        // One flow per variant: a packet recorded as sent and then dropped
        // for that reason must balance the conservation equation, and the
        // exhaustive breakdown must attribute it to exactly that reason.
        for (i, reason) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(reason.index(), i, "{reason:?} out of place in ALL");
            let mut stats = NetStats::new();
            let flow = FlowId(u32::try_from(i).unwrap() + 1);
            stats.record_sent(flow);
            stats.record_drop(SimTime::ZERO, flow, reason);
            assert!(stats.flow_audit(flow).conserved(), "{reason:?}");
            stats.assert_conservation();
            for (r, n) in stats.drops_by_reason() {
                assert_eq!(n, u64::from(r == reason), "{reason:?} vs {r:?}");
            }
        }
        // Labels are unique (no copy-paste aliasing two variants).
        let labels: std::collections::HashSet<&str> =
            DropReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), DropReason::ALL.len());
    }

    #[test]
    fn sparse_flow_ids_audit_in_ascending_order() {
        let mut stats = NetStats::new();
        stats.record_sent(FlowId(7));
        stats.record_delivered(FlowId(7));
        stats.record_sent(FlowId(0));
        stats.record_drop(SimTime::ZERO, FlowId(0), DropReason::Policy);
        // A drop alone (control plane, or a flow that never sent) does not
        // put a flow in the audit set.
        stats.record_drop(SimTime::ZERO, FlowId(3), DropReason::Unroutable);
        assert_eq!(stats.audited_flows(), vec![FlowId(0), FlowId(7)]);
        assert_eq!(stats.flow_audit(FlowId(3)).dropped, 1);
        for untouched in [FlowId(5), FlowId(8), FlowId(u32::MAX)] {
            let audit = stats.flow_audit(untouched);
            assert_eq!(audit, FlowAudit::default());
            assert!(audit.conserved());
        }
        assert!(stats.conservation_violations().is_empty());
        stats.record_duplicate(FlowId(7));
        assert_eq!(
            stats.conservation_violations(),
            vec![(
                FlowId(7),
                FlowAudit {
                    sent: 1,
                    delivered: 1,
                    duplicated: 1,
                    dropped: 0
                }
            )]
        );
    }

    #[test]
    fn outcome_tally() {
        let mut stats = NetStats::new();
        stats.record_outcome(HandoverOutcome::Predictive);
        stats.record_outcome(HandoverOutcome::Predictive);
        stats.record_outcome(HandoverOutcome::Reactive);
        assert_eq!(
            stats.outcomes(),
            [
                (HandoverOutcome::Predictive, 2),
                (HandoverOutcome::Reactive, 1),
                (HandoverOutcome::Failed, 0)
            ]
        );
    }

    #[test]
    fn open_handovers_fail_once_at_the_end() {
        let mut stats = NetStats::new();
        let mut topo = Topology::new();
        let (a, b) = (topo.add_node("a"), topo.add_node("b"));
        stats
            .handovers
            .push(HandoverAttempt::open(a, SimTime::ZERO));
        stats
            .handovers
            .push(HandoverAttempt::open(b, SimTime::ZERO));
        let ms = SimTime::from_millis;
        stats.handovers[0].close(ms(5), HandoverOutcome::Predictive);
        assert_eq!(stats.fail_open_handovers(ms(9)), 1);
        assert_eq!(stats.fail_open_handovers(ms(10)), 0);
        assert_eq!(
            stats.handovers[1].end,
            Some((ms(9), HandoverOutcome::Failed))
        );
        assert_eq!(stats.outcomes()[2], (HandoverOutcome::Failed, 1));
    }

    #[test]
    fn local_destination_is_returned_to_caller() {
        let (mut sim, ids) = build_chain(2);
        let mut pkt = data_packet(2);
        pkt.dst = doc_subnet(0).host(5); // owned by node 0 itself
        sim.schedule(
            SimTime::ZERO,
            ids[0],
            NetMsg::LinkPacket {
                link: LinkId(0),
                pkt,
            },
        );
        sim.run();
        assert_eq!(sim.actor::<Node>(ids[0]).unwrap().delivered, 1);
    }
}
