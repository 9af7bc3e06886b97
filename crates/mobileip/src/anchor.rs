//! Mobility anchors: the Mobile IPv6 home agent and the HMIPv6 MAP.
//!
//! Both devices do the same job at different scopes (§2.2.1: the MAP "can be
//! thought of as a local home agent"): they accept binding updates, keep a
//! [`BindingCache`], intercept packets addressed into their prefix, and
//! tunnel them to the registered care-of address with IPv6-in-IPv6
//! encapsulation. [`MobilityAnchor`] implements that shared behaviour; the
//! [`MobilityAnchor::map`] and [`MobilityAnchor::home_agent`] constructors
//! pick which binding kind the anchor serves.
//!
//! The anchor is a *component*: the owning node actor routes packets
//! normally and passes locally-terminating ones to
//! [`MobilityAnchor::handle_local`].

use std::net::Ipv6Addr;

use fh_net::{
    msg::{AckStatus, BindingKind},
    send_control, send_from, ControlMsg, DropReason, NetCtx, NetWorld, NodeId, Packet, Prefix,
};

use crate::binding::BindingCache;

/// A home agent or mobility anchor point component.
#[derive(Debug)]
pub struct MobilityAnchor {
    /// The node this anchor runs on.
    pub node: NodeId,
    /// The anchor's own address (where binding updates are sent).
    pub addr: Ipv6Addr,
    /// The prefix the anchor intercepts (home prefix, or MAP/RCoA prefix).
    pub prefix: Prefix,
    kind: BindingKind,
    /// The binding cache.
    pub cache: BindingCache,
    /// Packets successfully intercepted and tunneled.
    pub tunneled: u64,
    /// Packets for the prefix that had no live binding.
    pub intercept_failures: u64,
}

impl MobilityAnchor {
    /// Creates an HMIPv6 mobility anchor point serving `prefix` (the RCoA
    /// prefix mobile hosts derive their regional addresses from).
    #[must_use]
    pub fn map(node: NodeId, addr: Ipv6Addr, prefix: Prefix) -> Self {
        MobilityAnchor::new(node, addr, prefix, BindingKind::Map)
    }

    /// Creates a Mobile IPv6 home agent serving the home prefix.
    #[must_use]
    pub fn home_agent(node: NodeId, addr: Ipv6Addr, prefix: Prefix) -> Self {
        MobilityAnchor::new(node, addr, prefix, BindingKind::HomeAgent)
    }

    fn new(node: NodeId, addr: Ipv6Addr, prefix: Prefix, kind: BindingKind) -> Self {
        assert!(
            prefix.contains(addr),
            "anchor address must live inside its prefix"
        );
        MobilityAnchor {
            node,
            addr,
            prefix,
            kind,
            cache: BindingCache::new(),
            tunneled: 0,
            intercept_failures: 0,
        }
    }

    /// The binding kind this anchor serves.
    #[must_use]
    pub fn kind(&self) -> BindingKind {
        self.kind
    }

    /// Processes a packet that routing delivered to this anchor's node.
    ///
    /// Consumes binding updates addressed to the anchor and packets it can
    /// intercept-and-tunnel; anything else is handed back to the caller.
    pub fn handle_local<S: NetWorld>(
        &mut self,
        ctx: &mut NetCtx<'_, S>,
        pkt: Packet,
    ) -> Option<Packet> {
        // Binding updates addressed to the anchor itself.
        if pkt.dst == self.addr {
            if let Some(ControlMsg::BindingUpdate {
                kind,
                home,
                coa,
                lifetime,
            }) = pkt.as_control()
            {
                if *kind == self.kind {
                    self.cache.update(*home, *coa, *lifetime, ctx.now());
                    let node = self.node;
                    let reply_to = pkt.src;
                    let ack = ControlMsg::BindingAck {
                        kind: *kind,
                        home: *home,
                        status: AckStatus::Accepted,
                    };
                    let _ = send_control(ctx, node, self.addr, reply_to, ack);
                    return None;
                }
            }
            return Some(pkt);
        }
        // Interception: traffic into the served prefix.
        if self.prefix.contains(pkt.dst) {
            let now = ctx.now();
            if let Some(coa) = self.cache.lookup(pkt.dst, now) {
                let outer = pkt.encapsulate(self.addr, coa);
                self.tunneled += 1;
                let node = self.node;
                if let Some(returned) = send_from(ctx, node, outer) {
                    // The CoA routes back to this very node (the MH is at
                    // home, or misconfigured): deliver the inner packet.
                    return returned.decapsulate();
                }
                return None;
            }
            self.intercept_failures += 1;
            fh_net::record_drop(ctx, pkt.flow, DropReason::Unroutable);
            return None;
        }
        Some(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fh_net::{doc_subnet, FlowId, LinkId, LinkSpec, NetMsg, NetStats, ServiceClass, Topology};
    use fh_sim::{Actor, SimDuration, SimTime, Simulator};

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

    /// Node that runs a MobilityAnchor.
    struct AnchorNode {
        anchor: Option<MobilityAnchor>,
        swallowed: Vec<Packet>,
    }
    impl Actor<NetMsg, World> for AnchorNode {
        fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
            if let NetMsg::LinkPacket { pkt, .. } = msg {
                let me = ctx.self_id();
                if let Some(local) = send_from(ctx, me, pkt) {
                    let mut anchor = self.anchor.take().unwrap();
                    if let Some(rest) = anchor.handle_local(ctx, local) {
                        self.swallowed.push(rest);
                    }
                    self.anchor = Some(anchor);
                }
            }
        }
    }

    /// Leaf node recording everything it receives (after decapsulation).
    struct Leaf {
        got: Vec<Packet>,
    }
    impl Actor<NetMsg, World> for Leaf {
        fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
            if let NetMsg::LinkPacket { pkt, .. } = msg {
                let me = ctx.self_id();
                if let Some(local) = send_from(ctx, me, pkt) {
                    let inner = local.clone().decapsulate().unwrap_or(local);
                    self.got.push(inner);
                }
            }
        }
    }

    /// CN — MAP — AR(+MH as leaf).
    struct Net {
        sim: Simulator<NetMsg, World>,
        cn: NodeId,
        map: NodeId,
        mh: NodeId,
        rcoa: Ipv6Addr,
        lcoa: Ipv6Addr,
        map_addr: Ipv6Addr,
    }

    fn build() -> Net {
        let mut sim = Simulator::new(
            World {
                topo: Topology::new(),
                stats: NetStats::new(),
            },
            11,
        );
        let cn = sim.add_actor(Box::new(Leaf { got: vec![] }));
        let map = sim.add_actor(Box::new(AnchorNode {
            anchor: None,
            swallowed: vec![],
        }));
        let mh = sim.add_actor(Box::new(Leaf { got: vec![] }));
        let t = &mut sim.shared.topo;
        t.register_node(cn);
        t.register_node(map);
        t.register_node(mh);
        let spec = LinkSpec::new(100_000_000, SimDuration::from_millis(2), 50);
        t.add_link(cn, map, spec);
        t.add_link(map, mh, spec);
        let map_prefix = doc_subnet(10);
        let map_addr = map_prefix.host(1);
        let lcoa_prefix = doc_subnet(1);
        let lcoa = lcoa_prefix.host(0x99);
        let rcoa = map_prefix.host(0x99);
        t.add_prefix(doc_subnet(0), cn);
        t.add_prefix(map_prefix, map);
        t.add_prefix(lcoa_prefix, mh);
        t.compute_routes();
        let anchor = MobilityAnchor::map(map, map_addr, map_prefix);
        sim.actor_mut::<AnchorNode>(map).unwrap().anchor = Some(anchor);
        Net {
            sim,
            cn,
            map,
            mh,
            rcoa,
            lcoa,
            map_addr,
        }
    }

    fn inject(sim: &mut Simulator<NetMsg, World>, from: NodeId, pkt: Packet) {
        let now = sim.now();
        sim.schedule(
            now,
            from,
            NetMsg::LinkPacket {
                link: LinkId(0),
                pkt,
            },
        );
    }

    #[test]
    fn binding_update_is_acked_and_cached() {
        let mut net = build();
        let bu = ControlMsg::BindingUpdate {
            kind: BindingKind::Map,
            home: net.rcoa,
            coa: net.lcoa,
            lifetime: SimDuration::from_secs(60),
        };
        let pkt = Packet::control(net.lcoa, net.map_addr, bu, SimTime::ZERO);
        inject(&mut net.sim, net.map, pkt);
        net.sim.run();
        let anchor = net
            .sim
            .actor::<AnchorNode>(net.map)
            .unwrap()
            .anchor
            .as_ref()
            .unwrap();
        assert_eq!(anchor.cache.lookup(net.rcoa, net.sim.now()), Some(net.lcoa));
        // The MH leaf received a BindingAck.
        let got = &net.sim.actor::<Leaf>(net.mh).unwrap().got;
        assert_eq!(got.len(), 1);
        assert!(matches!(
            got[0].as_control(),
            Some(ControlMsg::BindingAck {
                status: AckStatus::Accepted,
                ..
            })
        ));
    }

    #[test]
    fn intercepted_traffic_is_tunneled_to_the_lcoa() {
        let mut net = build();
        // Register first.
        let bu = ControlMsg::BindingUpdate {
            kind: BindingKind::Map,
            home: net.rcoa,
            coa: net.lcoa,
            lifetime: SimDuration::from_secs(60),
        };
        inject(
            &mut net.sim,
            net.map,
            Packet::control(net.lcoa, net.map_addr, bu, SimTime::ZERO),
        );
        net.sim.run();
        // CN sends to the RCoA.
        let data = Packet::data(
            FlowId(1),
            5,
            doc_subnet(0).host(1),
            net.rcoa,
            ServiceClass::RealTime,
            160,
            net.sim.now(),
        );
        inject(&mut net.sim, net.cn, data);
        net.sim.run();
        let got = &net.sim.actor::<Leaf>(net.mh).unwrap().got;
        let data_pkts: Vec<_> = got.iter().filter(|p| p.flow == FlowId(1)).collect();
        assert_eq!(data_pkts.len(), 1);
        assert_eq!(data_pkts[0].dst, net.rcoa); // inner packet, post-decap
        assert_eq!(data_pkts[0].seq, 5);
        let anchor = net
            .sim
            .actor::<AnchorNode>(net.map)
            .unwrap()
            .anchor
            .as_ref()
            .unwrap();
        assert_eq!(anchor.tunneled, 1);
    }

    #[test]
    fn unbound_rcoa_traffic_is_dropped() {
        let mut net = build();
        let data = Packet::data(
            FlowId(2),
            0,
            doc_subnet(0).host(1),
            net.rcoa,
            ServiceClass::BestEffort,
            160,
            SimTime::ZERO,
        );
        inject(&mut net.sim, net.cn, data);
        net.sim.run();
        assert!(net.sim.actor::<Leaf>(net.mh).unwrap().got.is_empty());
        assert_eq!(net.sim.shared.stats.drops(DropReason::Unroutable), 1);
        let anchor = net
            .sim
            .actor::<AnchorNode>(net.map)
            .unwrap()
            .anchor
            .as_ref()
            .unwrap();
        assert_eq!(anchor.intercept_failures, 1);
    }

    #[test]
    fn wrong_kind_binding_update_is_not_consumed() {
        let mut net = build();
        let bu = ControlMsg::BindingUpdate {
            kind: BindingKind::HomeAgent, // MAP must not process this
            home: net.rcoa,
            coa: net.lcoa,
            lifetime: SimDuration::from_secs(60),
        };
        inject(
            &mut net.sim,
            net.map,
            Packet::control(net.lcoa, net.map_addr, bu, SimTime::ZERO),
        );
        net.sim.run();
        let node = net.sim.actor::<AnchorNode>(net.map).unwrap();
        assert_eq!(node.swallowed.len(), 1);
        assert!(node.anchor.as_ref().unwrap().cache.is_empty());
    }

    #[test]
    fn deregistration_stops_interception() {
        let mut net = build();
        let register = ControlMsg::BindingUpdate {
            kind: BindingKind::Map,
            home: net.rcoa,
            coa: net.lcoa,
            lifetime: SimDuration::from_secs(60),
        };
        inject(
            &mut net.sim,
            net.map,
            Packet::control(net.lcoa, net.map_addr, register, SimTime::ZERO),
        );
        net.sim.run();
        let deregister = ControlMsg::BindingUpdate {
            kind: BindingKind::Map,
            home: net.rcoa,
            coa: net.lcoa,
            lifetime: SimDuration::ZERO,
        };
        inject(
            &mut net.sim,
            net.map,
            Packet::control(net.lcoa, net.map_addr, deregister, SimTime::ZERO),
        );
        net.sim.run();
        let anchor = net
            .sim
            .actor::<AnchorNode>(net.map)
            .unwrap()
            .anchor
            .as_ref()
            .unwrap();
        assert_eq!(anchor.cache.lookup(net.rcoa, net.sim.now()), None);
    }

    #[test]
    #[should_panic(expected = "inside its prefix")]
    fn anchor_address_outside_prefix_panics() {
        let mut topo = Topology::new();
        let n = topo.add_node("x");
        let _ = MobilityAnchor::map(n, doc_subnet(2).host(1), doc_subnet(1));
    }
}
