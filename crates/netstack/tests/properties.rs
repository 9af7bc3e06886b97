//! Property tests for addressing, packets, links and routing.

use std::net::Ipv6Addr;

use fh_net::{FlowId, Link, LinkSpec, Packet, Prefix, RouteDecision, ServiceClass, Topology};
use fh_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

proptest! {
    /// A prefix always contains every host address derived from it.
    #[test]
    fn prefix_contains_its_hosts(addr in arb_addr(), len in 0u8..=64, iid in any::<u64>()) {
        let p = Prefix::new(addr, len);
        prop_assert!(p.contains(p.host(iid)));
    }

    /// Masking is idempotent: re-deriving the prefix from any member
    /// address yields the same prefix.
    #[test]
    fn prefix_mask_idempotent(addr in arb_addr(), len in 0u8..=128) {
        let p = Prefix::new(addr, len);
        let q = Prefix::new(p.base(), len);
        prop_assert_eq!(p, q);
        if len <= 64 {
            let member = p.host(0xdead_beef);
            prop_assert_eq!(Prefix::new(member, len), p);
        }
    }

    /// Longest-prefix match always prefers the more specific owner.
    #[test]
    fn lpm_prefers_specific(net in 0u16..100, host in 1u64..u64::MAX) {
        let mut topo = Topology::new();
        let coarse = topo.add_node("coarse");
        let fine = topo.add_node("fine");
        let wide = Prefix::new(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 0), 32);
        let narrow = fh_net::doc_subnet(net);
        topo.add_prefix(wide, coarse);
        topo.add_prefix(narrow, fine);
        prop_assert_eq!(topo.owner_of(narrow.host(host)), Some(fine));
        // An address in the wide prefix but a different /48 goes coarse.
        let other = fh_net::doc_subnet(net.wrapping_add(1) % 0xffff);
        prop_assert_eq!(topo.owner_of(other.host(host)), Some(coarse));
    }

    /// Encapsulation round-trips at arbitrary nesting depth, growing by
    /// exactly one header per layer and preserving the class.
    #[test]
    fn encapsulation_round_trips(
        depth in 0usize..6,
        size in 1u32..9000,
        class_code in 0u8..4,
        seq in any::<u64>()
    ) {
        let class = ServiceClass::from_field(class_code);
        let inner = Packet::data(
            FlowId(1), seq,
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            class, size, SimTime::ZERO,
        );
        let mut pkt = inner.clone();
        for i in 0..depth {
            let hop = Ipv6Addr::new(0x2001, 0xdb8, 0xff, i as u16, 0, 0, 0, 1);
            pkt = pkt.encapsulate(hop, hop);
        }
        prop_assert_eq!(pkt.size, size + depth as u32 * Packet::IPV6_HEADER);
        prop_assert_eq!(pkt.class, class);
        prop_assert_eq!(pkt.innermost(), &inner);
        for _ in 0..depth {
            pkt = pkt.decapsulate().expect("layer present");
        }
        prop_assert_eq!(pkt, inner);
    }

    /// On a random connected graph, every node can route to every
    /// advertised prefix, and following next-hops reaches the owner
    /// without loops.
    #[test]
    fn routing_reaches_every_prefix(
        n in 2usize..12,
        extra_edges in prop::collection::vec((0usize..12, 0usize..12), 0..10),
        delays in prop::collection::vec(1u64..50, 30)
    ) {
        let mut topo = Topology::new();
        let nodes: Vec<_> = (0..n).map(|i| topo.add_node(format!("n{i}"))).collect();
        let mut d = delays.iter().cycle();
        // Random tree keeps it connected…
        for i in 1..n {
            let parent = delays[i % delays.len()] as usize % i;
            topo.add_link(nodes[parent], nodes[i],
                LinkSpec::new(10_000_000, SimDuration::from_millis(*d.next().unwrap()), 50));
        }
        // …plus arbitrary extra edges.
        for (a, b) in extra_edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                topo.add_link(nodes[a], nodes[b],
                    LinkSpec::new(10_000_000, SimDuration::from_millis(*d.next().unwrap()), 50));
            }
        }
        for (i, &node) in nodes.iter().enumerate() {
            topo.add_prefix(fh_net::doc_subnet(i as u16), node);
        }
        topo.compute_routes();
        for &src in &nodes {
            for (i, &dst) in nodes.iter().enumerate() {
                let addr = fh_net::doc_subnet(i as u16).host(1);
                // Follow the forwarding chain.
                let mut cur = src;
                let mut hops = 0;
                loop {
                    match topo.route(cur, addr) {
                        RouteDecision::Local => {
                            prop_assert_eq!(cur, dst);
                            break;
                        }
                        RouteDecision::Forward(link) => {
                            cur = topo.link(link).peer(cur).expect("attached");
                            hops += 1;
                            prop_assert!(hops <= n, "routing loop toward {addr}");
                        }
                        RouteDecision::Unroutable => {
                            return Err(TestCaseError::fail(format!(
                                "unroutable {addr} from {cur}"
                            )));
                        }
                    }
                }
            }
        }
    }

    /// Per-direction link arrivals are strictly increasing (serialization)
    /// and never earlier than send time + tx + propagation.
    #[test]
    fn link_serializes_each_direction(
        sends in prop::collection::vec((0u64..10_000, prop::bool::ANY, 40u32..1500), 1..100)
    ) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let spec = LinkSpec::new(8_000_000, SimDuration::from_millis(2), usize::MAX);
        let mut link = Link::new(a, b, spec);
        let mut sorted = sends.clone();
        sorted.sort_by_key(|&(t, _, _)| t);
        let mut last_arrival = [SimTime::ZERO; 2];
        for (t_us, dir_ab, bytes) in sorted {
            let now = SimTime::from_micros(t_us);
            let from = if dir_ab { a } else { b };
            let arrival = link.try_transmit(now, from, bytes).expect("unbounded queue");
            let dir = usize::from(!dir_ab);
            prop_assert!(arrival > last_arrival[dir], "arrivals must serialize");
            prop_assert!(arrival >= now + spec.tx_time(bytes) + spec.delay);
            last_arrival[dir] = arrival;
        }
    }

    /// Bounded queues never admit more backlog than the limit allows: an
    /// accepted packet's queueing delay is at most (limit+1) service times.
    #[test]
    fn drop_tail_bounds_backlog(
        limit in 0usize..10,
        count in 1usize..100
    ) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let spec = LinkSpec::new(8_000_000, SimDuration::ZERO, limit);
        let mut link = Link::new(a, b, spec);
        let now = SimTime::ZERO;
        let tx = spec.tx_time(1000);
        let mut accepted = 0u64;
        for _ in 0..count {
            if let Ok(arrival) = link.try_transmit(now, a, 1000) {
                accepted += 1;
                prop_assert!(arrival <= now + tx * (limit as u64 + 1) + spec.delay);
            }
        }
        prop_assert!(accepted <= limit as u64 + 1);
    }
}

proptest! {
    /// A packet stuck in a forwarding loop dies after at most
    /// `DEFAULT_HOP_LIMIT` transmissions instead of looping forever.
    #[test]
    fn hop_limit_kills_loops(initial in 2u8..=64) {
        use fh_net::{send_from, DropReason, NetMsg, NetStats, NetWorld, NetCtx};
        use fh_sim::{Actor, Simulator, SimTime};

        struct World {
            topo: Topology,
            stats: NetStats,
        }
        impl NetWorld for World {
            fn topology(&self) -> &Topology { &self.topo }
            fn topology_mut(&mut self) -> &mut Topology { &mut self.topo }
            fn stats(&self) -> &NetStats { &self.stats }
            fn stats_mut(&mut self) -> &mut NetStats { &mut self.stats }
        }
        /// A node that bounces every arriving packet back out (a
        /// deliberately broken router).
        struct Bouncer;
        impl Actor<NetMsg, World> for Bouncer {
            fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
                if let NetMsg::LinkPacket { pkt, .. } = msg {
                    let me = ctx.self_id();
                    let _ = send_from(ctx, me, pkt);
                }
            }
        }
        let mut sim: Simulator<NetMsg, World> = Simulator::new(
            World { topo: Topology::new(), stats: NetStats::new() },
            1,
        );
        let a = sim.add_actor(Box::new(Bouncer));
        let b = sim.add_actor(Box::new(Bouncer));
        sim.shared.topo.register_node(a);
        sim.shared.topo.register_node(b);
        sim.shared.topo.add_link(a, b,
            LinkSpec::new(100_000_000, SimDuration::from_micros(10), 1000));
        // Both nodes route the same (unowned-by-them) prefix toward each
        // other is impossible with prefix routing, so own it at b and let
        // a packet destined *elsewhere* ping-pong: simplest loop — address
        // owned by b, but b also forwards (Bouncer ignores Local handling
        // by re-sending). Instead: dst owned by neither is unroutable; so
        // craft the loop by owning the prefix at b and having b resend.
        sim.shared.topo.add_prefix(fh_net::doc_subnet(7), b);
        sim.shared.topo.compute_routes();
        let mut pkt = fh_net::Packet::data(
            FlowId(1), 0,
            fh_net::doc_subnet(0).host(1),
            fh_net::doc_subnet(7).host(1),
            ServiceClass::BestEffort, 100, SimTime::ZERO,
        );
        pkt.hop_limit = initial;
        sim.schedule(SimTime::ZERO, a, NetMsg::LinkPacket { link: fh_net::LinkId(0), pkt });
        sim.set_event_limit(100_000);
        let events = sim.run();
        prop_assert!(events < 100_000, "the loop must terminate on its own");
        // b treats the packet as Local and re-sends it; a forwards it back.
        // Every a→b trip costs one hop: bounded by the initial hop limit.
        prop_assert!(sim.shared.stats.drops(DropReason::HopLimitExceeded) <= 1);
    }
}
