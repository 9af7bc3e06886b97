//! The one world builder.
//!
//! Every world this crate simulates — the Fig 4.1 HMIPv6 access network,
//! the Fig 4.11 WLAN and the chapter-2 roaming across two MAP domains — is
//! a [`WorldSpec`]: anchors, access routers with their APs, mobile hosts
//! and wired links, listed by role. [`build`] is the only code that turns
//! a spec into actors.
//!
//! Actor ids are insertion indices: the correspondent node is actor 0,
//! then the anchors, the routers and the hosts in spec order. Every id is
//! therefore known before the first actor exists, and each actor is built
//! once, complete, with its final id. The same holds for `ApId`s (router
//! by router) and `LinkId`s (spec order, the peer link last), so a spec's
//! ids, routes and event sequence numbers follow from the spec alone.

use fh_core::{ArAgent, MhAgent, ProtocolConfig};
use fh_mip::{MipClient, MobilityAnchor};
use fh_net::{doc_subnet, FaultSpec, LinkId, LinkSpec, NetMsg, NodeFaultSpec, NodeId, Prefix};
use fh_sim::{derive_seed, Actor, ActorId, SimDuration, SimTime, Simulator};
use fh_wireless::{MhRadio, Mobility, Position, RadioConfig, RadioTechnology, WirelessSpec};

use crate::hmip::HmipScenario;
use crate::nodes::{ArNode, CnNode, MapNode, MhNode};
use crate::world::World;

/// Seed salt of the first fault stream. AP `i` draws from
/// `FAULT_SALT + i·2¹⁶`; the peer link's two directions follow the last
/// AP (Fig 4.1: APs `0xFA01…`/`0xFA02…`, PAR→NAR `0xFA03…`, NAR→PAR
/// `0xFA04…`).
const FAULT_SALT: u64 = 0xFA01_0000;

/// A wired-link endpoint, by role and index in its [`WorldSpec`] list.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Role {
    Cn,
    Anchor(usize),
    Router(usize),
}

/// A home agent or MAP. Its address is `prefix.host(1)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AnchorSpec {
    pub(crate) prefix: Prefix,
    /// A Mobile IPv6 home agent rather than an HMIPv6 MAP.
    pub(crate) home_agent: bool,
}

/// An access point of a router.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ApSpec {
    pub(crate) pos: Position,
    pub(crate) radius: f64,
    pub(crate) tech: RadioTechnology,
}

/// A fast-handover access router. Its address is `prefix.host(1)`.
#[derive(Debug, Clone)]
pub(crate) struct RouterSpec {
    pub(crate) prefix: Prefix,
    /// The MAP whose domain this router belongs to; `None` in a flat
    /// network, where the router is its own regional anchor.
    pub(crate) anchor: Option<usize>,
    pub(crate) aps: Vec<ApSpec>,
    pub(crate) fault: NodeFaultSpec,
}

/// A mobile host.
#[derive(Debug, Clone)]
pub(crate) struct HostSpec {
    pub(crate) iid: u64,
    pub(crate) mobility: Mobility,
    pub(crate) radio: RadioConfig,
    /// The anchor holding the host's home address; `None` makes the
    /// host's regional address in its start domain the home address.
    pub(crate) home: Option<usize>,
    /// The router the host starts attached to, through its first AP.
    pub(crate) start: usize,
    pub(crate) fault: NodeFaultSpec,
    /// Send the correspondent binding updates (route optimization).
    pub(crate) route_optimization: bool,
}

/// A whole world, by role.
#[derive(Debug, Clone)]
pub(crate) struct WorldSpec {
    /// The WLAN channel.
    pub(crate) wireless: WirelessSpec,
    /// The cellular channel, when not the technology default.
    pub(crate) cellular: Option<WirelessSpec>,
    pub(crate) seed: u64,
    pub(crate) protocol: ProtocolConfig,
    /// Handover buffer capacity per router, in packets.
    pub(crate) buffer_capacity: usize,
    pub(crate) anchors: Vec<AnchorSpec>,
    pub(crate) routers: Vec<RouterSpec>,
    pub(crate) hosts: Vec<HostSpec>,
    pub(crate) links: Vec<(Role, Role, LinkSpec)>,
    /// The direct link between routers 0 and 1 that carries the FMIPv6
    /// tunnel whatever shortest-path routing says.
    pub(crate) peer_link: Option<LinkSpec>,
    /// Fault model of every AP's air interface.
    pub(crate) wireless_fault: FaultSpec,
    /// Fault model of both directions of the peer link.
    pub(crate) peer_link_fault: FaultSpec,
}

/// Builds `spec`'s world: every actor, AP, prefix, link and route, with
/// a `Start` for each actor at time zero.
pub(crate) fn build(spec: WorldSpec) -> HmipScenario {
    let (anchors, routers) = (&spec.anchors, &spec.routers);
    let mut sim = Simulator::new(World::new(spec.wireless), spec.seed);
    if let Some(cellular) = spec.cellular {
        sim.shared.radio.set_cellular_spec(cellular);
    }
    let cn = ActorId::from_index(0);
    let anchor_id = |i: usize| ActorId::from_index(1 + i);
    let router_id = |r: usize| anchor_id(anchors.len() + r);
    let host_id = |h: usize| router_id(routers.len() + h);
    let (cn_prefix, cn_addr) = (doc_subnet(0), doc_subnet(0).host(1));
    // Regional addresses under router `r` come from its MAP's prefix, or
    // from its own in a flat network.
    let regional = |r: usize| {
        let router: &RouterSpec = &routers[r];
        router.anchor.map_or(router.prefix, |a| anchors[a].prefix)
    };

    // APs, router by router: router `r` owns `aps[first_ap[r]..first_ap[r + 1]]`.
    let mut aps = Vec::new();
    let mut first_ap = vec![0];
    for (r, router) in routers.iter().enumerate() {
        for ap in &router.aps {
            let radio = &mut sim.shared.radio;
            aps.push(radio.add_ap_tech(router_id(r), ap.pos, ap.radius, ap.tech));
        }
        first_ap.push(aps.len());
    }
    let peer = spec.peer_link.map(|link| (LinkId(spec.links.len()), link));

    let cn_node = CnNode::new(cn, cn_addr);
    add(&mut sim, cn, Some(cn_prefix), cn_node);
    for (i, a) in anchors.iter().enumerate() {
        let (id, addr) = (anchor_id(i), a.prefix.host(1));
        let anchor = if a.home_agent {
            MobilityAnchor::home_agent(id, addr, a.prefix)
        } else {
            MobilityAnchor::map(id, addr, a.prefix)
        };
        add(&mut sim, id, Some(a.prefix), MapNode { anchor });
    }
    for (r, router) in routers.iter().enumerate() {
        let mut agent = ArAgent::new(
            router_id(r),
            router.prefix.host(1),
            router.prefix,
            aps[first_ap[r]..first_ap[r + 1]].to_vec(),
            regional(r).host(1),
            spec.protocol,
            spec.buffer_capacity,
        );
        for (o, other) in routers.iter().enumerate().filter(|&(o, _)| o != r) {
            for &ap in &aps[first_ap[o]..first_ap[o + 1]] {
                agent.learn_ap(ap, other.prefix.host(1));
            }
        }
        agent.node_fault = router.fault;
        // Routers 0 and 1 tunnel to each other over the peer link.
        if let Some((link, _)) = peer.filter(|_| r < 2) {
            agent.learn_peer_link(routers[1 - r].prefix.host(1), link);
        }
        let prefix = Some(router.prefix);
        add(&mut sim, router_id(r), prefix, ArNode { agent });
    }
    let mut mhs = Vec::with_capacity(spec.hosts.len());
    let mut mh_addrs = Vec::with_capacity(spec.hosts.len());
    for (h, host) in spec.hosts.into_iter().enumerate() {
        let (id, iid) = (host_id(h), host.iid);
        let start = &routers[host.start];
        let domain = regional(host.start);
        let home = host.home.map_or(domain, |a| anchors[a].prefix);
        let mut agent = MhAgent::new(
            id,
            MhRadio::new(id, host.mobility, host.radio),
            MipClient::new(home.host(iid), home.host(1), SimDuration::from_secs(600)),
            spec.protocol,
            iid,
        );
        agent.mip.enter_map_domain(domain.host(1), domain.host(iid));
        agent.node_fault = host.fault;
        let ap = aps[first_ap[host.start]];
        agent.configure_initial(ap, start.prefix.host(1), start.prefix);
        if host.route_optimization {
            agent.mip.add_correspondent(cn_addr);
        }
        add(&mut sim, id, None, MhNode::new(agent));
        mhs.push(id);
        mh_addrs.push(home.host(iid));
    }

    let topo = &mut sim.shared.topo;
    let node = |role| match role {
        Role::Cn => cn,
        Role::Anchor(i) => anchor_id(i),
        Role::Router(r) => router_id(r),
    };
    for &(a, b, link) in &spec.links {
        topo.add_link(node(a), node(b), link);
    }
    if let Some((id, link)) = peer {
        let added = topo.add_link(router_id(0), router_id(1), link);
        debug_assert_eq!(added, id, "link ids are insertion indices");
    }
    topo.compute_routes();

    // Every fault stream draws from its own seed derived from the world's,
    // so runs are reproducible and independent of thread count.
    let fault_seed = |stream: usize| derive_seed(spec.seed, FAULT_SALT + ((stream as u64) << 16));
    if !spec.wireless_fault.is_noop() {
        for (i, &ap) in aps.iter().enumerate() {
            let radio = &mut sim.shared.radio;
            radio.set_fault(ap, spec.wireless_fault, fault_seed(i));
        }
    }
    if let Some((id, _)) = peer.filter(|_| !spec.peer_link_fault.is_noop()) {
        let link = sim.shared.topo.link_mut(id);
        for r in 0..2 {
            link.set_fault(
                router_id(r),
                spec.peer_link_fault,
                fault_seed(aps.len() + r),
            );
        }
    }

    // One `Start` per actor, in id order; the next free id is the count.
    for i in 0..host_id(mhs.len()).index() {
        sim.schedule(SimTime::ZERO, ActorId::from_index(i), NetMsg::Start);
    }
    HmipScenario {
        sim,
        cn,
        anchors: (0..anchors.len()).map(anchor_id).collect(),
        routers: (0..routers.len()).map(router_id).collect(),
        aps,
        mhs,
        mh_addrs,
        flows: Vec::new(),
        next_flow: 1,
    }
}

/// Registers `actor` as node `id`, the owner of `prefix` if any. The
/// caller computed `id` in advance.
fn add(
    sim: &mut Simulator<NetMsg, World>,
    id: NodeId,
    prefix: Option<Prefix>,
    actor: impl Actor<NetMsg, World> + 'static,
) {
    let added = sim.add_actor(Box::new(actor));
    debug_assert_eq!(added, id, "actor ids are insertion indices");
    sim.shared.topo.register_node(id);
    if let Some(prefix) = prefix {
        sim.shared.topo.add_prefix(prefix, id);
    }
}

impl ApSpec {
    /// A WLAN cell centred at `(x, 0)`.
    pub(crate) fn wlan(x: f64, radius: f64) -> Self {
        let (pos, tech) = (Position::new(x, 0.0), RadioTechnology::Wlan);
        ApSpec { pos, radius, tech }
    }
}

impl RouterSpec {
    /// A fault-free router in `anchor`'s domain.
    pub(crate) fn new(prefix: Prefix, anchor: Option<usize>, aps: Vec<ApSpec>) -> Self {
        let fault = NodeFaultSpec::default();
        RouterSpec {
            prefix,
            anchor,
            aps,
            fault,
        }
    }
}

impl HostSpec {
    /// A fault-free host starting under router 0, its home address in
    /// that router's domain.
    pub(crate) fn new(iid: u64, mobility: Mobility, radio: RadioConfig) -> Self {
        HostSpec {
            iid,
            mobility,
            radio,
            home: None,
            start: 0,
            fault: NodeFaultSpec::default(),
            route_optimization: false,
        }
    }
}
