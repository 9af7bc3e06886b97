//! Network topology: nodes, links, prefix ownership and static routing.
//!
//! The topology lives in the simulation's shared state. Nodes are the same
//! ids as simulator actors; each node may own any number of IPv6 prefixes
//! (its subnets / interface addresses). Routing is static shortest-path
//! (Dijkstra over propagation delay, hop count as tie-break), recomputed
//! once after topology construction — the reproduction's networks are fixed
//! while mobile hosts move at the *radio* layer.
//!
//! # Examples
//!
//! ```
//! use fh_net::{LinkSpec, Topology, RouteDecision, doc_subnet};
//! use fh_sim::SimDuration;
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node("a");
//! let b = topo.add_node("b");
//! let c = topo.add_node("c");
//! let spec = LinkSpec::new(100_000_000, SimDuration::from_millis(1), 50);
//! topo.add_link(a, b, spec);
//! let bc = topo.add_link(b, c, spec);
//! topo.add_prefix(doc_subnet(3), c);
//! topo.compute_routes();
//!
//! let dst = doc_subnet(3).host(1);
//! assert_eq!(topo.route(b, dst), RouteDecision::Forward(bc));
//! assert_eq!(topo.route(c, dst), RouteDecision::Local);
//! ```

use std::collections::BinaryHeap;
use std::net::Ipv6Addr;

use fh_sim::ActorId;

use crate::addr::Prefix;
use crate::link::{Link, LinkId, LinkSpec};

/// A node in the simulated network (the same id as its simulator actor).
pub type NodeId = ActorId;

/// Outcome of a routing lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// The destination address belongs to the querying node itself.
    Local,
    /// Forward on this link.
    Forward(LinkId),
    /// No route: the address is not owned by any reachable node.
    Unroutable,
}

#[derive(Debug, Clone, Default)]
struct NodeEntry {
    links: Vec<LinkId>,
    registered: bool,
}

/// The static network graph plus prefix ownership and forwarding tables.
#[derive(Debug, Default)]
pub struct Topology {
    nodes: Vec<NodeEntry>,
    links: Vec<Link>,
    prefixes: Vec<(Prefix, NodeId)>,
    /// `fwd[src][dst]` = outgoing link on the shortest path, `None` if
    /// unreachable or `src == dst`.
    fwd: Vec<Vec<Option<LinkId>>>,
    routes_fresh: bool,
    /// An ActorId registry used only when the topology itself allocates
    /// ids (`add_node`); scenario code normally registers simulator ids.
    next_synthetic: usize,
}

impl Topology {
    /// Creates an empty topology.
    #[must_use]
    pub fn new() -> Self {
        Topology::default()
    }

    fn ensure(&mut self, idx: usize) {
        if self.nodes.len() <= idx {
            self.nodes.resize(idx + 1, NodeEntry::default());
        }
    }

    /// Registers a simulator actor as a network node.
    pub fn register_node(&mut self, id: NodeId) {
        let idx = id.index();
        self.ensure(idx);
        self.nodes[idx].registered = true;
        self.next_synthetic = self.next_synthetic.max(idx + 1);
        self.routes_fresh = false;
    }

    /// Allocates and registers a synthetic node id (useful in unit tests
    /// that do not run a simulator). Real scenarios should pass actor ids
    /// to [`Topology::register_node`] instead. `_label` only names the
    /// node where it is created: the topology stores no names.
    pub fn add_node(&mut self, _label: impl AsRef<str>) -> NodeId {
        let id = ActorId::from_index(self.next_synthetic);
        self.register_node(id);
        id
    }

    /// `true` if `id` has been registered.
    #[must_use]
    pub fn is_registered(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| n.registered)
    }

    /// Number of registered nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.registered).count()
    }

    /// Connects two registered nodes with a duplex link.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unregistered or the endpoints are equal.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        assert!(a != b, "self-links are not allowed");
        assert!(
            self.is_registered(a) && self.is_registered(b),
            "both endpoints must be registered"
        );
        let id = LinkId(self.links.len());
        self.links.push(Link::new(a, b, spec));
        self.nodes[a.index()].links.push(id);
        self.nodes[b.index()].links.push(id);
        self.routes_fresh = false;
        id
    }

    /// Declares that `owner` owns (terminates) `prefix`.
    ///
    /// More-specific prefixes win lookups (longest prefix match).
    pub fn add_prefix(&mut self, prefix: Prefix, owner: NodeId) {
        assert!(self.is_registered(owner), "owner must be registered");
        self.prefixes.push((prefix, owner));
    }

    /// Immutable link access.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    #[must_use]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Mutable link access (transmission mutates queue state).
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    #[must_use]
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0]
    }

    /// All links, in creation order.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The node owning `addr` under longest-prefix match.
    #[must_use]
    #[inline]
    pub fn owner_of(&self, addr: Ipv6Addr) -> Option<NodeId> {
        self.prefixes
            .iter()
            .filter(|(p, _)| p.contains(addr))
            .max_by_key(|(p, _)| p.len())
            .map(|&(_, owner)| owner)
    }

    /// (Re)computes all shortest-path forwarding tables. Must be called
    /// after the last `add_link` and before the first `route` query.
    pub fn compute_routes(&mut self) {
        let n = self.nodes.len();
        self.fwd = vec![vec![None; n]; n];
        for src in 0..n {
            if !self.nodes[src].registered {
                continue;
            }
            self.dijkstra_from(src);
        }
        self.routes_fresh = true;
    }

    fn dijkstra_from(&mut self, src: usize) {
        let n = self.nodes.len();
        // (cost_ns, hops) lexicographic.
        let mut best = vec![(u64::MAX, u32::MAX); n];
        let mut first_link: Vec<Option<LinkId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        best[src] = (0, 0);
        heap.push(std::cmp::Reverse((0u64, 0u32, src, None::<LinkId>)));
        while let Some(std::cmp::Reverse((cost, hops, node, via))) = heap.pop() {
            if (cost, hops) > best[node] {
                continue;
            }
            if let Some(l) = via {
                if first_link[node].is_none() {
                    first_link[node] = Some(l);
                }
            }
            for &lid in &self.nodes[node].links.clone() {
                let link = &self.links[lid.0];
                let Some(peer) = link.peer(ActorId::from_index(node)) else {
                    continue;
                };
                let peer = peer.index();
                let ncost = cost + link.spec.delay.as_nanos() + 1; // +1 biases toward fewer hops
                let nhops = hops + 1;
                if (ncost, nhops) < best[peer] {
                    best[peer] = (ncost, nhops);
                    let via0 = if node == src { Some(lid) } else { via };
                    first_link[peer] = via0;
                    heap.push(std::cmp::Reverse((ncost, nhops, peer, via0)));
                }
            }
        }
        for (dst, link) in first_link.iter().enumerate() {
            self.fwd[src][dst] = if dst == src { None } else { *link };
        }
    }

    /// Next-hop link from `from` toward node `to` (`None` if unreachable or
    /// identical).
    ///
    /// # Panics
    ///
    /// Panics if routes have not been computed since the last topology
    /// change.
    #[must_use]
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        assert!(
            self.routes_fresh,
            "call compute_routes() after building the topology"
        );
        self.fwd
            .get(from.index())
            .and_then(|row| row.get(to.index()))
            .copied()
            .flatten()
    }

    /// Full routing lookup: where should `from` send a packet for `dst`?
    ///
    /// # Panics
    ///
    /// Panics if routes have not been computed since the last topology
    /// change.
    #[must_use]
    #[inline]
    pub fn route(&self, from: NodeId, dst: Ipv6Addr) -> RouteDecision {
        let Some(owner) = self.owner_of(dst) else {
            return RouteDecision::Unroutable;
        };
        if owner == from {
            return RouteDecision::Local;
        }
        match self.next_hop(from, owner) {
            Some(l) => RouteDecision::Forward(l),
            None => RouteDecision::Unroutable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::doc_subnet;
    use fh_sim::SimDuration;

    fn spec_ms(ms: u64) -> LinkSpec {
        LinkSpec::new(100_000_000, SimDuration::from_millis(ms), 50)
    }

    /// CN — R — MAP — PAR/NAR style diamond:
    ///
    /// ```text
    ///        a
    ///       / \
    ///      b   c
    ///       \ /
    ///        d
    /// ```
    fn diamond() -> (Topology, [NodeId; 4], [LinkId; 4]) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let d = t.add_node("d");
        let ab = t.add_link(a, b, spec_ms(1));
        let ac = t.add_link(a, c, spec_ms(5));
        let bd = t.add_link(b, d, spec_ms(1));
        let cd = t.add_link(c, d, spec_ms(1));
        t.add_prefix(doc_subnet(4), d);
        t.compute_routes();
        (t, [a, b, c, d], [ab, ac, bd, cd])
    }

    #[test]
    fn shortest_path_prefers_low_delay() {
        let (t, [a, _, _, d], [ab, _, bd, _]) = diamond();
        assert_eq!(t.next_hop(a, d), Some(ab));
        assert_eq!(t.next_hop(d, a), Some(bd));
    }

    #[test]
    fn route_decisions() {
        let (t, [a, _, _, d], [ab, ..]) = diamond();
        let dst = doc_subnet(4).host(7);
        assert_eq!(t.route(a, dst), RouteDecision::Forward(ab));
        assert_eq!(t.route(d, dst), RouteDecision::Local);
        assert_eq!(
            t.route(a, "fd00::1".parse().unwrap()),
            RouteDecision::Unroutable
        );
    }

    #[test]
    fn longest_prefix_match_wins() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_link(a, b, spec_ms(1));
        t.add_link(a, c, spec_ms(1));
        t.add_prefix(Prefix::new("2001:db8::".parse().unwrap(), 32), b);
        t.add_prefix(Prefix::new("2001:db8:5::".parse().unwrap(), 48), c);
        t.compute_routes();
        let generic = "2001:db8:4::1".parse().unwrap();
        let specific = "2001:db8:5::1".parse().unwrap();
        assert_eq!(t.owner_of(generic), Some(b));
        assert_eq!(t.owner_of(specific), Some(c));
    }

    #[test]
    fn disconnected_nodes_are_unroutable() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let island = t.add_node("island");
        t.add_link(a, b, spec_ms(1));
        t.add_prefix(doc_subnet(9), island);
        t.compute_routes();
        assert_eq!(t.route(a, doc_subnet(9).host(1)), RouteDecision::Unroutable);
        assert_eq!(t.next_hop(a, island), None);
    }

    #[test]
    fn next_hop_to_self_is_none() {
        let (t, [a, ..], _) = diamond();
        assert_eq!(t.next_hop(a, a), None);
    }

    #[test]
    #[should_panic(expected = "compute_routes")]
    fn stale_routes_panic() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(a, b, spec_ms(1));
        let _ = t.next_hop(a, b); // routes never computed
    }

    #[test]
    #[should_panic(expected = "registered")]
    fn link_to_unregistered_panics() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let ghost = ActorId::from_index(40);
        t.add_link(a, ghost, spec_ms(1));
    }

    #[test]
    fn names_and_counts() {
        let (t, [a, ..], _) = diamond();
        assert!(t.is_registered(a));
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.links().len(), 4);
    }

    #[test]
    fn multi_hop_chain_routes_end_to_end() {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..6).map(|i| t.add_node(format!("n{i}"))).collect();
        let links: Vec<LinkId> = nodes
            .windows(2)
            .map(|w| t.add_link(w[0], w[1], spec_ms(2)))
            .collect();
        t.add_prefix(doc_subnet(42), nodes[5]);
        t.compute_routes();
        let dst = doc_subnet(42).host(1);
        // Every hop forwards on the next chain link.
        for i in 0..5 {
            assert_eq!(t.route(nodes[i], dst), RouteDecision::Forward(links[i]));
        }
        assert_eq!(t.route(nodes[5], dst), RouteDecision::Local);
    }
}
