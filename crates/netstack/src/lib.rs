//! # fh-net — network substrate for the fast-handover reproduction
//!
//! Everything the protocol crates share: IPv6-style addressing
//! ([`Prefix`]), traffic classes ([`ServiceClass`], Table 3.1 of the
//! thesis), packets and tunneling ([`Packet`]), the full signaling
//! vocabulary ([`msg::ControlMsg`]), duplex links with bandwidth /
//! propagation delay / drop-tail queues ([`Link`]), static shortest-path
//! routing ([`Topology`]), and the shared-world contract ([`NetWorld`])
//! with transmission helpers.
//!
//! The crate corresponds to the ns-2 core the original thesis built on:
//! nodes, links, queues, routing, and packet headers.
//!
//! ## Example — two routers exchanging a packet
//!
//! ```
//! use fh_net::{doc_subnet, LinkSpec, NetMsg, NetWorld, NetStats, Topology, Packet,
//!              FlowId, ServiceClass, send_from, NetCtx};
//! use fh_sim::{Actor, SimDuration, SimTime, Simulator};
//!
//! struct World { topo: Topology, stats: NetStats }
//! impl NetWorld for World {
//!     fn topology(&self) -> &Topology { &self.topo }
//!     fn topology_mut(&mut self) -> &mut Topology { &mut self.topo }
//!     fn stats(&self) -> &NetStats { &self.stats }
//!     fn stats_mut(&mut self) -> &mut NetStats { &mut self.stats }
//! }
//!
//! struct Router;
//! impl Actor<NetMsg, World> for Router {
//!     fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
//!         if let NetMsg::LinkPacket { pkt, .. } = msg {
//!             let me = ctx.self_id();
//!             if send_from(ctx, me, pkt).is_some() {
//!                 ctx.shared.stats_mut().delivered += 1;
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(World { topo: Topology::new(), stats: NetStats::new() }, 1);
//! let a = sim.add_actor(Box::new(Router));
//! let b = sim.add_actor(Box::new(Router));
//! sim.shared.topo.register_node(a);
//! sim.shared.topo.register_node(b);
//! sim.shared.topo.add_link(a, b, LinkSpec::new(8_000_000, SimDuration::from_millis(2), 50));
//! sim.shared.topo.add_prefix(doc_subnet(1), b);
//! sim.shared.topo.compute_routes();
//!
//! let pkt = Packet::data(FlowId(1), 0, doc_subnet(0).host(1), doc_subnet(1).host(1),
//!                        ServiceClass::RealTime, 160, SimTime::ZERO);
//! sim.schedule(SimTime::ZERO, a, NetMsg::LinkPacket { link: fh_net::LinkId(0), pkt });
//! sim.run();
//! assert_eq!(sim.shared.stats.delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod addr;
mod class;
pub mod fault;
mod handover;
mod link;
pub mod msg;
mod packet;
mod pool;
mod topology;
pub mod trace;
mod world;

pub use addr::{doc_subnet, Prefix};
pub use class::{ParseClassError, PerHopBehavior, ServiceClass};
pub use fault::{FaultSpec, FaultState, FaultVerdict, GilbertElliott, NodeFaultSpec};
pub use handover::{HandoffPhase, HandoverAttempt, HandoverOutcome};
pub use link::{serialization_time, Link, LinkError, LinkId, LinkSpec};
pub use msg::{ApId, ControlMsg};
pub use packet::{ConnId, FlowId, Packet, Payload, TcpFlags, TcpSegment};
pub use pool::{PacketHandle, PacketPool, PacketSlot};
pub use topology::{NodeId, RouteDecision, Topology};
pub use trace::{render_trace, TraceEvent};
pub use world::{
    record_control, record_drop, record_trace, send_control, send_from, start_timer, transmit_on,
    DropReason, FlowAudit, L2Event, NetCtx, NetMsg, NetStats, NetWorld, TimerKind,
};
