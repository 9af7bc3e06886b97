//! The Fig 4.1 scenario: a hierarchical Mobile IPv6 access network.
//!
//! ```text
//!                 CN
//!                  |
//!                 MAP          (HMIPv6 anchor, RCoA prefix)
//!                /   \
//!             PAR --- NAR      (fast-handover access routers)
//!              |       |
//!            (AP0)   (AP1)     x = 0 m      x = 212 m, radius 112 m
//!                 MH(s) →      10 m/s
//! ```
//!
//! Parameters follow §4.1 of the thesis: 212 m AP separation, 112 m
//! coverage (12 m overlap), 1 s router advertisements, 200 ms link-layer
//! black-out, 10 m/s hosts. Everything else (link speeds, buffer sizes,
//! the PAR↔NAR delay that Figs 4.9/4.10 sweep) is configurable.

use std::net::Ipv6Addr;

use fh_sim::{derive_seed, SimDuration, SimTime, Simulator};

use fh_core::{ArAgent, ArSoftState, MhAgent, ProtocolConfig};
use fh_mip::{MipClient, MobilityAnchor};
use fh_net::{
    doc_subnet, ApId, FaultSpec, FlowId, HandoverOutcome, LinkSpec, NetMsg, NodeFaultSpec, NodeId,
    ServiceClass, TraceEvent,
};
use fh_telemetry::{ChromeTrace, Span, SpanStore};
use fh_traffic::{CbrSource, UdpSink};
use fh_wireless::{
    MhRadio, Mobility, Position, RadioConfig, RadioTechnology, TriggerMode, WirelessSpec,
};

use crate::nodes::{ArNode, CnNode, MapNode, MhNode};
use crate::world::World;

/// One run's telemetry, detached from its world by
/// [`HmipScenario::take_recording`].
#[derive(Debug)]
pub(crate) struct Recording {
    spans: SpanStore,
    events: Vec<(SimTime, TraceEvent)>,
    /// The sim time open spans render up to.
    end: SimTime,
}

impl Recording {
    /// Renders the run exactly as [`HmipScenario::chrome_trace_into`]
    /// would have.
    pub(crate) fn chrome_trace_into(&self, trace: &mut ChromeTrace, pid: u64) {
        export_run(trace, pid, self.spans.spans(), &self.events, self.end);
    }
}

/// Spans in begin order (open ones closed at `end`), then recorded
/// events in ring order, all under `pid`.
fn export_run<'a>(
    trace: &mut ChromeTrace,
    pid: u64,
    spans: &[Span],
    events: impl IntoIterator<Item = &'a (SimTime, TraceEvent)>,
    end: SimTime,
) {
    for span in spans {
        trace.add_span(pid, span, end);
    }
    for (t, event) in events {
        trace.add_instant(pid, *t, event);
    }
}

/// How the mobile hosts move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MovementPlan {
    /// One PAR→NAR crossing: start near the PAR, park under the NAR.
    OneWay,
    /// Shuttle between the two cells forever (repeated handovers).
    PingPong,
    /// Stay parked under the PAR (no handover; control runs).
    Parked,
    /// Hosts cross in opposite directions: even-indexed hosts walk
    /// PAR→NAR, odd-indexed hosts walk NAR→PAR at the same time, so each
    /// router plays both roles simultaneously.
    Crossing,
}

impl MovementPlan {
    /// Every pattern, in the order scenario plans list them.
    pub const ALL: [MovementPlan; 4] = [
        MovementPlan::OneWay,
        MovementPlan::PingPong,
        MovementPlan::Parked,
        MovementPlan::Crossing,
    ];

    /// The name the scenario-plan `movement` key uses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MovementPlan::OneWay => "one-way",
            MovementPlan::PingPong => "ping-pong",
            MovementPlan::Parked => "parked",
            MovementPlan::Crossing => "crossing",
        }
    }
}

/// Configuration of the Fig 4.1 scenario.
#[derive(Debug, Clone, Copy)]
pub struct HmipConfig {
    /// Protocol parameters (scheme, buffer request, threshold `a`, …).
    pub protocol: ProtocolConfig,
    /// Number of mobile hosts.
    pub n_mhs: usize,
    /// Handover buffer capacity per access router, in packets.
    pub buffer_capacity: usize,
    /// PAR↔NAR link propagation delay (2 ms default; Fig 4.10 uses 50 ms).
    pub ar_link_delay: SimDuration,
    /// Wireless channel parameters.
    pub wireless: WirelessSpec,
    /// L2 black-out duration (200 ms in the thesis).
    pub l2_handoff_delay: SimDuration,
    /// Host movement pattern.
    pub movement: MovementPlan,
    /// Host speed in m/s.
    pub speed: f64,
    /// RNG seed for the run.
    pub seed: u64,
    /// Fault injection on the PAR↔NAR wired link, applied to both
    /// directions (control-plane chaos: HI/HAck/BF and tunneled data all
    /// ride this link). No-op by default.
    pub ar_link_fault: FaultSpec,
    /// Fault injection on both wireless cells (applies to every uplink and
    /// downlink transmission in the cell). No-op by default.
    pub wireless_fault: FaultSpec,
    /// Scheduled crash/restart fault on the PAR. No-op by default.
    pub par_fault: NodeFaultSpec,
    /// Scheduled crash/restart fault on the NAR. No-op by default.
    pub nar_fault: NodeFaultSpec,
    /// Scheduled power-loss fault on mobile host 0. No-op by default.
    pub mh_fault: NodeFaultSpec,
    /// Handover-storm stagger: host `i` starts its one-way walk
    /// `i × storm_stagger` later (implemented as a start-position offset,
    /// clamped to stay inside PAR coverage), so N hosts hand over spread
    /// across a window instead of in lock-step. Zero (the default) keeps
    /// every host on the classic synchronized walk.
    pub storm_stagger: SimDuration,
    /// Vertical-handover overlay: when `Some`, the NAR's AP becomes a
    /// wide-area cellular sector (own channel spec and coverage radius)
    /// instead of the second WLAN cell, so the walk crosses technologies.
    /// `None` (the default) keeps the thesis' WLAN→WLAN topology.
    pub cellular: Option<CellularConfig>,
    /// Radio interfaces per host: 1 (the default, single card — handover
    /// goes through a black-out) or 2 (multi-homed; cross-technology
    /// handovers run make-before-break on the second interface).
    pub interfaces: u8,
    /// L2 trigger source: [`TriggerMode::Legacy`] geometry/hysteresis
    /// (the default) or [`TriggerMode::Mih`] 802.21-style link events.
    pub trigger: TriggerMode,
}

/// Wide-area overlay cell for vertical-handover scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellularConfig {
    /// Channel parameters of the cellular sector (defaults to the
    /// [`RadioTechnology::Cellular`] spec: 2 Mb/s, 40 ms).
    pub spec: WirelessSpec,
    /// Coverage radius in meters (defaults to 1500 m, blanketing the
    /// whole walk so the wide-area link is always available).
    pub radius: f64,
}

impl Default for CellularConfig {
    fn default() -> Self {
        CellularConfig {
            spec: RadioTechnology::Cellular.default_spec(),
            radius: RadioTechnology::Cellular.default_radius_m(),
        }
    }
}

impl Default for HmipConfig {
    fn default() -> Self {
        HmipConfig {
            protocol: ProtocolConfig::proposed(),
            n_mhs: 1,
            buffer_capacity: 20,
            ar_link_delay: SimDuration::from_millis(2),
            wireless: WirelessSpec {
                bandwidth_bps: 2_000_000,
                delay: SimDuration::from_millis(1),
            },
            l2_handoff_delay: SimDuration::from_millis(200),
            movement: MovementPlan::OneWay,
            speed: 10.0,
            seed: 42,
            ar_link_fault: FaultSpec::default(),
            wireless_fault: FaultSpec::default(),
            par_fault: NodeFaultSpec::default(),
            nar_fault: NodeFaultSpec::default(),
            mh_fault: NodeFaultSpec::default(),
            storm_stagger: SimDuration::ZERO,
            cellular: None,
            interfaces: 1,
            trigger: TriggerMode::Legacy,
        }
    }
}

/// Geometry constants of the thesis topology (§4.1).
pub mod geometry {
    /// Distance between the two access points, in meters.
    pub const AP_SEPARATION: f64 = 212.0;
    /// Coverage radius of each access point, in meters.
    pub const COVERAGE_RADIUS: f64 = 112.0;
    /// One-way walk start (inside PAR coverage, short lead-in).
    pub const WALK_START: f64 = 88.0;
    /// Ping-pong turnaround points.
    pub const PP_LEFT: f64 = 60.0;
    /// Right ping-pong turnaround (well inside NAR coverage).
    pub const PP_RIGHT: f64 = 152.0;
}

/// A flow registered in the scenario.
#[derive(Debug, Clone, Copy)]
struct FlowEntry {
    flow: FlowId,
    cbr_index: usize,
    mh_index: usize,
    sink_index: usize,
}

/// The built Fig 4.1 scenario.
pub struct HmipScenario {
    /// The simulator, ready to run.
    pub sim: Simulator<NetMsg, World>,
    /// Correspondent node.
    pub cn: NodeId,
    /// The MAP router.
    pub map: NodeId,
    /// Previous access router (hosts start here).
    pub par: NodeId,
    /// New access router.
    pub nar: NodeId,
    /// Mobile host nodes.
    pub mhs: Vec<NodeId>,
    /// Each host's regional care-of address (traffic destination).
    pub rcoas: Vec<Ipv6Addr>,
    /// The PAR's address.
    pub par_addr: Ipv6Addr,
    /// The NAR's address.
    pub nar_addr: Ipv6Addr,
    /// The MAP's address.
    pub map_addr: Ipv6Addr,
    /// The PAR-side AP.
    pub par_ap: ApId,
    /// The NAR-side AP.
    pub nar_ap: ApId,
    flows: Vec<FlowEntry>,
    next_flow: u32,
}

impl HmipScenario {
    /// Builds the scenario.
    #[must_use]
    pub fn build(cfg: HmipConfig) -> Self {
        let mut sim: Simulator<NetMsg, World> = Simulator::new(World::new(cfg.wireless), cfg.seed);

        // Prefixes and addresses.
        let cn_prefix = doc_subnet(0);
        let par_prefix = doc_subnet(1);
        let nar_prefix = doc_subnet(2);
        let map_prefix = doc_subnet(10);
        let cn_addr = cn_prefix.host(1);
        let par_addr = par_prefix.host(1);
        let nar_addr = nar_prefix.host(1);
        let map_addr = map_prefix.host(1);

        // Actors.
        let cn = sim.add_actor(Box::new(CnNode::new(
            // placeholder id, patched right below (actor ids are assigned
            // by the simulator at insertion).
            fh_net::Topology::new().add_node("tmp"),
        )));
        sim.actor_mut::<CnNode>(cn).expect("cn").node = cn;

        let map_anchor_node = sim.add_actor(Box::new(MapNode {
            anchor: MobilityAnchor::map(
                fh_net::Topology::new().add_node("tmp"),
                map_addr,
                map_prefix,
            ),
        }));
        sim.actor_mut::<MapNode>(map_anchor_node)
            .expect("map")
            .anchor
            .node = map_anchor_node;

        // Radio environment first (AP ids needed by the AR agents).
        let par_node = sim.add_actor(Box::new(ArNode {
            agent: ArAgent::new(
                fh_net::Topology::new().add_node("tmp"),
                par_addr,
                par_prefix,
                Vec::new(),
                map_addr,
                cfg.protocol,
                cfg.buffer_capacity,
            ),
        }));
        let nar_node = sim.add_actor(Box::new(ArNode {
            agent: ArAgent::new(
                fh_net::Topology::new().add_node("tmp"),
                nar_addr,
                nar_prefix,
                Vec::new(),
                map_addr,
                cfg.protocol,
                cfg.buffer_capacity,
            ),
        }));
        let par_ap =
            sim.shared
                .radio
                .add_ap(par_node, Position::new(0.0, 0.0), geometry::COVERAGE_RADIUS);
        let nar_ap = match cfg.cellular {
            Some(cell) => {
                sim.shared.radio.set_cellular_spec(cell.spec);
                sim.shared.radio.add_ap_tech(
                    nar_node,
                    Position::new(geometry::AP_SEPARATION, 0.0),
                    cell.radius,
                    RadioTechnology::Cellular,
                )
            }
            None => sim.shared.radio.add_ap(
                nar_node,
                Position::new(geometry::AP_SEPARATION, 0.0),
                geometry::COVERAGE_RADIUS,
            ),
        };
        {
            let par_agent = &mut sim.actor_mut::<ArNode>(par_node).expect("par").agent;
            par_agent.set_node(par_node);
            par_agent.set_aps(vec![par_ap]);
            par_agent.learn_ap(nar_ap, nar_addr);
            par_agent.node_fault = cfg.par_fault;
        }
        {
            let nar_agent = &mut sim.actor_mut::<ArNode>(nar_node).expect("nar").agent;
            nar_agent.set_node(nar_node);
            nar_agent.set_aps(vec![nar_ap]);
            nar_agent.learn_ap(par_ap, par_addr);
            nar_agent.node_fault = cfg.nar_fault;
        }

        // Mobile hosts.
        let mut mhs = Vec::new();
        let mut rcoas = Vec::new();
        for i in 0..cfg.n_mhs {
            let iid = 0x100 + i as u64;
            let rcoa = map_prefix.host(iid);
            let eastbound = i % 2 == 0;
            // Storm stagger: push host i's start back along the walk so it
            // reaches the cell edge i × storm_stagger later. The offset is
            // clamped to keep the start inside PAR coverage (and outside
            // the NAR's), so very large storms saturate the window instead
            // of spawning hosts out of range.
            let stagger_x = (cfg.speed * cfg.storm_stagger.as_secs_f64() * i as f64)
                .min(geometry::WALK_START + geometry::COVERAGE_RADIUS - 22.0);
            let mobility = match cfg.movement {
                MovementPlan::OneWay => Mobility::linear(
                    Position::new(geometry::WALK_START - stagger_x, 0.0),
                    Position::new(geometry::AP_SEPARATION, 0.0),
                    cfg.speed,
                ),
                MovementPlan::PingPong => Mobility::ping_pong(
                    Position::new(geometry::PP_LEFT, 0.0),
                    Position::new(geometry::PP_RIGHT, 0.0),
                    cfg.speed,
                ),
                MovementPlan::Parked => Mobility::Stationary(Position::new(0.0, 0.0)),
                MovementPlan::Crossing => {
                    if eastbound {
                        Mobility::linear(
                            Position::new(geometry::WALK_START, 0.0),
                            Position::new(geometry::AP_SEPARATION, 0.0),
                            cfg.speed,
                        )
                    } else {
                        // The mirror walk, starting under the NAR.
                        Mobility::linear(
                            Position::new(geometry::AP_SEPARATION - geometry::WALK_START, 0.0),
                            Position::new(0.0, 0.0),
                            cfg.speed,
                        )
                    }
                }
            };
            let mh_node = sim.add_actor(Box::new(MhNode::new(MhAgent::new(
                fh_net::Topology::new().add_node("tmp"),
                MhRadio::new(
                    fh_net::Topology::new().add_node("tmp"),
                    mobility.clone(),
                    RadioConfig {
                        l2_handoff_delay: cfg.l2_handoff_delay,
                        trigger: cfg.trigger,
                        multi_iface: cfg.interfaces > 1,
                        ..RadioConfig::default()
                    },
                ),
                MipClient::new(rcoa, map_addr, SimDuration::from_secs(600)),
                cfg.protocol,
                iid,
            ))));
            {
                let node = &mut sim.actor_mut::<MhNode>(mh_node).expect("mh").agent;
                node.node = mh_node;
                node.radio = MhRadio::new(
                    mh_node,
                    mobility,
                    RadioConfig {
                        l2_handoff_delay: cfg.l2_handoff_delay,
                        trigger: cfg.trigger,
                        multi_iface: cfg.interfaces > 1,
                        ..RadioConfig::default()
                    },
                );
                node.mip.enter_map_domain(map_addr, rcoa);
                if i == 0 {
                    node.node_fault = cfg.mh_fault;
                }
                if cfg.movement == MovementPlan::Crossing && i % 2 == 1 {
                    // Westbound hosts start under the NAR.
                    node.configure_initial(nar_ap, nar_addr, nar_prefix);
                } else {
                    node.configure_initial(par_ap, par_addr, par_prefix);
                }
            }
            mhs.push(mh_node);
            rcoas.push(rcoa);
        }

        // Wired topology.
        let inter_ar_link;
        {
            let topo = &mut sim.shared.topo;
            topo.register_node(cn, "cn");
            topo.register_node(map_anchor_node, "map");
            topo.register_node(par_node, "par");
            topo.register_node(nar_node, "nar");
            for (i, &mh) in mhs.iter().enumerate() {
                topo.register_node(mh, format!("mh{i}"));
            }
            let backbone = LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100);
            let distribution = LinkSpec::new(10_000_000, SimDuration::from_millis(5), 100);
            let inter_ar = LinkSpec::new(10_000_000, cfg.ar_link_delay, 100);
            topo.add_link(cn, map_anchor_node, backbone);
            topo.add_link(map_anchor_node, par_node, distribution);
            topo.add_link(map_anchor_node, nar_node, distribution);
            let ar_link = topo.add_link(par_node, nar_node, inter_ar);
            inter_ar_link = Some(ar_link);
            topo.add_prefix(cn_prefix, cn);
            topo.add_prefix(map_prefix, map_anchor_node);
            topo.add_prefix(par_prefix, par_node);
            topo.add_prefix(nar_prefix, nar_node);
            topo.compute_routes();
        }

        // Fault injection (chaos experiments). Every fault stream gets its
        // own deterministic seed derived from the scenario seed, so runs
        // are reproducible and independent of thread count.
        if !cfg.wireless_fault.is_noop() {
            sim.shared.radio.set_fault(
                par_ap,
                cfg.wireless_fault,
                derive_seed(cfg.seed, 0xFA01_0000),
            );
            sim.shared.radio.set_fault(
                nar_ap,
                cfg.wireless_fault,
                derive_seed(cfg.seed, 0xFA02_0000),
            );
        }
        if !cfg.ar_link_fault.is_noop() {
            if let Some(link) = inter_ar_link {
                let l = sim.shared.topo.link_mut(link);
                l.set_fault(
                    par_node,
                    cfg.ar_link_fault,
                    derive_seed(cfg.seed, 0xFA03_0000),
                );
                l.set_fault(
                    nar_node,
                    cfg.ar_link_fault,
                    derive_seed(cfg.seed, 0xFA04_0000),
                );
            }
        }

        // The FMIPv6 tunnel rides the direct inter-AR link regardless of
        // shortest-path routing (Figs 4.9/4.10 sweep its delay).
        if let Some(link) = inter_ar_link {
            sim.actor_mut::<ArNode>(par_node)
                .expect("par")
                .agent
                .learn_peer_link(nar_addr, link);
            sim.actor_mut::<ArNode>(nar_node)
                .expect("nar")
                .agent
                .learn_peer_link(par_addr, link);
        }

        // CN address bookkeeping and kick-off events.
        {
            let cn_node = sim.actor_mut::<CnNode>(cn).expect("cn");
            cn_node.node = cn;
        }
        for id in [cn, map_anchor_node, par_node, nar_node]
            .into_iter()
            .chain(mhs.iter().copied())
        {
            sim.schedule(SimTime::ZERO, id, NetMsg::Start);
        }

        let _ = cn_addr;
        HmipScenario {
            sim,
            cn,
            map: map_anchor_node,
            par: par_node,
            nar: nar_node,
            mhs,
            rcoas,
            par_addr,
            nar_addr,
            map_addr,
            par_ap,
            nar_ap,
            flows: Vec::new(),
            next_flow: 1,
        }
    }

    /// The correspondent node's address.
    #[must_use]
    pub fn cn_addr(&self) -> Ipv6Addr {
        doc_subnet(0).host(1)
    }

    /// Adds a CBR flow from the CN to mobile host `mh_index`.
    ///
    /// Returns the flow id; counters are read back with
    /// [`HmipScenario::flow_sent`] and [`HmipScenario::flow_sink`].
    pub fn add_cbr_flow(
        &mut self,
        mh_index: usize,
        class: ServiceClass,
        size: u32,
        interval: SimDuration,
    ) -> FlowId {
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        let src = self.cn_addr();
        let dst = self.rcoas[mh_index];
        let cbr = CbrSource::new(flow, src, dst, class, size, interval);
        let cn = self.sim.actor_mut::<CnNode>(self.cn).expect("cn");
        let cbr_index = cn.cbr.len();
        cn.cbr.push(cbr);
        let mh = self
            .sim
            .actor_mut::<MhNode>(self.mhs[mh_index])
            .expect("mh");
        let sink_index = mh.sinks.len();
        mh.sinks.push(UdpSink::new(flow));
        self.flows.push(FlowEntry {
            flow,
            cbr_index,
            mh_index,
            sink_index,
        });
        flow
    }

    /// The thesis' 64 kb/s audio flow (160 B @ 20 ms).
    pub fn add_audio_64k(&mut self, mh_index: usize, class: ServiceClass) -> FlowId {
        self.add_cbr_flow(mh_index, class, 160, SimDuration::from_millis(20))
    }

    /// The thesis' 128 kb/s audio flow (160 B @ 10 ms).
    pub fn add_audio_128k(&mut self, mh_index: usize, class: ServiceClass) -> FlowId {
        self.add_cbr_flow(mh_index, class, 160, SimDuration::from_millis(10))
    }

    /// Sets the window in which CBR sources generate.
    pub fn set_traffic_window(&mut self, start: SimTime, stop: SimTime) {
        let cn = self.sim.actor_mut::<CnNode>(self.cn).expect("cn");
        cn.cbr_start = start;
        cn.cbr_stop = stop;
    }

    fn entry(&self, flow: FlowId) -> &FlowEntry {
        self.flows
            .iter()
            .find(|e| e.flow == flow)
            .expect("unknown flow id")
    }

    /// Packets the CN emitted on `flow`.
    #[must_use]
    pub fn flow_sent(&self, flow: FlowId) -> u64 {
        let e = self.entry(flow);
        self.sim.actor::<CnNode>(self.cn).expect("cn").cbr[e.cbr_index].sent()
    }

    /// The sink of `flow` (received counts, delays).
    #[must_use]
    pub fn flow_sink(&self, flow: FlowId) -> &UdpSink {
        let e = self.entry(flow);
        &self
            .sim
            .actor::<MhNode>(self.mhs[e.mh_index])
            .expect("mh")
            .sinks[e.sink_index]
    }

    /// Losses on `flow` so far (sent − received).
    #[must_use]
    pub fn flow_losses(&self, flow: FlowId) -> u64 {
        self.flow_sink(flow).losses(self.flow_sent(flow))
    }

    /// The mobile-host agent of host `i` (handoff counts, timeline).
    #[must_use]
    pub fn mh_agent(&self, i: usize) -> &MhAgent {
        &self.sim.actor::<MhNode>(self.mhs[i]).expect("mh").agent
    }

    /// The PAR's protocol agent.
    #[must_use]
    pub fn par_agent(&self) -> &ArAgent {
        &self.sim.actor::<ArNode>(self.par).expect("par").agent
    }

    /// The NAR's protocol agent.
    #[must_use]
    pub fn nar_agent(&self) -> &ArAgent {
        &self.sim.actor::<ArNode>(self.nar).expect("nar").agent
    }

    /// The MAP anchor.
    #[must_use]
    pub fn map_anchor(&self) -> &MobilityAnchor {
        &self.sim.actor::<MapNode>(self.map).expect("map").anchor
    }

    /// Runs the simulation until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Switches the observability subsystem on for this run: the flight
    /// recorder rings `cap` protocol events and every handover attempt is
    /// tracked as a span. Call before `run_until`; read the results back
    /// with [`HmipScenario::chrome_trace_into`] or the stats' `trace` /
    /// `spans` fields. Costs one branch per event when off (the default).
    pub fn enable_telemetry(&mut self, cap: usize) {
        self.sim.shared.stats.trace.enable(cap);
        self.sim.shared.stats.spans.enable();
    }

    /// Exports this run's telemetry into a Chrome-trace builder under
    /// process id `pid`: one `"X"` span per handover attempt (with its
    /// phase marks) followed by one instant per flight-recorder event.
    /// Spans still open render to the current sim time with outcome
    /// `"open"`. Deterministic: spans in begin order, events in ring
    /// order.
    pub fn chrome_trace_into(&self, trace: &mut ChromeTrace, pid: u64) {
        let stats = &self.sim.shared.stats;
        export_run(
            trace,
            pid,
            stats.spans.spans(),
            stats.trace.events(),
            self.sim.now(),
        );
    }

    /// Detaches what [`HmipScenario::chrome_trace_into`] would render, so
    /// a sweep can drop the world and render every point later, in grid
    /// order, into one buffer. The spans move out; the recorded events
    /// are copied into an exact-size `Vec`, under half the bytes their
    /// JSON takes.
    pub(crate) fn take_recording(&mut self) -> Recording {
        let stats = &mut self.sim.shared.stats;
        Recording {
            spans: std::mem::take(&mut stats.spans),
            events: stats.trace.events().cloned().collect(),
            end: self.sim.now(),
        }
    }

    /// End-of-run bookkeeping: classifies every still-open handover
    /// attempt as [`HandoverOutcome::Failed`]. Call once, after the final
    /// `run_until`. Returns the number of failed attempts.
    pub fn finalize(&mut self) -> u64 {
        let mhs = self.mhs.clone();
        let mut failed = 0u64;
        for mh in mhs {
            let agent = &mut self.sim.actor_mut::<MhNode>(mh).expect("mh").agent;
            if agent.close_unresolved() {
                failed += 1;
            }
        }
        for _ in 0..failed {
            self.sim
                .shared
                .stats
                .record_outcome(HandoverOutcome::Failed);
        }
        // Mirror the outcome bookkeeping onto the span timeline: an
        // attempt still open at the horizon is a failed handover.
        let now = self.sim.now();
        let spans = &mut self.sim.shared.stats.spans;
        for id in spans.open_spans() {
            spans.end(id, now, HandoverOutcome::Failed.label());
        }
        failed
    }

    /// Asserts per-flow packet conservation:
    /// `sent + duplicated == delivered + Σ drops(reason)` for every flow
    /// whose source was recorded. Panics with the offending flow's audit
    /// on violation.
    pub fn assert_conservation(&self) {
        self.sim.shared.stats.assert_conservation();
    }

    /// Handover outcome tally `[(Predictive, n), (Reactive, n), (Failed, n)]`.
    #[must_use]
    pub fn outcomes(&self) -> [(HandoverOutcome, u64); 3] {
        self.sim.shared.stats.outcomes()
    }

    /// Hosts whose current handover attempt has not resolved (should be
    /// zero after [`HmipScenario::finalize`]).
    #[must_use]
    pub fn unresolved_handovers(&self) -> usize {
        self.mhs
            .iter()
            .filter(|&&mh| self.sim.actor::<MhNode>(mh).expect("mh").agent.unresolved())
            .count()
    }

    /// End-of-run resource-leak audit: snapshots both routers' soft state
    /// and cross-checks every installed host route against the radio
    /// attachment table. Meaningful after a quiesce period longer than
    /// every reservation lifetime (and, for soft-state routes, the route
    /// lifetime) with no traffic flowing.
    #[must_use]
    pub fn leak_report(&self) -> LeakReport {
        let mut stale_routes = 0;
        for agent in [self.par_agent(), self.nar_agent()] {
            for (_, node) in agent.neighbor_entries() {
                let attached_here = self
                    .sim
                    .shared
                    .radio
                    .attachment(node)
                    .is_some_and(|ap| agent.owns_ap(ap));
                if !attached_here {
                    stale_routes += 1;
                }
            }
        }
        LeakReport {
            par: self.par_agent().soft_state(),
            nar: self.nar_agent().soft_state(),
            stale_routes,
            unresolved_hosts: self.unresolved_handovers(),
        }
    }

    /// The larger of the two routers' lifetime byte high-water marks —
    /// flash-crowd plans bound this with the `max_bytes_parked`
    /// expectation.
    #[must_use]
    pub fn peak_bytes_parked(&self) -> usize {
        self.par_agent()
            .pool()
            .peak_bytes()
            .max(self.nar_agent().pool().peak_bytes())
    }

    /// Sessions still holding parked packets across both routers. After
    /// quiesce this must be zero — the handover watchdog exists precisely
    /// so no wedged session survives.
    #[must_use]
    pub fn wedged_sessions(&self) -> usize {
        self.par_agent().pool().wedged_sessions() + self.nar_agent().pool().wedged_sessions()
    }
}

/// Combined soft-state audit of a finished run (see
/// [`HmipScenario::leak_report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeakReport {
    /// The PAR's soft-state snapshot.
    pub par: ArSoftState,
    /// The NAR's soft-state snapshot.
    pub nar: ArSoftState,
    /// Host routes whose host is not attached to the owning router.
    pub stale_routes: usize,
    /// Hosts still wedged in an open handover attempt.
    pub unresolved_hosts: usize,
}

impl LeakReport {
    /// `true` when nothing leaked: both routers quiesced, every remaining
    /// host route backs an attached host, and no attempt is wedged.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.par.quiesced()
            && self.nar.quiesced()
            && self.stale_routes == 0
            && self.unresolved_hosts == 0
    }
}
