//! [`HmipScenario`]: one built world plus its workload and audits. The
//! thesis' three networks are three specs for the one world builder
//! (`crate::build`): [`HmipScenario::build`] (Fig 4.1),
//! [`HmipScenario::wlan`] (Fig 4.11) and [`HmipScenario::roaming`].

use std::net::Ipv6Addr;

use fh_sim::{SimDuration, SimTime, Simulator};

use fh_core::{ArAgent, ArSoftState, MhAgent, ProtocolConfig};
use fh_mip::MobilityAnchor;
use fh_net::{
    doc_subnet, ApId, ConnId, FaultSpec, FlowId, HandoverAttempt, HandoverOutcome, LinkSpec,
    NetMsg, NodeFaultSpec, NodeId, ServiceClass, TraceEvent,
};
use fh_tcp::{ReceiverTrace, SenderTrace, TcpConfig, TcpReceiver, TcpSender};
use fh_telemetry::ChromeTrace;
use fh_traffic::{CbrSource, UdpSink};
use fh_wireless::{Mobility, Position, RadioConfig, RadioTechnology, TriggerMode, WirelessSpec};

use crate::build::{build, AnchorSpec, ApSpec, HostSpec, Role, RouterSpec, WorldSpec};
use crate::nodes::{ArNode, CnNode, MapNode, MhNode};
use crate::world::World;

/// One run's telemetry, detached from its world by
/// [`HmipScenario::take_recording`].
#[derive(Debug)]
pub(crate) struct Recording {
    handovers: Vec<HandoverAttempt>,
    events: Vec<(SimTime, TraceEvent)>,
    /// The sim time open attempts render up to.
    end: SimTime,
}

impl Recording {
    /// Renders the run exactly as [`HmipScenario::chrome_trace_into`]
    /// would have.
    pub(crate) fn chrome_trace_into(&self, trace: &mut ChromeTrace, pid: u64) {
        export_run(trace, pid, &self.handovers, &self.events, self.end);
    }
}

/// Handover attempts as spans in the order they opened (open ones closed
/// at `end`), then recorded events in ring order, all under `pid`.
fn export_run<'a>(
    trace: &mut ChromeTrace,
    pid: u64,
    handovers: &[HandoverAttempt],
    events: impl IntoIterator<Item = &'a (SimTime, TraceEvent)>,
    end: SimTime,
) {
    for attempt in handovers {
        trace.add_span(pid, attempt, end);
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

/// Configuration of the Fig 4.11 world ([`HmipScenario::wlan`]).
#[derive(Debug, Clone, Copy)]
pub struct WlanConfig {
    /// Protocol parameters; `scheme.buffers()` decides whether the AR
    /// buffers during the L2 handoff.
    pub protocol: ProtocolConfig,
    /// AR buffer capacity in packets.
    pub buffer_capacity: usize,
    /// L2 black-out duration.
    pub l2_handoff_delay: SimDuration,
    /// Wireless channel (11 Mb/s 802.11b by default).
    pub wireless: WirelessSpec,
    /// TCP parameters (Reno, 500 ms ticks).
    pub tcp: TcpConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WlanConfig {
    fn default() -> Self {
        WlanConfig {
            protocol: ProtocolConfig::proposed(),
            buffer_capacity: 40,
            l2_handoff_delay: SimDuration::from_millis(200),
            wireless: WirelessSpec::default_80211b(),
            tcp: TcpConfig::default(),
            seed: 7,
        }
    }
}

/// Configuration of the two-MAP-domain roaming world
/// ([`HmipScenario::roaming`]).
#[derive(Debug, Clone, Copy)]
pub struct RoamingConfig {
    /// Protocol parameters for the fast handover in the middle.
    pub protocol: ProtocolConfig,
    /// Buffer capacity per access router.
    pub buffer_capacity: usize,
    /// L2 black-out duration.
    pub l2_handoff_delay: SimDuration,
    /// Enable route optimization: the host sends the correspondent binding
    /// updates so traffic bypasses the home agent (§2.2.1 step 2).
    pub route_optimization: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RoamingConfig {
    fn default() -> Self {
        RoamingConfig {
            protocol: ProtocolConfig::proposed(),
            buffer_capacity: 20,
            l2_handoff_delay: SimDuration::from_millis(200),
            route_optimization: false,
            seed: 23,
        }
    }
}

/// A flow registered in the scenario.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowEntry {
    flow: FlowId,
    cbr_index: usize,
    mh_index: usize,
    sink_index: usize,
}

/// A built world: the simulator, its nodes by role, the registered flows.
pub struct HmipScenario {
    /// The simulator, ready to run.
    pub sim: Simulator<NetMsg, World>,
    /// Correspondent node (actor 0).
    pub cn: NodeId,
    /// Home agent and MAPs, in spec order (Fig 4.1: the MAP; roaming: HA,
    /// MAP1, MAP2).
    pub anchors: Vec<NodeId>,
    /// Access routers, in spec order (Fig 4.1: PAR, NAR; Fig 4.11: the AR;
    /// roaming: AR1, AR2).
    pub routers: Vec<NodeId>,
    /// Access points, router by router (Fig 4.1: the PAR's, then the NAR's).
    pub aps: Vec<ApId>,
    /// Mobile host nodes.
    pub mhs: Vec<NodeId>,
    /// Each host's traffic address: its home address, which in Fig 4.1 is
    /// its regional care-of address.
    pub mh_addrs: Vec<Ipv6Addr>,
    pub(crate) flows: Vec<FlowEntry>,
    /// The id the next registered flow gets; flows count from 1.
    pub(crate) next_flow: u32,
}

impl HmipScenario {
    /// Builds the Fig 4.1 world, a hierarchical Mobile IPv6 access network:
    ///
    /// ```text
    ///                 CN
    ///                  |
    ///                 MAP          (HMIPv6 anchor, RCoA prefix)
    ///                /   \
    ///             PAR --- NAR      (fast-handover access routers)
    ///              |       |
    ///            (AP0)   (AP1)     x = 0 m      x = 212 m, radius 112 m
    ///                 MH(s) →      10 m/s
    /// ```
    ///
    /// Parameters follow §4.1 of the thesis: 212 m AP separation, 112 m
    /// coverage (12 m overlap), 1 s router advertisements, 200 ms black-out,
    /// 10 m/s hosts. Link speeds, buffer sizes and the PAR↔NAR delay that
    /// Figs 4.9/4.10 sweep are configurable.
    #[must_use]
    pub fn build(cfg: HmipConfig) -> Self {
        let nar_ap = match cfg.cellular {
            Some(cell) => ApSpec {
                pos: Position::new(geometry::AP_SEPARATION, 0.0),
                radius: cell.radius,
                tech: RadioTechnology::Cellular,
            },
            None => ApSpec::wlan(geometry::AP_SEPARATION, geometry::COVERAGE_RADIUS),
        };
        let radio = RadioConfig {
            l2_handoff_delay: cfg.l2_handoff_delay,
            trigger: cfg.trigger,
            multi_iface: cfg.interfaces > 1,
            ..RadioConfig::default()
        };
        let mut hosts: Vec<HostSpec> = (0..cfg.n_mhs)
            .map(|i| {
                let eastbound = i % 2 == 0;
                // Storm stagger: push host i's start back along the walk so
                // it reaches the cell edge i × storm_stagger later. The
                // offset is clamped to keep the start inside PAR coverage
                // (and outside the NAR's), so very large storms saturate
                // the window instead of spawning hosts out of range.
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
                    MovementPlan::Crossing if eastbound => Mobility::linear(
                        Position::new(geometry::WALK_START, 0.0),
                        Position::new(geometry::AP_SEPARATION, 0.0),
                        cfg.speed,
                    ),
                    // The mirror walk, starting under the NAR.
                    MovementPlan::Crossing => Mobility::linear(
                        Position::new(geometry::AP_SEPARATION - geometry::WALK_START, 0.0),
                        Position::new(0.0, 0.0),
                        cfg.speed,
                    ),
                };
                HostSpec {
                    // Westbound crossing hosts start under the NAR.
                    start: usize::from(cfg.movement == MovementPlan::Crossing && !eastbound),
                    ..HostSpec::new(0x100 + i as u64, mobility, radio)
                }
            })
            .collect();
        if let Some(host) = hosts.first_mut() {
            host.fault = cfg.mh_fault;
        }
        let backbone = LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100);
        let distribution = LinkSpec::new(10_000_000, SimDuration::from_millis(5), 100);
        build(WorldSpec {
            wireless: cfg.wireless,
            cellular: cfg.cellular.map(|cell| cell.spec),
            seed: cfg.seed,
            protocol: cfg.protocol,
            buffer_capacity: cfg.buffer_capacity,
            anchors: vec![AnchorSpec {
                prefix: doc_subnet(10),
                home_agent: false,
            }],
            routers: vec![
                // The PAR, then the NAR.
                RouterSpec {
                    fault: cfg.par_fault,
                    ..RouterSpec::new(
                        doc_subnet(1),
                        Some(0),
                        vec![ApSpec::wlan(0.0, geometry::COVERAGE_RADIUS)],
                    )
                },
                RouterSpec {
                    fault: cfg.nar_fault,
                    ..RouterSpec::new(doc_subnet(2), Some(0), vec![nar_ap])
                },
            ],
            hosts,
            links: vec![
                (Role::Cn, Role::Anchor(0), backbone),
                (Role::Anchor(0), Role::Router(0), distribution),
                (Role::Anchor(0), Role::Router(1), distribution),
            ],
            peer_link: Some(LinkSpec::new(10_000_000, cfg.ar_link_delay, 100)),
            wireless_fault: cfg.wireless_fault,
            peer_link_fault: cfg.ar_link_fault,
        })
    }

    /// Builds the Fig 4.11 world — one access router, two cells under the
    /// *same prefix* — with a greedy FTP/TCP transfer from the CN to the
    /// host, starting at 500 ms:
    ///
    /// ```text
    ///    CN ——— AR ——— (AP0)   (AP1)
    ///                    ↑  MH  →      same subnet, two cells
    /// ```
    ///
    /// Moving between the cells is a pure L2 handoff: no new care-of
    /// address, just a 200 ms black-out. Only the thesis' scheme buffers
    /// here (Fig 3.5), which rescues the TCP connection in Figs 4.12–4.14.
    #[must_use]
    pub fn wlan(cfg: WlanConfig) -> Self {
        // Two cells 100 m apart with 70 m radius: overlap x ∈ [30, 70]. The
        // host walks from cell 0 into cell 1.
        let cells = vec![ApSpec::wlan(0.0, 70.0), ApSpec::wlan(100.0, 70.0)];
        let walk = Mobility::linear(Position::new(0.0, 0.0), Position::new(100.0, 0.0), 10.0);
        let radio = RadioConfig {
            l2_handoff_delay: cfg.l2_handoff_delay,
            ..RadioConfig::default()
        };
        let mut s = build(WorldSpec {
            wireless: cfg.wireless,
            cellular: None,
            seed: cfg.seed,
            protocol: cfg.protocol,
            buffer_capacity: cfg.buffer_capacity,
            anchors: Vec::new(),
            routers: vec![RouterSpec::new(doc_subnet(1), None, cells)],
            hosts: vec![HostSpec::new(0x99, walk, radio)],
            links: vec![(
                Role::Cn,
                Role::Router(0),
                LinkSpec::new(100_000_000, SimDuration::from_millis(5), 100),
            )],
            peer_link: None,
            wireless_fault: FaultSpec::default(),
            peer_link_fault: FaultSpec::default(),
        });
        let (flow, conn) = (FlowId(s.next_flow), ConnId(1));
        s.next_flow += 1;
        let (cn_addr, mh_addr) = (s.cn_addr(), s.mh_addrs[0]);
        let class = ServiceClass::BestEffort;
        let mh = s.sim.actor_mut::<MhNode>(s.mhs[0]).expect("mh");
        mh.tcp_rx = Some(TcpReceiver::new(conn, flow, mh_addr, cn_addr, class));
        let cn = s.sim.actor_mut::<CnNode>(s.cn).expect("cn");
        cn.tcp = Some(TcpSender::new(conn, flow, cn_addr, mh_addr, class, cfg.tcp));
        s
    }

    /// Builds chapter 2's roaming world: a host whose traffic goes to its
    /// **home address** (`mh_addrs[0]`) crosses from one MAP domain into
    /// another:
    ///
    /// ```text
    ///   CN ── HA ──┬── MAP1 ── AR1 (AP0, x = 0)
    ///              └── MAP2 ── AR2 (AP1, x = 212)
    ///                     AR1 ───── AR2   (inter-AR tunnel link)
    /// ```
    ///
    /// The handover is ordinary FMIPv6 with the enhanced buffering. Then
    /// the host learns MAP2 from the first router advertisement, registers
    /// a fresh RCoA locally, and sends its home agent the one binding
    /// update macro movement needs. Until those bindings land, traffic
    /// keeps flowing through the old chain (HA → MAP1 → the stale LCoA →
    /// the PAR's tunnel), so the crossing is seamless.
    #[must_use]
    pub fn roaming(cfg: RoamingConfig) -> Self {
        let anchor = |subnet, home_agent| AnchorSpec {
            prefix: doc_subnet(subnet),
            home_agent,
        };
        let cell = |x| vec![ApSpec::wlan(x, geometry::COVERAGE_RADIUS)];
        let walk = Mobility::linear(
            Position::new(geometry::WALK_START, 0.0),
            Position::new(geometry::AP_SEPARATION, 0.0),
            10.0,
        );
        let radio = RadioConfig {
            l2_handoff_delay: cfg.l2_handoff_delay,
            ..RadioConfig::default()
        };
        let backbone = LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100);
        let distribution = LinkSpec::new(10_000_000, SimDuration::from_millis(5), 100);
        build(WorldSpec {
            wireless: HmipConfig::default().wireless,
            cellular: None,
            seed: cfg.seed,
            protocol: cfg.protocol,
            buffer_capacity: cfg.buffer_capacity,
            // The home agent, MAP1 and MAP2; AR1 under MAP1, AR2 under
            // MAP2.
            anchors: vec![anchor(100, true), anchor(10, false), anchor(20, false)],
            routers: vec![
                RouterSpec::new(doc_subnet(1), Some(1), cell(0.0)),
                RouterSpec::new(doc_subnet(2), Some(2), cell(geometry::AP_SEPARATION)),
            ],
            hosts: vec![HostSpec {
                home: Some(0),
                route_optimization: cfg.route_optimization,
                ..HostSpec::new(0x77, walk, radio)
            }],
            links: vec![
                (Role::Cn, Role::Anchor(0), backbone),
                (Role::Anchor(0), Role::Anchor(1), backbone),
                (Role::Anchor(0), Role::Anchor(2), backbone),
                (Role::Anchor(1), Role::Router(0), distribution),
                (Role::Anchor(2), Role::Router(1), distribution),
            ],
            peer_link: Some(LinkSpec::new(10_000_000, SimDuration::from_millis(2), 100)),
            wireless_fault: FaultSpec::default(),
            peer_link_fault: FaultSpec::default(),
        })
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
        let dst = self.mh_addrs[mh_index];
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

    /// The protocol agent of access router `i`.
    #[must_use]
    pub fn ar_agent(&self, i: usize) -> &ArAgent {
        &self
            .sim
            .actor::<ArNode>(self.routers[i])
            .expect("router")
            .agent
    }

    /// The PAR's protocol agent (router 0).
    #[must_use]
    pub fn par_agent(&self) -> &ArAgent {
        self.ar_agent(0)
    }

    /// The NAR's protocol agent (router 1).
    #[must_use]
    pub fn nar_agent(&self) -> &ArAgent {
        self.ar_agent(1)
    }

    /// Mobility anchor `i` (a MAP or home agent).
    #[must_use]
    pub fn anchor(&self, i: usize) -> &MobilityAnchor {
        &self
            .sim
            .actor::<MapNode>(self.anchors[i])
            .expect("anchor")
            .anchor
    }

    /// The CN's TCP sender (trace access); set up by [`HmipScenario::wlan`].
    #[must_use]
    pub fn tcp_sender(&self) -> &TcpSender {
        let cn = self.sim.actor::<CnNode>(self.cn).expect("cn");
        cn.tcp.as_ref().expect("tcp configured")
    }

    /// Host 0's TCP receiver (trace access); set up by
    /// [`HmipScenario::wlan`].
    #[must_use]
    pub fn tcp_receiver(&self) -> &TcpReceiver {
        let mh = self.sim.actor::<MhNode>(self.mhs[0]).expect("mh");
        mh.tcp_rx.as_ref().expect("tcp configured")
    }

    /// Moves the TCP sender's and receiver's traces out of the run,
    /// leaving empty ones behind, so a finished run's figures can reuse
    /// the trace buffers instead of copying them.
    pub fn take_tcp_traces(&mut self) -> (SenderTrace, ReceiverTrace) {
        let cn = self.sim.actor_mut::<CnNode>(self.cn).expect("cn");
        let tx = std::mem::take(&mut cn.tcp.as_mut().expect("tcp configured").trace);
        let mh = self.sim.actor_mut::<MhNode>(self.mhs[0]).expect("mh");
        let rx = std::mem::take(&mut mh.tcp_rx.as_mut().expect("tcp configured").trace);
        (tx, rx)
    }

    /// Runs the simulation until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Switches the flight recorder on for this run: it rings `cap`
    /// protocol events. Call before `run_until`; read the events back with
    /// [`HmipScenario::chrome_trace_into`] or the stats' `trace` field.
    /// Costs one branch per event when off (the default). The handover
    /// record ([`HmipScenario::handovers`]) is kept either way.
    pub fn enable_telemetry(&mut self, cap: usize) {
        self.sim.shared.stats.trace.enable(cap);
    }

    /// Host `i`'s handover attempts, in the order they opened.
    pub fn handovers(&self, i: usize) -> impl Iterator<Item = &HandoverAttempt> + '_ {
        let host = self.mhs[i];
        let ledger = &self.sim.shared.stats.handovers;
        ledger.iter().filter(move |a| a.host == host)
    }

    /// Exports this run into a Chrome-trace builder under process id
    /// `pid`: one `"X"` span per handover attempt (with its phase marks)
    /// followed by one instant per flight-recorder event. Attempts still
    /// open render to the current sim time with outcome `"open"`.
    /// Deterministic: attempts in the order they opened, events in ring
    /// order.
    pub fn chrome_trace_into(&self, trace: &mut ChromeTrace, pid: u64) {
        let stats = &self.sim.shared.stats;
        export_run(
            trace,
            pid,
            &stats.handovers,
            stats.trace.events(),
            self.sim.now(),
        );
    }

    /// Detaches what [`HmipScenario::chrome_trace_into`] would render, so
    /// a sweep can drop the world and render every point later, in grid
    /// order, into one buffer. The handover record moves out; the
    /// recorded events are copied into an exact-size `Vec`, under half
    /// the bytes their JSON takes.
    pub(crate) fn take_recording(&mut self) -> Recording {
        let stats = &mut self.sim.shared.stats;
        Recording {
            handovers: std::mem::take(&mut stats.handovers),
            events: stats.trace.events().cloned().collect(),
            end: self.sim.now(),
        }
    }

    /// End-of-run bookkeeping: classifies every still-open handover
    /// attempt as [`HandoverOutcome::Failed`]. Call once, after the final
    /// `run_until`. Returns the number of failed attempts.
    pub fn finalize(&mut self) -> u64 {
        let now = self.sim.now();
        self.sim.shared.stats.fail_open_handovers(now)
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

    /// Hosts whose latest handover attempt has not resolved (should be
    /// zero after [`HmipScenario::finalize`]). A host has at most one open
    /// attempt, its latest.
    #[must_use]
    pub fn unresolved_handovers(&self) -> usize {
        let ledger = &self.sim.shared.stats.handovers;
        ledger.iter().filter(|a| a.is_open()).count()
    }

    /// The access routers' protocol agents, in spec order.
    fn ar_agents(&self) -> impl Iterator<Item = &ArAgent> + '_ {
        (0..self.routers.len()).map(|i| self.ar_agent(i))
    }

    /// End-of-run resource-leak audit: snapshots every router's soft state
    /// and cross-checks every installed host route against the radio
    /// attachment table. Meaningful after a quiesce period longer than
    /// every reservation lifetime (and, for soft-state routes, the route
    /// lifetime) with no traffic flowing.
    #[must_use]
    pub fn leak_report(&self) -> LeakReport {
        let mut leaking = Vec::new();
        let mut stale_routes = 0;
        for (&router, agent) in self.routers.iter().zip(self.ar_agents()) {
            let state = agent.soft_state();
            if !state.quiesced() {
                leaking.push((router, state));
            }
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
            leaking,
            stale_routes,
            unresolved_hosts: self.unresolved_handovers(),
        }
    }

    /// The largest of the routers' lifetime byte high-water marks —
    /// flash-crowd plans bound this with the `max_bytes_parked`
    /// expectation.
    #[must_use]
    pub fn peak_bytes_parked(&self) -> usize {
        self.ar_agents()
            .map(|agent| agent.pool().peak_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Sessions still holding parked packets across all routers. After
    /// quiesce this must be zero — the handover watchdog exists precisely
    /// so no wedged session survives.
    #[must_use]
    pub fn wedged_sessions(&self) -> usize {
        self.ar_agents()
            .map(|agent| agent.pool().wedged_sessions())
            .sum()
    }
}

/// Combined soft-state audit of a finished run (see
/// [`HmipScenario::leak_report`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakReport {
    /// Routers whose soft state has not drained, with their snapshots.
    pub leaking: Vec<(NodeId, ArSoftState)>,
    /// Host routes whose host is not attached to the owning router.
    pub stale_routes: usize,
    /// Hosts still wedged in an open handover attempt.
    pub unresolved_hosts: usize,
}

impl LeakReport {
    /// `true` when nothing leaked: every router quiesced, every remaining
    /// host route backs an attached host, and no attempt is wedged.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.leaking.is_empty() && self.stale_routes == 0 && self.unresolved_hosts == 0
    }
}
