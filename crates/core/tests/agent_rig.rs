//! A minimal two-router rig driving `ArAgent`/`MhAgent` directly, for
//! protocol paths the full scenarios do not reach: cancellation, the BI
//! start-time auto-buffering, authentication, precise negotiation, and
//! degenerate grants.

use std::net::Ipv6Addr;

use fh_core::{ArAgent, MhAgent, ProtocolConfig, Scheme};
use fh_mip::MipClient;
use fh_net::{
    doc_subnet, msg::BufferInit, ApId, ControlMsg, FlowId, LinkSpec, NetCtx, NetMsg, NetStats,
    NetWorld, NodeId, Packet, ServiceClass, Topology,
};
use fh_sim::{Actor, SimDuration, SimTime, Simulator};
use fh_wireless::{MhRadio, Mobility, Position, RadioConfig, RadioEnv, RadioWorld, WirelessSpec};

struct World {
    topo: Topology,
    stats: NetStats,
    radio: RadioEnv,
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
impl RadioWorld for World {
    fn radio(&self) -> &RadioEnv {
        &self.radio
    }
    fn radio_mut(&mut self) -> &mut RadioEnv {
        &mut self.radio
    }
}

struct ArHost {
    agent: Option<ArAgent>,
}
impl Actor<NetMsg, World> for ArHost {
    fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
        let mut agent = self.agent.take().expect("agent");
        agent.handle(ctx, msg);
        self.agent = Some(agent);
    }
}

struct MhHost {
    agent: Option<MhAgent>,
    delivered: Vec<Packet>,
}
impl Actor<NetMsg, World> for MhHost {
    fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
        let mut agent = self.agent.take().expect("agent");
        if let Some(pkt) = agent.handle(ctx, msg) {
            self.delivered.push(pkt);
        }
        self.agent = Some(agent);
    }
}

struct Rig {
    sim: Simulator<NetMsg, World>,
    par: NodeId,
    nar: NodeId,
    mh: NodeId,
    par_addr: Ipv6Addr,
    nar_addr: Ipv6Addr,
    par_ap: ApId,
    nar_ap: ApId,
    pcoa: Ipv6Addr,
}

impl Rig {
    fn new(config: ProtocolConfig, capacity: usize, mobility: Mobility) -> Rig {
        let mut sim = Simulator::new(
            World {
                topo: Topology::new(),
                stats: NetStats::new(),
                radio: RadioEnv::new(WirelessSpec::default_80211b()),
            },
            1,
        );
        let par_prefix = doc_subnet(1);
        let nar_prefix = doc_subnet(2);
        let par_addr = par_prefix.host(1);
        let nar_addr = nar_prefix.host(1);
        let par = sim.add_actor(Box::new(ArHost { agent: None }));
        let nar = sim.add_actor(Box::new(ArHost { agent: None }));
        let mh = sim.add_actor(Box::new(MhHost {
            agent: None,
            delivered: vec![],
        }));
        let par_ap = sim.shared.radio.add_ap(par, Position::new(0.0, 0.0), 112.0);
        let nar_ap = sim
            .shared
            .radio
            .add_ap(nar, Position::new(212.0, 0.0), 112.0);
        {
            let mut agent = ArAgent::new(
                par,
                par_addr,
                par_prefix,
                vec![par_ap],
                par_addr,
                config,
                capacity,
            );
            agent.learn_ap(nar_ap, nar_addr);
            sim.actor_mut::<ArHost>(par).expect("par").agent = Some(agent);
        }
        {
            let mut agent = ArAgent::new(
                nar,
                nar_addr,
                nar_prefix,
                vec![nar_ap],
                nar_addr,
                config,
                capacity,
            );
            agent.learn_ap(par_ap, par_addr);
            sim.actor_mut::<ArHost>(nar).expect("nar").agent = Some(agent);
        }
        let iid = 0x42;
        let pcoa = par_prefix.host(iid);
        {
            let radio = MhRadio::new(mh, mobility, RadioConfig::default());
            let mip = MipClient::new(pcoa, par_addr, SimDuration::from_secs(60));
            let mut agent = MhAgent::new(mh, radio, mip, config, iid);
            agent.mip.enter_map_domain(par_addr, pcoa);
            agent.configure_initial(par_ap, par_addr, par_prefix);
            sim.actor_mut::<MhHost>(mh).expect("mh").agent = Some(agent);
        }
        {
            let topo = &mut sim.shared.topo;
            topo.register_node(par);
            topo.register_node(nar);
            topo.register_node(mh);
            topo.add_link(
                par,
                nar,
                LinkSpec::new(10_000_000, SimDuration::from_millis(2), 50),
            );
            topo.add_prefix(par_prefix, par);
            topo.add_prefix(nar_prefix, nar);
            topo.compute_routes();
        }
        for id in [par, nar, mh] {
            sim.schedule(SimTime::ZERO, id, NetMsg::Start);
        }
        Rig {
            sim,
            par,
            nar,
            mh,
            par_addr,
            nar_addr,
            par_ap,
            nar_ap,
            pcoa,
        }
    }

    fn par_agent(&self) -> &ArAgent {
        self.sim
            .actor::<ArHost>(self.par)
            .expect("par")
            .agent
            .as_ref()
            .expect("agent")
    }

    fn nar_agent(&self) -> &ArAgent {
        self.sim
            .actor::<ArHost>(self.nar)
            .expect("nar")
            .agent
            .as_ref()
            .expect("agent")
    }

    fn mh_agent(&self) -> &MhAgent {
        self.sim
            .actor::<MhHost>(self.mh)
            .expect("mh")
            .agent
            .as_ref()
            .expect("agent")
    }

    /// Injects an uplink control message from the MH as if the radio
    /// delivered it (bypasses the MhAgent — for hand-crafted flows).
    fn uplink_from_mh(&mut self, to: NodeId, msg: ControlMsg) {
        let now = self.sim.now();
        let pkt = Packet::control(self.pcoa, self.par_addr, msg, now);
        self.sim.schedule(
            now,
            to,
            NetMsg::RadioPacket {
                ap: self.par_ap,
                from: self.mh,
                pkt,
            },
        );
    }

    fn walk() -> Mobility {
        Mobility::linear(Position::new(88.0, 0.0), Position::new(212.0, 0.0), 10.0)
    }
}

#[test]
fn full_handover_through_the_rig() {
    let mut rig = Rig::new(ProtocolConfig::proposed(), 20, Rig::walk());
    rig.sim.run_until(SimTime::from_secs(5));
    assert_eq!(rig.mh_agent().handoffs, 1);
    assert_eq!(rig.par_agent().metrics.par_sessions, 1);
    assert_eq!(rig.nar_agent().metrics.nar_sessions, 1);
    assert_eq!(rig.sim.shared.radio.attachment(rig.mh), Some(rig.nar_ap));
}

#[test]
fn cancel_request_releases_the_reservation() {
    let mut rig = Rig::new(
        ProtocolConfig::proposed(),
        20,
        Mobility::Stationary(Position::new(0.0, 0.0)),
    );
    rig.sim.run_until(SimTime::from_millis(100));
    // Hand-craft a solicit, then cancel it.
    rig.uplink_from_mh(
        rig.par,
        ControlMsg::RtSolPr {
            target_ap: rig.nar_ap,
            bi: Some(BufferInit {
                size: 10,
                start_time: SimDuration::from_millis(500),
                lifetime: SimDuration::from_secs(3),
            }),
        },
    );
    rig.sim.run_until(SimTime::from_millis(200));
    assert_eq!(rig.par_agent().pool().granted(rig.pcoa), 5, "half at PAR");
    rig.uplink_from_mh(
        rig.par,
        ControlMsg::RtSolPr {
            target_ap: rig.nar_ap,
            bi: Some(BufferInit::cancel()),
        },
    );
    rig.sim.run_until(SimTime::from_millis(300));
    assert_eq!(
        rig.par_agent().pool().granted(rig.pcoa),
        0,
        "cancel frees it"
    );
    assert!(!rig.par_agent().pool().has_session(rig.pcoa));
}

#[test]
fn start_time_auto_buffers_without_fbu() {
    // The MH asks for buffering with a 300 ms start time and then goes
    // silent (no FBU): the PAR must start redirecting on its own.
    let mut rig = Rig::new(
        ProtocolConfig::proposed(),
        20,
        Mobility::Stationary(Position::new(0.0, 0.0)),
    );
    rig.sim.run_until(SimTime::from_millis(100));
    rig.uplink_from_mh(
        rig.par,
        ControlMsg::RtSolPr {
            target_ap: rig.nar_ap,
            bi: Some(BufferInit {
                size: 10,
                start_time: SimDuration::from_millis(300),
                lifetime: SimDuration::from_secs(5),
            }),
        },
    );
    // Detach the host so deliveries can't succeed over the air.
    rig.sim.run_until(SimTime::from_millis(200));
    rig.sim.shared.radio.detach(rig.mh);
    // Inject traffic for the PCoA *after* the auto-start moment.
    rig.sim.run_until(SimTime::from_millis(600));
    let now = rig.sim.now();
    let data = Packet::data(
        FlowId(1),
        0,
        doc_subnet(0).host(1),
        rig.pcoa,
        ServiceClass::HighPriority,
        160,
        now,
    );
    let par = rig.par;
    rig.sim.schedule(
        now,
        par,
        NetMsg::LinkPacket {
            link: fh_net::LinkId(0),
            pkt: data,
        },
    );
    rig.sim.run_until(SimTime::from_millis(800));
    // The packet must be parked in a buffer, not lost.
    let buffered = rig.par_agent().pool().used() + rig.nar_agent().pool().used();
    assert_eq!(buffered, 1, "auto-start must be buffering by now");
    assert_eq!(rig.sim.shared.stats.total_drops(), 0);
}

#[test]
fn authentication_rejects_forged_fna() {
    let mut config = ProtocolConfig::proposed();
    config.auth_required = true;
    let mut rig = Rig::new(config, 20, Rig::walk());
    rig.sim.run_until(SimTime::from_secs(5));
    // The legitimate handover carries the token and succeeds.
    assert_eq!(rig.mh_agent().handoffs, 1);
    assert_eq!(rig.nar_agent().metrics.auth_rejections, 0);
    // Now forge an FNA for a host the NAR never negotiated for.
    let now = rig.sim.now();
    let forged = Packet::control(
        doc_subnet(2).host(0x666),
        rig.nar_addr,
        ControlMsg::FastNeighborAdvertisement {
            ncoa: doc_subnet(2).host(0x666),
            pcoa: doc_subnet(1).host(0x666),
            bf: true,
            auth: None,
        },
        now,
    );
    let nar = rig.nar;
    let nar_ap = rig.nar_ap;
    let mh = rig.mh;
    rig.sim.schedule(
        now,
        nar,
        NetMsg::RadioPacket {
            ap: nar_ap,
            from: mh,
            pkt: forged,
        },
    );
    rig.sim.run_until(now + SimDuration::from_millis(100));
    assert_eq!(rig.nar_agent().metrics.auth_rejections, 1);
    assert_eq!(rig.nar_agent().neighbor(doc_subnet(1).host(0x666)), None);
}

#[test]
fn wrong_token_is_rejected_too() {
    let mut config = ProtocolConfig::proposed();
    config.auth_required = true;
    let mut rig = Rig::new(config, 20, Rig::walk());
    // Let the negotiation complete but intercept before the real FNA:
    // run just past PrRtAdv (trigger at ~1.2 s + a few ms).
    rig.sim.run_until(SimTime::from_millis(1210));
    let now = rig.sim.now();
    let forged = Packet::control(
        doc_subnet(2).host(0x42),
        rig.nar_addr,
        ControlMsg::FastNeighborAdvertisement {
            ncoa: doc_subnet(2).host(0x42),
            pcoa: rig.pcoa,
            bf: true,
            auth: Some(fh_net::msg::AuthToken(0xBAD)),
        },
        now,
    );
    let nar = rig.nar;
    let nar_ap = rig.nar_ap;
    let mh = rig.mh;
    rig.sim.schedule(
        now,
        nar,
        NetMsg::RadioPacket {
            ap: nar_ap,
            from: mh,
            pkt: forged,
        },
    );
    rig.sim.run_until(now + SimDuration::from_millis(50));
    assert!(rig.nar_agent().metrics.auth_rejections >= 1);
}

#[test]
fn no_buffer_scheme_solicits_without_bi() {
    let mut rig = Rig::new(
        ProtocolConfig::with_scheme(Scheme::NoBuffer),
        20,
        Rig::walk(),
    );
    rig.sim.run_until(SimTime::from_secs(5));
    assert_eq!(rig.mh_agent().handoffs, 1, "handover still works");
    assert_eq!(rig.nar_agent().pool().stats.admitted, 0, "nothing buffered");
    assert_eq!(rig.par_agent().pool().stats.admitted, 0);
    assert_eq!(rig.sim.shared.stats.piggybacked, 0, "no buffer options");
}

/// Injects `n` high-priority data packets for the PCoA at the PAR,
/// spread through the black-out window of the standard walk
/// (detach ≈1.209 s, attach ≈1.409 s).
fn inject_blackout_traffic(rig: &mut Rig, n: u64) {
    let par = rig.par;
    let pcoa = rig.pcoa;
    for i in 0..n {
        let at = SimTime::from_millis(1_220 + i * 15);
        let pkt = Packet::data(
            FlowId(1),
            i,
            doc_subnet(0).host(1),
            pcoa,
            ServiceClass::HighPriority,
            160,
            at,
        );
        rig.sim.schedule(
            at,
            par,
            NetMsg::LinkPacket {
                link: fh_net::LinkId(0),
                pkt,
            },
        );
    }
}

#[test]
fn precise_negotiation_grants_partially() {
    let mut config = ProtocolConfig::proposed();
    config.precise_negotiation = true;
    config.buffer_request = 60; // NAR share 30 > capacity 20
    let mut rig = Rig::new(config, 20, Rig::walk());
    rig.sim.run_until(SimTime::from_millis(1_215));
    inject_blackout_traffic(&mut rig, 10);
    rig.sim.run_until(SimTime::from_secs(5));
    // Binary negotiation would grant 0; the precise extension grants what
    // fits, so the black-out traffic gets buffered.
    assert_eq!(rig.mh_agent().handoffs, 1);
    let nar = rig.nar_agent();
    assert!(
        nar.pool().stats.admitted > 0,
        "partial grant must have buffered something: {:?}",
        nar.pool().stats
    );
}

#[test]
fn oversized_binary_request_degenerates_to_no_grant() {
    let mut config = ProtocolConfig::proposed();
    config.buffer_request = 100; // 50 per router > capacity 20
    let mut rig = Rig::new(config, 20, Rig::walk());
    rig.sim.run_until(SimTime::from_millis(1_215));
    inject_blackout_traffic(&mut rig, 10);
    rig.sim.run_until(SimTime::from_secs(5));
    assert_eq!(rig.mh_agent().handoffs, 1, "handover completes regardless");
    // All-or-nothing negotiation granted nothing: every black-out packet
    // was forwarded unbuffered and died at the radio.
    assert_eq!(rig.nar_agent().pool().stats.admitted, 0);
    assert!(
        rig.sim
            .shared
            .stats
            .drops(fh_net::DropReason::RadioDetached)
            > 0
    );
}

#[test]
fn router_advertisements_beacon_every_second() {
    let mut rig = Rig::new(
        ProtocolConfig::proposed(),
        20,
        Mobility::Stationary(Position::new(0.0, 0.0)),
    );
    rig.sim.run_until(SimTime::from_secs(5));
    let ras = rig.sim.shared.stats.control_count("RA");
    // One attached host, ~5 seconds, 1 Hz beacons (jittered start).
    assert!((4..=6).contains(&ras), "expected ≈5 RAs, got {ras}");
}

#[test]
fn guard_buffering_parks_and_flushes_on_demand() {
    // §3.3: a host that senses poor link quality asks its router to buffer
    // with a standalone BI (no handover at all), then releases with BF.
    let mut rig = Rig::new(
        ProtocolConfig::proposed(),
        20,
        Mobility::Stationary(Position::new(0.0, 0.0)),
    );
    rig.sim.run_until(SimTime::from_millis(100));
    rig.uplink_from_mh(
        rig.par,
        ControlMsg::BufferInit(BufferInit {
            size: 10,
            start_time: SimDuration::ZERO,
            lifetime: SimDuration::from_secs(5),
        }),
    );
    rig.sim.run_until(SimTime::from_millis(150));
    assert_eq!(rig.par_agent().metrics.guard_sessions, 1);
    // Traffic for the host is now parked, not delivered.
    let now = rig.sim.now();
    let par = rig.par;
    let pcoa = rig.pcoa;
    for seq in 0..5 {
        let pkt = Packet::data(
            FlowId(2),
            seq,
            doc_subnet(0).host(1),
            pcoa,
            ServiceClass::HighPriority,
            160,
            now,
        );
        rig.sim.schedule(
            now,
            par,
            NetMsg::LinkPacket {
                link: fh_net::LinkId(0),
                pkt,
            },
        );
    }
    rig.sim.run_until(SimTime::from_millis(300));
    assert_eq!(rig.par_agent().pool().used(), 5, "packets parked");
    assert!(rig
        .sim
        .actor::<MhHost>(rig.mh)
        .expect("mh")
        .delivered
        .is_empty());
    // Release: everything arrives.
    rig.uplink_from_mh(rig.par, ControlMsg::BufferForward { pcoa });
    rig.sim.run_until(SimTime::from_millis(400));
    assert_eq!(rig.par_agent().pool().used(), 0);
    assert_eq!(
        rig.sim.actor::<MhHost>(rig.mh).expect("mh").delivered.len(),
        5,
        "flush delivers all parked packets"
    );
}

#[test]
fn guard_buffering_cancel_delivers_what_was_parked() {
    let mut rig = Rig::new(
        ProtocolConfig::proposed(),
        20,
        Mobility::Stationary(Position::new(0.0, 0.0)),
    );
    rig.sim.run_until(SimTime::from_millis(100));
    rig.uplink_from_mh(
        rig.par,
        ControlMsg::BufferInit(BufferInit {
            size: 10,
            start_time: SimDuration::ZERO,
            lifetime: SimDuration::from_secs(5),
        }),
    );
    rig.sim.run_until(SimTime::from_millis(150));
    let now = rig.sim.now();
    let par = rig.par;
    let pcoa = rig.pcoa;
    let pkt = Packet::data(
        FlowId(2),
        0,
        doc_subnet(0).host(1),
        pcoa,
        ServiceClass::BestEffort,
        160,
        now,
    );
    rig.sim.schedule(
        now,
        par,
        NetMsg::LinkPacket {
            link: fh_net::LinkId(0),
            pkt,
        },
    );
    rig.sim.run_until(SimTime::from_millis(200));
    assert_eq!(rig.par_agent().pool().used(), 1);
    // Cancel with the zero BI.
    rig.uplink_from_mh(rig.par, ControlMsg::BufferInit(BufferInit::cancel()));
    rig.sim.run_until(SimTime::from_millis(300));
    assert_eq!(rig.par_agent().pool().used(), 0);
    assert!(!rig.par_agent().pool().has_session(pcoa));
    assert_eq!(
        rig.sim.actor::<MhHost>(rig.mh).expect("mh").delivered.len(),
        1,
        "cancellation must not lose the parked packet"
    );
}

#[test]
fn availability_cases_are_counted() {
    let mut rig = Rig::new(ProtocolConfig::proposed(), 20, Rig::walk());
    rig.sim.run_until(SimTime::from_secs(5));
    // One handover with both grants: exactly one case-1 session.
    assert_eq!(rig.par_agent().metrics.case_counts, [1, 0, 0, 0]);
    // And a zero-capacity network lands in case 4.
    let mut starved = Rig::new(ProtocolConfig::proposed(), 0, Rig::walk());
    starved.sim.run_until(SimTime::from_secs(5));
    assert_eq!(starved.par_agent().metrics.case_counts, [0, 0, 0, 1]);
}

#[test]
fn zero_capacity_case4_follows_table_3_3() {
    // Table 3.2 case 4 — neither router can grant (modeled as zero
    // capacity). Table 3.3 then says: real-time and high-priority traffic
    // bypasses the full buffers and rides the tunnel unbuffered, best
    // effort is dropped at the PAR.
    let mut rig = Rig::new(ProtocolConfig::proposed(), 0, Rig::walk());
    rig.sim.run_until(SimTime::from_millis(1_215));
    let classes = [
        (FlowId(1), ServiceClass::RealTime),
        (FlowId(2), ServiceClass::HighPriority),
        (FlowId(3), ServiceClass::BestEffort),
    ];
    let par = rig.par;
    let pcoa = rig.pcoa;
    // All packets land inside the black-out (≈1.209–1.409 s), while the
    // PAR session is redirecting and the host's radio is detached.
    for i in 0..12u64 {
        for &(flow, class) in &classes {
            let at = SimTime::from_millis(1_220 + i * 15);
            let pkt = Packet::data(flow, i, doc_subnet(0).host(1), pcoa, class, 160, at);
            rig.sim.shared.stats.record_sent(flow);
            rig.sim.schedule(
                at,
                par,
                NetMsg::LinkPacket {
                    link: fh_net::LinkId(0),
                    pkt,
                },
            );
        }
    }
    rig.sim.run_until(SimTime::from_secs(5));
    assert_eq!(rig.mh_agent().handoffs, 1, "handover must still complete");
    assert_eq!(rig.par_agent().metrics.case_counts, [0, 0, 0, 1]);
    // Nothing was admitted to either buffer…
    assert_eq!(rig.par_agent().pool().stats.admitted, 0);
    assert_eq!(rig.nar_agent().pool().stats.admitted, 0);
    let stats = &rig.sim.shared.stats;
    // …best effort died at the PAR's policy decision, nowhere else…
    assert_eq!(stats.drops(fh_net::DropReason::Policy), 12);
    let be = stats.flow_audit(FlowId(3));
    assert_eq!((be.delivered, be.dropped), (0, 12), "{be:?}");
    // …while real-time and high-priority crossed the tunnel unbuffered
    // and died only at the detached radio, never at the buffer or policy.
    assert!(
        stats.drops(fh_net::DropReason::RadioDetached) >= 24,
        "RT/HP must reach the NAR's radio: {:?}",
        stats.drops_by_reason()
    );
    for flow in [FlowId(1), FlowId(2)] {
        let audit = stats.flow_audit(flow);
        assert_eq!(audit.delivered, 0, "{flow:?}: {audit:?}");
        assert!(audit.conserved(), "{flow:?}: {audit:?}");
    }
    stats.assert_conservation();
}

#[test]
fn paced_flush_spreads_deliveries() {
    // With flush pacing, buffered packets reach the host one per spacing
    // tick instead of back-to-back on the channel.
    let run = |spacing_ms: u64| -> Vec<SimTime> {
        let mut config = ProtocolConfig::proposed();
        config.flush_spacing = SimDuration::from_millis(spacing_ms);
        let mut rig = Rig::new(config, 20, Rig::walk());
        rig.sim.run_until(SimTime::from_millis(1_215));
        inject_blackout_traffic(&mut rig, 8);
        rig.sim.run_until(SimTime::from_secs(5));
        rig.sim
            .actor::<MhHost>(rig.mh)
            .expect("mh")
            .delivered
            .iter()
            .filter(|p| p.flow == FlowId(1))
            .map(|p| p.created)
            .collect()
    };
    // Same packets delivered either way.
    let fast = run(0);
    let paced = run(5);
    assert_eq!(fast.len(), paced.len(), "pacing must not lose packets");
    assert!(!fast.is_empty());
}

#[test]
fn paced_flush_increases_tail_delay() {
    // Observable: the instant both buffer pools finish draining.
    let drain_time = |spacing_ms: u64| -> SimTime {
        let mut config = ProtocolConfig::proposed();
        config.flush_spacing = SimDuration::from_millis(spacing_ms);
        let mut rig = Rig::new(config, 20, Rig::walk());
        rig.sim.run_until(SimTime::from_millis(1_215));
        inject_blackout_traffic(&mut rig, 8);
        let mut t = SimTime::from_millis(1_405);
        rig.sim.run_until(t);
        while (rig.nar_agent().pool().used() > 0 || rig.par_agent().pool().used() > 0)
            && t < SimTime::from_secs(4)
        {
            t += SimDuration::from_millis(1);
            rig.sim.run_until(t);
        }
        t
    };
    let fast = drain_time(0);
    let paced = drain_time(10);
    assert!(
        paced > fast + SimDuration::from_millis(30),
        "10 ms pacing must visibly slow the drain: {fast} vs {paced}"
    );
}

/// A host that starts a guarded radio pause when its App(99) timer fires.
struct GuardedHost {
    agent: Option<MhAgent>,
    delivered: Vec<Packet>,
    pause: SimDuration,
}
impl fh_sim::Actor<NetMsg, World> for GuardedHost {
    fn handle(&mut self, ctx: &mut NetCtx<'_, World>, msg: NetMsg) {
        let mut agent = self.agent.take().expect("agent");
        match msg {
            NetMsg::Timer {
                kind: fh_net::TimerKind::App(99),
                ..
            } => {
                assert!(agent.pause_with_guard(ctx, self.pause, 60));
            }
            other => {
                if let Some(pkt) = agent.handle(ctx, other) {
                    self.delivered.push(pkt);
                }
            }
        }
        self.agent = Some(agent);
    }
}

#[test]
fn guarded_radio_pause_is_lossless() {
    // Build a one-router world by hand: AR + guarded host + CBR injection.
    let mut rig = Rig::new(
        ProtocolConfig::proposed(),
        80,
        Mobility::Stationary(Position::new(0.0, 0.0)),
    );
    // Add a second, guarded host alongside the rig's idle one.
    let guarded = rig.sim.add_actor(Box::new(GuardedHost {
        agent: None,
        delivered: vec![],
        pause: SimDuration::from_millis(400),
    }));
    // Rebuild the agent around the new actor id.
    let mut new_agent = MhAgent::new(
        guarded,
        MhRadio::new(
            guarded,
            Mobility::Stationary(Position::new(0.0, 0.0)),
            RadioConfig::default(),
        ),
        MipClient::new(rig.pcoa, rig.par_addr, SimDuration::from_secs(600)),
        ProtocolConfig::proposed(),
        0x55,
    );
    new_agent.mip.enter_map_domain(rig.par_addr, rig.pcoa);
    new_agent.configure_initial(rig.par_ap, rig.par_addr, doc_subnet(1));
    rig.sim.shared.topo.register_node(guarded);
    rig.sim
        .actor_mut::<GuardedHost>(guarded)
        .expect("guarded")
        .agent = Some(new_agent);
    let coa = doc_subnet(1).host(0x55);
    rig.sim.schedule(SimTime::ZERO, guarded, NetMsg::Start);
    // The pause starts at 1 s.
    rig.sim.schedule(
        SimTime::from_secs(1),
        guarded,
        NetMsg::Timer {
            kind: fh_net::TimerKind::App(99),
            token: 0,
        },
    );
    // 25 packets/s of traffic for the guarded host, 0.5 s – 2.5 s.
    let par = rig.par;
    for i in 0..50u64 {
        let at = SimTime::from_millis(500 + i * 40);
        let pkt = Packet::data(
            FlowId(9),
            i,
            doc_subnet(0).host(1),
            coa,
            ServiceClass::HighPriority,
            160,
            at,
        );
        rig.sim.schedule(
            at,
            par,
            NetMsg::LinkPacket {
                link: fh_net::LinkId(0),
                pkt,
            },
        );
    }
    rig.sim.run_until(SimTime::from_secs(5));
    let host = rig.sim.actor::<GuardedHost>(guarded).expect("guarded");
    let got: Vec<u64> = host
        .delivered
        .iter()
        .filter(|p| p.flow == FlowId(9))
        .map(|p| p.seq)
        .collect();
    assert_eq!(got.len(), 50, "the 400 ms pause must lose nothing: {got:?}");
    assert_eq!(rig.par_agent().metrics.guard_sessions, 1);
    assert_eq!(rig.par_agent().pool().used(), 0, "buffer fully drained");
}

#[test]
fn unreleased_guard_episode_expires_and_reclaims() {
    // A guard episode whose releasing BF never arrives (the host died
    // mid-nap) must not pin its reservation forever: the lifetime sweep
    // reclaims it, releasing the parked packets under `Expired`.
    let mut rig = Rig::new(
        ProtocolConfig::proposed(),
        80,
        Mobility::Stationary(Position::new(0.0, 0.0)),
    );
    rig.sim.run_until(SimTime::from_millis(100));
    // A standalone BI opens the guard episode with a 2 s lifetime…
    rig.uplink_from_mh(
        rig.par,
        ControlMsg::BufferInit(BufferInit {
            size: 20,
            start_time: SimDuration::ZERO,
            lifetime: SimDuration::from_secs(2),
        }),
    );
    // …then the host goes permanently silent.
    rig.sim.run_until(SimTime::from_millis(200));
    rig.sim.shared.radio.detach(rig.mh);
    let par = rig.par;
    let pcoa = rig.pcoa;
    for i in 0..8u64 {
        let at = SimTime::from_millis(300 + i * 50);
        let pkt = Packet::data(
            FlowId(7),
            i,
            doc_subnet(0).host(1),
            pcoa,
            ServiceClass::HighPriority,
            160,
            at,
        );
        rig.sim.shared.stats.record_sent(FlowId(7));
        rig.sim.schedule(
            at,
            par,
            NetMsg::LinkPacket {
                link: fh_net::LinkId(0),
                pkt,
            },
        );
    }
    rig.sim.run_until(SimTime::from_secs(1));
    assert_eq!(
        rig.par_agent().pool().used(),
        8,
        "traffic parked by the guard"
    );
    // Past the lifetime: the episode is swept, nothing stays pinned.
    rig.sim.run_until(SimTime::from_secs(4));
    let par_agent = rig.par_agent();
    assert_eq!(par_agent.metrics.guard_expired, 1);
    assert_eq!(par_agent.pool().used(), 0, "reservation reclaimed");
    assert!(!par_agent.pool().has_session(pcoa));
    let stats = &rig.sim.shared.stats;
    assert_eq!(stats.drops(fh_net::DropReason::Expired), 8);
    stats.assert_conservation();
}
