//! Builder invariants for the composed scenarios.

use fh_core::{ProtocolConfig, Scheme};
use fh_net::{DropReason, RouteDecision, ServiceClass};
use fh_scenarios::{geometry, HmipConfig, HmipScenario, MovementPlan, RoamingConfig, WlanConfig};
use fh_sim::{SimDuration, SimTime};

#[test]
fn hmip_topology_is_fully_routable() {
    let s = HmipScenario::build(HmipConfig::default());
    let topo = &s.sim.shared.topo;
    // Every node reaches every prefix owner.
    for &from in [s.cn].iter().chain(&s.anchors).chain(&s.routers) {
        for n in [0u16, 1, 2, 10] {
            let dst = fh_net::doc_subnet(n).host(1);
            assert_ne!(
                topo.route(from, dst),
                RouteDecision::Unroutable,
                "node {from} cannot reach subnet {n}"
            );
        }
    }
}

#[test]
fn hmip_geometry_matches_the_thesis() {
    let s = HmipScenario::build(HmipConfig::default());
    let radio = &s.sim.shared.radio;
    let par_ap = radio.ap(s.aps[0]);
    let nar_ap = radio.ap(s.aps[1]);
    assert_eq!(par_ap.pos.distance(nar_ap.pos), geometry::AP_SEPARATION);
    assert_eq!(par_ap.radius, geometry::COVERAGE_RADIUS);
    // The 12 m overlap of §4.1.
    let overlap = 2.0 * geometry::COVERAGE_RADIUS - geometry::AP_SEPARATION;
    assert!((overlap - 12.0).abs() < 1e-9);
}

#[test]
fn mobile_hosts_start_attached_to_the_par() {
    let mut s = HmipScenario::build(HmipConfig {
        n_mhs: 5,
        ..HmipConfig::default()
    });
    s.run_until(SimTime::from_millis(10));
    for &mh in &s.mhs {
        assert_eq!(s.sim.shared.radio.attachment(mh), Some(s.aps[0]));
    }
}

#[test]
fn flows_route_to_distinct_hosts() {
    let mut s = HmipScenario::build(HmipConfig {
        n_mhs: 3,
        movement: MovementPlan::Parked,
        ..HmipConfig::default()
    });
    let flows: Vec<_> = (0..3)
        .map(|i| s.add_audio_64k(i, ServiceClass::RealTime))
        .collect();
    s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(3));
    s.run_until(SimTime::from_secs(5));
    for (i, &f) in flows.iter().enumerate() {
        assert!(
            s.flow_sink(f).received() > 100,
            "host {i} should have received its flow"
        );
        assert_eq!(s.flow_losses(f), 0, "parked hosts lose nothing");
    }
}

#[test]
fn parked_hosts_never_hand_over() {
    let mut s = HmipScenario::build(HmipConfig {
        movement: MovementPlan::Parked,
        ..HmipConfig::default()
    });
    s.run_until(SimTime::from_secs(10));
    assert_eq!(s.mh_agent(0).handoffs, 0);
    assert_eq!(s.par_agent().metrics.par_sessions, 0);
}

#[test]
fn wlan_scenario_serves_tcp_from_the_start() {
    let mut s = HmipScenario::wlan(WlanConfig::default());
    s.run_until(SimTime::from_secs(2));
    assert!(
        s.tcp_receiver().bytes_in_order() > 100_000,
        "transfer must be under way"
    );
    assert_eq!(s.sim.shared.radio.attachment(s.mhs[0]), Some(s.aps[0]));
}

#[test]
fn wlan_aps_share_one_router_and_prefix() {
    let s = HmipScenario::wlan(WlanConfig::default());
    let radio = &s.sim.shared.radio;
    assert_eq!(s.routers.len(), 1);
    assert_eq!(radio.ap(s.aps[0]).router, s.routers[0]);
    assert_eq!(radio.ap(s.aps[1]).router, s.routers[0]);
    assert!(fh_net::doc_subnet(1).contains(s.mh_addrs[0]));
}

#[test]
fn roaming_scenario_has_working_home_route() {
    let mut s = HmipScenario::roaming(RoamingConfig::default());
    let flow = s.add_audio_64k(0, ServiceClass::HighPriority);
    s.set_traffic_window(SimTime::from_millis(200), SimTime::from_millis(1_000));
    // The walk triggers the handover at ≈1.2 s; stop just before it.
    s.run_until(SimTime::from_millis(1_100));
    // Pre-handover: the HA intercepts and traffic arrives via MAP1 only.
    assert!(s.flow_sink(flow).received() > 30);
    assert!(s.anchor(0).tunneled > 30);
    assert!(s.anchor(1).tunneled > 30);
    assert_eq!(s.anchor(2).tunneled, 0);
}

#[test]
fn scheme_capacity_is_respected_by_builders() {
    for capacity in [0usize, 5, 100] {
        let s = HmipScenario::build(HmipConfig {
            buffer_capacity: capacity,
            ..HmipConfig::default()
        });
        assert_eq!(s.par_agent().pool().capacity(), capacity);
        assert_eq!(s.nar_agent().pool().capacity(), capacity);
    }
}

#[test]
fn custom_blackout_and_link_delay_are_applied() {
    let cfg = HmipConfig {
        l2_handoff_delay: SimDuration::from_millis(321),
        ar_link_delay: SimDuration::from_millis(17),
        ..HmipConfig::default()
    };
    let mut s = HmipScenario::build(cfg);
    let _ = s.add_audio_64k(0, ServiceClass::HighPriority);
    s.run_until(SimTime::from_secs(5));
    // The blackout is visible in the host's handover record.
    let (down, up) = s
        .handovers(0)
        .find_map(fh_net::HandoverAttempt::blackout)
        .expect("blackout");
    assert_eq!(up - down, SimDuration::from_millis(321));
    // And the inter-AR link runs at the configured delay.
    assert_eq!(
        s.sim.shared.topo.link(fh_net::LinkId(3)).spec.delay,
        SimDuration::from_millis(17)
    );
}

/// Overload survival, end to end: a byte budget far below the offered
/// load must engage the shed ladder, a blackout longer than the watchdog
/// deadline must force-resolve every session, and afterwards nothing is
/// wedged, the budget was never exceeded, and conservation still
/// balances with the sheds in the ledger.
#[test]
fn overload_sheds_deterministically_and_watchdog_unwedges_sessions() {
    let mut protocol = ProtocolConfig::with_scheme(Scheme::Dual { classify: true });
    protocol.buffer_request = 12;
    protocol.pressure.byte_budget = 2_000;
    protocol.pressure.watchdog_deadline = SimDuration::from_millis(800);
    let mut s = HmipScenario::build(HmipConfig {
        protocol,
        n_mhs: 8,
        buffer_capacity: 42,
        l2_handoff_delay: SimDuration::from_millis(1_500),
        movement: MovementPlan::OneWay,
        ..HmipConfig::default()
    });
    let classes = [
        ServiceClass::RealTime,
        ServiceClass::HighPriority,
        ServiceClass::BestEffort,
    ];
    for h in 0..8 {
        let _ = s.add_cbr_flow(h, classes[h % 3], 160, SimDuration::from_millis(10));
    }
    s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(13));
    s.run_until(SimTime::from_secs(20));
    let _ = s.finalize();
    assert!(
        s.peak_bytes_parked() <= 2_000,
        "the byte budget is a hard ceiling, peaked at {}",
        s.peak_bytes_parked()
    );
    assert_eq!(s.wedged_sessions(), 0, "no wedged state survives quiesce");
    let (par, nar) = (s.par_agent().metrics, s.nar_agent().metrics);
    let stats = &s.sim.shared.stats;
    assert!(
        par.pressure_sheds + nar.pressure_sheds > 0,
        "an 8-host blackout against a 2 kB budget must shed"
    );
    assert!(
        stats.drops(DropReason::PressureShed) > 0,
        "sheds must be ledgered under their own drop reason"
    );
    assert!(
        par.watchdog_fired + nar.watchdog_fired > 0,
        "sessions outliving the 800 ms deadline must be force-resolved"
    );
    assert_eq!(
        par.shed_order_violations + nar.shed_order_violations,
        0,
        "every shed must run with the earlier ladder rungs exhausted"
    );
    assert!(
        stats.conservation_violations().is_empty(),
        "conservation must balance with PressureShed counted: {:?}",
        stats.conservation_violations()
    );
}

#[test]
fn all_schemes_build_and_run() {
    for scheme in [
        Scheme::NoBuffer,
        Scheme::NarOnly,
        Scheme::ParOnly,
        Scheme::Dual { classify: false },
        Scheme::Dual { classify: true },
    ] {
        let mut s = HmipScenario::build(HmipConfig {
            protocol: ProtocolConfig::with_scheme(scheme),
            ..HmipConfig::default()
        });
        let f = s.add_audio_64k(0, ServiceClass::HighPriority);
        s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
        s.run_until(SimTime::from_secs(16));
        assert_eq!(s.mh_agent(0).handoffs, 1, "{scheme}: handover expected");
        let sent = s.flow_sent(f);
        assert!(sent > 600, "{scheme}: source must have run");
        assert!(
            s.flow_sink(f).received() > sent - 20,
            "{scheme}: most traffic must arrive"
        );
    }
}
