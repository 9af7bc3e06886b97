//! Macro mobility: crossing MAP domains under home-agent traffic
//! (thesis chapter 2 — Mobile IPv6 + HMIPv6 working together).

use fh_core::{ProtocolConfig, Scheme};
use fh_net::{doc_subnet, FlowId, ServiceClass};
use fh_scenarios::{HmipScenario, RoamingConfig};
use fh_sim::SimTime;

/// The anchors of the roaming world, in build order.
const HA: usize = 0;
const MAP1: usize = 1;
const MAP2: usize = 2;

/// The roaming world with its one 64 kb/s high-priority flow to the
/// host's home address, sourcing from 0.5 s to 14 s.
fn world(cfg: RoamingConfig) -> (HmipScenario, FlowId) {
    let mut s = HmipScenario::roaming(cfg);
    let flow = s.add_audio_64k(0, ServiceClass::HighPriority);
    s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
    (s, flow)
}

fn run(cfg: RoamingConfig) -> (HmipScenario, FlowId) {
    let (mut s, flow) = world(cfg);
    s.run_until(SimTime::from_secs(16));
    (s, flow)
}

#[test]
fn domain_crossing_is_lossless_with_the_proposed_scheme() {
    let (s, flow) = run(RoamingConfig::default());
    assert_eq!(s.mh_agent(0).handoffs, 1);
    assert_eq!(s.flow_losses(flow), 0, "no loss across the domains");
    assert_eq!(s.flow_sink(flow).duplicates(), 0);
}

#[test]
fn home_agent_rebinds_to_the_new_regional_address() {
    let (s, _) = run(RoamingConfig::default());
    let anchor = s.anchor(HA);
    // Boot registration + post-crossing registration.
    assert_eq!(anchor.cache.registrations, 2);
    let rcoa = anchor
        .cache
        .lookup(s.mh_addrs[0], s.sim.now())
        .expect("binding alive");
    assert!(
        doc_subnet(20).contains(rcoa),
        "the RCoA must live in MAP2's prefix, got {rcoa}"
    );
}

#[test]
fn both_maps_serve_the_host_in_turn() {
    let (s, _) = run(RoamingConfig::default());
    // MAP1: boot binding + the post-handover LCoA refresh before the host
    // discovers MAP2.
    assert!(s.anchor(MAP1).cache.registrations >= 2);
    assert_eq!(s.anchor(MAP2).cache.registrations, 1);
    assert!(
        s.anchor(MAP1).tunneled > 0,
        "MAP1 carried the early traffic"
    );
    assert!(s.anchor(MAP2).tunneled > 0, "MAP2 carried the late traffic");
}

#[test]
fn interim_traffic_rides_the_old_chain() {
    // Freeze the run right after the handover but before the 1 Hz RA can
    // reveal MAP2: traffic to the home address must still arrive, via
    // HA → MAP1 → (stale LCoA) → AR1's tunnel → AR2.
    let (mut s, flow) = world(RoamingConfig::default());
    // Handover completes ≈1.41 s; run to 1.6 s.
    s.run_until(SimTime::from_millis(1_600));
    assert_eq!(s.mh_agent(0).handoffs, 1, "handover done");
    assert_eq!(
        s.anchor(MAP2).cache.registrations,
        0,
        "MAP2 not yet discovered"
    );
    let received_early = s.flow_sink(flow).received();
    assert!(
        received_early > 40,
        "traffic must keep flowing: {received_early}"
    );
    // "Losses" at a frozen instant are just in-flight packets: the
    // CN→HA→MAP1→AR1→tunnel→AR2 chain is ≈35 ms ≈ 2 packets deep.
    assert!(s.flow_losses(flow) <= 3);
}

#[test]
fn crossing_without_buffering_loses_the_blackout() {
    let cfg = RoamingConfig {
        protocol: ProtocolConfig::with_scheme(Scheme::NoBuffer),
        ..RoamingConfig::default()
    };
    let (s, flow) = run(cfg);
    let lost = s.flow_losses(flow);
    assert!(
        (8..=13).contains(&lost),
        "expected ≈10 black-out losses, got {lost}"
    );
}

#[test]
fn macro_crossing_is_deterministic() {
    let (a, flow) = run(RoamingConfig::default());
    let (b, _) = run(RoamingConfig::default());
    assert_eq!(a.flow_sink(flow).received(), b.flow_sink(flow).received());
    assert_eq!(a.sim.events_processed(), b.sim.events_processed());
}

#[test]
fn route_optimization_bypasses_the_home_agent() {
    let cfg = RoamingConfig {
        route_optimization: true,
        ..RoamingConfig::default()
    };
    let (s, flow) = run(cfg);
    assert_eq!(s.flow_losses(flow), 0, "still lossless");
    // After the correspondent learned the RCoA, traffic goes straight to
    // the MAP: the HA carries only the pre-binding trickle.
    let via_ha = s.anchor(HA).tunneled;
    let direct = s.anchor(MAP1).tunneled + s.anchor(MAP2).tunneled;
    assert!(
        via_ha < direct / 10,
        "HA should carry almost nothing with RO: ha={via_ha}, maps={direct}"
    );
    // The CN holds a live binding pointing into MAP2's region.
    let cn = s.sim.actor::<fh_scenarios::CnNode>(s.cn).expect("cn");
    let coa = cn
        .bindings
        .lookup(s.mh_addrs[0], s.sim.now())
        .expect("correspondent binding");
    assert!(doc_subnet(20).contains(coa));
}

#[test]
fn without_route_optimization_everything_rides_the_home_agent() {
    let (s, flow) = run(RoamingConfig::default());
    // Every data packet is intercepted at home.
    assert!(s.anchor(HA).tunneled >= s.flow_sink(flow).received());
}

/// The roaming world's exact counts, with and without route
/// optimization: any change to how the world is built or run moves them.
/// Both runs also pass the conservation audit and, after a quiet period
/// to 120 s, a clean leak report.
#[test]
fn roaming_world_is_pinned() {
    for (route_optimization, events, tunneled) in
        [(false, 3837, [675, 77, 600]), (true, 3854, [0, 79, 600])]
    {
        let (mut s, flow) = run(RoamingConfig {
            route_optimization,
            ..RoamingConfig::default()
        });
        assert_eq!(s.sim.events_processed(), events, "RO {route_optimization}");
        assert_eq!(s.flow_sent(flow), 675, "RO {route_optimization}");
        assert_eq!(s.flow_sink(flow).received(), 675, "RO {route_optimization}");
        assert_eq!(
            [HA, MAP1, MAP2].map(|a| s.anchor(a).tunneled),
            tunneled,
            "RO {route_optimization}: HA/MAP1/MAP2 tunneled"
        );
        s.assert_conservation();
        s.run_until(SimTime::from_secs(120));
        let leaks = s.leak_report();
        assert!(leaks.is_clean(), "RO {route_optimization}: {leaks:?}");
        assert_eq!(leaks.unresolved_hosts, 0);
    }
}
