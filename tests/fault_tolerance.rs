//! Protocol robustness: signaling messages lost on the inter-router link.
//!
//! Fast handover is an *optimization*; losing its messages must degrade a
//! handover to the unanticipated path (more loss, no protocol deadlock),
//! never wedge the hosts or leak buffer space.

use fh_net::{LinkId, ServiceClass};
use fh_scenarios::{HmipConfig, HmipScenario};
use fh_sim::SimTime;

mod common;

/// The PAR↔NAR link is the fourth one built in `HmipScenario`.
const AR_LINK: LinkId = LinkId(3);

fn scenario() -> HmipScenario {
    let mut s = HmipScenario::build(HmipConfig::default());
    let _ = s.add_audio_64k(0, ServiceClass::HighPriority);
    s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
    s
}

#[test]
fn lost_hi_degrades_to_an_unanticipated_handover() {
    let mut s = scenario();
    // The HI is the first packet the PAR puts on the inter-AR link.
    let par = s.routers[0];
    s.sim.shared.topo.link_mut(AR_LINK).inject_drops(par, 1);
    s.run_until(SimTime::from_secs(16));
    // The anticipation failed: no PrRtAdv ever reached the host…
    assert_eq!(s.sim.shared.stats.control_count("PrRtAdv"), 0);
    // …but the radio saved itself at the coverage edge and the host
    // re-registered through router discovery.
    assert_eq!(s.mh_agent(0).handoffs, 1, "recovery must still count");
    assert_eq!(
        s.sim.shared.radio.attachment(s.mhs[0]),
        Some(s.aps[1]),
        "host ends up attached at the NAR"
    );
    // The MAP points at the new address, so traffic flows again.
    let bound = s
        .anchor(0)
        .cache
        .lookup(s.mh_addrs[0], s.sim.now())
        .expect("binding");
    assert!(fh_net::doc_subnet(2).contains(bound));
    // The outage costs real packets (no buffering happened), but service
    // resumes: losses stay far below the total.
    let flow = fh_net::FlowId(1);
    let lost = s.flow_losses(flow);
    let sent = s.flow_sent(flow);
    assert!(lost > 5, "an unanticipated handover is not free: {lost}");
    assert!(
        lost < sent / 4,
        "service must resume after recovery: {lost} of {sent}"
    );
}

/// The lost-HI run's handover as the Chrome trace exports it: a
/// reactive attempt with no PrRtAdv, FBU or FNA marks.
#[test]
fn lost_hi_exports_a_reactive_span() {
    let mut s = scenario();
    s.enable_telemetry(1 << 12);
    let par = s.routers[0];
    s.sim.shared.topo.link_mut(AR_LINK).inject_drops(par, 1);
    s.run_until(SimTime::from_secs(16));
    assert_eq!(
        common::exported_spans(&s, 0),
        [
            "handover 1200000.000+1801702.000 reactive",
            "trigger 1200000.000",
            "solicit-sent 1200000.000",
            "link-down 2450000.000",
            "link-up 2650000.000",
            "binding-complete 3015057.200",
        ]
    );
}

#[test]
fn lost_hack_leaves_no_stranded_buffer_space() {
    let mut s = scenario();
    let nar = s.routers[1];
    // The HAck is the first packet the NAR puts on the link.
    s.sim.shared.topo.link_mut(AR_LINK).inject_drops(nar, 1);
    s.run_until(SimTime::from_secs(16));
    // The NAR granted space when it processed the HI; the host never
    // completed the anticipated handover, so that session must have been
    // reclaimed by its lifetime.
    assert_eq!(s.nar_agent().pool().used(), 0, "no stranded packets");
    assert_eq!(
        s.nar_agent().pool().unreserved(),
        s.nar_agent().pool().capacity(),
        "no stranded reservations"
    );
    assert_eq!(s.mh_agent(0).handoffs, 1, "host still recovered");
}

#[test]
fn lost_bf_relay_expires_the_par_buffer_instead_of_leaking() {
    let mut s = HmipScenario::build(HmipConfig::default());
    // Best-effort traffic is what lands in the PAR's buffer (Table 3.3
    // case 1.c), so a lost BF strands exactly those packets.
    let _ = s.add_audio_128k(0, ServiceClass::BestEffort);
    let _ = s.add_audio_128k(0, ServiceClass::HighPriority);
    s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
    // Let the negotiation finish (HAck ≈ 1.205 s) *and* the BufferFull
    // spill-back pass (≈1.31 s); the next NAR→PAR packet is the BF relay
    // triggered by the FNA at ≈1.41 s — make that one vanish.
    s.run_until(SimTime::from_millis(1_390));
    let nar = s.routers[1];
    s.sim.shared.topo.link_mut(AR_LINK).inject_drops(nar, 1);
    s.run_until(SimTime::from_secs(16));
    assert_eq!(s.mh_agent(0).handoffs, 1);
    // The PAR never got the flush order: its buffered packets expired with
    // the reservation (counted, not leaked).
    assert!(
        s.sim
            .shared
            .stats
            .drops(fh_net::DropReason::LifetimeExpired)
            > 0,
        "stranded PAR packets must be reclaimed via the lifetime"
    );
    assert_eq!(s.par_agent().pool().used(), 0);
    assert_eq!(
        s.par_agent().pool().unreserved(),
        s.par_agent().pool().capacity()
    );
}

#[test]
fn repeated_signaling_loss_never_deadlocks() {
    // Drop the first four packets in each direction: HI, retries, HAck…
    // the default protocol has no retransmissions (faithful to the draft;
    // hardening via `RetransmitConfig::hardened()` is opt-in — see
    // tests/chaos.rs), so the host must always fall back to the
    // unanticipated path.
    let mut s = scenario();
    let par = s.routers[0];
    let nar = s.routers[1];
    {
        let link = s.sim.shared.topo.link_mut(AR_LINK);
        link.inject_drops(par, 4);
        link.inject_drops(nar, 4);
    }
    s.run_until(SimTime::from_secs(16));
    assert_eq!(s.mh_agent(0).handoffs, 1);
    assert_eq!(s.sim.shared.radio.attachment(s.mhs[0]), Some(s.aps[1]));
    // Still making progress at the end of the run.
    let flow = fh_net::FlowId(1);
    let sent = s.flow_sent(flow);
    let received = s.flow_sink(flow).received();
    assert!(received > sent * 3 / 4, "{received} of {sent}");
}
