//! End-to-end protocol choreography tests against Figs 3.2–3.5.
//!
//! These run the full Fig 4.1 scenario and check that the message
//! sequence, timing, and side effects of one anticipated handover match
//! the protocol definition.

use fh_net::{render_trace, HandoffPhase, HandoverAttempt, HandoverOutcome, ServiceClass};
use fh_scenarios::{HmipConfig, HmipScenario, MovementPlan};
use fh_sim::{SimDuration, SimTime};

fn one_way() -> HmipScenario {
    let mut scenario = HmipScenario::build(HmipConfig::default());
    let _ = scenario.add_audio_64k(0, ServiceClass::HighPriority);
    scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
    scenario.run_until(SimTime::from_secs(16));
    scenario
}

/// Host 0's only handover attempt.
fn the_attempt(scenario: &HmipScenario) -> &HandoverAttempt {
    let attempts: Vec<_> = scenario.handovers(0).collect();
    assert_eq!(attempts.len(), 1, "one crossing, one attempt");
    attempts[0]
}

#[test]
fn phases_occur_in_protocol_order() {
    let scenario = one_way();
    let attempt = the_attempt(&scenario);
    assert_eq!(attempt.outcome(), Some(HandoverOutcome::Predictive));
    let order = [
        HandoffPhase::Trigger,
        HandoffPhase::SolicitSent,
        HandoffPhase::AdvReceived,
        HandoffPhase::FbuSent,
        HandoffPhase::LinkDown,
        HandoffPhase::LinkUp,
        HandoffPhase::FnaSent,
        HandoffPhase::BindingComplete,
    ];
    let mut last = attempt.start;
    for phase in order {
        let t = attempt
            .first(phase)
            .unwrap_or_else(|| panic!("phase {phase:?} missing"));
        assert!(t >= last, "{phase:?} out of order at {t}");
        last = t;
    }
}

#[test]
fn blackout_lasts_exactly_the_configured_l2_delay() {
    let scenario = one_way();
    let (down, up) = the_attempt(&scenario).blackout().expect("blackout");
    assert_eq!(up - down, SimDuration::from_millis(200));
}

#[test]
fn fback_is_received_on_the_old_link_before_detaching() {
    let scenario = one_way();
    let attempt = the_attempt(&scenario);
    let fbu = attempt.first(HandoffPhase::FbuSent).expect("fbu");
    let down = attempt.first(HandoffPhase::LinkDown).expect("down");
    // The host waits for the FBAck round trip (radio + processing) before
    // switching — strictly after FBU, well under the fallback timeout.
    assert!(down > fbu, "host must not detach the instant it sends FBU");
    assert!(
        down - fbu < SimDuration::from_millis(50),
        "detach waited past the FBAck fallback: {}",
        down - fbu
    );
}

#[test]
fn signaling_counts_match_one_anticipated_handover() {
    let scenario = one_way();
    let stats = &scenario.sim.shared.stats;
    assert_eq!(stats.control_count("RtSolPr"), 1);
    assert_eq!(stats.control_count("PrRtAdv"), 1);
    assert_eq!(stats.control_count("HI"), 1);
    assert_eq!(stats.control_count("HAck"), 1);
    assert_eq!(stats.control_count("FBU"), 1);
    assert!(stats.control_count("FBAck") >= 1);
    // Boot FNA + handover FNA.
    assert_eq!(stats.control_count("FNA"), 2);
    // Exactly one standalone BF (NAR→PAR) — the only added message (§3.3).
    assert_eq!(stats.control_count("BF"), 1);
    // No standalone buffer-management signaling: everything piggybacks.
    assert_eq!(stats.control_count("BI"), 0);
    assert_eq!(stats.control_count("BA"), 0);
    // RtSolPr+BI, HI+BR, HAck+BA, PrRtAdv+BA, FNA+BF all piggybacked.
    assert!(
        stats.piggybacked >= 5,
        "expected ≥5 piggybacked messages, got {}",
        stats.piggybacked
    );
}

#[test]
fn handover_is_lossless_when_buffers_suffice() {
    let mut scenario = HmipScenario::build(HmipConfig::default());
    let flow = scenario.add_audio_64k(0, ServiceClass::HighPriority);
    scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
    scenario.run_until(SimTime::from_secs(16));
    assert_eq!(scenario.mh_agent(0).handoffs, 1);
    assert_eq!(scenario.flow_losses(flow), 0, "no packet may be lost");
    assert_eq!(
        scenario.flow_sink(flow).duplicates(),
        0,
        "and none duplicated"
    );
}

#[test]
fn buffers_fill_during_blackout_and_drain_completely() {
    let scenario = one_way();
    let nar = scenario.nar_agent();
    assert!(nar.pool().stats.admitted > 0, "the NAR must have buffered");
    assert_eq!(
        nar.pool().stats.admitted,
        nar.pool().stats.flushed,
        "everything admitted must be flushed: {:?}",
        nar.pool().stats
    );
    assert_eq!(nar.pool().used(), 0, "no packet may linger");
    assert_eq!(scenario.par_agent().pool().used(), 0);
    assert_eq!(nar.metrics.flushes, 1);
}

#[test]
fn map_rebinding_follows_the_handover() {
    let scenario = one_way();
    let anchor = scenario.anchor(0);
    // Boot registration + post-handover registration.
    assert_eq!(anchor.cache.registrations, 2);
    let lcoa = anchor
        .cache
        .lookup(scenario.mh_addrs[0], scenario.sim.now())
        .expect("binding alive");
    assert!(
        fh_net::doc_subnet(2).contains(lcoa),
        "the binding must point at the NAR subnet after the move, got {lcoa}"
    );
}

#[test]
fn nar_learns_both_host_routes() {
    let scenario = one_way();
    let nar = scenario.nar_agent();
    let iid = 0x100;
    let ncoa = fh_net::doc_subnet(2).host(iid);
    let pcoa = fh_net::doc_subnet(1).host(iid);
    assert_eq!(nar.neighbor(ncoa), Some(scenario.mhs[0]));
    assert_eq!(
        nar.neighbor(pcoa),
        Some(scenario.mhs[0]),
        "the PCoA host route must exist for tunneled stragglers"
    );
}

#[test]
fn sessions_expire_after_their_lifetime() {
    let mut scenario = HmipScenario::build(HmipConfig::default());
    let _ = scenario.add_audio_64k(0, ServiceClass::HighPriority);
    scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
    // Handover at ~1.4 s; reservation lifetime 5 s; by 10 s both sessions
    // must have been reclaimed.
    scenario.run_until(SimTime::from_secs(16));
    assert!(scenario.par_agent().metrics.expired_sessions >= 1);
    assert!(scenario.nar_agent().metrics.expired_sessions >= 1);
}

#[test]
fn ping_pong_handovers_alternate_roles() {
    let cfg = HmipConfig {
        movement: MovementPlan::PingPong,
        ..HmipConfig::default()
    };
    let mut scenario = HmipScenario::build(cfg);
    let flow = scenario.add_audio_64k(0, ServiceClass::HighPriority);
    scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(58));
    scenario.run_until(SimTime::from_secs(60));
    let handoffs = scenario.mh_agent(0).handoffs;
    assert!(handoffs >= 4, "expected several handovers, got {handoffs}");
    // Both routers served both roles.
    let par = scenario.par_agent();
    let nar = scenario.nar_agent();
    assert!(par.metrics.par_sessions >= 2 && par.metrics.nar_sessions >= 2);
    assert!(nar.metrics.par_sessions >= 2 && nar.metrics.nar_sessions >= 2);
    // And the traffic survived every crossing.
    assert_eq!(scenario.flow_losses(flow), 0);
}

#[test]
fn no_buffer_scheme_loses_exactly_the_blackout_window() {
    let cfg = HmipConfig {
        protocol: fh_core::ProtocolConfig::with_scheme(fh_core::Scheme::NoBuffer),
        ..HmipConfig::default()
    };
    let mut scenario = HmipScenario::build(cfg);
    let flow = scenario.add_audio_64k(0, ServiceClass::HighPriority);
    scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
    scenario.run_until(SimTime::from_secs(16));
    let lost = scenario.flow_losses(flow);
    // 200 ms at 50 packets/s ≈ 10 packets, ± in-flight edges.
    assert!(
        (8..=13).contains(&lost),
        "expected ≈10 blackout losses, got {lost}"
    );
}

#[test]
fn protocol_trace_captures_the_fig_3_2_choreography() {
    let mut scenario = HmipScenario::build(HmipConfig::default());
    // The trace ring keeps the *latest* events; size it so the whole run
    // fits and the early Fig 3.2 choreography is never overwritten.
    scenario.sim.shared.stats.trace.enable(4096);
    let _ = scenario.add_audio_64k(0, ServiceClass::HighPriority);
    scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
    scenario.run_until(SimTime::from_secs(16));
    let rendered = render_trace(&scenario.sim.shared.stats.trace);
    // The Fig 3.2 messages appear, in order.
    let order = [
        "RtSolPr", "ctrl HI", "HAck", "PrRtAdv", "ctrl FBU", "FBAck", "LinkDown", "LinkUp",
        "ctrl FNA", "ctrl BF",
    ];
    let mut pos = 0;
    for needle in order {
        let found = rendered[pos..]
            .find(needle)
            .unwrap_or_else(|| panic!("{needle} missing or out of order in trace:\n{rendered}"));
        pos += found;
    }
    // Piggybacked options are flagged.
    assert!(rendered.contains("ctrl RtSolPr 68B piggyback"));
    // Tracing is bounded: nothing wrapped at this capacity, and the ring
    // never stores more than it was given.
    assert!(scenario.sim.shared.stats.trace.len() <= 4096);
    assert_eq!(scenario.sim.shared.stats.trace.overwritten(), 0);
}

#[test]
fn crossing_hosts_exercise_both_roles_simultaneously() {
    // Two hosts pass each other mid-corridor: router A is host 0's PAR and
    // host 1's NAR at the same moment. Both handovers must stay lossless.
    let cfg = HmipConfig {
        n_mhs: 2,
        movement: MovementPlan::Crossing,
        ..HmipConfig::default()
    };
    let mut scenario = HmipScenario::build(cfg);
    let f0 = scenario.add_audio_64k(0, ServiceClass::HighPriority);
    let f1 = scenario.add_audio_64k(1, ServiceClass::HighPriority);
    scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
    scenario.run_until(SimTime::from_secs(16));
    assert_eq!(scenario.mh_agent(0).handoffs, 1);
    assert_eq!(scenario.mh_agent(1).handoffs, 1);
    assert_eq!(scenario.flow_losses(f0), 0, "eastbound host lost packets");
    assert_eq!(scenario.flow_losses(f1), 0, "westbound host lost packets");
    // Each router served one session in each role.
    for agent in [scenario.par_agent(), scenario.nar_agent()] {
        assert_eq!(agent.metrics.par_sessions, 1);
        assert_eq!(agent.metrics.nar_sessions, 1);
    }
    // And everything drained.
    assert_eq!(scenario.par_agent().pool().used(), 0);
    assert_eq!(scenario.nar_agent().pool().used(), 0);
}
