//! Node-level failure properties: AR crash (with and without restart),
//! MH power loss mid-handover, and the post-quiesce resource-leak audit.
//!
//! The contract under test is soft-state survival: a dead node takes its
//! volatile state with it, every packet it was holding is re-accounted
//! under `Reclaimed`, surviving routers sweep the state that referenced
//! it, and after quiesce nothing — no session, reservation, route or
//! keyed timer — is left behind.

use fh_net::{NodeFaultSpec, ServiceClass};
use fh_scenarios::experiments;
use fh_scenarios::{HmipConfig, HmipScenario, MovementPlan};
use fh_sim::{SimDuration, SimTime};

/// Proposed-scheme config with soft-state lifetimes armed: host routes
/// expire after 2 s unrefreshed, silent peer routers are swept after 2 s.
fn soft_state_config() -> HmipConfig {
    let mut protocol = fh_core::ProtocolConfig::proposed();
    protocol.buffer_request = 40;
    protocol.host_route_lifetime = SimDuration::from_secs(2);
    protocol.dead_peer_timeout = SimDuration::from_secs(2);
    HmipConfig {
        protocol,
        n_mhs: 1,
        buffer_capacity: 40,
        movement: MovementPlan::OneWay,
        seed: 2003,
        ..HmipConfig::default()
    }
}

#[test]
fn nar_crash_mid_handover_reclaims_everything() {
    // The NAR dies at 1.3 s — mid black-out (≈1.21–1.41 s), while it is
    // holding granted buffer space and parked packets for the host.
    let cfg = HmipConfig {
        nar_fault: NodeFaultSpec::crash(SimTime::from_millis(1_300)),
        ..soft_state_config()
    };
    let mut s = HmipScenario::build(cfg);
    let f = s.add_audio_128k(0, ServiceClass::HighPriority);
    s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(5));
    s.run_until(SimTime::from_secs(13));

    let stats = &s.sim.shared.stats;
    assert!(!s.nar_agent().is_alive());
    assert_eq!(s.nar_agent().metrics.crashes, 1);
    // The wiped buffer and the in-flight traffic that kept arriving at
    // the dead router are re-accounted, not lost.
    assert!(
        stats.drops(fh_net::DropReason::Reclaimed) > 0,
        "crash must reclaim buffered/in-flight packets: {:?}",
        stats.drops_by_reason()
    );
    // The surviving PAR noticed the silence and swept the sessions that
    // referenced the dead peer.
    assert!(
        s.par_agent().metrics.dead_peer_reclaims > 0 || s.par_agent().metrics.expired_sessions > 0,
        "PAR must not keep state pointing at a dead NAR"
    );
    assert!(s.flow_losses(f) > 0, "a dead NAR costs packets");

    // No wedge: every attempt resolves one way or the other and the run
    // settles into a fully audited, leak-free state.
    let failed = s.finalize();
    assert_eq!(
        s.unresolved_handovers(),
        0,
        "no attempt may stay open (failed={failed})"
    );
    s.assert_conservation();
    let report = s.leak_report();
    assert!(
        report.is_clean(),
        "residual state after quiesce: {report:?}"
    );
}

#[test]
fn nar_crash_and_restart_recovers_service() {
    // Crash after the handover completes (2 s), cold restart one second
    // later: the restarted router has no host routes, so delivery resumes
    // only once the host re-registers off a router advertisement.
    let cfg = HmipConfig {
        nar_fault: NodeFaultSpec::crash_restart(SimTime::from_secs(2), SimDuration::from_secs(1)),
        ..soft_state_config()
    };
    let mut s = HmipScenario::build(cfg);
    let f = s.add_audio_128k(0, ServiceClass::HighPriority);
    s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(8));
    s.run_until(SimTime::from_secs(16));

    assert!(s.nar_agent().is_alive(), "the NAR must be back");
    assert_eq!(s.nar_agent().metrics.crashes, 1);
    assert_eq!(s.mh_agent(0).handoffs, 1);
    // Traffic died while the router was down…
    assert!(s.flow_losses(f) > 0, "the outage must cost packets");
    // …and resumed after the restart: the sink keeps receiving well past
    // the outage window (crash 2 s, restart 3 s, re-registration ≤ ~4 s).
    let last_arrival = s.flow_sink(f).last_arrival;
    assert!(
        last_arrival > Some(SimTime::from_secs(6)),
        "delivery must resume after the restart: last={last_arrival:?}"
    );

    let failed = s.finalize();
    assert_eq!(failed, 0, "the pre-crash handover had already resolved");
    s.assert_conservation();
    let report = s.leak_report();
    assert!(
        report.is_clean(),
        "residual state after quiesce: {report:?}"
    );
}

#[test]
fn mh_power_loss_mid_handover_frees_the_orphaned_buffer() {
    // The host loses power at 1.25 s — after the FBU, before attaching at
    // the NAR. The NAR is left holding a granted reservation and parked
    // packets for a host that will never arrive: the classic orphaned
    // buffer. Soft-state lifetimes must reclaim all of it.
    let mut cfg = HmipConfig {
        mh_fault: NodeFaultSpec::power_off(SimTime::from_millis(1_250)),
        ..soft_state_config()
    };
    // Keep the dead-peer sweep out of the way (both routers are healthy
    // here): the *reservation lifetime* must be what frees the buffer.
    cfg.protocol.dead_peer_timeout = SimDuration::from_secs(10);
    let mut s = HmipScenario::build(cfg);
    let f = s.add_audio_128k(0, ServiceClass::HighPriority);
    s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(5));
    s.run_until(SimTime::from_secs(13));

    assert!(s.mh_agent(0).is_powered_off());
    let stats = &s.sim.shared.stats;
    // The orphaned reservations expired and released their packets.
    assert!(
        stats.drops(fh_net::DropReason::LifetimeExpired) > 0,
        "orphaned buffers must expire: {:?}",
        stats.drops_by_reason()
    );
    assert_eq!(s.nar_agent().pool().used(), 0, "no packet may stay parked");
    assert_eq!(s.par_agent().pool().used(), 0);
    assert!(s.flow_losses(f) > 0, "a dead host stops receiving");

    let _failed = s.finalize();
    s.assert_conservation();
    // With soft host routes, even the routes the dead host left behind
    // expire — the audit would flag them as stale under hard state.
    let report = s.leak_report();
    assert!(
        report.is_clean(),
        "residual state after quiesce: {report:?}"
    );
}

#[test]
fn node_faults_are_opt_in() {
    assert!(NodeFaultSpec::default().is_noop());
    assert!(!NodeFaultSpec::crash(SimTime::from_secs(1)).is_noop());
    assert!(!NodeFaultSpec::power_off(SimTime::from_secs(1)).is_noop());
}

#[test]
fn storm_sweep_is_thread_invariant_and_leak_free() {
    // Two storm sizes at two worker counts: identical audited outcomes.
    // Every point runs its own conservation and leak audits internally —
    // a leak panics the sweep, so completion is itself the audit.
    let sizes = [6, 12];
    let a = experiments::storm_sweep(&sizes, 5, 1);
    let b = experiments::storm_sweep(&sizes, 5, 2);
    assert_eq!(a.points.len(), b.points.len());
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.n_mhs, pb.n_mhs);
        for (sa, sb) in [(&pa.fmipv6, &pb.fmipv6), (&pa.enhanced, &pb.enhanced)] {
            assert_eq!(sa.class_drops, sb.class_drops, "mhs={}", pa.n_mhs);
            assert_eq!(sa.failed, sb.failed);
            assert_eq!(sa.expired, sb.expired);
            assert_eq!(sa.reclaimed, sb.reclaimed);
            assert_eq!(sa.routes_expired, sb.routes_expired);
            assert_eq!(sa.events, sb.events, "mhs={}", pa.n_mhs);
        }
        // No wedged handover at any storm size, and the enhanced scheme
        // must beat plain FMIPv6 under overload (Fig 4.2 at scale).
        assert_eq!(pa.fmipv6.failed, 0);
        assert_eq!(pa.enhanced.failed, 0);
        let fmipv6: u64 = pa.fmipv6.class_drops.iter().sum();
        let enhanced: u64 = pa.enhanced.class_drops.iter().sum();
        assert!(
            enhanced < fmipv6,
            "enhanced must drop less at mhs={}: {enhanced} vs {fmipv6}",
            pa.n_mhs
        );
    }
}
