//! Chaos-engineering properties: deterministic fault injection against
//! the hardened (retransmitting) signaling stack.
//!
//! The contract under test is the degradation ladder: injected loss may
//! cost retransmissions (predictive, slower), then anticipation
//! (reactive), but a handover must never wedge — and every packet the
//! sources emitted must be accounted for by the conservation audit.

use fh_core::{ProtocolConfig, RetransmitConfig};
use fh_net::{FaultSpec, HandoverOutcome, ServiceClass};
use fh_scenarios::experiments::{self, CHAOS_LOSS_PROBS};
use fh_scenarios::{HmipConfig, HmipScenario, MovementPlan};
use fh_sim::SimTime;
use proptest::prelude::*;

mod common;

fn hardened_protocol() -> ProtocolConfig {
    let mut protocol = ProtocolConfig::proposed();
    protocol.buffer_request = 40;
    protocol.rtx = RetransmitConfig::hardened();
    protocol
}

/// One one-way world with the given protocol and faults, its flow added
/// and not yet run.
fn one_way(
    protocol: ProtocolConfig,
    ar_link_fault: FaultSpec,
    wireless_fault: FaultSpec,
    seed: u64,
) -> HmipScenario {
    let cfg = HmipConfig {
        protocol,
        n_mhs: 1,
        buffer_capacity: 40,
        movement: MovementPlan::OneWay,
        seed,
        ar_link_fault,
        wireless_fault,
        ..HmipConfig::default()
    };
    let mut s = HmipScenario::build(cfg);
    let _ = s.add_audio_64k(0, ServiceClass::HighPriority);
    s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(13));
    s
}

/// A hardened [`one_way`] after the run and the end-of-run finalize
/// pass.
fn run_one_way(
    ar_link_fault: FaultSpec,
    wireless_fault: FaultSpec,
    seed: u64,
) -> (HmipScenario, u64) {
    let mut s = one_way(hardened_protocol(), ar_link_fault, wireless_fault, seed);
    s.run_until(SimTime::from_secs(16));
    let failed = s.finalize();
    (s, failed)
}

#[test]
fn handover_terminates_under_total_control_plane_loss() {
    // 100 % loss on the PAR↔NAR wire: the HI/HAck negotiation can never
    // complete, and the retry budget bounds how long the PAR tries.
    let (s, failed) = run_one_way(FaultSpec::with_loss(1.0), FaultSpec::default(), 2003);

    // The PAR sent the initial HI plus exactly `max_retries` copies, then
    // gave up — no unbounded retry storm.
    let max_retries = u64::from(RetransmitConfig::hardened().backoff.max_retries);
    assert_eq!(
        s.sim.shared.stats.control_count("HI"),
        1 + max_retries,
        "HI sends must be capped by the retry budget"
    );
    assert_eq!(s.par_agent().metrics.hi_exhausted, 1);

    // The exchange degraded instead of wedging: the host still moved,
    // re-attached at the NAR, and resolved its attempt.
    assert_eq!(s.mh_agent(0).handoffs, 1, "host must still hand over");
    assert_eq!(s.sim.shared.radio.attachment(s.mhs[0]), Some(s.aps[1]));
    assert_eq!(failed, 0, "no attempt may stay open at end of run");
    assert_eq!(s.unresolved_handovers(), 0);

    // Every data packet is accounted: delivered, or dropped with a reason
    // (the tunnel to the NAR crossed the fully-faulted wire).
    s.assert_conservation();
}

/// The total-loss run's handover as the Chrome trace exports it: the
/// solicit retries outlast the walk to the cell edge, so the radio hands
/// off on its own and the attempt resolves reactively.
#[test]
fn control_plane_loss_exports_a_reactive_span() {
    let loss = FaultSpec::with_loss(1.0);
    let mut s = one_way(hardened_protocol(), loss, FaultSpec::default(), 2003);
    s.enable_telemetry(1 << 12);
    s.run_until(SimTime::from_secs(16));
    assert_eq!(s.finalize(), 0);
    assert_eq!(
        common::exported_spans(&s, 0),
        [
            "handover 1200000.000+1801397.000 reactive",
            "trigger 1200000.000",
            "solicit-sent 1200000.000",
            "link-down 2450000.000",
            "link-up 2650000.000",
            "binding-complete 3015012.200",
        ]
    );
}

/// The same loss with a one-retry budget: the solicit exchange exhausts
/// before the cell edge (`degraded`), and what follows lands on the same
/// attempt.
#[test]
fn exhausted_solicit_exports_a_degraded_span() {
    let mut protocol = hardened_protocol();
    protocol.rtx.backoff.max_retries = 1;
    let loss = FaultSpec::with_loss(1.0);
    let mut s = one_way(protocol, loss, FaultSpec::default(), 2003);
    s.enable_telemetry(1 << 12);
    s.run_until(SimTime::from_secs(16));
    assert_eq!(s.finalize(), 0);
    assert_eq!(
        common::exported_spans(&s, 0),
        [
            "handover 1200000.000+1801397.000 reactive",
            "trigger 1200000.000",
            "solicit-sent 1200000.000",
            "degraded 1800000.000",
            "link-down 2450000.000",
            "link-up 2650000.000",
            "binding-complete 3015012.200",
        ]
    );
}

#[test]
fn recovery_under_moderate_loss_stays_predictive_or_reactive() {
    // 10 % loss on wire and air: retransmissions absorb the loss; every
    // attempt must resolve on one of the two working rungs of the ladder.
    let (s, failed) = run_one_way(FaultSpec::with_loss(0.10), FaultSpec::with_loss(0.10), 7);
    assert_eq!(s.mh_agent(0).handoffs, 1);
    assert_eq!(failed, 0);
    let outcomes = s.outcomes();
    let resolved: u64 = outcomes
        .iter()
        .filter(|(o, _)| *o != HandoverOutcome::Failed)
        .map(|&(_, n)| n)
        .sum();
    assert!(resolved >= 1, "the attempt must classify: {outcomes:?}");
    assert_eq!(s.outcome_count_failed(), 0);
    s.assert_conservation();
}

// Small extension trait so the test reads naturally.
trait FailedCount {
    fn outcome_count_failed(&self) -> u64;
}
impl FailedCount for HmipScenario {
    fn outcome_count_failed(&self) -> u64 {
        self.outcomes()
            .iter()
            .find(|(o, _)| *o == HandoverOutcome::Failed)
            .map_or(0, |&(_, n)| n)
    }
}

#[test]
fn chaos_sweep_completes_with_zero_wedged_handovers() {
    // The acceptance bound: loss up to 20 % on the PAR↔NAR wire and both
    // air interfaces. Every point must finish with all attempts resolved
    // (the conservation audit runs inside the sweep and panics on leaks).
    let r = experiments::chaos_sweep(&CHAOS_LOSS_PROBS, 2003, 2);
    assert_eq!(r.points.len(), CHAOS_LOSS_PROBS.len());
    for p in &r.points {
        assert_eq!(p.failed, 0, "wedged handover at loss {}: {:?}", p.loss, p);
        assert!(
            p.predictive + p.reactive >= 3,
            "ping-pong must keep handing over at loss {}: {:?}",
            p.loss,
            p
        );
    }
    // The zero-loss point is clean chaos plumbing: no fault drops, no
    // retransmissions, everything predictive.
    let clean = &r.points[0];
    assert_eq!(clean.fault_drops, 0);
    assert_eq!(clean.retransmissions, 0);
    assert_eq!(clean.reactive, 0);
    // Faults must actually bite at the top of the sweep.
    let worst = r.points.last().expect("points");
    assert!(worst.fault_drops > 0, "20 % loss must drop packets");
}

#[test]
fn faults_and_retransmissions_are_opt_in() {
    // A default build must not arm fault state or retry timers: the
    // faithful thesis figures depend on the draft's one-shot signaling.
    let cfg = HmipConfig::default();
    assert!(cfg.ar_link_fault.is_noop());
    assert!(cfg.wireless_fault.is_noop());
    assert!(!cfg.protocol.rtx.enabled);
    // Node faults and soft-state lifetimes are opt-in too: by default no
    // node crashes, host routes are hard state, and no dead-peer sweep
    // (or any other new timer) perturbs the byte-identical repro runs.
    assert!(cfg.par_fault.is_noop());
    assert!(cfg.nar_fault.is_noop());
    assert!(cfg.mh_fault.is_noop());
    assert_eq!(cfg.protocol.host_route_lifetime, fh_sim::SimDuration::MAX);
    assert_eq!(cfg.protocol.dead_peer_timeout, fh_sim::SimDuration::MAX);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Termination is seed-independent: whatever the fault stream phase,
    /// a fully-faulted control wire ends with a bounded HI count, a
    /// completed handover and a clean audit.
    #[test]
    fn total_control_loss_terminates_for_any_seed(seed in 0u64..1_000_000) {
        let (s, failed) = run_one_way(FaultSpec::with_loss(1.0), FaultSpec::default(), seed);
        let max_retries = u64::from(RetransmitConfig::hardened().backoff.max_retries);
        prop_assert_eq!(s.sim.shared.stats.control_count("HI"), 1 + max_retries);
        prop_assert_eq!(s.mh_agent(0).handoffs, 1);
        prop_assert_eq!(failed, 0);
        s.assert_conservation();
    }
}
