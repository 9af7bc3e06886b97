//! Reproducibility: identical seeds replay identical simulations, and the
//! simulation is insensitive to how the caller slices `run_until`.

use fh_core::ProtocolConfig;
use fh_net::ServiceClass;
use fh_scenarios::{HmipConfig, HmipScenario, MovementPlan, WlanConfig};
use fh_sim::{SimDuration, SimTime};

/// Fingerprint of a finished run: everything an experiment would read.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    losses: Vec<u64>,
    delays: Vec<(u64, u64)>, // (seq, delay ns) of flow 0
    handoffs: u64,
    control_total: u64,
    control_bytes: u64,
    events: u64,
}

fn fingerprint(seed: u64, stepped: bool) -> Fingerprint {
    let cfg = HmipConfig {
        protocol: ProtocolConfig::proposed(),
        n_mhs: 3,
        buffer_capacity: 30,
        movement: MovementPlan::PingPong,
        seed,
        ..HmipConfig::default()
    };
    let mut scenario = HmipScenario::build(cfg);
    let flows: Vec<_> = (0..3)
        .map(|i| scenario.add_audio_64k(i, ServiceClass::HighPriority))
        .collect();
    scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(28));
    let end = SimTime::from_secs(30);
    if stepped {
        let mut t = SimTime::ZERO;
        while t < end {
            t = (t + SimDuration::from_millis(321)).min(end);
            scenario.run_until(t);
        }
    } else {
        scenario.run_until(end);
    }
    Fingerprint {
        losses: flows.iter().map(|&f| scenario.flow_losses(f)).collect(),
        delays: scenario
            .flow_sink(flows[0])
            .delays()
            .map(|(s, d)| (s, d.as_nanos()))
            .collect(),
        handoffs: (0..3).map(|i| scenario.mh_agent(i).handoffs).sum(),
        control_total: scenario.sim.shared.stats.control_total(),
        control_bytes: scenario.sim.shared.stats.control_bytes,
        events: scenario.sim.events_processed(),
    }
}

#[test]
fn identical_seeds_replay_identically() {
    let a = fingerprint(424242, false);
    let b = fingerprint(424242, false);
    assert_eq!(a, b);
}

#[test]
fn run_until_slicing_does_not_change_results() {
    let whole = fingerprint(7, false);
    let sliced = fingerprint(7, true);
    assert_eq!(whole, sliced);
}

#[test]
fn different_seeds_still_satisfy_invariants() {
    for seed in [1, 2, 3, 99, 12345] {
        let f = fingerprint(seed, false);
        assert!(f.handoffs >= 3, "seed {seed}: hosts must hand over");
        assert!(
            f.losses.iter().all(|&l| l <= 2),
            "seed {seed}: high-priority flows should be near-lossless, got {:?}",
            f.losses
        );
        assert!(
            f.events > 10_000,
            "seed {seed}: the run must be substantial"
        );
    }
}

#[test]
fn tcp_scenario_is_deterministic_too() {
    let run = || {
        let mut s = HmipScenario::wlan(WlanConfig {
            seed: 5,
            ..WlanConfig::default()
        });
        s.run_until(SimTime::from_secs(10));
        (
            s.tcp_receiver().bytes_in_order(),
            s.tcp_sender().trace.sent.len(),
            s.tcp_sender().trace.timeouts.clone(),
            s.sim.events_processed(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn seed_changes_timing_but_not_protocol_outcomes() {
    // The seed feeds RA jitter; the handover itself must stay correct.
    let a = fingerprint(1, false);
    let b = fingerprint(2, false);
    assert_eq!(a.handoffs, b.handoffs, "same geometry, same handoffs");
    // Both lossless (or nearly), regardless of jitter.
    assert!(a.losses.iter().sum::<u64>() <= 6);
    assert!(b.losses.iter().sum::<u64>() <= 6);
}

#[test]
fn invariants_hold_across_a_seed_sweep() {
    // A broad robustness sweep: many seeds, both figure topologies, the
    // key invariants that must never depend on timing jitter.
    for seed in [11u64, 222, 3333, 44444, 555555] {
        let cfg = HmipConfig {
            protocol: ProtocolConfig::proposed(),
            n_mhs: 2,
            buffer_capacity: 40,
            movement: MovementPlan::OneWay,
            seed,
            ..HmipConfig::default()
        };
        let mut s = HmipScenario::build(cfg);
        let flows: Vec<_> = (0..2)
            .map(|i| s.add_audio_64k(i, ServiceClass::HighPriority))
            .collect();
        s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
        s.run_until(SimTime::from_secs(16));
        for (i, &f) in flows.iter().enumerate() {
            assert_eq!(
                s.flow_losses(f),
                0,
                "seed {seed}: host {i} must be lossless"
            );
            assert_eq!(s.flow_sink(f).duplicates(), 0, "seed {seed}: no dups");
        }
        assert_eq!(s.par_agent().pool().used(), 0, "seed {seed}: PAR drained");
        assert_eq!(s.nar_agent().pool().used(), 0, "seed {seed}: NAR drained");
        assert_eq!(
            s.par_agent().pool().unreserved(),
            s.par_agent().pool().capacity(),
            "seed {seed}: reservations reclaimed"
        );
    }
}

/// The parallel sweep engine must be a pure reordering of work: the same
/// grid at 1, 2 and 8 worker threads has to produce byte-identical
/// results (the Debug rendering pins every field, including the event
/// counters).
#[test]
fn buffer_utilization_sweep_is_thread_count_invariant() {
    use fh_scenarios::experiments::{buffer_utilization, BufferUtilizationParams};
    let params = BufferUtilizationParams {
        max_mhs: 6,
        buffer_capacity: 42,
        buffer_request: 12,
        seed: 42,
    };
    let sequential = format!("{:?}", buffer_utilization(params, 1));
    for threads in [2, 8] {
        let parallel = format!("{:?}", buffer_utilization(params, threads));
        assert_eq!(
            sequential.as_bytes(),
            parallel.as_bytes(),
            "buffer_utilization diverged at {threads} threads"
        );
    }
}

/// Same contract for a sweep whose grid mixes two series per x point
/// (with/without buffering share a derived seed).
#[test]
fn blackout_sweep_is_thread_count_invariant() {
    use fh_scenarios::experiments::blackout_sweep;
    let grid = [60u64, 120, 240];
    let sequential = format!("{:?}", blackout_sweep(&grid, 5, 1));
    for threads in [2, 8] {
        let parallel = format!("{:?}", blackout_sweep(&grid, 5, threads));
        assert_eq!(
            sequential.as_bytes(),
            parallel.as_bytes(),
            "blackout_sweep diverged at {threads} threads"
        );
    }
}
