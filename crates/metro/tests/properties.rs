//! Property tests for the sharded metro kernel.
//!
//! Two invariants carry the whole design:
//!
//! 1. **Epoch safety.** No cross-domain message may arrive inside the
//!    epoch that sent it — the epoch executor *asserts* `arrival >=
//!    epoch_end` at every barrier and panics on a violation, so every
//!    green random run below is a proof over that topology and traffic
//!    that the boundary latency really is a conservative lookahead.
//! 2. **Schedule independence.** The sequential execution (one worker
//!    walking the shards) and the sharded one (many workers) must
//!    produce byte-identical artifacts and identical tallies.

use fh_core::Scheme;
use fh_metro::{run, MetroConfig};
use fh_sim::{SimDuration, SimTime};
use fh_telemetry::report::fnv1a64;
use proptest::prelude::*;

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::NoBuffer),
        Just(Scheme::NarOnly),
        Just(Scheme::ParOnly),
        Just(Scheme::Dual { classify: false }),
        Just(Scheme::Dual { classify: true }),
    ]
}

/// A random but valid metro deployment, kept small enough that a case
/// runs in milliseconds: up to 5 domains, up to 120 hosts, a boundary
/// latency from 1 to 20 ms, and a horizon of 1.2 simulated seconds.
fn arb_config() -> impl Strategy<Value = MetroConfig> {
    (
        (1u32..6, 1u32..121),
        (1u64..21, 0.0..0.6f64),
        (20u64..300, 200u64..1200),
        arb_scheme(),
        (1u32..33, 5u64..60),
    )
        .prop_map(
            |(
                (domains, hosts),
                (latency_ms, remote),
                (blackout_ms, residence_ms),
                scheme,
                (req, interval_ms),
            )| {
                MetroConfig {
                    domains,
                    hosts,
                    boundary_latency: SimDuration::from_millis(latency_ms),
                    remote_fraction: remote,
                    blackout: SimDuration::from_millis(blackout_ms),
                    mean_residence: SimDuration::from_millis(residence_ms),
                    scheme,
                    buffer_request: req,
                    packet_interval: SimDuration::from_millis(interval_ms),
                    traffic_start: SimTime::from_millis(50),
                    traffic_stop: SimTime::from_millis(900),
                    horizon: SimTime::from_millis(1_200),
                    ..MetroConfig::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Epoch safety over random topologies and traffic: the run
    /// completes (the barrier assert never fires), every boundary
    /// packet sent is received, and the packet-conservation equation
    /// balances in every class.
    #[test]
    fn random_deployments_respect_the_lookahead(cfg in arb_config()) {
        let r = run(&cfg, 4);
        let rx: u64 = r.domains.iter().map(|d| d.boundary_rx.0).sum();
        prop_assert_eq!(rx, r.boundary_packets, "every crossing is received");
        prop_assert_eq!(r.report.messages, r.boundary_packets);
        prop_assert!(
            r.counts.conservation_violations().is_empty(),
            "conservation: {:?}", r.counts.conservation_violations()
        );
        prop_assert!(r.leak_clean, "every domain pool must drain");
        if cfg.domains == 1 {
            prop_assert_eq!(r.boundary_packets, 0);
        }
    }

    /// Sequential vs sharded execution: identical artifacts, tallies
    /// and registries at every thread count tried.
    #[test]
    fn sequential_and_sharded_runs_are_identical(cfg in arb_config()) {
        let seq = run(&cfg, 1);
        let par = run(&cfg, 8);
        prop_assert_eq!(seq.artifact(), par.artifact());
        prop_assert_eq!(seq.counts, par.counts);
        prop_assert_eq!(seq.events_processed, par.events_processed);
        prop_assert_eq!(seq.handovers, par.handovers);
        prop_assert_eq!(
            seq.registry.counter_value("metro.events"),
            par.registry.counter_value("metro.events")
        );
    }
}

/// FNV-1a-64 of `run(cfg, 1).artifact()` at 2 000 hosts for every
/// [`Scheme::ALL`] member on one and on four domains, recorded on the
/// `EventQueue` kernel before the lane queue replaced it. Blackouts are
/// long and reservations short so buffers overflow and the schemes
/// diverge. The artifact carries per-domain event counts, per-class
/// drops and p99 delays, so a pop-order drift that changes any outcome
/// — a lane push overtaking a heap push, say — moves one of these.
const ARTIFACT_PINS: [(u32, [u64; 6]); 2] = [
    (
        1,
        [
            0x44d9_2465_757c_48dd,
            0xab6a_a1bb_294c_cb88,
            0x71b9_0e96_14ef_5c91,
            0x71b9_0e96_14ef_5c91,
            0x4b4e_6df8_eb14_cf69,
            0x44d9_2465_757c_48dd,
        ],
    ),
    (
        4,
        [
            0x927e_e834_ca1b_9ccd,
            0x2431_d19f_31ad_56e0,
            0x9028_a915_ea57_ab9b,
            0x9028_a915_ea57_ab9b,
            0x5aee_b963_d4ac_7b78,
            0x927e_e834_ca1b_9ccd,
        ],
    ),
];

#[test]
fn artifacts_match_the_pinned_pop_order() {
    for (domains, pins) in ARTIFACT_PINS {
        for (scheme, want) in Scheme::ALL.into_iter().zip(pins) {
            let cfg = MetroConfig {
                hosts: 2_000,
                domains,
                scheme,
                blackout: SimDuration::from_millis(400),
                mean_residence: SimDuration::from_millis(1_500),
                buffer_request: 4,
                ..MetroConfig::default()
            };
            let got = fnv1a64(run(&cfg, 1).artifact().as_bytes());
            assert_eq!(
                got, want,
                "{scheme:?} on {domains} domain(s): artifact hashes to {got:#018x}"
            );
        }
    }
}
