//! TCP behaviour across a pure link-layer handoff (§4.2.4, Figs 4.12–4.14).

use fh_core::{ProtocolConfig, Scheme};
use fh_scenarios::{experiments, HmipScenario, WlanConfig};
use fh_sim::SimTime;

fn run(buffering: bool) -> HmipScenario {
    let protocol = if buffering {
        ProtocolConfig::proposed()
    } else {
        ProtocolConfig::with_scheme(Scheme::NoBuffer)
    };
    let mut scenario = HmipScenario::wlan(WlanConfig {
        protocol,
        seed: 17,
        ..WlanConfig::default()
    });
    scenario.run_until(SimTime::from_secs(12));
    scenario
}

#[test]
fn blackout_without_buffering_forces_a_coarse_timeout() {
    let scenario = run(false);
    let tx = scenario.tcp_sender();
    assert!(
        !tx.trace.timeouts.is_empty(),
        "losing a window must trigger the RTO"
    );
    // The coarse timers make recovery take 1–1.5 s (thesis §4.2.4).
    let (down, _) = scenario
        .handovers(0)
        .find_map(fh_net::HandoverAttempt::blackout)
        .expect("blackout");
    let rto = tx.trace.timeouts[0];
    let gap = (rto - down).as_secs_f64();
    assert!(
        (0.9..=1.6).contains(&gap),
        "RTO should fire 1–1.5 s after the loss, got {gap:.2} s"
    );
}

#[test]
fn buffering_eliminates_the_timeout_entirely() {
    let scenario = run(true);
    let tx = scenario.tcp_sender();
    assert!(
        tx.trace.timeouts.is_empty(),
        "no data lost → no RTO, got {:?}",
        tx.trace.timeouts
    );
    assert!(
        scenario.tcp_receiver().dupacks_sent == 0,
        "no hole should ever be seen by the receiver"
    );
}

#[test]
fn buffering_strictly_improves_goodput() {
    let with = run(true);
    let without = run(false);
    let a = with.tcp_receiver().bytes_in_order();
    let b = without.tcp_receiver().bytes_in_order();
    assert!(a > b, "buffered run must deliver more: {a} vs {b} bytes");
    // The loss is roughly the idle time at link rate: at least half a
    // megabyte over a >1 s stall on a multi-Mb/s path.
    assert!(a - b > 500_000, "gap suspiciously small: {}", a - b);
}

#[test]
fn receiver_stream_is_a_gapless_prefix() {
    for buffering in [true, false] {
        let scenario = run(buffering);
        let rx = scenario.tcp_receiver();
        assert_eq!(
            rx.bytes_in_order() % 1000,
            0,
            "whole segments only (mss = 1000)"
        );
        assert_eq!(
            rx.out_of_order_len(),
            0,
            "everything must be reassembled by the end"
        );
        // The sender never believes more than the receiver has.
        let tx = scenario.tcp_sender();
        assert!(tx.acked_bytes() <= rx.bytes_in_order());
    }
}

#[test]
fn intra_router_handoff_uses_the_short_protocol() {
    let scenario = run(true);
    let ar = scenario.ar_agent(0);
    assert_eq!(ar.metrics.intra_sessions, 1, "pure-L2 session expected");
    assert_eq!(ar.metrics.par_sessions, 0, "no inter-router negotiation");
    assert_eq!(ar.metrics.nar_sessions, 0);
    assert_eq!(ar.metrics.flushes, 1);
    let stats = &scenario.sim.shared.stats;
    assert_eq!(stats.control_count("HI"), 0, "no HI for an intra handoff");
    assert_eq!(stats.control_count("HAck"), 0);
    assert_eq!(
        stats.control_count("BF"),
        1,
        "standalone BF releases the buffer"
    );
}

#[test]
fn throughput_dip_is_bounded_by_the_blackout_with_buffering() {
    let r = experiments::tcp_l2_handoff(true, 17);
    let (down, up) = r.blackout.expect("blackout happened");
    // Zero-throughput windows may only exist inside [down, up+0.1].
    for &(t, mbps) in &r.throughput {
        if t < down - 0.2 || t > up + 0.2 {
            continue;
        }
        let _ = mbps; // inside the window anything goes
    }
    let dead: Vec<f64> = r
        .throughput
        .iter()
        .filter(|&&(t, m)| m == 0.0 && t > 1.0 && t < 11.0 && (t < down - 0.15 || t > up + 0.15))
        .map(|&(t, _)| t)
        .collect();
    assert!(
        dead.is_empty(),
        "throughput died outside the blackout at {dead:?}"
    );
}

#[test]
fn unbuffered_run_stalls_well_past_the_blackout() {
    let r = experiments::tcp_l2_handoff(false, 17);
    let (_, up) = r.blackout.expect("blackout happened");
    let dead_after = r
        .throughput
        .iter()
        .filter(|&&(t, m)| m == 0.0 && t > up + 0.1 && t < up + 2.0)
        .count();
    assert!(
        dead_after >= 8,
        "expected ≥0.8 s of post-blackout dead air, got {dead_after} bins"
    );
}
