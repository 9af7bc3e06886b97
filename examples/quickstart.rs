//! Quickstart: one mobile host, one handover, the proposed scheme.
//!
//! Builds the thesis' Fig 4.1 network (CN → MAP → {PAR, NAR}), attaches a
//! 64 kb/s real-time audio flow to a mobile host, walks the host from the
//! PAR's cell into the NAR's cell, and prints what happened: the handover
//! record, buffer activity at both routers, and the flow's loss/delay
//! figures.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use fh_net::{render_trace, HandoverAttempt, ServiceClass};
use fh_scenarios::{HmipConfig, HmipScenario};
use fh_sim::SimTime;

fn main() {
    // The thesis' defaults: proposed scheme (DUAL + classification),
    // 200 ms black-out, 20-packet buffers, 2 ms PAR↔NAR link.
    let config = HmipConfig::default();
    println!("scheme           : {}", config.protocol.scheme);
    println!("blackout         : {}", config.l2_handoff_delay);
    println!(
        "buffer capacity  : {} packets per router\n",
        config.buffer_capacity
    );

    let mut scenario = HmipScenario::build(config);
    // Protocol tracing: the ns-2 trace-file analog. The log is a ring
    // that keeps the most recent events, so size it to hold the whole
    // run and the handover choreography survives to the printout.
    scenario.sim.shared.stats.trace.enable(4096);
    let flow = scenario.add_audio_64k(0, ServiceClass::RealTime);
    // Stop the source a little before the end so in-flight packets drain.
    scenario.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
    scenario.run_until(SimTime::from_secs(16));

    // --- handover record ----------------------------------------------
    for attempt in scenario.handovers(0) {
        let outcome = attempt.outcome().map_or("open", |o| o.label());
        println!("handover attempt (mobile host): {outcome}");
        for (t, phase) in attempt.phases() {
            println!("  {t}  {phase:?}");
        }
        if let Some((down, up)) = attempt.blackout() {
            println!("  L2 black-out     : {}", up - down);
        }
    }
    for (down, done) in HandoverAttempt::recoveries(scenario.handovers(0)) {
        println!("service restored : {} after link-down", done - down);
    }

    // --- router activity ----------------------------------------------
    let par = scenario.par_agent();
    let nar = scenario.nar_agent();
    println!(
        "\nPAR: sessions={} flushes={} buffered-stats={:?}",
        par.metrics.par_sessions,
        par.metrics.flushes,
        par.pool().stats
    );
    println!(
        "NAR: sessions={} flushes={} buffered-stats={:?}",
        nar.metrics.nar_sessions,
        nar.metrics.flushes,
        nar.pool().stats
    );
    println!(
        "MAP: tunneled={} bindings={}",
        scenario.anchor(0).tunneled,
        scenario.anchor(0).cache.len()
    );

    // --- flow outcome ---------------------------------------------------
    let sent = scenario.flow_sent(flow);
    let sink = scenario.flow_sink(flow);
    println!(
        "\nflow: sent={} received={} lost={}",
        sent,
        sink.received(),
        sink.losses(sent)
    );
    if let Some(mean) = sink.mean_delay() {
        println!(
            "delay: mean={} max={}",
            mean,
            sink.max_delay().expect("nonempty")
        );
    }
    println!("handoffs completed: {}", scenario.mh_agent(0).handoffs);

    println!("\nprotocol trace (control + L2 + drops):");
    for line in render_trace(&scenario.sim.shared.stats.trace)
        .lines()
        .filter(|l| !l.contains("ctrl RA"))
        .take(24)
    {
        println!("  {line}");
    }

    assert_eq!(
        scenario.mh_agent(0).handoffs,
        1,
        "expected exactly one handover"
    );
}
