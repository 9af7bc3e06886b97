//! Macro roaming: crossing MAP domains under home-address traffic.
//!
//! Builds the two-domain roaming world (CN → home agent →
//! {MAP1, MAP2} → {AR1, AR2}) and walks a host from one domain into the
//! other while a correspondent streams audio to its **home address**. The
//! fast handover with enhanced buffering covers the radio black-out; the
//! Mobile IPv6 hierarchy re-anchors the host afterwards:
//!
//! 1. FMIPv6 + dual buffering hide the 200 ms black-out (zero loss),
//! 2. the stale MAP1 binding keeps traffic flowing through the old chain,
//! 3. the first router advertisement reveals MAP2 → new RCoA → local
//!    binding update + the one home-agent update macro movement needs.
//!
//! ```sh
//! cargo run --example macro_roaming
//! ```

use fh_net::ServiceClass;
use fh_scenarios::{HmipScenario, RoamingConfig};
use fh_sim::SimTime;
use fh_traffic::FlowReport;

fn main() {
    let mut s = HmipScenario::roaming(RoamingConfig::default());
    let flow = s.add_audio_64k(0, ServiceClass::HighPriority);
    s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
    s.run_until(SimTime::from_secs(16));

    // The world's anchors, in build order: home agent, MAP1, MAP2.
    let (home_agent, map1, map2) = (s.anchor(0), s.anchor(1), s.anchor(2));
    let home_addr = s.mh_addrs[0];
    println!("home address        : {home_addr}");
    println!("handovers completed : {}", s.mh_agent(0).handoffs);
    println!();
    println!(
        "home agent bindings : {} registrations",
        home_agent.cache.registrations
    );
    if let Some(rcoa) = home_agent.cache.lookup(home_addr, s.sim.now()) {
        println!("home → RCoA         : {rcoa}  (MAP2's subnet)");
    }
    println!(
        "MAP1 tunneled {} packets, MAP2 tunneled {}",
        map1.tunneled, map2.tunneled
    );
    println!();
    let report = FlowReport::from_sink(s.flow_sink(flow), s.flow_sent(flow));
    println!("flow quality: {report}");

    assert_eq!(report.lost, 0, "the crossing must be seamless");
    println!("\nseamless: zero loss across the MAP-domain boundary");
}
