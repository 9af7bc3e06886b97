//! TCP file transfer across a pure link-layer handoff.
//!
//! A laptop downloads a file over WLAN and walks from one access point to
//! another *inside the same subnet* — no Mobile IP involved, just a 200 ms
//! 802.11 re-association black-out. The original fast handover protocol
//! offers no help here; the thesis' scheme lets the host ask its access
//! router to buffer (Fig 3.5).
//!
//! The demo reproduces the §4.2.4 comparison: without buffering the
//! coarse-grained TCP retransmission timer idles the connection for over a
//! second; with buffering the transfer continues as if nothing happened.
//!
//! ```sh
//! cargo run --example tcp_file_transfer
//! ```

use fh_core::{ProtocolConfig, Scheme};
use fh_net::HandoverAttempt;
use fh_scenarios::{HmipScenario, WlanConfig};
use fh_sim::SimTime;

struct TransferReport {
    label: &'static str,
    bytes: u64,
    timeouts: usize,
    blackout: Option<(f64, f64)>,
    idle: f64,
}

fn transfer(buffering: bool) -> TransferReport {
    let protocol = if buffering {
        ProtocolConfig::proposed()
    } else {
        ProtocolConfig::with_scheme(Scheme::NoBuffer)
    };
    let cfg = WlanConfig {
        protocol,
        seed: 11,
        ..WlanConfig::default()
    };
    let mut scenario = HmipScenario::wlan(cfg);
    scenario.run_until(SimTime::from_secs(12));

    let rx = scenario.tcp_receiver();
    let tx = scenario.tcp_sender();
    // Longest gap between consecutive receiver arrivals = dead time.
    let mut idle: f64 = 0.0;
    for w in rx.trace.received.windows(2) {
        idle = idle.max((w[1].0 - w[0].0).as_secs_f64());
    }
    let blackout = scenario
        .handovers(0)
        .find_map(HandoverAttempt::blackout)
        .map(|(down, up)| (down.as_secs_f64(), up.as_secs_f64()));
    TransferReport {
        label: if buffering {
            "proposed buffering"
        } else {
            "no buffering"
        },
        bytes: rx.bytes_in_order(),
        timeouts: tx.trace.timeouts.len(),
        blackout,
        idle,
    }
}

fn main() {
    println!("FTP/TCP download across a 200 ms WLAN re-association\n");
    let reports = [transfer(false), transfer(true)];
    for r in &reports {
        println!("== {} ==", r.label);
        if let Some((d, u)) = r.blackout {
            println!("  L2 black-out      : {d:.3} s → {u:.3} s");
        }
        println!("  RTO timeouts      : {}", r.timeouts);
        println!("  longest stall     : {:.3} s", r.idle);
        println!(
            "  bytes delivered   : {} ({:.2} MB)",
            r.bytes,
            r.bytes as f64 / 1e6
        );
        println!();
    }
    let gained = reports[1].bytes.saturating_sub(reports[0].bytes);
    println!(
        "buffering recovered {:.2} MB of goodput and avoided {} coarse timeout(s)",
        gained as f64 / 1e6,
        reports[0].timeouts
    );
}
