//! The handover record is the one place a handover's timeline lives.
//!
//! Two locks. A source scan: outside the record's own module
//! (`fh-net`'s `handover.rs`) and the host agent that writes it
//! (`fh-core`'s `mh.rs`), no library or example code names a
//! `HandoffPhase` variant, so every reading of a handover goes through
//! the record's accessors instead of pairing phases by hand. And a run
//! check: the record is kept whether or not telemetry is on.

use std::fs;
use std::path::{Path, PathBuf};

use fh_net::ServiceClass;
use fh_scenarios::{HmipConfig, HmipScenario};
use fh_sim::SimTime;

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .expect("readable source dir")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_the_record_and_the_host_agent_name_phases() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let writers = [
        root.join("crates/netstack/src/handover.rs"),
        root.join("crates/core/src/signaling/mh.rs"),
    ];
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            sources(&src, &mut files);
        }
    }
    sources(&root.join("examples"), &mut files);
    for writer in &writers {
        assert!(files.contains(writer), "{} must exist", writer.display());
    }
    for path in files.iter().filter(|p| !writers.contains(p)) {
        let source = fs::read_to_string(path).expect("readable source");
        // Unit tests may build marks by hand; library code may not.
        let code = source.split("#[cfg(test)]").next().unwrap_or_default();
        for (i, line) in code.lines().enumerate() {
            if !line.trim_start().starts_with("//") && line.contains("HandoffPhase::") {
                panic!(
                    "{}:{}: read handovers through `HandoverAttempt`'s \
                     accessors instead of pairing phases:\n    {line}",
                    path.display(),
                    i + 1
                );
            }
        }
    }
}

#[test]
fn the_record_does_not_depend_on_telemetry() {
    let run = |telemetry: bool| {
        let mut s = HmipScenario::build(HmipConfig::default());
        let _ = s.add_audio_64k(0, ServiceClass::HighPriority);
        s.set_traffic_window(SimTime::from_millis(500), SimTime::from_secs(14));
        if telemetry {
            s.enable_telemetry(1 << 12);
        }
        s.run_until(SimTime::from_secs(16));
        s.handovers(0).cloned().collect::<Vec<_>>()
    };
    let dark = run(false);
    assert_eq!(dark.len(), 1, "one crossing, one attempt");
    assert!(dark[0].blackout().is_some());
    assert_eq!(dark, run(true));
}
