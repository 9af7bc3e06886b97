//! The byte-exact outputs under `tests/golden/` — captured from the
//! pre-refactor monolith at the default seeds — as tier-1 tests: the
//! `repro` text at two thread counts, every `repro --csv` series, and the
//! storm timeline. Any diff means a change altered behaviour, not just
//! structure. (The corpus plans' own FNV locks pin `chaos.csv`,
//! `storm.csv` and `timeline.json` a second time; their writers run them
//! with the locks armed.)

use fh_bench::csv::{timeline_json, CSV_WRITERS};

fn golden(name: &str) -> String {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Compares without dumping megabytes of trace JSON on a mismatch.
fn assert_golden(got: &str, name: &str) {
    let want = golden(name);
    let at = got.bytes().zip(want.bytes()).position(|(a, b)| a != b);
    assert!(
        got == want,
        "{name}: differs from the golden bytes at offset {} (lengths {} vs {})",
        at.unwrap_or(got.len().min(want.len())),
        got.len(),
        want.len()
    );
}

#[test]
fn repro_stdout_matches_at_one_thread() {
    assert_golden(&fh_bench::render(&fh_bench::FIGURES, 1), "repro_stdout.txt");
}

#[test]
fn repro_stdout_matches_at_four_threads() {
    assert_golden(&fh_bench::render(&fh_bench::FIGURES, 4), "repro_stdout.txt");
}

/// The ten figure series plus the `chaos` and `storm` corpus artifacts,
/// alternating thread counts so both fan-outs are covered in one pass.
#[test]
fn every_csv_series_matches() {
    for (i, (name, write)) in CSV_WRITERS.iter().enumerate() {
        let threads = if i % 2 == 0 { 1 } else { 4 };
        assert_golden(&write(threads), &format!("{name}.csv"));
    }
}

#[test]
fn storm_timeline_matches() {
    assert_golden(&timeline_json(4), "timeline.json");
}
