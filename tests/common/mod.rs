//! Helpers shared by the integration tests.

use fh_scenarios::HmipScenario;
use fh_telemetry::ChromeTrace;

/// Host `host`'s handover spans as they appear in the exported Chrome
/// trace, one row per trace event in export order: `"handover <ts>+<dur>
/// <outcome>"` for a span, `"<label> <ts>"` for each of its marks (times
/// in the trace's microseconds). Reads only `chrome_trace_into`'s bytes,
/// so it pins the artifact rather than any in-memory representation.
pub fn exported_spans(s: &HmipScenario, host: usize) -> Vec<String> {
    let mut trace = ChromeTrace::new();
    s.chrome_trace_into(&mut trace, 0);
    let json = trace.finish();
    let tid = format!("\"tid\":{},", s.mhs[host].index());
    let field = |line: &str, key: &str| -> String {
        let start = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        let rest = line[start..].trim_start_matches('"');
        let end = rest.find([',', '"', '}']).expect("field end");
        rest[..end].to_owned()
    };
    json.lines()
        .filter(|l| l.contains(&tid))
        .filter_map(|l| {
            if l.contains("\"cat\":\"span\"") {
                let (ts, dur) = (field(l, "ts"), field(l, "dur"));
                Some(format!(
                    "{} {ts}+{dur} {}",
                    field(l, "name"),
                    field(l, "outcome")
                ))
            } else if l.contains("\"cat\":\"mark\"") {
                Some(format!("{} {}", field(l, "name"), field(l, "ts")))
            } else {
                None
            }
        })
        .collect()
}
