//! One result schema (`fh-perf/v1`), the tables, the driver's result line,
//! and `BENCHMARK.json` itself — all rendered from the same two tables of
//! metric definitions, so the manifest cannot drift from the code.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use crate::layers::{Layers, PER_LAYER};
use crate::measure::WorkloadResult;
use crate::workloads::Workload;

/// Seconds of timed passes per driver run.
pub const RUN_SECONDS: u32 = 10;

/// Name, unit, better-direction and regression bound (share of the parent's
/// median) of every end-to-end metric. The bounds are about three times the
/// run-to-run spread measured on the reference box (see README).
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("wall_s", "s", "lower", 0.10),
    ("events_per_s", "1/s", "higher", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("allocs_per_kev", "count", "lower", 0.05),
    ("peak_heap_mb", "MB", "lower", 0.02),
];

/// A JSON number: every digit of a finite value, `null` otherwise.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
             \"bound\": {bound}}}{comma}"
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The driver's result: one JSON object on one line.
pub fn driver_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    out.push_str("}}");
    out
}

/// The end-to-end metrics of one result, as the driver line wants them.
pub fn end_to_end_metrics(r: &WorkloadResult) -> Vec<(&'static str, f64, &'static str)> {
    r.end_to_end()
        .iter()
        .zip(&END_TO_END)
        .map(|((name, value, _), (_, unit, _, _))| (*name, *value, *unit))
        .collect()
}

/// The per-layer metrics of one traced workload, as the driver line wants
/// them.
pub fn per_layer_metrics(values: &[(&'static str, f64)]) -> Vec<(&'static str, f64, &'static str)> {
    values
        .iter()
        .zip(&PER_LAYER)
        .map(|((name, value), (_, unit, _))| (*name, *value, *unit))
        .collect()
}

/// Nonzero when any operation of any workload failed its check.
pub fn exit_code(results: &[WorkloadResult]) -> u8 {
    u8::from(results.iter().any(|r| r.failed > 0))
}

/// Where the numbers came from.
pub struct Provenance {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub git_commit: String,
}

/// `out/result.json`: workload x metric -> value, unit and spread.
pub fn result_json(results: &[WorkloadResult], p: &Provenance) -> String {
    let mut out = String::from("{\n  \"schema\": \"fh-perf/v1\",\n");
    let _ = writeln!(out, "  \"seed\": {},", p.seed);
    let _ = writeln!(out, "  \"seconds\": {},", num(p.seconds));
    let _ = writeln!(out, "  \"nproc\": {},", p.nproc);
    let _ = writeln!(out, "  \"git_commit\": \"{}\",", p.git_commit);
    out.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"events\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            r.workload.name(),
            r.events,
            r.attempted,
            r.failed
        );
        let metrics = r.end_to_end();
        for (j, ((name, value, s), (_, unit, better, bound))) in
            metrics.iter().zip(&END_TO_END).enumerate()
        {
            let comma = if j + 1 < metrics.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "      \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"better\": \"{better}\", \
                 \"bound\": {bound}, \"n\": {}, \"min\": {}, \"p25\": {}, \"median\": {}, \
                 \"p75\": {}, \"max\": {}}}{comma}",
                num(*value),
                s.n,
                num(s.min),
                num(s.p25),
                num(s.median),
                num(s.p75),
                num(s.max)
            );
        }
        let raw = r.raw_wall;
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    }}, \"raw_wall_s\": {{\"n\": {}, \"min\": {}, \"p25\": {}, \"median\": {}, \
             \"p75\": {}, \"max\": {}}}}}{comma}",
            raw.n,
            num(raw.min),
            num(raw.p25),
            num(raw.median),
            num(raw.p75),
            num(raw.max)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn si(v: f64) -> String {
    match v.abs() {
        a if !a.is_finite() => "-".to_owned(),
        a if a >= 1e6 => format!("{:.3}M", v / 1e6),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.4}"),
    }
}

/// The same results as an aligned table.
pub fn table(results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14}{:<16}{:>12} {:<6}{:>5}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "workload", "metric", "value", "unit", "n", "min", "p25", "median", "p75", "max"
    );
    for r in results {
        for ((name, value, s), (_, unit, _, _)) in r.end_to_end().iter().zip(&END_TO_END) {
            let _ = writeln!(
                out,
                "{:<14}{:<16}{:>12} {:<6}{:>5}{:>10}{:>10}{:>10}{:>10}{:>10}",
                r.workload.name(),
                name,
                si(*value),
                unit,
                s.n,
                si(s.min),
                si(s.p25),
                si(s.median),
                si(s.p75),
                si(s.max)
            );
        }
        let raw = r.raw_wall;
        let _ = writeln!(
            out,
            "{:<14}{:<16}{:>12} {:<6}{:>5}{:>10}{:>10}{:>10}{:>10}{:>10}",
            r.workload.name(),
            "(raw wall)",
            "",
            "s",
            raw.n,
            si(raw.min),
            si(raw.p25),
            si(raw.median),
            si(raw.p75),
            si(raw.max)
        );
        let _ = writeln!(
            out,
            "{:<14}{:<16}{:>12} events/pass, {} failed of {} attempted",
            r.workload.name(),
            "check",
            r.events,
            r.failed,
            r.attempted
        );
        for why in &r.failures {
            let _ = writeln!(out, "{:<14}FAILED: {why}", r.workload.name());
        }
    }
    out
}

/// The per-layer metrics as a table: the shared ones once, then the two
/// that belong to each traced workload.
pub fn layers_table(layers: &Layers) -> String {
    let mut out = String::new();
    for (name, unit, _) in &PER_LAYER {
        if let Some((_, v)) = layers.shared.iter().find(|(n, _)| n == name) {
            let _ = writeln!(out, "{name:<42}{:>14} {unit}", si(*v));
        }
    }
    let attr: Vec<f64> = layers
        .shared
        .iter()
        .filter(|(n, _)| n.starts_with("attr."))
        .map(|&(_, v)| v)
        .collect();
    if let Some((residual, parts)) = attr.split_last() {
        let _ = writeln!(
            out,
            "attribution (estimate): {:.4} attributed + {:.4} residual = {:.4}",
            parts.iter().sum::<f64>(),
            residual,
            attr.iter().sum::<f64>()
        );
    }
    for own in &layers.own {
        let _ = writeln!(
            out,
            "{:<14}simcore.ns_per_event {:>10} ns   bench.trace_overhead {:>8} ratio",
            own.workload.name(),
            si(own.ns_per_event),
            si(own.trace_overhead)
        );
    }
    let _ = writeln!(
        out,
        "{} failed of {} attempted",
        layers.failed, layers.attempted
    );
    for why in &layers.failures {
        let _ = writeln!(out, "FAILED: {why}");
    }
    out
}

/// A/A comparison of two sets of runs of the same build: |delta| of every
/// workload x end-to-end metric against its bound. Returns the table and
/// whether every pair agrees.
pub fn aa_table(a: &[WorkloadResult], b: &[WorkloadResult]) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<14}{:<16}{:>12}{:>12}{:>9}{:>8}  verdict",
        "workload", "metric", "first", "second", "|delta|", "bound"
    );
    for (ra, rb) in a.iter().zip(b) {
        for ((name, va, _), ((_, vb, _), (_, _, _, bound))) in ra
            .end_to_end()
            .iter()
            .zip(rb.end_to_end().iter().zip(&END_TO_END))
        {
            let delta = ((vb - va) / va).abs();
            let ok = delta <= *bound;
            all_ok &= ok;
            let _ = writeln!(
                out,
                "{:<14}{:<16}{:>12}{:>12}{:>8.2}%{:>7.1}%  {}",
                ra.workload.name(),
                name,
                si(*va),
                si(*vb),
                delta * 100.0,
                bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
        if ra.failed + rb.failed > 0 {
            all_ok = false;
            let _ = writeln!(
                out,
                "{:<14}{} failed operations",
                ra.workload.name(),
                ra.failed + rb.failed
            );
        }
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the root is `fh-perf manifest`, byte for byte.
    #[test]
    fn committed_manifest_is_the_generated_one() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let m = manifest();
        assert!(m.len() < 64 * 1024);
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|(_, _, _, b)| *b > 0.0 && *b <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|(n, u, b, _)| (*n, *u, *b) == ("setup_s", "s", "lower")));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn driver_line_is_one_json_object() {
        let line = driver_line(10, 0, &[("wall_s", 0.25, "s"), ("x", f64::NAN, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"1/s\"}}}"
        );
        assert!(driver_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
