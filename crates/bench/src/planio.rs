//! Plan-driver plumbing behind the `plan` bin.
//!
//! The scenario-plan corpus lives in `crates/scenarios/plans/` next to
//! the engine that owns its schema and is compiled in
//! ([`fh_scenarios::plan::CORPUS`], re-exported here), so the driver
//! needs no filesystem access to run it and CI exercises exactly the
//! bytes under version control.
//!
//! Everything here prints thread-invariant bytes: CI `cmp`s the corpus
//! and fuzz outputs across `--threads` values.

use std::fmt::Write as _;

pub use fh_scenarios::plan::CORPUS;
use fh_scenarios::plan::{fuzz_plan, run_plan, PlanOutcome, ScenarioPlan};
use fh_telemetry::report::fnv1a64_hex;

/// Loads one plan from TOML, rebases it onto `seed`, runs it, and judges
/// its expectations.
///
/// # Errors
///
/// A parse failure or any expectation violation returns the message to
/// print on stderr (the structured failure report, for violations) —
/// callers exit nonzero on `Err`.
pub fn run_corpus_plan(
    toml: &str,
    file: &str,
    seed: u64,
    threads: usize,
) -> Result<String, String> {
    let plan = ScenarioPlan::from_toml(toml, file).map_err(|e| format!("{e}\n"))?;
    let outcome = run_plan(&plan.with_seed(seed), threads);
    if outcome.report.is_empty() {
        Ok(outcome.artifact)
    } else {
        Err(outcome.report.to_json())
    }
}

fn status_line(name: &str, outcome: &PlanOutcome) -> String {
    format!(
        "{name}: ok fnv1a={} ({} points, {} events)\n",
        fnv1a64_hex(outcome.artifact.as_bytes()),
        outcome.points.len(),
        outcome.events
    )
}

/// Runs the whole compiled-in corpus and renders one status line per
/// plan (name, artifact content hash, point and event counts). The
/// output is byte-identical at any thread count.
///
/// # Errors
///
/// Returns the accumulated status lines plus every failing plan's
/// structured report.
pub fn run_corpus(seed: u64, threads: usize) -> Result<String, String> {
    let mut out = String::new();
    let mut failures = String::new();
    for (file, toml) in CORPUS {
        let plan = match ScenarioPlan::from_toml(toml, file) {
            Ok(p) => p,
            Err(e) => {
                let _ = writeln!(out, "{file}: PARSE ERROR");
                let _ = writeln!(failures, "{e}");
                continue;
            }
        };
        let name = plan.name.clone();
        let outcome = run_plan(&plan.with_seed(seed), threads);
        if outcome.report.is_empty() {
            out.push_str(&status_line(&name, &outcome));
        } else {
            let _ = writeln!(
                out,
                "{name}: FAILED ({} violations)",
                outcome.report.entries.len()
            );
            failures.push_str(&outcome.report.to_json());
        }
    }
    if failures.is_empty() {
        let _ = writeln!(out, "corpus: {} plans ok (seed {seed})", CORPUS.len());
        Ok(out)
    } else {
        Err(format!("{out}{failures}"))
    }
}

/// Runs `count` fuzzed plans derived from `seed`, asserting the
/// universal battery on each **plus** artifact determinism: every plan
/// runs once sequentially and once on `max(threads, 2)` workers and the
/// two artifacts must match byte-for-byte. One status line per plan;
/// the output never mentions the thread count, so CI can `cmp` it
/// across `--threads` values.
///
/// # Errors
///
/// Returns the accumulated status lines plus every violation report.
pub fn run_fuzz(count: u64, seed: u64, threads: usize) -> Result<String, String> {
    let mut out = String::new();
    let mut failures = String::new();
    for index in 0..count {
        let plan = fuzz_plan(seed, index);
        let name = plan.name.clone();
        let sequential = run_plan(&plan, 1);
        let parallel = run_plan(&plan, threads.max(2));
        let mut bad = false;
        if !sequential.report.is_empty() {
            bad = true;
            failures.push_str(&sequential.report.to_json());
        }
        if sequential.artifact != parallel.artifact {
            bad = true;
            let _ = writeln!(
                failures,
                "{name}: artifact differs across thread counts ({} sequential vs {} parallel)",
                fnv1a64_hex(sequential.artifact.as_bytes()),
                fnv1a64_hex(parallel.artifact.as_bytes()),
            );
        }
        if bad {
            let _ = writeln!(out, "{name}: FAILED");
        } else {
            out.push_str(&status_line(&name, &sequential));
        }
    }
    if failures.is_empty() {
        let _ = writeln!(out, "fuzz: {count} plans ok (seed {seed})");
        Ok(out)
    } else {
        Err(format!("{out}{failures}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_corpus_parses() {
        for (file, toml) in CORPUS {
            let plan = ScenarioPlan::from_toml(toml, file)
                .unwrap_or_else(|e| panic!("{file} failed to parse: {e}"));
            assert!(!plan.name.is_empty(), "{file}");
        }
    }

    /// A violated bound yields the structured report (the driver's
    /// nonzero-exit path); the pristine plan passes.
    #[test]
    fn expectation_violation_reports_and_clean_plan_passes() {
        let (file, toml) = CORPUS
            .iter()
            .find(|(f, _)| *f == "plans/parked_control.toml")
            .expect("corpus");
        let ok = run_corpus_plan(toml, file, 2003, 2);
        assert!(ok.is_ok(), "{}", ok.unwrap_err());

        // Tampering with the locked artifact hash (flip the first digit)
        // must fail with a structured report naming the check.
        let broken = toml.replace("artifact_fnv1a = \"0x0", "artifact_fnv1a = \"0x1");
        assert_ne!(broken, *toml, "lock line not found to tamper with");
        let err = run_corpus_plan(&broken, file, 2003, 2).unwrap_err();
        assert!(err.contains("\"artifact_fnv1a\""), "{err}");
        assert!(err.contains("\"violations\": 1"), "{err}");
    }

    #[test]
    fn malformed_corpus_plan_is_a_pointed_parse_error() {
        let err = run_corpus_plan("[plan]\nseed = 1\n", "broken.toml", 2003, 1).unwrap_err();
        assert_eq!(err, "broken.toml: [plan].name: required key is missing\n");
    }

    #[test]
    fn fuzz_smoke_is_clean_and_thread_invariant() {
        let a = run_fuzz(3, 7, 2).expect("fuzz plans hold the universal battery");
        let b = run_fuzz(3, 7, 4).expect("fuzz plans hold the universal battery");
        assert_eq!(a, b, "fuzz output must not depend on the thread count");
        assert!(a.contains("fuzz-0000: ok"), "{a}");
        assert!(a.ends_with("fuzz: 3 plans ok (seed 7)\n"), "{a}");
    }
}
