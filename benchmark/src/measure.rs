//! End-to-end measurement of one workload: cold starts, timed passes in
//! rounds, one counted pass, and the once-per-run verification.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::alloc::{Counted, Window};
use crate::calib::{calibrated, Kernel};
use crate::golden::Golden;
use crate::stats::Summary;
use crate::tracer::Tracer;
use crate::workloads::{Inputs, PassOutput, Whole, Workload};

/// Runs `f`, turning a panic inside the crates (their own conservation /
/// leak / expectation asserts) into a failure message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked (message above)".to_owned()))
}

/// Rounds a run's timed passes and cold starts are spread over, so that
/// one noisy phase of a shared box cannot own a workload's numbers.
pub const ROUNDS: u32 = 3;

/// Everything measured for one workload; the `fh-perf/v1` row.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: Workload,
    /// Checked simulator events of one pass.
    pub events: u64,
    /// Calibrated seconds per timed pass (see [`crate::calib`]); `wall_s`
    /// is its median.
    pub wall: Summary,
    /// The same passes in raw seconds, for the record.
    pub raw_wall: Summary,
    /// Calibrated seconds from process start to the first result, fresh
    /// processes; `setup_s` is its median.
    pub cold: Summary,
    pub counted: Counted,
    /// Operations attempted (warm-up, timed, counted and cold passes, the
    /// verification) and how many failed their check.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub failures: Vec<String>,
}

impl WorkloadResult {
    pub fn wall_s(&self) -> f64 {
        self.wall.median
    }

    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s()
    }

    pub fn setup_s(&self) -> f64 {
        self.cold.median
    }

    pub fn allocs_per_kev(&self) -> f64 {
        self.counted.allocs as f64 * 1e3 / self.events as f64
    }

    pub fn peak_heap_mb(&self) -> f64 {
        self.counted.peak_bytes as f64 / 1e6
    }

    /// The end-to-end metrics in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> [(&'static str, f64, Summary); 5] {
        [
            ("wall_s", self.wall_s(), self.wall),
            ("events_per_s", self.events_per_s(), {
                // The same passes as `wall`, expressed as a rate.
                let e = self.events as f64;
                Summary {
                    n: self.wall.n,
                    min: e / self.wall.max,
                    p25: e / self.wall.p75,
                    median: e / self.wall.median,
                    p75: e / self.wall.p25,
                    max: e / self.wall.min,
                }
            }),
            ("setup_s", self.setup_s(), self.cold),
            (
                "allocs_per_kev",
                self.allocs_per_kev(),
                Summary::exact(self.allocs_per_kev()),
            ),
            (
                "peak_heap_mb",
                self.peak_heap_mb(),
                Summary::exact(self.peak_heap_mb()),
            ),
        ]
    }
}

/// A workload being measured. `fh-perf run` keeps one per workload and
/// feeds them rounds in turn; the driver entry point runs one to the end.
pub struct Session {
    inputs: Inputs,
    /// The warm-up pass's output: every later pass must reproduce it.
    first: Option<PassOutput>,
    kernel: Kernel,
    walls: Vec<f64>,
    raw_walls: Vec<f64>,
    colds: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Session {
    /// Generates the inputs and runs one untimed warm-up pass, so lazily
    /// built state and cold caches land in `setup_s`, not in `wall_s`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut s = Session {
            inputs: Inputs::generate(workload, seed),
            first: None,
            kernel: Kernel::new(),
            walls: Vec::new(),
            raw_walls: Vec::new(),
            colds: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };
        s.first = s.checked_pass(&mut Tracer::new(false)).map(|(_, out)| out);
        s
    }

    pub fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(why);
        }
    }

    /// Checks one operation's output against the warm-up pass's.
    fn check(&mut self, what: &str, got: Result<PassOutput, String>) -> Option<PassOutput> {
        self.attempted += 1;
        match (got, self.first) {
            (Err(why), _) => {
                self.fail(format!("{what}: {why}"));
                None
            }
            (Ok(out), Some(first)) if out != first => {
                self.fail(format!(
                    "{what}: {out:?} differs from the first pass {first:?}"
                ));
                None
            }
            (Ok(out), _) => Some(out),
        }
    }

    /// One pass, timed (raw seconds) and checked.
    pub fn checked_pass(&mut self, tracer: &mut Tracer) -> Option<(f64, PassOutput)> {
        let start = Instant::now();
        let got = guarded(|| self.inputs.pass(tracer));
        let wall = start.elapsed().as_secs_f64();
        self.check("pass", got).map(|out| (wall, out))
    }

    /// One timed pass. Records the pass's calibrated and raw time.
    fn timed_pass(&mut self) {
        let timed = timed_parts(&self.inputs, &mut self.kernel);
        if self.check("pass", timed.out).is_some() {
            self.walls.push(timed.calibrated_s);
            self.raw_walls.push(timed.raw_s);
        }
    }

    /// One round: cold starts in fresh processes (up to three while they
    /// fit in half a second, at least one), then timed passes for `block`
    /// (at least one).
    pub fn round(&mut self, exe: &Path, block: Duration) {
        let start = Instant::now();
        for _ in 0..3 {
            self.cold_start(exe);
            if start.elapsed() >= Duration::from_millis(500) {
                break;
            }
        }
        let start = Instant::now();
        loop {
            self.timed_pass();
            if start.elapsed() >= block {
                break;
            }
        }
    }

    /// Times `fh-perf cold <workload>` from spawn to exit: what a CLI user
    /// running the workload once pays, process start and input generation
    /// included. The child calibrates its own parts and prints its pass
    /// output, which is checked too; what the child cannot see of itself
    /// (spawn, exec, exit) is calibrated here.
    fn cold_start(&mut self, exe: &Path) {
        let before = self.kernel.sample();
        let start = Instant::now();
        let child = Command::new(exe)
            .args(["cold", self.inputs.workload.name(), "--seed"])
            .arg(self.inputs.seed.to_string())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let wall = start.elapsed().as_secs_f64();
        let after = self.kernel.sample();
        let cold = match child {
            Err(e) => Err(format!("could not start {}: {e}", exe.display())),
            Ok(out) if !out.status.success() => Err(format!("exited with {}", out.status)),
            Ok(out) => parse_cold(&String::from_utf8_lossy(&out.stdout)),
        };
        let (inside_calibrated, inside_raw) = cold
            .as_ref()
            .map_or((0.0, 0.0), |c| (c.calibrated_s, c.total_s));
        if self.check("cold start", cold.map(|c| c.out)).is_some() {
            let outside = (wall - inside_raw).max(0.0);
            self.colds
                .push(inside_calibrated + calibrated(outside, before, after));
        }
    }

    /// One pass with the allocation counter on.
    pub fn counted_pass(&mut self) -> Option<Counted> {
        let mut off = Tracer::new(false);
        let window = Window::open();
        let got = guarded(|| self.inputs.pass(&mut off));
        let counted = window.close();
        self.check("counted pass", got).map(|_| counted)
    }

    /// Closes the books without the counted pass and the verification:
    /// `(attempted, failed, failure messages)`.
    pub fn abandon(self) -> (u64, u64, Vec<String>) {
        (self.attempted, self.failed, self.failures)
    }

    /// Runs the counted pass and the verification, and closes the books.
    pub fn finish(mut self, golden: &Golden) -> WorkloadResult {
        let counted = self.counted_pass().unwrap_or(Counted {
            allocs: 0,
            peak_bytes: 0,
        });
        self.attempted += 1;
        let verdict = match self.first {
            Some(first) => guarded(|| self.inputs.verify(golden, first)),
            None => Err("no good pass to verify".to_owned()),
        };
        if let Err(why) = verdict {
            self.fail(format!("verify: {why}"));
        }
        // A workload whose every pass failed still reports (as failed).
        let or_nan = |v: &[f64]| {
            if v.is_empty() {
                Summary::exact(f64::NAN)
            } else {
                Summary::of(v)
            }
        };
        WorkloadResult {
            workload: self.inputs.workload,
            events: self.first.map_or(0, |f| f.events),
            wall: or_nan(&self.walls),
            raw_wall: or_nan(&self.raw_walls),
            cold: or_nan(&self.colds),
            counted,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
        }
    }
}

/// Measures `workloads` start to finish: [`ROUNDS`] rounds sharing
/// `seconds` of timed passes per workload — the rounds interleaved across
/// workloads, so each samples the whole run — then the counted pass and the
/// verification of each.
pub fn measure(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    exe: &Path,
    golden: &Golden,
) -> Vec<WorkloadResult> {
    let mut sessions: Vec<Session> = workloads.iter().map(|&w| Session::new(w, seed)).collect();
    let block = Duration::from_secs_f64(seconds / f64::from(ROUNDS));
    for _ in 0..ROUNDS {
        for session in &mut sessions {
            session.round(exe, block);
        }
    }
    sessions.into_iter().map(|s| s.finish(golden)).collect()
}

/// One pass run part by part, each part between two kernel samples.
struct Timed {
    out: Result<PassOutput, String>,
    calibrated_s: f64,
    raw_s: f64,
    /// The kernel samples before the first part and after the last one.
    first_sample: f64,
    last_sample: f64,
}

fn timed_parts(inputs: &Inputs, kernel: &mut Kernel) -> Timed {
    let mut off = Tracer::new(false);
    let mut whole = Whole::default();
    let first_sample = kernel.sample();
    let mut timed = Timed {
        out: Err(String::new()),
        calibrated_s: 0.0,
        raw_s: 0.0,
        first_sample,
        last_sample: first_sample,
    };
    for i in 0..inputs.parts() {
        let start = Instant::now();
        let part = guarded(|| inputs.part(i, &mut off));
        let elapsed = start.elapsed().as_secs_f64();
        let after = kernel.sample();
        timed.calibrated_s += calibrated(elapsed, timed.last_sample, after);
        timed.raw_s += elapsed;
        timed.last_sample = after;
        match part {
            Ok(out) => whole.add(out),
            Err(why) => {
                timed.out = Err(why);
                return timed;
            }
        }
    }
    timed.out = Ok(whole.finish());
    timed
}

/// What a cold child reports about itself.
#[derive(Debug, PartialEq)]
struct Cold {
    out: PassOutput,
    /// Calibrated seconds from `main` to the end of the first pass, the
    /// calibration kernel's own time excluded.
    calibrated_s: f64,
    /// Raw seconds from `main` to the report, kernel time included.
    total_s: f64,
}

/// `fh-perf cold`: generate the inputs, run one pass, report. `entered` is
/// the instant `main` was entered. Returns the line to print.
///
/// # Errors
///
/// The pass's failure.
pub fn cold(workload: Workload, seed: u64, entered: Instant) -> Result<String, String> {
    let inputs = Inputs::generate(workload, seed);
    let mut kernel = Kernel::new();
    let timed = timed_parts(&inputs, &mut kernel);
    let out = timed.out?;
    let total_s = entered.elapsed().as_secs_f64();
    // Start-up and input generation: everything that was neither a part
    // nor the kernel.
    let rest = (total_s - timed.raw_s - kernel.spent_s()).max(0.0);
    let calibrated_s = timed.calibrated_s + calibrated(rest, timed.first_sample, timed.last_sample);
    Ok(format!(
        "{} {} {calibrated_s} {total_s}",
        out.events, out.fingerprint
    ))
}

fn parse_cold(stdout: &str) -> Result<Cold, String> {
    let words: Vec<&str> = stdout.split_whitespace().collect();
    let parsed = match words[..] {
        [events, fingerprint, calibrated_s, total_s] => (|| {
            Some(Cold {
                out: PassOutput {
                    events: events.parse().ok()?,
                    fingerprint: fingerprint.parse().ok()?,
                },
                calibrated_s: calibrated_s.parse().ok()?,
                total_s: total_s.parse().ok()?,
            })
        })(),
        _ => None,
    };
    parsed.ok_or_else(|| format!("unreadable output {stdout:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::REFERENCE_SEED;

    #[test]
    fn cold_output_round_trips() {
        assert_eq!(
            parse_cold("12 34 0.5 0.75\n"),
            Ok(Cold {
                out: PassOutput {
                    events: 12,
                    fingerprint: 34
                },
                calibrated_s: 0.5,
                total_s: 0.75
            })
        );
        assert!(parse_cold("12 34\n").is_err());
        assert!(parse_cold("12 34 x 0.75\n").is_err());
        assert!(parse_cold("").is_err());
    }

    /// The counted numbers are the ones CI can gate exactly: two counted
    /// passes of one session must agree.
    #[test]
    fn counted_pass_repeats() {
        let _guard = crate::alloc::SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut s = Session::new(Workload::StormTraced, REFERENCE_SEED);
        let events = s.first.expect("warm-up pass").events;
        let a = s.counted_pass().expect("first counted pass");
        let b = s.counted_pass().expect("second counted pass");
        assert_eq!(s.failed, 0, "{:?}", s.failures);
        assert_eq!(a.peak_bytes, b.peak_bytes);
        let (ka, kb) = (
            a.allocs as f64 / events as f64,
            b.allocs as f64 / events as f64,
        );
        assert!(((ka - kb) / ka).abs() < 1e-4, "{a:?} vs {b:?}");
    }

    /// A golden that no longer matches turns the verification into a
    /// failed operation (and, through `report::exit_code`, a nonzero exit).
    #[test]
    fn tampered_golden_is_a_failed_operation() {
        let _guard = crate::alloc::SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let good = Golden::committed();
        let ok = Session::new(Workload::StormTraced, 7).finish(&good);
        assert_eq!(ok.failed, 0, "{:?}", ok.failures);
        assert!(ok.attempted >= 3);

        let mut bad = good.clone();
        bad.timeline_json.push(' ');
        let r = Session::new(Workload::StormTraced, 7).finish(&bad);
        assert_eq!(r.failed, 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("timeline.json"), "{:?}", r.failures);

        let mut bad = good;
        bad.events[Workload::StormTraced as usize] += 1;
        let r = Session::new(Workload::StormTraced, 7).finish(&bad);
        assert_eq!(r.failed, 1, "{:?}", r.failures);
        assert!(crate::report::exit_code(&[r]) != 0);
    }
}
