//! `fh-perf` — the repo's one performance harness.
//!
//! ```text
//! fh-perf --workload W --seed N --seconds S --trace 0|1   # BENCHMARK.json's command
//! fh-perf run   [--seed N] [--seconds S]   # all workloads, table + out/result.json
//! fh-perf trace [--seed N] [--seconds S]   # per-layer metrics + out/trace.json
//! fh-perf aa    [--seed N] [--seconds S]   # two sets of runs, |delta| vs bounds
//! fh-perf manifest                         # prints BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for what every workload and metric means.

#![deny(unsafe_code)]

mod alloc;
mod calib;
mod golden;
mod layers;
mod measure;
mod probes;
mod report;
mod stats;
mod tracer;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use golden::Golden;
use tracer::Tracer;
use workloads::{Workload, REFERENCE_SEED};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `benchmark/out/`, inside the checkout this binary was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(file: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The value following `flag`, parsed; `default` when the flag is absent.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })
}

/// Runs the traced run and writes `out/trace.json` at the end.
fn traced(
    seed: u64,
    own: &[Workload],
    seconds: f64,
    golden: &Golden,
) -> Result<layers::Layers, String> {
    let mut tracer = Tracer::new(true);
    let layers = layers::collect(seed, own, seconds, golden.fig42_dual_20(), &mut tracer);
    let path = write_out("trace.json", &tracer.chrome_json())?;
    eprintln!("wrote {} ({} spans)", path.display(), tracer.spans().len());
    Ok(layers)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn real_main(args: &[String], entered: Instant) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let golden = Golden::committed();
    let seed = flag(args, "--seed", REFERENCE_SEED)?;
    let seconds: f64 = flag(args, "--seconds", f64::from(report::RUN_SECONDS))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    match args.first().map(String::as_str) {
        Some("manifest") => print!("{}", report::manifest()),
        Some("cold") => {
            let w = workload_named(args.get(1).map_or("", String::as_str))?;
            println!("{}", measure::cold(w, seed, entered)?);
        }
        Some("run") => {
            eprintln!("measuring {} workloads, about 15 s each", Workload::ALL.len());
            let results = measure::measure(&Workload::ALL, seed, seconds, &exe, &golden);
            print!("{}", report::table(&results));
            let provenance = report::Provenance {
                seed,
                seconds,
                nproc: std::thread::available_parallelism().map_or(1, usize::from),
                git_commit: git_commit(),
            };
            let path = write_out("result.json", &report::result_json(&results, &provenance))?;
            eprintln!("wrote {}", path.display());
            return Ok(report::exit_code(&results));
        }
        Some("trace") => {
            let layers = traced(seed, &Workload::ALL, seconds / 4.0, &golden)?;
            print!("{}", report::layers_table(&layers));
            for own in &layers.own {
                layers.for_workload(own)?;
            }
            return Ok(u8::from(layers.failed > 0));
        }
        Some("aa") => {
            let first = measure::measure(&Workload::ALL, seed, seconds, &exe, &golden);
            let second = measure::measure(&Workload::ALL, seed, seconds, &exe, &golden);
            let (table, agree) = report::aa_table(&first, &second);
            print!("{table}");
            return Ok(u8::from(!agree));
        }
        Some(a) if a.starts_with("--") => {
            let w = workload_named(&flag(args, "--workload", String::new())?)?;
            let line = match flag(args, "--trace", 0u8)? {
                0 => {
                    let r = measure::measure(&[w], seed, seconds, &exe, &golden).remove(0);
                    for why in &r.failures {
                        eprintln!("FAILED: {why}");
                    }
                    report::driver_line(r.attempted, r.failed, &report::end_to_end_metrics(&r))
                }
                1 => {
                    let layers = traced(seed, &[w], seconds / 2.0, &golden)?;
                    for why in &layers.failures {
                        eprintln!("FAILED: {why}");
                    }
                    let own = layers.own.first().ok_or("traced workload did not run")?;
                    let values = layers.for_workload(own)?;
                    report::driver_line(
                        layers.attempted,
                        layers.failed,
                        &report::per_layer_metrics(&values),
                    )
                }
                _ => return Err("--trace takes 0 or 1".to_owned()),
            };
            println!("{line}");
        }
        _ => {
            return Err(
                "usage: fh-perf (--workload W --seed N --seconds S --trace 0|1 | run | trace | aa | manifest)"
                    .to_owned(),
            )
        }
    }
    Ok(0)
}

fn main() -> ExitCode {
    let entered = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args, entered) {
        Ok(code) => ExitCode::from(code),
        Err(why) => {
            eprintln!("fh-perf: {why}");
            ExitCode::from(2)
        }
    }
}
